"""Peak memory of the kernel build, transform, field-read, ETD2, linear-only
lower-bound and Picard paths.

Peaks are traced with tracemalloc, which sees numpy's array buffers.  The
kernel, transform, field-read, ETD2 and lower-bound peaks are bounded in
units of 8N bytes (one float64 per grid point), each just above the value
measured for N = 2^16 (and 2^18); the kernel grids keep the kernel_io spacing,
dx = 2 * 3200 / 2^19.  The Picard peak is bounded in units of 16 (M+1)(N/2+1) bytes, an
iterate of full half-spectrum rows.
"""

import tracemalloc

import numpy as np
import pytest

from stratwave import (BadParameter, Grid, SolverConfig, datum_from_config,
                       kernel_derivative_field, kernel_field, lower_bound_experiment,
                       picard_solve, preset, solution_at, solve,
                       weighted_persistence_experiment)
from stratwave.analysis import LINEAR_LOWER_BOUND_BYTES_PER_POINT
from stratwave.kernel import KERNEL_PEAK_BYTES_PER_POINT
from stratwave.model import half_spectrum_multiplier
from stratwave.solver import SOLVE_PEAK_BYTES_PER_POINT
from stratwave.spectral import (Field, convolve, field_from_csv, field_to_csv,
                                half_spectrum)
import stratwave.analysis as analysis_module
import stratwave.solver as solver_module
import stratwave.spectral as spectral_module

SIZES = [2 ** 16, 2 ** 18]
SYM, PARAMS = preset("ost")


def grid_of(N: int) -> Grid:
    return Grid(N, 3200.0 * N / 2 ** 19)


def peak_bytes(fn, *args) -> int:
    """Peak traced bytes while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_units(N: int, fn, *args) -> float:
    """Peak traced bytes while fn(*args) runs, in units of 8N bytes."""
    return peak_bytes(fn, *args) / (8 * N)


@pytest.mark.parametrize("N", SIZES)
def test_grid_stores_only_x(N):
    # x is the one array a Grid holds
    assert peak_units(N, grid_of, N) <= 1.05


@pytest.mark.parametrize("N", SIZES)
def test_half_spectrum_multiplier_peak(N):
    # the N/2+1 complex result is 1.0; the blocks add about 0.9 at 2^16
    assert peak_units(N, half_spectrum_multiplier, grid_of(N), SYM, PARAMS) <= 2.0


@pytest.mark.parametrize("N", SIZES)
def test_half_spectrum_and_convolve_peaks(N):
    # the N/2+1 complex rfft output 1.0 is scaled and phased in place, so
    # half_spectrum holds 1.0 and convolve two of them; measured 1.003/2.003
    # (2^16) and 1.001/2.001 (2^18), 1.56-1.75 and 2.56-2.75 with a sign array
    f = Field(grid_of(N), np.ones(N))
    convolve(f, f)   # the first transform of a size holds a one-off allocation
    assert peak_units(N, half_spectrum, f) <= 1.05
    assert peak_units(N, convolve, f, f) <= 2.1


@pytest.mark.parametrize("build", [kernel_field, kernel_derivative_field])
@pytest.mark.parametrize("N", SIZES)
def test_kernel_build_peak(N, build):
    # Khat 1.0, phased in place, + the float64 samples 1.0; measured 2.003
    # (2^16) and 2.001 (2^18), 3.0 with a signed copy and a sign array
    bound = 2.1
    assert peak_units(N, build, 1.0, grid_of(N), SYM, PARAMS) <= bound
    # the memory guard's estimate covers the measured peak
    assert KERNEL_PEAK_BYTES_PER_POINT >= 8 * bound


@pytest.mark.parametrize("N", SIZES)
def test_field_from_csv_peak(N, tmp_path):
    # the inferred grid's x 1.0 + the float64 samples 1.0 (the kernel's im
    # column is all 0) + one block of lines and parsed rows, 0.50 at 2^16 and
    # 0.13 at 2^18; 5.13-5.26 with the whole N x 3 table
    path = tmp_path / "kernel.csv"
    field_to_csv(kernel_field(1.0, grid_of(N), SYM, PARAMS), path)
    assert peak_units(N, field_from_csv, path) <= 2.6


def test_solve_peak():
    # evolve_large's grid and datum, 20 steps, two float64 snapshots 2.0;
    # measured 9.18 (9.34 while the propagator held L, 10.34 while N(u) held
    # u and u ** (k+1) at once)
    N = 2 ** 16
    datum = {"kind": "algebraic", "gamma": 3.0, "c": 0.5}
    cfg = SolverConfig(dt=1e-3, T=0.02, snapshot_times=(0.01, 0.02))
    solve(SYM, PARAMS, datum_from_config(datum, Grid(64, 4.0)), cfg)  # lazy set-up
    u0 = datum_from_config(datum, Grid(N, 400.0))
    bound = 9.8
    assert peak_units(N, solve, SYM, PARAMS, u0, cfg) <= bound
    # the memory guard's estimate covers the measured peak
    assert SOLVE_PEAK_BYTES_PER_POINT >= 8 * bound


def test_weighted_persistence_peak():
    # the solve above without snapshots, and one field per sample; measured
    # 8.84 (2^16 and 2^18; 9.01 while the propagator held L), within the
    # guard's estimate for solve
    N = 2 ** 16
    datum = {"kind": "algebraic", "gamma": 3.0, "c": 0.5}
    args = (2.0, 0.5, SolverConfig(dt=1e-3, T=0.02))
    weighted_persistence_experiment(SYM, PARAMS, datum_from_config(datum, Grid(64, 4.0)),
                                    *args)
    u0 = datum_from_config(datum, Grid(N, 400.0))
    bound = 9.1
    assert peak_units(N, weighted_persistence_experiment, SYM, PARAMS, u0, *args) <= bound
    assert SOLVE_PEAK_BYTES_PER_POINT >= 8 * bound


#: T3-LOWER's linear-only run: its datum, time grid and windows; L = 800 at N = 2^17
LOWER_DATUM = {"kind": "algebraic", "gamma": 3.0, "c": 1.0}
LOWER_RUN = SolverConfig(dt=1e-3, T=1.0, linear_only=True)
LOWER_ARGS = (LOWER_RUN, [[40.0, 80.0], [60.0, 120.0], [100.0, 200.0]])


@pytest.mark.parametrize("N", SIZES)
def test_linear_lower_bound_peak(N):
    # Khat(T) 1.0, u0's half-spectrum 1.0 and their product 1.0; measured
    # 3.03 (2^16) and 3.00 (2^18)
    lower_bound_experiment(SYM, PARAMS, datum_from_config(LOWER_DATUM, Grid(64, 0.4)),
                           LOWER_RUN, [[0.05, 0.1]])   # lazy set-up
    u0 = datum_from_config(LOWER_DATUM, Grid(N, 800.0 * N / 2 ** 17))
    bound = 3.1
    assert peak_units(N, lower_bound_experiment, SYM, PARAMS, u0, *LOWER_ARGS) <= bound
    # the memory guard's estimate covers the measured peak
    assert LINEAR_LOWER_BOUND_BYTES_PER_POINT >= 8 * bound


def _no_kernel(*args, **kwargs):
    raise AssertionError("built Khat(T) before the memory check")


def test_linear_lower_bound_guard_raises_before_the_kernel(monkeypatch):
    # room for the kernel build's own 17 bytes per point, not for the 25 the
    # path holds: the guard raises before half_kernel_hat runs
    N = 2 ** 12
    u0 = datum_from_config(LOWER_DATUM, Grid(N, 400.0))
    monkeypatch.setattr(analysis_module, "half_kernel_hat", _no_kernel)
    need = LINEAR_LOWER_BOUND_BYTES_PER_POINT * N
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(BadParameter, match=f"linear-only lower bound at N={N}.* "
                                           f"needs {need} bytes"):
        lower_bound_experiment(SYM, PARAMS, u0, *LOWER_ARGS)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="before the memory check"):
        lower_bound_experiment(SYM, PARAMS, u0, *LOWER_ARGS)


def _no_propagator(*args, **kwargs):
    raise AssertionError("built a propagator before the memory check")


def _guard_case():
    """ost on N = 1024 and a Gaussian datum: 10 steps of dt = 0.01."""
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, Grid(1024, 50.0))
    return SYM, PARAMS, u0


@pytest.mark.parametrize("snapshots,need", [
    ((0.1,), 79 * 1024 + 16 * 11),
    ((0.05, 0.1), 79 * 1024 + 16 * 11),
    # each snapshot beyond two holds another 8N bytes
    ((0.02, 0.04, 0.06, 0.08, 0.1), (79 + 3 * 8) * 1024 + 16 * 11),
])
def test_solve_guard_raises_before_the_propagator(monkeypatch, snapshots, need):
    monkeypatch.setattr(solver_module, "EtdPropagator", _no_propagator)
    cfg = SolverConfig(dt=1e-2, T=0.1, snapshot_times=snapshots)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(BadParameter, match=f"ETD2 run at N=1024.* needs {need} bytes"):
        solve(*_guard_case(), cfg)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="before the memory check"):
        solve(*_guard_case(), cfg)


def test_weighted_persistence_guard_raises_before_the_propagator(monkeypatch):
    monkeypatch.setattr(solver_module, "EtdPropagator", _no_propagator)
    need = SOLVE_PEAK_BYTES_PER_POINT * 1024
    args = (2.0, 0.5, SolverConfig(dt=1e-2, T=0.1))
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(BadParameter, match=f"ETD2 run at N=1024.* needs {need} bytes"):
        weighted_persistence_experiment(*_guard_case(), *args)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="before the memory check"):
        weighted_persistence_experiment(*_guard_case(), *args)


def test_solution_at_guard_counts_no_per_step_bytes(monkeypatch):
    # u(T) records no monitor series: the propagator's bytes alone, where
    # solve's snapshot at T adds 16 per step
    monkeypatch.setattr(solver_module, "EtdPropagator", _no_propagator)
    need = 79 * 1024
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(BadParameter, match=f"ETD2 run at N=1024.* needs {need} bytes"):
        solution_at(*_guard_case(), SolverConfig(dt=1e-2, T=0.1))
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="before the memory check"):
        solution_at(*_guard_case(), SolverConfig(dt=1e-2, T=0.1))


def picard_case(name: str, k: int, N: int, M: int):
    """A small Gaussian on the duhamel_small box, L = 64, dt = 1e-3, M steps."""
    sym, params = preset(name, k=k) if name == "gost" else preset(name)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.01}, Grid(N, 64.0))
    return sym, params, u0, SolverConfig(dt=1e-3, T=M * 1e-3)


@pytest.mark.parametrize("name,k,bound", [("ost", 1, 0.72), ("gost", 2, 0.54)])
def test_picard_peak(name, k, bound):
    # the iterate holds the kept modes only: (M+1) x (K+1) with K+1 about
    # 2/(k+2) of N/2+1, so 0.667 (k = 1) or 0.500 (k = 2) of the unit below,
    # plus one propagator and the per-step temporaries
    N, M = 2 ** 12, 300
    picard_solve(*picard_case(name, k, 64, 2))   # lazy imports and set-up
    peak = peak_bytes(picard_solve, *picard_case(name, k, N, M))
    assert peak / (16 * (M + 1) * (N // 2 + 1)) <= bound


def test_picard_guard_counts_kept_modes_only(monkeypatch):
    # physical memory between the kept-mode need, the propagator's 79 x 1024
    # bytes + 16 x 11 x 342, and the full half-spectrum one, 79 x 1024 +
    # 16 x 11 x 513: the run goes ahead
    monkeypatch.setattr(spectral_module, "_physical_memory",
                        lambda: 79 * 1024 + 16 * 11 * 513 - 1)
    field, report = picard_solve(*picard_case("ost", 1, 1024, 10))
    assert report["converged"] and field.grid.N == 1024


@pytest.mark.parametrize("memory", [16 * 11 * 342, 79 * 1024,
                                    79 * 1024 + 16 * 11 * 342 - 1])
def test_picard_guard_counts_its_propagator(monkeypatch, memory):
    # room for the iterate, 16 x 11 x 342 bytes, but not for it and the
    # propagator's 79 x 1024: the guard raises before any propagator is built
    monkeypatch.setattr(solver_module, "EtdPropagator", _no_propagator)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: memory)
    need = 79 * 1024 + 16 * 11 * 342
    with pytest.raises(BadParameter, match=f"Picard run at N=1024.* needs {need} bytes"):
        picard_solve(*picard_case("ost", 1, 1024, 10))
