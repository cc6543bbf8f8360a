import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (FullHalfSpectrumEtd, dealias, dissipation_rate,
                     etd2_reference, fft_j, fft_xi, picard_reference,
                     picard_streamed_reference, to_physical)
from stratwave import (DispersionSymbol, EtdPropagator, Field, Grid, NoContraction,
                       NonFinite, SolverConfig, datum_from_config, growth_envelope,
                       linear_multiplier, picard_solve, preset, run_experiment,
                       solution_at, solve, tail_exponent, validate_params)
from stratwave.errors import BadParameter, ConfigInvalid
import stratwave.solver as solver_module
import stratwave.spectral as spectral_module
from stratwave.solver import _phi
from stratwave.spectral import to_spectral


def l2_diff(a: Field, b: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(a.samples - b.samples) ** 2) * a.grid.dx))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_algebraic_datum_profile_and_tail():
    g = Grid(2 ** 16, 400.0)
    u = datum_from_config({"kind": "algebraic", "gamma": 2.0, "c": 1.0}, g)
    assert u.samples[g.N // 2] == pytest.approx(1.0)     # x = 0
    for fit in tail_exponent(u, (20.0, 200.0)).values():
        assert fit["exponent"] == pytest.approx(2.0, abs=0.05)


def test_zero_mean_datum():
    g = Grid(2 ** 14, 200.0)
    u = datum_from_config({"kind": "zero_mean_algebraic", "gamma": 3.0}, g)
    assert abs(np.sum(u.samples.real) * g.dx) <= 1e-12
    # still decays like the requested power
    for fit in tail_exponent(u, (10.0, 90.0)).values():
        assert fit["exponent"] == pytest.approx(3.0, abs=0.05)


def test_growth_datum_envelope():
    g = Grid(2 ** 14, 200.0)
    u = datum_from_config({"kind": "growth", "gamma": 0.3, "c0": 0.01}, g)
    assert growth_envelope(u, 0.3) <= 0.01 + 1e-15
    # vanishes left of the switch and at the right seam
    assert np.max(np.abs(u.samples[g.x <= -1.0])) == 0.0
    assert abs(u.samples[-1]) == 0.0


def test_gaussian_datum_mass():
    g = Grid(2 ** 14, 100.0)
    u = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 1.0}, g)
    assert np.sum(u.samples.real) * g.dx == pytest.approx(math.sqrt(2 * math.pi),
                                                          rel=1e-10)


def test_datum_parameter_guards():
    g = Grid(64, 10.0)
    for spec, path in (({"kind": "algebraic", "gamma": 0.0}, "$.gamma"),
                       ({"kind": "gaussian", "sigma0": -1.0}, "$.sigma0"),
                       ({"kind": "growth", "gamma": 0.7}, "$.gamma"),
                       ({"kind": "growth", "gamma": 0.3, "c0": 0}, "$.c0"),
                       ({"kind": "algebraic"}, "$"),             # gamma has no default
                       ({"kind": "nosuch"}, "$.kind")):
        with pytest.raises(ConfigInvalid) as exc:
            datum_from_config(spec, g)
        assert exc.value.path == path


# ---------------------------------------------------------------------------
# single ETD step and linear exactness
# ---------------------------------------------------------------------------

def test_zero_datum_is_fixed_point():
    g = Grid(2 ** 10, 50.0)
    sym, params = preset("ost")
    u0 = Field(g, np.zeros(g.N))
    prop = EtdPropagator(g, sym, params, 1e-2)
    assert np.max(np.abs(prop.step(prop.forward(u0)))) == 0.0
    traj = solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1))
    assert np.max(np.abs(traj.snapshots[-1].samples)) == 0.0
    assert np.max(traj.energy_series) == 0.0


def test_linear_only_equals_kernel_convolution():
    g = Grid(2 ** 12, 64.0)
    sym, params = preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 1.0}, g)
    cfg = SolverConfig(dt=1e-2, T=0.5, snapshot_times=(0.5,), linear_only=True)
    traj = solve(sym, params, u0, cfg)
    khat = np.exp(linear_multiplier(fft_xi(g), sym, params) * 0.5)
    expect = Field(g, to_physical(g, khat * to_spectral(u0)).real)
    # note the solver dealiases the datum; apply the same projection
    expect_deal = Field(g, to_physical(g, khat * dealias(g, to_spectral(u0), params.k)).real)
    assert l2_diff(traj.snapshots[-1], expect_deal) <= 1e-10
    assert l2_diff(traj.snapshots[-1], expect) <= 1e-10  # datum is band-limited


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
def test_self_convergence_order(name):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, g)
    finals = [solve(sym, params, u0,
                    SolverConfig(dt=dt, T=0.2, snapshot_times=(0.2,))).snapshots[-1]
              for dt in (2e-3, 1e-3, 5e-4)]
    order = math.log2(l2_diff(finals[0], finals[1]) / l2_diff(finals[1], finals[2]))
    assert order >= 1.9


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
def test_solution_at_is_solves_snapshot_bitwise(name):
    # with the nonlinearity and without it: solution_at reads linear_only as solve does
    sym, params = preset(name)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, Grid(2 ** 9, 32.0))
    for linear_only in (False, True):
        cfg = SolverConfig(dt=1e-2, T=0.2, linear_only=linear_only)
        assert np.array_equal(solution_at(sym, params, u0, cfg).samples,
                              solve(sym, params, u0, cfg).snapshots[-1].samples)


@pytest.mark.parametrize("experiment", [{"kind": "decay", "window": [5.0, 40.0]},
                                        {"kind": "convergence"}], ids=["decay", "convergence"])
def test_u_at_T_runs_no_monitor(monkeypatch, experiment):
    def monitored(*args):
        raise AssertionError("u(T) ran a per-step monitor")

    monkeypatch.setattr(EtdPropagator, "monitors", monitored)
    report, outputs = run_experiment({
        "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 100.0},
        "datum": {"kind": "algebraic", "gamma": 3.0},
        "solver": {"dt": 1e-2, "T": 0.04}, "experiment": experiment})
    assert report and outputs == {}
    assert ("order" in report) == (experiment["kind"] == "convergence")


@pytest.mark.parametrize("dt,T", [(math.nan, 0.1), (1e-2, math.inf), (0.2, 0.1),
                                  (-1e-2, 0.1), (1e-2, 0.105)])
def test_solution_at_refuses_dt_and_T_as_solve_does(dt, T):
    # solution_at and solve take one SolverConfig, whose constructor refuses
    # the grid, with one line for both, before either can be called
    if not (math.isfinite(dt) and math.isfinite(T)):
        line = f"dt and T must be finite, got {dt}, {T}"
    elif 0 < dt <= T:
        line = f"T={T} is not a positive whole number of steps of dt={dt}"
    else:
        line = "require 0 < dt <= T"
    with pytest.raises(BadParameter) as err:
        SolverConfig(dt=dt, T=T)
    assert str(err.value) == line


@pytest.mark.parametrize("run", [
    lambda *case: solve(*case, SolverConfig(dt=0.1, T=5.0)),
    # yields only its last step, yet checks every one
    lambda *case: solution_at(*case, SolverConfig(dt=0.1, T=5.0)),
], ids=["solve", "solution_at"])
def test_nonfinite_detection(run):
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 50.0}, g)
    with pytest.raises(NonFinite) as err:
        run(sym, params, u0)
    # the t of the first non-finite state, whichever runs
    prop = EtdPropagator(g, sym, params, 0.1)
    uhat, steps = prop.forward(u0), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(uhat)):
            uhat, steps = prop.step(uhat), steps + 1
    assert err.value.t == steps * 0.1


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
def test_real_stepper_matches_complex_reference(name):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, g)
    assert_matches_etd2_reference(sym, params, u0)


def assert_matches_etd2_reference(sym, params, u0, dt=1e-3):
    """10 ETD2 steps of the real stepper equal the complex reference's to
    1e-12 relative after step 1 and step 10."""
    g = u0.grid
    ref = etd2_reference(u0.samples.real, g.L, params.m, params.n, params.k,
                         params.eta, sym, dt, 10)
    prop = EtdPropagator(g, sym, params, dt)
    states = dict(prop.march(prop.forward(u0), 10, (1, 10)))
    for i in (1, 10):
        got = prop.physical(states[i]).samples
        rel = np.linalg.norm(got - ref[i - 1]) / np.linalg.norm(ref[i - 1])
        assert rel <= 1e-12, (i, rel)


@pytest.mark.parametrize("name,k", [("ost", 1), ("gost", 2), ("gost", 3)])
def test_real_stepper_matches_reference_on_every_kept_mode(name, k):
    """A datum with every mode |j| <= N/(k+2) nonzero: the nonlinearity
    fills the whole spectrum, so a dealias cutoff other than N/(k+2) (a
    kept mode dropped, or an aliased one kept) moves the result."""
    sym, params = preset(name, k=k) if name == "gost" else preset(name)
    g = Grid(64, 16.0)
    rng = np.random.default_rng(k)
    coeffs = np.zeros(g.N // 2 + 1, dtype=complex)
    kept = np.arange(coeffs.size) <= g.N / (k + 2)
    coeffs[kept] = rng.standard_normal(kept.sum()) + 1j * rng.standard_normal(kept.sum())
    samples = np.fft.irfft(coeffs, n=g.N)
    assert_matches_etd2_reference(sym, params,
                                  Field(g, 0.1 * samples / np.max(np.abs(samples))))


@pytest.mark.parametrize("N", [2 ** 10, 2 ** 12])
@pytest.mark.parametrize("name,k", [("ost", 1), ("gost", 2), ("gost", 3),
                                    ("bo_perturbed", 1), ("chen_lee", 1),
                                    ("dgbo_perturbed", 1)])
def test_kept_mode_solve_equals_full_half_spectrum_bitwise(name, k, N):
    """solve on the kept modes gives the same bits as stepping all N/2 + 1
    modes with the dealias mask: snapshots, energy and dissipation series."""
    sym, params = preset(name, k=k) if name == "gost" else preset(name)
    g = Grid(N, N / 64.0)
    rng = np.random.default_rng(N + k)
    coeffs = np.zeros(N // 2 + 1, dtype=complex)
    kept = np.arange(coeffs.size) <= N / (params.k + 2)
    coeffs[kept] = rng.standard_normal(kept.sum()) + 1j * rng.standard_normal(kept.sum())
    samples = np.fft.irfft(coeffs, n=N)
    u0 = Field(g, 0.5 * samples / np.max(np.abs(samples)))
    dt, n_steps = 1e-3, 20
    traj = solve(sym, params, u0, SolverConfig(dt=dt, T=n_steps * dt,
                                               snapshot_times=(dt, 10 * dt, 20 * dt)))
    ref = FullHalfSpectrumEtd(g, sym, params, dt)
    uhat = ref.forward(u0)
    energies, rates, snapshots = [ref.energy(uhat)], [ref.dissipation(uhat)], []
    for step in range(1, n_steps + 1):
        uhat = ref.step(uhat)
        energies.append(ref.energy(uhat))
        rates.append(ref.dissipation(uhat))
        if step in (1, 10, 20):
            snapshots.append(ref.physical(uhat))
    assert np.array_equal(traj.energy_series, energies)
    assert np.array_equal(traj.dissipation_series, rates)
    for got, want in zip(traj.snapshots, snapshots, strict=True):
        assert np.array_equal(got.samples, want)


_VALID_N = [n for n in range(1, 13) if not (n % 4 == 1 and n >= 5)]


@settings(max_examples=60, deadline=None)
@given(sym=st.sampled_from([DispersionSymbol.kdv(), DispersionSymbol.bo(),
                            DispersionSymbol.dgbo(0.5)]),
       m=st.sampled_from([2, 3]), n=st.sampled_from(_VALID_N),
       k=st.integers(1, 4), eta=st.floats(0.05, 5.0),
       N=st.sampled_from([16, 64, 256]), L=st.floats(2.0, 100.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_parseval_energy_and_dissipation(sym, m, n, k, eta, N, L, seed):
    params = validate_params(m, n, k, eta)
    g = Grid(N, L)
    prop = EtdPropagator(g, sym, params, 1e-3)
    u = Field(g, np.random.default_rng(seed).standard_normal(N))
    uhat = np.fft.rfft(u.samples)   # unmasked, so the Nyquist weight counts too
    energy, rate = prop.monitors(uhat)
    assert energy == pytest.approx(u.l2_norm(), rel=1e-12)
    # n = 1 has an amplification band, so the rate can cancel: compare
    # against the sum of the absolute contributions
    expect = dissipation_rate(g, to_spectral(u), params)
    scale = float(np.dot(np.abs(prop.rate_weight), np.abs(uhat) ** 2))
    assert abs(rate - expect) <= 1e-12 * scale
    if n != 1:
        assert rate == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("z", [-10.0 ** p for p in range(150, 301, 10)]
                         + [-1.0 + 1e160j, 1e160j, -1e160 + 1e160j])
def test_phi2_finite_where_z_squared_overflows(z):
    # (e^z - 1 - z) / z^2 -> -1/z; z^2 past float64 gave 0 or NaN
    got = complex(_phi(np.array([z], dtype=complex), 2)[0])
    assert cmath.isfinite(got)
    assert abs(got + 1 / z) <= 1e-12 * abs(1 / z)


def _exact_phi(z: complex, order: int):
    """(re, im) of sum_q z^q / (q + order)! in exact rationals, to q = 24:
    for |z| < 0.1 the rest is below 1e-40 of the sum."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re, im = Fraction(0), Fraction(0)
    for q in range(24 + order, order - 1, -1):     # Horner, from the last term
        re, im = re * x - im * y + Fraction(1, math.factorial(q)), re * y + im * x
    return re, im


_SMALL_Z = sorted({r * cmath.exp(2j * math.pi * j / 36) for j in range(36)
                   for r in (0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.01, 0.03, 0.05, 0.07, 0.09,
                             0.0999)}, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dtype", [complex, float])
def test_phi_taylor_branch_is_exact_to_rounding(order, dtype):
    # |z| < 0.1 takes the Taylor branch; each value is within 4 eps of the
    # exact series (12 terms are within half an ulp here, 5 terms off by 1.4e-8)
    zs = np.array([z if dtype is complex else z.real for z in _SMALL_Z], dtype=dtype)
    assert np.all(np.abs(zs) < 0.1)
    tol = Fraction(4 * np.finfo(float).eps) ** 2
    for z, got in zip(zs, _phi(zs, order)):
        re, im = _exact_phi(complex(z), order)
        got = complex(got)
        err2 = (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
        assert err2 <= tol * (re ** 2 + im ** 2), (z, order)


def test_complex_datum_rejected():
    # a complex datum cannot reach either solver: no Field holds it
    g = Grid(2 ** 8, 20.0)
    u = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, g)
    with pytest.raises(BadParameter, match="real data"):
        Field(g, u.samples * (1.0 + 0.1j))


@pytest.mark.parametrize("name", ["dt", "T", "picard_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_solver_config_rejects_non_finite_values(name, value):
    # a nan dt, T or picard_tol used to pass every comparison in the checks
    with pytest.raises(BadParameter, match="must be finite"):
        SolverConfig(**{"dt": 1e-3, "T": 0.1, "picard_tol": 1e-10, name: value})


@pytest.mark.parametrize("T", [0.1005, 0.0004])
def test_partial_steps_rejected_in_both_modes(T):
    # picard used to round T to a whole number of steps; both modes now read
    # SolverConfig.n_steps, so a T between steps builds no config for either
    # (and a T below dt fails the 0 < dt <= T check first)
    message = "whole number of steps" if T >= 1e-3 else "require 0 < dt <= T"
    with pytest.raises(BadParameter, match=message):
        SolverConfig(dt=1e-3, T=T)
    assert SolverConfig(dt=1e-3, T=0.1).n_steps == 100


def test_snapshot_times_off_grid_or_colliding_rejected():
    # 0.1004 lies between steps; it used to be moved onto step 100 and drop 0.1
    with pytest.raises(BadParameter, match="not a multiple of dt"):
        SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.1, 0.1004, 0.1507))
    with pytest.raises(BadParameter, match="same step"):
        SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.1, 0.1 + 1e-12))
    cfg = SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.15, 0.0, 0.1, 0.1))
    assert cfg.n_steps == 200
    assert list(cfg.snapshot_steps.items()) == [(0, 0.0), (100, 0.1), (150, 0.15)]


def test_solver_config_grid_leaves_equality_and_hash_alone():
    # n_steps and snapshot_steps are derived: two configs of the same
    # fields are equal and hash alike, and the derived fields are read-only
    a, b = (SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.05,)) for _ in range(2))
    assert a == b and hash(a) == hash(b) and a.snapshot_steps == {5: 0.05}
    assert "n_steps" not in repr(a)
    with pytest.raises(AttributeError):
        a.n_steps = 3


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _time_grids(draw):
    """(dt, T, snapshot_times): any floats, or T a whole number of steps of
    dt and the times on its steps, so that both refusals and grids occur."""
    dt = draw(_ANY_FLOAT | st.floats(1e-6, 1.0))
    n = draw(st.integers(1, 10 ** 6))
    T = draw(_ANY_FLOAT | st.just(n * dt))
    times = draw(st.none() | st.lists(
        _ANY_FLOAT | st.integers(0, n).map(lambda i: i * dt), max_size=5).map(tuple))
    return dt, T, times


@settings(max_examples=400, deadline=None)
@given(_time_grids())
@example((1e-3, 0.01, (0.005, 1e308)))
@example((1e-3, 0.01, (-1e308,)))
@example((5e-324, 1e308, None))
def test_solver_config_is_a_time_grid_or_bad_parameter(grid):
    # no other exception escapes: a finite t whose t/dt overflows used to
    # raise OverflowError from round()
    dt, T, times = grid
    try:
        cfg = SolverConfig(dt=dt, T=T, snapshot_times=times)
    except BadParameter:
        return
    n = cfg.n_steps
    assert n >= 1 and abs(n * dt - T) <= 1e-9 * T
    steps = list(cfg.snapshot_steps)
    assert steps == sorted(set(steps)) and all(0 <= step <= n for step in steps)
    assert all(abs(step * dt - t) <= 1e-9 * t for step, t in cfg.snapshot_steps.items())
    assert set(cfg.snapshot_steps.values()) == set(times if times is not None else (T,))


# ---------------------------------------------------------------------------
# trajectories and energy monitors
# ---------------------------------------------------------------------------

def test_trajectory_bookkeeping():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, g)
    cfg = SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.0, 0.05, 0.1))
    traj = solve(sym, params, u0, cfg)
    assert traj.times == [0.0, 0.05, 0.1]
    assert len(traj.snapshots) == 3
    assert np.all(np.diff(traj.energy_times) > 0)
    assert len(traj.energy_series) == 11


def test_energy_zero_field():
    g = Grid(64, 10.0)
    u = Field(g, np.zeros(g.N))
    params = validate_params(2, 2, 1, 1.0)
    prop = EtdPropagator(g, DispersionSymbol.kdv(), params, 1e-3)
    uhat = np.fft.rfft(u.samples)
    assert u.l2_norm() == 0.0 and prop.monitors(uhat) == (0.0, 0.0)
    assert dissipation_rate(g, to_spectral(u), params) == 0.0


def test_dissipation_rate_even_n_matches_m_term_only():
    # for n even the i^{n+1} term has odd real part: only |xi|^m contributes
    rng = np.random.default_rng(12)
    g = Grid(512, 20.0)
    u = Field(g, rng.standard_normal(g.N))
    U = to_spectral(u)
    params = validate_params(2, 2, 1, 1.3)
    prop = EtdPropagator(g, DispersionSymbol.kdv(), params, 1e-3)
    rate = prop.monitors(np.fft.rfft(u.samples))[1]
    expect = -1.3 * np.sum(np.abs(fft_xi(g)) ** 2 * np.abs(U) ** 2) \
        * g.dxi / (2 * np.pi)
    assert rate == pytest.approx(expect, rel=1e-12)
    assert rate == pytest.approx(dissipation_rate(g, U, params), rel=1e-12)
    assert rate <= 0


def test_dissipation_rate_amplification_band():
    # n=1, m=2: rate = eta sum (|xi| - |xi|^2)|uhat|^2 > 0 for |xi| < 1 data
    g = Grid(256, 64.0)   # dxi ~ 0.049: plenty of modes below |xi| = 1
    coeffs = np.where(np.abs(fft_xi(g)) < 0.9, 1.0, 0.0).astype(complex)
    coeffs[fft_j(g) == 0] = 0.0
    u = Field(g, to_physical(g, coeffs).real)
    params = validate_params(2, 1, 1, 1.0)
    prop = EtdPropagator(g, DispersionSymbol.kdv(), params, 1e-3)
    rate = prop.monitors(np.fft.rfft(u.samples))[1]
    assert rate > 0
    assert rate == pytest.approx(dissipation_rate(g, to_spectral(u), params), rel=1e-12)


def test_energy_derivative_matches_dissipation_linear_run():
    # d/dt ||u||^2 = 2 * dissipation_rate under the linear flow
    sym, params = preset("ost")
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 1.0}, g)
    dt = 1e-3
    traj = solve(sym, params, u0, SolverConfig(dt=dt, T=0.2, linear_only=True))
    e2 = traj.energy_series ** 2
    de2 = np.gradient(e2, dt)
    resid = de2[1:-1] - 2 * traj.dissipation_series[1:-1]
    assert np.max(np.abs(resid)) <= 1e-6   # O(dt^2) differencing error


def test_nonlinear_term_l2_neutrality():
    # discrete L2 drift of the nonlinear term alone < 1e-6 per unit time
    sym, params = preset("ost")
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 1.0}, g)
    full = solve(sym, params, u0, SolverConfig(dt=1e-3, T=1.0))
    lin = solve(sym, params, u0, SolverConfig(dt=1e-3, T=1.0, linear_only=True))
    # the nonlinearity must not create/destroy L2 beyond integrator error
    drift = abs(full.energy_series[-1] ** 2 -
                (full.energy_series[0] ** 2 +
                 2 * np.trapezoid(full.dissipation_series, full.energy_times)))
    assert drift <= 1e-5  # O(dt^2) integration of the rate + aliasing residue


@pytest.mark.parametrize("n", [2, 3])
def test_energy_monotone_dissipative_models(n):
    params = validate_params(2, n, 1, 1.0)
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, g)
    traj = solve(DispersionSymbol.kdv(), params, u0, SolverConfig(dt=1e-3, T=0.5))
    assert float(np.max(np.diff(traj.energy_series))) <= 1e-10


def test_energy_growth_bound_n1():
    sym, params = preset("ost")
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, g)
    traj = solve(sym, params, u0, SolverConfig(dt=1e-3, T=1.0))
    bound = traj.energy_series[0] * np.exp(params.eta * traj.energy_times) * 1.01
    assert np.all(traj.energy_series <= bound)


# ---------------------------------------------------------------------------
# picard mode
# ---------------------------------------------------------------------------

def test_picard_zero_datum_one_iteration():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = Field(g, np.zeros(g.N))
    final, report = picard_solve(sym, params, u0,
                                 SolverConfig(dt=1e-2, T=0.1))
    assert report["iterations"] == 1 and report["converged"]
    assert np.max(np.abs(final.samples)) == 0.0


def test_picard_matches_etd_small_data():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.01}, g)
    cfg = SolverConfig(dt=1e-3, T=0.1, snapshot_times=(0.1,))
    u_etd = solve(sym, params, u0, cfg).snapshots[-1]
    u_pic, report = picard_solve(
        sym, params, u0, SolverConfig(dt=1e-3, T=0.1, picard_tol=1e-12))
    assert report["converged"]
    assert all(f < 1 for f in report["contraction_factors"])
    assert l2_diff(u_etd, u_pic) <= 1e-6


def test_picard_returns_the_snapshot_at_T():
    sym, params = preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, Grid(2 ** 10, 50.0))
    for times in (None, (0.05, 0.1)):
        final, report = picard_solve(sym, params, u0,
                                     SolverConfig(dt=1e-2, T=0.1, snapshot_times=times))
        assert final is report["snapshots"][-1][1]
    final, report = picard_solve(sym, params, u0,
                                 SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.05,)))
    assert [t for t, _ in report["snapshots"]] == [0.05]
    assert l2_diff(final, report["snapshots"][0][1]) > 0


def test_computed_fields_are_float64():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    for spec in ({"kind": "algebraic", "gamma": 2.0, "c": 1.0},
                 {"kind": "zero_mean_algebraic", "gamma": 3.0},
                 {"kind": "growth", "gamma": 0.3, "c0": 0.01},
                 {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}):
        assert datum_from_config(spec, g).samples.dtype == np.float64
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, g)
    cfg = SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.05, 0.1))
    final, report = picard_solve(sym, params, u0, cfg)
    prop = EtdPropagator(g, sym, params, 1e-2)
    fields = (solve(sym, params, u0, cfg).snapshots
              + [final] + [f for _, f in report["snapshots"]]
              + [prop.physical(prop.step(prop.forward(u0)))])
    assert [f.samples.dtype for f in fields] == [np.float64] * 6


def test_picard_linear_only_matches_etd_linear_only():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.5}, g)
    u_etd = solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1,
                                                linear_only=True)).snapshots[-1]
    u_pic, report = picard_solve(sym, params, u0,
                                 SolverConfig(dt=1e-2, T=0.1, linear_only=True))
    assert report["converged"]
    assert l2_diff(u_etd, u_pic) <= 1e-10


def test_picard_no_contraction_for_large_data():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 20.0}, g)
    with pytest.raises(NoContraction):
        picard_solve(sym, params, u0,
                     SolverConfig(dt=5e-3, T=0.5))


def test_picard_non_finite_update_counts_as_infinite(monkeypatch):
    # a nan update norm is an infinite one: its contraction factors are inf,
    # three in a row raise, and a final one is reported as inf
    sym, params = preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, Grid(2 ** 10, 50.0))
    cfg = SolverConfig(dt=1e-2, T=0.1)
    for norms in ([1.0, np.nan], [1.0, np.nan, np.nan, np.nan]):
        monkeypatch.setattr(solver_module, "_picard_sweeps",
                            lambda prop, traj, norms=norms: iter(norms))
        if len(norms) == 2:
            _, report = picard_solve(sym, params, u0, cfg)
            assert report["contraction_factors"] == [np.inf]
            assert report["final_update"] == np.inf and not report["converged"]
        else:
            with pytest.raises(NoContraction, match=r"\[inf, inf, inf\]"):
                picard_solve(sym, params, u0, cfg)


@pytest.mark.parametrize("name,linear_only", [
    ("ost", False), ("gost", False), ("bo_perturbed", False), ("chen_lee", False),
    ("dgbo_perturbed", False), ("ost", True)])
def test_picard_matches_direct_duhamel_reference(name, linear_only):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.1}, g)
    dt, M, tol = 1e-3, 50, 1e-12
    ref, (iterations, converged, _) = picard_reference(
        u0.samples.real, g.L, params.m, params.n, params.k, params.eta, sym,
        dt, M, tol, linear_only=linear_only)
    got, report = picard_solve(sym, params, u0,
                               SolverConfig(dt=dt, T=M * dt, picard_tol=tol,
                                            linear_only=linear_only))
    assert (report["iterations"], report["converged"]) == (iterations, converged)
    assert converged and iterations >= (1 if linear_only else 3)
    rel = np.linalg.norm(got.samples - ref) / np.linalg.norm(ref)
    assert rel <= 1e-12, rel


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


# B = max(1, PICARD_BLOCK_POINTS // N) steps per block: 8 at N = 2^10, 1 at
# N = 2^14; M = 1, B - 1, B, B + 1 and 20 (not a multiple of 8)
@pytest.mark.parametrize("N,M", [(2 ** 10, M) for M in (1, 7, 8, 9, 20)]
                         + [(2 ** 14, M) for M in (1, 2, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("linear_only", [False, True])
def test_picard_blocks_match_the_streamed_loop_bitwise(N, M, k, linear_only):
    assert max(1, solver_module.PICARD_BLOCK_POINTS // 2 ** 10) == 8
    sym, params = preset("gost", k=k) if k > 1 else preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.5}, Grid(N, 64.0))
    dt = 1e-3
    # a snapshot at t = 0 and one mid-run; the field at T comes from traj[M]
    cfg = SolverConfig(dt=dt, T=M * dt, snapshot_times=(0.0, (M // 2) * dt),
                       linear_only=linear_only)
    got, report = picard_solve(sym, params, u0, cfg)
    ref, ref_report = picard_streamed_reference(sym, params, u0, cfg)
    assert got.samples.tobytes() == ref.samples.tobytes()
    assert ([t for t, _ in report["snapshots"]]
            == [t for t, _ in ref_report["snapshots"]])
    for (_, f), (_, g) in zip(report["snapshots"], ref_report["snapshots"]):
        assert f.samples.tobytes() == g.samples.tobytes()
    assert (report["iterations"], report["converged"]) == (
        ref_report["iterations"], ref_report["converged"])
    assert _bits(report["final_update"], report["contraction_factors"]) == _bits(
        ref_report["final_update"], ref_report["contraction_factors"])
    assert report["converged"]
    assert report["iterations"] >= (1 if linear_only else 3)


def test_picard_memory_guard_raises_before_any_step(monkeypatch):
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, g)
    # the propagator's 79 x 1024 bytes and 11 x 342 complex values (the kept
    # modes j <= 1024/3) need 80896 + 60192 = 141088 bytes
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: 141087)

    def no_propagator(*args, **kwargs):
        raise AssertionError("built a propagator before the memory check")

    monkeypatch.setattr(solver_module, "EtdPropagator", no_propagator)
    with pytest.raises(BadParameter, match="141088 bytes.*141087 bytes"):
        picard_solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1))
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: 141088)
    with pytest.raises(AssertionError, match="before the memory check"):
        picard_solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1))


def test_physical_memory_is_positive():
    assert spectral_module._physical_memory() > 0


_PRESETS = ["ost", "gost", "bo_perturbed", "chen_lee", "dgbo_perturbed"]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_PRESETS), N=st.sampled_from([16, 64, 256, 1024]),
       L=st.floats(2.0, 100.0), s=st.floats(1e-4, 1.0), t=st.floats(1e-4, 1.0))
def test_linear_semigroup_law(name, N, L, s, t):
    # exp(L s) exp(L t) = exp(L (s + t)) on the half-spectrum
    sym, params = preset(name)
    g = Grid(N, L)
    e_s, e_t, e_st = (EtdPropagator(g, sym, params, dt).exp_full
                      for dt in (s, t, s + t))
    assert np.max(np.abs(e_s * e_t - e_st)) <= 1e-12 * np.max(np.abs(e_st))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_snapshot_steps_rejects_non_finite_times(t):
    # nan and inf used to escape as ValueError / OverflowError from round()
    with pytest.raises(BadParameter, match="not finite"):
        SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.05, t))


def test_solver_config_guards():
    with pytest.raises(BadParameter):
        SolverConfig(dt=0.2, T=0.1)
    with pytest.raises(BadParameter):
        SolverConfig(dt=1e-3, T=1.0, picard_tol=0.0)
