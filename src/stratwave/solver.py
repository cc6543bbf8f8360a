"""Time integration of the model equation and its energy monitors.

Two solver modes:

* etd: a second-order exponential integrator.  The linear part is propagated
  exactly by exp(L(xi) dt) (the ETD linear propagator IS the kernel
  transform), the nonlinear term N(u) = -u^k u_x is treated by the two-stage
  ETD2 scheme with phi-functions

      a      = E u + dt phi1(L dt) N(u)
      u_next = a   + dt phi2(L dt) (N(a) - N(u)),

  phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2.

* picard: the fixed-point iteration of the integral (Duhamel) formulation

      u^{(j+1)}(t) = K(t) * u0 + int_0^t K(t - tau) * N(u^{(j)})(tau) dtau,

  with midpoint quadrature in tau over the step grid; per-iteration
  contraction factors are reported, and three consecutive factors above 1
  raise NoContraction (the discrete sign that the horizon is too large).

The nonlinearity is evaluated pseudo-spectrally in the conservative form
-(1/(k+1)) d_x (u^{k+1}) with generalized 2/(k+2) dealiasing, which keeps
the discrete L2 balance of the continuum term up to aliasing residue.

Both modes run on one real-field core, EtdPropagator: solutions are real,
so states are rfft half-spectra and every transform is a real FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BadParameter, ConfigInvalid, GridMismatch, NoContraction, NonFinite
from .model import DispersionSymbol, ModelParams, check_exp_overflow, half_spectrum_multiplier
from .spectral import Field, Grid, check_memory

# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


#: datum kind -> the keys it reads, each with its JSON schema: its range, and
#: its default unless the key is required (stratwave.runio builds DATUM_SCHEMA
#: from this table).  algebraic: c (1 + x^2)^{-gamma/2}, tail slope -gamma;
#: zero_mean_algebraic: the odd c x (1+x^2)^{-(gamma+1)/2} less its discrete
#: mean (~1e-13); gaussian: amp exp(-x^2 / (2 sigma0^2)); growth:
#: c0 (1+x)^gamma s(x), s a smooth switch vanishing for x <= -1, tapered near
#: +L (seam-free periodized)
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
DATUM_KEYS = {"algebraic": {"gamma": _POSITIVE, "c": {"type": "number", "default": 1.0}},
              "zero_mean_algebraic": {"gamma": _POSITIVE,
                                      "c": {"type": "number", "default": 1.0}},
              "gaussian": {"sigma0": {**_POSITIVE, "default": 1.0},
                           "amp": {"type": "number", "default": 1.0}},
              "growth": {"gamma": {**_POSITIVE, "exclusiveMaximum": 0.5},
                         "c0": {**_POSITIVE, "default": 0.01}}}


def _smoothstep(r: np.ndarray) -> np.ndarray:
    """C-infinity switch: 0 for r <= 0, 1 for r >= 1."""
    out = np.zeros_like(r)
    pos = r > 0
    neg1 = r < 1
    inside = pos & neg1
    with np.errstate(over="ignore", divide="ignore"):
        e1 = np.where(pos, np.exp(-1.0 / np.where(pos, r, 1.0)), 0.0)
        e2 = np.where(neg1, np.exp(-1.0 / np.where(neg1, 1.0 - r, 1.0)), 0.0)
    out[inside] = (e1 / (e1 + e2))[inside]
    out[r >= 1] = 1.0
    return out


def datum_parameters(cfg: dict) -> dict:
    """A datum config with its kind's defaults filled in; a config that
    stratwave.runio's DATUM_SCHEMA rejects (an unknown kind, or a key that
    is missing, mistyped, out of range or not read by the kind) raises
    ConfigInvalid."""
    from .runio import DATUM_SCHEMA, validate_config    # runio imports this module

    validate_config(cfg, DATUM_SCHEMA)
    keys = DATUM_KEYS[cfg["kind"]]
    return {**{key: keys[key]["default"] for key in keys if "default" in keys[key]}, **cfg}


def datum_from_config(cfg: dict, grid: Grid) -> Field:
    """The initial datum that a datum config describes, sampled on the grid
    (see DATUM_KEYS); every refusal raises ConfigInvalid, from
    datum_parameters or, for a config whose samples are not all finite
    (a gaussian sigma0 whose square underflows or overflows, a c that
    overflows), here."""
    p = datum_parameters(cfg)
    kind, x = p["kind"], grid.x
    try:
        with np.errstate(all="ignore"):
            if kind == "algebraic":
                samples = p["c"] * (1.0 + x ** 2) ** (-p["gamma"] / 2.0)
            elif kind == "zero_mean_algebraic":
                samples = p["c"] * x * (1.0 + x ** 2) ** (-(p["gamma"] + 1.0) / 2.0)
                samples = samples - np.sum(samples) / grid.N
            elif kind == "gaussian":
                samples = p["amp"] * np.exp(-x ** 2 / (2.0 * p["sigma0"] ** 2))
            else:
                switch = _smoothstep(x + 1.0)
                taper = 1.0 - _smoothstep((x - 0.8 * grid.L) / (0.15 * grid.L))
                samples = p["c0"] * (1.0 + np.maximum(x, 0.0)) ** p["gamma"] * switch * taper
        finite = np.all(np.isfinite(samples))
    except OverflowError:       # a Python float out of range, such as sigma0 ** 2
        finite = False
    if not finite:
        raise ConfigInvalid(f"the datum {cfg} has non-finite samples on the grid "
                            f"N={grid.N}, L={grid.L}", path="$")
    return Field(grid=grid, samples=samples)


# ---------------------------------------------------------------------------
# ETD2 stepping
# ---------------------------------------------------------------------------

_PHI_SWITCH = 0.1
_PHI_TERMS = 12


def _phi(z: np.ndarray, order: int) -> np.ndarray:
    """phi_1 (order 1) or phi_2 (order 2), by Taylor series for small |z|.

    Where a finite z has a z ** order past float64 (|z| above about 1e154
    for phi_2: a strongly damped or dispersive mode), the numerator is
    divided by z order times instead, so phi stays finite, near -1/z."""
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SWITCH
    zb = z[~small]
    numerator = np.exp(zb) - 1.0 - (order - 1) * zb
    with np.errstate(over="ignore", invalid="ignore"):
        power = zb ** order
        big = numerator / power
    huge = ~np.isfinite(power) & np.isfinite(zb)
    for _ in range(order):
        numerator[huge] /= zb[huge]
    big[huge] = numerator[huge]
    out[~small] = big
    zs = z[small]
    acc = np.zeros_like(zs)
    for q in range(_PHI_TERMS + order - 1, order - 1, -1):
        acc = acc * zs + 1.0 / math.factorial(q)
    out[small] = acc
    return out


def _kept_modes(N: int, k: int) -> int:
    """K + 1, K = floor(N/(k+2)): how many of the half-spectrum modes
    j = 0..N/2 the dealias rule |j| <= N/(k+2) keeps, a fraction 2/(k+2).

    The generalized 2/3-rule for the degree-(k+1) nonlinearity u^{k+1}."""
    return N // (k + 2) + 1


class EtdPropagator:
    """The ETD2 stepper on rfft half-spectra, built once per (grid, model, dt).

    States are the unnormalised ``numpy.fft.rfft`` coefficients of a real
    field on the modes the dealias rule keeps: K + 1 values for j = 0..K,
    K = floor(N/(k+2)), about 2/(k+2) of the N/2 + 1 half-spectrum.  Every
    mode above K is zero after each step, so it is neither stored nor
    stepped; ``physical`` restores it through the zero-padding of
    ``irfft(uhat, n=N)``.  The half-spectrum holds a real solution because
    L is Hermitian, L(-xi) = conj L(xi), every dispersion symbol p being
    even.  A dt whose exp(L dt) would overflow float64 raises BadParameter
    before any step.  Energy and dissipation rate come from exact discrete
    Parseval on the half-spectrum, so recording them costs no transform.
    """

    def __init__(self, grid: Grid, sym: DispersionSymbol, params: ModelParams,
                 dt: float, linear_only: bool = False):
        if dt <= 0:
            raise BadParameter(f"dt must be positive, got {dt}")
        self.grid = grid
        self.sym = sym
        self.params = params
        self.dt = dt
        self.k = params.k
        self.linear_only = linear_only
        j = np.arange(grid.N // 2 + 1)
        L = half_spectrum_multiplier(grid, sym, params)
        # |u|^2 dx summed over the full spectrum: modes 1..N/2-1 appear twice
        self.weight = (np.where((j == 0) | (j == grid.N // 2), 1.0, 2.0)
                       * grid.dx / grid.N)
        self.rate_weight = L.real * self.weight
        self.kept = _kept_modes(grid.N, self.k)
        z = L[:self.kept] * dt
        check_exp_overflow(z, f"dt = {dt} overflows the propagator: max Re L(xi) dt")
        self.exp_full = np.exp(z)
        self.coeff1 = dt * _phi(z, 1)
        self.coeff2 = dt * _phi(z, 2)
        self.nl_mult = -(1j * (grid.dxi * j[:self.kept]) / (self.k + 1))
        self._power_buffer = np.zeros(j.size)

    @property
    def L(self) -> np.ndarray:
        """L(xi_j) on the kept modes j = 0..K, rebuilt on each access: only
        Picard reads it, once per run, so the propagator does not hold it."""
        return half_spectrum_multiplier(self.grid, self.sym, self.params)[:self.kept]

    def forward(self, u: Field) -> np.ndarray:
        """Dealiased half-spectrum of a field: its kept modes."""
        if u.grid != self.grid:
            raise GridMismatch(f"{u.grid!r} vs {self.grid!r}")
        return np.fft.rfft(u.samples)[:self.kept]

    def physical(self, uhat: np.ndarray) -> Field:
        return Field(self.grid, np.fft.irfft(uhat, n=self.grid.N))

    def monitors(self, uhat: np.ndarray) -> Tuple[float, float]:
        """(energy, dissipation) by Parseval from one |uhat|^2: the discrete
        L2 norm of the field, and (1/2) d/dt ||u||^2 under the linear flow
        (the Re phi-weighted norm squared).

        |uhat|^2 goes into the propagator's N/2 + 1 buffer, zero above the
        length of uhat (kept modes or a full half-spectrum), so the sums run
        over N/2 + 1 terms whatever that length, and round alike.
        """
        # energy leaves |uhat|^2 in the buffer for the dissipation dot
        return self.energy(uhat), float(np.dot(self.rate_weight, self._power_buffer))

    def energy(self, uhat: np.ndarray) -> float:
        """The first value of monitors, without the dissipation dot."""
        power = self._power_buffer
        np.add(np.square(uhat.real), np.square(uhat.imag), out=power[:uhat.size])
        power[uhat.size:] = 0.0
        return float(np.sqrt(np.dot(self.weight, power)))

    def nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        """N(u) = -(1/(k+1)) d_x(u^{k+1}) evaluated pseudo-spectrally, for
        one state or a 2-D block of states, one per row."""
        if self.linear_only:
            return np.zeros_like(uhat)
        u = np.fft.irfft(uhat, n=self.grid.N)
        u **= self.k + 1        # the bits of u ** (k+1): a square for k = 1
        spec = np.fft.rfft(u)
        del u                   # before the product: a lower traced peak
        return self.nl_mult * spec[..., :self.kept]

    def step(self, uhat: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear(uhat)
        a = self.exp_full * uhat + self.coeff1 * n0
        # keep this one expression: numpy reuses large temporaries in place,
        # swapping the operands of coeff2 * (...), and a complex product
        # rounds differently with its operands swapped
        return a + self.coeff2 * (self.nonlinear(a) - n0)

    def evolve(self, uhat: np.ndarray, n_steps: int):
        """Yield (i, state after i steps) for i = 0..n_steps.

        Raises NonFinite as soon as a state is not finite.
        """
        yield 0, uhat
        for i in range(1, n_steps + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                uhat = self.step(uhat)
            if not np.all(np.isfinite(uhat)):
                raise NonFinite(f"non-finite state at t = {i * self.dt:.6g}",
                                t=i * self.dt)
            yield i, uhat


# ---------------------------------------------------------------------------
# Configuration and trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    picard_tol: float = 1e-10
    snapshot_times: Optional[Tuple[float, ...]] = None
    linear_only: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dt, self.T, self.picard_tol))):
            raise BadParameter(f"dt, T and picard_tol must be finite, got "
                               f"{self.dt}, {self.T}, {self.picard_tol}")
        if self.dt <= 0 or self.T <= 0 or self.dt > self.T:
            raise BadParameter("require 0 < dt <= T")
        if self.picard_tol <= 0:
            raise BadParameter("picard_tol must be positive")


@dataclass
class Trajectory:
    """Snapshots at requested times plus per-step energy diagnostics."""

    times: List[float]
    snapshots: List[Field]
    energy_times: np.ndarray
    energy_series: np.ndarray
    dissipation_series: np.ndarray


def step_count(T: float, dt: float) -> int:
    """The number of dt steps that reach T; BadParameter unless T is a
    positive whole number of them (to 1e-9 relative)."""
    ratio = T / dt if dt > 0 else math.nan
    n_steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * T:
        raise BadParameter(f"T={T} is not a positive whole number of steps of dt={dt}")
    return n_steps


def _snapshot_steps(cfg: SolverConfig, n_steps: int) -> dict:
    """Map step index -> requested snapshot time.

    Each time must be finite, lie on the dt grid (to 1e-9 relative) and on a
    step of its own; anything else raises BadParameter rather than being
    moved.
    """
    wanted = cfg.snapshot_times if cfg.snapshot_times is not None else (cfg.T,)
    out = {}
    for t in sorted(set(wanted)):
        if not math.isfinite(t):
            raise BadParameter(f"snapshot time {t} is not finite")
        step = int(round(t / cfg.dt))
        if t < 0 or step > n_steps:
            raise BadParameter(f"snapshot time {t} outside [0, T]")
        if abs(step * cfg.dt - t) > 1e-9 * t:
            raise BadParameter(f"snapshot time {t} is not a multiple of dt={cfg.dt}")
        if step in out:
            raise BadParameter(
                f"snapshot times {out[step]} and {t} fall on the same step {step}")
        out[step] = t
    return out


#: peak bytes allocated per grid point by an ETD2 run: solve with up to two
#: snapshots (each further one holds 8 more) or weighted_persistence_experiment;
#: 9.8 x 8N rounded up, the bound tests/test_memory.py enforces (measured
#: 9.18 and 8.84 x 8N for N = 2^16 and 2^18)
SOLVE_PEAK_BYTES_PER_POINT = 79


def _guarded_propagator(grid: Grid, sym: DispersionSymbol, params: ModelParams,
                        dt: float, linear_only: bool = False, extra_bytes: int = 0,
                        run: str = "the ETD2 run", extra: str = "") -> EtdPropagator:
    """EtdPropagator after check_memory of SOLVE_PEAK_BYTES_PER_POINT N + extra_bytes."""
    check_memory(SOLVE_PEAK_BYTES_PER_POINT * grid.N + extra_bytes,
                 f"{run} at N={grid.N} (an estimate of {SOLVE_PEAK_BYTES_PER_POINT} "
                 f"bytes per grid point{extra})")
    return EtdPropagator(grid, sym, params, dt, linear_only)


def solve(sym: DispersionSymbol, params: ModelParams, u0: Field,
          cfg: SolverConfig) -> Trajectory:
    """Integrate to T with the ETD2 scheme, recording energy each step.

    Raises BadParameter before building the propagator when the run's
    estimated peak exceeds physical memory.
    """
    n_steps = step_count(cfg.T, cfg.dt)
    snap_at = _snapshot_steps(cfg, n_steps)
    prop = _guarded_propagator(
        u0.grid, sym, params, cfg.dt, cfg.linear_only,
        8 * max(0, len(snap_at) - 2) * u0.grid.N + 16 * (n_steps + 1),
        extra=f", 8 per further snapshot, 16 per step: {len(snap_at)} snapshots "
              f"and {n_steps} steps")

    energies = np.empty(n_steps + 1)
    rates = np.empty(n_steps + 1)
    snapshots: List[Field] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, uhat in prop.evolve(prop.forward(u0), n_steps):
            energies[step], rates[step] = prop.monitors(uhat)
            if step in snap_at:
                snapshots.append(prop.physical(uhat))
    return Trajectory(times=[step * cfg.dt for step in snap_at],
                      snapshots=snapshots, energy_times=cfg.dt * np.arange(n_steps + 1),
                      energy_series=energies, dissipation_series=rates)


def solution_at(sym: DispersionSymbol, params: ModelParams, u0: Field, T: float,
                dt: float) -> Field:
    """u(T): solve's snapshot at T."""
    return solve(sym, params, u0, SolverConfig(dt=dt, T=T, snapshot_times=(T,))).snapshots[-1]


#: Picard iterations before picard_solve stops and reports converged = False
PICARD_MAX_ITER = 30

#: grid points per block of picard_solve's midpoint nonlinear terms: a block
#: of max(1, PICARD_BLOCK_POINTS // N) steps shares one irfft/rfft pair
PICARD_BLOCK_POINTS = 2 ** 13


def _picard_sweeps(prop: EtdPropagator, traj: np.ndarray):
    """Sweep the iterate traj in place, at most PICARD_MAX_ITER times; after
    each sweep yield max_i ||new[i] - old[i]||_2 over the steps i = 1..M.

    A sweep is new[i] = E new[i-1] + dt E_{1/2} N((old[i-1] + old[i])/2).
    Each N(.) reads only the previous iterate, so the averages of
    B = max(1, PICARD_BLOCK_POINTS // N) consecutive steps go through one
    prop.nonlinear call, one 2-D irfft/rfft pair; the recursion and the
    norms (prop.energy) then run row by row.  Every value is the one
    prop.nonlinear gives step by step, bit for bit.
    """
    M, kept = traj.shape[0] - 1, traj.shape[1]
    E = prop.exp_full
    dt_E_half = prop.dt * np.exp(prop.L * (0.5 * prop.dt))
    B = min(M, max(1, PICARD_BLOCK_POINTS // prop.grid.N))
    mids = np.empty((B, kept), dtype=complex)
    old = np.empty(kept, dtype=complex)   # old[i] once traj[i] holds new[i]
    tmp = np.empty(kept, dtype=complex)
    norms = np.empty(M)
    for _ in range(PICARD_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            old[:] = traj[0]
            for start in range(1, M + 1, B):
                rows = min(B, M + 1 - start)
                # (old[i-1] + old[i]) / 2 for the block's steps i
                mid = mids[:rows]
                np.add(old, traj[start], out=mid[0])
                np.add(traj[start:start + rows - 1], traj[start + 1:start + rows],
                       out=mid[1:])
                np.multiply(0.5, mid, out=mid)
                nl = prop.nonlinear(mid)
                for b, i in enumerate(range(start, start + rows)):
                    old[:] = traj[i]
                    np.multiply(E, traj[i - 1], out=tmp)
                    np.multiply(dt_E_half, nl[b], out=traj[i])
                    np.add(tmp, traj[i], out=traj[i])
                    np.subtract(traj[i], old, out=tmp)
                    norms[i - 1] = prop.energy(tmp)
        yield float(np.max(norms))


def picard_solve(sym: DispersionSymbol, params: ModelParams, u0: Field,
                 cfg: SolverConfig) -> Tuple[Field, dict]:
    """Duhamel fixed point on [0, T]; returns the field at T and a report.

    The iterate is one (M+1) x (K+1) array on the step grid, overwritten in
    place: each row holds the K+1 half-spectrum modes that the dealias rule
    keeps (EtdPropagator's state), about 2/(k+2) of the N/2+1.  The tau
    integral uses the midpoint rule with u at midpoints approximated by
    endpoint averages, streamed by _picard_sweeps with E = exp(L dt),
    E_{1/2} = exp(L dt/2): O(M N) work per iteration.  Raises BadParameter
    before any step when T is not a whole number of steps, when a snapshot
    time is off the step grid or collides with another (as solve does), or
    when the propagator and the array, SOLVE_PEAK_BYTES_PER_POINT N +
    16 (M+1)(K+1) bytes, would exceed physical memory.  Divergence is
    detected through per-iteration contraction factors.  The report's
    "snapshots" entry lists (t, field) at the requested snapshot times
    (default (T,)), taken from the final iterate; when T is one of them,
    the returned field is that snapshot's Field.
    """
    M = step_count(cfg.T, cfg.dt)
    snap_at = _snapshot_steps(cfg, M)
    kept = _kept_modes(u0.grid.N, params.k)
    prop = _guarded_propagator(u0.grid, sym, params, cfg.dt, cfg.linear_only,
                               16 * (M + 1) * kept, run="the Picard run",
                               extra=f", and picard iterate storage of 16 (M+1) "
                                     f"x (K+1) bytes, K+1 = {kept} kept modes")
    traj = np.empty((M + 1, kept), dtype=complex)
    traj[0] = prop.forward(u0)
    for i in range(1, M + 1):
        traj[i] = prop.exp_full * traj[i - 1]

    factors: List[float] = []
    prev_diff = None
    converged = False
    iterations = 0
    for iterations, diff in enumerate(_picard_sweeps(prop, traj), 1):
        if not np.isfinite(diff):
            diff = np.inf
        if prev_diff is not None and prev_diff > 0:
            factors.append(diff / prev_diff if np.isfinite(diff) else np.inf)
            if len(factors) >= 3 and all(f > 1.0 for f in factors[-3:]):
                raise NoContraction(
                    f"contraction factors {factors[-3:]} exceed 1 for 3 "
                    f"consecutive iterations (T = {cfg.T} too large)")
        prev_diff = diff
        if diff < cfg.picard_tol:
            converged = True
            break
    snapshots = [(step * cfg.dt, prop.physical(traj[step])) for step in snap_at]
    report = {
        "iterations": iterations,
        "contraction_factors": factors,
        "converged": converged,
        "final_update": prev_diff,
        "snapshots": snapshots,
    }
    # snap_at is in time order, so step M, when requested, is the last entry
    final = snapshots[-1][1] if M in snap_at else prop.physical(traj[M])
    return final, report
