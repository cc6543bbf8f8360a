"""Quantitative verdicts: tail exponents, weighted norms, growth envelopes.

tail_exponent fits log|f| against log|x| by least squares on each half-line
separately; the negated slope is the decay exponent.  A fit is trusted only
when r^2 >= 0.98.  Windows must stay wrap-safe (x_b <= L/2) and carry at
least 30 sample points per decade and at least 3 points; a non-finite sample
in a window is refused, and exact zeros are skipped.

The experiment drivers operationalize the three spatial-behavior results:

* dichotomy_experiment: twin runs from an algebraic datum with gamma = n+1+eps
  and from its zero-mean twin; the first tail saturates at n+1, the
  second must improve to at least n+1 + 0.7 eps (a finite window cannot
  certify the exact improved exponent, so the threshold is conservative).
  Excluded pairs (m,n) = (2,1) and (2, 2d) raise ExcludedParameters.
* lower_bound_check: compares |x|^{n+1}|u| against A(t) |int u0| from the
  kernel asymptotics; ratio within [0.5, 2.0] passes, and under linear-only
  evolution the ratio converges to 1 on outward windows.
* weighted_persistence_experiment: samples t^alpha ||u(t)||_{L^p_w} on a
  log-spaced t grid; it passes (the series is bounded) on a finite sup and
  non-divergence as t -> 0 (log-log slope >= -0.05 on the smallest decade).

Each report that gives a verdict gives it under one key, passed.

run_experiment(cfg) is the one experiment layer over these, the energy and
growth reports, the kernel reports, the integrator's self-convergence and
Picard cross-check, and the plain trajectory: EXPERIMENTS maps each kind
(dichotomy, weighted, growth, lowerbound, energy, decay, kernel,
kernel_derivative, convergence, crosscheck, trajectory) to a runner of a
config valid under EXPERIMENT_SCHEMAS[kind] (run_experiment checks it),
which returns its report and the files it hands back beside it (the kernel
kind its kernel, the trajectory kind its snapshots and energy series).
`stratwave experiment`, `stratwave simulate` (a trajectory config),
`stratwave kernel` (a kernel config) and acceptance.run_criterion (the
configs of acceptance.CRITERIA) all run through it.  experiment_schema
builds each kind's schema here, where whole configs are read, from
GRID_SCHEMA, SOLVER_SCHEMA, MODEL_SCHEMA and DATUM_SCHEMA.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (BadParameter, ExcludedParameters, InsufficientDecades,
                     WindowContaminated, ZeroMean)
from .kernel import (asymptotic_coefficient, half_kernel_hat, kernel_derivative_field,
                     kernel_field)
from .model import MODEL_SCHEMA, DispersionSymbol, ModelParams, model_from_config
from .runio import POSITIVE, validate_config
from .solver import (DATUM_SCHEMA, SolverConfig, _guarded_propagator, datum_from_config,
                     datum_parameters, picard_solve, solution_at, solve)
from .spectral import (Field, Grid, check_memory, from_half_spectrum, half_spectrum,
                       integral, wrap_contamination)

MIN_POINTS_PER_DECADE = 30

#: dichotomy_experiment: the nonzero-mean tail exponent must lie within this
#: of n+1, and the zero-mean one must reach n+1 + this fraction of eps
DICHOTOMY_EXPONENT_TOL = 0.15
DICHOTOMY_IMPROVEMENT = 0.7

#: lower_bound_check passes when every outermost-window ratio lies in this band
LOWER_BOUND_BAND = (0.5, 2.0)

#: weighted_persistence_experiment: log-spaced sample times in (0, T], and the
#: least small-t log-log slope of t^alpha ||u(t)||_w that counts as bounded
PERSISTENCE_SAMPLES = 25
PERSISTENCE_SLOPE_FLOOR = -0.05

#: kernel_report refuses a kernel whose mass is further than this from 1
KERNEL_MASS_TOL = 1e-6

#: peak bytes allocated per grid point by lower_bound_experiment's linear-only
#: path, Khat(T), u0's half-spectrum and their product: 3.1 x 8N rounded up,
#: the bound tests/test_memory.py enforces (measured 3.00 x 8N)
LINEAR_LOWER_BOUND_BYTES_PER_POINT = 25


def check_window(grid: Grid, window: Tuple[float, float]) -> None:
    """BadParameter unless 0 < a < b, and WindowContaminated when b passes
    the wrap-safe half-box L/2: what a window needs before any run."""
    a, b = window
    if not 0 < a < b:
        raise BadParameter(f"window must satisfy 0 < a < b, got {window}")
    if b > 0.5 * grid.L:
        raise WindowContaminated(
            f"window edge {b} exceeds wrap-safe half-box {0.5 * grid.L}")


def window_mask(grid: Grid, window: Tuple[float, float], side: str) -> np.ndarray:
    """Samples with a <= x <= b ("right"), -b <= x <= -a ("left") or either
    ("both"), after check_window."""
    check_window(grid, window)
    a, b = window
    right, left = (grid.x >= a) & (grid.x <= b), (grid.x <= -a) & (grid.x >= -b)
    return {"right": right, "left": left, "both": right | left}[side]


def _fit_side(f: Field, window, side: str) -> dict:
    a, b = window
    msk = window_mask(f.grid, window, side)
    xa = np.abs(f.grid.x[msk])
    ya = np.abs(f.samples[msk])
    bad = int(np.count_nonzero(~np.isfinite(ya)))
    if bad:
        raise BadParameter(f"{side} window [{a}, {b}]: {bad} non-finite samples; "
                           f"a tail fit needs finite values")
    keep = ya > 0
    xa, ya = xa[keep], ya[keep]
    decades = math.log10(b / a)
    if len(xa) / decades < MIN_POINTS_PER_DECADE:
        raise InsufficientDecades(
            f"{side} window [{a}, {b}]: {len(xa)} points over {decades:.2f} "
            f"decades (< {MIN_POINTS_PER_DECADE}/decade)")
    if len(xa) < 3:
        raise InsufficientDecades(f"{side} window [{a}, {b}]: {len(xa)} points "
                                  f"(< 3, the least a fit with a stderr needs)")
    lx, ly = np.log(xa), np.log(ya)
    A = np.vstack([lx, np.ones_like(lx)]).T
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ sol
    var_slope = float(np.sum(resid ** 2) / (len(lx) - 2) / np.sum((lx - lx.mean()) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    slope = float(sol[0])
    return {"slope": slope, "exponent": -slope, "stderr": math.sqrt(max(var_slope, 0.0)),
            "r_squared": r2, "valid": r2 >= 0.98, "n_points": len(xa), "window": [a, b]}


def tail_exponent(f: Field, window: Tuple[float, float]) -> dict:
    """Fit both tails of |f|: side ("left", "right") -> that side's fit.

    A fit holds the slope of log|f| against log|x|, the decay exponent beta
    with |f| ~ |x|^-beta (the negated slope), the slope's stderr, r_squared,
    valid (r_squared >= 0.98: only then is the fit trusted), n_points and
    the window.  The window's inner edge should sit well outside the datum
    core (x_a >= 10 core widths), its outer edge inside the wrap-safe
    half-box.  Exact zeros in the window are skipped (log 0 has no value and
    n_points does not count them); a NaN or infinite sample raises
    BadParameter, naming the side, the window and the count, and fewer than
    3 points left (or 30 per decade) raise InsufficientDecades.
    """
    return {side: _fit_side(f, window, side) for side in ("left", "right")}


# ---------------------------------------------------------------------------
# Weighted norms and envelopes
# ---------------------------------------------------------------------------


def weighted_norm(u: Field, p: float, gamma: float) -> float:
    """(sum |u|^p w dx)^{1/p} on the grid, w(x) = (1 + |x|)^-gamma; gamma in
    (0, 1) for persistence experiments, any gamma > 0 for diagnostics.

    A zero field has norm 0.  BadParameter when the sum is not finite, or
    is 0 for a nonzero field: |u|^p has left the float64 range."""
    if not gamma > 0:
        raise BadParameter(f"weight exponent gamma must be positive, got {gamma}")
    if not p > 1:
        raise BadParameter(f"p must exceed 1, got {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(u.samples) ** p * (1.0 + np.abs(u.grid.x)) ** (-gamma)
        total = np.sum(vals) * u.grid.dx
    if not np.isfinite(total) or (total == 0 and np.any(u.samples)):
        raise BadParameter(f"sum |u|^p w dx is {float(total):g} for a nonzero field: "
                           f"p = {p} takes |u|^p out of the float64 range")
    return float(total ** (1.0 / p))


def growth_envelope(u: Field, gamma: float) -> float:
    """sup_x |u(x)| / (1 + |x|)^gamma."""
    if not 0 < gamma < 0.5:
        raise BadParameter(f"growth exponent gamma must be in (0, 1/2), got {gamma}")
    return float(np.max(np.abs(u.samples) / (1.0 + np.abs(u.grid.x)) ** gamma))


# ---------------------------------------------------------------------------
# Decay and persistence experiments
# ---------------------------------------------------------------------------


def _check_decay_order(sym: DispersionSymbol, params: ModelParams) -> None:
    if not sym.supports_decay_order(params.n):
        raise ExcludedParameters(f"the {sym.kind} symbol is C^{sym.origin_regularity} "
                                 f"at 0; the order-{params.n} tail law needs C^{params.n - 1}")


def dichotomy_experiment(sym: DispersionSymbol, params: ModelParams, datum: dict,
                         grid: Grid, run: SolverConfig,
                         window: Optional[Tuple[float, float]] = None) -> dict:
    """Twin-run decay dichotomy: an algebraic datum (a datum config) vs its
    zero-mean twin, the same config with kind zero_mean_algebraic.

    The datum's gamma must equal n+1+eps with eps in (0, 1]; after the
    ExcludedParameters checks, an invalid datum config raises ConfigInvalid
    and a datum of another kind BadParameter; then check_window refuses a bad
    window (default [20, 0.3 L]), all before either run.
    The nonzero-mean run must show tail exponent n+1 to DICHOTOMY_EXPONENT_TOL;
    the zero-mean run at least n+1 + DICHOTOMY_IMPROVEMENT eps.  Reports both fits per side.
    """
    if params.m == 2 and (params.n == 1 or params.n % 2 == 0):
        raise ExcludedParameters(
            f"(m, n) = ({params.m}, {params.n}): the dichotomy result excludes "
            f"(2, 1) and (2, 2d)")
    _check_decay_order(sym, params)
    p = datum_parameters(datum)
    if p["kind"] != "algebraic":
        raise BadParameter(f"the dichotomy runs from an algebraic datum and its "
                           f"zero-mean twin, not from a {p['kind']} datum")
    n, gamma = params.n, p["gamma"]
    eps = gamma - (n + 1)
    if not 0 < eps <= 1:
        raise BadParameter(
            f"the datum's gamma must be n+1+eps with eps in (0,1]; got gamma={gamma}")
    if window is None:
        window = (20.0, 0.3 * grid.L)
    check_window(grid, window)
    datum_raw = datum_from_config(datum, grid)
    datum_zm = datum_from_config({**datum, "kind": "zero_mean_algebraic"}, grid)
    per_side = {name: {side: fit["exponent"] for side, fit in
                       tail_exponent(solution_at(sym, params, u, run), window).items()}
                for name, u in (("nonzero_mean", datum_raw), ("zero_mean", datum_zm))}
    exp_raw, exp_zm = (0.5 * (e["left"] + e["right"]) for e in per_side.values())

    target_zm = n + 1 + DICHOTOMY_IMPROVEMENT * eps
    checks = {
        "nonzero_mean_saturates": abs(exp_raw - (n + 1)) <= DICHOTOMY_EXPONENT_TOL,
        "zero_mean_improves": exp_zm >= target_zm,
        "ordering": exp_zm >= exp_raw,
    }
    return {
        "mean": integral(datum_raw),
        "zero_mean_residual": integral(datum_zm),
        "exponent_nonzero_mean": exp_raw,
        "exponent_zero_mean": exp_zm,
        "per_side": per_side,
        "epsilon": eps,
        "target_zero_mean": target_zm,
        "window": list(window),
        "checks": checks,
        "passed": all(checks.values()),
    }


def _check_power(values: np.ndarray, what: str, n: int, window) -> None:
    """BadParameter when a value built from |x|^{n+1} on window is not finite."""
    if not np.isfinite(values).all():
        raise BadParameter(f"{what} is beyond the float64 range for n = {n} on the "
                           f"window {list(window)}")


def lower_bound_check(u: Field, t: float, params: ModelParams, u0_mean: float,
                      windows: Optional[Sequence[Tuple[float, float]]] = None) -> dict:
    """Optimal-decay lower bound: r(x) = |x|^{n+1} |u| / (A(t) |int u0|).

    Passes when r stays inside LOWER_BOUND_BAND across the outermost
    window.  The ratio_series carries the median r per nested window
    (outward windows approach 1 under linear-only evolution).  An r past
    float64 (|x|^{n+1} for large n) raises BadParameter.
    """
    if u0_mean == 0:
        raise ZeroMean("lower bound requires a datum with nonzero integral")
    grid = u.grid
    if windows is None:
        hi = 0.45 * grid.L
        windows = [(hi / 4, hi / 2), (hi * 0.375, hi * 0.75), (hi / 2, hi)]
    elif not windows:
        raise BadParameter("lower bound needs at least one window")
    A = asymptotic_coefficient(t, params)
    ratio_series = []
    for window in windows:
        msk = window_mask(grid, window, "both")
        if not msk.any():
            raise BadParameter(f"window {list(window)} holds no sample of the grid "
                               f"(dx = {grid.dx:g})")
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs(grid.x[msk]) ** (params.n + 1) * np.abs(u.samples[msk]) / (A * abs(u0_mean))
        _check_power(r, "|x|^{n+1} |u| / (A |int u0|)", params.n, window)
        ratio_series.append(float(np.median(r)))
    # r now holds the outermost window's ratios
    lo, hi = LOWER_BOUND_BAND
    return {
        "ratio_series": ratio_series,
        "outer_ratio_median": ratio_series[-1],
        "outer_ratio_min": float(np.min(r)),
        "outer_ratio_max": float(np.max(r)),
        "A_predicted": A,
        "windows": [list(w) for w in windows],
        "passed": bool(lo <= float(np.min(r)) and float(np.max(r)) <= hi),
    }


def weighted_persistence_experiment(sym: DispersionSymbol, params: ModelParams,
                                    u0: Field, p: float, gamma: float,
                                    run: SolverConfig) -> dict:
    """Sample t^alpha ||u(t)||_{L^p_w} at PERSISTENCE_SAMPLES log-spaced steps in (0, T].

    passed (the series is bounded) = finite sup and small-t log-slope >=
    PERSISTENCE_SLOPE_FLOOR.
    The fitted prefactor sup_t q(t) / ||u0||_w is reported as fitted_C
    (diagnostic).  Raises BadParameter before building the propagator when
    the run's estimated peak exceeds physical memory, and after the run when
    weighted_norm refused a sample (a run that blows up raises NonFinite).
    """
    if not 0 < gamma < 1:
        raise BadParameter("persistence weight gamma must be in (0, 1)")
    if not p > 1:
        raise BadParameter("p must exceed 1")
    alpha, dt, n_steps = params.alpha, run.dt, run.n_steps
    steps = np.logspace(0.0, math.log10(n_steps), PERSISTENCE_SAMPLES)
    targets = set(np.clip(np.round(steps).astype(int), 1, n_steps).tolist())

    prop = _guarded_propagator(u0.grid, sym, params, run)
    qs, failure = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for step, uhat in prop.march(prop.forward(u0), n_steps, targets):
            if failure is None:
                try:
                    qs.append((step * dt) ** alpha * weighted_norm(prop.physical(uhat), p, gamma))
                except BadParameter as exc:
                    failure = exc       # raised after the run: a blow-up raises NonFinite
    if failure is not None:
        raise failure
    ts = dt * np.array(sorted(targets))     # march yields the targets in step order
    qs = np.array(qs)
    norm0 = weighted_norm(u0, p, gamma)
    sup_q = float(np.max(qs)) if len(qs) else 0.0
    if norm0 > 0 and np.all(qs > 0):
        low = ts <= ts[0] * 10.0
        slope = (float(np.polyfit(np.log(ts[low]), np.log(qs[low]), 1)[0])
                 if np.sum(low) >= 2 else 0.0)
    else:
        slope = 0.0
    return {
        "times": ts.tolist(),
        "weighted_series": qs.tolist(),
        "sup_t_weighted": sup_q,
        "datum_weighted_norm": norm0,
        "fitted_C": sup_q / norm0 if norm0 > 0 else 0.0,
        "low_t_slope": slope,
        "alpha": alpha,
        "passed": bool(np.isfinite(sup_q) and slope >= PERSISTENCE_SLOPE_FLOOR),
    }


def lower_bound_experiment(sym: DispersionSymbol, params: ModelParams, u0: Field,
                           run: SolverConfig,
                           windows: Optional[Sequence[Tuple[float, float]]] = None) -> dict:
    """lower_bound_check on u(run.T): the exact kernel product Khat(T) u0hat
    when run.linear_only, else ETD2.

    ZeroMean (a datum with zero integral) and check_window (each given
    window) raise before any evolution.  The linear-only Khat(T) is the
    kernel build's, half_kernel_hat, with its errors, and before it is built
    the path raises BadParameter when its estimated peak exceeds physical
    memory."""
    _check_decay_order(sym, params)
    u0_mean = integral(u0)
    if u0_mean == 0:
        raise ZeroMean("lower bound requires a datum with nonzero integral")
    for window in windows or ():
        check_window(u0.grid, window)
    if run.linear_only:
        check_memory(LINEAR_LOWER_BOUND_BYTES_PER_POINT * u0.grid.N,
                     f"the linear-only lower bound at N={u0.grid.N} (an estimate of "
                     f"{LINEAR_LOWER_BOUND_BYTES_PER_POINT} bytes per grid point)")
        khat = half_kernel_hat(run.T, u0.grid, sym, params)
        u = from_half_spectrum(u0.grid, khat * half_spectrum(u0))
    else:
        u = solution_at(sym, params, u0, run)
    return lower_bound_check(u, run.T, params, u0_mean, windows=windows)


def energy_experiment(sym: DispersionSymbol, params: ModelParams, u0: Field,
                      run: SolverConfig) -> dict:
    """Checks ||u(t)||_2 <= ||u0|| e^{eta t} * 1.01 at every ETD2 step of run
    and, when Re phi <= 0 (n even or n = 3 + 4d), no step increase above 1e-10."""
    traj = solve(sym, params, u0, run)
    e = traj.energy_series
    increase = float(np.max(np.diff(e)))
    # an exp(eta t) past float64 is an infinite bound, and times a zero
    # datum's energy a NaN one, which no finite energy exceeds
    with np.errstate(over="ignore", invalid="ignore"):
        bound = e[0] * np.exp(params.eta * traj.energy_times) * 1.01
    checks = {"growth_bound": not np.any(e > bound)}
    if params.n % 2 == 0 or params.n % 4 == 3:
        checks["monotone"] = increase <= 1e-10
    # a zero datum has a zero envelope: its ratio is 0, not 0/0
    ratio = float(np.max(np.divide(e, bound, out=np.zeros_like(e), where=bound > 0)))
    return {"max_step_increase": increase, "max_envelope_ratio": ratio,
            "peak_energy": float(np.max(e)), "energy_initial": float(e[0]),
            "energy_final": float(e[-1]), "checks": checks,
            "passed": all(checks.values())}


def growth_experiment(sym: DispersionSymbol, params: ModelParams, u0: Field,
                      gamma: float, run: SolverConfig, bound: float) -> dict:
    """growth_envelope of the datum and every snapshot of run; passes if all <= bound."""
    envs = [growth_envelope(u0, gamma)]
    traj = solve(sym, params, u0, run)
    envs += [growth_envelope(s, gamma) for s in traj.snapshots]
    worst = float(np.max(envs))
    return {"times": [0.0] + traj.times, "envelopes": envs,
            "max_envelope": worst, "bound": bound, "passed": worst <= bound}


def kernel_report(kernel: Field, t: float, sym: DispersionSymbol, params: ModelParams,
                  window: Optional[Tuple[float, float]] = None) -> dict:
    """Mass, tail slopes and |x|^{n+1} constants of the kernel K(t, .) of
    (sym, params) on a window (default: 10 core widths (eta t)^{1/m}, at
    least 5, to 0.45 L; a default that starts at or past 0.45 L raises
    BadParameter).

    max_rel_dev is the largest relative gap of |x|^{n+1} |K| from A(t), and
    fitted_C is t^alpha sup |K| (1 + |x|^{n+1}), both over the window;
    theory_applies is False when p is not C^{n-1} at 0.  A kernel whose
    mass is not 1 to KERNEL_MASS_TOL (its core has outgrown the box, or t
    is too large for float64) raises BadParameter before any fit, and so
    does a fitted_C or max_rel_dev past float64 (|x|^{n+1} for large n)
    after it.
    """
    grid = kernel.grid
    if window is None:
        window = (max(10.0 * (params.eta * t) ** (1.0 / params.m), 5.0), 0.45 * grid.L)
        if window[0] >= window[1]:
            raise BadParameter(
                f"the default window starts at {window[0]:.6g}, past 0.45 L = "
                f"{window[1]:.6g}, for t = {t} and L = {grid.L}; pass a "
                f"window or a larger L")
    mass = integral(kernel)
    if not abs(mass - 1.0) <= KERNEL_MASS_TOL:
        raise BadParameter(
            f"the kernel at t = {t} has mass {mass:.6g}, not 1 to "
            f"{KERNEL_MASS_TOL:g}, on L = {grid.L}: its samples mean nothing; "
            f"use a smaller t or a larger L")
    fits = tail_exponent(kernel, window)
    A = asymptotic_coefficient(t, params)
    msk = window_mask(grid, window, "both")
    modulus = np.abs(kernel.samples[msk])
    with np.errstate(over="ignore", invalid="ignore"):
        x_power = np.abs(grid.x[msk]) ** (params.n + 1)
        fitted_c = float(np.max(modulus * (1.0 + x_power)) * t ** params.alpha)
        max_rel_dev = float(np.max(np.abs(x_power * modulus - A)) / A)
    _check_power(np.array([fitted_c, max_rel_dev]), "|x|^{n+1} |K|", params.n, window)
    return {
        "mass": mass,
        "tail_slope_left": fits["left"]["slope"],
        "tail_slope_right": fits["right"]["slope"],
        "fitted_C": fitted_c,
        "A_predicted": A,
        "max_rel_dev": max_rel_dev,
        "window": list(window),
        "wrap_contamination": wrap_contamination(grid, window[1], params.n + 1),
        "theory_applies": sym.supports_decay_order(params.n),
    }


# ---------------------------------------------------------------------------
# The experiment layer: one runner per kind, a function of a config that
# EXPERIMENT_SCHEMAS[kind] accepts, which it reads and never changes
# ---------------------------------------------------------------------------


def _inputs(cfg: dict, build_datum: bool = True) -> tuple:
    """(sym, params, grid, u0 (None unless build_datum), run: the solver
    block as the one SolverConfig of the run, built after the datum (None
    for a kind that reads no solver block), experiment block) of a config.

    The experiment block's window and windows are read as floats, as the
    CLI's --window parsers give them, so a report echoes [5, 40] as
    [5.0, 40.0] whichever front end ran it."""
    sym, params = model_from_config(cfg["model"])
    grid = Grid(cfg["grid"]["N"], cfg["grid"]["L"])
    u0 = datum_from_config(cfg["datum"], grid) if build_datum else None
    solver = cfg.get("solver")
    run = None if solver is None else SolverConfig(
        dt=solver["dt"], T=solver["T"], linear_only=solver.get("linear_only", False),
        snapshot_times=tuple(solver["snapshots"]) if "snapshots" in solver else None)
    exp = {key: np.array(value, dtype=float).tolist() if key in ("window", "windows")
           else value for key, value in cfg["experiment"].items()}
    return sym, params, grid, u0, run, exp


def _dichotomy(cfg: dict) -> tuple:
    sym, params, grid, _, run, exp = _inputs(cfg, build_datum=False)
    return dichotomy_experiment(sym, params, cfg["datum"], grid, run,
                                window=exp.get("window")), {}


def _weighted(cfg: dict) -> tuple:
    sym, params, _, u0, run, exp = _inputs(cfg)
    return weighted_persistence_experiment(sym, params, u0, exp.get("p", 2.0),
                                           exp.get("gamma", 0.5), run), {}


def _growth(cfg: dict) -> tuple:
    sym, params, _, u0, run, _ = _inputs(cfg)
    datum = datum_parameters(cfg["datum"])
    return growth_experiment(sym, params, u0, datum["gamma"], run, 2.0 * datum["c0"]), {}


def _lowerbound(cfg: dict) -> tuple:
    sym, params, _, u0, run, exp = _inputs(cfg)
    return lower_bound_experiment(sym, params, u0, run, exp.get("windows")), {}


def _energy(cfg: dict) -> tuple:
    sym, params, _, u0, run, _ = _inputs(cfg)
    return energy_experiment(sym, params, u0, run), {}


def _decay(cfg: dict) -> tuple:
    """What `stratwave decay-fit` reports on `stratwave simulate`'s u(T)."""
    sym, params, grid, u0, run, exp = _inputs(cfg)
    check_window(grid, exp["window"])
    return tail_exponent(solution_at(sym, params, u0, run), exp["window"]), {}


def _kernel(cfg: dict) -> tuple:
    """What `stratwave kernel` reports on K(t), and K(t) as kernel.csv."""
    sym, params, grid, _, _, exp = _inputs(cfg, build_datum=False)
    t = exp["t"]
    kernel = kernel_field(t, grid, sym, params)
    return kernel_report(kernel, t, sym, params, exp.get("window")), {"kernel.csv": kernel}


def _kernel_derivative(cfg: dict) -> tuple:
    """The tail_exponent fits of d_x K(t)."""
    sym, params, grid, _, _, exp = _inputs(cfg, build_datum=False)
    return tail_exponent(kernel_derivative_field(exp["t"], grid, sym, params),
                         exp["window"]), {}


def _convergence(cfg: dict) -> tuple:
    """ETD2's observed order log2(d12 / d23), d12 and d23 the L2 distances
    between u(T) at dt and dt/2 and at dt/2 and dt/4."""
    sym, params, grid, u0, run, _ = _inputs(cfg)
    u1, u2, u4 = (solution_at(sym, params, u0, replace(run, dt=run.dt / halves))
                  for halves in (1, 2, 4))
    d12 = Field(grid, u1.samples - u2.samples).l2_norm()
    d23 = Field(grid, u2.samples - u4.samples).l2_norm()
    if not (d12 > 0 and d23 > 0):
        raise BadParameter(f"u(T) at dt, dt/2 and dt/4 differ by {d12!r} and {d23!r}: "
                           f"no order to observe")
    return {"order": math.log2(d12 / d23), "d12": d12, "d23": d23}, {}


def _crosscheck(cfg: dict) -> tuple:
    """||u_picard - u_etd||_2 at T, Picard iterated until its update is
    below 1e-12, and picard_solve's report less its snapshots."""
    sym, params, grid, u0, run, _ = _inputs(cfg)
    u_etd = solution_at(sym, params, u0, run)
    u_pic, report = picard_solve(sym, params, u0, replace(run, picard_tol=1e-12))
    del report["snapshots"]
    return {"l2_diff": Field(grid, u_etd.samples - u_pic.samples).l2_norm(), **report}, {}


def _trajectory(cfg: dict) -> tuple:
    """What `stratwave simulate` writes: u at each snapshot time (default
    [T]) as snapshot_t<t>.csv, by ETD2 (mode etd, the default) or Picard,
    and for ETD2 the per-step energy.csv (t, l2, dissipation).  The report
    holds dt_used (the solver's dt) and, for ETD2, n_steps and the wrap
    contamination of a window edge at 0.45 L, or for Picard picard_solve's
    report less its snapshots."""
    sym, params, grid, u0, run, _ = _inputs(cfg)
    if cfg["solver"].get("mode", "etd") == "picard":
        _, picard = picard_solve(sym, params, u0, run)
        snapshots = picard.pop("snapshots")
        return ({"picard": picard, "dt_used": run.dt},
                {f"snapshot_t{t:g}.csv": snap for t, snap in snapshots})
    traj = solve(sym, params, u0, run)
    outputs = {f"snapshot_t{t:g}.csv": snap for t, snap in zip(traj.times, traj.snapshots)}
    outputs["energy.csv"] = ("t,l2,dissipation", (traj.energy_times, traj.energy_series,
                                                  traj.dissipation_series))
    return ({"wrap_contamination_estimate": wrap_contamination(grid, 0.45 * grid.L,
                                                               params.n + 1),
             "dt_used": run.dt, "n_steps": run.n_steps}, outputs)


GRID_SCHEMA = {
    "type": "object",
    "required": ["N", "L"],
    "properties": {
        "N": {"type": "integer", "minimum": 16},
        "L": POSITIVE,
    },
    "additionalProperties": False,
}

SOLVER_SCHEMA = {
    "type": "object",
    "required": ["dt", "T"],
    "properties": {
        "dt": POSITIVE,
        "T": POSITIVE,
        "mode": {"enum": ["etd", "picard"]},
        "snapshots": {"type": "array", "items": {"type": "number"}},
        "linear_only": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
#: the optional experiment parameters with their types and ranges
_PARAMETERS = {"window": _PAIR,
               "windows": {"type": "array", "items": _PAIR, "minItems": 1},
               "p": {"type": "number", "exclusiveMinimum": 1},
               "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
               "t": POSITIVE}


def experiment_schema(kind: str, needs: dict | None = None, blocks=("solver", "datum"),
                      solver_reads=(), parameters=()) -> dict:
    """Schema of a config for the experiment kind: model, grid, the blocks
    of solver and datum it reads and experiment, all required, with
    experiment.kind fixed to kind, solver fields only dt, T and
    solver_reads, experiment fields only kind and parameters, and needs,
    the extra schema of what the kind requires."""
    solver = {**SOLVER_SCHEMA, "properties": {
        name: sub for name, sub in SOLVER_SCHEMA["properties"].items()
        if name in ("dt", "T", *solver_reads)}}
    common = {"model": MODEL_SCHEMA, "grid": GRID_SCHEMA, "solver": solver,
              "datum": DATUM_SCHEMA}
    read = ("model", "grid", *blocks)
    return {"allOf": [{
        "type": "object",
        "required": [*read, "experiment"],
        "properties": {
            **{name: common[name] for name in read},
            "experiment": {"type": "object", "required": ["kind"],
                           "properties": {"kind": {"const": kind},
                                          **{name: _PARAMETERS[name]
                                             for name in parameters}},
                           "additionalProperties": False},
        },
        "additionalProperties": False,
    }, needs or {}]}


#: experiment kind -> (its runner, the experiment_schema arguments that say
#: what its config holds and what the runner reads of it)
EXPERIMENTS = {
    "dichotomy": (_dichotomy, {"parameters": ("window",)}),
    "weighted": (_weighted, {"parameters": ("p", "gamma")}),
    "growth": (_growth, {
        "needs": {"properties": {"datum": {"properties": {"kind": {"const": "growth"}}}}},
        "solver_reads": ("snapshots",)}),
    "lowerbound": (_lowerbound, {"solver_reads": ("linear_only",),
                                 "parameters": ("windows",)}),
    "energy": (_energy, {}),
    "decay": (_decay, {"needs": {"properties": {"experiment": {"required": ["window"]}}},
                       "parameters": ("window",)}),
    "kernel": (_kernel, {"needs": {"properties": {"experiment": {"required": ["t"]}}},
                         "blocks": (), "parameters": ("t", "window")}),
    "kernel_derivative": (_kernel_derivative, {
        "needs": {"properties": {"experiment": {"required": ["t", "window"]}}},
        "blocks": (), "parameters": ("t", "window")}),
    "convergence": (_convergence, {}),
    "crosscheck": (_crosscheck, {}),
    "trajectory": (_trajectory, {"solver_reads": ("mode", "snapshots", "linear_only")}),
}
EXPERIMENT_SCHEMAS = {kind: experiment_schema(kind, **reads)
                      for kind, (_, reads) in EXPERIMENTS.items()}


#: what every config holds whatever its kind: an experiment block naming a kind
_KIND_SCHEMA = {"type": "object", "required": ["experiment"], "properties": {"experiment": {
    "type": "object", "required": ["kind"], "properties": {"kind": {"enum": list(EXPERIMENTS)}}}}}


def run_experiment(cfg: dict) -> tuple:
    """(report, outputs) of the experiment that cfg describes: outputs maps
    a file name to a Field or to a CSV table (header, columns), the files a
    front end writes beside the report (spectral.output_to_csv); the
    acceptance suite reads only the report.  A cfg that EXPERIMENT_SCHEMAS
    of its kind refuses raises ConfigInvalid naming the JSON path at fault."""
    validate_config(cfg, _KIND_SCHEMA)
    validate_config(cfg, EXPERIMENT_SCHEMAS[cfg["experiment"]["kind"]])
    return EXPERIMENTS[cfg["experiment"]["kind"]][0](cfg)
