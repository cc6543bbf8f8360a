"""Acceptance criteria: one table, CRITERIA, and one runner, run_criterion.

A criterion is its expected text, the configs that `stratwave experiment`
accepts (none for K-MOD-EVEN and K-SEMI), and a verdict over their reports
that returns (passed, measured).  Each states its tolerance inline.  Grid
sizes are chosen per criterion so the measurement window respects the
wrap-safety rule (contamination from the periodic images well below the
tolerance); tail/constant criteria therefore use boxes larger than the
generic N=2^16, L=400 default, which at x = 200 already suffers ~15% image
contamination for a 1/x^2 tail.  eta is a free model parameter and is
chosen per experiment where the asymptotic regime must be numerically
reachable (rationale in comments).  The library prints nothing: the CLI
writes each result's line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .analysis import run_experiment
from .errors import ExcludedParameters, StratwaveError
from .kernel import half_kernel_hat, kernel_field
from .model import PRESET_NAMES, DispersionSymbol, preset, validate_params
from .spectral import Grid, convolve


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    expected: str
    measured: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    configs: List[dict] = field(default_factory=list)  # in the order run
    error: Optional[str] = None  # "<type>: <message>" of a StratwaveError raised

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        meas = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.measured.items())
        got = f"raised {self.error}" if self.error else f"measured {meas}"
        return f"[{status}] {self.cid:14s} expected {self.expected}; {got} ({self.seconds:.1f}s)"


def _k_mod_even() -> tuple:
    """|Khat| == exp(-eta |xi|^2 t) exactly for n even (m=2, n=2, t=0.5), on
    the half-spectrum xi_j = j dxi, j = 0..N/2 (|Khat| is even in xi), as
    half_kernel_hat, the builder of every kernel, gives it."""
    grid = Grid(2 ** 16, 400.0)
    xi = grid.dxi * np.arange(grid.N // 2 + 1)
    khat = half_kernel_hat(0.5, grid, DispersionSymbol.kdv(), validate_params(2, 2, 1, 1.0))
    diff = float(np.max(np.abs(np.abs(khat) - np.exp(-np.abs(xi) ** 2 * 0.5))))
    return diff <= 1e-12, {"max_diff": diff}


def _k_semi() -> tuple:
    """Semigroup: K(0.3) * K(0.7) = K(1.0) to 1e-8 relative sup norm."""
    grid = Grid(2 ** 16, 400.0)
    sym, params = preset("ost")
    k3, k7, k10 = (kernel_field(t, grid, sym, params) for t in (0.3, 0.7, 1.0))
    diff = convolve(k3, k7).samples - k10.samples
    rel = float(np.max(np.abs(diff)) / np.max(np.abs(k10.samples)))
    return rel <= 1e-8, {"rel_error": rel}


def _config(kind: str, model: dict, grid: dict, solver: Optional[dict] = None,
            datum: Optional[dict] = None, **experiment) -> dict:
    """A config of the experiment kind; a kernel config holds no solver or datum."""
    blocks = {"model": model, "grid": grid, "solver": solver, "datum": datum}
    return {**{name: block for name, block in blocks.items() if block is not None},
            "experiment": {"kind": kind, **experiment}}


def _kdv(m: int, n: int, eta: float = 1.0) -> dict:
    return {"symbol": {"kind": "kdv"}, "m": m, "n": n, "k": 1, "eta": eta}


def _within(target: float, tol: float, measured: dict) -> tuple:
    """Passed when every measured exponent is within tol of target."""
    return all(abs(v - target) <= tol for v in measured.values()), measured


def _kernel_tail(target: float, tol: float) -> Callable:
    """The verdict on a kernel report: both tail exponents within tol of target."""
    return lambda rep: _within(target, tol, {"left": -rep["tail_slope_left"],
                                             "right": -rep["tail_slope_right"]})


def _k_mass(*reports) -> tuple:
    worst = max(abs(rep["mass"] - 1.0) for rep in reports)
    return worst <= 1e-8, {"worst_mass_error": worst}


def _k_const(rep) -> tuple:
    return rep["max_rel_dev"] <= 0.05, {"max_rel_dev": rep["max_rel_dev"],
                                        "target": rep["A_predicted"]}


def _k_deriv(rep) -> tuple:
    return _within(3.0, 0.15, {side: rep[side]["exponent"] for side in ("left", "right")})


def _s_conv(rep) -> tuple:
    return rep["order"] >= 1.9, rep


def _s_xcheck(rep) -> tuple:
    return rep["l2_diff"] <= 1e-6, {"l2_diff": rep["l2_diff"],
                                    "picard_iterations": rep["iterations"]}


def _e_mono(*reports) -> tuple:
    return (all(rep["checks"]["monotone"] for rep in reports),
            {"max_increase": max(rep["max_step_increase"] for rep in reports)})


def _e_grow(rep) -> tuple:
    return rep["checks"]["growth_bound"], {"max_ratio": rep["max_envelope_ratio"],
                                           "peak_energy": rep["peak_energy"]}


def _t2_decay(*reports) -> tuple:
    measured = {f"gamma{g}_{side}": rep[side]["exponent"]
                for g, rep in zip((2, 5), reports) for side in ("left", "right")}
    return _within(2.0, 0.15, measured)


def _t3_dichotomy(rep) -> tuple:
    return rep["passed"], {"exp_nonzero": rep["exponent_nonzero_mean"],
                           "exp_zero": rep["exponent_zero_mean"]}


def _t3_lower(linear, nonlinear) -> tuple:
    return (abs(linear["outer_ratio_median"] - 1.0) <= 0.05 and nonlinear["passed"],
            {"linear_outer_ratio": linear["outer_ratio_median"],
             "nonlinear_outer_ratio": nonlinear["outer_ratio_median"],
             "nonlinear_min": nonlinear["outer_ratio_min"],
             "nonlinear_max": nonlinear["outer_ratio_max"]})


def _t4_weighted(rep) -> tuple:
    return rep["passed"], {"sup": rep["sup_t_weighted"], "low_t_slope": rep["low_t_slope"]}


def _t5_growth(rep) -> tuple:
    return rep["passed"], {"max_envelope": rep["max_envelope"]}


def _cl_guard(outcome) -> tuple:
    raised = isinstance(outcome, ExcludedParameters)
    return raised, {"raised": float(raised)}


_cl_guard.reads = ExcludedParameters  # the one verdict that reads a raised error


_OST, _TO_1 = {"preset": "ost"}, {"dt": 1e-3, "T": 1.0}
_ALGEBRAIC_3 = {"kind": "algebraic", "gamma": 3.0, "c": 0.5}
_BOX_64, _GAUSSIAN = {"N": 2 ** 12, "L": 64.0}, {"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}
_BOX_800, _BOX_3200 = {"N": 2 ** 17, "L": 800.0}, {"N": 2 ** 19, "L": 3200.0}

#: criterion id -> (expected, the experiment configs it runs, in order, and
#: the verdict over their reports, which returns (passed, measured)), in
#: suite order; K-MOD-EVEN and K-SEMI run no config
CRITERIA = {
    "K-MOD-EVEN": ("max diff <= 1e-12", (), _k_mod_even),
    # the discrete integral of K is 1 for every preset, at t = 0.2, 1 and 3
    "K-MASS": ("|mass - 1| <= 1e-8", tuple(
        _config("kernel", {"preset": name}, {"N": 2 ** 16, "L": 400.0}, t=t)
        for name in PRESET_NAMES for t in (0.2, 1.0, 3.0)), _k_mass),
    "K-SEMI": ("rel sup error <= 1e-8", (), _k_semi),
    # L = 3200 keeps image contamination at x = 200 near 0.2% (the wrap rule)
    "K-TAIL-1": ("exponent 2.0 +- 0.1", (_config(
        "kernel", _kdv(3, 1), _BOX_3200, t=1.0, window=[20.0, 200.0]),),
        _kernel_tail(2.0, 0.1)),
    # a smooth symbol
    "K-TAIL-2": ("exponent 3.0 +- 0.15", (_config(
        "kernel", _kdv(3, 2), {"N": 2 ** 18, "L": 1600.0}, t=1.0, window=[30.0, 250.0]),),
        _kernel_tail(3.0, 0.15)),
    # For n even the H d_x^n symbol is purely imaginary, so its stationary-phase
    # contribution exp(-c x^{2/3}) masks the x^-5 jump term until far x when
    # damping is weak.  eta = 4 (free parameter) moves the crossover to
    # x ~ 500; window [600, 1400] on an L = 3200 box measures the true power
    # law a decade above the FFT noise floor.
    "K-TAIL-4": ("exponent 5.0 +- 0.25", (_config(
        "kernel", _kdv(2, 4, 4.0), _BOX_3200, t=0.5, window=[600.0, 1400.0]),),
        _kernel_tail(5.0, 0.25)),
    # |x|^2 |K(1, x)| against A(1) = 1/pi on [50, 200]
    "K-CONST": ("x^2|K| within 5% of 1/pi = 0.31831", (_config(
        "kernel", _kdv(3, 1), _BOX_3200, t=1.0, window=[50.0, 200.0]),), _k_const),
    # d_x K decays one order faster than K: exponent n + 2 = 3
    "K-DERIV": ("exponent 3.0 +- 0.15", (_config(
        "kernel_derivative", _kdv(3, 1), _BOX_3200, t=1.0, window=[20.0, 150.0]),), _k_deriv),
    # Richardson: u(0.25) at dt = 1e-3, 5e-4 and 2.5e-4
    "S-CONV": ("observed order >= 1.9", (_config(
        "convergence", _OST, _BOX_64, {"dt": 1e-3, "T": 0.25}, _GAUSSIAN),), _s_conv),
    # Picard against ETD2 at T = 0.1, from a small Gaussian
    "S-XCHECK": ("||picard - etd||_2 <= 1e-6", (_config(
        "crosscheck", _OST, _BOX_64, {"dt": 1e-3, "T": 0.1},
        {"kind": "gaussian", "sigma0": 1.0, "amp": 0.01}),), _s_xcheck),
    "E-MONO": ("max per-step energy increase <= 1e-10", tuple(
        _config("energy", _kdv(2, n), _BOX_64, _TO_1, _GAUSSIAN) for n in (2, 3)), _e_mono),
    "E-GROW": ("energy within e^{eta t} * 1.01 envelope",
               (_config("energy", _OST, _BOX_64, _TO_1, _GAUSSIAN),), _e_grow),
    # eta = 0.5: at eta*t = pi c2/mass = 1 the x^-2 tail coefficient of the
    # evolved Lorentzian datum crosses zero (spectral-kink cancellation), so
    # the (eta=1, t=1) combination is degenerate; half strength keeps the
    # coefficient measurable.  L = 800 suppresses the periodized-datum
    # background (~6e-7) below 4% of the signal at x = 120.
    "T2-DECAY": ("exponent 2.0 +- 0.15 (gamma 2 and 5)", tuple(
        _config("decay", {"preset": "ost", "eta": 0.5}, _BOX_800, _TO_1,
                {"kind": "algebraic", "gamma": gamma, "c": 0.5}, window=[20.0, 120.0])
        for gamma in (2.0, 5.0)), _t2_decay),
    "T3-DICHOTOMY": ("nonzero-mean 2.0 +- 0.15, zero-mean >= 2.7, ordered",
                     (_config("dichotomy", _OST, {"N": 2 ** 16, "L": 400.0}, _TO_1,
                              _ALGEBRAIC_3, window=[20.0, 120.0]),), _t3_dichotomy),
    "T3-LOWER": ("linear ratio 1.0 +- 0.05; nonlinear in [0.5, 2]", tuple(
        _config("lowerbound", _OST, _BOX_800, solver,
                {"kind": "algebraic", "gamma": 3.0, "c": c},
                windows=[[40.0, 80.0], [60.0, 120.0], [100.0, 200.0]])
        for solver, c in (({**_TO_1, "linear_only": True}, 1.0), (_TO_1, 0.1))), _t3_lower),
    "T4-WEIGHTED": ("sup finite, low-t slope >= -0.05", (
        _config("weighted", _OST, {"N": 2 ** 14, "L": 100.0}, _TO_1,
                {"kind": "gaussian", "sigma0": 1.0, "amp": 1.0}, p=2.0, gamma=0.5),),
        _t4_weighted),
    "T5-GROWTH": ("envelope <= 2 C0 = 0.02 on all snapshots", (
        _config("growth", _OST, {"N": 2 ** 16, "L": 400.0},
                {"dt": 1e-3, "T": 0.5, "snapshots": [0.125, 0.25, 0.375, 0.5]},
                {"kind": "growth", "gamma": 0.3, "c0": 1e-2}),), _t5_growth),
    # chen_lee, (m, n) = (2, 1), is outside the dichotomy theorem
    "CL-GUARD": ("raises ExcludedParameters", (_config(
        "dichotomy", {"preset": "chen_lee"}, {"N": 2 ** 14, "L": 400.0},
        {"dt": 1e-3, "T": 0.5}, _ALGEBRAIC_3),), _cl_guard),
}


def run_criterion(cid: str) -> CriterionResult:
    """The criterion verdict(*reports of its configs) -> (passed, measured).

    The suite's one error rule: a StratwaveError raised on the way is a FAIL
    that names it, unless it is what the verdict `reads`: then it is the
    verdict's one report.  Any other exception, a package bug, propagates."""
    expected, configs, verdict = CRITERIA[cid]
    start, error = time.perf_counter(), None
    try:
        passed, measured = verdict(*(run_experiment(cfg)[0] for cfg in configs))
    except StratwaveError as exc:
        if isinstance(exc, getattr(verdict, "reads", ())):
            passed, measured = verdict(exc)
        else:
            passed, measured, error = False, {}, f"{type(exc).__name__}: {exc}"
    return CriterionResult(cid, passed, expected, measured,
                           time.perf_counter() - start, list(configs), error)

