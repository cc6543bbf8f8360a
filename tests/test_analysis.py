import math
import re

import numpy as np
import pytest
from scipy import stats

from oracles import fft_xi, to_physical, verify_pointwise_bound
from stratwave import (DispersionSymbol, ExcludedParameters, Field, Grid,
                       InsufficientDecades, NonFinite, SolverConfig,
                       WindowContaminated, ZeroMean, datum_from_config,
                       dichotomy_experiment, energy_experiment, growth_envelope,
                       growth_experiment, integral, kernel_field, kernel_report,
                       linear_multiplier, lower_bound_check, lower_bound_experiment, preset,
                       run_experiment, tail_exponent, validate_params, weighted_norm,
                       weighted_persistence_experiment, window_mask)
from stratwave.errors import BadParameter, ConfigInvalid
from stratwave.spectral import to_spectral


# ---------------------------------------------------------------------------
# tail fitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta,noise", [(2.0, 0.05), (3.5, 0.3)])
def test_tail_fit_matches_scipy_linregress(beta, noise):
    # slope, stderr (n - 2 degrees of freedom) and r^2 of an ordinary least
    # squares fit of log|f| on log|x|, side by side, on a noisy power law
    g = Grid(2 ** 12, 200.0)
    rng = np.random.default_rng(7)
    f = Field(g, (1.0 + np.abs(g.x)) ** -beta * np.exp(noise * rng.standard_normal(g.N)))
    fits = tail_exponent(f, (10.0, 90.0))
    for side, fit in fits.items():
        msk = window_mask(g, (10.0, 90.0), side)
        ref = stats.linregress(np.log(np.abs(g.x[msk])), np.log(np.abs(f.samples[msk])))
        assert fit["n_points"] == np.count_nonzero(msk) == 819
        assert fit["slope"] == pytest.approx(ref.slope, rel=1e-9)
        assert fit["stderr"] == pytest.approx(ref.stderr, rel=1e-9)
        assert fit["r_squared"] == pytest.approx(ref.rvalue ** 2, rel=1e-9)


def test_exact_power_law_recovery():
    g = Grid(2 ** 16, 400.0)
    for beta in (1.5, 2.0, 3.0):
        f = Field(g, (1.0 + g.x ** 2) ** (-beta / 2))
        fits = tail_exponent(f, (20.0, 200.0))
        assert sorted(fits) == ["left", "right"]
        for fit in fits.values():
            assert fit["exponent"] == pytest.approx(beta, abs=0.02)
            assert fit["exponent"] == -fit["slope"] and fit["valid"]
            assert fit["window"] == [20.0, 200.0]


def test_scale_equivariance():
    g = Grid(2 ** 14, 200.0)
    f = Field(g, (1.0 + g.x ** 2) ** (-1.0))
    cf = Field(g, 17.0 * f.samples)
    fits, scaled = tail_exponent(f, (10.0, 90.0)), tail_exponent(cf, (10.0, 90.0))
    for side in ("left", "right"):
        assert fits[side]["slope"] == pytest.approx(scaled[side]["slope"], abs=1e-12)


def test_window_guards():
    g = Grid(2 ** 12, 100.0)
    f = Field(g, (1.0 + g.x ** 2) ** (-1.0))
    with pytest.raises(WindowContaminated):
        tail_exponent(f, (10.0, 60.0))    # beyond L/2
    with pytest.raises(BadParameter):
        tail_exponent(f, (30.0, 10.0))
    # a window so narrow it cannot hold 30 points/decade on this coarse grid
    coarse = Grid(64, 100.0)
    fc = Field(coarse, (1.0 + coarse.x ** 2) ** (-1.0))
    with pytest.raises(InsufficientDecades):
        tail_exponent(fc, (10.0, 45.0))


def test_tail_fit_needs_three_points():
    # x = 10.0586, 10.1563, 10.2539 on this grid: a one-point fit had a NaN
    # stderr (and a RuntimeWarning), a two-point one r_squared 1.0 and valid
    g = Grid(1024, 50.0)
    f = Field(g, (1.0 + g.x ** 2) ** (-1.0))
    for b, n in ((10.06, 1), (10.2, 2)):
        with pytest.raises(InsufficientDecades, match=f"left window .*: {n} points"):
            tail_exponent(f, (10.05, b))
    for fit in tail_exponent(f, (10.05, 10.26)).values():
        assert fit["n_points"] == 3 and math.isfinite(fit["stderr"])


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_closed_form():
    # ||1||_{L2_w}^2 = int (1+|x|)^{-1/2} dx = 4(sqrt(1+L) - 1), the grid sum
    # is trapezoid-exact by even symmetry
    g = Grid(2 ** 16, 400.0)
    u = Field(g, np.ones(g.N))
    exact = math.sqrt(4.0 * (math.sqrt(1.0 + g.L) - 1.0))
    assert weighted_norm(u, 2.0, 0.5) == pytest.approx(exact, abs=1e-6)


def test_weighted_norm_zero_and_monotonicity():
    g = Grid(2 ** 10, 50.0)
    zero = Field(g, np.zeros(g.N))
    assert weighted_norm(zero, 2.0, 0.5) == 0.0
    bump = Field(g, np.exp(-g.x ** 2))
    n_small = weighted_norm(bump, 2.0, 0.9)
    n_large = weighted_norm(bump, 2.0, 0.2)
    assert n_small < n_large                       # larger gamma, smaller norm
    taller = Field(g, 2 * np.exp(-g.x ** 2))
    assert weighted_norm(bump, 3.0, 0.5) <= weighted_norm(
        taller, 3.0, 0.5)                          # pointwise monotone


def test_weight_guards():
    g = Grid(64, 10.0)
    with pytest.raises(BadParameter, match="gamma must be positive"):
        weighted_norm(Field(g, np.ones(64)), 2.0, 0.0)
    with pytest.raises(BadParameter, match="p must exceed 1"):
        weighted_norm(Field(g, np.ones(64)), 1.0, 0.5)
    # |u|^p out of the float64 range: the norm used to be 0 (underflow) or
    # inf (overflow, with a RuntimeWarning)
    with pytest.raises(BadParameter, match="is 0 for a nonzero field: p = 1e"):
        weighted_norm(Field(g, np.full(64, 0.5)), 1e308, 0.5)
    with pytest.raises(BadParameter, match="is inf for a nonzero field: p = 1000"):
        weighted_norm(Field(g, np.full(64, 1000.0)), 1000.0, 0.5)


# ---------------------------------------------------------------------------
# growth envelope and mean
# ---------------------------------------------------------------------------

def test_growth_envelope_exact_profile_and_scaling():
    g = Grid(2 ** 12, 100.0)
    u = Field(g, (1.0 + np.abs(g.x)) ** 0.3)
    assert growth_envelope(u, 0.3) == pytest.approx(1.0, rel=1e-12)
    cu = Field(g, -2.5 * u.samples)
    assert growth_envelope(cu, 0.3) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(BadParameter):
        growth_envelope(u, 0.7)


def test_mean_gaussian_and_odd():
    g = Grid(2 ** 14, 100.0)
    gauss = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 1.0}, g)
    assert integral(gauss) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)
    # sin vanishes at the unpaired x = -L sample, so oddness is exact
    odd_trig = Field(g, np.sin(3 * np.pi * g.x / g.L))
    assert abs(integral(odd_trig)) <= 1e-12
    odd = Field(g, g.x * (1.0 + g.x ** 2) ** (-4.0))
    assert abs(integral(odd)) <= 1e-12


# ---------------------------------------------------------------------------
# lower-bound check
# ---------------------------------------------------------------------------

def linear_evolve(sym, params, u0, t):
    g = u0.grid
    khat = np.exp(linear_multiplier(fft_xi(g), sym, params) * t)
    return Field(g, to_physical(g, khat * to_spectral(u0)).real)


def test_lower_bound_linear_ratio_converges_to_one():
    sym, params = preset("ost")
    g = Grid(2 ** 17, 800.0)
    u0 = datum_from_config({"kind": "algebraic", "gamma": 3.0, "c": 1.0}, g)
    u = linear_evolve(sym, params, u0, 1.0)
    windows = [(40.0, 80.0), (60.0, 120.0), (100.0, 200.0)]
    report = lower_bound_check(u, 1.0, params, integral(u0), windows=windows)
    ratios = report["ratio_series"]
    assert abs(ratios[-1] - 1.0) <= 0.05
    # monotone approach within 5% noise slack
    for early, late in zip(ratios, ratios[1:]):
        assert abs(late - 1.0) <= abs(early - 1.0) + 0.05
    assert report["passed"]


def test_lower_bound_zero_mean_guard():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u = datum_from_config({"kind": "gaussian", "sigma0": 1.0}, g)
    with pytest.raises(ZeroMean):
        lower_bound_check(u, 1.0, params, 0.0)


def test_lower_bound_window_guard():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u = datum_from_config({"kind": "gaussian", "sigma0": 1.0}, g)
    with pytest.raises(WindowContaminated):
        lower_bound_check(u, 1.0, params, 1.0, windows=[(10.0, 80.0)])


def test_lower_bound_default_windows():
    # three nested windows ending at 0.45 L
    sym, params = preset("ost")
    g = Grid(2 ** 14, 200.0)
    u0 = datum_from_config({"kind": "algebraic", "gamma": 3.0, "c": 1.0}, g)
    report = lower_bound_check(linear_evolve(sym, params, u0, 1.0), 1.0, params,
                               integral(u0))
    assert report["windows"] == [[22.5, 45.0], [33.75, 67.5], [45.0, 90.0]]
    assert len(report["ratio_series"]) == 3
    assert report["passed"]


def test_lower_bound_empty_windows_rejected():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u = datum_from_config({"kind": "gaussian", "sigma0": 1.0}, g)
    with pytest.raises(BadParameter, match="at least one window"):
        lower_bound_check(u, 1.0, params, 1.0, windows=[])


@pytest.mark.parametrize("linear_only", [True, False])
def test_lower_bound_experiment_zero_mean_before_evolution(monkeypatch, linear_only):
    import stratwave.analysis as analysis

    def evolved(*args, **kwargs):
        raise AssertionError("evolved a datum with zero integral")

    # every ETD2 path steps through EtdPropagator.step, the linear-only one
    # builds Khat(T) through half_kernel_hat
    monkeypatch.setattr("stratwave.solver.EtdPropagator.step", evolved)
    monkeypatch.setattr(analysis, "half_kernel_hat", evolved)
    sym, params = preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.0}, Grid(2 ** 10, 50.0))
    with pytest.raises(ZeroMean):
        lower_bound_experiment(sym, params, u0,
                               SolverConfig(dt=1e-2, T=0.1, linear_only=linear_only))


# ---------------------------------------------------------------------------
# dichotomy experiment
# ---------------------------------------------------------------------------

#: the algebraic datum of T3-DICHOTOMY
ALGEBRAIC_3 = {"kind": "algebraic", "gamma": 3.0, "c": 0.5}
#: ten steps to T = 0.1
TEN_STEPS = SolverConfig(dt=1e-2, T=0.1)


def test_dichotomy_excluded_pairs():
    grid = Grid(2 ** 10, 50.0)
    sym, params = preset("chen_lee")      # (2, 1)
    with pytest.raises(ExcludedParameters):
        dichotomy_experiment(sym, params, ALGEBRAIC_3, grid, TEN_STEPS)
    params24 = validate_params(2, 4, 1, 1.0)
    with pytest.raises(ExcludedParameters):
        dichotomy_experiment(preset("ost")[0], params24,
                             {"kind": "algebraic", "gamma": 6.0}, grid, TEN_STEPS)


def test_dichotomy_twin_is_the_datum_with_kind_zero_mean(monkeypatch):
    # both runs are built from the one datum config: same gamma and c
    import stratwave.analysis as analysis_module
    built = []

    def record(cfg, grid):
        built.append(cfg)
        return datum_from_config(cfg, grid)

    monkeypatch.setattr(analysis_module, "datum_from_config", record)
    datum = {"kind": "algebraic", "gamma": 2.5, "c": 0.25}
    dichotomy_experiment(*preset("ost"), datum, Grid(2 ** 12, 100.0),
                         SolverConfig(dt=5e-3, T=0.01))
    assert built == [datum, {**datum, "kind": "zero_mean_algebraic"}]
    assert datum == {"kind": "algebraic", "gamma": 2.5, "c": 0.25}   # not changed


def test_dichotomy_epsilon_range():
    grid = Grid(2 ** 10, 50.0)
    sym, params = preset("ost")
    for gamma in (2.0, 3.5, 1.9):
        with pytest.raises(BadParameter, match="must be n\\+1\\+eps"):
            dichotomy_experiment(sym, params, {"kind": "algebraic", "gamma": gamma},
                                 grid, TEN_STEPS)


def test_dichotomy_checks_its_datum_config_first():
    # a datum without kind used to raise KeyError; another kind stays BadParameter
    sym, params = preset("ost")
    with pytest.raises(ConfigInvalid, match="'kind' is a required property"):
        dichotomy_experiment(sym, params, {"gamma": 2.5}, Grid(2 ** 10, 50.0), TEN_STEPS)
    with pytest.raises(BadParameter, match="not from a gaussian datum"):
        dichotomy_experiment(sym, params, {"kind": "gaussian"}, Grid(2 ** 10, 50.0),
                             TEN_STEPS)


def test_dichotomy_default_window():
    # without a window the fits run on [20, 0.3 L]
    sym, params = preset("ost")
    report = dichotomy_experiment(sym, params, ALGEBRAIC_3, Grid(2 ** 12, 100.0),
                                  SolverConfig(dt=5e-3, T=0.01))
    assert report["window"] == [20.0, 30.0]
    assert math.isfinite(report["exponent_nonzero_mean"])


def test_dichotomy_small_run_ordering():
    # coarse, fast configuration: the ordering and zero-mean improvement are
    # robust even when absolute exponents are rough
    sym, params = preset("ost")
    grid = Grid(2 ** 14, 200.0)
    report = dichotomy_experiment(sym, params, ALGEBRAIC_3, grid,
                                  SolverConfig(dt=2e-3, T=0.5), window=(15.0, 60.0))
    assert report["checks"]["ordering"]
    assert report["exponent_zero_mean"] >= report["exponent_nonzero_mean"] + 0.5
    assert abs(report["mean"]) > 0.1
    assert abs(report["zero_mean_residual"]) <= 1e-12
    assert report["passed"]


# ---------------------------------------------------------------------------
# weighted persistence experiment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,gamma,message", [
    (2.0, 0.0, "gamma must be in"), (2.0, 1.0, "gamma must be in"),
    (1.0, 0.5, "p must exceed 1"), (float("nan"), 0.5, "p must exceed 1")])
def test_weighted_persistence_rejects_gamma_and_p(p, gamma, message):
    sym, params = preset("ost")
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}, Grid(1024, 50.0))
    with pytest.raises(BadParameter, match=message):
        weighted_persistence_experiment(sym, params, u0, p, gamma, TEN_STEPS)


def test_weighted_persistence_zero_datum():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = Field(g, np.zeros(g.N))
    rep = weighted_persistence_experiment(sym, params, u0, 2.0, 0.5, TEN_STEPS)
    assert rep["sup_t_weighted"] == 0.0
    assert rep["passed"]


def test_weighted_persistence_linear_only_bounded():
    # direct-convolution analogue: evolve linearly, norms stay ~ C ||u0||_w
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 1.0}, g)
    norm0 = weighted_norm(u0, 2.0, 0.5)
    sup_q = 0.0
    for t in np.logspace(-3, 0, 15):
        ut = linear_evolve(sym, params, u0, float(t))
        sup_q = max(sup_q, float(t) ** params.alpha * weighted_norm(ut, 2.0, 0.5))
    assert np.isfinite(sup_q)
    assert sup_q <= 2.0 * norm0     # fitted C stays O(1) for this datum


def test_weighted_persistence_full_run():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 1.0}, g)
    rep = weighted_persistence_experiment(sym, params, u0, 2.0, 0.5,
                                          SolverConfig(dt=1e-3, T=0.5))
    assert rep["passed"]
    assert rep["low_t_slope"] >= -0.05
    assert rep["fitted_C"] > 0


def test_weighted_persistence_reports_blow_up():
    # the unstable run of test_nonfinite_detection must raise, not return NaNs
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 1.0, "amp": 50.0}, g)
    with pytest.raises(NonFinite):
        weighted_persistence_experiment(sym, params, u0, 2.0, 0.5,
                                        SolverConfig(dt=0.1, T=5.0))


# ---------------------------------------------------------------------------
# window masks, the decay-order gate, the CLI-facing experiments
# ---------------------------------------------------------------------------

def test_window_mask_sides_and_guards():
    g = Grid(64, 16.0)
    right = window_mask(g, (2.0, 6.0), "right")
    left = window_mask(g, (2.0, 6.0), "left")
    assert np.array_equal(g.x[right], -g.x[left][::-1])
    assert np.all((g.x[right] >= 2.0) & (g.x[right] <= 6.0))
    assert np.array_equal(window_mask(g, (2.0, 6.0), "both"), left | right)
    with pytest.raises(BadParameter):
        window_mask(g, (6.0, 2.0), "both")
    with pytest.raises(BadParameter):
        window_mask(g, (0.0, 2.0), "right")
    with pytest.raises(WindowContaminated):
        window_mask(g, (2.0, 8.5), "left")


@pytest.mark.parametrize("kind,experiment,solver,error,message", [
    # the default window [20, 0.3 L] on L = 50
    ("dichotomy", {}, {}, BadParameter, "0 < a < b, got (20.0, 15.0)"),
    ("dichotomy", {"window": [20, 40]}, {}, WindowContaminated, "edge 40.0"),
    ("decay", {"window": [10, 5]}, {}, BadParameter, "0 < a < b, got [10.0, 5.0]"),
    ("decay", {"window": [10, 40]}, {}, WindowContaminated, "edge 40.0"),
    ("lowerbound", {"windows": [[5, 10], [10, 5]]}, {}, BadParameter, "0 < a < b"),
    ("lowerbound", {"windows": [[10, 40]]}, {}, WindowContaminated, "edge 40.0"),
    ("lowerbound", {"windows": [[10, 5]]}, {"linear_only": True}, BadParameter, "0 < a < b"),
    ("lowerbound", {"windows": [[5, 10], [10, 40]]}, {"linear_only": True},
     WindowContaminated, "edge 40.0"),
], ids=["dichotomy-default", "dichotomy-past-L/2", "decay-reversed", "decay-past-L/2",
        "lowerbound-reversed", "lowerbound-past-L/2", "lowerbound-linear_only-reversed",
        "lowerbound-linear_only-past-L/2"])
def test_window_shape_is_refused_before_the_first_step(monkeypatch, kind, experiment, solver,
                                                       error, message):
    # these refusals used to come after a whole run: 50 ETD2 steps here
    def evolved(*args, **kwargs):
        raise AssertionError("evolved before checking the window")

    import stratwave.analysis as analysis
    monkeypatch.setattr("stratwave.solver.EtdPropagator.step", evolved)
    monkeypatch.setattr(analysis, "half_kernel_hat", evolved)
    with pytest.raises(error, match=re.escape(message)):
        run_experiment({"model": {"preset": "ost"}, "grid": {"N": 4096, "L": 50.0},
                        "datum": {"kind": "algebraic", "gamma": 3.0},
                        "solver": {"dt": 1e-2, "T": 0.5, **solver},
                        "experiment": {"kind": kind, **experiment}})


@pytest.mark.parametrize("linear_only", [True, False])
def test_lower_bound_experiment_rejects_complex_datum(linear_only):
    sym, params = preset("ost")
    u = datum_from_config({"kind": "algebraic", "gamma": 3.0}, Grid(2 ** 10, 50.0))
    # the complex datum is rejected as its Field is built, before either path
    with pytest.raises(BadParameter, match="real data"):
        lower_bound_experiment(sym, params, Field(u.grid, u.samples * (1.0 + 0.1j)),
                               SolverConfig(dt=1e-2, T=0.1, linear_only=linear_only))


def test_decay_order_gate():
    # BO is only C^0 at the origin: the order-3 tail law does not apply
    sym, params = DispersionSymbol.bo(), validate_params(3, 3, 1, 1.0)
    grid = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "algebraic", "gamma": 3.0}, grid)
    with pytest.raises(ExcludedParameters, match="C\\^0"):
        dichotomy_experiment(sym, params, {"kind": "algebraic", "gamma": 4.5}, grid, TEN_STEPS)
    for linear_only in (True, False):
        with pytest.raises(ExcludedParameters):
            lower_bound_experiment(sym, params, u0,
                               SolverConfig(dt=1e-2, T=0.1, linear_only=linear_only))
    kernel = kernel_field(1.0, Grid(2 ** 14, 200.0), sym, params)
    assert kernel_report(kernel, 1.0, sym, params)["theory_applies"] is False
    ost_sym, ost_params = preset("ost")
    ost = kernel_field(1.0, Grid(2 ** 14, 200.0), ost_sym, ost_params)
    assert kernel_report(ost, 1.0, ost_sym, ost_params)["theory_applies"] is True


def test_kernel_report_matches_verify_pointwise_bound():
    sym, params = preset("ost")
    kernel = kernel_field(1.0, Grid(2 ** 16, 400.0), sym, params)
    rep = kernel_report(kernel, 1.0, sym, params, (20.0, 150.0))
    ver = verify_pointwise_bound(kernel, 1.0, sym, params, (20.0, 150.0))
    for key in rep:
        assert ver[key] == rep[key]
    assert rep["A_predicted"] == pytest.approx(1 / math.pi)
    assert rep["window"] == [20.0, 150.0] and ver["passed"]


def test_energy_experiment_checks():
    grid = Grid(2 ** 10, 50.0)
    u0 = datum_from_config({"kind": "gaussian", "sigma0": 2.0, "amp": 0.5}, grid)
    # n = 2 dissipates: monotone is checked; n = 1 (OST) has an amplification band
    rep = energy_experiment(preset("ost")[0], validate_params(2, 2, 1, 1.0), u0, TEN_STEPS)
    assert set(rep["checks"]) == {"growth_bound", "monotone"} and rep["passed"]
    assert rep["max_step_increase"] < 0
    assert rep["peak_energy"] == rep["energy_initial"] == pytest.approx(u0.l2_norm())
    rep = energy_experiment(*preset("ost"), u0, TEN_STEPS)
    assert set(rep["checks"]) == {"growth_bound"} and rep["passed"]
    assert rep["max_envelope_ratio"] <= 1.0
    zero = energy_experiment(*preset("ost"), Field(grid, np.zeros(grid.N)), TEN_STEPS)
    assert zero["passed"] and zero["peak_energy"] == 0.0
    assert zero["max_envelope_ratio"] == 0.0
    # eta T = 1000: exp(eta t) past float64 is an infinite envelope, which
    # used to overflow with a RuntimeWarning
    for u in (u0, Field(grid, np.zeros(grid.N))):
        rep = energy_experiment(preset("ost")[0], validate_params(2, 2, 1, 1e4), u,
                                TEN_STEPS)
        assert rep["passed"] and rep["max_envelope_ratio"] <= 1.0


def test_growth_experiment_includes_datum():
    sym, params = preset("ost")
    grid = Grid(2 ** 12, 100.0)
    u0 = datum_from_config({"kind": "growth", "gamma": 0.3, "c0": 1e-2}, grid)
    rep = growth_experiment(sym, params, u0, 0.3,
                            SolverConfig(dt=2e-3, T=0.1, snapshot_times=(0.05, 0.1)), 2e-2)
    assert rep["times"] == [0.0, 0.05, 0.1]
    assert rep["envelopes"][0] == growth_envelope(u0, 0.3)
    assert rep["max_envelope"] == max(rep["envelopes"]) and rep["passed"]
    tight = growth_experiment(sym, params, u0, 0.3, SolverConfig(dt=2e-3, T=0.1), 1e-9)
    assert not tight["passed"]


@pytest.mark.parametrize("cfg,path,message", [
    ({}, "$", "'experiment' is a required property"),
    ({"grid": {"N": 256, "L": 20.0}, "datum": {"kind": "gaussian"},
      "experiment": {"kind": "energy"}}, "$", "'model' is a required property"),
    ({"experiment": {"kind": "nope"}}, "$.experiment.kind", "'nope' is not one of"),
    ([], "$", "[] is not of type 'object'"),
])
def test_run_experiment_refuses_a_config_its_schema_refuses(cfg, path, message):
    # each used to raise KeyError or TypeError from inside the runner
    with pytest.raises(ConfigInvalid) as exc:
        run_experiment(cfg)
    assert exc.value.path == path
    assert str(exc.value).startswith(f"{path}: {message}")
