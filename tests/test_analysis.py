import math

import numpy as np
import pytest

from stratwave import (DatumSpec, ExcludedParameters, Field, Grid,
                       InsufficientDecades, NonFinite, SolverConfig, SpectralField, Weight,
                       WindowContaminated, ZeroMean, dichotomy_experiment,
                       growth_envelope, kernel_hat, lower_bound_check,
                       make_datum, mean, preset, tail_exponent, to_physical,
                       to_spectral, validate_params, weighted_norm,
                       weighted_persistence_experiment, zero_mean_project)
from stratwave.errors import BadParameter


# ---------------------------------------------------------------------------
# tail fitting
# ---------------------------------------------------------------------------

def test_exact_power_law_recovery():
    g = Grid(2 ** 16, 400.0)
    for beta in (1.5, 2.0, 3.0):
        f = Field(g, (1.0 + g.x ** 2) ** (-beta / 2))
        left, right = tail_exponent(f, (20.0, 200.0))
        assert left.exponent == pytest.approx(beta, abs=0.02)
        assert right.exponent == pytest.approx(beta, abs=0.02)
        assert left.valid and right.valid and left.side == "left"


def test_scale_equivariance():
    g = Grid(2 ** 14, 200.0)
    f = Field(g, (1.0 + g.x ** 2) ** (-1.0))
    cf = Field(g, 17.0 * f.samples)
    l1, r1 = tail_exponent(f, (10.0, 90.0))
    l2, r2 = tail_exponent(cf, (10.0, 90.0))
    assert l1.slope == pytest.approx(l2.slope, abs=1e-12)
    assert r1.slope == pytest.approx(r2.slope, abs=1e-12)


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


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_closed_form():
    # ||1||_{L2_w}^2 = int (1+|x|)^{-1/2} dx = 4(sqrt(1+L) - 1), the grid sum
    # is trapezoid-exact by even symmetry
    g = Grid(2 ** 16, 400.0)
    u = Field(g, np.ones(g.N))
    exact = math.sqrt(4.0 * (math.sqrt(1.0 + g.L) - 1.0))
    assert weighted_norm(u, 2.0, Weight(0.5)) == pytest.approx(exact, abs=1e-6)


def test_weighted_norm_zero_and_monotonicity():
    g = Grid(2 ** 10, 50.0)
    zero = Field(g, np.zeros(g.N))
    assert weighted_norm(zero, 2.0, Weight(0.5)) == 0.0
    bump = Field(g, np.exp(-g.x ** 2))
    n_small = weighted_norm(bump, 2.0, Weight(0.9))
    n_large = weighted_norm(bump, 2.0, Weight(0.2))
    assert n_small < n_large                       # larger gamma, smaller norm
    taller = Field(g, 2 * np.exp(-g.x ** 2))
    assert weighted_norm(bump, 3.0, Weight(0.5)) <= weighted_norm(
        taller, 3.0, Weight(0.5))                  # pointwise monotone


def test_weight_guards():
    with pytest.raises(BadParameter):
        Weight(0.0)
    g = Grid(64, 10.0)
    with pytest.raises(BadParameter):
        weighted_norm(Field(g, np.ones(64)), 1.0, Weight(0.5))


# ---------------------------------------------------------------------------
# growth envelope, mean, projection
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
    gauss = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=1.0), g)
    assert mean(gauss) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)
    # sin vanishes at the unpaired x = -L sample, so oddness is exact
    odd_trig = Field(g, np.sin(3 * np.pi * g.x / g.L))
    assert abs(mean(odd_trig)) <= 1e-12
    odd = Field(g, g.x * (1.0 + g.x ** 2) ** (-4.0))
    assert abs(mean(odd)) <= 1e-12


def test_zero_mean_projection():
    rng = np.random.default_rng(8)
    g = Grid(2 ** 10, 50.0)
    u = Field(g, rng.standard_normal(g.N))
    v = zero_mean_project(u)
    assert abs(mean(v)) <= 1e-12


# ---------------------------------------------------------------------------
# lower-bound check
# ---------------------------------------------------------------------------

def linear_evolve(sym, params, u0, t):
    g = u0.grid
    khat = kernel_hat(t, g.xi, sym, params)
    return to_physical(SpectralField(g, khat * to_spectral(u0).coefficients))


def test_lower_bound_linear_ratio_converges_to_one():
    sym, params = preset("ost")
    g = Grid(2 ** 17, 800.0)
    u0 = make_datum(DatumSpec(kind="algebraic", gamma=3.0, c=1.0), g)
    u = linear_evolve(sym, params, u0, 1.0)
    windows = [(40.0, 80.0), (60.0, 120.0), (100.0, 200.0)]
    report = lower_bound_check(u, 1.0, params, mean(u0), windows=windows)
    ratios = report["ratio_series"]
    assert abs(ratios[-1] - 1.0) <= 0.05
    # monotone approach within 5% noise slack
    for early, late in zip(ratios, ratios[1:]):
        assert abs(late - 1.0) <= abs(early - 1.0) + 0.05
    assert report["passes"]


def test_lower_bound_zero_mean_guard():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u = make_datum(DatumSpec(kind="gaussian", sigma0=1.0), g)
    with pytest.raises(ZeroMean):
        lower_bound_check(u, 1.0, params, 0.0)


def test_lower_bound_window_guard():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u = make_datum(DatumSpec(kind="gaussian", sigma0=1.0), g)
    with pytest.raises(WindowContaminated):
        lower_bound_check(u, 1.0, params, 1.0, windows=[(10.0, 80.0)])


# ---------------------------------------------------------------------------
# dichotomy experiment
# ---------------------------------------------------------------------------

def test_dichotomy_excluded_pairs():
    grid = Grid(2 ** 10, 50.0)
    sym, params = preset("chen_lee")      # (2, 1)
    with pytest.raises(ExcludedParameters):
        dichotomy_experiment(sym, params, 3.0, 0.1, grid)
    params24 = validate_params(2, 4, 1, 1.0)
    with pytest.raises(ExcludedParameters):
        dichotomy_experiment(preset("ost")[0], params24, 6.0, 0.1, grid)


def test_dichotomy_epsilon_range():
    grid = Grid(2 ** 10, 50.0)
    sym, params = preset("ost")
    for gamma in (2.0, 3.5, 1.9):
        with pytest.raises(BadParameter):
            dichotomy_experiment(sym, params, gamma, 0.1, grid)


def test_dichotomy_small_run_ordering():
    # coarse, fast configuration: the ordering and zero-mean improvement are
    # robust even when absolute exponents are rough
    sym, params = preset("ost")
    grid = Grid(2 ** 14, 200.0)
    report = dichotomy_experiment(sym, params, gamma_datum=3.0, T=0.5,
                                  grid=grid, dt=2e-3, window=(15.0, 60.0),
                                  exponent_tol=0.4, improvement_fraction=0.4)
    assert report["checks"]["ordering"]
    assert report["exponent_zero_mean"] >= report["exponent_nonzero_mean"] + 0.5
    assert abs(report["mean"]) > 0.1
    assert abs(report["zero_mean_residual"]) <= 1e-12
    assert report["passed"]


# ---------------------------------------------------------------------------
# weighted persistence experiment
# ---------------------------------------------------------------------------

def test_weighted_persistence_zero_datum():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = Field(g, np.zeros(g.N))
    rep = weighted_persistence_experiment(sym, params, u0, p=2.0, gamma=0.5,
                                          T=0.1, dt=1e-2)
    assert rep["sup_t_weighted"] == 0.0
    assert rep["bounded"]


def test_weighted_persistence_linear_only_bounded():
    # direct-convolution analogue: evolve linearly, norms stay ~ C ||u0||_w
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=1.0), g)
    w = Weight(0.5)
    norm0 = weighted_norm(u0, 2.0, w)
    sup_q = 0.0
    for t in np.logspace(-3, 0, 15):
        ut = linear_evolve(sym, params, u0, float(t))
        sup_q = max(sup_q, float(t) ** params.alpha * weighted_norm(ut, 2.0, w))
    assert np.isfinite(sup_q)
    assert sup_q <= 2.0 * norm0     # fitted C stays O(1) for this datum


def test_weighted_persistence_full_run():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 100.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=1.0), g)
    rep = weighted_persistence_experiment(sym, params, u0, p=2.0, gamma=0.5,
                                          T=0.5, dt=1e-3)
    assert rep["bounded"]
    assert rep["low_t_slope"] >= -0.05
    assert rep["fitted_C"] > 0


def test_weighted_persistence_reports_blow_up():
    # the unstable run of test_nonfinite_detection must raise, not return NaNs
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=50.0), g)
    with pytest.raises(NonFinite):
        weighted_persistence_experiment(sym, params, u0, p=2.0, gamma=0.5,
                                        T=5.0, dt=0.1)
