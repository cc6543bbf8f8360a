import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import etd2_reference, picard_reference
from stratwave import (DatumSpec, DispersionSymbol, EtdPropagator, Field, Grid,
                       NoContraction, NonFinite, SolverConfig, SpectralField,
                       dissipation_rate, etd_step, growth_envelope,
                       kernel_hat, make_datum, picard_solve, preset, solve,
                       tail_exponent, to_physical, to_spectral, validate_params)
from stratwave.errors import BadParameter
from stratwave.model import SMOOTH
import stratwave.solver as solver_module
from stratwave.solver import _snapshot_steps


def l2_diff(a: Field, b: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(a.samples - b.samples) ** 2) * a.grid.dx))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_algebraic_datum_profile_and_tail():
    g = Grid(2 ** 16, 400.0)
    u = make_datum(DatumSpec(kind="algebraic", gamma=2.0, c=1.0), g)
    assert u.samples[g.index_of(0.0)].real == pytest.approx(1.0)
    left, right = tail_exponent(u, (20.0, 200.0))
    assert left.exponent == pytest.approx(2.0, abs=0.05)
    assert right.exponent == pytest.approx(2.0, abs=0.05)


def test_zero_mean_datum():
    g = Grid(2 ** 14, 200.0)
    u = make_datum(DatumSpec(kind="zero_mean_algebraic", gamma=3.0), g)
    assert abs(np.sum(u.samples.real) * g.dx) <= 1e-12
    # still decays like the requested power
    left, right = tail_exponent(u, (10.0, 90.0))
    assert right.exponent == pytest.approx(3.0, abs=0.05)
    assert left.exponent == pytest.approx(3.0, abs=0.05)


def test_growth_datum_envelope():
    g = Grid(2 ** 14, 200.0)
    u = make_datum(DatumSpec(kind="growth", gamma=0.3, c0=0.01), g)
    assert growth_envelope(u, 0.3) <= 0.01 + 1e-15
    # vanishes left of the switch and at the right seam
    assert np.max(np.abs(u.samples[g.x <= -1.0])) == 0.0
    assert abs(u.samples[-1]) == 0.0


def test_gaussian_datum_mass():
    g = Grid(2 ** 14, 100.0)
    u = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=1.0), g)
    assert np.sum(u.samples.real) * g.dx == pytest.approx(math.sqrt(2 * math.pi),
                                                          rel=1e-10)


def test_datum_parameter_guards():
    g = Grid(64, 10.0)
    for spec in (DatumSpec(kind="algebraic", gamma=0.0),
                 DatumSpec(kind="gaussian", sigma0=-1.0),
                 DatumSpec(kind="growth", gamma=0.7),
                 DatumSpec(kind="nosuch")):
        with pytest.raises(BadParameter):
            make_datum(spec, g)


# ---------------------------------------------------------------------------
# single ETD step and linear exactness
# ---------------------------------------------------------------------------

def test_zero_datum_is_fixed_point():
    g = Grid(2 ** 10, 50.0)
    sym, params = preset("ost")
    u0 = Field(g, np.zeros(g.N))
    stepped = etd_step(u0, 1e-2, sym, params)
    assert np.max(np.abs(stepped.samples)) == 0.0
    traj = solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1))
    assert np.max(np.abs(traj.snapshots[-1].samples)) == 0.0
    assert np.max(traj.energy_series) == 0.0


def test_linear_only_equals_kernel_convolution():
    g = Grid(2 ** 12, 64.0)
    sym, params = preset("ost")
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=1.0), g)
    cfg = SolverConfig(dt=1e-2, T=0.5, snapshot_times=(0.5,), linear_only=True)
    traj = solve(sym, params, u0, cfg)
    khat = kernel_hat(0.5, g.xi, sym, params)
    expect = to_physical(SpectralField(g, khat * to_spectral(u0).coefficients))
    # note the solver dealiases the datum; apply the same projection
    from stratwave import dealias
    expect_deal = to_physical(SpectralField(
        g, khat * dealias(to_spectral(u0), params.k).coefficients))
    assert l2_diff(traj.snapshots[-1], expect_deal) <= 1e-10
    assert l2_diff(traj.snapshots[-1], expect) <= 1e-10  # datum is band-limited


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
def test_self_convergence_order(name):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=0.5), g)
    finals = [solve(sym, params, u0,
                    SolverConfig(dt=dt, T=0.2, snapshot_times=(0.2,))).snapshots[-1]
              for dt in (2e-3, 1e-3, 5e-4)]
    order = math.log2(l2_diff(finals[0], finals[1]) / l2_diff(finals[1], finals[2]))
    assert order >= 1.9


def test_nonfinite_detection():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=50.0), g)
    with pytest.raises(NonFinite) as err:
        solve(sym, params, u0, SolverConfig(dt=0.1, T=5.0))
    assert err.value.t is not None and err.value.t > 0


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
def test_real_stepper_matches_complex_reference(name):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=0.5), g)
    assert_matches_etd2_reference(sym, params, u0)


def assert_matches_etd2_reference(sym, params, u0, dt=1e-3):
    """10 ETD2 steps of the real stepper equal the complex reference's to
    1e-12 relative after step 1 and step 10."""
    g = u0.grid
    ref = etd2_reference(u0.samples.real, g.L, params.m, params.n, params.k,
                         params.eta, sym, dt, 10)
    prop = EtdPropagator(g, sym, params, dt)
    states = dict(prop.evolve(prop.forward(u0), 10))
    for i in (1, 10):
        got = prop.physical(states[i]).samples
        rel = np.linalg.norm(got - ref[i - 1]) / np.linalg.norm(ref[i - 1])
        assert rel <= 1e-12, (i, rel)


@pytest.mark.parametrize("name,k", [("ost", 1), ("gost", 2), ("gost", 3)])
def test_real_stepper_matches_reference_on_every_kept_mode(name, k):
    """A datum with every mode |j| <= N/(k+2) nonzero: the nonlinearity
    fills the whole spectrum, so a dealias cutoff other than N/(k+2) (a
    kept mode dropped, or an aliased one kept) moves the result."""
    sym, params = preset(name, k=k)
    g = Grid(64, 16.0)
    rng = np.random.default_rng(k)
    coeffs = np.zeros(g.N // 2 + 1, dtype=complex)
    kept = np.arange(coeffs.size) <= g.N / (k + 2)
    coeffs[kept] = rng.standard_normal(kept.sum()) + 1j * rng.standard_normal(kept.sum())
    samples = np.fft.irfft(coeffs, n=g.N)
    assert_matches_etd2_reference(sym, params,
                                  Field(g, 0.1 * samples / np.max(np.abs(samples))))


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
    uhat = np.fft.rfft(u.real)   # unmasked, so the Nyquist weight counts too
    assert prop.energy(uhat) == pytest.approx(u.l2_norm(), rel=1e-12)
    # n = 1 has an amplification band, so the rate can cancel: compare
    # against the sum of the absolute contributions
    expect = dissipation_rate(to_spectral(u), params)
    scale = float(np.dot(np.abs(prop.rate_weight), np.abs(uhat) ** 2))
    assert abs(prop.dissipation(uhat) - expect) <= 1e-12 * scale
    if n != 1:
        assert prop.dissipation(uhat) == pytest.approx(expect, rel=1e-12)


def test_odd_dispersion_symbol_rejected():
    odd = DispersionSymbol.custom(lambda xi: xi, sigma=1.0, origin_regularity=SMOOTH)
    params = validate_params(3, 1, 1, 1.0)
    g = Grid(2 ** 8, 20.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.1), g)
    with pytest.raises(BadParameter, match="Hermitian"):
        solve(odd, params, u0, SolverConfig(dt=1e-2, T=0.1))
    with pytest.raises(BadParameter, match="Hermitian"):
        etd_step(u0, 1e-2, odd, params)
    with pytest.raises(BadParameter, match="Hermitian"):
        picard_solve(odd, params, u0, SolverConfig(dt=1e-2, T=0.1, mode="picard"))
    # an even custom symbol is accepted
    even = DispersionSymbol.custom(lambda xi: xi ** 2, sigma=2.0,
                                   origin_regularity=SMOOTH)
    solve(even, params, u0, SolverConfig(dt=1e-2, T=0.1))


def test_complex_datum_rejected():
    sym, params = preset("ost")
    g = Grid(2 ** 8, 20.0)
    u = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.1), g)
    u0 = Field(g, u.samples * (1.0 + 0.1j))
    with pytest.raises(BadParameter, match="real data"):
        solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1))
    with pytest.raises(BadParameter, match="real data"):
        etd_step(u0, 1e-2, sym, params)
    with pytest.raises(BadParameter, match="real data"):
        picard_solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1, mode="picard"))


def test_snapshot_times_off_grid_or_colliding_rejected():
    # 0.1004 lies between steps; it used to be moved onto step 100 and drop 0.1
    cfg = SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.1, 0.1004, 0.1507))
    with pytest.raises(BadParameter, match="not a multiple of dt"):
        _snapshot_steps(cfg, 200)
    cfg = SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.1, 0.1 + 1e-12))
    with pytest.raises(BadParameter, match="same step"):
        _snapshot_steps(cfg, 200)
    cfg = SolverConfig(dt=1e-3, T=0.2, snapshot_times=(0.15, 0.0, 0.1, 0.1))
    assert _snapshot_steps(cfg, 200) == {0: 0.0, 100: 0.1, 150: 0.15}


# ---------------------------------------------------------------------------
# trajectories and energy monitors
# ---------------------------------------------------------------------------

def test_trajectory_bookkeeping():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.1), g)
    cfg = SolverConfig(dt=1e-2, T=0.1, snapshot_times=(0.0, 0.05, 0.1))
    traj = solve(sym, params, u0, cfg)
    assert traj.times == [0.0, 0.05, 0.1]
    assert len(traj.snapshots) == 3
    assert np.all(np.diff(traj.energy_times) > 0)
    assert len(traj.energy_series) == 11


def test_energy_zero_field():
    g = Grid(64, 10.0)
    u = Field(g, np.zeros(g.N))
    assert u.l2_norm() == 0.0
    assert dissipation_rate(to_spectral(u), validate_params(2, 2, 1, 1.0)) == 0.0


def test_dissipation_rate_even_n_matches_m_term_only():
    # for n even the i^{n+1} term has odd real part: only |xi|^m contributes
    rng = np.random.default_rng(12)
    g = Grid(512, 20.0)
    u = Field(g, rng.standard_normal(g.N))
    U = to_spectral(u)
    params = validate_params(2, 2, 1, 1.3)
    rate = dissipation_rate(U, params)
    expect = -1.3 * np.sum(np.abs(g.xi) ** 2 * np.abs(U.coefficients) ** 2) \
        * g.dxi / (2 * np.pi)
    assert rate == pytest.approx(expect, rel=1e-12)
    assert rate <= 0


def test_dissipation_rate_amplification_band():
    # n=1, m=2: rate = eta sum (|xi| - |xi|^2)|uhat|^2 > 0 for |xi| < 1 data
    g = Grid(256, 64.0)   # dxi ~ 0.049: plenty of modes below |xi| = 1
    coeffs = np.where(np.abs(g.xi) < 0.9, 1.0, 0.0).astype(complex)
    coeffs[g.j == 0] = 0.0
    u = to_physical(SpectralField(g, coeffs))
    rate = dissipation_rate(to_spectral(u), validate_params(2, 1, 1, 1.0))
    assert rate > 0


def test_energy_derivative_matches_dissipation_linear_run():
    # d/dt ||u||^2 = 2 * dissipation_rate under the linear flow
    sym, params = preset("ost")
    g = Grid(2 ** 11, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=1.0), g)
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
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=1.0), g)
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
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=0.5), g)
    traj = solve(DispersionSymbol.kdv(), params, u0, SolverConfig(dt=1e-3, T=0.5))
    assert float(np.max(np.diff(traj.energy_series))) <= 1e-10


def test_energy_growth_bound_n1():
    sym, params = preset("ost")
    g = Grid(2 ** 11, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=0.5), g)
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
                                 SolverConfig(dt=1e-2, T=0.1, mode="picard"))
    assert report["iterations"] == 1 and report["converged"]
    assert np.max(np.abs(final.samples)) == 0.0


def test_picard_matches_etd_small_data():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.01), g)
    cfg = SolverConfig(dt=1e-3, T=0.1, snapshot_times=(0.1,))
    u_etd = solve(sym, params, u0, cfg).snapshots[-1]
    u_pic, report = picard_solve(
        sym, params, u0, SolverConfig(dt=1e-3, T=0.1, mode="picard",
                                      picard_tol=1e-12))
    assert report["converged"]
    assert all(f < 1 for f in report["contraction_factors"])
    assert l2_diff(u_etd, u_pic) <= 1e-6


def test_picard_linear_only_matches_etd_linear_only():
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.5), g)
    u_etd = solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1,
                                                linear_only=True)).snapshots[-1]
    u_pic, report = picard_solve(sym, params, u0,
                                 SolverConfig(dt=1e-2, T=0.1, mode="picard",
                                              linear_only=True))
    assert report["converged"]
    assert l2_diff(u_etd, u_pic) <= 1e-10


def test_picard_no_contraction_for_large_data():
    sym, params = preset("ost")
    g = Grid(2 ** 12, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=20.0), g)
    with pytest.raises(NoContraction):
        picard_solve(sym, params, u0,
                     SolverConfig(dt=5e-3, T=0.5, mode="picard"))


@pytest.mark.parametrize("name,linear_only", [
    ("ost", False), ("gost", False), ("bo_perturbed", False), ("chen_lee", False),
    ("dgbo_perturbed", False), ("ost", True)])
def test_picard_matches_direct_duhamel_reference(name, linear_only):
    sym, params = preset(name)
    g = Grid(2 ** 11, 64.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=2.0, amp=0.1), g)
    dt, M, tol = 1e-3, 50, 1e-12
    ref, (iterations, converged, _) = picard_reference(
        u0.samples.real, g.L, params.m, params.n, params.k, params.eta, sym,
        dt, M, tol, linear_only=linear_only)
    got, report = picard_solve(sym, params, u0,
                               SolverConfig(dt=dt, T=M * dt, mode="picard",
                                            picard_tol=tol, linear_only=linear_only))
    assert (report["iterations"], report["converged"]) == (iterations, converged)
    assert converged and iterations >= (1 if linear_only else 3)
    rel = np.linalg.norm(got.samples - ref) / np.linalg.norm(ref)
    assert rel <= 1e-12, rel


def test_picard_memory_guard_raises_before_any_step(monkeypatch):
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    u0 = make_datum(DatumSpec(kind="gaussian", sigma0=1.0, amp=0.1), g)
    # 11 x 513 complex values need 90288 bytes
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: 90287)

    def no_propagator(*args, **kwargs):
        raise AssertionError("built a propagator before the memory check")

    monkeypatch.setattr(solver_module, "EtdPropagator", no_propagator)
    with pytest.raises(BadParameter, match="90288 bytes.*90287 bytes"):
        picard_solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1, mode="picard"))
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: 90288)
    with pytest.raises(AssertionError, match="before the memory check"):
        picard_solve(sym, params, u0, SolverConfig(dt=1e-2, T=0.1, mode="picard"))


def test_physical_memory_is_positive():
    assert solver_module._physical_memory() > 0


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


def test_solver_config_guards():
    with pytest.raises(BadParameter):
        SolverConfig(dt=0.2, T=0.1)
    with pytest.raises(BadParameter):
        SolverConfig(dt=1e-3, T=1.0, mode="rk4")
