import math

import numpy as np
import pytest

from stratwave import (BadParameter, DispersionSymbol, Grid, UnderResolved,
                       WindowContaminated, asymptotic_coefficient, convolve, integral,
                       kernel_derivative_field, kernel_field, leading_jump,
                       linear_multiplier, preset, tail_exponent, validate_params)
from stratwave.kernel import half_kernel_hat
import stratwave.kernel as kernel_module
import stratwave.spectral as spectral_module

from oracles import (kernel_quadrature, kernel_reference, leading_jump_reference,
                     verify_pointwise_bound)

KDV = DispersionSymbol.kdv()


# ---------------------------------------------------------------------------
# spectrum-level identities
# ---------------------------------------------------------------------------

def test_kernel_hat_at_zero_and_amplification_bound():
    sym, params = preset("ost")
    g = Grid(2 ** 14, 200.0)
    assert half_kernel_hat(2.0, g, sym, params)[0] == pytest.approx(1.0)
    # |Khat| is even in xi: the half-spectrum holds its maximum
    vals = np.abs(half_kernel_hat(1.7, g, sym, params))
    bound = np.exp(params.eta * 2 / (3 * np.sqrt(3.0)) * 1.7)
    assert np.max(vals) <= bound * (1 + 1e-12)


def test_modulus_exact_for_even_n():
    params = validate_params(2, 2, 1, 1.0)
    g = Grid(2 ** 14, 200.0)
    xi = g.dxi * np.arange(g.N // 2 + 1)
    khat = half_kernel_hat(0.5, g, KDV, params)
    assert np.max(np.abs(np.abs(khat) - np.exp(-0.5 * np.abs(xi) ** 2))) <= 1e-12


def test_spectrum_real_decay_for_odd_n():
    params = validate_params(2, 3, 1, 1.0)
    xi = np.linspace(-5, 5, 101)
    vals = np.exp(linear_multiplier(xi, KDV, params) * 1.0)
    expected_mod = np.exp(-(np.abs(xi) ** 3 + np.abs(xi) ** 2))
    assert np.allclose(np.abs(vals), expected_mod, rtol=1e-12)


# ---------------------------------------------------------------------------
# physical-space kernel: mass, realness, semigroup
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
@pytest.mark.parametrize("t", [0.1, 0.2, 1.0, 3.0, 5.0])
def test_mass_and_realness(name, t):
    g = Grid(2 ** 14, 200.0)
    sym, params = preset(name)
    kernel = kernel_field(t, g, sym, params)
    assert abs(integral(kernel) - 1.0) <= 1e-8
    samples = kernel.samples
    assert np.max(np.abs(samples.imag)) <= 1e-10 * np.max(np.abs(samples))


def test_semigroup_property():
    g = Grid(2 ** 14, 200.0)
    sym, params = preset("ost")
    k1 = kernel_field(0.3, g, sym, params)
    k2 = kernel_field(0.7, g, sym, params)
    k3 = kernel_field(1.0, g, sym, params)
    conv = convolve(k1, k2)
    rel = np.max(np.abs(conv.samples - k3.samples)) / np.max(np.abs(k3.samples))
    assert rel <= 1e-8


@pytest.mark.parametrize("name", ["ost", "gost", "bo_perturbed", "chen_lee",
                                  "dgbo_perturbed"])
@pytest.mark.parametrize("t", [0.2, 1.0])
def test_irfft_kernels_match_complex_reference(name, t):
    g = Grid(2 ** 14, 200.0)
    sym, params = preset(name)
    for got, derivative in ((kernel_field(t, g, sym, params), False),
                            (kernel_derivative_field(t, g, sym, params), True)):
        ref = kernel_reference(t, g, sym, params, derivative)
        assert np.max(np.abs(got.samples - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got.samples.imag == 0.0)


@pytest.mark.parametrize("build", [kernel_field, kernel_derivative_field])
def test_kernels_are_float64(build):
    assert build(1.0, Grid(2 ** 10, 50.0), *preset("ost")).samples.dtype == np.float64


def test_under_resolved_guard():
    g = Grid(16, 1.0)   # Nyquist = 16 pi / 2 ~ 25; scale 8*(1e-4)^(-1/3) ~ 172
    sym, params = preset("ost")
    with pytest.raises(UnderResolved):
        kernel_field(1e-4, g, sym, params)
    with pytest.raises(UnderResolved):
        kernel_field(0.0, Grid(2 ** 12, 100.0), sym, params)


@pytest.mark.parametrize("build", [kernel_field, kernel_derivative_field])
def test_kernel_memory_guard_raises_before_allocating(monkeypatch, build):
    sym, params = preset("ost")
    g = Grid(2 ** 10, 50.0)
    # 17 bytes per point at N = 1024 is an estimate of 17408 bytes
    need = kernel_module.KERNEL_PEAK_BYTES_PER_POINT * g.N
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need - 1)

    def no_multiplier(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(kernel_module, "half_spectrum_multiplier", no_multiplier)
    with pytest.raises(BadParameter, match=f"{need} bytes.*{need - 1} bytes"):
        build(1.0, g, sym, params)
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="before the memory check"):
        build(1.0, g, sym, params)


# ---------------------------------------------------------------------------
# quadrature oracle: dual route for kernel values
# ---------------------------------------------------------------------------

def test_kernel_matches_quadrature_oracle():
    # independent adaptive quadrature of the oscillatory integral, evaluated
    # at exact grid coordinates; residual difference is the 2L-periodization
    g = Grid(2 ** 16, 400.0)
    sym, params = preset("ost")
    kernel = kernel_field(1.0, g, sym, params)
    p = lambda xi: -np.abs(xi) ** 2
    for xv in (0.0, 1.5, -3.0, 10.0, 25.0):
        idx = round((xv + g.L) / g.dx)
        expect = kernel_quadrature(1.0, float(g.x[idx]), 3, 1, 1.0, p)
        got = kernel.samples[idx]
        assert got.real == pytest.approx(expect.real, abs=3e-6)
        assert got.imag == pytest.approx(expect.imag, abs=3e-6)


def test_asymptotic_constant_against_quadrature():
    # x^2 |K| -> A(t) = eta t / pi; oracle evaluated far out where the
    # next correction is O(1/x^2) ~ 3e-5
    params = validate_params(3, 1, 1, 1.0)
    p = lambda xi: -np.abs(xi) ** 2
    val = kernel_quadrature(1.0, 400.0, 3, 1, 1.0, p)
    measured = 400.0 ** 2 * abs(val)
    assert measured == pytest.approx(asymptotic_coefficient(1.0, params), rel=1e-3)
    assert asymptotic_coefficient(1.0, params) == pytest.approx(1 / np.pi)
    assert asymptotic_coefficient(2.0, params) == pytest.approx(2 / np.pi)


# ---------------------------------------------------------------------------
# boundary-jump constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,eta,expect", [
    (3, 1, 0.5, 1.0),
    (2, 2, 1.0, -4j),
    (3, 3, 1.0, 24.0),        # 2(i^4 3! + 6)
    (2, 3, 1.0, 12.0),        # 2(6 + 0)
    (2, 4, 1.0, 48j),         # 2 i^5 4!
])
def test_leading_jump_frozen_values(m, n, eta, expect):
    params = validate_params(m, n, 1, eta)
    assert leading_jump(params) == pytest.approx(expect)
    assert leading_jump(params) == pytest.approx(leading_jump_reference(m, n, eta))


def test_leading_jump_real_past_n_100():
    # J = 2 eta i^104 103!: real, where 1j ** 104 has an imaginary part of 7.8e-15
    jump = leading_jump(validate_params(2, 103, 1, 1.0))
    assert jump.imag == 0.0
    assert jump.real == 2.0 * math.factorial(103)


def test_asymptotic_coefficient_linear_in_t():
    params = validate_params(2, 2, 1, 1.0)
    a1 = asymptotic_coefficient(1.0, params)
    assert asymptotic_coefficient(2.0, params) == pytest.approx(2 * a1)
    assert a1 == pytest.approx(2 / np.pi)   # |J| = 4 eta


# ---------------------------------------------------------------------------
# tail laws (the five pairs at t = 1, +-0.1)
# ---------------------------------------------------------------------------

TAIL_CASES = [
    # (m, n, eta, grid, window): eta=4 for (2,4) moves the stationary-phase
    # preasymptotics inside the window start (see acceptance module notes)
    (3, 1, 1.0, (2 ** 19, 3200.0), (20.0, 200.0)),
    (2, 2, 1.0, (2 ** 18, 1600.0), (50.0, 300.0)),
    (3, 2, 1.0, (2 ** 18, 1600.0), (30.0, 250.0)),
    (2, 3, 1.0, (2 ** 18, 1600.0), (15.0, 150.0)),
    (2, 4, 4.0, (2 ** 19, 3200.0), (300.0, 1000.0)),
]


@pytest.mark.parametrize("m,n,eta,gridspec,window", TAIL_CASES)
def test_tail_exponent_is_n_plus_one(m, n, eta, gridspec, window):
    g = Grid(*gridspec)
    params = validate_params(m, n, 1, eta)
    for fit in tail_exponent(kernel_field(1.0, g, KDV, params), window).values():
        assert fit["exponent"] == pytest.approx(n + 1, abs=0.1)
        assert fit["valid"]


def test_asymptotic_constant_on_window_n1_n2():
    # |x|^{n+1} |K| within 5% of A(t) on the window (n = 1 and n = 2 cases)
    g = Grid(2 ** 19, 3200.0)
    for m, n in ((3, 1), (2, 2)):
        params = validate_params(m, n, 1, 1.0)
        kernel = kernel_field(1.0, g, KDV, params)
        A = asymptotic_coefficient(1.0, params)
        msk = (np.abs(g.x) >= 80.0) & (np.abs(g.x) <= 250.0)
        vals = np.abs(g.x[msk]) ** (n + 1) * np.abs(kernel.samples[msk])
        assert np.max(np.abs(vals - A)) <= 0.05 * A


# ---------------------------------------------------------------------------
# kernel derivative
# ---------------------------------------------------------------------------

def test_derivative_kernel_zero_mass_and_tail():
    g = Grid(2 ** 19, 3200.0)
    sym, params = preset("ost")
    dk = kernel_derivative_field(1.0, g, sym, params)
    assert abs(np.sum(dk.samples.real) * g.dx) <= 1e-8
    for fit in tail_exponent(dk, (20.0, 150.0)).values():
        assert fit["exponent"] == pytest.approx(3.0, abs=0.15)


def test_derivative_kernel_matches_finite_difference():
    g = Grid(2 ** 16, 400.0)
    sym, params = preset("ost")
    k = kernel_field(1.0, g, sym, params).samples.real
    dk = kernel_derivative_field(1.0, g, sym, params)
    # 4th-order centered stencil as the independent derivative oracle
    fd = (-np.roll(k, -2) + 8 * np.roll(k, -1)
          - 8 * np.roll(k, 1) + np.roll(k, 2)) / (12 * g.dx)
    interior = slice(g.N // 4, 3 * g.N // 4)
    assert np.max(np.abs(fd[interior] - dk.samples.real[interior])) <= 1e-6


# ---------------------------------------------------------------------------
# pointwise-bound report
# ---------------------------------------------------------------------------

def test_verify_pointwise_bound_stability():
    g = Grid(2 ** 16, 400.0)
    sym, params = preset("ost")
    kernel = kernel_field(1.0, g, sym, params)
    report = verify_pointwise_bound(kernel, 1.0, sym, params, window=(20.0, 150.0))
    assert report["passed"]
    assert np.isfinite(report["fitted_C"])
    assert abs(report["refined_C"] - report["fitted_C"]) <= 0.1 * report["fitted_C"]
    assert report["tail_slope_right"] == pytest.approx(-2.0, abs=0.1)


def test_verify_pointwise_bound_n4_report():
    g = Grid(2 ** 19, 3200.0)
    params = validate_params(2, 4, 1, 4.0)
    kernel = kernel_field(0.5, g, KDV, params)
    report = verify_pointwise_bound(kernel, 0.5, KDV, params, window=(600.0, 1400.0))
    assert report["passed"]
    assert report["tail_slope_left"] == pytest.approx(-5.0, abs=0.2)
    assert report["tail_slope_right"] == pytest.approx(-5.0, abs=0.2)


def test_verify_pointwise_bound_window_guard():
    g = Grid(2 ** 14, 100.0)
    sym, params = preset("ost")
    kernel = kernel_field(1.0, g, sym, params)
    with pytest.raises(WindowContaminated):
        verify_pointwise_bound(kernel, 1.0, sym, params, window=(10.0, 90.0))
