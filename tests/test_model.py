import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratwave import (DispersionSymbol, Field, Grid, InvalidN, InvalidRange,
                       UnknownPreset, dissipation_symbol, linear_multiplier,
                       model_from_config, preset, validate_params)
from stratwave.errors import BadParameter, ConfigInvalid
from stratwave.model import I_POWERS, half_spectrum_multiplier
import stratwave.model as model_module
from stratwave.spectral import from_half_spectrum, half_spectrum

from oracles import (amplification_max, derivative, fitted_growth_constant, hilbert,
                     phi_piecewise)


# ---------------------------------------------------------------------------
# parameter validation and the alpha rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,k,eta,alpha", [
    (3, 1, 1, 0.5, 1 / 3),
    (2, 3, 1, 1.0, 1 / 3),
    (2, 4, 2, 1.0, 1 / 2),
    (2, 2, 1, 1.0, 1 / 2),   # n=2 uses the 1/m branch
    (3, 2, 1, 1.0, 1 / 3),
    (3, 7, 1, 1.0, 1 / 7),
    (2, 8, 1, 2.0, 1 / 2),
])
def test_alpha_rule(m, n, k, eta, alpha):
    params = validate_params(m, n, k, eta)
    assert params.alpha == pytest.approx(alpha, abs=1e-15)
    assert 0 < params.alpha <= 0.5


@pytest.mark.parametrize("n", [5, 9, 13, 17])
def test_excluded_n(n):
    with pytest.raises(InvalidN):
        validate_params(2, n, 1, 1.0)


@given(m=st.sampled_from([2, 3]), d=st.integers(0, 10 ** 6))
def test_every_n_five_plus_4d_rejected(m, d):
    with pytest.raises(InvalidN):
        validate_params(m, 5 + 4 * d, 1, 1.0)


@given(m=st.sampled_from([2, 3]), flag=st.booleans(), which=st.sampled_from("mnk"))
def test_bool_parameters_rejected(m, flag, which):
    args = {"m": m, "n": 1, "k": 1}
    args[which] = flag
    with pytest.raises(InvalidRange):
        validate_params(args["m"], args["n"], args["k"], 1.0)


@given(m=st.sampled_from([2, 3]), n=st.integers(1, 10 ** 6).filter(
    lambda n: not (n >= 5 and n % 4 == 1)), k=st.integers(1, 5))
def test_admissible_alpha_in_range(m, n, k):
    assert 0 < validate_params(m, n, k, 1.0).alpha <= 0.5


@pytest.mark.parametrize("m,n,k,eta", [
    (4, 1, 1, 1.0), (1, 1, 1, 1.0), (2, 0, 1, 1.0),
    (2, 1, 0, 1.0), (2, 1, 1, 0.0), (2, 1, 1, -1.0),
])
def test_invalid_ranges(m, n, k, eta):
    with pytest.raises(InvalidRange):
        validate_params(m, n, k, eta)


# ---------------------------------------------------------------------------
# dissipation symbol
# ---------------------------------------------------------------------------

def test_phi_examples():
    # frozen values from independent evaluation of the piecewise branches
    assert dissipation_symbol(0.0, validate_params(2, 1, 1, 1.0)) == 0
    assert dissipation_symbol(1.0, validate_params(2, 1, 1, 1.0)) == pytest.approx(0.0)
    assert dissipation_symbol(-1.0, validate_params(3, 2, 1, 1.0)) == pytest.approx(-1 - 1j)
    assert dissipation_symbol(2.0, validate_params(2, 3, 1, 1.0)) == pytest.approx(-12.0)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3),
                                 (3, 3), (2, 4), (3, 4), (3, 7)])
def test_phi_matches_piecewise_oracle(m, n):
    params = validate_params(m, n, 1, 1.3)
    for xi in np.linspace(-4.0, 4.0, 41):
        expect = phi_piecewise(float(xi), m, n, 1.3)
        assert dissipation_symbol(float(xi), params) == pytest.approx(
            expect, rel=1e-12, abs=1e-12)


def test_phi_real_for_odd_n():
    # n = 1: eta(|xi| - |xi|^m); n = 3+4d: -eta(|xi|^n + |xi|^m)
    xi = np.linspace(-8, 8, 257)
    p1 = dissipation_symbol(xi, validate_params(3, 1, 1, 2.0))
    assert np.max(np.abs(p1.imag)) == 0
    assert np.allclose(p1.real, 2.0 * (np.abs(xi) - np.abs(xi) ** 3))
    p3 = dissipation_symbol(xi, validate_params(2, 3, 1, 0.7))
    assert np.max(np.abs(p3.imag)) == 0
    assert np.allclose(p3.real, -0.7 * (np.abs(xi) ** 3 + np.abs(xi) ** 2))


def test_phi_even_n_real_part_exact():
    xi = np.linspace(-10, 10, 401)
    for m in (2, 3):
        p = dissipation_symbol(xi, validate_params(m, 2, 1, 1.5))
        assert np.allclose(p.real, -1.5 * np.abs(xi) ** m, atol=1e-14)


def test_phi_real_part_exact_past_n_100():
    # 1j ** 103 has a real part of -1.5e-14, which times |xi|^102 swamped
    # the damping -eta xi^2
    xi = np.linspace(-3, 3, 61)
    p = dissipation_symbol(xi, validate_params(2, 102, 1, 0.5))
    assert np.array_equal(p.real, -0.5 * xi ** 2)


def test_i_powers_table_has_the_bits_of_python_powers():
    def bits(c):
        return math.copysign(1.0, c.real), c.real, math.copysign(1.0, c.imag), c.imag

    for q in range(101):
        assert bits(I_POWERS[q % 4]) == bits(1j ** q)


def test_phi_amplification_bound():
    # B from a 1-D maximization oracle; frozen closed forms 1/4, 2/(3 sqrt 3)
    assert amplification_max(2) == pytest.approx(0.25, abs=1e-9)
    assert amplification_max(3) == pytest.approx(2 / (3 * math.sqrt(3)), abs=1e-9)
    xi = np.linspace(-20, 20, 100001)
    for m in (2, 3):
        params = validate_params(m, 1, 1, 1.7)
        bound = amplification_max(m, eta=1.7)
        assert np.max(dissipation_symbol(xi, params).real) <= bound + 1e-12
    # for every other admissible n, Re phi <= 0
    for m, n in ((2, 2), (3, 3), (2, 4)):
        params = validate_params(m, n, 1, 1.0)
        assert np.max(dissipation_symbol(xi, params).real) <= 1e-14


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (3, 2), (2, 3), (3, 4)])
def test_phi_is_the_hilbert_derivative_operator(m, n):
    # phi(D) u = -eta (H d_x^n u + |D|^m u) with H = i sign(xi) and
    # |D| = -H d_x, composed from the reference transforms
    g = Grid(256, 2 * np.pi)
    rng = np.random.default_rng(10 * m + n)
    coeffs = np.zeros(g.N // 2 + 1, dtype=complex)
    coeffs[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    u = np.fft.irfft(coeffs, n=g.N)     # real and band-limited
    params = validate_params(m, n, 1, 0.7)
    phi = dissipation_symbol(g.dxi * np.arange(g.N // 2 + 1), params)
    got = from_half_spectrum(g, phi * half_spectrum(Field(g, u))).samples
    dn_u, abs_d_u = u, u
    for _ in range(n):
        dn_u = derivative(g, dn_u)
    for _ in range(m):
        abs_d_u = -hilbert(g, derivative(g, abs_d_u))
    want = -0.7 * (hilbert(g, dn_u) + abs_d_u)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# linear multiplier
# ---------------------------------------------------------------------------

def test_linear_multiplier_examples():
    sym, params = preset("ost")
    assert linear_multiplier(0.0, sym, params) == 0
    assert linear_multiplier(1.0, sym, params) == pytest.approx(1j)


def test_linear_multiplier_real_part_is_phi():
    sym = DispersionSymbol.bo()
    params = validate_params(2, 2, 1, 1.0)
    xi = np.linspace(-6, 6, 101)
    L = linear_multiplier(xi, sym, params)
    assert np.allclose(L.real, -np.abs(xi) ** 2, atol=1e-14)


@pytest.mark.parametrize("symname", ["kdv", "bo", "dgbo"])
def test_conjugate_symmetry_for_even_p(symname):
    sym = {"kdv": DispersionSymbol.kdv(), "bo": DispersionSymbol.bo(),
           "dgbo": DispersionSymbol.dgbo(0.4)}[symname]
    params = validate_params(3, 2, 1, 1.0)
    xi = np.linspace(0.01, 9.0, 57)
    assert np.allclose(linear_multiplier(-xi, sym, params),
                       np.conj(linear_multiplier(xi, sym, params)), atol=1e-13)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_builtin_symbols():
    xi = np.linspace(-3, 3, 31)
    assert np.allclose(DispersionSymbol.kdv()(xi), -np.abs(xi) ** 2)
    assert np.allclose(DispersionSymbol.bo()(xi), np.abs(xi))
    assert np.allclose(DispersionSymbol.dgbo(0.5)(xi), np.abs(xi) ** 1.5)
    for sym in (DispersionSymbol.kdv(), DispersionSymbol.bo(),
                DispersionSymbol.dgbo(0.25)):
        assert np.max(np.abs(np.imag(sym(xi)))) == 0


def test_custom_symbol_growth_check():
    sym = DispersionSymbol.dgbo(0.2)     # |xi|^1.2, C^1 at the origin
    c = fitted_growth_constant(sym, 1.2)
    assert c == pytest.approx(1.0, rel=1e-6)
    assert sym.supports_decay_order(2)
    assert not sym.supports_decay_order(3)


def test_dgbo_parameter_range():
    with pytest.raises(BadParameter):
        DispersionSymbol.dgbo(1.5)


# ---------------------------------------------------------------------------
# presets and config parsing
# ---------------------------------------------------------------------------

def test_presets_match_catalogue():
    cases = {
        "ost": ("kdv", 3, 1, 1),
        "bo_perturbed": ("bo", 3, 1, 1),
        "chen_lee": ("bo", 2, 1, 1),
        "dgbo_perturbed": ("dgbo", 3, 2, 1),
    }
    for name, (kind, m, n, k) in cases.items():
        sym, params = preset(name)
        assert (sym.kind, params.m, params.n, params.k) == (kind, m, n, k)
    for k in (2, 3):
        sym, params = preset("gost", k=k)
        assert (sym.kind, params.m, params.n, params.k) == ("kdv", 3, 1, k)
    with pytest.raises(BadParameter):
        preset("gost", k=4)
    with pytest.raises(UnknownPreset):
        preset("nosuch")


def test_model_from_config():
    sym, params = model_from_config(
        {"symbol": {"kind": "dgbo", "a": 0.5}, "m": 3, "n": 2, "k": 1, "eta": 2.0})
    assert sym.kind == "dgbo" and params.eta == 2.0 and params.alpha == pytest.approx(1 / 3)
    sym2, params2 = model_from_config({"preset": "chen_lee", "eta": 0.3})
    assert sym2.kind == "bo" and params2.m == 2 and params2.eta == 0.3
    # validate_params's refusal, which no schema states, is a ConfigInvalid too
    with pytest.raises(ConfigInvalid, match="5 \\+ 4d") as exc:
        model_from_config({"symbol": {"kind": "kdv"}, "m": 2, "n": 5, "k": 1,
                           "eta": 1.0})
    assert isinstance(exc.value.__cause__, InvalidN)


def test_model_from_config_reads_every_key_it_accepts():
    # gost reads k and dgbo_perturbed reads a; no other preset reads either
    assert model_from_config({"preset": "gost", "k": 3, "eta": 0.5})[1].k == 3
    assert model_from_config({"preset": "dgbo_perturbed", "a": 0.3})[0].a == 0.3
    for cfg in ({"preset": "ost", "k": 3}, {"preset": "chen_lee", "a": 0.3},
                {"preset": "gost", "a": 0.3}, {"preset": "dgbo_perturbed", "k": 2}):
        unread = "k" if "k" in cfg else "a"
        with pytest.raises(ConfigInvalid, match=f"Additional properties are not allowed "
                                                f"\\('{unread}' was unexpected\\)"):
            model_from_config(cfg)


def test_model_from_config_dgbo_needs_its_exponent():
    # no default: a preset's a = 0.5 would silently stand in for the missing one
    with pytest.raises(ConfigInvalid, match="\\$.symbol: 'a' is a required property"):
        model_from_config({"symbol": {"kind": "dgbo"}, "m": 3, "n": 2, "k": 1,
                           "eta": 1.0})


# ---------------------------------------------------------------------------
# the blocked half-spectrum multiplier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [7, 16, 4096])
@pytest.mark.parametrize("name", ["ost", "bo_perturbed", "dgbo_perturbed"])
def test_half_spectrum_multiplier_equals_one_evaluation(monkeypatch, name, block):
    monkeypatch.setattr(model_module, "MULTIPLIER_BLOCK", block)
    sym, params = preset(name)
    g = Grid(256, 20.0)     # 129 points: full blocks and a short last one
    expect = linear_multiplier(g.dxi * np.arange(g.N // 2 + 1), sym, params)
    assert np.array_equal(half_spectrum_multiplier(g, sym, params), expect)
