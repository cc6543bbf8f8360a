import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import convolve_reference, csv_reference, dealias
from stratwave import (EtdPropagator, Field, Grid, GridMismatch, SpectralField,
                       convolve, derivative, field_from_csv, field_to_csv,
                       hilbert, integral, preset, to_physical, to_spectral,
                       wrap_contamination)
from stratwave import spectral
from stratwave.errors import BadParameter
from stratwave.spectral import dealias_keep

_PRESETS = ["ost", "gost", "bo_perturbed", "chen_lee", "dgbo_perturbed"]


def random_field(grid, rng, real=True):
    vals = rng.standard_normal(grid.N)
    if not real:
        vals = vals + 1j * rng.standard_normal(grid.N)
    return Field(grid=grid, samples=vals)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_basics():
    g = Grid(64, 10.0)
    assert g.dx * g.N == pytest.approx(2 * g.L)
    assert g.dxi == pytest.approx(np.pi / g.L)
    assert g.x[0] == -10.0 and g.x[-1] == pytest.approx(10.0 - g.dx)
    assert g.resolves(0.9 * np.pi / g.dx)
    assert not g.resolves(np.pi / g.dx)


@pytest.mark.parametrize("N,L", [(16, 1.0), (64, 10.0), (4096, 37.3), (2 ** 16, 1e3 / 3)])
def test_grid_arrays_equal_direct_formulas(N, L):
    g = Grid(N, L)
    j = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
    assert np.array_equal(g.x, -g.L + g.dx * np.arange(N))
    assert np.array_equal(g.j, j) and g.j.dtype == np.int64
    assert np.array_equal(g.xi, g.dxi * j)
    assert np.array_equal(g._sign, np.where(j % 2 == 0, 1.0, -1.0))
    assert g.j is g.j and g.xi is g.xi and g._sign is g._sign   # cached


@pytest.mark.parametrize("N", [15, 17, 100, 8])
def test_grid_rejects_bad_sizes(N):
    with pytest.raises(BadParameter):
        Grid(N, 10.0)


def test_field_dtype_follows_its_data():
    g = Grid(16, 1.0)
    for data in (np.ones(16), np.arange(16), np.ones(16, dtype=np.float32),
                 [0.5] * 16, np.full(16, True)):
        assert Field(g, data).samples.dtype == np.float64
    for data in (np.ones(16) + 0j, np.ones(16, dtype=np.complex64), [1 + 0j] * 16):
        assert Field(g, data).samples.dtype == np.complex128
    assert np.array_equal(Field(g, np.arange(16)).samples, np.arange(16.0))
    real = Field(g, np.linspace(-1.0, 1.0, 16))
    assert spectral.real_samples(real) is real.samples


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [16, 256, 4096, 2 ** 16, 2 ** 20])
def test_round_trip(N):
    rng = np.random.default_rng(7)
    g = Grid(N, 37.0)
    f = random_field(g, rng, real=False)
    back = to_physical(to_spectral(f))
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * scale


def test_parseval():
    rng = np.random.default_rng(3)
    g = Grid(1024, 21.0)
    f = random_field(g, rng)
    F = to_spectral(f)
    phys = np.sum(np.abs(f.samples) ** 2) * g.dx
    spec = np.sum(np.abs(F.coefficients) ** 2) * g.dxi / (2 * np.pi)
    assert spec == pytest.approx(phys, rel=1e-13)


def test_constant_concentrates_at_zero():
    g = Grid(128, 5.0)
    F = to_spectral(Field(g, np.ones(g.N)))
    nonzero = np.abs(F.coefficients) > 1e-10
    assert nonzero.sum() == 1 and nonzero[g.j == 0][0]
    # the xi=0 coefficient is the discrete integral: 2L
    assert F.coefficients[g.j == 0][0].real == pytest.approx(2 * g.L)


def test_cosine_two_symmetric_modes():
    g = Grid(128, 5.0)
    f = Field(g, np.cos(g.dxi * g.x))
    F = to_spectral(f)
    large = np.abs(F.coefficients) > 1e-9 * np.max(np.abs(F.coefficients))
    assert sorted(g.j[large].tolist()) == [-1, 1]


def test_integral_equals_zero_mode():
    rng = np.random.default_rng(11)
    g = Grid(256, 8.0)
    f = random_field(g, rng)
    F = to_spectral(f)
    assert integral(f) == pytest.approx(float(F.coefficients[g.j == 0][0].real),
                                        rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -1.0])
def test_grid_rejects_bad_box_sizes(L):
    with pytest.raises(BadParameter, match="positive and finite"):
        Grid(64, L)


def test_grid_mismatch_detected():
    rng = np.random.default_rng(0)
    f = random_field(Grid(64, 10.0), rng)
    h = random_field(Grid(64, 11.0), rng)
    with pytest.raises(GridMismatch):
        convolve(f, h)


@pytest.mark.parametrize("N,L", [(16, 1.0), (256, 8.0), (4096, 100.0)])
def test_convolve_matches_complex_reference(N, L):
    rng = np.random.default_rng(N)
    g = Grid(N, L)
    f, h = random_field(g, rng), random_field(g, rng)
    got = convolve(f, h).samples
    ref = convolve_reference(f, h).samples
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(got.imag == 0.0)


def test_convolve_rejects_complex_data():
    rng = np.random.default_rng(5)
    g = Grid(64, 10.0)
    f, h = random_field(g, rng), random_field(g, rng, real=False)
    with pytest.raises(BadParameter, match="real data"):
        convolve(f, h)
    with pytest.raises(BadParameter, match="real data"):
        convolve(h, f)


# ---------------------------------------------------------------------------
# derivative and Hilbert transform
# ---------------------------------------------------------------------------

def test_derivative_trig():
    g = Grid(256, 12.0)
    om = 3 * np.pi / g.L
    f = Field(g, np.sin(om * g.x))
    df = derivative(f)
    assert np.max(np.abs(df.samples.real - om * np.cos(om * g.x))) <= 1e-10
    const = derivative(Field(g, np.full(g.N, 2.7)))
    assert np.max(np.abs(const.samples)) <= 1e-12


def test_derivative_eigenfunction():
    g = Grid(128, 6.0)
    om = 5 * g.dxi
    f = Field(g, np.exp(1j * om * g.x))
    df = derivative(f)
    assert np.allclose(df.samples, 1j * om * f.samples, atol=1e-10)


def test_hilbert_on_cosine_and_constant():
    g = Grid(256, 10.0)
    om = 4 * g.dxi
    Hc = hilbert(Field(g, np.cos(om * g.x)))
    # i sign(xi) convention: H cos = -sin
    assert np.max(np.abs(Hc.samples.real - (-np.sin(om * g.x)))) <= 1e-10
    Hconst = hilbert(Field(g, np.ones(g.N)))
    assert np.max(np.abs(Hconst.samples)) <= 1e-13


def test_hilbert_involution_on_mean_zero():
    rng = np.random.default_rng(5)
    g = Grid(512, 9.0)
    f = random_field(g, rng)
    F = to_spectral(f)
    coeffs = F.coefficients.copy()
    coeffs[g.j == 0] = 0.0
    f0 = to_physical(SpectralField(g, coeffs))
    hh = hilbert(hilbert(f0))
    assert np.max(np.abs(hh.samples + f0.samples)) <= 1e-10 * np.max(np.abs(f0.samples))


def test_hilbert_commutes_with_derivative():
    rng = np.random.default_rng(9)
    g = Grid(512, 9.0)
    f = random_field(g, rng)
    f = to_physical(dealias(to_spectral(f), 1))  # band-limit first
    a = hilbert(derivative(f))
    b = derivative(hilbert(f))
    assert np.max(np.abs(a.samples - b.samples)) <= 1e-10 * np.max(np.abs(a.samples))


# ---------------------------------------------------------------------------
# dealiasing
# ---------------------------------------------------------------------------

def test_dealias_rule_arithmetic():
    g16 = Grid(16, 1.0)
    F = SpectralField(g16, np.ones(16))
    D = dealias(F, 1)
    kept = g16.j[np.abs(D.coefficients) > 0]
    assert np.max(np.abs(kept)) == 5          # zero |j| > 16/3
    g32 = Grid(32, 1.0)
    D2 = dealias(SpectralField(g32, np.ones(32)), 3)
    kept2 = g32.j[np.abs(D2.coefficients) > 0]
    assert np.max(np.abs(kept2)) == 6         # zero |j| > 32/5


def test_dealias_idempotent_projection():
    rng = np.random.default_rng(2)
    g = Grid(128, 4.0)
    F = to_spectral(random_field(g, rng))
    once = dealias(F, 2)
    twice = dealias(once, 2)
    assert np.array_equal(once.coefficients, twice.coefficients)
    assert np.linalg.norm(once.coefficients) <= np.linalg.norm(F.coefficients)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 256, 4096]), k=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dealias_keep_mask_idempotent(N, k, seed):
    g = Grid(N, 10.0)
    F = to_spectral(random_field(g, np.random.default_rng(seed)))
    once = dealias(F, k)
    assert np.array_equal(dealias(once, k).coefficients, once.coefficients)
    keep = dealias_keep(g.j, N, k)
    assert np.array_equal(np.flatnonzero(once.coefficients != 0),
                          np.flatnonzero(keep & (F.coefficients != 0)))
    # the mask is even in j, so it maps real fields to real fields
    assert np.array_equal(keep, dealias_keep(-g.j, N, k))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_PRESETS), N=st.sampled_from([16, 64, 256, 4096]),
       L=st.floats(2.0, 100.0), seed=st.integers(0, 2 ** 32 - 1))
def test_half_spectrum_round_trip_band_limited(name, N, L, seed):
    # physical(forward(u)) = u for a real u inside the dealias band
    sym, params = preset(name)
    g = Grid(N, L)
    prop = EtdPropagator(g, sym, params, 1e-3)
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(N // 2 + 1)
              + 1j * rng.standard_normal(N // 2 + 1)) * dealias_keep(
                  np.arange(N // 2 + 1), N, params.k)
    coeffs[0] = coeffs[0].real
    u = Field(g, np.fft.irfft(coeffs, n=N))
    uhat = prop.forward(u)
    back = prop.physical(uhat)
    assert np.max(np.abs(back.samples - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))
    # and the mask applied twice through the transform changes nothing more
    assert np.max(np.abs(prop.forward(back) - uhat)) <= 1e-12 * np.max(np.abs(uhat))


# ---------------------------------------------------------------------------
# field container and serialization
# ---------------------------------------------------------------------------

def test_real_hint_enforced():
    # the real-field entry points reject a significant imaginary part
    g = Grid(64, 2.0)
    sym, params = preset("ost")
    for entry in (EtdPropagator(g, sym, params, 1e-3).forward, spectral.half_spectrum):
        with pytest.raises(BadParameter, match="real data"):
            entry(Field(g, np.full(g.N, 1.0 + 1e-3j)))
        entry(Field(g, np.full(g.N, 1.0 + 1e-14j)))  # fine


def test_real_hint_not_switched_off_by_nan():
    # a nan sample once made the scale nan, and every comparison with it
    # False: the 5j below passed as real data
    g = Grid(16, 1.0)
    sym, params = preset("ost")
    for entry in (EtdPropagator(g, sym, params, 1e-3).forward, spectral.half_spectrum):
        for bad in ({0: np.nan, 3: 5j}, {0: complex(1.0, np.nan)},
                    {0: complex(1.0, np.inf)}):
            s = np.ones(g.N, dtype=complex)
            for i, v in bad.items():
                s[i] = v
            with pytest.raises(BadParameter, match="real data"):
                entry(Field(g, s))
        s = np.ones(g.N, dtype=complex)
        s[0] = np.nan                       # a real nan is real data
        assert np.isnan(entry(Field(g, s))).all()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = Grid(128, 6.0)
    f = random_field(g, rng, real=False)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    back = field_from_csv(path)
    assert back.grid == g
    assert np.max(np.abs(back.samples - f.samples)) == 0.0
    assert field_from_csv(path, g).grid is g
    with pytest.raises(GridMismatch, match="128 rows"):
        field_from_csv(path, Grid(256, 6.0))
    with pytest.raises(GridMismatch, match="x column"):
        field_from_csv(path, Grid(128, 6.5))


def test_csv_float64_field_has_literal_zero_im_and_reads_back_float64(tmp_path):
    rng = np.random.default_rng(7)
    g = Grid(64, 3.0)
    samples = rng.standard_normal(g.N)
    samples[[1, 2, 3, 4]] = [-0.0, np.nan, np.inf, 5e-324]
    path = tmp_path / "f.csv"
    field_to_csv(Field(g, samples), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im" and all(line.endswith(",0") for line in lines[1:])
    back = field_from_csv(path)
    assert back.samples.dtype == np.float64
    assert np.array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


@pytest.mark.parametrize("im", [-0.0, 1e-300, np.nan, -np.inf])
def test_csv_nonzero_im_reads_back_complex(tmp_path, im):
    # one im value that is not +0.0 keeps the field complex, bit for bit
    g = Grid(16, 1.0)
    samples = np.linspace(-1.0, 1.0, g.N) + 0j
    samples[5] = complex(samples[5].real, im)
    path = tmp_path / "f.csv"
    field_to_csv(Field(g, samples), path)
    back = field_from_csv(path)
    assert back.samples.dtype == np.complex128
    assert np.array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


_CSV_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, np.nan, np.inf, -np.inf]


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 512, 1024, 2048]),
       block_offset=st.sampled_from([None, -1, 0, 1]),
       L=st.floats(0.1, 1e4), real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.sampled_from(_CSV_SPECIALS) | st.floats(), max_size=24),
       im=st.sampled_from([None, "float64", 0.0, -0.0, np.nan]))
def test_csv_bytes_match_per_row_reference(N, block_offset, L, real, seed, values, im):
    """The block writer's bytes equal the per-row writer's for every field.

    block_offset None keeps CSV_BLOCK_ROWS (N = 16..512 below it, 1024 at it,
    2048 two blocks); -1/0/+1 set the block to N-1, N, N+1 rows, so the last
    block holds 1 row, exactly fills, or is one row short.  im other than
    None sets the im column to all +0.0 (written as the literal 0), then one
    value to im: +0.0 again, or -0.0 or nan, which make the column formatted;
    "float64" makes a float64 field of the real parts (no im array at all).
    """
    rng = np.random.default_rng(seed)
    g = Grid(N, L)
    samples = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    if not real:
        samples = samples + 1j * rng.standard_normal(N)
    samples = samples.astype(complex)
    for v in values:  # specials and arbitrary floats at random re/im positions
        i = rng.integers(N)
        if real or rng.random() < 0.5:
            samples[i] = complex(v, samples[i].imag)
        else:
            samples[i] = complex(samples[i].real, v)
    if im is not None:
        samples.imag = 0.0
        if im != "float64":
            i = rng.integers(N)
            samples[i] = complex(samples[i].real, im)
    f = Field(g, samples.real if im == "float64" else samples)
    block = spectral.CSV_BLOCK_ROWS if block_offset is None else N + block_offset
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(spectral, "CSV_BLOCK_ROWS", block):
        got, ref = Path(tmp, "got.csv"), Path(tmp, "ref.csv")
        field_to_csv(f, got)
        csv_reference(f, ref)
        assert got.read_bytes() == ref.read_bytes()


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 1024, 2048]), L=st.floats(0.1, 1e4),
       seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.sampled_from(_CSV_SPECIALS) | st.floats(allow_nan=False),
                       max_size=24))
def test_csv_read_back_is_bitwise(N, L, seed, values):
    """field_from_csv(field_to_csv(f)) has f's bits in re and im, including
    nan, +-inf, -0.0 and subnormals in either part (nan as the '%g' text
    can carry it: the quiet positive nan)."""
    rng = np.random.default_rng(seed)
    samples = (rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
               + 1j * rng.standard_normal(N))
    parts = samples.view(np.float64)        # re, im interleaved
    parts[rng.integers(2 * N, size=len(values))] = values
    f = Field(Grid(N, L), samples)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.csv")
        field_to_csv(f, path)
        back = field_from_csv(path)
    assert back.grid == f.grid
    assert np.array_equal(back.samples.view(np.uint64), f.samples.view(np.uint64))


def test_wrap_contamination_estimate():
    g = Grid(2 ** 16, 400.0)
    # 1/x^2 tail measured at x=200 with L=400: images at 600 and 1000
    est = wrap_contamination(g, 200.0, 2.0)
    assert est == pytest.approx((200 / 600) ** 2 + (200 / 1000) ** 2, rel=1e-12)
    assert wrap_contamination(Grid(2 ** 16, 3200.0), 200.0, 2.0) < 2.2e-3
