import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (convolve_reference, csv_read_reference, csv_reference, dealias,
                     dealias_mask, derivative, fft_j, fft_xi, hilbert, to_physical)
from stratwave import (EtdPropagator, Field, Grid, GridMismatch, convolve,
                       field_from_csv, field_to_csv, integral, preset,
                       wrap_contamination)
from stratwave import spectral
from stratwave.errors import BadParameter
from stratwave.solver import _kept_modes
from stratwave.spectral import from_half_spectrum, to_spectral

_PRESETS = ["ost", "gost", "bo_perturbed", "chen_lee", "dgbo_perturbed"]


def random_field(grid, rng):
    return Field(grid=grid, samples=rng.standard_normal(grid.N))


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
    assert np.array_equal(g.x, -g.L + g.dx * np.arange(N))
    assert g.__slots__ == ("N", "L", "dx", "dxi", "x")     # x is the one array
    # the oracles' FFT-order wavenumbers
    j = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
    assert np.array_equal(fft_j(g), j) and fft_j(g).dtype == np.int64
    assert np.array_equal(fft_xi(g), g.dxi * j)


@pytest.mark.parametrize("N", [15, 17, 100, 8, 1024.0, True, "1024"])
def test_grid_rejects_bad_sizes(N):
    with pytest.raises(BadParameter):
        Grid(N, 10.0)


def test_field_dtype_follows_its_data():
    # real data of any dtype, and complex data with a zero imaginary part,
    # are stored as float64
    g = Grid(16, 1.0)
    for data in (np.ones(16), np.arange(16), np.ones(16, dtype=np.float32),
                 [0.5] * 16, np.full(16, True), np.ones(16) + 0j,
                 np.ones(16, dtype=np.complex64), [1 + 0j] * 16):
        assert Field(g, data).samples.dtype == np.float64
    assert np.array_equal(Field(g, np.arange(16)).samples, np.arange(16.0))
    assert np.array_equal(Field(g, np.arange(16) - 0j).samples, np.arange(16.0))
    with pytest.raises(BadParameter, match="grid size"):
        Field(g, np.ones(17) + 0j)


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [16, 256, 4096, 2 ** 16, 2 ** 20])
def test_round_trip(N):
    rng = np.random.default_rng(7)
    g = Grid(N, 37.0)
    f = random_field(g, rng)
    back = to_physical(g, to_spectral(f))
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(back - f.samples)) <= 1e-12 * scale
    full = to_spectral(f)
    half = spectral.half_spectrum(f)
    assert np.max(np.abs(half - full[:N // 2 + 1])) <= 1e-12 * np.max(np.abs(full))


def test_parseval():
    rng = np.random.default_rng(3)
    g = Grid(1024, 21.0)
    f = random_field(g, rng)
    F = to_spectral(f)
    phys = np.sum(np.abs(f.samples) ** 2) * g.dx
    spec = np.sum(np.abs(F) ** 2) * g.dxi / (2 * np.pi)
    assert spec == pytest.approx(phys, rel=1e-13)


def test_constant_concentrates_at_zero():
    g = Grid(128, 5.0)
    F = to_spectral(Field(g, np.ones(g.N)))
    nonzero = np.abs(F) > 1e-10
    assert nonzero.sum() == 1 and nonzero[fft_j(g) == 0][0]
    # the xi=0 coefficient is the discrete integral: 2L
    assert F[fft_j(g) == 0][0].real == pytest.approx(2 * g.L)


def test_cosine_two_symmetric_modes():
    g = Grid(128, 5.0)
    f = Field(g, np.cos(g.dxi * g.x))
    F = to_spectral(f)
    large = np.abs(F) > 1e-9 * np.max(np.abs(F))
    assert sorted(fft_j(g)[large].tolist()) == [-1, 1]


def test_integral_equals_zero_mode():
    rng = np.random.default_rng(11)
    g = Grid(256, 8.0)
    f = random_field(g, rng)
    F = to_spectral(f)
    assert integral(f) == pytest.approx(float(F[fft_j(g) == 0][0].real),
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
    ref = convolve_reference(f, h)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert got.dtype == np.float64


def test_convolve_rejects_complex_data():
    # complex data cannot reach convolve: no Field holds it
    rng = np.random.default_rng(5)
    g = Grid(64, 10.0)
    vals = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    with pytest.raises(BadParameter, match="real data"):
        convolve(random_field(g, rng), Field(g, vals))


# ---------------------------------------------------------------------------
# derivative and Hilbert transform: the reference transforms of tests/oracles
# ---------------------------------------------------------------------------

def test_derivative_trig():
    g = Grid(256, 12.0)
    om = 3 * np.pi / g.L
    df = derivative(g, np.sin(om * g.x))
    assert np.max(np.abs(df.real - om * np.cos(om * g.x))) <= 1e-10
    const = derivative(g, np.full(g.N, 2.7))
    assert np.max(np.abs(const)) <= 1e-12


def test_derivative_eigenfunction():
    g = Grid(128, 6.0)
    om = 5 * g.dxi
    f = np.exp(1j * om * g.x)
    assert np.allclose(derivative(g, f), 1j * om * f, atol=1e-10)


def test_hilbert_on_cosine_and_constant():
    g = Grid(256, 10.0)
    om = 4 * g.dxi
    Hc = hilbert(g, np.cos(om * g.x))
    # i sign(xi) convention: H cos = -sin
    assert np.max(np.abs(Hc.real - (-np.sin(om * g.x)))) <= 1e-10
    Hconst = hilbert(g, np.ones(g.N))
    assert np.max(np.abs(Hconst)) <= 1e-13


def test_hilbert_involution_on_mean_zero():
    rng = np.random.default_rng(5)
    g = Grid(512, 9.0)
    coeffs = to_spectral(random_field(g, rng))
    coeffs[fft_j(g) == 0] = 0.0
    f0 = to_physical(g, coeffs)
    hh = hilbert(g, hilbert(g, f0))
    assert np.max(np.abs(hh + f0)) <= 1e-10 * np.max(np.abs(f0))


def test_hilbert_commutes_with_derivative():
    rng = np.random.default_rng(9)
    g = Grid(512, 9.0)
    f = to_physical(g, dealias(g, to_spectral(random_field(g, rng)), 1))  # band-limit first
    a = hilbert(g, derivative(g, f))
    b = derivative(g, hilbert(g, f))
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# dealiasing
# ---------------------------------------------------------------------------

def test_dealias_rule_arithmetic():
    g16 = Grid(16, 1.0)
    D = dealias(g16, np.ones(16), 1)
    kept = fft_j(g16)[np.abs(D) > 0]
    assert np.max(np.abs(kept)) == 5          # zero |j| > 16/3
    g32 = Grid(32, 1.0)
    D2 = dealias(g32, np.ones(32), 3)
    kept2 = fft_j(g32)[np.abs(D2) > 0]
    assert np.max(np.abs(kept2)) == 6         # zero |j| > 32/5


def test_dealias_idempotent_projection():
    rng = np.random.default_rng(2)
    g = Grid(128, 4.0)
    F = to_spectral(random_field(g, rng))
    once = dealias(g, F, 2)
    twice = dealias(g, once, 2)
    assert np.array_equal(once, twice)
    assert np.linalg.norm(once) <= np.linalg.norm(F)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 256, 4096]), k=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dealias_keep_mask_idempotent(N, k, seed):
    g = Grid(N, 10.0)
    F = to_spectral(random_field(g, np.random.default_rng(seed)))
    once = dealias(g, F, k)
    assert np.array_equal(dealias(g, once, k), once)
    j = fft_j(g)
    keep = dealias_mask(j, N, k)
    assert np.array_equal(np.flatnonzero(once != 0),
                          np.flatnonzero(keep & (F != 0)))
    # the mask is even in j, so it maps real fields to real fields
    assert np.array_equal(keep, dealias_mask(-j, N, k))


def test_kept_modes_count_the_dealias_mask():
    # the integer N // (k+2) + 1 against the float rule |j| <= N/(k+2) on
    # j = 0..N/2: counted on the array up to 2^16, at its edge beyond
    for N in (2 ** q for q in range(4, 27)):
        for k in range(1, 40):
            kept = _kept_modes(N, k)
            if N <= 2 ** 16:
                assert kept == np.count_nonzero(dealias_mask(np.arange(N // 2 + 1), N, k))
            assert dealias_mask(kept - 1, N, k) and not dealias_mask(kept, N, k)


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
              + 1j * rng.standard_normal(N // 2 + 1)) * dealias_mask(
                  np.arange(N // 2 + 1), N, params.k)
    coeffs[0] = coeffs[0].real
    u = Field(g, np.fft.irfft(coeffs, n=N))
    uhat = prop.forward(u)
    back = prop.physical(uhat)
    assert np.max(np.abs(back.samples - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))
    # and the mask applied twice through the transform changes nothing more
    assert np.max(np.abs(prop.forward(back) - uhat)) <= 1e-12 * np.max(np.abs(uhat))


def _same_bits(a, b):
    """Equal bits, except that any nan matches any nan."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


_PHASE_SPECIALS = [0.0, -0.0, 5e-324, -1e308, np.inf, -np.inf, np.nan]


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 1024]), L=st.floats(0.5, 100.0),
       seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.tuples(st.sampled_from(_PHASE_SPECIALS),
                                   st.sampled_from(_PHASE_SPECIALS)), max_size=6))
def test_from_half_spectrum_phases_in_place_like_a_sign_array(N, L, seed, specials):
    """The in-place (-1)^j phase leaves in its argument the bits of the
    product with a float (-1)^j array that it replaced (signed zeros, inf
    and nan too), so the samples have that product's bits."""
    rng = np.random.default_rng(seed)
    g = Grid(N, L)
    coeffs = rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1)
    coeffs[rng.integers(N // 2 + 1, size=len(specials))] = [complex(*c) for c in specials]
    with np.errstate(all="ignore"):
        signed = coeffs * np.where(np.arange(N // 2 + 1) % 2, -1.0, 1.0)
        ref = np.fft.irfft(signed, n=N)
        ref /= g.dx
        got = from_half_spectrum(g, coeffs).samples
    assert _same_bits(coeffs.view(np.float64), signed.view(np.float64))
    assert _same_bits(got, ref)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 1024, 2 ** 18]), L=st.floats(0.5, 100.0),
       seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.sampled_from(_PHASE_SPECIALS), max_size=6))
def test_half_spectrum_scales_in_place_like_a_sign_array(N, L, seed, specials):
    """The in-place dx (-1)^j scale gives the bits of the product with a
    dx-scaled float (-1)^j array that it replaced, for samples with signed
    zeros, inf and nan too."""
    rng = np.random.default_rng(seed)
    g = Grid(N, L)
    samples = rng.standard_normal(N)
    samples[rng.integers(N, size=len(specials))] = specials
    with np.errstate(all="ignore"):
        sign = np.where(np.arange(N // 2 + 1) % 2, -1.0, 1.0)
        ref = g.dx * sign * np.fft.rfft(samples)
        got = spectral.half_spectrum(Field(g, samples))
    assert _same_bits(got.view(np.float64), ref.view(np.float64))


# ---------------------------------------------------------------------------
# field container and serialization
# ---------------------------------------------------------------------------

def test_real_hint_enforced():
    # Field rejects any nonzero imaginary part, however tiny, and drops a
    # zero one of either sign, so the real-field entry points only ever see
    # float64 samples
    g = Grid(64, 2.0)
    for im in (1e-3, 1e-14, 1e-300, -5e-324):
        with pytest.raises(BadParameter, match="real data"):
            Field(g, np.full(g.N, complex(1.0, im)))
    f = Field(g, np.full(g.N, complex(1.0, -0.0)))
    assert f.samples.dtype == np.float64 and np.all(f.samples == 1.0)
    sym, params = preset("ost")
    for entry in (EtdPropagator(g, sym, params, 1e-3).forward, spectral.half_spectrum):
        assert entry(f)[0] == pytest.approx(entry(Field(g, np.ones(g.N)))[0])


def test_real_hint_not_switched_off_by_nan():
    # a nan sample once made the scale nan, and every comparison with it
    # False: the 5j below passed as real data
    g = Grid(16, 1.0)
    for bad in ({0: np.nan, 3: 5j}, {0: complex(1.0, np.nan)},
                {0: complex(1.0, np.inf)}):
        s = np.ones(g.N, dtype=complex)
        for i, v in bad.items():
            s[i] = v
        with pytest.raises(BadParameter, match="real data"):
            Field(g, s)
    s = np.ones(g.N, dtype=complex)
    s[0] = np.nan                       # a real nan is real data
    f = Field(g, s)
    assert f.samples.dtype == np.float64 and np.isnan(f.samples[0])
    sym, params = preset("ost")
    for entry in (EtdPropagator(g, sym, params, 1e-3).forward, spectral.half_spectrum):
        assert np.isnan(entry(f)).all()


def _im_case(N, seed, exponent, kind, nan_re):
    """re (float64, scaled by 10^exponent) and an im column for the realness
    rule; kind picks im: "zero" (+0.0 with some -0.0), "tiny" (noise of at
    most 1e-10 max|re| and one value of 1e-300), "big" (one value above
    that) or "nan"/"inf"/"-inf" (one non-finite value).  Only "zero" is real
    data.  Returns (re, im, accepted)."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(N) * 10.0 ** exponent
    if nan_re:
        re[rng.integers(N)] = np.nan
    top = float(np.nanmax(np.abs(re)))
    im = np.zeros(N)
    i = rng.integers(N)
    if kind == "zero":
        im[rng.integers(N, size=3)] = -0.0
    elif kind == "tiny":
        im = rng.uniform(-1.0, 1.0, N) * 1e-10 * top
        im[i] = 1e-300
    elif kind == "big":
        im[i] = 10.0 ** rng.uniform(-9.5, 1.0) * top
    else:
        im[i] = float(kind)
    return re, im, kind == "zero"


_IM_CASES = dict(N=st.sampled_from([16, 64, 1024]), seed=st.integers(0, 2 ** 32 - 1),
                 exponent=st.integers(-300, 300), nan_re=st.booleans(),
                 kind=st.sampled_from(["zero", "tiny", "big", "nan", "inf", "-inf"]))


@settings(max_examples=80, deadline=None)
@given(**_IM_CASES)
@example(N=16, seed=0, exponent=0, kind="tiny", nan_re=False)
def test_field_realness_rule(N, seed, exponent, kind, nan_re):
    """Complex samples give a float64 Field with re's bits when every im is
    0 (of either sign); anything else raises BadParameter."""
    re, im, accepted = _im_case(N, seed, exponent, kind, nan_re)
    samples = np.empty(N, dtype=complex)
    samples.real, samples.imag = re, im
    g = Grid(N, 1.0)
    if accepted:
        f = Field(g, samples)
        assert f.samples.dtype == np.float64
        assert np.array_equal(f.samples.view(np.uint64), re.view(np.uint64))
    else:
        with pytest.raises(BadParameter, match="real data"):
            Field(g, samples)


@settings(max_examples=80, deadline=None)
@given(L=st.floats(0.1, 1e4), **_IM_CASES)
@example(N=16, L=1.0, seed=0, exponent=0, kind="tiny", nan_re=False)
def test_csv_im_realness_rule(N, L, seed, exponent, kind, nan_re):
    """field_from_csv applies Field's rule to the im column: float64 with re's
    bits, or BadParameter naming the file."""
    re, im, accepted = _im_case(N, seed, exponent, kind, nan_re)
    g = Grid(N, L)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.csv")
        path.write_text("x,re,im\n" + "".join(
            "%.17g,%.17g,%.17g\n" % row for row in zip(g.x, re, im)))
        if accepted:
            back = field_from_csv(path)
            assert back.grid == g and back.samples.dtype == np.float64
            assert np.array_equal(back.samples.view(np.uint64), re.view(np.uint64))
        else:
            with pytest.raises(BadParameter, match="f.csv: expected real data"):
                field_from_csv(path)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = Grid(128, 6.0)
    f = random_field(g, rng)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    back = field_from_csv(path)
    assert back.grid == g
    assert np.max(np.abs(back.samples - f.samples)) == 0.0


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


@pytest.mark.parametrize("im", [-0.0, 1e-17, 1e-300, np.nan, -np.inf])
def test_csv_nonzero_im_is_dropped_or_rejected(tmp_path, im):
    # one im value that is not +0.0: -0.0 is dropped, keeping re's bits in a
    # float64 field; a tiny, nan or inf one raises
    g = Grid(16, 1.0)
    re = np.linspace(-1.0, 1.0, g.N)
    path = tmp_path / "f.csv"
    field_to_csv(Field(g, re), path)
    lines = path.read_text().splitlines()
    lines[6] = lines[6][:-1] + "%.17g" % im     # row 5's literal 0
    path.write_text("\n".join(lines) + "\n")
    if im == 0:
        back = field_from_csv(path)
        assert back.samples.dtype == np.float64
        assert np.array_equal(back.samples.view(np.uint64), re.view(np.uint64))
    else:
        with pytest.raises(BadParameter, match="f.csv: expected real data"):
            field_from_csv(path)


_CSV_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, np.nan, np.inf, -np.inf]


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([16, 64, 512, 1024, 2048]),
       block_offset=st.sampled_from([None, -1, 0, 1]),
       L=st.floats(0.1, 1e4), seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.sampled_from(_CSV_SPECIALS) | st.floats(), max_size=24))
def test_csv_bytes_match_per_row_reference(N, block_offset, L, seed, values):
    """The block writer's bytes equal the per-row writer's for every field.

    block_offset None keeps CSV_BLOCK_ROWS (N = 16..512 below it, 1024 at it,
    2048 two blocks); -1/0/+1 set the block to N-1, N, N+1 rows, so the last
    block holds 1 row, exactly fills, or is one row short.  The im column is
    the literal 0, which the per-row writer's '%.17g' of +0.0 also gives.
    """
    rng = np.random.default_rng(seed)
    g = Grid(N, L)
    samples = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    samples[rng.integers(N, size=len(values))] = values  # specials, arbitrary floats
    f = Field(g, samples)
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
    """field_from_csv(field_to_csv(f)) has f's bits, including nan, +-inf,
    -0.0 and subnormals (nan as the '%g' text can carry it: the quiet
    positive nan)."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    samples[rng.integers(N, size=len(values))] = values
    f = Field(Grid(N, L), samples)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f.csv")
        field_to_csv(f, path)
        back = field_from_csv(path)
    assert back.grid == f.grid
    assert np.array_equal(back.samples.view(np.uint64), f.samples.view(np.uint64))


def _read_outcome(read, path):
    """What read(path) gives: the grid and the samples' dtype and bits, or
    the exception type and its message up to any numpy parser detail."""
    try:
        f = read(path)
    except (BadParameter, GridMismatch) as exc:
        return type(exc), str(exc).split(" CSV: ")[0]
    return f.grid, f.samples.dtype, f.samples.tobytes()


_CSV_FAULTS = ["truncate", "extra", "wrong_L", "spacing", "im", "cell", "ragged",
               "columns", "space", "blank"]


def _faulty_csv(N, L, seed, faults, newline):
    """A field_to_csv file of N rows on Grid(N, L), with the given faults
    (any of _CSV_FAULTS, each at a random row) and line ending ("mixed": a
    random one per line)."""
    rng = np.random.default_rng(seed)
    x = Grid(N, L).x
    if "spacing" in faults:
        x = Grid(2 * N, L).x[:N]
    if "wrong_L" in faults:
        x = Grid(N, L * (1.0 + 10.0 ** rng.uniform(-12.5, -2))).x
    rows = [["%.17g" % v for v in (xv, re)] + ["0"]
            for xv, re in zip(x, rng.standard_normal(N))]
    i = int(rng.integers(N))
    if "im" in faults:
        rows[i][2] = "%.17g" % rng.choice([-0.0, 1e-300, np.nan, np.inf, -np.inf])
    if "cell" in faults:
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        rows[i][rng.integers(3)] = str(rng.choice(["abc", "", "1_0", "0x10", "--1",
                                                   "\udcff"]))
    if "ragged" in faults:
        rows[i] = rows[i][:2] if rng.integers(2) else rows[i] + ["0"]
    if "columns" in faults:
        rows = [row[:2] if i % 2 else row + ["0"] for row in rows]
    if "space" in faults:
        rows[i] = [" "]
    if "truncate" in faults:
        rows.pop()
    if "extra" in faults:
        rows.append(["%.17g" % L, "1", "0"])
    lines = [",".join(row) for row in rows]
    if "blank" in faults:
        for k in sorted(rng.integers(len(lines) + 1, size=4), reverse=True):
            lines.insert(k, "")
    if newline == "mixed":
        ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines) + 1)
        return "".join(a + b for a, b in zip(["x,re,im"] + lines, ends))
    return newline.join(["x,re,im"] + lines) + newline * int(rng.integers(2))


@settings(max_examples=150, deadline=None)
@given(N=st.sampled_from([16, 32, 64]), L=st.floats(0.1, 1e4),
       seed=st.integers(0, 2 ** 32 - 1),
       faults=st.lists(st.sampled_from(_CSV_FAULTS), max_size=2, unique=True),
       newline=st.sampled_from(["\n", "\r\n", "\r", "mixed"]),
       block=st.sampled_from([None, -1, 0, 1, 7]))
@example(N=16, L=1.0, seed=0, faults=[], newline="\n", block=None)
def test_csv_block_reader_matches_whole_table_reference(N, L, seed, faults, newline,
                                                        block):
    """field_from_csv gives the whole-table reader's bits, or its exception
    type and message, on valid files and on files with a row missing or
    extra, a wrong L or spacing, an im of -0.0, 1e-300, nan or +-inf, a bad
    cell or byte, a ragged row, 2 or 4 columns throughout, a
    whitespace-only line, blank lines, and LF, CRLF, CR or mixed line
    endings.

    block -1/0/+1 sets CSV_BLOCK_ROWS to N-1, N or N+1 (so the N rows are
    one block plus one row, exactly one block, or one row short of it), 7
    splits them into many blocks, None keeps the default.
    """
    text = _faulty_csv(N, L, seed, faults, newline)
    size = spectral.CSV_BLOCK_ROWS if block is None else (7 if block == 7 else N + block)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(spectral, "CSV_BLOCK_ROWS", size):
        path = Path(tmp, "f.csv")
        path.write_bytes(text.encode(errors="surrogateescape"))
        expected = _read_outcome(csv_read_reference, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_outcome(field_from_csv, path) == expected


@pytest.mark.parametrize("text", ["", "x,re,im\n", "x,re,im\n\n\n", "x,re,im\n-1,0,0\n",
                                  "x,re,im\n-1,0,0", "x,re,im\n-1,0\n0,0\n"])
@pytest.mark.parametrize("crlf", [False, True])
def test_csv_block_reader_matches_reference_on_short_files(tmp_path, text, crlf):
    # no row, or one: BadParameter "expected 3 columns", as from the
    # whole-table reader, whose loadtxt warns about an empty file; with CRLF
    # line ends the block reader counts the rows on text lines
    path = tmp_path / "f.csv"
    path.write_text(text, newline="\r\n" if crlf else "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        expected = _read_outcome(csv_read_reference, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _read_outcome(field_from_csv, path) == expected
    assert expected == (BadParameter, f"{path}: expected 3 columns (x, re, im)")


@pytest.mark.parametrize("own_line", [True, False])
def test_csv_hash_is_not_a_comment(tmp_path, own_line):
    # field_to_csv never writes a '#'; the reader parses it as a value, on a
    # line of its own or after a row
    g = Grid(16, 1.0)
    path = tmp_path / "f.csv"
    field_to_csv(Field(g, np.zeros(g.N)), path)
    lines = path.read_text().splitlines()
    if own_line:
        lines.insert(3, "# a comment")
    else:
        lines[3] += " # a comment"
    path.write_text("\n".join(lines) + "\n")
    assert csv_read_reference(path).grid == g
    with pytest.raises(BadParameter, match="not a numeric"):
        field_from_csv(path)


def test_grid_memory_guard_boundary(monkeypatch):
    # x takes 8N bytes: 512 at N = 64
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 511)
    with pytest.raises(BadParameter, match="512 bytes.*511 bytes of physical memory"):
        Grid(64, 1.0)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 512)
    assert Grid(64, 1.0).x.nbytes == 512


def test_wrap_contamination_estimate():
    g = Grid(2 ** 16, 400.0)
    # 1/x^2 tail measured at x=200 with L=400: images at 600 and 1000
    est = wrap_contamination(g, 200.0, 2.0)
    assert est == pytest.approx((200 / 600) ** 2 + (200 / 1000) ** 2, rel=1e-12)
    assert wrap_contamination(Grid(2 ** 16, 3200.0), 200.0, 2.0) < 2.2e-3
