"""Periodic grid, transform pair, multiplier application, dealiasing.

The line is truncated to the box [-L, L) with N (power of two) points.  The
discrete pair approximates the angular-convention transforms

    uhat(xi_j) = sum_k u(x_k) e^{-i x_k xi_j} dx,          xi_j = (pi/L) j,
    u(x_k)     = (dxi / 2pi) sum_j uhat(xi_j) e^{i x_k xi_j},   dxi = pi/L,

so spectral coefficients are samples of the continuum transform (including
the e^{+i L xi_j} = (-1)^j phase from the grid origin at x = -L).  With this
normalisation, discrete Parseval holds exactly:

    sum |u_k|^2 dx = (dxi / 2pi) sum |uhat_j|^2,

and the coefficient at xi = 0 is the discrete integral of u over the box.
Inverse-transforming samples of a continuum transform yields the 2L-periodic
sum of the continuum function (Poisson summation); experiments must keep
their measurement windows wrap-safe (see wrap_contamination).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BadParameter, GridMismatch


class Grid:
    """Uniform periodic grid on [-L, L) with N = 2^q points (N >= 16).

    Only x is stored up front; the full-spectrum arrays j, xi and _sign are
    built on first use and cached, so the real-field paths never hold them.
    """

    __slots__ = ("N", "L", "dx", "dxi", "x", "_j", "_xi", "_sign_full")

    def __init__(self, N: int, L: float):
        if N < 16 or (N & (N - 1)) != 0:
            raise BadParameter(f"N must be a power of two >= 16, got {N}")
        if not L > 0:
            raise BadParameter(f"L must be positive, got {L}")
        self.N = int(N)
        self.L = float(L)
        self.dx = 2.0 * self.L / self.N
        self.dxi = np.pi / self.L
        # -L + dx * arange(N), built in place
        self.x = np.arange(self.N, dtype=float)
        self.x *= self.dx
        self.x += -self.L
        self._j = self._xi = self._sign_full = None

    @property
    def j(self) -> np.ndarray:
        """Integer wavenumbers in FFT order: 0..N/2-1, then -N/2..-1."""
        if self._j is None:
            self._j = np.arange(self.N, dtype=np.int64)
            self._j[self.N // 2:] -= self.N
        return self._j

    @property
    def xi(self) -> np.ndarray:
        """Angular frequencies xi_j = dxi j in FFT order."""
        if self._xi is None:
            self._xi = self.dxi * self.j
        return self._xi

    @property
    def _sign(self) -> np.ndarray:
        """Exact (-1)^j phase relating FFT indexing to the x = -L origin."""
        if self._sign_full is None:
            self._sign_full = _alternating_sign(self.N)
        return self._sign_full

    @property
    def nyquist(self) -> float:
        """Largest resolved angular frequency pi/dx."""
        return np.pi / self.dx

    def resolves(self, xi_target: float) -> bool:
        """True when the Nyquist frequency strictly exceeds xi_target."""
        return self.nyquist > xi_target

    def index_of(self, x_value: float) -> int:
        """Grid index of the sample nearest to x_value."""
        return int(round((x_value + self.L) / self.dx)) % self.N

    def __eq__(self, other):
        return isinstance(other, Grid) and self.N == other.N and self.L == other.L

    def __hash__(self):
        return hash((self.N, self.L))

    def __repr__(self):
        return f"Grid(N={self.N}, L={self.L})"


REAL_HINT_TOL = 1e-10


@dataclass
class Field:
    """Physical-space samples on a grid."""

    grid: Grid
    samples: np.ndarray
    is_real_hint: bool = False

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.grid.N,):
            raise BadParameter(
                f"samples shape {self.samples.shape} != grid size ({self.grid.N},)"
            )
        if self.is_real_hint:
            real_samples(self)

    @property
    def real(self) -> np.ndarray:
        return self.samples.real

    def l2_norm(self) -> float:
        """Discrete L2 norm sqrt(sum |u|^2 dx)."""
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx))


@dataclass
class SpectralField:
    """Spectral coefficients indexed by xi_j (FFT ordering)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != (self.grid.N,):
            raise BadParameter("coefficient array does not match grid size")


def real_samples(f: Field) -> np.ndarray:
    """The real part of f's samples, for the real-field paths.

    Raises BadParameter when the imaginary part exceeds REAL_HINT_TOL times
    max |f|: a real-field path would silently drop it.
    """
    s = f.samples
    amax = float(np.max(np.abs(s)))
    if amax > 0 and float(np.max(np.abs(s.imag))) > REAL_HINT_TOL * amax:
        raise BadParameter("expected real data; the field has a significant "
                           "imaginary part")
    return s.real


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"{a.grid!r} vs {b.grid!r}")


def to_spectral(f: Field) -> SpectralField:
    """Forward transform; coefficients sample the continuum transform."""
    g = f.grid
    coeffs = g.dx * g._sign * np.fft.fft(f.samples)
    return SpectralField(grid=g, coefficients=coeffs)


def to_physical(F: SpectralField, real_hint: bool = False) -> Field:
    """Inverse transform back to physical samples."""
    g = F.grid
    samples = np.fft.ifft(F.coefficients * g._sign) / g.dx
    return Field(grid=g, samples=samples, is_real_hint=real_hint)


def _alternating_sign(size: int) -> np.ndarray:
    """(-1)^i for i = 0..size-1; N is even, so FFT index i and j share parity."""
    sign = np.ones(size)
    sign[1::2] = -1.0
    return sign


def _half_sign(g: Grid) -> np.ndarray:
    # (-1)^j for j = 0..N/2; FFT index N/2 holds j = -N/2, of the same parity
    return _alternating_sign(g.N // 2 + 1)


def half_spectrum(f: Field) -> np.ndarray:
    """to_spectral of a real field on j = 0..N/2 only, by rfft.

    The other half is the complex conjugate.  Raises BadParameter ("real
    data") for a field with a significant imaginary part.
    """
    g = f.grid
    return g.dx * _half_sign(g) * np.fft.rfft(real_samples(f))


def from_half_spectrum(grid: Grid, coeffs: np.ndarray) -> Field:
    """to_physical of the Hermitian spectrum whose j = 0..N/2 half is coeffs.

    The result is real by construction (irfft), so its imaginary part is
    exactly 0; the imaginary parts of coeffs at j = 0 and N/2 are ignored.
    """
    samples = np.fft.irfft(coeffs * _half_sign(grid), n=grid.N)
    samples /= grid.dx
    return Field(grid=grid, samples=samples)


def derivative(f: Field) -> Field:
    """Spectral derivative (multiplier i xi); Nyquist mode is zeroed.

    Exact for band-limited trigonometric polynomials.
    """
    g = f.grid
    F = to_spectral(f)
    mult = 1j * g.xi
    mult[g.j == -g.N // 2] = 0.0
    return to_physical(SpectralField(g, mult * F.coefficients),
                       real_hint=f.is_real_hint)


def hilbert(f: Field) -> Field:
    """Hilbert transform: multiplier i sign(xi), with sign(0) = 0."""
    g = f.grid
    F = to_spectral(f)
    mult = 1j * np.sign(g.xi)
    return to_physical(SpectralField(g, mult * F.coefficients))


def dealias_keep(j: np.ndarray, N: int, k: int) -> np.ndarray:
    """The modes the dealias rule keeps: |j| <= N/(k+2), a fraction 2/(k+2).

    Generalized 2/3-rule for the degree-(k+1) nonlinearity u^{k+1}.
    """
    if k < 1:
        raise BadParameter(f"k must be >= 1, got {k}")
    return np.abs(j) <= N / (k + 2)


def dealias(F: SpectralField, k: int) -> SpectralField:
    """Zero the coefficients dealias_keep drops; idempotent, norm non-increasing."""
    g = F.grid
    coeffs = np.where(dealias_keep(g.j, g.N, k), F.coefficients, 0.0)
    return SpectralField(grid=g, coefficients=coeffs)


def convolve(f: Field, g: Field) -> Field:
    """Continuum-normalised convolution (f*g)(x) = int f(y) g(x-y) dy of two
    real fields, on half-spectra; complex input raises BadParameter."""
    _check_same_grid(f, g)
    return from_half_spectrum(f.grid, half_spectrum(f) * half_spectrum(g))


def integral(f: Field) -> float:
    """Discrete integral of Re f over the box (the xi = 0 coefficient)."""
    return float(np.sum(f.samples.real) * f.grid.dx)


def wrap_contamination(grid: Grid, x_edge: float, exponent: float) -> float:
    """Estimated wrap-around contamination ratio at |x| = x_edge.

    For a two-sided |x|^-exponent tail, the nearest periodic images sit at
    distances 2L -+ x_edge; returns their combined relative contribution.
    """
    if x_edge <= 0 or x_edge >= grid.L:
        raise BadParameter("x_edge must lie in (0, L)")
    q = exponent
    return float((x_edge / (2 * grid.L - x_edge)) ** q
                 + (x_edge / (2 * grid.L + x_edge)) ** q)


# ---------------------------------------------------------------------------
# Serialization: CSV (x, re, im) and the STWV binary block.
# ---------------------------------------------------------------------------

BINARY_MAGIC = b"STWV"
BINARY_VERSION = 1

#: rows formatted per '%' operation and written per call in CSV output; the
#: text and value buffers stay a few hundred kB whatever the field size
CSV_BLOCK_ROWS = 1024


def _write_csv(path, header: str, columns) -> None:
    """Write a header line, then equal-length float columns as '%.17g' rows.

    Round-trip exact; formats one block of CSV_BLOCK_ROWS rows per '%'
    operation, so no N x len(columns) array or whole-file string is built.
    """
    width = len(columns)
    row = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            values = [None] * (width * len(block[0]))
            for k, col in enumerate(block):
                values[k::width] = col
            fh.write((row * len(block[0])) % tuple(values))


def field_to_csv(f: Field, path) -> None:
    """Write columns x, re, im with round-trip-exact float formatting."""
    _write_csv(path, "x,re,im", (f.grid.x, f.samples.real, f.samples.imag))


def field_from_csv(path, grid: Optional[Grid] = None) -> Field:
    """Read a field written by field_to_csv; the grid is inferred from x.

    A non-numeric value or a ragged row raises BadParameter; an x column
    that is not the grid's (to 1e-12 L) raises GridMismatch.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise BadParameter(f"{path}: not a numeric (x, re, im) CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise BadParameter(f"{path}: expected 3 columns (x, re, im)")
    x = data[:, 0]
    if grid is None:
        grid = Grid(len(x), -x[0])
    if grid.N != len(x):
        raise GridMismatch(f"{path}: CSV has {len(x)} rows, {grid!r} has {grid.N}")
    gap = x - grid.x            # one buffer, freed before samples is allocated
    np.abs(gap, out=gap)
    if not np.all(gap <= 1e-12 * grid.L):
        raise GridMismatch(f"{path}: CSV x column does not match {grid!r}")
    del gap
    # column by column, so re and im keep their bits (no re + 1j*im)
    samples = np.empty(grid.N, dtype=np.complex128)
    samples.real = data[:, 1]
    samples.imag = data[:, 2]
    return Field(grid=grid, samples=samples)


def field_to_binary(f: Field, path) -> None:
    """Little-endian block: magic 'STWV', version u32, N u64, L f64, payload."""
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<IQd", BINARY_VERSION, f.grid.N, f.grid.L))
        fh.write(f.samples.astype("<c16").tobytes())


def field_from_binary(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise BadParameter(f"{path}: bad magic {magic!r}")
        version, N, L = struct.unpack("<IQd", fh.read(4 + 8 + 8))
        if version != BINARY_VERSION:
            raise BadParameter(f"{path}: unsupported version {version}")
        payload = fh.read(16 * N)
        samples = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return Field(grid=Grid(N, L), samples=samples)
