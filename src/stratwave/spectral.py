"""Periodic grid, transform pair, convolution, CSV field I/O.

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

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, GridMismatch


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: int, what: str) -> None:
    """Raise BadParameter when `what`, needing `need` bytes, would exceed
    physical memory; callers check before they allocate."""
    limit = _physical_memory()
    if need > limit:
        raise BadParameter(f"{what} needs {need} bytes, which exceeds the "
                           f"{limit} bytes of physical memory")


class Grid:
    """Uniform periodic grid on [-L, L) with N = 2^q points (N >= 16).

    Only the N sample positions x are stored; BadParameter is raised before
    they are allocated when their 8N bytes exceed physical memory.
    """

    __slots__ = ("N", "L", "dx", "dxi", "x")

    def __init__(self, N: int, L: float):
        if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
            raise BadParameter(f"N must be an integer, got {N!r}")
        if N < 16 or (N & (N - 1)) != 0:
            raise BadParameter(f"N must be a power of two >= 16, got {N}")
        if not 0 < L < math.inf:
            raise BadParameter(f"L must be positive and finite, got {L}")
        check_memory(8 * N, f"a grid of N={N} points")
        self.N = int(N)
        self.L = float(L)
        self.dx = 2.0 * self.L / self.N
        self.dxi = np.pi / self.L
        # -L + dx * arange(N), built in place
        self.x = np.arange(self.N, dtype=float)
        self.x *= self.dx
        self.x += -self.L

    @property
    def nyquist(self) -> float:
        """Largest resolved angular frequency pi/dx."""
        return np.pi / self.dx

    def resolves(self, xi_target: float) -> bool:
        """True when the Nyquist frequency strictly exceeds xi_target."""
        return self.nyquist > xi_target

    def __eq__(self, other):
        return isinstance(other, Grid) and self.N == other.N and self.L == other.L

    def __hash__(self):
        return hash((self.N, self.L))

    def __repr__(self):
        return f"Grid(N={self.N}, L={self.L})"


REAL_HINT_TOL = 1e-10


@dataclass
class Field:
    """Real physical-space samples on a grid, stored as float64.

    Complex input is accepted only when its imaginary part is negligible:
    finite everywhere and at most REAL_HINT_TOL times max |f| (NaN samples
    left out of that scale).  That part is dropped, keeping the real part's
    bits; any other complex input raises BadParameter ("real data").
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        if np.shape(self.samples) != (self.grid.N,):
            raise BadParameter(
                f"samples shape {np.shape(self.samples)} != grid size ({self.grid.N},)"
            )
        if np.iscomplexobj(self.samples):
            s = np.asarray(self.samples)
            scale = float(np.fmax.reduce(np.abs(s), initial=0.0))
            worst = float(np.max(np.abs(s.imag)))
            if not (np.isfinite(worst) and worst <= REAL_HINT_TOL * scale):
                raise BadParameter("expected real data; the samples have a "
                                   "significant imaginary part")
            self.samples = s.real
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)

    def l2_norm(self) -> float:
        """Discrete L2 norm sqrt(sum u^2 dx)."""
        return float(np.sqrt(np.sum(self.samples ** 2) * self.grid.dx))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"{a.grid!r} vs {b.grid!r}")


def to_spectral(f: Field) -> np.ndarray:
    """Forward transform on all N modes in FFT order (j = 0..N/2-1, then
    -N/2..-1): samples of the continuum transform at xi_j = dxi j.

    The full complex form of half_spectrum, whose other half is the
    complex conjugate; the package's real-field paths use half_spectrum.
    """
    g = f.grid
    return g.dx * _alternating_sign(g.N) * np.fft.fft(f.samples.astype(np.complex128))


def _alternating_sign(size: int) -> np.ndarray:
    """(-1)^i for i = 0..size-1; N is even, so FFT index i and j share parity."""
    sign = np.ones(size)
    sign[1::2] = -1.0
    return sign


def half_spectrum(f: Field) -> np.ndarray:
    """to_spectral of a field on j = 0..N/2 only, by rfft; the other half is
    the complex conjugate."""
    c = np.fft.rfft(f.samples)
    # dx (-1)^j in place: the bits (signed zeros, inf and nan) of a product
    # with a dx-scaled (-1)^j array; FFT index N/2 holds j = -N/2, of the
    # same parity
    c[0::2] *= f.grid.dx
    c[1::2] *= -f.grid.dx
    return c


def from_half_spectrum(grid: Grid, coeffs: np.ndarray) -> Field:
    """The inverse transform of the Hermitian spectrum whose j = 0..N/2 half
    is coeffs.

    Consumes coeffs: the (-1)^j phase is applied to it in place, so callers
    pass a temporary.  The result is real by construction (irfft); the
    imaginary parts of coeffs at j = 0 and N/2 are ignored.
    """
    # complex products by +-1 on every mode, even ones included, give the
    # bits (signed zeros, inf and nan) of a product with a (-1)^j array
    coeffs[0::2] *= 1 + 0j
    coeffs[1::2] *= -1 + 0j
    samples = np.fft.irfft(coeffs, n=grid.N)
    samples /= grid.dx
    return Field(grid=grid, samples=samples)


def convolve(f: Field, g: Field) -> Field:
    """Continuum-normalised convolution (f*g)(x) = int f(y) g(x-y) dy, on
    half-spectra."""
    _check_same_grid(f, g)
    return from_half_spectrum(f.grid, half_spectrum(f) * half_spectrum(g))


def integral(f: Field) -> float:
    """Discrete integral of f over the box (the xi = 0 coefficient)."""
    return float(np.sum(f.samples) * f.grid.dx)


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
# Serialization: CSV (x, re, im)
# ---------------------------------------------------------------------------

#: rows per block in CSV output (formatted per '%' operation, written per
#: call) and input (lines parsed per loadtxt call); the text and value
#: buffers stay a few hundred kB whatever the field size
CSV_BLOCK_ROWS = 1024


def _write_csv(path, header: str, columns) -> None:
    """Write a header line, then equal-length float columns as '%.17g' rows.

    Round-trip exact; formats one block of CSV_BLOCK_ROWS rows per '%'
    operation, so no N x len(columns) array or whole-file string is built.
    A column that is None is written as the literal 0 on every row, the text
    '%.17g' gives +0.0, and never formatted; columns[0] must be an array.
    """
    formatted = [c for c in columns if c is not None]
    width = len(formatted)
    row = ",".join(["0" if c is None else "%.17g" for c in columns]) + "\n"
    n = len(columns[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            rows = min(CSV_BLOCK_ROWS, n - start)
            values = [None] * (width * rows)
            for k, c in enumerate(formatted):
                values[k::width] = c[start:start + rows].tolist()
            fh.write((row * rows) % tuple(values))


def field_to_csv(f: Field, path) -> None:
    """Write columns x, re, im with round-trip-exact float formatting; im is
    the literal 0 on every row."""
    _write_csv(path, "x,re,im", (f.grid.x, f.samples, None))


def output_to_csv(value, path) -> None:
    """Write a run output (analysis.run_experiment): a Field as field_to_csv
    writes it, a (header, columns) table as that header and '%.17g' rows."""
    if isinstance(value, Field):
        field_to_csv(value, path)
    else:
        _write_csv(path, *value)


def _line_blocks(fh):
    """The lines of an open text file, CSV_BLOCK_ROWS lines at a time."""
    while lines := list(itertools.islice(fh, CSV_BLOCK_ROWS)):
        yield lines


def _count_rows(path, fh) -> int:
    """The rows after the header line: the lines that are not blank.

    Counts newline bytes, 64 kB at a time; a file with a carriage return or
    a blank line, which text mode translates or skips, is counted on the
    lines of fh (the file open as text, after its header) instead.
    """
    with open(path, "rb") as raw:
        if b"\r" not in raw.readline():
            rows, prev = 0, True             # whether the last byte was "\n"
            while chunk := raw.read(1 << 16):
                newline = np.frombuffer(chunk, np.uint8) == ord("\n")
                if (b"\r" in chunk or (prev and newline[0])
                        or (newline[1:] & newline[:-1]).any()):
                    break
                rows += int(np.count_nonzero(newline))
                prev = bool(newline[-1])
            else:
                return rows + (not prev)
    return sum(len(lines) - lines.count("\n") for lines in _line_blocks(fh))


def field_from_csv(path) -> Field:
    """Read a field written by field_to_csv; the grid is inferred from x:
    N from the row count, L from the first x.

    The file is a header line, then one 'x,re,im' row per grid point; blank
    lines are skipped, and a '#' is not a comment.  The re column's bits
    are kept (-0.0, nan and inf included).  An im column of +0.0 only is
    skipped; any other goes through Field's realness rule, so a negligible
    im (such as the rounding noise of kernels written before they were
    built by irfft) is dropped, and a significant, nan or inf one raises
    BadParameter.  A non-numeric value or a ragged row raises BadParameter;
    an x column that is not the grid's (to 1e-12 L) raises GridMismatch.

    The rows are counted first, then parsed CSV_BLOCK_ROWS lines at a time
    into the samples, each block's x checked against the grid's; only the
    samples, the grid's x and one block are held.  Every row is parsed
    before any error but a parse error is raised, so the errors come in the
    order of a whole-table read: a bad value or ragged row, the column
    count, the grid, then the x column.
    """
    try:
        with open(path) as fh:
            return _read_field_csv(fh, path)
    except ValueError as exc:    # a bad value or byte, or a ragged row
        raise BadParameter(f"{path}: not a numeric (x, re, im) CSV: {exc}") from exc


def _read_field_csv(fh, path) -> Field:
    fh.readline()                                        # the header
    body = fh.tell()
    rows = _count_rows(path, fh)
    fh.seek(body)
    width = problem = samples = im = grid = None
    start, line = 0, 2                         # the first row and line of a block
    for lines in _line_blocks(fh):
        if lines[0] == "\n" and lines.count("\n") == len(lines):
            line += len(lines)                 # blank lines only: no rows
            continue
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{exc} (rows counted from line {line})") from exc
        if width is None:
            width = block.shape[1]
            if width == 3 and rows > 1:
                try:
                    grid = Grid(rows, -block[0, 0])
                except BadParameter as exc:
                    problem = exc
                else:
                    samples = np.empty(rows)
        elif block.shape[1] != width:
            raise ValueError(f"the number of columns changed from {width} to "
                             f"{block.shape[1]} in the lines from line {line}")
        stop = start + len(block)
        if problem is None and samples is not None:
            gap = block[:, 0] - grid.x[start:stop]
            np.abs(gap, out=gap)
            if not gap.max() <= 1e-12 * grid.L:          # nan included
                problem = GridMismatch(f"{path}: CSV x column does not match {grid!r}")
            samples[start:stop] = block[:, 1]
            if im is None and block[:, 2].view(np.uint64).any():    # not +0.0
                im = np.zeros(rows)
            if im is not None:
                im[start:stop] = block[:, 2]
        start = stop
        line += len(lines)
    if width != 3 or rows < 2:
        raise BadParameter(f"{path}: expected 3 columns (x, re, im)")
    if problem is not None:
        raise problem
    if im is None:
        return Field(grid=grid, samples=samples)
    # column by column, so re keeps its bits (no re + 1j*im)
    full = np.empty(grid.N, dtype=np.complex128)
    full.real = samples
    del samples
    full.imag = im
    del im
    try:
        return Field(grid=grid, samples=full)
    except BadParameter as exc:
        raise BadParameter(f"{path}: {exc}") from exc
