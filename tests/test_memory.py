"""Peak memory of the kernel build and field-read paths.

Peaks are traced with tracemalloc, which sees numpy's array buffers, and
bounded in units of 8N bytes (one float64 per grid point).  Each bound sits
just above the value measured for N = 2^16..2^18; the grid keeps the
kernel_io spacing, dx = 2 * 3200 / 2^19.
"""

import tracemalloc

import pytest

from stratwave import Grid, kernel_derivative_field, kernel_field, preset
from stratwave.kernel import KERNEL_PEAK_BYTES_PER_POINT
from stratwave.model import half_spectrum_multiplier
from stratwave.spectral import field_from_csv, field_to_csv

SIZES = [2 ** 16, 2 ** 18]
SYM, PARAMS = preset("ost")


def grid_of(N: int) -> Grid:
    return Grid(N, 3200.0 * N / 2 ** 19)


def peak_units(N: int, fn, *args) -> float:
    """Peak traced bytes while fn(*args) runs, in units of 8N bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * N)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("N", SIZES)
def test_grid_stores_only_x(N):
    # j, xi and the (-1)^j sign are built on first use
    assert peak_units(N, grid_of, N) <= 1.05


@pytest.mark.parametrize("N", SIZES)
def test_half_spectrum_multiplier_peak(N):
    # the N/2+1 complex result is 1.0; the blocks add about 0.9 at 2^16
    assert peak_units(N, half_spectrum_multiplier, grid_of(N), SYM, PARAMS) <= 2.0


@pytest.mark.parametrize("build", [kernel_field, kernel_derivative_field])
@pytest.mark.parametrize("N", SIZES)
def test_kernel_build_peak(N, build):
    # Khat 1.0 + its (-1)^j-signed copy 1.0 + the complex samples 2.0
    bound = 4.5
    assert peak_units(N, build, 1.0, grid_of(N), SYM, PARAMS) <= bound
    # the memory guard's estimate covers the measured peak
    assert KERNEL_PEAK_BYTES_PER_POINT >= 8 * bound


@pytest.mark.parametrize("N", SIZES)
def test_field_from_csv_peak(N, tmp_path):
    # the loadtxt N x 3 table 3.0 + the grid's x 1.0 + the complex samples 2.0
    path = tmp_path / "kernel.csv"
    field_to_csv(kernel_field(1.0, grid_of(N), SYM, PARAMS).field, path)
    assert peak_units(N, field_from_csv, path) <= 6.5
