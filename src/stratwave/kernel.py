"""The linear solution kernel and its quantitative asymptotics.

The semigroup kernel is defined through its transform

    Khat(t, xi) = exp(L(xi) t),    L(xi) = -i p(xi) xi + phi_{m,n}(xi),

and realized on a grid by sampling Khat at the xi_j >= 0 nodes and inverse
transforming with irfft (K is real: L is Hermitian, p being even), so the
computed field is the 2L-periodization of the continuum kernel; truncation
beyond Nyquist is controlled by the exp(-eta|xi|^m t) spectral decay
(UnderResolved guards the resolution precondition).  half_kernel_hat is the
one place that builds Khat(t), with every check; kernel_field,
kernel_derivative_field, the linear-only lower bound and the K-MOD-EVEN
criterion all use it, and the kernels are plain Fields.

Tail structure.  Repeated integration by parts across the xi = 0 kink of
phi gives a boundary-jump series

    K(t, x) = (1/2pi) sum_j (-1)^j [d_xi^j Khat]_0 / (i x)^{j+1},

whose first nonvanishing jump sits at order n and has the t-linear value
J * t with

    J = 2 eta                      (n = 1)
    J = -4 i eta                   (n = 2)
    J = 2 eta (i^{n+1} n! + c_m)   (n >= 3), c_m = 6 for (n,m) = (3,3), else 0,

so |x|^{n+1} |K(t, x)| -> A(t) = |J| t / (2pi).  These constants are stated
in the angular convention used throughout the package.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BadParameter, UnderResolved
from .model import (I_POWERS, MULTIPLIER_BLOCK, DispersionSymbol, ModelParams,
                    check_exp_overflow, half_spectrum_multiplier)
from .spectral import Field, Grid, check_memory, from_half_spectrum

#: required ratio between Nyquist frequency and the spectral decay scale
NYQUIST_FACTOR = 8.0

#: peak bytes allocated per grid point by kernel_field and
#: kernel_derivative_field: 2.1 x 8N rounded up, the bound tests/test_memory.py
#: enforces (measured 2.00 x 8N for N = 2^16-2^19)
KERNEL_PEAK_BYTES_PER_POINT = 17


def _check_resolution(t: float, grid: Grid, params: ModelParams):
    if not math.isfinite(t):
        raise BadParameter(f"kernel construction requires a finite t, got {t}")
    if t <= 0:
        raise UnderResolved(f"kernel construction requires t > 0, got {t}")
    xi_scale = (params.eta * t) ** (-1.0 / params.m)
    if not grid.resolves(NYQUIST_FACTOR * xi_scale):
        raise UnderResolved(
            f"Nyquist {grid.nyquist:.3g} < {NYQUIST_FACTOR} x decay scale "
            f"{xi_scale:.3g} for t={t}; refine the grid or increase t"
        )


def half_kernel_hat(t: float, grid: Grid, sym: DispersionSymbol,
                    params: ModelParams) -> np.ndarray:
    """Khat(t, xi_j) = exp(L(xi_j) t) for j = 0..N/2: the one place that
    builds Khat(t).  BadParameter when t is not finite, when L is not
    finite, or when exp(Re L(xi_j) t) would overflow float64 (checked
    before the exponential), and UnderResolved when t <= 0 or the grid does
    not resolve the decay scale (eta t)^(-1/m).

    Raises BadParameter before allocating when the kernel build's estimated
    peak exceeds physical memory.
    """
    _check_resolution(t, grid, params)
    check_memory(KERNEL_PEAK_BYTES_PER_POINT * grid.N,
                 f"the kernel build at N={grid.N} (an estimate of "
                 f"{KERNEL_PEAK_BYTES_PER_POINT} bytes per grid point)")
    khat = half_spectrum_multiplier(grid, sym, params)
    khat *= t
    check_exp_overflow(khat, f"t = {t} overflows the kernel: max Re L(xi) t")
    return np.exp(khat, out=khat)


def kernel_field(t: float, grid: Grid, sym: DispersionSymbol,
                 params: ModelParams) -> Field:
    """K(t, .) on the grid (periodized continuum kernel).

    Built by irfft of the half-spectrum, so it is a float64 field.
    """
    return from_half_spectrum(grid, half_kernel_hat(t, grid, sym, params))


def kernel_derivative_field(t: float, grid: Grid, sym: DispersionSymbol,
                            params: ModelParams) -> Field:
    """d_x K(t, .): inverse transform of (i xi) Khat; tail ~ |x|^-(n+2)."""
    khat = half_kernel_hat(t, grid, sym, params)
    for start in range(0, khat.size, MULTIPLIER_BLOCK):
        stop = min(start + MULTIPLIER_BLOCK, khat.size)
        khat[start:stop] *= 1j * (grid.dxi * np.arange(start, stop))
    return from_half_spectrum(grid, khat)


def leading_jump(params: ModelParams) -> complex:
    """First nonvanishing boundary-jump constant J of the tail series;
    BadParameter when J is beyond the float64 range (n! or eta too large)."""
    n, m, eta = params.n, params.m, params.eta
    try:
        if n == 1:
            jump = complex(2.0 * eta)
        elif n == 2:
            jump = -4j * eta
        else:
            c_m = 6.0 if (n == 3 and m == 3) else 0.0
            jump = 2.0 * eta * (I_POWERS[(n + 1) % 4] * math.factorial(n) + c_m)
    except OverflowError:       # n! is past the float range
        jump = complex(math.inf)
    if not cmath.isfinite(jump):
        raise BadParameter(f"the tail constant J of m = {m}, n = {n}, eta = {eta} "
                           f"is beyond the float64 range")
    return jump


def asymptotic_coefficient(t: float, params: ModelParams) -> float:
    """A(t) = |J| t / (2pi): the limit of |x|^{n+1} |K(t, x)|."""
    if t <= 0:
        raise UnderResolved(f"t must be positive, got {t}")
    return abs(leading_jump(params)) * t / (2.0 * np.pi)
