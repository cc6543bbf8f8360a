"""The linear solution kernel and its quantitative asymptotics.

The semigroup kernel is defined through its transform

    Khat(t, xi) = exp(L(xi) t),    L(xi) = -i p(xi) xi + phi_{m,n}(xi),

and realized on a grid by sampling Khat at the xi_j >= 0 nodes and inverse
transforming with irfft (K is real: L is Hermitian for even p), so the
computed field is the 2L-periodization of the continuum kernel; truncation
beyond Nyquist is controlled by the exp(-eta|xi|^m t) spectral decay
(UnderResolved guards the resolution precondition).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, UnderResolved
from .model import (DispersionSymbol, ModelParams, half_spectrum_multiplier,
                    linear_multiplier)
from .solver import _physical_memory
from .spectral import Field, Grid, from_half_spectrum, integral

#: required ratio between Nyquist frequency and the spectral decay scale
NYQUIST_FACTOR = 8.0

#: peak bytes allocated per grid point by kernel_field and
#: kernel_derivative_field: 4.5 x 8N, the bound tests/test_memory.py enforces
#: (measured 4.0-4.22 x 8N for N = 2^16-2^19)
KERNEL_PEAK_BYTES_PER_POINT = 36


@dataclass
class KernelField:
    """Sampled K(t, .) plus the model that generated it."""

    field: Field
    t: float
    sym: DispersionSymbol
    params: ModelParams

    @property
    def mass(self) -> float:
        """Discrete integral over the box; equals Khat(t, 0) = 1 up to rounding."""
        return integral(self.field)


def kernel_hat(t: float, xi, sym: DispersionSymbol, params: ModelParams):
    """Khat(t, xi) = exp(L(xi) t); |Khat| <= exp(eta B(m,n) t)."""
    return np.exp(linear_multiplier(xi, sym, params) * t)


def _check_resolution(t: float, grid: Grid, params: ModelParams):
    if t <= 0:
        raise UnderResolved(f"kernel construction requires t > 0, got {t}")
    xi_scale = (params.eta * t) ** (-1.0 / params.m)
    if not grid.resolves(NYQUIST_FACTOR * xi_scale):
        raise UnderResolved(
            f"Nyquist {grid.nyquist:.3g} < {NYQUIST_FACTOR} x decay scale "
            f"{xi_scale:.3g} for t={t}; refine the grid or increase t"
        )


def _half_kernel_hat(t: float, grid: Grid, sym: DispersionSymbol,
                     params: ModelParams) -> np.ndarray:
    """Khat(t, xi_j) for j = 0..N/2; BadParameter when L is not Hermitian.

    Raises BadParameter before allocating when the kernel build's estimated
    peak exceeds physical memory.
    """
    _check_resolution(t, grid, params)
    need = KERNEL_PEAK_BYTES_PER_POINT * grid.N
    limit = _physical_memory()
    if need > limit:
        raise BadParameter(
            f"kernel build at N={grid.N} needs an estimated {need} bytes "
            f"({KERNEL_PEAK_BYTES_PER_POINT} per grid point), which exceeds "
            f"the {limit} bytes of physical memory")
    khat = half_spectrum_multiplier(grid, sym, params)
    khat *= t
    return np.exp(khat, out=khat)


def kernel_field(t: float, grid: Grid, sym: DispersionSymbol,
                 params: ModelParams) -> KernelField:
    """Sampled kernel on the grid (periodized continuum kernel).

    Built by irfft of the half-spectrum, so it is real with an imaginary
    part of exactly 0; an odd custom p (complex kernel) raises BadParameter.
    """
    return KernelField(
        field=from_half_spectrum(grid, _half_kernel_hat(t, grid, sym, params)),
        t=t, sym=sym, params=params,
    )


def kernel_derivative_field(t: float, grid: Grid, sym: DispersionSymbol,
                            params: ModelParams) -> Field:
    """d_x K(t, .): inverse transform of (i xi) Khat; tail ~ |x|^-(n+2)."""
    khat = _half_kernel_hat(t, grid, sym, params)
    khat *= 1j * (grid.dxi * np.arange(khat.size))
    return from_half_spectrum(grid, khat)


def leading_jump(params: ModelParams) -> complex:
    """First nonvanishing boundary-jump constant J of the tail series."""
    n, m, eta = params.n, params.m, params.eta
    if n == 1:
        return complex(2.0 * eta)
    if n == 2:
        return -4j * eta
    c_m = 6.0 if (n == 3 and m == 3) else 0.0
    return 2.0 * eta * (1j ** (n + 1) * math.factorial(n) + c_m)


def asymptotic_coefficient(t: float, params: ModelParams) -> float:
    """A(t) = |J| t / (2pi): the limit of |x|^{n+1} |K(t, x)|."""
    if t <= 0:
        raise UnderResolved(f"t must be positive, got {t}")
    return abs(leading_jump(params)) * t / (2.0 * np.pi)
