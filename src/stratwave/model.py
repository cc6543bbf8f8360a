"""Dispersion and dissipation symbols of the model equation.

The equation under study is

    u_t + D(u_x) + u^k u_x + eta*(H d_x^n u + H_m u) = 0,    eta > 0,

with D a Fourier multiplier with real symbol p(xi), H the Hilbert transform
and H_m = -d_x^2 (m=2) or H d_x^3 (m=3).  All multipliers are expressed in
the angular Fourier pair

    u(x) = (1/2pi) int e^{i x xi} uhat(xi) dxi,

under which d_x has multiplier i*xi and H has multiplier i*sign(xi), so that
H d_x^n carries i^{n+1}|xi| xi^{n-1} and H_m carries |xi|^m.  The combined
dissipation symbol is

    phi_{m,n}(xi) = -eta * (i^{n+1} |xi| xi^{n-1} + |xi|^m),

and the full linear multiplier (the symbol of the linear semigroup generator)

    L(xi) = -i p(xi) xi + phi_{m,n}(xi).

Key structural facts, all unit-tested:

* For n even, Re phi = -eta|xi|^m exactly, so |exp(L t)| = exp(-eta|xi|^m t).
* For n odd with n = 3 + 4d, phi is real and equals -eta(|xi|^n + |xi|^m).
* For n = 1, phi is real and equals eta(|xi| - |xi|^m): an amplification band
  on |xi| < 1 with sup_xi Re phi = eta * B(m), B(2) = 1/4, B(3) = 2/(3 sqrt 3).
* For n = 5 + 4d, phi grows like +eta|xi|^n: those n are rejected (InvalidN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, ConfigInvalid, InvalidN, InvalidRange, UnknownPreset

#: origin_regularity sentinel for symbols smooth at xi = 0 (polynomials).
SMOOTH = 10**6


@dataclass(frozen=True)
class DispersionSymbol:
    """Real dispersion symbol p(xi) with its regularity at the origin: one
    of the kinds kdv, bo and dgbo.  Each is a function of |xi|, so p is
    even and L(-xi) = conj L(xi): solutions and kernels stay real.  A new
    kind is a builder here plus its _SYMBOL_READS entry.

    origin_regularity is the number of continuous derivatives at xi = 0,
    which gates how large n the tail-decay analysis supports (p must be
    C^{n-1} near 0).
    """

    kind: str
    origin_regularity: int
    a: Optional[float] = None

    @staticmethod
    def kdv() -> "DispersionSymbol":
        """p(xi) = -|xi|^2 (KdV-type dispersion, smooth at the origin)."""
        return DispersionSymbol(kind="kdv", origin_regularity=SMOOTH)

    @staticmethod
    def bo() -> "DispersionSymbol":
        """p(xi) = |xi| (Benjamin-Ono-type dispersion, C^0 at the origin)."""
        return DispersionSymbol(kind="bo", origin_regularity=0)

    @staticmethod
    def dgbo(a: float) -> "DispersionSymbol":
        """p(xi) = |xi|^{1+a}, a in (0,1): between BO (a=0) and KdV (a=1)."""
        if not 0.0 < a < 1.0:
            raise BadParameter(f"dgbo exponent a must lie in (0,1), got {a}")
        return DispersionSymbol(kind="dgbo", origin_regularity=1, a=a)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "kdv":
            return -np.abs(xi) ** 2
        if self.kind == "bo":
            return np.abs(xi)
        return np.abs(xi) ** (1.0 + self.a)

    def supports_decay_order(self, n: int) -> bool:
        """True when p is smooth enough (C^{n-1} at 0) for the order-n theory."""
        return self.origin_regularity >= n - 1


@dataclass(frozen=True)
class ModelParams:
    """Validated (m, n, k, eta) with the derived smoothing rate alpha.

    alpha is the short-time blow-up rate of kernel norms: 1/m when n = 1 or
    n is even (including n = 2), 1/n when n = 3 + 4d.  Always 0 < alpha <= 1/2.
    """

    m: int
    n: int
    k: int
    eta: float
    alpha: float


def smoothing_rate(m: int, n: int) -> float:
    """alpha(m, n): 1/m for n = 1 or n even, 1/n for n = 3 + 4d."""
    if n == 1 or n % 2 == 0:
        return 1.0 / m
    return 1.0 / n


def validate_params(m: int, n: int, k: int, eta: float) -> ModelParams:
    """Validate model parameters and derive alpha.

    Rejects n = 5 + 4d (d >= 0): for those, |Khat(t, xi)| ~ exp(eta|xi|^n t)
    and the construction fails.
    """
    if any(isinstance(v, bool) for v in (m, n, k)):
        raise InvalidRange(f"m, n and k must be integers, not bool: got {(m, n, k)}")
    if m not in (2, 3):
        raise InvalidRange(f"m must be 2 or 3, got {m}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidRange(f"n must be an integer >= 1, got {n}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidRange(f"k must be an integer >= 1, got {k}")
    if not eta > 0:
        raise InvalidRange(f"eta must be positive, got {eta}")
    if n % 4 == 1 and n >= 5:
        raise InvalidN(
            f"n = {n} = 5 + 4d is excluded: the kernel spectrum grows like "
            f"exp(eta |xi|^{n} t)"
        )
    return ModelParams(m=int(m), n=int(n), k=int(k), eta=float(eta),
                       alpha=smoothing_rate(m, n))


#: i^q = I_POWERS[q % 4], exact for every q: Python's 1j ** q is exact only
#: up to q = 100 (1j ** 101 has a real part of 4.4e-15), and for q <= 100
#: the table has its bits, signed zeros included
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def dissipation_symbol(xi, params: ModelParams):
    """phi_{m,n}(xi) = -eta (i^{n+1} |xi| xi^{n-1} + |xi|^m).

    Total on real xi; phi(0) = 0.  Scalar in, scalar out; arrays broadcast.
    """
    xi_arr = np.asarray(xi, dtype=float)
    absxi = np.abs(xi_arr)
    i_pow = I_POWERS[(params.n + 1) % 4]
    phi = -params.eta * (i_pow * absxi * xi_arr ** (params.n - 1) + absxi ** params.m)
    if np.isscalar(xi) or xi_arr.ndim == 0:
        return complex(phi)
    return phi


def linear_multiplier(xi, sym: DispersionSymbol, params: ModelParams):
    """L(xi) = -i p(xi) xi + phi_{m,n}(xi); Re L = Re phi."""
    xi_arr = np.asarray(xi, dtype=float)
    L = -1j * sym(xi_arr) * xi_arr + dissipation_symbol(xi_arr, params)
    if np.isscalar(xi) or xi_arr.ndim == 0:
        return complex(L)
    return L


#: half-spectrum points per block in half_spectrum_multiplier, so its
#: temporaries stay a few MB whatever the grid size
MULTIPLIER_BLOCK = 4096

#: log of the largest float64: exp overflows above it
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def check_exp_overflow(z: np.ndarray, what: str) -> None:
    """Raise BadParameter "<what> = <max Re z>, above log(float64 max) ..."
    when exp(z) would overflow float64, before it is taken."""
    growth = float(np.max(z.real))
    if growth > _LOG_FLOAT_MAX:
        raise BadParameter(f"{what} = {growth:.6g}, above log(float64 max) = "
                           f"{_LOG_FLOAT_MAX:.6g}")


def half_spectrum_multiplier(grid, sym: DispersionSymbol,
                             params: ModelParams) -> np.ndarray:
    """L(xi_j) on the rfft half-spectrum of a Grid: xi_j = j dxi, j = 0..N/2.

    L is Hermitian, L(-xi) = conj L(xi), because p is even, so exp(L t)
    keeps a field real and the half-spectrum holds all of L.  Raises
    BadParameter when some L(xi_j) is not finite (eta or the grid's xi too
    large for float64).  L is evaluated in blocks of MULTIPLIER_BLOCK
    points into the one result array.
    """
    size = grid.N // 2 + 1
    L = np.empty(size, dtype=np.complex128)
    for start in range(0, size, MULTIPLIER_BLOCK):
        xi = grid.dxi * np.arange(start, min(start + MULTIPLIER_BLOCK, size))
        block = L[start:start + xi.size]
        with np.errstate(over="ignore", invalid="ignore"):
            block[:] = linear_multiplier(xi, sym, params)
        if not np.isfinite(block).all():
            raise BadParameter(
                f"the linear symbol L(xi) is not finite on {grid!r} for eta = "
                f"{params.eta}: it overflows float64")
    return L


# ---------------------------------------------------------------------------
# Presets: the five physical models (eta stays a free parameter).
# ---------------------------------------------------------------------------

PRESET_NAMES = ("ost", "gost", "bo_perturbed", "chen_lee", "dgbo_perturbed")


def preset(name: str, eta: float = 1.0, k: int = 2, a: float = 0.5):
    """Named model presets returning (DispersionSymbol, ModelParams).

    ost             KdV dispersion, m=3, n=1, k=1   (Ostrovsky-Stepanyams-Tsimring)
    gost            KdV dispersion, m=3, n=1, k in {2,3}
    bo_perturbed    BO dispersion, m=3, n=1, k=1
    chen_lee        BO dispersion, m=2, n=1, k=1
    dgbo_perturbed  |xi|^{1+a} dispersion, m=3, n=2, k=1
    """
    if name == "ost":
        return DispersionSymbol.kdv(), validate_params(3, 1, 1, eta)
    if name == "gost":
        if k not in (2, 3):
            raise BadParameter(f"gost requires k in {{2,3}}, got {k}")
        return DispersionSymbol.kdv(), validate_params(3, 1, k, eta)
    if name == "bo_perturbed":
        return DispersionSymbol.bo(), validate_params(3, 1, 1, eta)
    if name == "chen_lee":
        return DispersionSymbol.bo(), validate_params(2, 1, 1, eta)
    if name == "dgbo_perturbed":
        return DispersionSymbol.dgbo(a), validate_params(3, 2, 1, eta)
    raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


#: the schema of a dgbo exponent a, which lies in (0, 1)
_EXPONENT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
#: preset -> the model-config keys it reads besides "preset" and "eta", each
#: with its JSON schema (stratwave.runio builds MODEL_SCHEMA from these tables)
_PRESET_READS = {"gost": {"k": {"enum": [2, 3]}}, "dgbo_perturbed": {"a": _EXPONENT}}
#: symbol kind -> the keys its symbol block reads besides "kind" (all
#: required), each with its schema; a kind names its DispersionSymbol builder
_SYMBOL_READS = {"kdv": {}, "bo": {}, "dgbo": {"a": _EXPONENT}}


def model_from_config(cfg: dict):
    """Build (sym, params) from a model-config dict: {"preset": name, "eta": ...}
    plus k for gost and a for dgbo_perturbed, or {"symbol": {"kind": ...},
    "m": ..., "n": ..., "k": ..., "eta": ...} plus symbol.a for kind dgbo.

    Every refusal raises ConfigInvalid: a config that stratwave.runio's
    MODEL_SCHEMA rejects (a missing, mistyped or out-of-range key, or one
    the model does not read) and one that validate_params rejects, such as
    n = 5 + 4d.
    """
    from .runio import MODEL_SCHEMA, validate_config    # runio imports this module

    validate_config(cfg, MODEL_SCHEMA)
    try:
        if "preset" in cfg:
            return preset(cfg["preset"], **{key: cfg[key] for key in cfg if key != "preset"})
        symbol = cfg["symbol"]
        sym = getattr(DispersionSymbol, symbol["kind"])(
            **{key: symbol[key] for key in symbol if key != "kind"})
        return sym, validate_params(cfg["m"], cfg["n"], cfg["k"], cfg["eta"])
    except (InvalidN, InvalidRange) as exc:
        raise ConfigInvalid(str(exc), path="$") from exc
