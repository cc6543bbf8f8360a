"""Independent oracles for expected-value tests.

Everything here deliberately avoids the package's FFT/vectorized paths:
the dissipation symbol is re-derived from its piecewise definition, the
kernel from direct adaptive quadrature of the oscillatory integral, and the
amplification bound from 1-D maximization.  Expected values frozen into the
tests were computed with these routines.
"""

import math

import numpy as np
from scipy import integrate, optimize


def phi_piecewise(xi: float, m: int, n: int, eta: float) -> complex:
    """Dissipation symbol from its half-line branches.

    xi < 0:  eta (i^{n+1} xi^n - (-xi)^m)
    xi >= 0: -eta (i^{n+1} xi^n + xi^m)
    """
    ip = (1j) ** (n + 1)
    if xi < 0:
        return eta * (ip * xi ** n - (-xi) ** m)
    return -eta * (ip * xi ** n + xi ** m)


def kernel_quadrature(t: float, x: float, m: int, n: int, eta: float, p,
                      xi_max: float = None, limit: int = 20000) -> complex:
    """K(t, x) = (1/2pi) int e^{i x xi} e^{(-i p xi + phi) t} dxi by scipy quad.

    Split at the xi = 0 kink; xi_max chosen where the integrand is below
    1e-18 of its peak.
    """
    if xi_max is None:
        # solve eta*xi^m*t = 45 for the decay scale (plus n=1 amplification slack)
        xi_max = (50.0 / (eta * t)) ** (1.0 / m) + 2.0

    def integrand(xi, part):
        val = np.exp(1j * x * xi + (-1j * p(xi) * xi + phi_piecewise(xi, m, n, eta)) * t)
        return val.real if part == "re" else val.imag

    out = 0.0 + 0.0j
    for lo, hi in ((-xi_max, 0.0), (0.0, xi_max)):
        re, _ = integrate.quad(integrand, lo, hi, args=("re",), limit=limit,
                               epsabs=1e-13, epsrel=1e-10)
        im, _ = integrate.quad(integrand, lo, hi, args=("im",), limit=limit,
                               epsabs=1e-13, epsrel=1e-10)
        out += re + 1j * im
    return out / (2.0 * np.pi)


def amplification_max(m: int, eta: float = 1.0) -> float:
    """max over r >= 0 of eta (r - r^m) by golden-section search."""
    res = optimize.minimize_scalar(lambda r: -(eta * (r - r ** m)),
                                   bounds=(0.0, 2.0), method="bounded",
                                   options={"xatol": 1e-12})
    return float(-res.fun)


def leading_jump_reference(m: int, n: int, eta: float) -> complex:
    """Boundary-jump constant evaluated independently from the tail series.

    n = 1: 2 eta; n = 2: -4 i eta; n >= 3: 2 eta (i^{n+1} n! + c_m) with
    c_m = 6 only for (n, m) = (3, 3).
    """
    if n == 1:
        return 2.0 * eta + 0j
    if n == 2:
        return -4j * eta
    c_m = 6.0 if (n == 3 and m == 3) else 0.0
    return 2.0 * eta * ((1j) ** (n + 1) * math.factorial(n) + c_m)


def _phi_contour(z: np.ndarray, order: int, points: int = 64) -> np.ndarray:
    """phi_1 or phi_2 of z by the contour mean of Kassam & Trefethen (2005).

    Averages the closed form over a unit circle around each z, which avoids
    the cancellation of the closed form near z = 0 without a series switch.
    """
    r = np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    w = z[:, None] + r[None, :]
    if order == 1:
        vals = (np.exp(w) - 1.0) / w
    else:
        vals = (np.exp(w) - 1.0 - w) / w ** 2
    return vals.mean(axis=1)


def etd2_reference(u0: np.ndarray, L_dx: float, m: int, n: int, k: int,
                   eta: float, p, dt: float, n_steps: int) -> list:
    """Complex-FFT ETD2 (Cox & Matthews 2002) on the full spectrum.

    u0 are N samples on [-L_dx, L_dx); the symbol is rebuilt from
    phi_piecewise and p, the dealias rule keeps |j| <= N/(k+2).  Returns the
    physical samples after each of the n_steps steps.
    """
    N = len(u0)
    j = np.fft.fftfreq(N, d=1.0 / N)
    xi = (np.pi / L_dx) * j
    L = np.array([-1j * float(p(x)) * x + phi_piecewise(x, m, n, eta) for x in xi])
    keep = (np.abs(j) <= N / (k + 2)).astype(float)
    E = np.exp(L * dt)
    c1 = dt * _phi_contour(L * dt, 1)
    c2 = dt * _phi_contour(L * dt, 2)

    def nonlin(uh):
        u = np.fft.ifft(uh)
        return -(1j * xi / (k + 1)) * np.fft.fft(u ** (k + 1)) * keep

    uh = np.fft.fft(np.asarray(u0, dtype=complex)) * keep
    out = []
    for _ in range(n_steps):
        n0 = nonlin(uh)
        a = E * uh + c1 * n0
        uh = a + c2 * (nonlin(a) - n0)
        out.append(np.fft.ifft(uh))
    return out


def picard_reference(u0: np.ndarray, L_dx: float, m: int, n: int, k: int,
                     eta: float, p, dt: float, n_steps: int, tol: float,
                     max_iter: int = 30, linear_only: bool = False):
    """Duhamel/Picard iteration by the direct O(M^2) sum on the full spectrum.

    Each iterate is rebuilt from scratch on the step grid,

        new[i] = e^{L i dt} u0hat + dt sum_{l<i} e^{L (i-l-1/2) dt} N_l,

    N_l the nonlinearity at the endpoint average (old[l] + old[l+1]) / 2,
    with one stored propagator per time offset.  Iterates until
    max_i ||new[i] - old[i]||_2 < tol.  Returns the physical samples at
    n_steps dt and (iterations, converged, final update).
    """
    N = len(u0)
    dx = 2.0 * L_dx / N
    j = np.fft.fftfreq(N, d=1.0 / N)
    xi = (np.pi / L_dx) * j
    L = np.array([-1j * float(p(x)) * x + phi_piecewise(x, m, n, eta) for x in xi])
    keep = (np.abs(j) <= N / (k + 2)).astype(float)

    def nonlin(uh):
        if linear_only:
            return np.zeros_like(uh)
        u = np.fft.ifft(uh)
        return -(1j * xi / (k + 1)) * np.fft.fft(u ** (k + 1)) * keep

    def norm(uh):
        return math.sqrt(float(np.sum(np.abs(uh) ** 2)) * dx / N)

    M = n_steps
    u0h = np.fft.fft(np.asarray(u0, dtype=complex)) * keep
    full = [np.exp(L * (i * dt)) for i in range(M + 1)]
    half = [None] + [np.exp(L * ((d - 0.5) * dt)) for d in range(1, M + 1)]
    traj = [full[i] * u0h for i in range(M + 1)]
    diff = None
    for it in range(1, max_iter + 1):
        mids = [nonlin(0.5 * (traj[i] + traj[i + 1])) for i in range(M)]
        new = [traj[0]]
        for i in range(1, M + 1):
            acc = full[i] * u0h
            for l in range(i):
                acc = acc + dt * half[i - l] * mids[l]
            new.append(acc)
        diff = max(norm(new[i] - traj[i]) for i in range(1, M + 1))
        traj = new
        if diff < tol:
            return np.fft.ifft(traj[M]), (it, True, diff)
    return np.fft.ifft(traj[M]), (max_iter, False, diff)


def fft_j(grid) -> np.ndarray:
    """Integer wavenumbers of a Grid in FFT order: 0..N/2-1, then -N/2..-1."""
    j = np.arange(grid.N, dtype=np.int64)
    j[grid.N // 2:] -= grid.N
    return j


def fft_xi(grid) -> np.ndarray:
    """Angular frequencies xi_j = dxi j in FFT order."""
    return grid.dxi * fft_j(grid)


def _full_sign(grid) -> np.ndarray:
    # the (-1)^j phase of the grid origin x = -L, in FFT order
    sign = np.ones(grid.N)
    sign[1::2] = -1.0
    return sign


def to_spectral_complex(grid, samples) -> np.ndarray:
    """spectral.to_spectral for complex samples, which a Field cannot hold."""
    return grid.dx * _full_sign(grid) * np.fft.fft(np.asarray(samples, dtype=complex))


def to_physical(grid, coeffs) -> np.ndarray:
    """Inverse of the full-spectrum transform: complex physical samples.

    The package's inverse before every field became real (it now inverts
    half-spectra only, from_half_spectrum), kept as the reference for it.
    """
    return np.fft.ifft(coeffs * _full_sign(grid)) / grid.dx


def derivative(grid, samples) -> np.ndarray:
    """Spectral derivative (multiplier i xi) of complex samples; the Nyquist
    mode is zeroed.  Exact for band-limited trigonometric polynomials."""
    mult = 1j * fft_xi(grid)
    mult[fft_j(grid) == -grid.N // 2] = 0.0
    return to_physical(grid, mult * to_spectral_complex(grid, samples))


def hilbert(grid, samples) -> np.ndarray:
    """Hilbert transform of complex samples: multiplier i sign(xi), with
    sign(0) = 0."""
    mult = 1j * np.sign(fft_xi(grid))
    return to_physical(grid, mult * to_spectral_complex(grid, samples))


def dealias_mask(j, N: int, k: int) -> np.ndarray:
    """The generalized 2/3-rule for u^{k+1}: keep the modes |j| <= N/(k+2)."""
    return np.abs(j) <= N / (k + 2)


def dealias(grid, coeffs, k: int) -> np.ndarray:
    """Zero the full-spectrum coefficients that dealias_mask drops;
    idempotent, norm non-increasing: the rule on the full FFT-ordered
    spectrum."""
    return np.where(dealias_mask(fft_j(grid), grid.N, k), coeffs, 0.0)


def dissipation_rate(grid, coeffs, params) -> float:
    """(1/2) d/dt ||u||_2^2 under the linear flow, from the full spectrum:

    -eta sum Re(i^{n+1}|xi| xi^{n-1} + |xi|^m) |uhat|^2 dxi / 2pi.

    For n even the i-term has odd real part and contributes nothing; for
    n = 1 the rate can be positive on data supported in |xi| < 1.  The
    full-spectrum rate that EtdPropagator's dissipation monitor replaced,
    kept as its reference.
    """
    xi = fft_xi(grid)
    absxi = np.abs(xi)
    sym_real = np.real(
        1j ** (params.n + 1) * absxi * xi ** (params.n - 1)
    ) + absxi ** params.m
    total = np.sum(sym_real * np.abs(coeffs) ** 2)
    return float(-params.eta * total * grid.dxi / (2.0 * np.pi))


def csv_reference(f, path) -> None:
    """The per-row CSV writer: one f-string and one write call per row.

    Kept verbatim as the byte-for-byte reference for the block writer.
    """
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xv, sv in zip(f.grid.x, f.samples):
            fh.write(f"{xv:.17g},{sv.real:.17g},{sv.imag:.17g}\n")


def csv_read_reference(path):
    """The whole-table CSV reader: one np.loadtxt of the N x 3 table.

    Kept as the reference for the block reader field_from_csv, which must
    give the same bits, or the same exception type and message prefix, on
    every file but one with a '#' (a comment here, a bad value there).  Its
    im column must be 0 (of either sign) on every row.
    """
    from stratwave.errors import BadParameter, GridMismatch
    from stratwave.spectral import Field, Grid

    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise BadParameter(f"{path}: not a numeric (x, re, im) CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise BadParameter(f"{path}: expected 3 columns (x, re, im)")
    x = data[:, 0]
    grid = Grid(len(x), -x[0])
    gap = x - grid.x            # one buffer, freed before samples is allocated
    np.abs(gap, out=gap)
    if not np.all(gap <= 1e-12 * grid.L):
        raise GridMismatch(f"{path}: CSV x column does not match {grid!r}")
    del gap
    if np.any(data[:, 2] != 0):                  # nan included
        raise BadParameter(f"{path}: expected real data; the im column is not 0")
    return Field(grid=grid, samples=data[:, 1])


def energy_csv_reference(traj, path) -> None:
    """The per-row energy.csv writer of `stratwave simulate`, kept verbatim."""
    with open(path, "w") as fh:
        fh.write("t,l2,dissipation\n")
        for t, e, d in zip(traj.energy_times, traj.energy_series,
                           traj.dissipation_series):
            fh.write(f"{t:.17g},{e:.17g},{d:.17g}\n")


def kernel_reference(t, grid, sym, params, derivative=False):
    """K(t, .), or d_x K with derivative=True, by the complex full-spectrum
    ifft of Khat (times i xi) on all N modes: complex samples.

    The builder kernel_field and kernel_derivative_field used before their
    irfft half-spectrum builds, kept as their reference, with its own
    exp(L(xi) t) on every mode; its imaginary part is rounding noise.
    """
    from stratwave.model import linear_multiplier

    xi = fft_xi(grid)
    coeffs = np.exp(linear_multiplier(xi, sym, params) * t)
    if derivative:
        coeffs = 1j * xi * coeffs
    return to_physical(grid, coeffs)


def convolve_reference(f, g):
    """(f*g)(x) by the complex full-spectrum transform pair: complex samples."""
    from stratwave.spectral import to_spectral

    return to_physical(f.grid, to_spectral(f) * to_spectral(g))


def verify_pointwise_bound(kernel, t, sym, params, window=None) -> dict:
    """kernel_report of K(t, .); passed when fitted_C is finite and within
    10% of refined_C, t^alpha sup |K| (1 + |x|^{n+1}) over the same window
    on a grid of doubled N.

    The package's doubled-N stability check of the pointwise kernel bound,
    kept as a reference for kernel_report and for the kernel's refinement.
    """
    from stratwave.analysis import kernel_report
    from stratwave.kernel import kernel_field
    from stratwave.spectral import Grid

    report = kernel_report(kernel, t, sym, params, window)
    fitted_C, (a, b) = report["fitted_C"], report["window"]
    refined = kernel_field(t, Grid(2 * kernel.grid.N, kernel.grid.L), sym, params)
    ax = np.abs(refined.grid.x)
    inside = (ax >= a) & (ax <= b)
    weighted = np.abs(refined.samples[inside]) * (1.0 + ax[inside] ** (params.n + 1))
    refined_C = float(np.max(weighted) * t ** params.alpha)
    stable = abs(refined_C - fitted_C) <= 0.10 * fitted_C
    return {**report, "refined_C": refined_C,
            "passed": bool(np.isfinite(fitted_C) and stable)}


def fitted_growth_constant(sym, sigma: float, xi_max: float = 256.0,
                           npts: int = 4096) -> float:
    """Empirical c with |p(xi)| <= c |xi|^sigma on a sampled log range: the
    check of a symbol's growth exponent sigma."""
    xi = np.logspace(-3, np.log10(xi_max), npts)
    vals = np.abs(np.asarray(sym(xi), dtype=float))
    c = float(np.max(vals / xi ** sigma))
    assert np.isfinite(c), "growth constant not finite on sampled range"
    return c


class FullHalfSpectrumEtd:
    """The ETD2 stepper on all N/2 + 1 rfft modes, with the dealias mask
    applied as a multiplier.

    The EtdPropagator that stepped every half-spectrum mode, zeros above the
    cutoff included, before states were cut to the kept modes; kept
    verbatim as the bit-for-bit reference for the kept-mode stepper.
    """

    def __init__(self, grid, sym, params, dt):
        from stratwave.model import half_spectrum_multiplier
        from stratwave.solver import _phi

        self.grid = grid
        self.k = params.k
        j = np.arange(grid.N // 2 + 1)
        xi = grid.dxi * j
        self.L = half_spectrum_multiplier(grid, sym, params)
        z = self.L * dt
        self.exp_full = np.exp(z)
        self.coeff1 = dt * _phi(z, 1)
        self.coeff2 = dt * _phi(z, 2)
        self.mask = dealias_mask(j, grid.N, self.k).astype(float)
        self.nl_mult = -(1j * xi / (self.k + 1)) * self.mask
        self.weight = (np.where((j == 0) | (j == grid.N // 2), 1.0, 2.0)
                       * grid.dx / grid.N)
        self.rate_weight = self.L.real * self.weight

    def forward(self, u):
        return np.fft.rfft(u.samples) * self.mask

    def physical(self, uhat):
        return np.fft.irfft(uhat, n=self.grid.N)

    def energy(self, uhat):
        return float(np.sqrt(np.dot(self.weight, uhat.real ** 2 + uhat.imag ** 2)))

    def dissipation(self, uhat):
        return float(np.dot(self.rate_weight, uhat.real ** 2 + uhat.imag ** 2))

    def nonlinear(self, uhat):
        u = np.fft.irfft(uhat, n=self.grid.N)
        return self.nl_mult * np.fft.rfft(u ** (self.k + 1))

    def step(self, uhat):
        n0 = self.nonlinear(uhat)
        a = self.exp_full * uhat + self.coeff1 * n0
        return a + self.coeff2 * (self.nonlinear(a) - n0)


def picard_streamed_reference(sym, params, u0, cfg):
    """picard_solve with one nonlinear evaluation, one irfft/rfft pair, per
    step.

    The streamed loop picard_solve ran before it evaluated its midpoint terms
    in blocks of steps, kept verbatim (less the memory guard) as the
    bit-for-bit reference for the blocked one.  Returns (field at T, report)
    as picard_solve does.
    """
    from stratwave.errors import NoContraction
    from stratwave.solver import PICARD_MAX_ITER, EtdPropagator

    M, snap_at = cfg.n_steps, cfg.snapshot_steps
    dt = cfg.dt
    prop = EtdPropagator(u0.grid, sym, params, dt, cfg.linear_only)
    E = prop.exp_full
    dt_E_half = dt * np.exp(prop.L * (0.5 * dt))

    traj = np.empty((M + 1, E.size), dtype=complex)
    traj[0] = prop.forward(u0)
    for i in range(1, M + 1):
        traj[i] = E * traj[i - 1]
    old = np.empty_like(E)          # old[i-1] once traj[i-1] holds new[i-1]
    norms = np.empty(M)

    factors = []
    prev_diff = None
    converged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(PICARD_MAX_ITER):
            iterations = it + 1
            old[:] = traj[0]
            for i in range(1, M + 1):
                mid = prop.nonlinear(0.5 * (old + traj[i]))
                old[:] = traj[i]
                traj[i] = E * traj[i - 1] + dt_E_half * mid
                norms[i - 1] = prop.monitors(traj[i] - old)[0]
            diff = float(np.max(norms))
            if not np.isfinite(diff):
                diff = np.inf
            if prev_diff is not None and prev_diff > 0:
                factors.append(diff / prev_diff if np.isfinite(diff) else np.inf)
                if len(factors) >= 3 and all(f > 1.0 for f in factors[-3:]):
                    raise NoContraction(
                        f"contraction factors {factors[-3:]} exceed 1 for 3 "
                        f"consecutive iterations (T = {cfg.T} too large)")
            prev_diff = diff
            if diff < cfg.picard_tol:
                converged = True
                break
    snapshots = [(step * dt, prop.physical(traj[step])) for step in snap_at]
    report = {
        "iterations": iterations,
        "contraction_factors": factors,
        "converged": converged,
        "final_update": prev_diff,
        "snapshots": snapshots,
    }
    final = snapshots[-1][1] if M in snap_at else prop.physical(traj[M])
    return final, report
