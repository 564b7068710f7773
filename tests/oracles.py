"""Independent oracles used to freeze expected values.

Everything here is deliberately computed by a different route than the
package code: analytic Gaussian formulas, brute-force scans, bisection,
1D Newton on scalar equations, and exact piecewise integrals.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian_entropy(var: float) -> float:
    """int rho log rho for N(m, var)."""
    return -0.5 * math.log(2.0 * math.pi * math.e * var)


def gaussian_kl(m1: float, v1: float, m0: float, v0: float) -> float:
    """KL(N(m1,v1) || N(m0,v0))."""
    return 0.5 * (v1 / v0 + (m1 - m0) ** 2 / v0 - 1.0 + math.log(v0 / v1))


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_l1_distance(m: float) -> float:
    """int |N(m,1) - N(0,1)|, densities crossing at m/2."""
    return 2.0 * (2.0 * normal_cdf(m / 2.0) - 1.0)


def gaussian_w2(m0: float, v0: float, m1: float, v1: float) -> float:
    return math.sqrt((m0 - m1) ** 2 + (math.sqrt(v0) - math.sqrt(v1)) ** 2)


def bisect_lambda(ell: float, nu: float, pot, grid, lo: float, hi: float, tol: float = 1e-12):
    """Bisection on M1(gamma_lambda) = ell, independent of the Newton path."""
    x = grid.x
    h = np.asarray(pot.h(x), dtype=float)

    def mean_of(lam: float) -> float:
        arg = (-(h - lam * x)) / (nu * nu)
        w = np.exp(arg - np.max(arg))
        return float(np.sum(x * w) / np.sum(w))

    flo, fhi = mean_of(lo) - ell, mean_of(hi) - ell
    assert flo < 0.0 < fhi, "oracle bracket invalid"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = mean_of(mid) - ell
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def scan_barrier(pot, sigma: float, lo: float = -8.0, hi: float = 8.0, n: int = 200001) -> float:
    """Brute-force barrier of H - sigma x: largest (peak between a local and
    the global minimum) minus the local minimum value."""
    x = np.linspace(lo, hi, n)
    v = np.asarray(pot.h(x), dtype=float) - sigma * x
    mins = [i for i in range(1, n - 1) if v[i] < v[i - 1] and v[i] <= v[i + 1]]
    if len(mins) < 2:
        return 0.0
    g = mins[int(np.argmin(v[mins]))]
    best = 0.0
    for i in mins:
        if i == g:
            continue
        a, b = sorted((i, g))
        best = max(best, float(np.max(v[a : b + 1])) - float(v[i]))
    return best


def local_minima_loop(vals) -> list[int]:
    """Interior local minima of a sampled function (plateaus count once), by
    a scan over the samples."""
    out = []
    n = len(vals)
    i = 1
    while i < n - 1:
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            j = i
            while j + 1 < n - 1 and vals[j + 1] == vals[i]:
                j += 1
            if j + 1 < n and vals[j + 1] > vals[i]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return out


def scan_sigma_c(pot, lo: float = -8.0, hi: float = 8.0, n: int = 400001) -> float:
    """Edge of the multimodal tilt set: largest local max of H' over the
    region where H' decreases."""
    x = np.linspace(lo, hi, n)
    h1 = np.asarray(pot.h1(x), dtype=float)
    dec = np.diff(h1) < 0.0
    return float(np.max(h1[:-1][dec])) if np.any(dec) else 0.0


def jko_gaussian_step_variance(v0: float, h: float) -> float:
    """Exact one-step minimizer of (s-s0)^2/2 + h(s^2/2 - log s) over s=sqrt(v)
    (the Gaussian-family minimizing movement for H = x^2/2, nu = 1)."""
    s = math.sqrt(v0)
    s0 = s
    for _ in range(100):
        f = s - s0 + h * (s - 1.0 / s)
        fp = 1.0 + h * (1.0 + 1.0 / (s * s))
        step = f / fp
        s -= step
        if abs(step) < 1e-15:
            break
    return s * s


def quantile_free_energy(x: np.ndarray, pot, nu: float, logz0: float) -> float:
    """F = nu^2 S + E + nu^2 log Z0 of a quantile chain state, written directly
    in quantile coordinates (histogram-consistent entropy with half-weight end
    increments), not through the grid projection the records use."""
    m = len(x)
    log_terms = np.log(m * np.diff(x))
    s_ent = -(float(np.sum(log_terms)) + 0.5 * (log_terms[0] + log_terms[-1])) / m
    e_pot = float(np.mean(pot.h(x)))
    return nu * nu * s_ent + e_pot + nu * nu * logz0


def exact_w2_histograms(rho0, rho1) -> float:
    """Exact Wasserstein-2 distance between two cell-histogram densities.

    The optimal 1D coupling is the monotone one, so W2^2 equals the exact
    integral of (X0(s) - X1(s))^2 over s in (0,1), where both quantiles are
    piecewise linear.  Integrate the quadratic on every merged piece by
    Simpson (exact for quadratics).
    """

    def breaks(rho):
        masses = rho.values * rho.grid.dx
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        cdf /= cdf[-1]
        return cdf, rho.grid.edges

    c0, e0 = breaks(rho0)
    c1, e1 = breaks(rho1)
    s_pts = np.unique(np.clip(np.concatenate([c0, c1]), 0.0, 1.0))

    def quantile(cdf, edges, s):
        idx = np.clip(np.searchsorted(cdf, s, side="right") - 1, 0, len(edges) - 2)
        denom = cdf[idx + 1] - cdf[idx]
        frac = np.where(denom > 0.0, (s - cdf[idx]) / np.maximum(denom, 1e-300), 0.0)
        return edges[idx] + frac * (edges[idx + 1] - edges[idx])

    total = 0.0
    for a, b in zip(s_pts[:-1], s_pts[1:]):
        if b - a <= 0.0:
            continue
        ss = np.array([a, 0.5 * (a + b), b])
        d = quantile(c0, e0, ss) - quantile(c1, e1, ss)
        total += (b - a) / 6.0 * (d[0] ** 2 + 4.0 * d[1] ** 2 + d[2] ** 2)
    return math.sqrt(total)


def quadrature_antiderivative(f_anti, a: float, b: float) -> float:
    """Definite integral from an analytic antiderivative."""
    return f_anti(b) - f_anti(a)


def constrained_gap_dense(ell: float, nu: float, pot, grid, tau: float = 1.0) -> float:
    """2 mu_1 of the linearized constrained Chang-Cooper generator by dense
    eigenvalues.

    M = A - b (x^T A)/(x^T b) at sigma = lambda(ell) (bisected), with
    b = d/dsigma [A(sigma) gamma] taken by a complex step: one evaluation of
    A at sigma + i*eps gives A in its real part and eps*b in its imaginary
    part.  mu_1 is the third smallest -Re(eig M), past the mass and mean
    null modes.  The weights need |(H_{i+1} - H_i - sigma dx)/nu^2| below
    ~700, where e^w still fits a float.
    """
    n, dx, nu2 = grid.n, grid.dx, nu * nu
    x = grid.x
    h = np.asarray(pot.h(x), dtype=float)
    lam = bisect_lambda(ell, nu, pot, grid, -10.0, 10.0)
    eps = 1e-30
    w = (np.diff(h) - complex(lam, eps) * dx) / nu2

    def bernoulli(u):
        """u / (e^u - 1); its Taylor series near 0, where the quotient
        cancels in the complex step."""
        small = np.abs(u.real) < 1e-2
        safe = np.where(small, 1.0, u)
        return np.where(small, 1.0 - u / 2.0 + u**2 / 12.0 - u**4 / 720.0, safe / np.expm1(safe))

    lower, upper = bernoulli(w), bernoulli(-w)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    a = np.zeros((n, n), dtype=complex)
    i = np.arange(n - 1)
    a[i, i] -= lower
    a[i, i + 1] += upper
    a[i + 1, i + 1] -= upper
    a[i + 1, i] += lower
    a *= nu2 / (tau * dx * dx)
    arg = -(h - lam * x) / nu2
    gamma = np.exp(arg - np.max(arg))
    gamma /= np.sum(gamma)
    b = (a @ gamma).imag / eps
    a = a.real
    m = a - np.outer(b, x @ a) / (x @ b)
    rates = np.sort(-np.linalg.eigvals(m).real)
    return 2.0 * float(rates[2])


def gibbs_relative_entropy(r, x, h, sigma: float, nu: float, dx: float) -> float:
    """H(rho | gamma_{sigma,nu}) in long double, with no value of gamma formed.

    Sums rho (log rho - (sigma x - H)/nu^2 + log Z) over the cells with
    rho > 0, where log Z = log sum exp((sigma x - H)/nu^2) dx is its own
    max-shifted long-double sum; so it stays finite where gamma underflows.
    """
    ld = np.longdouble
    r, x, h = (np.asarray(a, dtype=ld) for a in (r, x, h))
    arg = (ld(sigma) * x - h) / (ld(nu) * ld(nu))
    shift = np.max(arg)
    log_z = shift + np.log(np.sum(np.exp(arg - shift)) * ld(dx))
    pos = r > 0
    return float(np.sum(r[pos] * (np.log(r[pos]) - arg[pos] + log_z)) * ld(dx))
