"""Independent oracles used to freeze expected values, and audits that
only the tests run.

The oracles are deliberately computed by a different route than the
package code: analytic Gaussian formulas, brute-force scans, bisection,
1D Newton on scalar equations, and exact piecewise integrals.

The audits (the sampled W2, the JKO multiplier series, the time-discrete
weak form, the quasistationary entropy balance and the multiplier-convergence
estimate) check the paper's statements on solver trajectories.  No CLI
command runs them, so they live with the tests that do.

The reference kernels at the end are the JKO inner solve and the quantile
projection as first written, one numpy expression per formula.  The package
computes the same float operations with fewer numpy calls, and the tests hold
it to these references bit for bit.

Last come two helpers of the process tests: `cpus`, which sets the CPU
count a run sees, and `deadline`, which fails a block that hangs.
"""

from __future__ import annotations

import math
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from cfpk.core import ConstraintPath, Density, Grid, ModelParams, Potential, density_from_values, solve_banded
from cfpk.equilibrium import N_SIGMA, gibbs, solve_lambda, tilted_family, variance_range
from cfpk.errors import ContractViolation, StepError
from cfpk.functionals import free_energy
from cfpk.transport import KKT_TOL, MAX_NEWTON, to_quantile


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


def w2(rho0: Density, rho1: Density, m: int = 1024) -> float:
    """Wasserstein-2 distance via midpoint quantile sampling."""
    x0 = to_quantile(rho0, m)
    x1 = to_quantile(rho1, m)
    return math.sqrt(float(np.mean((x0 - x1) ** 2)))



@dataclass(frozen=True)
class SigmaSeries:
    """The discrete multiplier sigma^k of a JKO chain with step h.

    sigma_h(t) holds the value of the multiplier active during its step, i.e.
    sigma^k on [(k-1)h, kh); sigma_tilde is the linear interpolant through
    (kh, sigma^k).
    """

    values: np.ndarray
    h: float

    def piecewise_constant(self, t: np.ndarray) -> np.ndarray:
        idx = np.clip(np.floor(np.asarray(t, dtype=float) / self.h).astype(int), 0, len(self.values) - 1)
        return self.values[idx]

    def sup_gap(self) -> float:
        """sup_t |sigma_h(t) - sigma_tilde_h(t)| = max adjacent increment."""
        if len(self.values) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.values))))


def discrete_sigma_series(traj: dict[str, np.ndarray]) -> SigmaSeries:
    t = traj["t"]
    if not len(t):
        raise ContractViolation("empty trajectory")
    h = float(t[0]) if len(t) == 1 else float(t[1] - t[0])
    return SigmaSeries(values=traj["sigma"], h=h)


def strided(traj: dict[str, np.ndarray], *names: str) -> list[list[float]]:
    """The `names` columns of a run as lists, every max(1, n // 400)-th
    record from the first: at most about 400 of its n records."""
    stride = max(1, len(traj["t"]) // 400)
    return [traj[name][::stride].tolist() for name in names]


def weak_form_residual(
    x_prev: np.ndarray,
    x_next: np.ndarray,
    sigma_k: float,
    h: float,
    zeta,
    zeta_x,
    zeta_xx,
    pot: Potential,
    params: ModelParams,
    sup_zeta_xx: float | None = None,
) -> tuple[float, float]:
    """Residual of the time-discrete weak formulation against a test function,
    and its theoretical bound sup|zeta''|/2 * tau * W2^2 / h.

    Push-forward integrals are evaluated exactly in quantile coordinates.
    The bound's sup defaults to the max over the current samples; pass the
    global sup for a strict audit.
    """
    nu2 = params.nu * params.nu
    time_term = params.tau * (float(np.mean(zeta(x_next))) - float(np.mean(zeta(x_prev)))) / h
    flux_term = float(
        np.mean((np.asarray(pot.h1(x_next)) - sigma_k) * zeta_x(x_next) - nu2 * zeta_xx(x_next))
    )
    residual = abs(time_term + flux_term)
    w2sq = float(np.mean((x_next - x_prev) ** 2))
    if sup_zeta_xx is None:
        sup_zeta_xx = float(np.max(np.abs(zeta_xx(x_next))))
    bound = 0.5 * sup_zeta_xx * params.tau * w2sq / h
    return residual, bound


def verify_quasistationary_derivative(
    traj: dict[str, np.ndarray],
    pot: Potential,
    path: ConstraintPath,
    params: ModelParams,
) -> float:
    """Max residual of nu^2 d/dt H(rho|gamma_{lambda(ell(t))}) = -D/tau + l'(sigma - lambda(ell))
    over interior record times, using centered differences."""
    t, h = traj["t"], traj["Hrel_quasistatic"]
    if len(t) < 3:
        raise ContractViolation("need at least 3 records for a centered difference")
    lhs = params.nu * params.nu * (h[2:] - h[:-2]) / (t[2:] - t[:-2])
    ell_dot = np.array([path.ell_dot(t_i) for t_i in t[1:-1].tolist()])
    mid = slice(1, -1)
    rhs = -traj["D"][mid] / params.tau + ell_dot * (traj["sigma"][mid] - traj["lam_ell"][mid])
    return float(np.max(np.abs(lhs - rhs)))



def sigma_convergence_constant(nu: float, pot: Potential, grid: Grid, lam_ref: float) -> float:
    """Constant C of the multiplier-convergence estimate, assembled from the
    weighted-CKP chain: C = 4 * 8 C_H^2 / min(c-,c+)^2 * (1 + log C_M)."""
    family = tilted_family(pot, grid)
    x = family.x
    c_h = float(np.max(np.abs(family.h1) / (1.0 + np.abs(x))))
    cmin = min(pot.growth_constants)
    w_vals = 0.5 * cmin * (1.0 + np.abs(x))
    gamma = gibbs(lam_ref, nu, pot, grid)
    with np.errstate(over="ignore"):
        c_m = float(np.sum(np.exp(w_vals**2) * gamma.values)) * grid.dx
    if not np.isfinite(c_m):
        raise ContractViolation("weight too strong for this reference state")
    return 4.0 * 8.0 * c_h**2 / cmin**2 * (1.0 + math.log(max(c_m, 1.0)))


def verify_sigma_convergence(
    traj: dict[str, np.ndarray],
    path: ConstraintPath,
    nu: float,
    pot: Potential,
    grid: Grid,
) -> dict:
    """Per-sample audit of (sigma - sigma*)^2 <= C H + 4 l'^2 + (2/c_var^2)(ell-ell*)^2
    and of the free-energy/relative-entropy sandwich at the limit state."""
    star = solve_lambda(path.ell_star, nu, pot, grid)
    sigma_star = star.lam
    sig, lam_vals = traj["sigma"], traj["lam_ell"]
    lo = float(min(np.min(sig), np.min(lam_vals), sigma_star)) - 1.0
    hi = float(max(np.max(sig), np.max(lam_vals), sigma_star)) + 1.0
    c_var = variance_range(np.linspace(lo, hi, N_SIGMA), nu, pot, grid)[0]
    c_chain = sigma_convergence_constant(nu, pot, grid, sigma_star)

    params = ModelParams(tau=1.0, nu=nu)
    f_star = free_energy(star.state.density, pot, params).F
    worst_sigma = -math.inf
    worst_fe = -math.inf
    worst_envelope = -math.inf
    names = ("t", "sigma", "ell", "M1", "F", "Hrel_quasistatic", "Hrel_star")
    for t, sigma, ell, m1, f, h_q, h_star in zip(*(traj[c].tolist() for c in names)):
        lhs = (sigma - sigma_star) ** 2
        rhs = (
            c_chain * max(h_q, 0.0)
            + 4.0 * path.ell_dot(t) ** 2
            + 2.0 / c_var**2 * (ell - path.ell_star) ** 2
        )
        worst_sigma = max(worst_sigma, lhs - rhs)
        # the identity holds with the state's actual mean; comparing against
        # ell(t) instead would only measure the scheme's constraint drift
        fe_residual = abs(f - f_star - nu * nu * h_star)
        worst_fe = max(worst_fe, fe_residual - abs(sigma_star) * abs(m1 - path.ell_star))
        if path.kappa is not None and path.L0 is not None:
            envelope = (
                abs(sigma_star) * path.L0 / path.kappa * math.exp(-path.kappa * t)
                + abs(sigma_star) * abs(m1 - ell)
            )
            worst_envelope = max(worst_envelope, fe_residual - envelope)
    return {
        "sigma_star": sigma_star,
        "C_chain": c_chain,
        "c_var": c_var,
        "worst_sigma_slack": worst_sigma,
        "worst_free_energy_slack": worst_fe,
        "worst_envelope_slack": worst_envelope,
        "ok": worst_sigma <= 1e-8 and worst_fe <= 1e-6,
    }


def reference_quantile_to_density(x_of_s: np.ndarray, grid: Grid) -> Density:
    """`transport.quantile_to_density` as first written: push the uniform
    measure on (0,1) through the piecewise-linear quantile and project the
    resulting histogram onto the grid, matching the first moment of the
    quantile representation."""
    m = len(x_of_s)
    delta = np.diff(x_of_s)
    if np.any(delta <= 0.0):
        raise ContractViolation("quantile values must be strictly increasing")
    # segment breakpoints: half-mass end slabs at the interior density
    b = np.concatenate(
        [[x_of_s[0] - 0.5 * delta[0]], x_of_s, [x_of_s[-1] + 0.5 * delta[-1]]]
    )
    q = np.concatenate([[0.0], (np.arange(m) + 0.5) / m, [1.0]])
    cdf_at_edges = np.interp(grid.edges, b, q, left=0.0, right=1.0)
    cell_mass = np.diff(cdf_at_edges)
    # mass outside the grid (if any) is assigned to the boundary cells
    cell_mass[0] += cdf_at_edges[0]
    cell_mass[-1] += 1.0 - cdf_at_edges[-1]
    # the projection recenters mass within cells; tilt to restore the mean
    target = float(np.mean(x_of_s))
    x = grid.x
    m1 = float(np.dot(x, cell_mass))  # the cell masses sum to 1 up to roundoff
    var = float(np.dot(x * x, cell_mass)) - m1 * m1
    alpha = (target - m1) / var if var > 0.0 else 0.0
    if abs(alpha) * float(np.max(np.abs(x - m1))) < 0.9:
        cell_mass *= 1.0 + alpha * (x - m1)
    return density_from_values(grid, cell_mass / grid.dx)


def reference_inner_solve(
    y: np.ndarray,
    ell_k: float,
    h_eff: float,
    pot: Potential,
    nu: float,
) -> tuple[np.ndarray, float, int, float]:
    """`transport._inner_solve` as first written: equality-constrained Newton
    for the quantile-coordinate JKO step, returning (X, mu, iterations,
    KKT residual)."""
    m = len(y)
    nu2 = nu * nu
    cw = np.ones(m - 1)
    cw[0] = cw[-1] = 1.5  # the half-mass end slabs
    x = y + (ell_k - float(np.mean(y)))  # feasible translation start

    def merit(xv: np.ndarray, delta: np.ndarray) -> tuple[float, np.ndarray]:
        hv = pot.h(xv)
        w2_term = np.sum((xv - y) ** 2) / (2.0 * h_eff)
        return float(w2_term + np.sum(hv) - nu2 * np.sum(cw * np.log(delta))), hv

    def gradient(xv: np.ndarray, delta: np.ndarray) -> np.ndarray:
        invd = cw / delta
        g_ent = np.diff(np.concatenate([[0.0], invd, [0.0]]))
        return (xv - y) / h_eff + np.asarray(pot.h1(xv), dtype=float) + nu2 * g_ent

    delta = np.diff(x)
    if np.any(delta <= 0.0):
        raise StepError("previous quantile state is not strictly monotone")

    def tol_at(xv: np.ndarray, delta_v: np.ndarray, mu_v: float) -> float:
        # roundoff floor of the gradient evaluation: the W2 term amplifies
        # position roundoff by 1/h_eff and the entropy term by 1/delta^2
        span = float(np.max(np.abs(xv)))
        cond = span / h_eff + nu2 * float(np.max(1.0 / delta_v)) ** 2 * span
        return max(KKT_TOL * max(1.0, abs(mu_v)), 32.0 * np.finfo(float).eps * cond)

    g = gradient(x, delta)
    mu = float(np.mean(g))
    res = float(np.max(np.abs(g - mu)))
    base, hx = merit(x, delta)  # H is evaluated once per iterate
    rhs = np.ones((m, 2), order="F")  # [-g, 1], in LAPACK's column order
    it = 0
    # "not <=": a NaN residual enters the loop and meets the finite check
    while not res <= (tol := tol_at(x, delta, mu)) and it < MAX_NEWTON:
        it += 1
        invd2 = cw / delta**2
        diag = 1.0 / h_eff + np.asarray(pot.h2(x), dtype=float)
        diag[:-1] += nu2 * invd2
        diag[1:] += nu2 * invd2
        off = -nu2 * invd2
        if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(g).all()):
            raise StepError(
                "non-finite Newton system in the JKO inner solve",
                diagnostics={"kkt_residual": res, "iterations": it},
            )
        rhs[:, 0] = -g
        shift = 0.0
        for _ in range(12):
            # solve_banded overwrites its arguments
            sol, info = solve_banded(off.copy(), diag + shift, off.copy(), rhs.copy(order="F"))
            if info != 0:
                shift = max(2.0 * shift, 1e-8)
                continue
            z, wvec = sol[:, 0], sol[:, 1]
            denom = float(np.sum(wvec))
            if denom <= 0.0:
                shift = max(2.0 * shift, 1e-8)
                continue
            p = z - (float(np.sum(z)) / denom) * wvec  # keeps sum(p) = 0
            if float(np.dot(g, p)) < 0.0:
                break
            shift = max(2.0 * shift, 1e-8)
        else:
            raise StepError(
                "inner Hessian could not be regularized", diagnostics={"kkt_residual": res}
            )
        # backtrack: feasibility of increments, then Armijo decrease up to
        # the roundoff floor of the merit sum
        t = 1.0
        slope = float(np.dot(g, p))
        floor = 64.0 * np.finfo(float).eps * (abs(base) + float(np.sum(np.abs(hx))))
        for _ in range(60):
            x_try = x + t * p
            d_try = np.diff(x_try)
            if np.all(d_try > 0.0):
                trial = merit(x_try, d_try)
                if trial[0] <= base + 1e-4 * t * slope + floor:
                    break
            t *= 0.5
        else:
            raise StepError(
                "line search stagnated in the JKO inner solve",
                diagnostics={"kkt_residual": res, "iterations": it},
            )
        x, delta = x_try, d_try
        base, hx = trial
        g = gradient(x, delta)
        mu = float(np.mean(g))
        res = float(np.max(np.abs(g - mu)))
    if not res <= tol:  # the last iterate's tol, from the loop head
        raise StepError(
            "JKO inner solve did not reach the KKT tolerance",
            diagnostics={"kkt_residual": res, "iterations": it},
        )
    return x, mu, it, res



def cpus(monkeypatch, count):
    """Let a run see `count` CPUs; None keeps those this process may use."""
    if count is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@contextmanager
def deadline(hang):
    """Fails with `hang` where the block takes over 60 s, instead of hanging."""
    def hung(signum, frame):
        raise AssertionError(hang)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
