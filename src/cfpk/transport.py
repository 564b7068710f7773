"""1D optimal transport and the constrained minimizing-movement scheme.

Densities are handled through their quantile functions: the squared
Wasserstein distance is the L2 distance of quantiles, the moment constraint
is linear, and the entropy becomes -int log(dX/ds) ds, whose -log barrier
keeps quantiles monotone throughout the inner Newton solve.  Each step
minimizes  (1/2) W2^2(prev, .) + (h/tau) F(.)  over densities with prescribed
first moment; the converged KKT multiplier of the moment constraint coincides
with the discrete Lagrange multiplier

    sigma_k = int H' rho_k dx + (tau/h) int (rho_k - rho_{k-1}) x dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    density_from_values,
    entropy,
    integrate,
    moments,
    require_positive,
    step_count,
)
from .errors import ContractViolation, StepError
from .functionals import log_partition
from .records import TrajectoryRecord

KKT_TOL = 1e-9
MAX_NEWTON = 200


@dataclass(frozen=True)
class QuantileRep:
    """Monotone quantile samples X(s_j) at midpoint levels s_j = (j+1/2)/m."""

    x_of_s: np.ndarray


def to_quantile(rho: Density, m: int) -> QuantileRep:
    """Invert the piecewise-linear CDF of the cell histogram at midpoint levels.

    The samples are shifted by their (tiny) midpoint-sampling mean defect so
    that their sample mean equals the density's quadrature mean exactly: the
    discrete multiplier divides moment increments by the step size, so the
    representation must not leak mean error into the chain.
    """
    if m < 64:
        raise ContractViolation(f"need m >= 64 quantile samples, got {m}")
    grid = rho.grid
    masses = rho.values * grid.dx
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    cdf /= cdf[-1]
    s = (np.arange(m) + 0.5) / m
    idx = np.searchsorted(cdf, s, side="right") - 1
    idx = np.clip(idx, 0, grid.n - 1)
    cell_mass = np.maximum(masses[idx], 1e-320)
    x = grid.edges[idx] + (s - cdf[idx]) * grid.dx / cell_mass
    x = np.maximum.accumulate(x)  # guard monotonicity against roundoff
    x = x + (moments(rho)[0] - float(np.mean(x)))
    return QuantileRep(x_of_s=x)


def quantile_to_density(x_of_s: np.ndarray, grid: Grid) -> Density:
    """Push the uniform measure on (0,1) through the piecewise-linear quantile
    and project the resulting histogram onto the grid, matching the first
    moment of the quantile representation."""
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
    dens = density_from_values(grid, cell_mass / grid.dx)
    # the projection recenters mass within cells; tilt to restore the mean
    target = float(np.mean(x_of_s))
    m1, _, var = moments(dens)
    alpha = (target - m1) / var if var > 0.0 else 0.0
    x = grid.x
    if abs(alpha) * float(np.max(np.abs(x - m1))) < 0.9:
        dens = density_from_values(grid, dens.values * (1.0 + alpha * (x - m1)))
    return dens


def w2(rho0: Density, rho1: Density, m: int = 1024) -> float:
    """Wasserstein-2 distance via midpoint quantile sampling."""
    x0 = to_quantile(rho0, m).x_of_s
    x1 = to_quantile(rho1, m).x_of_s
    return math.sqrt(float(np.mean((x0 - x1) ** 2)))


@dataclass(frozen=True)
class JkoStepResult:
    rho_next: Density
    sigma_k: float
    w2_sq: float
    free_energy: float
    inner_iterations: int
    kkt_residual: float
    x_of_s: np.ndarray


def _entropy_weights(m: int) -> np.ndarray:
    """Increment weights of the histogram-consistent quantile entropy: the
    two half-mass end slabs share the width of their adjacent increment, so
    the end increments carry weight 3/2 and the telescoped entropy flux
    matches the full unit mass exactly."""
    c = np.ones(m - 1)
    c[0] = 1.5
    c[-1] = 1.5
    return c


def _quantile_free_energy(x: np.ndarray, pot: Potential, nu: float, logz0: float) -> float:
    m = len(x)
    log_terms = np.log(m * np.diff(x))
    s_ent = -(float(np.sum(log_terms)) + 0.5 * (log_terms[0] + log_terms[-1])) / m
    e_pot = float(np.mean(pot.h(x)))
    return nu * nu * s_ent + e_pot + nu * nu * logz0


def _inner_solve(
    y: np.ndarray,
    ell_k: float,
    h_eff: float,
    pot: Potential,
    nu: float,
) -> tuple[np.ndarray, float, int, float]:
    """Equality-constrained Newton for the quantile-coordinate JKO step.

    Stationarity in per-sample units reads
        (X_j - Y_j)/h_eff + H'(X_j) + nu^2 gS_j(X) = mu
    with the tridiagonal entropy gradient gS and scalar multiplier mu of
    mean(X) = ell_k.  The -log barrier of the entropy keeps increments
    positive along the backtracked line search.
    """
    m = len(y)
    nu2 = nu * nu
    cw = _entropy_weights(m)
    x = y + (ell_k - float(np.mean(y)))  # feasible translation start

    def merit(xv: np.ndarray, delta: np.ndarray) -> float:
        return float(
            np.sum((xv - y) ** 2) / (2.0 * h_eff)
            + np.sum(pot.h(xv))
            - nu2 * np.sum(cw * np.log(delta))
        )

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
    it = 0
    while res > tol_at(x, delta, mu) and it < MAX_NEWTON:
        it += 1
        invd2 = cw / delta**2
        diag = 1.0 / h_eff + np.asarray(pot.h2(x), dtype=float)
        diag[:-1] += nu2 * invd2
        diag[1:] += nu2 * invd2
        off = -nu2 * invd2
        shift = 0.0
        for _ in range(12):
            ab = np.zeros((3, m))
            ab[0, 1:] = off
            ab[1, :] = diag + shift
            ab[2, :-1] = off
            try:
                sol = solve_banded((1, 1), ab, np.column_stack([-g, np.ones(m)]))
            except np.linalg.LinAlgError:
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
        base = merit(x, delta)
        slope = float(np.dot(g, p))
        floor = 64.0 * np.finfo(float).eps * (abs(base) + float(np.sum(np.abs(pot.h(x)))))
        for _ in range(60):
            x_try = x + t * p
            d_try = np.diff(x_try)
            if np.all(d_try > 0.0) and merit(x_try, d_try) <= base + 1e-4 * t * slope + floor:
                break
            t *= 0.5
        else:
            raise StepError(
                "line search stagnated in the JKO inner solve",
                diagnostics={"kkt_residual": res, "iterations": it},
            )
        x, delta = x_try, d_try
        g = gradient(x, delta)
        mu = float(np.mean(g))
        res = float(np.max(np.abs(g - mu)))
    if res > tol_at(x, delta, mu):
        raise StepError(
            "JKO inner solve did not reach the KKT tolerance",
            diagnostics={"kkt_residual": res, "iterations": it},
        )
    return x, mu, it, res


def jko_step(
    rho_prev: Density,
    ell_k: float,
    h: float,
    pot: Potential,
    params: ModelParams,
    m: int | None = None,
) -> JkoStepResult:
    """One constrained minimizing-movement step from a grid density."""
    if h <= 0.0:
        raise ContractViolation("need h > 0")
    grid = rho_prev.grid
    if m is None:
        m = max(64, grid.n)
    y = to_quantile(rho_prev, m).x_of_s
    h_eff = h / params.tau
    x, mu, it, res = _inner_solve(y, ell_k, h_eff, pot, params.nu)
    logz0 = log_partition(pot, grid, params.nu)
    return JkoStepResult(
        rho_next=quantile_to_density(x, grid),
        sigma_k=mu,
        w2_sq=float(np.mean((x - y) ** 2)),
        free_energy=_quantile_free_energy(x, pot, params.nu, logz0),
        inner_iterations=it,
        kkt_residual=res,
        x_of_s=x,
    )


def jko_run(
    rho0: Density,
    path: ConstraintPath,
    h: float,
    T: float,
    pot: Potential,
    params: ModelParams,
    m: int | None = None,
) -> list[TrajectoryRecord]:
    """Chain JKO steps on [0, T]; the state is carried in quantile coordinates
    between steps (no per-step grid roundtrip) and projected to the grid for
    the per-step record."""
    require_positive(h=h, T=T)
    n_steps = step_count(T, h)
    grid = rho0.grid
    if m is None:
        m = max(64, grid.n)
    x = to_quantile(rho0, m).x_of_s
    ell0 = path.ell(0.0)
    if abs(float(np.mean(x)) - ell0) > 1e-8:
        x = x + (ell0 - float(np.mean(x)))  # translation projection onto M^ell(0)
    h_eff = h / params.tau
    logz0 = log_partition(pot, grid, params.nu)
    records = []
    hx = None
    for k in range(1, n_steps + 1):
        t_k = k * h
        ell_k = path.ell(t_k)
        try:
            x_new, mu, it, res = _inner_solve(x, ell_k, h_eff, pot, params.nu)
        except StepError as exc:
            exc.diagnostics["step"] = k
            raise
        w2sq = float(np.mean((x_new - x) ** 2))
        dens = quantile_to_density(x_new, grid)
        m1, m2, _ = moments(dens)
        s_val = entropy(dens)
        if hx is None:
            hx = np.asarray(pot.h(grid.x), dtype=float)
        e_val = integrate(hx * dens.values, grid)
        nu2 = params.nu * params.nu
        records.append(
            TrajectoryRecord(
                t=t_k,
                sigma=mu,
                ell=ell_k,
                M1=m1,
                M2=m2,
                F=nu2 * s_val + e_val + nu2 * logz0,
                S=s_val,
                E=e_val,
                W2sq_step=w2sq,
                kkt_residual=res,
                density=dens,
                quantile=x_new,
            )
        )
        x = x_new
    return records


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


def discrete_sigma_series(records: list[TrajectoryRecord]) -> SigmaSeries:
    if not records:
        raise ContractViolation("empty trajectory")
    values = np.array([r.sigma for r in records])
    h = records[0].t if len(records) == 1 else float(records[1].t - records[0].t)
    return SigmaSeries(values=values, h=h)


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


def sum_w2sq(records: list[TrajectoryRecord]) -> float:
    return float(np.sum([r.W2sq_step for r in records]))
