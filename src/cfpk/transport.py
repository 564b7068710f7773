"""1D optimal transport and the constrained minimizing-movement scheme.

Densities are handled through their quantile functions: the squared
Wasserstein distance is the L2 distance of quantiles, the moment constraint
is linear, and the entropy becomes -int log(dX/ds) ds, whose -log barrier
keeps quantiles monotone throughout the inner Newton solve.  Each step
minimizes  (1/2) W2^2(prev, .) + (h/tau) F(.)  over densities with prescribed
first moment; the converged KKT multiplier of the moment constraint coincides
with the discrete Lagrange multiplier

    sigma_k = int H' rho_k dx + (tau/h) int (rho_k - rho_{k-1}) x dx.

The chain never leaves quantile coordinates: it hands each step's quantile
state to the record loop, whose record side projects it to the grid
(`quantile_to_density`) for the record diagnostics.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    MEAN_TOL,
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    density_from_values,
    moments,
    require_positive,
    solve_banded,
)
from .errors import ContractViolation, StepError
from .records import TRANSPORT_COLUMNS, record_times, trajectory

KKT_TOL = 1e-9
MAX_NEWTON = 200
EPS = np.finfo(float).eps


def require_slope_scale(tau: float, h: float) -> None:
    """ContractViolation unless (tau/h)^2, the scale of a step's dissipation
    tau^2 W2sq_step / h^2, is finite, and so tau/h too."""
    ratio = tau / h
    if not math.isfinite(ratio * ratio):
        raise ContractViolation(f"(tau/h)^2 = ({tau:.3g}/{h:.3g})^2 is not finite")


def to_quantile(rho: Density, m: int) -> np.ndarray:
    """Monotone quantile samples X(s_j) at midpoint levels s_j = (j+1/2)/m:
    `np.interp` of the levels on the histogram's piecewise-linear CDF at the
    edges, whose segment cdf[j] <= s < cdf[j+1] never spans an empty cell.

    The samples are shifted by their (tiny) midpoint-sampling mean defect so
    that their sample mean equals the density's quadrature mean exactly: the
    discrete multiplier divides moment increments by the step size, so the
    representation must not leak mean error into the chain.
    """
    if m < 64:
        raise ContractViolation(f"need m >= 64 quantile samples, got {m}")
    grid = rho.grid
    cdf = np.concatenate(([0.0], np.cumsum(rho.values) * grid.dx))
    x = np.interp((np.arange(m) + 0.5) / m * cdf[-1], cdf, grid.edges)
    return x + (moments(rho)[0] - float(np.mean(x)))


def quantile_to_density(x_of_s: np.ndarray, grid: Grid) -> Density:
    """Push the uniform measure on (0,1) through the piecewise-linear quantile
    and project the resulting histogram onto the grid, matching the first
    moment of the quantile representation."""
    m = len(x_of_s)
    delta = x_of_s[1:] - x_of_s[:-1]
    if (delta <= 0.0).any():
        raise ContractViolation("quantile values must be strictly increasing")
    # segment breakpoints: half-mass end slabs at the interior density
    b = np.empty(m + 2)
    b[0], b[1:-1], b[-1] = x_of_s[0] - 0.5 * delta[0], x_of_s, x_of_s[-1] + 0.5 * delta[-1]
    q, x2 = _projection_arrays(grid, m)
    cdf_at_edges = np.interp(grid.edges, b, q, left=0.0, right=1.0)
    cell_mass = cdf_at_edges[1:] - cdf_at_edges[:-1]
    # mass outside the grid (if any) is assigned to the boundary cells
    cell_mass[0] += cdf_at_edges[0]
    cell_mass[-1] += 1.0 - cdf_at_edges[-1]
    # the projection recenters mass within cells; tilt to restore the mean
    target = float(x_of_s.sum() / m)
    x = grid.x
    m1 = float(np.dot(x, cell_mass))  # the cell masses sum to 1 up to roundoff
    var = float(np.dot(x2, cell_mass)) - m1 * m1
    alpha = (target - m1) / var if var > 0.0 else 0.0
    # x increases, so the largest |x - m1| is at an end
    if abs(alpha) * max(abs(x[0] - m1), abs(x[-1] - m1)) < 0.9:
        cell_mass *= 1.0 + alpha * (x - m1)
    return density_from_values(grid, cell_mass / grid.dx)


@lru_cache(maxsize=16)
def _projection_arrays(grid: Grid, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The CDF levels (0, (j+1/2)/m, 1) of the projection's breakpoints and
    the squared cell centers, read-only, built once per (grid, m)."""
    arrays = np.concatenate([[0.0], (np.arange(m) + 0.5) / m, [1.0]]), grid.x * grid.x
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def _entropy_weights(m: int) -> np.ndarray:
    """Increment weights of the histogram-consistent quantile entropy: the
    two half-mass end slabs share the width of their adjacent increment, so
    the end increments carry weight 3/2 and the telescoped entropy flux
    matches the full unit mass exactly.  One read-only array per m."""
    c = np.ones(m - 1)
    c[0] = 1.5
    c[-1] = 1.5
    c.setflags(write=False)
    return c


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
    positive along the backtracked line search.  Each trial point costs one
    `Potential.jet`: the merit reads H, the gradient H' and the merit's
    X - Y, and H'' is formed only for a Newton system, so never at the
    converged iterate.
    """
    m = len(y)
    nu2 = nu * nu
    cw = _entropy_weights(m)
    # the hot path spends few numpy calls per formula, and keeps each float
    # operation of the plain form: sum()/m is np.mean's own arithmetic
    x = y + (ell_k - float(y.sum() / m))  # feasible translation start

    def merit(xv: np.ndarray, delta: np.ndarray) -> tuple:
        """(merit, H, X - Y, H', H'' on demand) at xv."""
        hv, h1v, h2 = pot.jet(xv)
        step = xv - y
        value = float((step**2).sum() / (2.0 * h_eff) + hv.sum() - nu2 * (cw * np.log(delta)).sum())
        return value, hv, step, h1v, h2

    def gradient(delta: np.ndarray, step: np.ndarray, h1v: np.ndarray) -> np.ndarray:
        invd = cw / delta
        g_ent = np.concatenate((invd[:1], invd[1:] - invd[:-1], -invd[-1:]))  # diff of [0, invd, 0]
        return step / h_eff + h1v + nu2 * g_ent

    def kkt(g: np.ndarray) -> tuple[float, float]:
        # max|g - mu|: rounding is monotone and odd, so the extremes of g give it
        mu_v = float(g.sum() / m)
        return mu_v, max(float(g.max()) - mu_v, mu_v - float(g.min()))

    delta = x[1:] - x[:-1]
    if (delta <= 0.0).any():
        raise StepError("previous quantile state is not strictly monotone")

    def tol_at(xv: np.ndarray, delta_v: np.ndarray, mu_v: float) -> float:
        # roundoff floor of the gradient evaluation: the W2 term amplifies
        # position roundoff by 1/h_eff and the entropy term by 1/delta^2;
        # xv increases, so max|xv| is at an end, and max(1/delta) = 1/min(delta)
        span = float(max(abs(xv[0]), abs(xv[-1])))
        cond = span / h_eff + nu2 * (1.0 / float(delta_v.min())) ** 2 * span
        return max(KKT_TOL * max(1.0, abs(mu_v)), 32.0 * EPS * cond)

    base, hx, step, h1x, h2x = merit(x, delta)
    g = gradient(delta, step, h1x)
    mu, res = kkt(g)
    rhs = np.ones((m, 2), order="F")  # [-g, 1], in LAPACK's column order
    it = 0
    # "not <=": a NaN residual enters the loop and meets the finite check
    while not res <= (tol := tol_at(x, delta, mu)) and it < MAX_NEWTON:
        it += 1
        off = nu2 * (cw / delta**2)
        diag = 1.0 / h_eff + h2x()
        diag[:-1] += off
        diag[1:] += off
        # each entry of off went into diag, so diag's finite check covers it
        if not (np.isfinite(diag).all() and np.isfinite(g).all()):
            raise StepError(
                "non-finite Newton system in the JKO inner solve",
                diagnostics={"kkt_residual": res, "iterations": it},
            )
        np.negative(g, out=rhs[:, 0])
        shift = 0.0
        for _ in range(12):
            # solve_banded overwrites its arguments
            sol, info = solve_banded(np.negative(off), diag + shift, np.negative(off), rhs.copy(order="F"))
            if info != 0:
                shift = max(2.0 * shift, 1e-8)
                continue
            z, wvec = sol[:, 0], sol[:, 1]
            denom = float(wvec.sum())
            if denom <= 0.0:
                shift = max(2.0 * shift, 1e-8)
                continue
            p = z - (float(z.sum()) / denom) * wvec  # keeps sum(p) = 0
            slope = float(np.dot(g, p))
            if slope < 0.0:
                break
            shift = max(2.0 * shift, 1e-8)
        else:
            raise StepError(
                "inner Hessian could not be regularized", diagnostics={"kkt_residual": res}
            )
        # backtrack: feasibility of increments, then Armijo decrease up to
        # the roundoff floor of the merit sum
        t = 1.0
        floor = 64.0 * EPS * (abs(base) + float(np.abs(hx).sum()))
        for _ in range(60):
            x_try = x + p if t == 1.0 else x + t * p
            d_try = x_try[1:] - x_try[:-1]
            if d_try.min() > 0.0:  # False on a NaN increment too
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
        base, hx, step, h1x, h2x = trial
        g = gradient(delta, step, h1x)
        mu, res = kkt(g)
    if not res <= tol:  # the last iterate's tol, from the loop head
        raise StepError(
            "JKO inner solve did not reach the KKT tolerance",
            diagnostics={"kkt_residual": res, "iterations": it},
        )
    return x, mu, it, res


def jko_run(
    rho0: Density,
    path: ConstraintPath,
    h: float,
    T: float,
    pot: Potential,
    params: ModelParams,
    m: int | None = None,
    keep_quantiles: int = 0,
) -> dict[str, np.ndarray]:
    """Chain JKO steps on [0, T]; the state is carried in quantile coordinates
    between steps (no per-step grid roundtrip), and the record side of
    `records.trajectory` projects each step's quantile state to the grid for
    its record.  This is the only JKO stepping loop: one step
    from rho0 is the first record of a run with T = h.  The steps end on
    the record times other than t = 0 of an FV run with dt = h
    (`records.record_times`): t = k h, and T last, where a step that runs
    on to T (up to 2 h long) takes h_eff and D from its own length.
    Returns the trajectory of `records.trajectory`, one entry per step and
    no t = 0 row, with TRANSPORT_COLUMNS and `quantile`: as `fpsolver.run`
    keeps densities, it holds the m-sample states of rows 0, stride,
    2 stride, ... (row i is the state after step i + 1) for a
    `keep_quantiles` stride > 0, and no rows otherwise, so a chain that
    keeps none holds its current state only and its memory does not grow
    with the step count.  The scheme supplies sigma, its KKT multiplier,
    and D = tau^2 W2sq_step / h^2, the step's squared metric slope
    (Ambrosio, Gigli & Savare, Gradient Flows in Metric Spaces, ch. 3), not
    the grid formula, which the edge cells of the projected support inflate
    to thousands.  The first row's `eb_residual` is NaN, and H_q and H*
    carry the projection's floor (see `records`).  A StepError names the
    step it failed in; tau and h whose (tau/h)^2 is not finite are refused
    (`require_slope_scale`)."""
    require_positive(h=h, T=T)
    if keep_quantiles < 0:
        raise ContractViolation(f"need keep_quantiles >= 0, got {keep_quantiles}")
    _, times, stretched = record_times(T, h, 1)
    require_slope_scale(params.tau, h)
    grid, n = rho0.grid, len(times) - 1
    if m is None:
        m = max(64, grid.n)
    x0 = to_quantile(rho0, m)
    ell0 = path.ell(0.0)
    if abs(float(np.mean(x0)) - ell0) > MEAN_TOL:
        x0 = x0 + (ell0 - float(np.mean(x0)))  # translation projection onto M^ell(0)

    def states(cols: dict):
        x, kept = x0, np.empty((-(-n // keep_quantiles) if keep_quantiles else 0, m))
        for i, ell_k in enumerate(cols["ell"].tolist()):
            span = times[-1] - times[-2] if stretched and i == n - 1 else h
            try:
                x_new, mu, _, res = _inner_solve(x, ell_k, span / params.tau, pot, params.nu)
            except StepError as exc:
                exc.diagnostics["step"] = i + 1
                raise
            w2sq = float(((x_new - x) ** 2).sum() / m)
            cols["sigma"][i], cols["kkt_residual"][i], cols["W2sq_step"][i] = mu, res, w2sq
            cols["D"][i] = (params.tau / span) ** 2 * w2sq
            x = x_new
            if keep_quantiles and i % keep_quantiles == 0:
                kept[i // keep_quantiles] = x
            yield x
        cols["quantile"] = kept

    def project(x: np.ndarray) -> np.ndarray:
        return quantile_to_density(x, grid).values

    return trajectory(TRANSPORT_COLUMNS, times[1:], states, pot, grid, path, params, project=project)
