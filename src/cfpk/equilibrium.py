"""Gibbs states, the constrained-minimizer map, and the energy landscape.

The tilted Gibbs family gamma_{sigma,nu} ~ exp(-(H - sigma x)/nu^2) contains
the constrained free-energy minimizers: lambda(ell) is the tilt whose mean is
ell.  The landscape scan measures the spinodal region, the multimodal tilt
set, tilted-potential energy barriers and variance bounds; LSI constants are
estimated from convexity or a Holley-Stroock-type perturbation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Density, Grid, Potential
from .errors import ContractViolation, GridTooSmallError, RangeError, SolverError

# solve_lambda stops when |M1(gamma_lambda) - ell| < LAMBDA_TOL
LAMBDA_TOL = 1e-10
LAMBDA_MAX_ITER = 100
# tilt samples of a landscape scan
N_SIGMA = 33


class TiltedFamily:
    """The tilted Gibbs family gamma_{sigma,nu} bound to one grid.

    x, x^2 and H(x) are evaluated once and kept as read-only arrays;
    `gibbs`, `solve_lambda`, `tilted_values` and `functionals.log_partition`
    compute from them through `evaluate` and `tilted`.
    """

    def __init__(self, pot: Potential, grid: Grid):
        x = grid.x
        self.dx = grid.dx
        self.x = x
        self.x2 = x * x
        self.h = np.asarray(pot.h(x), dtype=float)
        for arr in (self.x, self.x2, self.h):
            arr.setflags(write=False)

    def tilted(self, sigma: float) -> np.ndarray:
        """H(x) - sigma x."""
        return self.h - sigma * self.x

    def evaluate(self, sigma: float, nu: float) -> tuple[float, float, float, np.ndarray]:
        """(mean, variance, log Z, normalized values) of gamma_{sigma,nu}.

        The partition sum is taken of the max-shifted exponential, and the
        values are normalized a second time by their own midpoint sum, so a
        state carries unit mass to roundoff.
        """
        arg = -(self.h - sigma * self.x) / (nu * nu)
        shift = float(arg.max())
        w = np.exp(arg - shift)
        total = float(w.sum()) * self.dx
        if not np.isfinite(total) or total <= 0.0:
            raise GridTooSmallError(f"partition sum degenerate for sigma={sigma}, nu={nu}")
        values = w / total
        values /= float(values.sum() * self.dx)
        m1 = float((self.x * values).sum() * self.dx)
        m2 = float((self.x2 * values).sum() * self.dx)
        var = max(m2 - m1 * m1, 0.0)
        if var <= 0.0:
            raise GridTooSmallError(
                f"Gibbs state at sigma={sigma}, nu={nu} concentrates in one cell; enlarge n"
            )
        return m1, var, shift + math.log(total), values


@lru_cache(maxsize=16)
def tilted_family(pot: Potential, grid: Grid) -> TiltedFamily:
    """The family bound to (pot, grid), built once per pair."""
    return TiltedFamily(pot, grid)


@dataclass(frozen=True)
class GibbsState:
    """Tilted Gibbs density with cached partition data and moments."""

    sigma: float
    nu: float
    log_z: float
    density: Density
    mean: float
    variance: float


def _state(sigma: float, nu: float, grid: Grid, ev: tuple) -> GibbsState:
    mean, var, log_z, values = ev
    return GibbsState(
        sigma=sigma, nu=nu, log_z=log_z, density=Density(grid, values), mean=mean, variance=var
    )


def gibbs(sigma: float, nu: float, pot: Potential, grid: Grid) -> GibbsState:
    """Normalized gamma_{sigma,nu} with max-shifted partition sum."""
    return _state(sigma, nu, grid, tilted_family(pot, grid).evaluate(sigma, nu))


def mean_derivative(state: GibbsState) -> float:
    """d M1(gamma_{lambda,nu}) / d lambda = Var / nu^2."""
    return state.variance / (state.nu * state.nu)


@dataclass(frozen=True)
class LambdaSolve:
    lam: float
    state: GibbsState
    iterations: int
    residual: float


def solve_lambda(
    ell: float, nu: float, pot: Potential, grid: Grid, start: float | None = None
) -> LambdaSolve:
    """Invert M1(gamma_{lambda,nu}) = ell by safeguarded Newton.

    The map is strictly increasing with derivative Var/nu^2, so Newton is
    globally safe once a sign-change bracket is found; the bracket expands
    geometrically from lambda_0 = ell * min(c_-, c_+).  Given a `start` tilt
    (the previous solve along a moving path), Newton runs from it first; a
    step that does not reduce |M1 - ell|, or a state that degenerates, falls
    back to the bracketed solve.  `iterations` counts every Gibbs evaluation.
    """
    if not (grid.x_min < ell < grid.x_max):
        raise RangeError(f"target mean {ell} lies outside the grid [{grid.x_min}, {grid.x_max}]")
    family = tilted_family(pot, grid)
    nu2 = nu * nu

    def g(lam: float) -> tuple[float, tuple]:
        try:
            ev = family.evaluate(lam, nu)
        except GridTooSmallError as exc:
            raise RangeError(
                f"mean {ell} pushes the tilt to lambda={lam} where the state "
                f"degenerates on this grid"
            ) from exc
        return ev[0] - ell, ev

    def solved(lam: float, val: float, ev: tuple, iters: int) -> LambdaSolve:
        return LambdaSolve(lam, _state(lam, nu, grid, ev), iters, abs(val))

    iters = 0
    if start is not None:
        try:
            lam = start
            iters += 1
            val, ev = g(lam)
            for _ in range(LAMBDA_MAX_ITER):
                if abs(val) < LAMBDA_TOL:
                    return solved(lam, val, ev, iters)
                lam_new = lam - val / (ev[1] / nu2)
                iters += 1
                val_new, ev_new = g(lam_new)
                if not abs(val_new) < abs(val):
                    break
                lam, val, ev = lam_new, val_new, ev_new
        except RangeError:
            pass

    lam0 = ell * min(pot.growth_constants)
    val0, ev0 = g(lam0)
    iters += 1
    if abs(val0) < LAMBDA_TOL:
        return solved(lam0, val0, ev0, iters)

    # geometric bracket expansion; monotonicity of the mean gives the sign logic
    step = max(1.0, abs(lam0)) * 0.5
    lo, lo_val = lam0, val0
    hi, hi_val = lam0, val0
    for _ in range(80):
        if lo_val > 0.0:
            lo = lo - step
            lo_val, _ = g(lo)
            iters += 1
        elif hi_val < 0.0:
            hi = hi + step
            hi_val, _ = g(hi)
            iters += 1
        else:
            break
        step *= 2.0
    else:
        raise RangeError(
            f"mean {ell} unreachable on this grid: bracket [{lo}, {hi}] "
            f"gives means [{lo_val + ell}, {hi_val + ell}]"
        )

    lam, val, ev = (lo, lo_val, ev0) if abs(lo_val) < abs(hi_val) else (hi, hi_val, ev0)
    if lam != lam0:
        val, ev = g(lam)
        iters += 1
    for _ in range(LAMBDA_MAX_ITER):
        if abs(val) < LAMBDA_TOL:
            return solved(lam, val, ev, iters)
        lam_new = lam - val / (ev[1] / nu2)
        if not (lo <= lam_new <= hi):
            lam_new = 0.5 * (lo + hi)  # bisection fallback
        val_new, ev_new = g(lam_new)
        iters += 1
        if val_new > 0.0:
            hi, hi_val = lam_new, val_new
        else:
            lo, lo_val = lam_new, val_new
        lam, val, ev = lam_new, val_new, ev_new
    raise SolverError(
        f"lambda(ell) did not converge in {LAMBDA_MAX_ITER} iterations",
        diagnostics={"bracket": (lo, hi), "residual": val, "ell": ell},
    )


def tilted_values(sigma: float, pot: Potential, grid: Grid) -> np.ndarray:
    return tilted_family(pot, grid).tilted(sigma)


def local_minima(vals: np.ndarray) -> list[int]:
    """Interior local minima of a sampled function (plateaus count once)."""
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


def energy_barrier(sigma: float, pot: Potential, grid: Grid) -> float:
    """Largest minimax barrier from any local minimum of H - sigma*x to the
    global minimum (1D: the optimal path is the straight interval)."""
    vals = tilted_values(sigma, pot, grid)
    mins = local_minima(vals)
    if len(mins) <= 1:
        return 0.0
    g = mins[int(np.argmin(vals[mins]))]
    barrier = 0.0
    for i in mins:
        if i == g:
            continue
        lo, hi = (i, g) if i < g else (g, i)
        peak = float(np.max(vals[lo : hi + 1]))
        barrier = max(barrier, peak - float(vals[i]))
    return barrier


def is_multimodal(sigma: float, pot: Potential, grid: Grid) -> bool:
    """True when H'(x) = sigma has more than one grid-resolved solution."""
    diffs = np.asarray(pot.h1(grid.x), dtype=float) - sigma
    signs = np.sign(diffs)
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return False
    return int(np.sum(signs[1:] != signs[:-1])) >= 2


@dataclass(frozen=True)
class LandscapeReport:
    spinodal_measure: float
    sigma_set: list[tuple[float, float]]
    delta_h_star: float
    c_var: float
    C_var: float
    lsi_samples: list[tuple[float, float, str]]

    def to_dict(self) -> dict:
        return {
            "spinodal_measure": self.spinodal_measure,
            "sigma_intervals": [list(iv) for iv in self.sigma_set],
            "delta_h_star": self.delta_h_star,
            "c_var": self.c_var,
            "C_var": self.C_var,
            "lsi_samples": [
                {"sigma": s, "C_lsi": c, "method": m} for (s, c, m) in self.lsi_samples
            ],
        }


def landscape(
    nu: float,
    pot: Potential,
    grid: Grid,
    sigma_range: tuple[float, float] = (-3.0, 3.0),
) -> LandscapeReport:
    """Scan the tilt axis: spinodal measure, multimodal intervals, barriers,
    variance bounds, and per-tilt LSI estimates."""
    x = grid.x
    h2x = np.asarray(pot.h2(x), dtype=float)
    spinodal = float(np.sum(h2x <= 0.0)) * grid.dx

    sigmas = np.linspace(sigma_range[0], sigma_range[1], N_SIGMA)
    multi = np.array([is_multimodal(s, pot, grid) for s in sigmas])

    def refine(s_in: float, s_out: float) -> float:
        # bisect the multimodality boundary to 1e-6
        for _ in range(60):
            mid = 0.5 * (s_in + s_out)
            if is_multimodal(mid, pot, grid):
                s_in = mid
            else:
                s_out = mid
            if abs(s_out - s_in) < 1e-6:
                break
        return 0.5 * (s_in + s_out)

    intervals: list[tuple[float, float]] = []
    i = 0
    while i < N_SIGMA:
        if multi[i]:
            j = i
            while j + 1 < N_SIGMA and multi[j + 1]:
                j += 1
            left = refine(sigmas[i], sigmas[i - 1]) if i > 0 else sigmas[0]
            right = refine(sigmas[j], sigmas[j + 1]) if j + 1 < N_SIGMA else sigmas[-1]
            intervals.append((left, right))
            i = j + 1
        else:
            i += 1

    delta_h_star = max((energy_barrier(float(s), pot, grid) for s in sigmas[multi]), default=0.0)

    variances = np.array([gibbs(float(s), nu, pot, grid).variance for s in sigmas])
    lsi_samples = []
    for s in sigmas:
        c, method = lsi_constant(float(s), nu, pot, grid)
        lsi_samples.append((float(s), c, method))

    return LandscapeReport(
        spinodal_measure=spinodal,
        sigma_set=intervals,
        delta_h_star=delta_h_star,
        c_var=float(np.min(variances)),
        C_var=float(np.max(variances)),
        lsi_samples=lsi_samples,
    )


def lsi_constant(sigma: float, nu: float, pot: Potential, grid: Grid) -> tuple[float, str]:
    """Log-Sobolev constant estimate for gamma_{sigma,nu}.

    Uniformly convex potentials give 1/k independent of sigma and nu.
    Otherwise a Holley-Stroock-type bound nu^-2 * 2 exp(2 C_H,sigma / nu^2)
    / min(c_-, c_+) is returned, where C_H,sigma is the energy barrier of the
    tilted potential.  The plain lower-hull oscillation is tilt-independent
    (envelopes commute with affine shifts) and therefore cannot reproduce the
    barrier's decay as sigma leaves the multimodal set; the barrier is the
    quantity the relaxation-rate scaling actually follows.
    """
    k = pot.convexity_lower_bound
    if k is not None and k > 0.0:
        return 1.0 / k, "convex"
    c_minus, c_plus = pot.growth_constants
    cmin = min(c_minus, c_plus)
    if cmin <= 0.0:
        raise ContractViolation("Holley-Stroock branch needs positive growth constants")
    nu2 = nu * nu
    osc = energy_barrier(sigma, pot, grid)
    return (2.0 / nu2) * math.exp(2.0 * osc / nu2) / cmin, "holley_stroock"
