"""Gibbs states, the constrained-minimizer map, and the energy landscape.

The tilted Gibbs family gamma_{sigma,nu} ~ exp(-(H - sigma x)/nu^2) contains
the constrained free-energy minimizers: lambda(ell) is the tilt whose mean is
ell.  `multimodal_intervals` and `barrier_scan` answer the tilt-axis queries;
`landscape` is the CLI report of those, the spinodal region, variance bounds
and LSI constants (from convexity or a Holley-Stroock-type bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import Density, Grid, Potential
from .errors import ContractViolation, GridTooSmallError, RangeError, SolverError

# solve_lambda stops when |M1(gamma_lambda) - ell| < LAMBDA_TOL
LAMBDA_TOL = 1e-10
LAMBDA_MAX_ITER = 100
# tilt samples of a barrier scan or landscape report
N_SIGMA = 33


class TiltedFamily:
    """The model bound to one grid: the only place H and H' are sampled.

    H(x), x, x^2 and H'(x) are sampled once into the rows of one read-only
    (4, n) array `basis` (views `h`, `x`, `x2`, `h1`); `basis @ rho` gives E,
    M1, M2 and int H' rho at once.  `exponent` is the one Gibbs exponent:
    `evaluate` (for `gibbs`, `solve_lambda`, `variance_range` and log Z0)
    exponentiates it, and `GibbsState.log_values` reads log gamma from it
    for every relative entropy (the public one and the FV record's).  The
    free energy, sigma, the dissipation and the FV stepper read `h` and `h1`.
    """

    def __init__(self, pot: Potential, grid: Grid):
        x = grid.x
        self.dx = grid.dx
        self.basis = np.stack([pot.h(x), x, x * x, pot.h1(x)], dtype=float)
        self.basis.setflags(write=False)
        self.h, self.x, self.x2, self.h1 = self.basis

    def tilted(self, sigma: float) -> np.ndarray:
        """H(x) - sigma x."""
        return self.h - sigma * self.x

    def exponent(self, sigma: float, nu: float) -> np.ndarray:
        """-(H(x) - sigma x)/nu^2, so log gamma_{sigma,nu} = exponent - log Z."""
        return -self.tilted(sigma) / (nu * nu)

    def evaluate(self, sigma: float, nu: float) -> tuple[float, float, float, np.ndarray]:
        """(mean, variance, log Z, normalized values) of gamma_{sigma,nu}.

        The partition sum is taken of the max-shifted exponential, and the
        values are normalized a second time by their own midpoint sum, so a
        state carries unit mass to roundoff.
        """
        arg = self.exponent(sigma, nu)
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
    """Tilted Gibbs density with cached partition data and moments.

    `values` are the normalized cell values (read-only); the validated
    `density` and `log_values` = exponent - log Z, the log of gamma that
    stays finite where `values` underflow to 0, are built on first read.
    """

    sigma: float
    nu: float
    log_z: float
    grid: Grid
    values: np.ndarray
    mean: float
    variance: float
    family: TiltedFamily

    @cached_property
    def density(self) -> Density:
        return Density(self.grid, self.values)

    @cached_property
    def log_values(self) -> np.ndarray:
        log_g = self.family.exponent(self.sigma, self.nu) - self.log_z
        log_g.setflags(write=False)
        return log_g


def _state(sigma: float, nu: float, grid: Grid, family: TiltedFamily, ev: tuple) -> GibbsState:
    mean, var, log_z, values = ev
    values.setflags(write=False)
    return GibbsState(sigma, nu, log_z, grid, values, mean, var, family)


def gibbs(sigma: float, nu: float, pot: Potential, grid: Grid) -> GibbsState:
    """Normalized gamma_{sigma,nu} with max-shifted partition sum."""
    family = tilted_family(pot, grid)
    return _state(sigma, nu, grid, family, family.evaluate(sigma, nu))


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

    The map is strictly increasing with derivative Var/nu^2, so the sign of
    M1 - ell at each evaluated tilt narrows a bracket [lo, hi] around the
    root.  Newton runs from `start` (the previous solve along a moving path)
    or from lambda_0 = ell * min(c_-, c_+); a start that is not finite, or
    whose state degenerates, is replaced by lambda_0.  While one end of the
    bracket is missing, a step goes at most `reach` = max(1, |lambda|)/2 from
    the first tilt, and `reach` doubles each time it binds: a full Newton step
    off a flat tail of the mean map would throw the tilt to where the state
    degenerates.  With both ends known, a step that leaves the bracket, or
    follows a step that raised |M1 - ell|, bisects instead: on the S-shaped
    mean map of a double well Newton can otherwise cycle inside the bracket.
    `iterations` counts every Gibbs evaluation.
    """
    if not (grid.x_min < ell < grid.x_max):
        raise RangeError(f"target mean {ell} lies outside the grid [{grid.x_min}, {grid.x_max}]")
    family = tilted_family(pot, grid)
    nu2 = nu * nu
    iters = 0

    def g(lam: float) -> tuple[float, tuple]:
        nonlocal iters
        iters += 1
        try:
            ev = family.evaluate(lam, nu)
        except GridTooSmallError as exc:
            raise RangeError(
                f"mean {ell} pushes the tilt to lambda={lam} where the state "
                f"degenerates on this grid"
            ) from exc
        return ev[0] - ell, ev

    lam0 = ell * min(pot.growth_constants)
    lam = start if start is not None and math.isfinite(start) else lam0
    try:
        val, ev = g(lam)
    except RangeError:
        if lam == lam0:
            raise
        lam = lam0
        val, ev = g(lam)

    lo, hi = -math.inf, math.inf
    reach = 0.5 * max(1.0, abs(lam))
    grew = False
    for _ in range(LAMBDA_MAX_ITER):
        if abs(val) < LAMBDA_TOL:
            return LambdaSolve(lam, _state(lam, nu, grid, family, ev), iters, abs(val))
        if val > 0.0:
            hi = lam
        else:
            lo = lam
        step = -val / (ev[1] / nu2)
        bracketed = lo > -math.inf and hi < math.inf
        if not bracketed and abs(step) > reach:
            step = math.copysign(reach, step)
            reach *= 2.0
        lam_new = lam + step
        if bracketed and (grew or not lo < lam_new < hi):
            lam_new = 0.5 * (lo + hi)
        val_new, ev = g(lam_new)
        grew = not abs(val_new) < abs(val)
        lam, val = lam_new, val_new
    raise SolverError(
        f"lambda(ell) did not converge in {LAMBDA_MAX_ITER} iterations",
        diagnostics={"bracket": (lo, hi), "residual": val, "ell": ell},
    )


def variance_range(sigmas: np.ndarray, nu: float, pot: Potential, grid: Grid) -> tuple[float, float]:
    """(min, max) of Var(gamma_{sigma,nu}) over the tilts `sigmas`."""
    family = tilted_family(pot, grid)
    variances = np.array([family.evaluate(float(s), nu)[1] for s in sigmas])
    return float(np.min(variances)), float(np.max(variances))


def local_minima(vals: np.ndarray) -> list[int]:
    """First index of each run of equal samples that is lower than the runs
    on both sides; the runs touching either end never count."""
    starts = np.flatnonzero(vals[1:] != vals[:-1]) + 1  # every run but the first
    run_vals = vals[starts]
    lower = (run_vals[:-1] < vals[starts[:-1] - 1]) & (run_vals[:-1] < run_vals[1:])
    return starts[:-1][lower].tolist()


def energy_barrier(sigma: float, pot: Potential, grid: Grid) -> float:
    """Largest minimax barrier from any local minimum of H - sigma*x to the
    global minimum (1D: the optimal path is the straight interval)."""
    vals = tilted_family(pot, grid).tilted(sigma)
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


def multimodal_intervals(pot: Potential, grid: Grid) -> list[tuple[float, float]]:
    """Maximal tilt intervals on which H'(x) = sigma has two or more
    grid-resolved solutions, exact for the sampled H': the number of
    solutions at sigma is the number of neighbouring-sample segments that
    straddle sigma, so it changes only at sample values of H'."""
    h1 = tilted_family(pot, grid).h1
    lo = np.sort(np.minimum(h1[:-1], h1[1:]))
    hi = np.sort(np.maximum(h1[:-1], h1[1:]))
    levels = np.unique(h1)
    # segments straddling the gap (levels[k], levels[k+1]): lo <= levels[k] < hi
    count = np.searchsorted(lo, levels[:-1], side="right") - np.searchsorted(
        hi, levels[:-1], side="right"
    )
    runs = np.flatnonzero(np.diff(np.concatenate([[0], (count >= 2).astype(int), [0]])))
    return [(float(levels[i]), float(levels[j])) for i, j in zip(runs[::2], runs[1::2])]


def barrier_scan(
    pot: Potential, grid: Grid, sigma_range: tuple[float, float]
) -> tuple[list[tuple[float, float]], float]:
    """(multimodal tilt intervals clipped to `sigma_range`, DeltaH*), with
    DeltaH* the largest energy barrier at the N_SIGMA tilt samples inside the
    set and at each interval's midpoint, so an interval narrower than the
    sample spacing is seen."""
    s_min, s_max = sigma_range
    intervals = [
        (max(lo, s_min), min(hi, s_max))
        for lo, hi in multimodal_intervals(pot, grid)
        if lo < s_max and hi > s_min
    ]
    sigmas = np.linspace(s_min, s_max, N_SIGMA)
    probes = [float(s) for s in sigmas if any(lo < s < hi for lo, hi in intervals)]
    probes += [0.5 * (lo + hi) for lo, hi in intervals]
    return intervals, max((energy_barrier(s, pot, grid) for s in probes), default=0.0)


def landscape(
    nu: float,
    pot: Potential,
    grid: Grid,
    sigma_range: tuple[float, float] = (-3.0, 3.0),
) -> dict:
    """The `landscape` block of `cfpk landscape`'s summary.json: spinodal
    measure, the barrier scan, variance bounds, and per-tilt LSI estimates."""
    h2x = np.asarray(pot.h2(grid.x), dtype=float)
    intervals, delta_h_star = barrier_scan(pot, grid, sigma_range)
    sigmas = np.linspace(*sigma_range, N_SIGMA)
    c_var, C_var = variance_range(sigmas, nu, pot, grid)
    lsi_samples = []
    for s in sigmas:
        c, method = lsi_constant(float(s), nu, pot, grid)
        lsi_samples.append({"sigma": float(s), "C_lsi": c, "method": method})
    return {
        "spinodal_measure": float(np.sum(h2x <= 0.0)) * grid.dx,
        "sigma_intervals": [list(iv) for iv in intervals],
        "delta_h_star": delta_h_star,
        "c_var": c_var,
        "C_var": C_var,
        "lsi_samples": lsi_samples,
    }


def lsi_constant(sigma: float, nu: float, pot: Potential, grid: Grid) -> tuple[float, str]:
    """Log-Sobolev constant estimate for gamma_{sigma,nu}.

    Uniformly convex potentials give 1/k independent of sigma and nu.
    Otherwise a Holley-Stroock-type bound nu^-2 * 2 exp(2 C_H,sigma / nu^2)
    / min(c_-, c_+) is returned, where C_H,sigma is the energy barrier of the
    tilted potential; past float range it is inf, a vacuous bound.  The
    plain lower-hull oscillation is tilt-independent (envelopes commute with
    affine shifts) and therefore cannot reproduce the barrier's decay as
    sigma leaves the multimodal set; the barrier is the quantity the
    relaxation-rate scaling actually follows.
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
    try:
        return (2.0 / nu2) * math.exp(2.0 * osc / nu2) / cmin, "holley_stroock"
    except OverflowError:
        return math.inf, "holley_stroock"
