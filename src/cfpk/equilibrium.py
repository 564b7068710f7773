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
    `evaluate`, the one Gibbs kernel, exponentiates it over an array of
    tilts (for `gibbs`, `solve_lambdas`, `variance_range` and log Z0), and
    `GibbsState.log_values` and the FV record kernel read log gamma from it
    for every relative entropy.  The free energy, sigma, the dissipation and
    the FV stepper read `h` and `h1`.
    """

    def __init__(self, pot: Potential, grid: Grid):
        x = grid.x
        self.dx = grid.dx
        self.basis = np.stack([pot.h(x), x, x * x, pot.h1(x)], dtype=float)
        self.basis.setflags(write=False)
        self.h, self.x, self.x2, self.h1 = self.basis

    def tilted(self, sigma, out: np.ndarray | None = None) -> np.ndarray:
        """H(x) - sigma x; for a 1-D array of K tilts, the (K, n) rows (into
        `out` if given)."""
        out = np.multiply.outer(sigma, self.x, out=out)
        return np.subtract(self.h, out, out=out)

    def exponent(self, sigma, nu: float, out: np.ndarray | None = None) -> np.ndarray:
        """-(H(x) - sigma x)/nu^2, so log gamma_{sigma,nu} = exponent - log Z."""
        arg = self.tilted(sigma, out)
        return np.divide(arg, -(nu * nu), out=arg)

    def evaluate(
        self, sigma: np.ndarray, nu: float, strict: bool = True, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(mean, variance, log Z, values) of gamma_{sigma,nu} for each tilt of
        the 1-D array `sigma`: three (K,) arrays and the (K, n) normalized values.

        The one Gibbs kernel.  Each partition sum is taken of the max-shifted
        exponential, and the values are normalized a second time by their own
        midpoint sum, so a state carries unit mass to roundoff; the moments
        come from one product of the values with the rows x, x^2 of `basis`.
        Every sum runs along a row, so a lane repeats the float operations of
        a one-tilt batch and does not depend on the other lanes.  A lane whose
        partition sum is not finite and positive, or whose state concentrates
        in one cell, has a variance that is not > 0: GridTooSmallError, or
        with `strict` False, returned as it is.  The values are written into
        `out` if it is given.
        """
        sigma = np.asarray(sigma, dtype=float)
        w = self.exponent(sigma, nu, out)
        shift = w.max(axis=1)
        w -= shift[:, None]
        np.exp(w, out=w)
        total = w.sum(axis=1) * self.dx
        w /= total[:, None]
        w /= (w.sum(axis=1) * self.dx)[:, None]
        m1, m2 = (w[:, None, :] * self.basis[1:3]).sum(axis=2).T * self.dx
        var = np.maximum(m2 - m1 * m1, 0.0)
        if strict and not (var > 0.0).all():
            raise GridTooSmallError(
                f"Gibbs state at sigma={sigma[~(var > 0.0)][0]}, nu={nu} degenerates on this grid; enlarge n"
            )
        # math.log, not np.log: the vectorized log may differ in the last bit
        log_z = shift + np.array([math.log(t) for t in total.tolist()])
        return m1, var, log_z, w


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


def _state(sigma: float, nu: float, grid: Grid, family: TiltedFamily, ev: tuple, i: int) -> GibbsState:
    """Lane i of an `evaluate` result as a GibbsState."""
    mean, var, log_z, values = ev
    row = values[i]
    row.setflags(write=False)
    return GibbsState(sigma, nu, float(log_z[i]), grid, row, float(mean[i]), float(var[i]), family)


def gibbs(sigma: float, nu: float, pot: Potential, grid: Grid) -> GibbsState:
    """Normalized gamma_{sigma,nu} with max-shifted partition sum."""
    family = tilted_family(pot, grid)
    return _state(sigma, nu, grid, family, family.evaluate([sigma], nu), 0)


@dataclass(frozen=True)
class LambdaSolve:
    lam: float
    state: GibbsState
    iterations: int
    residual: float


def solve_lambdas(
    ells: np.ndarray, nu: float, pot: Potential, grid: Grid, starts: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Invert M1(gamma_{lambda,nu}) = ell by safeguarded Newton for each
    target of `ells`, one lane each, all lanes in one loop.

    The map is strictly increasing with derivative Var/nu^2, so the sign of
    M1 - ell at each evaluated tilt narrows a lane's bracket [lo, hi] around
    its root.  Newton runs from `starts` (predictions along a moving path)
    or from lambda_0 = ell * min(c_-, c_+); a start that is not finite, or
    whose state degenerates, is replaced by lambda_0.  While one end of the
    bracket is missing, a step goes at most `reach` = max(1, |lambda|)/2 from
    the first tilt, and `reach` doubles each time it binds: a full Newton step
    off a flat tail of the mean map would throw the tilt to where the state
    degenerates.  With both ends known, a step that leaves the bracket, or
    follows a step that raised |M1 - ell|, bisects instead: on the S-shaped
    mean map of a double well Newton can otherwise cycle inside the bracket.
    A lane leaves the loop once |M1 - ell| < LAMBDA_TOL.  Each iteration
    evaluates the lanes still in it with one `evaluate` call, and keeps each
    lane's bracket in Python floats, so a lane takes the steps of its own
    one-lane solve, bit for bit.  Returns the lanes as arrays: lambda, mean,
    variance, log Z, the (K, n) values, iterations (a lane's evaluations) and
    residual |M1 - ell|.
    """
    ells = np.asarray(ells, dtype=float)
    outside = ~((grid.x_min < ells) & (ells < grid.x_max))
    if outside.any():
        raise RangeError(
            f"target mean {ells[outside][0]} lies outside the grid [{grid.x_min}, {grid.x_max}]"
        )
    family = tilted_family(pot, grid)
    nu2 = nu * nu
    k = len(ells)
    ell = ells.tolist()

    def degenerate(i: int, lam: float) -> RangeError:
        return RangeError(
            f"mean {ell[i]} pushes the tilt to lambda={lam} where the state degenerates on this grid"
        )

    c = min(pot.growth_constants)
    lam0 = [e * c for e in ell]
    lam = list(lam0)
    if starts is not None:
        lam = [s if math.isfinite(s) else s0 for s, s0 in zip(np.asarray(starts, dtype=float).tolist(), lam0)]
    values = np.empty((k, grid.n))
    mean, var, log_z = (a.tolist() for a in family.evaluate(lam, nu, strict=False, out=values)[:3])
    iterations = [1] * k

    def accept(lanes: list[int], ev: tuple) -> None:
        for i, m_i, v_i, z_i in zip(lanes, *(a.tolist() for a in ev[:3])):
            if not v_i > 0.0:
                raise degenerate(i, lam[i])
            mean[i], var[i], log_z[i] = m_i, v_i, z_i
            iterations[i] += 1

    fell = [i for i in range(k) if not var[i] > 0.0]
    for i in fell:
        if lam[i] == lam0[i]:
            raise degenerate(i, lam[i])
        lam[i] = lam0[i]
    if fell:
        ev = family.evaluate([lam0[i] for i in fell], nu, strict=False)
        values[fell] = ev[3]
        accept(fell, ev)

    val = [m - e for m, e in zip(mean, ell)]
    lo, hi = [-math.inf] * k, [math.inf] * k
    reach = [0.5 * max(1.0, abs(x)) for x in lam]
    grew = [False] * k
    lanes = list(range(k))
    work = np.empty_like(values)  # the values of the lanes still in the loop
    for _ in range(LAMBDA_MAX_ITER):
        lanes = [i for i in lanes if not abs(val[i]) < LAMBDA_TOL]
        if not lanes:
            arrays = [np.array(a) for a in (lam, mean, var, log_z)]
            return *arrays, values, np.array(iterations), np.abs(val)
        for i in lanes:
            if val[i] > 0.0:
                hi[i] = lam[i]
            else:
                lo[i] = lam[i]
            step = -val[i] / (var[i] / nu2)
            bracketed = lo[i] > -math.inf and hi[i] < math.inf
            if not bracketed and abs(step) > reach[i]:
                step = math.copysign(reach[i], step)
                reach[i] *= 2.0
            x = lam[i] + step
            if bracketed and (grew[i] or not lo[i] < x < hi[i]):
                x = 0.5 * (lo[i] + hi[i])
            lam[i] = x
        ev = family.evaluate([lam[i] for i in lanes], nu, strict=False, out=work[: len(lanes)])
        values[lanes] = ev[3]
        accept(lanes, ev)
        for i in lanes:
            val_new = mean[i] - ell[i]
            grew[i] = not abs(val_new) < abs(val[i])
            val[i] = val_new
    i = lanes[0]
    raise SolverError(
        f"lambda(ell) did not converge in {LAMBDA_MAX_ITER} iterations",
        diagnostics={"bracket": (lo[i], hi[i]), "residual": val[i], "ell": ell[i]},
    )


def solve_lambda(ell: float, nu: float, pot: Potential, grid: Grid) -> LambdaSolve:
    """lambda(ell) from lambda_0: the one-lane `solve_lambdas`."""
    lam, *ev, iterations, residual = solve_lambdas([ell], nu, pot, grid)
    state = _state(float(lam[0]), nu, grid, tilted_family(pot, grid), ev, 0)
    return LambdaSolve(state.sigma, state, int(iterations[0]), float(residual[0]))


def variance_range(sigmas: np.ndarray, nu: float, pot: Potential, grid: Grid) -> tuple[float, float]:
    """(min, max) of Var(gamma_{sigma,nu}) over the tilts `sigmas`."""
    variances = tilted_family(pot, grid).evaluate(sigmas, nu)[1]
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
