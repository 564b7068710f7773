"""Scalar functionals of densities.

Free energy, relative entropy, dissipation, and the (weighted)
Csiszar-Kullback-Pinsker bounds.  All formulas carry the noise amplitude nu
explicitly: the free energy weights entropy with nu^2 and is offset by
nu^2 log Z0 so that it vanishes exactly at the untilted Gibbs state, and the
dissipation integrand is nu^2 d/dx log(rho) + H'(x) - sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Density, Grid, ModelParams, Potential, _log_density, entropy, integrate
from .equilibrium import GibbsState, tilted_family
from .errors import WeightTooStrongError

# Cells below this density are treated as exact vacuum in the dissipation:
# rho |dlog rho|^2 -> 0 for Gaussian-type tails, and finite differences of
# log(rho) there are pure noise.
VACUUM = 1e-30


@dataclass(frozen=True)
class EnergyBreakdown:
    """Entropy, potential energy, normalizing constant and total free energy."""

    S: float
    E: float
    logZ0: float
    F: float


@lru_cache(maxsize=16)
def log_partition(pot: Potential, grid: Grid, nu: float) -> float:
    """log Z0 = log int exp(-H/nu^2) dx: the untilted Gibbs state's log Z,
    computed once per (pot, grid, nu)."""
    return float(tilted_family(pot, grid).evaluate([0.0], nu)[2][0])


def _breakdown(s: float, e: float, logz0: float, nu: float) -> EnergyBreakdown:
    return EnergyBreakdown(S=s, E=e, logZ0=logz0, F=nu * nu * s + e + nu * nu * logz0)


def free_energy(rho: Density, pot: Potential, params: ModelParams) -> EnergyBreakdown:
    """F(rho) = nu^2 S(rho) + E(rho) + nu^2 log Z0, nonnegative on P2."""
    e = integrate(tilted_family(pot, rho.grid).h * rho.values, rho.grid)
    return _breakdown(entropy(rho), e, log_partition(pot, rho.grid, params.nu), params.nu)


def _kl_integrand(
    r: np.ndarray, log_r: np.ndarray, log_g: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """r (log r - log g), zero where r = 0; `out` may be `log_g`."""
    out = np.subtract(log_r, log_g, out=out)
    out *= r
    out[~(r > 0.0)] = 0.0
    return out


def relative_entropy(rho: Density, gamma: GibbsState) -> float:
    """H(rho|gamma) = int rho (log rho - log gamma) against a Gibbs state.

    log gamma = exponent - log Z is read from `gamma.log_values`, as the FV
    record reads it, so it stays finite where gamma's values underflow to 0.
    """
    r = rho.values
    return integrate(_kl_integrand(r, _log_density(r), gamma.log_values), rho.grid)


def _dissipation_integrand(
    r: np.ndarray, log_r: np.ndarray, dx: float, h1: np.ndarray, sigma, nu2: float, out=None
) -> np.ndarray:
    """|nu^2 dlog(r)/dx + H' - sigma|^2 r (centered, one-sided at the ends), 0 in vacuum cells.

    The derivative is `np.gradient(log_r, dx, edge_order=1)` along the last
    axis, written out with the same float operations, without its per-call
    overhead.  `r` may be a (K, n) block with a (K, 1) column of sigmas, and
    `out` a buffer other than `log_r`."""
    grad = np.empty_like(log_r) if out is None else out
    inner = grad[..., 1:-1]
    np.subtract(log_r[..., 2:], log_r[..., :-2], out=inner)
    inner /= 2.0 * dx
    grad[..., 0] = (log_r[..., 1] - log_r[..., 0]) / dx
    grad[..., -1] = (log_r[..., -1] - log_r[..., -2]) / dx
    # the velocity nu^2 grad + H' - sigma, squared, times r
    grad *= nu2
    grad += h1
    grad -= sigma
    np.square(grad, out=grad)
    grad *= r
    grad[~(r > VACUUM)] = 0.0
    return grad


def dissipation(rho: Density, sigma: float, pot: Potential, params: ModelParams) -> float:
    """D(rho, sigma) = int |nu^2 dlog(rho)/dx + H'(x) - sigma|^2 rho dx >= 0."""
    r, grid, h1 = rho.values, rho.grid, tilted_family(pot, rho.grid).h1
    integrand = _dissipation_integrand(r, _log_density(r), grid.dx, h1, sigma, params.nu * params.nu)
    return integrate(integrand, grid)


def ckp_l1_bound(rho: Density, gamma: GibbsState) -> tuple[float, float]:
    """(l1 distance, sqrt(2 H(rho|gamma))); the first never exceeds the second
    beyond quadrature tolerance."""
    l1 = integrate(np.abs(rho.values - gamma.values), rho.grid)
    h = max(relative_entropy(rho, gamma), 0.0)
    return l1, math.sqrt(2.0 * h)


def weighted_ckp(
    rho: Density, gamma: GibbsState, w: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float, float]:
    """Weighted CKP: int w|rho-gamma| <= sqrt(2 (1 + log Cw) H(rho|gamma)).

    Returns (weighted l1, Cw, bound).  Cw = int exp(w^2) dgamma must be finite
    on the grid; overflow raises WeightTooStrongError.
    """
    x = rho.grid.x
    wx = np.asarray(w(x), dtype=float)
    if np.any(wx < 0.0):
        raise WeightTooStrongError("weight must be nonnegative")
    with np.errstate(over="raise"):
        try:
            cw = integrate(np.exp(wx**2) * gamma.values, rho.grid)
        except FloatingPointError as exc:
            raise WeightTooStrongError("exp(w^2) overflows against gamma") from exc
    if not np.isfinite(cw) or cw <= 0.0:
        raise WeightTooStrongError(f"Cw = {cw} is not usable")
    wl1 = integrate(wx * np.abs(rho.values - gamma.values), rho.grid)
    h = max(relative_entropy(rho, gamma), 0.0)
    bound = math.sqrt(2.0 * (1.0 + math.log(cw)) * h)
    return wl1, cw, bound
