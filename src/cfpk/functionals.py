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

from .core import Density, Grid, LOG_FLOOR, ModelParams, Potential, entropy, integrate
from .equilibrium import tilted_family
from .errors import SupportMismatchError, WeightTooStrongError

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
    return tilted_family(pot, grid).evaluate(0.0, nu)[2]


def free_energy(rho: Density, pot: Potential, params: ModelParams) -> EnergyBreakdown:
    """F(rho) = nu^2 S(rho) + E(rho) + nu^2 log Z0, nonnegative on P2."""
    nu2 = params.nu * params.nu
    s = entropy(rho)
    e = integrate(tilted_family(pot, rho.grid).h * rho.values, rho.grid)
    logz0 = log_partition(pot, rho.grid, params.nu)
    return EnergyBreakdown(S=s, E=e, logZ0=logz0, F=nu2 * s + e + nu2 * logz0)


def relative_entropy(rho: Density, gamma: Density) -> float:
    """Kullback-Leibler divergence int rho log(rho/gamma).

    Computed as rho (log rho - log gamma) with a shared floor, which is
    cancellation-safe for nearly equal inputs.
    """
    r = rho.values
    g = gamma.values
    if np.any((g <= 0.0) & (r > 0.0)):
        raise SupportMismatchError("reference density vanishes on the support of rho")
    log_r = np.log(np.maximum(r, LOG_FLOOR))
    log_g = np.log(np.maximum(g, LOG_FLOOR))
    integrand = np.where(r > 0.0, r * (log_r - log_g), 0.0)
    return integrate(integrand, rho.grid)


def grad_log(rho: Density) -> np.ndarray:
    """d/dx log(max(rho, floor)): centered in the interior, one-sided at the
    first and last cell."""
    return np.gradient(np.log(np.maximum(rho.values, LOG_FLOOR)), rho.grid.dx, edge_order=1)


def dissipation(rho: Density, sigma: float, pot: Potential, params: ModelParams) -> float:
    """D(rho, sigma) = int |nu^2 dlog(rho)/dx + H'(x) - sigma|^2 rho dx >= 0."""
    nu2 = params.nu * params.nu
    velocity = nu2 * grad_log(rho) + tilted_family(pot, rho.grid).h1 - sigma
    integrand = np.where(rho.values > VACUUM, velocity**2 * rho.values, 0.0)
    return integrate(integrand, rho.grid)


def ckp_l1_bound(rho: Density, gamma: Density) -> tuple[float, float]:
    """(l1 distance, sqrt(2 H(rho|gamma))); the first never exceeds the second
    beyond quadrature tolerance."""
    l1 = integrate(np.abs(rho.values - gamma.values), rho.grid)
    h = max(relative_entropy(rho, gamma), 0.0)
    return l1, math.sqrt(2.0 * h)


def weighted_ckp(
    rho: Density, gamma: Density, w: Callable[[np.ndarray], np.ndarray]
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
