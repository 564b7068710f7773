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


def _breakdown(s: float, e: float, logz0: float, nu: float) -> EnergyBreakdown:
    return EnergyBreakdown(S=s, E=e, logZ0=logz0, F=nu * nu * s + e + nu * nu * logz0)


def free_energy(rho: Density, pot: Potential, params: ModelParams) -> EnergyBreakdown:
    """F(rho) = nu^2 S(rho) + E(rho) + nu^2 log Z0, nonnegative on P2."""
    e = integrate(tilted_family(pot, rho.grid).h * rho.values, rho.grid)
    return _breakdown(entropy(rho), e, log_partition(pot, rho.grid, params.nu), params.nu)


def _kl_integrand(r: np.ndarray, log_r: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """r (log r - log g), zero where r = 0."""
    return np.where(r > 0.0, r * (log_r - log_g), 0.0)


def relative_entropy(rho: Density, gamma: Density) -> float:
    """Kullback-Leibler divergence int rho log(rho/gamma).

    Computed as rho (log rho - log gamma) with a shared floor, which is
    cancellation-safe for nearly equal inputs.
    """
    r, g = rho.values, gamma.values
    if g.min() <= 0.0 and np.any(r[g <= 0.0] > 0.0):
        raise SupportMismatchError("reference density vanishes on the support of rho")
    return integrate(_kl_integrand(r, _log_density(r), _log_density(g)), rho.grid)


def _dissipation_integrand(
    r: np.ndarray, log_r: np.ndarray, dx: float, h1: np.ndarray, sigma: float, nu2: float
) -> np.ndarray:
    """|nu^2 dlog(r)/dx + H' - sigma|^2 r (centered, one-sided at the ends), 0 in vacuum cells."""
    velocity = nu2 * np.gradient(log_r, dx, edge_order=1) + h1 - sigma
    return np.where(r > VACUUM, velocity**2 * r, 0.0)


def dissipation(rho: Density, sigma: float, pot: Potential, params: ModelParams) -> float:
    """D(rho, sigma) = int |nu^2 dlog(rho)/dx + H'(x) - sigma|^2 rho dx >= 0."""
    r, grid, h1 = rho.values, rho.grid, tilted_family(pot, rho.grid).h1
    integrand = _dissipation_integrand(r, _log_density(r), grid.dx, h1, sigma, params.nu * params.nu)
    return integrate(integrand, grid)


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
