"""Seeded random densities for property checks and the verify battery."""

from __future__ import annotations

import numpy as np

from .core import MEAN_TOL, Density, Grid, density_from_values, moments
from .errors import ContractViolation

# set_mean stops once |M1 - mean| <= SET_MEAN_TOL
SET_MEAN_TOL = 1e-10


def set_mean(dens: Density, mean: float) -> Density:
    """Impose an exact first moment by a mass-preserving linear tilt
    (iterated because clipping at zero can bite for large shifts)."""
    x = dens.grid.x
    for _ in range(8):
        m1, _, var = moments(dens)
        if abs(m1 - mean) <= SET_MEAN_TOL:
            return dens
        if var <= 0.0:
            break
        alpha = (mean - m1) / var
        dens = density_from_values(dens.grid, dens.values * (1.0 + alpha * (x - m1)))
    m1, _, _ = moments(dens)
    if abs(m1 - mean) > MEAN_TOL:
        raise ContractViolation(f"could not impose mean {mean}: reached {m1}")
    return dens


def random_density(grid: Grid, rng: np.random.Generator, mean: float | None = None) -> Density:
    """Random smooth Gaussian mixture on the inner part of the domain.

    When `mean` is given, the mixture is recentred there and then tilted so
    the sample lies exactly on the constrained manifold.
    """
    span = grid.x_max - grid.x_min
    half = 0.25 * span
    n_bumps = int(rng.integers(1, 4))
    centers = rng.uniform(-half * 0.8, half * 0.8, size=n_bumps)
    widths = rng.uniform(0.3, 1.2, size=n_bumps)
    weights = rng.uniform(0.2, 1.0, size=n_bumps)
    mid = 0.5 * (grid.x_min + grid.x_max) if mean is None else mean
    x = grid.x
    # broad faint background keeps samples positive across the whole grid
    vals = 1e-9 * np.exp(-0.5 * ((x - mid) / (0.25 * span)) ** 2)
    for c, s, wgt in zip(centers - np.average(centers, weights=weights), widths, weights):
        vals += wgt * np.exp(-0.5 * ((x - mid - c) / s) ** 2) / s
    dens = density_from_values(grid, vals)
    if mean is not None:
        dens = set_mean(dens, mean)
    return dens
