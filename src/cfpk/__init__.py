"""Numerical toolkit for the moment-constrained nonlocal Fokker-Planck
equation: constrained minimizing-movement stepping, a direct finite-volume
solver, constrained Gibbs equilibria, and the long-time verification suite.
"""

from .core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    constant_path,
    doublewell_potential,
    exp_decay_path,
    gaussian_density,
    integrate,
    moments,
    polynomial_potential,
    quadratic_potential,
    tanh_ramp_path,
)
from .equilibrium import GibbsState, gibbs, landscape, lsi_constant
from .fpsolver import sigma_of_state
from .functionals import (
    EnergyBreakdown,
    ckp_l1_bound,
    dissipation,
    free_energy,
    relative_entropy,
    weighted_ckp,
)
from .transport import jko_run, to_quantile

__version__ = "0.1.0"
