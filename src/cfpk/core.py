"""Grids, densities, potentials and constraint paths.

Everything downstream (energy functionals, the variational stepper, the
finite-volume solver) consumes the immutable value types defined here.  The
state space is a uniform 1D grid of cell centers x_i = x_min + (i+1/2)*dx;
integrals are composite midpoint sums, which are exact for linear integrands
and spectrally accurate for smooth densities whose tails have decayed below
roundoff at the truncated boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation, DegenerateInputError

# Floor used inside log(rho) evaluations; x*log(x) -> 0 as x -> 0, so cells at
# or below the floor contribute nothing to entropy-type integrands.
LOG_FLOOR = 1e-300
# Most whole steps a solver schedules on [0, T]; the largest run of the test
# suite and the benchmark (a Kramers member, T/dt = 2.1e6) stays well below.
MAX_STEPS = 10_000_000


def require_positive(**values: float) -> None:
    """Raise ContractViolation unless every named value is finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ContractViolation(f"need finite {name} > 0, got {name}={value}")


def step_count(T: float, dt: float) -> int:
    """ceil(T/dt) whole steps; ContractViolation beyond MAX_STEPS."""
    steps = T / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ContractViolation(f"T/dt = {T / dt:.3g} steps exceeds the limit of {MAX_STEPS:.0e}")
    return int(math.ceil(steps))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [x_min, x_max] with n cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ContractViolation(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n < 8:
            raise ContractViolation(f"need n >= 8, got n={self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        """Cell centers."""
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        """Cell interfaces, length n+1."""
        return self.x_min + np.arange(self.n + 1) * self.dx


def integrate(f_values: np.ndarray, grid: Grid) -> float:
    """Composite midpoint quadrature of cell-center samples."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (grid.n,):
        raise ContractViolation(
            f"integrand has shape {f_values.shape}, grid has {grid.n} cells"
        )
    return float(np.sum(f_values) * grid.dx)


@dataclass(frozen=True)
class Density:
    """Probability density sampled at cell centers (units 1/length)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != (self.grid.n,):
            raise ContractViolation(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if np.any(vals < 0.0):
            raise ContractViolation("density values must be nonnegative")
        if not np.all(np.isfinite(vals)):
            raise ContractViolation("density values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        return integrate(self.values, self.grid)


def normalize(rho: Density) -> Density:
    """Rescale to unit mass. Raises on zero/negative mass."""
    m = rho.mass()
    if m <= 0.0:
        raise DegenerateInputError(f"cannot normalize density with mass {m}")
    return Density(rho.grid, rho.values / m)


def density_from_values(grid: Grid, values: np.ndarray) -> Density:
    """Clip tiny negatives from roundoff, then normalize."""
    vals = np.asarray(values, dtype=float).copy()
    vals[vals < 0.0] = 0.0
    return normalize(Density(grid, vals))


def moments(rho: Density) -> tuple[float, float, float]:
    """(M1, M2, Var) of a normalized density."""
    x = rho.grid.x
    m1 = integrate(x * rho.values, rho.grid)
    m2 = integrate(x * x * rho.values, rho.grid)
    return m1, m2, max(m2 - m1 * m1, 0.0)


def entropy(rho: Density) -> float:
    """Boltzmann entropy integral S(rho) = int rho log rho."""
    v = rho.values
    integrand = np.where(v > 0.0, v * np.log(np.maximum(v, LOG_FLOOR)), 0.0)
    return integrate(integrand, rho.grid)


@dataclass(frozen=True)
class ModelParams:
    """Relaxation time tau and noise amplitude nu of the evolution equation."""

    tau: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        require_positive(tau=self.tau, nu=self.nu)


@dataclass(frozen=True)
class Potential:
    """Confining potential H with derivatives and growth metadata.

    h1/h2/h3 are H', H'', H'''.  growth_constants are the asymptotic
    curvatures (c_-, c_+) of H at -inf/+inf; convexity_lower_bound, when set,
    certifies H'' >= k everywhere.
    """

    h: Callable[[np.ndarray], np.ndarray]
    h1: Callable[[np.ndarray], np.ndarray]
    h2: Callable[[np.ndarray], np.ndarray]
    h3: Callable[[np.ndarray], np.ndarray]
    growth_constants: tuple[float, float]
    convexity_lower_bound: Optional[float] = None
    name: str = "custom"

    def validate_on(self, grid: Grid) -> None:
        """Check H >= 0, the finite-difference consistency of h1, and the
        convexity certificate (when present) on the grid."""
        x = grid.x
        hx = np.asarray(self.h(x), dtype=float)
        if np.any(hx < -1e-12):
            raise ContractViolation(f"potential '{self.name}' is negative on the grid")
        if self.convexity_lower_bound is not None:
            if np.any(np.asarray(self.h2(x)) < self.convexity_lower_bound - 1e-10):
                raise ContractViolation(
                    f"h2 drops below declared convexity bound {self.convexity_lower_bound}"
                )
        # second-order FD check of h1 at a few interior sample points
        idx = np.linspace(2, grid.n - 3, 7).astype(int)
        d = grid.dx
        fd = (self.h(x[idx] + d) - self.h(x[idx] - d)) / (2 * d)
        err = np.max(np.abs(fd - self.h1(x[idx])))
        scale = 1.0 + np.max(np.abs(self.h1(x[idx])))
        if err > 10.0 * d * d * scale * (1.0 + np.max(np.abs(self.h3(x[idx])))):
            raise ContractViolation(f"h1 inconsistent with h on '{self.name}': fd error {err}")


def quadratic_potential(k: float = 1.0) -> Potential:
    """H(x) = k x^2 / 2, uniformly convex with H'' = k."""
    if k <= 0.0:
        raise ContractViolation("quadratic potential needs k > 0")
    return Potential(
        h=lambda x: 0.5 * k * np.asarray(x) ** 2,
        h1=lambda x: k * np.asarray(x),
        h2=lambda x: k * np.ones_like(np.asarray(x, dtype=float)),
        h3=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        growth_constants=(k, k),
        convexity_lower_bound=k,
        name=f"quadratic:{k:g}",
    )


def doublewell_potential() -> Potential:
    """H(x) = (sqrt(x^2+1) - 2)^2: symmetric double well, quadratic at infinity.

    Minima at x = +-sqrt(3) with H = 0, local maximum H(0) = 1, asymptotic
    curvature 2 on both sides.
    """

    def h(x):
        r = np.sqrt(np.asarray(x, dtype=float) ** 2 + 1.0)
        return (r - 2.0) ** 2

    def h1(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x**2 + 1.0)
        return 2.0 * (r - 2.0) * x / r

    def h2(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x**2 + 1.0)
        return 2.0 * (x**2 / r**2 + (r - 2.0) / r**3)

    def h3(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x**2 + 1.0)
        return 12.0 * x / r**5

    return Potential(h=h, h1=h1, h2=h2, h3=h3, growth_constants=(2.0, 2.0), name="doublewell")


def polynomial_potential(coeffs: list[float], grid: Optional[Grid] = None) -> Potential:
    """H(x) = sum_i coeffs[i] * x^i.

    Growth constants default to H'' evaluated at the grid boundary (or at
    |x| = 10 when no grid is given); the convexity certificate is set when
    H'' is positive over the probe range.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 1:
        raise ContractViolation("polynomial potential needs at least one coefficient")
    d1 = np.polynomial.polynomial.polyder(c, 1)
    d2 = np.polynomial.polynomial.polyder(c, 2)
    d3 = np.polynomial.polynomial.polyder(c, 3)
    pv = np.polynomial.polynomial.polyval
    if grid is not None:
        probe = grid.x
    else:
        probe = np.linspace(-10.0, 10.0, 2001)
    h2_probe = pv(probe, d2) if d2.size else np.zeros_like(probe)
    c_minus = float(h2_probe[0])
    c_plus = float(h2_probe[-1])
    if c_minus <= 0.0 or c_plus <= 0.0:
        raise ContractViolation("polynomial potential must be convex at the domain ends")
    kmin = float(np.min(h2_probe))
    return Potential(
        h=lambda x: pv(np.asarray(x, dtype=float), c),
        h1=lambda x: pv(np.asarray(x, dtype=float), d1) if d1.size else np.zeros_like(np.asarray(x, dtype=float)),
        h2=lambda x: pv(np.asarray(x, dtype=float), d2) if d2.size else np.zeros_like(np.asarray(x, dtype=float)),
        h3=lambda x: pv(np.asarray(x, dtype=float), d3) if d3.size else np.zeros_like(np.asarray(x, dtype=float)),
        growth_constants=(c_minus, c_plus),
        convexity_lower_bound=kmin if kmin > 0.0 else None,
        name="polynomial:" + ",".join(f"{v:g}" for v in c),
    )


@dataclass(frozen=True)
class ConstraintPath:
    """Moment forcing ell(t) with analytic derivative and decay metadata.

    ell_dot is supplied analytically (never differenced numerically): the
    multiplier sigma(t) depends on it directly.  kappa/L0, when set, certify
    |ell_dot(t)| <= L0 exp(-kappa t).  L0 = 0 declares ell constant.
    """

    ell: Callable[[float], float]
    ell_dot: Callable[[float], float]
    ell_star: float
    kappa: Optional[float] = None
    L0: Optional[float] = None
    name: str = "custom"

    def check_decay(self, times: np.ndarray, tol: float = 1e-9) -> None:
        """Verify the declared exponential envelope at sampled times."""
        if self.kappa is None or self.L0 is None:
            return
        for t in np.asarray(times, dtype=float):
            if abs(self.ell_dot(t)) > self.L0 * math.exp(-self.kappa * t) + tol:
                raise ContractViolation(
                    f"path '{self.name}': |ell_dot({t})| exceeds declared envelope"
                )


def constant_path(l: float) -> ConstraintPath:
    return ConstraintPath(
        ell=lambda t: l,
        ell_dot=lambda t: 0.0,
        ell_star=l,
        kappa=None,
        L0=0.0,
        name=f"constant:{l:g}",
    )


def exp_decay_path(l_star: float, A: float, kappa: float) -> ConstraintPath:
    """ell(t) = l_star + A exp(-kappa t)."""
    if kappa <= 0.0:
        raise ContractViolation("exp_decay path needs kappa > 0")
    return ConstraintPath(
        ell=lambda t: l_star + A * math.exp(-kappa * t),
        ell_dot=lambda t: -A * kappa * math.exp(-kappa * t),
        ell_star=l_star,
        kappa=kappa,
        L0=abs(A) * kappa,
        name=f"exp_decay:{l_star:g},{A:g},{kappa:g}",
    )


def tanh_ramp_path(l0: float, l1: float, t0: float, w: float) -> ConstraintPath:
    """Smooth ramp from l0 to l1 centered at t0 with width w."""
    if w <= 0.0:
        raise ContractViolation("tanh_ramp path needs w > 0")
    half = 0.5 * (l1 - l0)

    def ell(t):
        return l0 + half * (1.0 + math.tanh((t - t0) / w))

    def ell_dot(t):
        z = (t - t0) / w
        if abs(z) > 350.0:  # cosh(z)^2 overflows past |z| ~ 355; sech^2 = 4 e^{-2|z|} there
            return half / w * 4.0 * math.exp(-2.0 * abs(z))
        return half / w / math.cosh(z) ** 2

    # sech^2(z) <= 4 exp(-2z) for z >= 0 gives the exponential envelope
    try:
        envelope = 2.0 * abs(l1 - l0) / w * math.exp(2.0 * t0 / w)
    except OverflowError:
        raise ContractViolation(
            f"tanh_ramp envelope 2|l1 - l0|/w exp(2 t0/w) overflows at t0/w = {t0 / w:g}"
        ) from None
    return ConstraintPath(
        ell=ell,
        ell_dot=ell_dot,
        ell_star=l1,
        kappa=2.0 / w,
        L0=envelope,
        name=f"tanh_ramp:{l0:g},{l1:g},{t0:g},{w:g}",
    )


def gaussian_density(grid: Grid, mean: float, var: float) -> Density:
    """Grid-discretized normal density, normalized."""
    if var <= 0.0:
        raise ContractViolation("gaussian_density needs var > 0")
    x = grid.x
    vals = np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return density_from_values(grid, vals)
