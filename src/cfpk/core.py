"""Grids, densities, potentials and constraint paths, and the one
tridiagonal solver.

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
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ContractViolation, DegenerateInputError

# Floor used inside log(rho) evaluations; x*log(x) -> 0 as x -> 0, so cells at
# or below the floor contribute nothing to entropy-type integrands.
LOG_FLOOR = 1e-300
# A density lies on M^ell, the densities with mean ell, when |M1 - ell| <= MEAN_TOL.
MEAN_TOL = 1e-8
# A path keeps its declared envelope when |ell_dot(t)| <= L0 exp(-kappa t) + ENVELOPE_TOL.
ENVELOPE_TOL = 1e-9
# Most whole steps a solver schedules on [0, T]; the largest run of the test
# suite and the benchmark (criterion 10's nu = 0.5 member, T/dt = 48,747) stays
# well below, and no Kramers member can exceed 4200 / 0.012 = 350,000.
MAX_STEPS = 10_000_000
# Smallest step, dt or h, a solver takes: at tau = 1 the FV error tolerance
# ERR_TOL dt^2 underflows to 0 below dt ~ 1.5e-153, and the JKO dissipation's
# (tau/h)^2 overflows below h ~ 7.5e-155.
MIN_STEP = 1e-100
# Most cells a grid may have: the test suite's largest grid has 8,192 cells,
# and a one-step simulate peaks at 58 MB at n = 1,024 and 227 MB at this bound
# (x86-64, numpy 2.4), so a larger n risks running out of memory, not a result.
MAX_CELLS = 2**20


def require_positive(**values: float) -> None:
    """Raise ContractViolation unless every named value is finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ContractViolation(f"need finite {name} > 0, got {name}={value}")


def require_finite(**values: float) -> None:
    """Raise ContractViolation unless every named value is finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ContractViolation(f"need finite {name}, got {name}={value}")


def step_count(T: float, dt: float) -> int:
    """ceil(T/dt) whole steps, at least one; ContractViolation beyond MAX_STEPS
    or for a step below MIN_STEP."""
    steps = T / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ContractViolation(f"T/dt = {T / dt:.3g} steps exceeds the limit of {MAX_STEPS:.0e}")
    if not dt >= MIN_STEP:
        raise ContractViolation(f"a step of {dt:.3g} is below the floor of {MIN_STEP:.0e}")
    return max(1, int(math.ceil(steps)))


def solve_banded(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Tridiagonal solve by LAPACK dgtsv (not scipy.linalg.solve_banded: the
    arguments are the three diagonals), the one tridiagonal routine of the
    package; overwrites every argument and returns (solution, LAPACK info),
    info > 0 for an exactly singular system.  perfbench/tracing.py times the
    FV and `gap_rate` solves through fpsolver's import of this name."""
    _, _, _, x, info = dgtsv(sub, diag, sup, rhs, 1, 1, 1, 1)
    return x, info


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [x_min, x_max] with n cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ContractViolation(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not 8 <= self.n <= MAX_CELLS:
            raise ContractViolation(f"need 8 <= n <= {MAX_CELLS}, got n={self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        """Cell centers, one read-only array per grid."""
        return _cell_centers(self)

    @property
    def edges(self) -> np.ndarray:
        """Cell interfaces, length n+1, one read-only array per grid."""
        return _cell_edges(self)


@lru_cache(maxsize=16)
def _cell_centers(grid: Grid) -> np.ndarray:
    x = grid.x_min + (np.arange(grid.n) + 0.5) * grid.dx
    x.setflags(write=False)
    return x


@lru_cache(maxsize=16)
def _cell_edges(grid: Grid) -> np.ndarray:
    edges = grid.x_min + np.arange(grid.n + 1) * grid.dx
    edges.setflags(write=False)
    return edges


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


def density_from_values(grid: Grid, values: np.ndarray) -> Density:
    """The unit-mass Density of raw cell values, the one constructor from
    values: clips tiny negatives from roundoff, divides by the midpoint mass
    (DegenerateInputError when it is <= 0) and validates once."""
    vals = np.maximum(np.asarray(values, dtype=float), 0.0)
    m = integrate(vals, grid)
    if m <= 0.0:
        raise DegenerateInputError(f"cannot normalize density with mass {m}")
    return Density(grid, vals / m)


def moments(rho: Density) -> tuple[float, float, float]:
    """(M1, M2, Var) of a normalized density."""
    x = rho.grid.x
    m1 = integrate(x * rho.values, rho.grid)
    m2 = integrate(x * x * rho.values, rho.grid)
    return m1, m2, max(m2 - m1 * m1, 0.0)


def _log_density(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(max(v, LOG_FLOOR)), the one log of a density's values (into `out`
    if given, as for the integrands below)."""
    out = np.maximum(v, LOG_FLOOR, out=out)
    return np.log(out, out=out)


def _entropy_integrand(v: np.ndarray, log_v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v log v, zero where v = 0."""
    out = np.multiply(v, log_v, out=out)
    out[~(v > 0.0)] = 0.0
    return out


def entropy(rho: Density) -> float:
    """Boltzmann entropy integral S(rho) = int rho log rho."""
    v = rho.values
    return integrate(_entropy_integrand(v, _log_density(v)), rho.grid)


@dataclass(frozen=True)
class ModelParams:
    """Relaxation time tau and noise amplitude nu of the evolution equation."""

    tau: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        require_positive(tau=self.tau, nu=self.nu, nu_squared=self.nu * self.nu)


@dataclass(frozen=True)
class Potential:
    """Confining potential H with derivatives and growth metadata.

    h1/h2/h3 are H', H'', H'''.  growth_constants are the asymptotic
    curvatures (c_-, c_+) of H at -inf/+inf; convexity_lower_bound, when set,
    certifies H'' >= k everywhere.  `jet` evaluates H, H' and H'' together:
    in one fused pass when h, h1 and h2 all carry the same fused function as
    their `jet` attribute (`doublewell_potential`), else by the three calls.
    """

    h: Callable[[np.ndarray], np.ndarray]
    h1: Callable[[np.ndarray], np.ndarray]
    h2: Callable[[np.ndarray], np.ndarray]
    h3: Callable[[np.ndarray], np.ndarray]
    growth_constants: tuple[float, float]
    convexity_lower_bound: Optional[float] = None
    name: str = "custom"

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
        """(H(x), H'(x), f) with f() = H''(x), formed only when f is called.
        The fused pass gives the bits of the separate calls; a potential with
        any of h, h1, h2 replaced (`dataclasses.replace`) falls back to them."""
        fused = getattr(self.h, "jet", None)
        if fused is not None and getattr(self.h1, "jet", None) is fused and getattr(self.h2, "jet", None) is fused:
            return fused(x)
        return self.h(x), self.h1(x), lambda: self.h2(x)

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
    require_positive(k=k)
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

    def jet(x):
        # x^2, r = sqrt(x^2 + 1) and r - 2 once for H = (r - 2)^2,
        # H' = 2 (r - 2) x / r and H'' = 2 (x^2/r^2 + (r - 2)/r^3)
        x = np.asarray(x, dtype=float)
        x2 = x**2
        r = np.sqrt(x2 + 1.0)
        rm2 = r - 2.0
        return rm2**2, 2.0 * rm2 * x / r, lambda: 2.0 * (x2 / r**2 + rm2 / r**3)

    def h(x):
        return jet(x)[0]

    def h1(x):
        return jet(x)[1]

    def h2(x):
        return jet(x)[2]()

    def h3(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x**2 + 1.0)
        return 12.0 * x / r**5

    h.jet = h1.jet = h2.jet = jet  # Potential.jet takes this pass while all three carry it
    return Potential(h=h, h1=h1, h2=h2, h3=h3, growth_constants=(2.0, 2.0), name="doublewell")


def polynomial_potential(coeffs: list[float], grid: Optional[Grid] = None) -> Potential:
    """H(x) = sum_i coeffs[i] * x^i on the interval [x_min, x_max] of `grid`,
    or on [-10, 10] when no grid is given.

    The growth constants are H'' at the two ends of the interval.  The
    convexity certificate is set when the minimum of H'' over the interval is
    positive.  That minimum is exact: the least of H'' at both ends and at
    the real roots of H''' inside.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 1:
        raise ContractViolation("polynomial potential needs at least one coefficient")
    require_finite(**{f"coeffs[{i}]": v for i, v in enumerate(c.tolist())})
    poly = np.polynomial.polynomial
    d1, d2, d3 = (poly.polyder(c, k) for k in (1, 2, 3))
    a, b = (grid.x_min, grid.x_max) if grid is not None else (-10.0, 10.0)
    c_minus, c_plus = float(poly.polyval(a, d2)), float(poly.polyval(b, d2))
    if c_minus <= 0.0 or c_plus <= 0.0:
        raise ContractViolation("polynomial potential must be convex at the domain ends")
    roots = poly.polyroots(d3)
    inside = roots.real[np.isreal(roots) & (a < roots.real) & (roots.real < b)]
    kmin = float(min(c_minus, c_plus, *poly.polyval(inside, d2)))

    def evaluator(d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: poly.polyval(np.asarray(x, dtype=float), d)

    return Potential(
        h=evaluator(c),
        h1=evaluator(d1),
        h2=evaluator(d2),
        h3=evaluator(d3),
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

    def check_decay(self, times: np.ndarray) -> None:
        """Verify the declared exponential envelope at sampled times, to ENVELOPE_TOL."""
        if self.kappa is None or self.L0 is None:
            return
        for t in np.asarray(times, dtype=float):
            if abs(self.ell_dot(t)) > self.L0 * math.exp(-self.kappa * t) + ENVELOPE_TOL:
                raise ContractViolation(
                    f"path '{self.name}': |ell_dot({t})| exceeds declared envelope"
                )


def constant_path(l: float) -> ConstraintPath:
    require_finite(l=l)
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
    require_finite(l_star=l_star, A=A)
    require_positive(kappa=kappa)
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
    require_finite(l0=l0, l1=l1, t0=t0)
    require_positive(w=w)
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
