"""Second-order finite-volume integrator for the constrained equation.

Each step is one TR-BDF2 step (Bank et al., IEEE Trans. CAD 4, 1985; Hosea &
Shampine, Appl. Numer. Math. 20, 1996) of the drift-diffusion operator in
conservative flux form: a trapezoid stage to t + gamma*h, then a BDF2 stage
to t + h, with gamma = 2 - sqrt(2).  The nonlocal multiplier
sigma = int H' rho dx + tau l'(t) is predicted at each stage time from the
explicit flux that the trapezoid stage computes anyway,
sigma(t + c h) ~ int H' (rho + c h f0) dx + tau l'(t + c h), which is
second-order accurate and needs no extra solve and no step history.  Between
two records the step h grows from the given dt up to the record spacing,
controlled by the step's embedded error estimate (see `run`).

The Chang-Cooper/exponential-fitting weights (Chang & Cooper, J. Comput.
Phys. 6, 1970) use exact tilted-potential differences, so grid-sampled Gibbs
states are exact discrete steady states of every stage.  Positivity holds for
any data: the implicit solves are M-matrix solves, and the two explicit
updates (the explicit half of the trapezoid stage and the BDF2 combination,
both a cell value plus a flux difference) are flux-limited wherever they
would go negative, which keeps them conservative.  The negative mass the unlimited updates would have
made is reported on the records.  The moment constraint is never
re-projected: its drift is an emergent accuracy monitor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .core import (
    MEAN_TOL,
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    constant_path,
    density_from_values,
    integrate,
    moments,
    require_positive,
    solve_banded,
)
from .equilibrium import TiltedFamily, solve_lambda, tilted_family
from .errors import ContractViolation, SolverError, StepError
from .functionals import _dissipation_integrand
from .records import FPSOLVER_COLUMNS, record_times, trajectory

# TR-BDF2: trapezoid stage to t + GAMMA*dt, then
# rho_next - BDF2_DT * dt * f(rho_next) = BDF2_NEW * rho_gamma - BDF2_OLD * rho.
GAMMA = 2.0 - math.sqrt(2.0)
BDF2_DT = (1.0 - GAMMA) / (2.0 - GAMMA)
BDF2_NEW = 1.0 / (GAMMA * (2.0 - GAMMA))
BDF2_OLD = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))

# Embedded error estimate (Hosea & Shampine): the local error is
# C h^3 y''' + O(h^4) with C = (-3 gamma^2 + 4 gamma - 2)/(12 (2 - gamma)),
# and h^3 y''' ~ 2 h^2 f[t, t + gamma h, t + h], the second divided difference
# of f over the stage times.  The stage values give h f there: with q the
# explicit half of the trapezoid stage, h f(t) = (2/gamma)(q - rho),
# h f(t + gamma h) = (2/gamma)(rho_gamma - rho) - h f(t) and
# h f(t + h) = (rho_next - BDF2_NEW rho_gamma + BDF2_OLD rho)/BDF2_DT, so
# est = EST_Q q + EST_GAMMA rho_gamma + EST_NEW rho_next + EST_RHO rho, and a
# constant state has none.
_C2 = (-3.0 * GAMMA**2 + 4.0 * GAMMA - 2.0) / (6.0 * (2.0 - GAMMA))
EST_Q = 2.0 * (2.0 - GAMMA) * _C2 / (GAMMA**2 * (1.0 - GAMMA))
EST_NEW = _C2 / (BDF2_DT * (1.0 - GAMMA))
EST_GAMMA = -2.0 * _C2 / (GAMMA**2 * (1.0 - GAMMA)) - BDF2_NEW * EST_NEW
EST_RHO = -(EST_Q + EST_GAMMA + EST_NEW)
# A step longer than dt is accepted when its filtered estimate has
# ||est||_1 / h <= ERR_TOL dt^2, an error per unit time that falls as dt^2
# when dt is refined, as the error of fixed dt steps does.  At 0.01 a run
# forced at |l'| ~ 0.3 keeps every step at dt, so it still refines as a
# fixed-dt run (at 0.015 some steps grow), while a relaxing run grows its
# steps once it nears equilibrium.
ERR_TOL = 0.01
# Step-size control (Hairer & Wanner, Solving ODEs II, IV.8).  The error per
# unit time is O(h^2): h_new = h min(FAC_MAX, max(FAC_MIN, SAFETY (tol/err)^(1/2))).
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 2.0


def sigma_of_state(
    rho: Density, t: float, pot: Potential, path: ConstraintPath, params: ModelParams
) -> float:
    """sigma(t) = int H'(x) rho(t,x) dx + tau * l'(t)."""
    h1 = tilted_family(pot, rho.grid).h1
    return integrate(h1 * rho.values, rho.grid) + params.tau * path.ell_dot(t)


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w / (e^w - 1) for w >= 0, the smaller exponential-fitting weight;
    overwrites w.  The floor gives B(0) = 1 without a 0/0, and B(700) ~ 1e-301
    is already zero to the flux, so e^w never overflows."""
    np.maximum(w, 1e-300, out=w)
    np.minimum(w, 700.0, out=w)
    w /= np.expm1(w)
    return w


class _Stepper:
    """The model's grid binding (`tilted_family`) for the steps of one run.

    The interface flux is (nu^2/dx) * (upper_i rho_{i+1} - lower_i rho_i) with
    w = (H_{i+1} - H_i)/nu^2 - sigma dx/nu^2 and upper = lower + w, so one
    weight evaluation per sigma gives both.
    """

    def __init__(self, grid: Grid, pot: Potential, path: ConstraintPath, params: ModelParams):
        nu2 = params.nu * params.nu
        dx = grid.dx
        family = tilted_family(pot, grid)
        self.n = grid.n
        self.dx = dx
        self.tau = params.tau
        self.ell_dot = path.ell_dot
        self.h1_dx = family.h1 * dx
        # int H' (div g) dx = dh1 @ g for an interface flux g (see _limited)
        self.dh1 = -np.diff(self.h1_dx)
        self.w0 = np.diff(family.h) / nu2
        self.w_per_sigma = dx / nu2
        self.rate = nu2 / (params.tau * dx * dx)

    def weights(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) at multiplier sigma."""
        w = self.w0 - sigma * self.w_per_sigma
        # B(-w) = B(w) + w: evaluate only the smaller weight B(|w|), so
        # neither weight is formed by cancellation
        b = _bernoulli(np.abs(w))
        lower = b - np.minimum(w, 0.0)
        b += np.maximum(w, 0.0)
        return lower, b


def gap_rate(ell: float, nu: float, pot: Potential, grid: Grid, tau: float = 1.0) -> float:
    """2 mu_1, the rate at which H(rho|gamma) decays near gamma = gamma_{lambda(ell)}.

    Linearized at the grid Gibbs state with multiplier sigma = lambda(ell),
    the stepper's own generator A (the Chang-Cooper flux difference of
    `_Stepper.weights`, times its rate) becomes M = A - b (x^T A)/(x^T b),
    with sigma eliminated by the constraint d/dt x^T rho = 0 and
    b = d/dsigma [A(sigma) gamma].  Grid Gibbs states are exact steady states,
    A(sigma) gamma_sigma = 0 for every sigma, so b = -A (x gamma)/nu^2.
    Detailed balance makes M similar to the symmetric S - w w^T/(z^T w),
    with S the symmetrized A (off-diagonal sqrt(lower upper), same
    diagonal), z = sqrt(gamma) (x - m) and w = S z.  Its null vectors are
    sqrt(gamma) (mass) and z (the mean mode, frozen by the constraint); mu_1
    is the smallest eigenvalue of K = -(S - w w^T/(z^T w)) orthogonal to
    both (Bovier, Gayrard & Klein, J. Eur. Math. Soc. 7, 2005; Menz &
    Schlichting, Ann. Probab. 42, 2014).

    With P = -S, K = P - P z z^T P/(z^T P z) is a rank-one downdate of the
    tridiagonal P, so the eigenvalues of K interlace with those of P
    (Golub, SIAM Rev. 15, 1973), and mu_1, the third eigenvalue of K, lies
    in [d_1, d_2], the second and third eigenvalues of P.  In there the
    inertia of P - mu bordered by P z, counted over either diagonal block
    (Haynsworth, Linear Algebra Appl. 1, 1968), gives mu_1 < mu exactly when
    phi(mu) = z^T z + mu z^T (P - mu)^{-1} z > 0.  mu_1 is bisected on the
    sign of phi down to adjacent floats, one tridiagonal solve per step, on
    P at unit rate: `_Stepper.rate` = nu^2/(tau dx^2) multiplies the result,
    so it scales exactly as 1/tau.  Raises SolverError if P - mu is singular,
    or if mu_1 <= 1000 eps max diag(P), where its roundoff scatter across
    grids, about 6 eps max diag(P) / mu_1 relative, would pass 1%.
    """
    lam = solve_lambda(ell, nu, pot, grid).lam
    # A does not depend on the path's rate
    op = _Stepper(grid, pot, constant_path(ell), ModelParams(tau=tau, nu=nu))
    lower, upper = op.weights(lam)
    # P = -S at unit rate: diagonal lower_i + upper_{i-1}, off-diagonal -sqrt(lower_i upper_i)
    p_off = -np.sqrt(lower * upper)
    p_diag = np.append(lower, 0.0) + np.insert(upper, 0, 0.0)

    # sqrt(gamma) from the same exponents: gamma_{i+1}/gamma_i = e^{-w_i}
    log_s = np.concatenate(([0.0], -0.5 * np.cumsum(op.w0 - lam * op.w_per_sigma)))
    s = np.exp(log_s - log_s.max())
    s /= np.linalg.norm(s)
    x = tilted_family(pot, grid).x
    m = float(s * s @ x)
    z = s * (x - m)
    zz = float(z @ z)

    d = eigvalsh_tridiagonal(p_diag, p_off, select="i", select_range=(1, 2))
    lo, hi = float(d[0]), float(d[1])
    while True:
        mu = 0.5 * (lo + hi)
        if not lo < mu < hi:
            break
        y, info = solve_banded(p_off.copy(), p_diag - mu, p_off.copy(), z.copy())
        if info != 0:
            raise SolverError(
                "gap_rate: P - mu is singular",
                diagnostics={"info": int(info), "mu": mu, "ell": ell, "nu": nu},
            )
        if zz + mu * float(z @ y) > 0.0:
            hi = mu
        else:
            lo = mu
    floor = 1000.0 * np.finfo(float).eps * float(p_diag.max())
    if hi <= floor:
        diagnostics = {"mu1": hi * op.rate, "floor": floor * op.rate, "nu": nu, "n": grid.n}
        raise SolverError("gap_rate: mu_1 is below its precision floor", diagnostics=diagnostics)
    return 2.0 * hi * op.rate


def _limited(base: np.ndarray, flux: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray, float]:
    """base + div(flux), kept nonnegative by limiting the flux.

    (div flux)_i = flux_i - flux_{i-1} with zero flux at both ends, so
    flux_i > 0 carries mass from cell i+1 to cell i.  `base` is nonnegative.
    Where the update would go negative, each interface flux is scaled by its
    donor cell's factor min(1, base / outflow) (Zalesak, J. Comput. Phys. 31,
    1979), so no cell gives more than it holds; the update stays
    conservative, and a zero flux (a grid Gibbs state) stays zero.  Returns
    the update, the flux it used and the negative mass the unlimited update
    had (0 when the limiter did not act).
    """
    new = base.copy()
    new[:-1] += flux
    new[1:] -= flux
    if new.min() >= 0.0:
        return new, flux, 0.0
    negative = -float(np.sum(new[new < 0.0])) * dx
    outflow = np.zeros_like(base)
    outflow[:-1] = np.maximum(-flux, 0.0)
    outflow[1:] += np.maximum(flux, 0.0)
    factor = np.ones_like(base)
    over = outflow > base
    factor[over] = base[over] / outflow[over]
    flux = flux * np.where(flux > 0.0, factor[1:], factor[:-1])
    new = base.copy()
    new[:-1] += flux
    new[1:] -= flux
    np.maximum(new, 0.0, out=new)  # an emptied donor may round to -ulp
    return new, flux, negative


def _system(sigma: float, a: float, op: _Stepper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonals of I - a L(sigma), L the flux difference at unit rate."""
    lower, upper = op.weights(sigma)
    lower *= -a
    upper *= -a
    diag = np.empty(op.n)
    np.subtract(1.0, lower, out=diag[:-1])
    diag[-1] = 1.0
    diag[1:] -= upper
    return lower, diag, upper


def _implicit(rhs: np.ndarray, system: tuple, sigma: float, stage: str) -> np.ndarray:
    """Solve system u = rhs; overwrites both."""
    new, info = solve_banded(*system, rhs)
    if info != 0:
        raise StepError(
            "tridiagonal solve failed", diagnostics={"info": int(info), "sigma": sigma, "stage": stage}
        )
    min_val = float(new.min())
    if not min_val >= 0.0:
        if not min_val >= -1e-12 * max(1.0, float(new.max())):
            raise StepError(
                "negative or non-finite density after implicit solve",
                diagnostics={"min_value": min_val, "sigma": sigma, "stage": stage},
            )
        np.maximum(new, 0.0, out=new)
    return new


def _advance(
    values: np.ndarray, t: float, dt: float, op: _Stepper, filter_above: float | None = None
) -> tuple[np.ndarray, float, float, float, float]:
    """One TR-BDF2 step of length dt from (t, values).

    `values` has unit mass.  Returns the renormalized values, sigma at the
    start of the step, the mass drift |mass - 1| of the step before
    renormalization, the negative mass the two explicit updates would have
    made without the positivity limiter (see `_limited`), and err, NaN unless
    `filter_above` is given.  Then err = ||est||_1 / dt for the step's
    embedded error estimate est filtered through the BDF2 stage matrix
    I - (gamma/2) dt L (Shampine's filter, which keeps stiff components from
    inflating the estimate).  That matrix is an M-matrix with unit column
    sums, so its inverse never raises the L1 norm: where the unfiltered err
    is at most `filter_above`, it is returned as the bound it is and the
    filter solve is skipped.  The estimate only reads the stages, so the new
    values do not depend on it.  Each implicit solve keeps the StepError gate
    on negative or NaN output; tiny negatives from roundoff are clipped.  A
    step mass that is not finite and positive (an inf passes that gate) is a
    StepError too.
    """
    a_trap = 0.5 * GAMMA * dt * op.rate
    h1_rho = float(op.h1_dx @ values)
    sigma = h1_rho + op.tau * op.ell_dot(t)
    lower, upper = op.weights(sigma)
    # (gamma dt / 2) f0 = div(flux); sigma is predicted from the unlimited f0
    flux = upper * values[1:] - lower * values[:-1]
    flux *= a_trap
    h1_half = float(op.dh1 @ flux)  # int H' f0 dx, times gamma dt / 2
    sigma_gamma = h1_rho + 2.0 * h1_half + op.tau * op.ell_dot(t + GAMMA * dt)
    sigma_next = h1_rho + (2.0 / GAMMA) * h1_half + op.tau * op.ell_dot(t + dt)

    rhs, flux, negative = _limited(values, flux, op.dx)
    estimate = filter_above is not None
    if estimate:  # the trapezoid solve overwrites q
        est = EST_Q * rhs
        est += EST_RHO * values
    rho_gamma = _implicit(rhs, _system(sigma_gamma, a_trap, op), sigma_gamma, "trapezoid")
    rhs = BDF2_NEW * rho_gamma - BDF2_OLD * values
    if not rhs.min() >= 0.0:
        # the same combination, rho_gamma + BDF2_OLD (rho_gamma - values),
        # in flux form, where rho_gamma - values = div(flux + a_trap f_gamma)
        lower, upper = op.weights(sigma_gamma)
        flux += a_trap * (upper * rho_gamma[1:] - lower * rho_gamma[:-1])
        flux *= BDF2_OLD
        rhs, _, negative_bdf2 = _limited(rho_gamma, flux, op.dx)
        negative += negative_bdf2
    system = _system(sigma_next, BDF2_DT * dt * op.rate, op)
    # dgtsv overwrites its arguments: the estimate's filter reuses the matrix
    new = _implicit(rhs, [d.copy() for d in system] if estimate else system, sigma_next, "bdf2")
    mass = float(new.sum()) * op.dx
    if not (math.isfinite(mass) and mass > 0.0):
        raise StepError("step mass is not finite and positive", diagnostics={"mass": mass})
    err = math.nan
    if estimate:
        est += EST_GAMMA * rho_gamma
        est += EST_NEW * new
        err = float(np.abs(est).sum()) * op.dx / dt
        if err > filter_above:  # the matrix the BDF2 stage just solved
            est, _ = solve_banded(*system, est)
            err = float(np.abs(est).sum()) * op.dx / dt
    new /= mass
    return new, sigma, abs(mass - 1.0), negative, err


def project_mean(rho: Density, target: float) -> Density:
    """Translate a density by a = target - M1: its piecewise-linear CDF is
    shifted by a on the cell edges and differenced, which moves the midpoint
    mean by exactly a; mass shifted past an end stays in that end cell."""
    grid, edges = rho.grid, rho.grid.edges
    cdf = np.concatenate(([0.0], np.cumsum(rho.values) * grid.dx))
    shifted = np.interp(edges - (target - moments(rho)[0]), edges, cdf)
    shifted[0], shifted[-1] = 0.0, cdf[-1]
    return density_from_values(grid, np.diff(shifted) / grid.dx)


def _factor(ratio: float) -> float:
    """SAFETY (tol/err)^(1/2) for err = ratio * tol; inf at err = 0."""
    return SAFETY / math.sqrt(ratio) if ratio > 0.0 else math.inf


def _sigma_and_dissipation(rows: np.ndarray, cols: dict, h1_rho: np.ndarray, log_r: np.ndarray,
                           family: TiltedFamily, params: ModelParams) -> None:
    """The FV columns of the record states `rows` from the record kernel's
    int H' rho dx and log rho: sigma = int H' rho dx + tau l'(t), and D."""
    nu, dx = params.nu, family.dx
    sigma = cols["sigma"]
    sigma[:] = h1_rho + params.tau * cols["ell_dot"]
    cols["D"][:] = _dissipation_integrand(rows, log_r, dx, family.h1, sigma[:, None], nu * nu).sum(axis=1) * dx


def _states(vals: np.ndarray, op: _Stepper, dt: float, record_every: int, slots: list, times: list, stretched: bool):
    """Yields the state at each record slot of `slots`, from `vals` at slot 0,
    as (values, limited mass, largest mass drift, steps) over the steps since
    the record before.

    [0, T] is cut into slots of dt; where dt does not divide T the last slot
    runs on to T, so it is up to 2 dt long, and a horizon below dt is one
    slot of dt, ending at dt.  So no step and no record interval is shorter
    than dt: the energy audit's difference quotient over a sliver would be
    roundoff.  A step spans m >= 1 whole slots and never passes a record:
    between two records it grows from dt up to the record spacing.  Where
    the next record is one slot away the step is that slot, with no
    estimate.  Otherwise the step forms its embedded error estimate (see
    `_advance`), and standard control sets the next step from it, to at
    most FAC_MAX times the proposed step and at most `record_every` slots.
    A step cut short to land on a record counts that cap from the proposal
    it was cut from, not from its own slots, so once the estimate allows it
    a relaxing run takes one step per record.  A step of m > 1 slots is
    retried with fewer slots when ||est||_1 / h exceeds ERR_TOL dt^2 or when
    it would engage the positivity limiter, and the step after a retry is
    capped at the retried one; a one-slot step is always accepted, as every
    step was at fixed dt.  So with `record_every` = 1 every step is the dt
    step from k dt, bit for bit (where dt divides T), and a run takes at
    most ceil(T/dt) steps.  A StepError names the step it failed in, counted
    over the run.
    """
    yield vals, 0.0, 0.0, 0
    tol = ERR_TOL * dt * dt
    k, steps_done = 0, 0
    size, grow = 1.0, FAC_MAX  # the proposed step in slots and its largest growth factor
    for k_rec in slots[1:]:
        limited, drift, taken = 0.0, 0.0, 0
        while k < k_rec:
            # the next step grows from the proposal, not from a step the record cut short
            base = max(1, int(size))
            m = min(k_rec - k, base)
            while True:
                span = times[-1] - k * dt if stretched and k + m == slots[-1] else m * dt
                # the next step has at most `top` slots, so an err below `level`
                # sets it no matter how far below (see _advance)
                top = min(record_every, base * grow)
                level = (SAFETY * m / top) ** 2 * tol if k_rec - k > 1 else None
                try:
                    new, _, d, c, err = _advance(vals, k * dt, span, op, level)
                except StepError as exc:
                    exc.diagnostics["step"] = steps_done + 1
                    raise
                ratio = err / tol
                if m == 1 or (c == 0.0 and ratio <= 1.0):
                    break
                # retry with fewer slots, at least one
                size = m * (0.5 if c > 0.0 else max(FAC_MIN, _factor(ratio)))
                m = base = max(1, min(m - 1, int(size)))
                grow = 1.0
            if not math.isnan(ratio):
                size = min(top, m * max(FAC_MIN, _factor(ratio)))
                grow = FAC_MAX
            vals, k = new, k + m
            limited += c
            drift = max(drift, d)
            taken += 1
            steps_done += 1
        yield vals, limited, drift, taken


def run(
    rho0: Density, path: ConstraintPath, dt: float, pot: Potential, params: ModelParams, T: float,
    record_every: int = 1, keep_densities: int = 0,
) -> dict[str, np.ndarray]:
    """Integrate on [0, T] with TR-BDF2 steps of at least dt (see `_states`),
    recording diagnostics at t = k dt for k = j * `record_every` and at
    exactly T: the schedule that `record_times` fixes before the first step.

    Returns the trajectory of `records.trajectory`, the one record loop,
    which fills the columns both schemes share: one entry per record, with
    FPSOLVER_COLUMNS, `steps` and `density`.  The scheme's own columns are
    sigma = int H' rho dx + tau l'(t) and the grid dissipation D at it
    (`_sigma_and_dissipation`, a hook on each record block), the negative
    mass the positivity limiter kept out, the largest step mass drift
    |mass - 1| before renormalization and the number of steps taken since
    the previous record.  The `density` column holds the states of records
    0, stride, 2 stride, ... for a `keep_densities` stride > 0, one row
    each, and no rows otherwise; rho0 was validated, `_implicit` rejects
    negative or NaN values and `_advance` an inf.
    """
    require_positive(T=T, dt=dt)
    if record_every < 1 or keep_densities < 0:
        raise ContractViolation(
            f"need record_every >= 1 and keep_densities >= 0, got {record_every}, {keep_densities}"
        )
    schedule = record_times(T, dt, record_every)
    if abs(moments(rho0)[0] - path.ell(0.0)) > MEAN_TOL:
        rho0 = project_mean(rho0, path.ell(0.0))
    grid, n = rho0.grid, len(schedule[1])
    op = _Stepper(grid, pot, path, params)

    def states(cols: dict):
        steps, kept = np.zeros(n, dtype=int), np.empty((-(-n // keep_densities) if keep_densities else 0, grid.n))
        for i, (vals, limited, drift, taken) in enumerate(_states(rho0.values, op, dt, record_every, *schedule)):
            cols["limited_mass"][i], cols["mass_drift"][i], steps[i] = limited, drift, taken
            if keep_densities and i % keep_densities == 0:
                kept[i // keep_densities] = vals
            yield vals
        cols["steps"], cols["density"] = steps, kept

    return trajectory(FPSOLVER_COLUMNS, schedule[1], states, pot, grid, path, params, _sigma_and_dissipation)
