"""Second-order finite-volume integrator for the constrained equation.

Each step is one TR-BDF2 step (Bank et al., IEEE Trans. CAD 4, 1985; Hosea &
Shampine, Appl. Numer. Math. 20, 1996) of the drift-diffusion operator in
conservative flux form: a trapezoid stage to t + gamma*dt, then a BDF2 stage
to t + dt, with gamma = 2 - sqrt(2).  The nonlocal multiplier
sigma = int H' rho dx + tau l'(t) is predicted at each stage time from the
explicit flux that the trapezoid stage computes anyway,
sigma(t + c dt) ~ int H' (rho + c dt f0) dx + tau l'(t + c dt), which is
second-order accurate and needs no extra solve and no step history.

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
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    _entropy_integrand,
    _log_density,
    constant_path,
    integrate,
    moments,
    require_positive,
    solve_banded,
    step_count,
)
from .equilibrium import solve_lambda, tilted_family
from .errors import ContractViolation, SolverError, StepError
from .functionals import _breakdown, _dissipation_integrand, _kl_integrand, log_partition
from .records import TrajectoryRecord
from .transport import quantile_to_density, to_quantile

# TR-BDF2: trapezoid stage to t + GAMMA*dt, then
# rho_next - BDF2_DT * dt * f(rho_next) = BDF2_NEW * rho_gamma - BDF2_OLD * rho.
GAMMA = 2.0 - math.sqrt(2.0)
BDF2_DT = (1.0 - GAMMA) / (2.0 - GAMMA)
BDF2_NEW = 1.0 / (GAMMA * (2.0 - GAMMA))
BDF2_OLD = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))


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
    """The model's grid binding (`tilted_family`) at one time step.

    The interface flux is (nu^2/dx) * (upper_i rho_{i+1} - lower_i rho_i) with
    w = (H_{i+1} - H_i)/nu^2 - sigma dx/nu^2 and upper = lower + w, so one
    weight evaluation per sigma gives both.
    """

    def __init__(
        self,
        grid: Grid,
        dt: float,
        pot: Potential,
        path: ConstraintPath,
        params: ModelParams,
    ):
        require_positive(dt=dt)
        nu2 = params.nu * params.nu
        dx = grid.dx
        family = tilted_family(pot, grid)
        self.n = grid.n
        self.dx = dx
        self.dt = dt
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
    so it scales exactly as 1/tau.  Raises SolverError if P - mu is singular.
    """
    lam = solve_lambda(ell, nu, pot, grid).lam
    # A does not depend on the step or the path's rate, so any dt will do
    op = _Stepper(grid, 1.0, pot, constant_path(ell), ModelParams(tau=tau, nu=nu))
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
            return 2.0 * hi * op.rate
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


def _implicit(rhs: np.ndarray, sigma: float, a: float, op: _Stepper, stage: str) -> np.ndarray:
    """Solve (I - a L(sigma)) u = rhs, L the flux difference at unit rate."""
    lower, upper = op.weights(sigma)
    lower *= -a
    upper *= -a
    diag = np.ones(op.n)
    diag[:-1] -= lower
    diag[1:] -= upper
    new, info = solve_banded(lower, diag, upper, rhs)
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


def _advance(values: np.ndarray, t: float, op: _Stepper) -> tuple[np.ndarray, float, float, float]:
    """One TR-BDF2 step from (t, values).

    `values` has unit mass.  Returns the renormalized values, sigma at the
    start of the step, the mass drift |mass - 1| of the step before
    renormalization, and the negative mass the two explicit updates would
    have made without the positivity limiter (see `_limited`).  Each
    implicit solve keeps the StepError gate on negative or NaN output; tiny
    negatives from roundoff are clipped.  A step mass that is not finite and
    positive (an inf passes that gate) is a StepError too.
    """
    dt = op.dt
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
    rho_gamma = _implicit(rhs, sigma_gamma, a_trap, op, "trapezoid")
    rhs = BDF2_NEW * rho_gamma - BDF2_OLD * values
    if not rhs.min() >= 0.0:
        # the same combination, rho_gamma + BDF2_OLD (rho_gamma - values),
        # in flux form, where rho_gamma - values = div(flux + a_trap f_gamma)
        lower, upper = op.weights(sigma_gamma)
        flux += a_trap * (upper * rho_gamma[1:] - lower * rho_gamma[:-1])
        flux *= BDF2_OLD
        rhs, _, negative_bdf2 = _limited(rho_gamma, flux, op.dx)
        negative += negative_bdf2
    new = _implicit(rhs, sigma_next, BDF2_DT * dt * op.rate, op, "bdf2")
    mass = float(np.sum(new)) * op.dx
    if not (math.isfinite(mass) and mass > 0.0):
        raise StepError("step mass is not finite and positive", diagnostics={"mass": mass})
    new /= mass
    return new, sigma, abs(mass - 1.0), negative


def project_mean(rho: Density, target: float) -> Density:
    """Translate a density so that its first moment equals target (the shift
    map x -> x + a, realized in quantile coordinates)."""
    q = to_quantile(rho, max(64, 2 * rho.grid.n))
    return quantile_to_density(q + (target - float(np.mean(q))), rho.grid)


def run(
    rho0: Density,
    path: ConstraintPath,
    dt: float,
    pot: Potential,
    params: ModelParams,
    T: float,
    record_every: int = 1,
    keep_densities: bool = False,
) -> list[TrajectoryRecord]:
    """Integrate on [0, T] with TR-BDF2 steps, recording diagnostics every
    `record_every` steps.

    Per-record quantities: recomputed sigma, free energy split, dissipation,
    relative entropies against the quasistationary state gamma_{lambda(ell(t))}
    and the limit state gamma_{lambda(ell*)}, the negative mass the
    positivity limiter kept out in the steps since the previous record, and
    the energy-balance audit eb_residual = |dF/dt + D/tau - sigma l'| on
    record spacing (trapezoid in the rate terms, NaN on the first record).

    `make_record` reads rho in one pass: E, M1, M2 and int H' rho come from
    one product `basis @ rho`, and one log rho serves S, D and both relative
    entropies, whose log gamma = `exponent` - log Z stays finite where gamma
    underflows to 0 (`relative_entropy` raises there).  Each lambda(ell(t))
    starts from the last two lambdas, extrapolated linearly in t.  A record's
    Density is built only for `keep_densities`; otherwise rho0 was validated,
    `_implicit` rejects negative or NaN values and `_advance` an inf.
    """
    require_positive(T=T)
    if record_every < 1:
        raise ContractViolation(f"need record_every >= 1, got {record_every}")
    grid = rho0.grid
    op = _Stepper(grid, dt, pot, path, params)
    n_steps = step_count(T, dt)
    m1_0, _, _ = moments(rho0)
    if abs(m1_0 - path.ell(0.0)) > 1e-8:
        rho0 = project_mean(rho0, path.ell(0.0))
    nu, dx = params.nu, grid.dx
    family = tilted_family(pot, grid)
    logz0 = log_partition(pot, grid, nu)
    star = solve_lambda(path.ell_star, nu, pot, grid)
    g_star = star.state.density.values
    log_star = family.exponent(star.lam, nu) - star.state.log_z
    warm = None  # (t, lambda, dlambda/dt) at the previous record of a moving path

    def make_record(vals: np.ndarray, t: float, limited: float) -> TrajectoryRecord:
        nonlocal warm
        ell_t = path.ell(t)
        e, m1, m2, h1_rho = (family.basis @ vals * dx).tolist()
        sigma = h1_rho + params.tau * path.ell_dot(t)
        log_r = _log_density(vals)
        fe = _breakdown(float(_entropy_integrand(vals, log_r).sum()) * dx, e, logz0, nu)
        h_star = float(_kl_integrand(vals, log_r, log_star).sum()) * dx
        if path.L0 == 0.0:
            # gamma_{lambda(ell(t))} is gamma_star
            lam_t, h_quasistatic = star.lam, h_star
        else:
            start = None if warm is None else warm[1] + warm[2] * (t - warm[0])
            sol = solve_lambda(ell_t, nu, pot, grid, start=start)
            lam_t, log_g = sol.lam, family.exponent(sol.lam, nu) - sol.state.log_z
            warm = (t, lam_t, 0.0 if warm is None else (lam_t - warm[1]) / (t - warm[0]))
            h_quasistatic = float(_kl_integrand(vals, log_r, log_g).sum()) * dx
        d = _dissipation_integrand(vals, log_r, dx, family.h1, sigma, nu * nu)
        return TrajectoryRecord(
            t=t, sigma=sigma, ell=ell_t, M1=m1, M2=m2, F=fe.F, S=fe.S, E=e, D=float(d.sum()) * dx,
            Hrel_quasistatic=h_quasistatic, Hrel_star=h_star, lam_ell=lam_t,
            l1_star=float(np.abs(vals - g_star).sum()) * dx, limited_mass=limited,
            density=Density(grid, vals) if keep_densities else None,
        )

    vals = rho0.values
    records = [make_record(vals, 0.0, 0.0)]
    limited = 0.0
    for k in range(1, n_steps + 1):
        try:
            vals, _, _, c = _advance(vals, (k - 1) * dt, op)
        except StepError as exc:
            exc.diagnostics["step"] = k
            raise
        limited += c
        if k % record_every == 0 or k == n_steps:
            records.append(make_record(vals, k * dt, limited))
            limited = 0.0

    # energy-balance audit on record spacing
    for i in range(1, len(records)):
        r0, r1 = records[i - 1], records[i]
        dt_rec = r1.t - r0.t
        rate = (r1.F - r0.F) / dt_rec
        d_mid = 0.5 * (r1.D + r0.D)
        pump = 0.5 * (r1.sigma * path.ell_dot(r1.t) + r0.sigma * path.ell_dot(r0.t))
        r1.eb_residual = abs(rate + d_mid / params.tau - pump)
    return records
