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
from scipy.linalg.lapack import dgtsv

from .core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    entropy,
    integrate,
    moments,
    require_positive,
    step_count,
)
from .equilibrium import solve_lambda
from .errors import ContractViolation, StepError
from .functionals import dissipation, log_partition, relative_entropy
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
    h1 = np.asarray(pot.h1(rho.grid.x), dtype=float)
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
    """The model bound to one grid and time step.

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
        x = grid.x
        self.n = grid.n
        self.dx = dx
        self.dt = dt
        self.tau = params.tau
        self.ell_dot = path.ell_dot
        self.h = np.asarray(pot.h(x), dtype=float)
        self.h1_dx = np.asarray(pot.h1(x), dtype=float) * dx
        # int H' (div g) dx = dh1 @ g for an interface flux g (see _limited)
        self.dh1 = -np.diff(self.h1_dx)
        self.w0 = np.diff(self.h) / nu2
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


def solve_banded(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Tridiagonal solve by LAPACK dgtsv (not scipy.linalg.solve_banded: the
    arguments are the three diagonals); overwrites every argument and returns
    (solution, LAPACK info).  perfbench/tracing.py times the FV solves under
    this name."""
    _, _, _, x, info = dgtsv(sub, diag, sup, rhs, 1, 1, 1, 1)
    return x, info


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
    implicit solve keeps the StepError gate on negative output; tiny
    negatives from roundoff are clipped.
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
    new /= mass
    return new, sigma, abs(mass - 1.0), negative


def project_mean(rho: Density, target: float) -> Density:
    """Translate a density so that its first moment equals target (the shift
    map x -> x + a, realized in quantile coordinates)."""
    q = to_quantile(rho, max(64, 2 * rho.grid.n))
    a = target - float(np.mean(q.x_of_s))
    return quantile_to_density(q.x_of_s + a, rho.grid)


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
    positivity limiter kept out in the steps since the previous record, and the energy-balance audit
    eb_residual = |dF/dt + D - tau sigma l'| on record spacing (trapezoid in
    the rate terms, NaN on the first record).
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
    nu = params.nu
    nu2 = nu * nu
    logz0 = log_partition(pot, grid, nu)
    star = solve_lambda(path.ell_star, nu, pot, grid)
    gamma_star = star.state.density
    constant_ell = path.L0 == 0.0

    records: list[TrajectoryRecord] = []
    lam_prev = None  # lambda(ell) of the previous record, the warm start of the next solve

    def make_record(vals: np.ndarray, t: float, limited: float) -> TrajectoryRecord:
        nonlocal lam_prev
        dens = Density(grid, vals)
        ell_t = path.ell(t)
        sig = sigma_of_state(dens, t, pot, path, params)
        m1, m2, _ = moments(dens)
        s_val = entropy(dens)
        e_val = integrate(op.h * vals, grid)
        f_val = nu2 * s_val + e_val + nu2 * logz0
        if constant_ell:
            lam_t, gamma_t = star.lam, gamma_star
        else:
            sol = solve_lambda(ell_t, nu, pot, grid, start=lam_prev)
            lam_t, gamma_t = sol.lam, sol.state.density
            lam_prev = lam_t
        return TrajectoryRecord(
            t=t,
            sigma=sig,
            ell=ell_t,
            M1=m1,
            M2=m2,
            F=f_val,
            S=s_val,
            E=e_val,
            D=dissipation(dens, sig, pot, params),
            Hrel_quasistatic=relative_entropy(dens, gamma_t),
            Hrel_star=relative_entropy(dens, gamma_star),
            lam_ell=lam_t,
            l1_star=integrate(np.abs(vals - gamma_star.values), grid),
            limited_mass=limited,
            density=dens if keep_densities else None,
        )

    vals = rho0.values
    records.append(make_record(vals, 0.0, 0.0))
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
        pump = 0.5 * params.tau * (
            r1.sigma * path.ell_dot(r1.t) + r0.sigma * path.ell_dot(r0.t)
        )
        r1.eb_residual = abs(rate + d_mid - pump)
    return records
