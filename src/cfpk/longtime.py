"""Long-time verification suite: comparison identities, quasistationary
entropy balance, decay-rate fitting, multiplier convergence, and the
noise-regime study.

All inequalities are audited along finite-volume trajectories; LSI-based
rates are guaranteed lower bounds on the measured relaxation, so the rate
contracts are one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    Potential,
    constant_path,
    density_from_values,
    moments,
    require_positive,
)
from .equilibrium import (
    N_SIGMA,
    barrier_scan,
    gibbs,
    local_minima,
    lsi_constant,
    multimodal_intervals,
    solve_lambda,
    tilted_family,
    variance_range,
)
from .errors import ContractViolation
from .fpsolver import gap_rate, project_mean
from .fpsolver import run as fv_run
from .functionals import free_energy, relative_entropy
from .records import TrajectoryRecord
from .sampling import set_mean

FIT_WINDOW = (1e-10, 1e-2)
COMPARISON_TOL = 1e-8


def verify_comparison(
    rho: Density,
    eta: float,
    ell: float,
    nu: float,
    pot: Potential,
    grid: Grid,
) -> dict:
    """Sandwich of the relative-entropy difference between a tilt eta and the
    quasistationary tilt lambda(ell), with variance bounds restricted to the
    tilt interval (sharp version of the double-integral argument)."""
    m1, _, _ = moments(rho)
    if abs(m1 - ell) > 1e-8:
        raise ContractViolation(f"rho has mean {m1}, expected ell={ell}")
    sol = solve_lambda(ell, nu, pot, grid)
    lam, state_lam = sol.lam, sol.state
    diff = relative_entropy(rho, gibbs(eta, nu, pot, grid).density) - relative_entropy(
        rho, state_lam.density
    )
    nu4 = nu**4
    gap_sq = (eta - lam) ** 2
    c_lo, c_hi = variance_range(np.linspace(min(lam, eta), max(lam, eta), N_SIGMA), nu, pot, grid)
    lower = 0.5 * c_lo * gap_sq / nu4
    upper = 0.5 * c_hi * gap_sq / nu4
    return {
        "eta": eta,
        "lambda": lam,
        "difference": diff,
        "lower": lower,
        "upper": upper,
        "ok": (lower - COMPARISON_TOL <= diff <= upper + COMPARISON_TOL),
        "slack": max(lower - diff, diff - upper),
    }


def verify_free_energy_identity(
    rho: Density, eta: float, nu: float, pot: Potential, grid: Grid
) -> float:
    """|F(rho) - F(gamma_eta) - nu^2 H(rho|gamma_eta) - eta (ell - M1(gamma_eta))|."""
    params = ModelParams(tau=1.0, nu=nu)
    st = gibbs(eta, nu, pot, grid)
    ell = moments(rho)[0]
    lhs = (
        free_energy(rho, pot, params).F
        - free_energy(st.density, pot, params).F
        - nu * nu * relative_entropy(rho, st.density)
    )
    return abs(lhs - eta * (ell - st.mean))


def verify_quasistationary_derivative(
    records: list[TrajectoryRecord],
    pot: Potential,
    path: ConstraintPath,
    params: ModelParams,
) -> float:
    """Max residual of nu^2 d/dt H(rho|gamma_{lambda(ell(t))}) = -D/tau + l'(sigma - lambda(ell))
    over interior record times, using centered differences."""
    if len(records) < 3:
        raise ContractViolation("need at least 3 records for a centered difference")
    worst = 0.0
    for i in range(1, len(records) - 1):
        r0, r1, r2 = records[i - 1], records[i], records[i + 1]
        dt2 = r2.t - r0.t
        lhs = params.nu * params.nu * (r2.Hrel_quasistatic - r0.Hrel_quasistatic) / dt2
        rhs = -r1.D / params.tau + path.ell_dot(r1.t) * (r1.sigma - r1.lam_ell)
        worst = max(worst, abs(lhs - rhs))
    return worst


def decay_bound_curve(
    records: list[TrajectoryRecord], tau_rate: float, c_ell_sigma: float, path: ConstraintPath
) -> np.ndarray:
    """Right-hand side of the quantitative decay bound:
    e^{-tau t} H(0) + C int_0^t e^{-tau(t-s)} |l'(s)| ds, on record times."""
    t = np.array([r.t for r in records])
    h0 = records[0].Hrel_quasistatic
    bound = np.empty(len(records))
    bound[0] = h0
    integral = 0.0
    for i in range(1, len(records)):
        dt = t[i] - t[i - 1]
        decay = math.exp(-tau_rate * dt)
        seg = 0.5 * dt * (abs(path.ell_dot(t[i - 1])) * decay + abs(path.ell_dot(t[i])))
        integral = integral * decay + seg
        bound[i] = math.exp(-tau_rate * t[i]) * h0 + c_ell_sigma * integral
    return bound


def decay_bound_audit(
    records: list[TrajectoryRecord],
    params: ModelParams,
    pot: Potential,
    grid: Grid,
    path: ConstraintPath,
) -> tuple[float, float, float]:
    """The quantitative decay bound on a trajectory: (predicted rate,
    C = max|lambda(ell)| + max|sigma|, max over records of H - bound)."""
    predicted = predicted_relaxation_time(records, params, pot, grid)
    lam_max = float(np.max(np.abs([r.lam_ell for r in records])))
    c_ell_sigma = lam_max + float(np.max(np.abs([r.sigma for r in records])))
    bound = decay_bound_curve(records, predicted, c_ell_sigma, path)
    h = np.array([r.Hrel_quasistatic for r in records])
    return predicted, c_ell_sigma, float(np.max(h - bound))


def fit_decay_rate(
    records: list[TrajectoryRecord], tail_only: bool = False
) -> tuple[float, bool]:
    """Least-squares slope of log Hrel_quasistatic inside the fit window.

    The window additionally excludes any noise floor the trace settles onto
    (the moment constraint is emergent, so multiplier-freezing drift leaves a
    small permanent offset against the exact reference state).  With
    `tail_only`, only the trailing half-decades above the floor enter the
    fit: metastable runs accelerate while the running tilt still lowers the
    barrier, and only the tail measures the limit barrier's rate.
    Returns (rate, short_window_flag).
    """
    t = np.array([r.t for r in records])
    h = np.array([r.Hrel_quasistatic for r in records])
    lo, hi = FIT_WINDOW
    h_pos = h[h > 0]
    h_min = float(np.min(h_pos)) if h_pos.size else lo
    h_max = float(np.max(h_pos)) if h_pos.size else hi
    # a flattened tail is a noise floor only when the trace spans real decades
    if h_max / max(h_min, 1e-300) > 1e3 and h[-1] <= 30.0 * h_min:
        lo = max(lo, 30.0 * h_min)
    mask = (h >= lo) & (h <= hi)
    short = False
    if tail_only and int(np.sum(mask)) >= 8:
        span = float(np.max(h[mask])) / lo
        if span > 1e3:
            mask &= h <= lo * math.sqrt(span) * 10.0
    if int(np.sum(mask)) < 5:
        mask = h > 0.0
        short = True
    if int(np.sum(mask)) < 2:
        return float("nan"), True
    coeffs = np.polyfit(t[mask], np.log(h[mask]), 1)
    return float(-coeffs[0]), short


def predicted_relaxation_time(
    records: list[TrajectoryRecord], params: ModelParams, pot: Potential, grid: Grid
) -> float:
    """1 / (tau C_LSI), k / tau for a k-convex H, with the LSI constant
    maximized over tilts up to the observed multiplier norm: the generator's
    rates scale as 1/tau."""
    if pot.convexity_lower_bound is not None and pot.convexity_lower_bound > 0.0:
        return pot.convexity_lower_bound / params.tau
    sig_max = float(np.max(np.abs([r.sigma for r in records])))
    sigmas = np.linspace(-sig_max, sig_max, 17) if sig_max > 0 else [0.0]
    c = max(lsi_constant(float(s), params.nu, pot, grid)[0] for s in sigmas)
    return 1.0 / (params.tau * c)


@dataclass
class DecayReport:
    fitted_rate: float
    predicted_tau: float
    C_ell_sigma: float
    regime: str
    samples: list[tuple[float, float, float, float]]
    bound_max_violation: float
    short_window: bool
    records: list[TrajectoryRecord] | None = None  # full trajectory, not serialized

    def to_dict(self) -> dict:
        return {
            "fitted_rate": self.fitted_rate,
            "predicted_tau": self.predicted_tau,
            "C_ell_sigma": self.C_ell_sigma,
            "regime": self.regime,
            "bound_max_violation": self.bound_max_violation,
            "short_window": self.short_window,
            "samples": [
                {"t": s[0], "Hrel_quasistatic": s[1], "Hrel_star": s[2], "sigma_gap": s[3]}
                for s in self.samples
            ],
        }


def classify_regime(records: list[TrajectoryRecord], pot: Potential, grid: Grid) -> str:
    """The run's regime: "convex" for a uniformly convex H, else "kramers"
    when some record's multiplier lies in a closed interval of the
    multimodal tilt set, else "unimodal"."""
    if pot.convexity_lower_bound is not None and pot.convexity_lower_bound > 0.0:
        return "convex"
    sig = np.array([r.sigma for r in records])
    inside = any(np.any((sig >= lo) & (sig <= hi)) for lo, hi in multimodal_intervals(pot, grid))
    return "kramers" if inside else "unimodal"


def decay_experiment(
    rho0: Density,
    path: ConstraintPath,
    nu: float,
    pot: Potential,
    dt: float,
    T: float,
    tau: float = 1.0,
    record_every: int = 1,
    fit_tail: bool = False,
) -> DecayReport:
    """Run the direct solver and audit the quantitative decay bound; the
    path's declared envelope is checked at the record times."""
    declared = path.kappa is not None and path.L0 is not None
    if not (declared or path.L0 == 0.0):
        raise ContractViolation("path must declare kappa/L0 or be constant")
    params = ModelParams(tau=tau, nu=nu)
    records = fv_run(rho0, path, dt, pot, params, T, record_every=record_every)
    path.check_decay(np.array([r.t for r in records]))
    grid = rho0.grid
    predicted, c_ell_sigma, violation = decay_bound_audit(records, params, pot, grid, path)
    rate, short = fit_decay_rate(records, tail_only=fit_tail)
    sigma_star = solve_lambda(path.ell_star, nu, pot, grid).lam
    stride = max(1, len(records) // 400)
    samples = [
        (r.t, r.Hrel_quasistatic, r.Hrel_star, abs(r.sigma - sigma_star))
        for r in records[::stride]
    ]
    return DecayReport(
        fitted_rate=rate,
        predicted_tau=predicted,
        C_ell_sigma=c_ell_sigma,
        regime=classify_regime(records, pot, grid),
        samples=samples,
        bound_max_violation=violation,
        short_window=short,
        records=records,
    )


def sigma_convergence_constant(nu: float, pot: Potential, grid: Grid, lam_ref: float) -> float:
    """Constant C of the multiplier-convergence estimate, assembled from the
    weighted-CKP chain: C = 4 * 8 C_H^2 / min(c-,c+)^2 * (1 + log C_M)."""
    family = tilted_family(pot, grid)
    x = family.x
    c_h = float(np.max(np.abs(family.h1) / (1.0 + np.abs(x))))
    cmin = min(pot.growth_constants)
    w_vals = 0.5 * cmin * (1.0 + np.abs(x))
    gamma = gibbs(lam_ref, nu, pot, grid).density
    with np.errstate(over="ignore"):
        c_m = float(np.sum(np.exp(w_vals**2) * gamma.values)) * grid.dx
    if not np.isfinite(c_m):
        raise ContractViolation("weight too strong for this reference state")
    return 4.0 * 8.0 * c_h**2 / cmin**2 * (1.0 + math.log(max(c_m, 1.0)))


def verify_sigma_convergence(
    records: list[TrajectoryRecord],
    path: ConstraintPath,
    nu: float,
    pot: Potential,
    grid: Grid,
) -> dict:
    """Per-sample audit of (sigma - sigma*)^2 <= C H + 4 l'^2 + (2/c_var^2)(ell-ell*)^2
    and of the free-energy/relative-entropy sandwich at the limit state."""
    star = solve_lambda(path.ell_star, nu, pot, grid)
    sigma_star = star.lam
    sig = np.array([r.sigma for r in records])
    lam_vals = np.array([r.lam_ell for r in records])
    lo = float(min(np.min(sig), np.min(lam_vals), sigma_star)) - 1.0
    hi = float(max(np.max(sig), np.max(lam_vals), sigma_star)) + 1.0
    c_var = variance_range(np.linspace(lo, hi, N_SIGMA), nu, pot, grid)[0]
    c_chain = sigma_convergence_constant(nu, pot, grid, sigma_star)

    params = ModelParams(tau=1.0, nu=nu)
    f_star = free_energy(star.state.density, pot, params).F
    worst_sigma = -math.inf
    worst_fe = -math.inf
    worst_envelope = -math.inf
    for r in records:
        lhs = (r.sigma - sigma_star) ** 2
        rhs = (
            c_chain * max(r.Hrel_quasistatic, 0.0)
            + 4.0 * path.ell_dot(r.t) ** 2
            + 2.0 / c_var**2 * (r.ell - path.ell_star) ** 2
        )
        worst_sigma = max(worst_sigma, lhs - rhs)
        # the identity holds with the state's actual mean; comparing against
        # ell(t) instead would only measure the scheme's constraint drift
        fe_residual = abs(r.F - f_star - nu * nu * r.Hrel_star)
        worst_fe = max(worst_fe, fe_residual - abs(sigma_star) * abs(r.M1 - path.ell_star))
        if path.kappa is not None and path.L0 is not None:
            envelope = (
                abs(sigma_star) * path.L0 / path.kappa * math.exp(-path.kappa * r.t)
                + abs(sigma_star) * abs(r.M1 - r.ell)
            )
            worst_envelope = max(worst_envelope, fe_residual - envelope)
    return {
        "sigma_star": sigma_star,
        "C_chain": c_chain,
        "c_var": c_var,
        "worst_sigma_slack": worst_sigma,
        "worst_free_energy_slack": worst_fe,
        "worst_envelope_slack": worst_envelope,
        "ok": worst_sigma <= 1e-8 and worst_fe <= 1e-6,
    }


def ckp_chain_audit(records: list[TrajectoryRecord]) -> float:
    """Worst violation of int |rho - gamma*| <= sqrt(2 Hrel_star) over samples."""
    worst = -math.inf
    for r in records:
        worst = max(worst, r.l1_star - math.sqrt(2.0 * max(r.Hrel_star, 0.0)))
    return worst


def bimodal_side_data(
    ell_star: float, nu: float, pot: Potential, grid: Grid, population: float = 0.6
) -> Density:
    """Out-of-equilibrium well populations prepared on the slow manifold.

    Solves for the two-multiplier constrained Gibbs state
        rho ~ exp(-(H - sigma x - theta 1_{x < x_barrier}) / nu^2)
    whose mean is ell_star and whose left-well mass is `population`.  Being
    the free-energy minimizer at frozen well populations, it carries no fast
    intra-well excitation: relaxation from it is pure barrier crossing.
    Without a barrier the state falls back to a small mean shift of the
    limit state.
    """
    family = tilted_family(pot, grid)
    star = solve_lambda(ell_star, nu, pot, grid)
    vals = family.tilted(star.lam)
    mins = local_minima(vals)
    if len(mins) < 2:
        return well_prepared_data(ell_star, nu, pot, grid, shift=0.25)
    order = np.argsort(vals[mins])
    i_a, i_b = sorted((mins[order[0]], mins[order[1]]))
    split = i_a + int(np.argmax(vals[i_a : i_b + 1]))

    x = family.x
    h_vals = family.h
    left = (np.arange(grid.n) < split).astype(float)
    nu2 = nu * nu
    sigma, theta = star.lam, 0.0
    for _ in range(60):
        arg = (-h_vals + sigma * x + theta * left) / nu2
        arg -= np.max(arg)
        w = np.exp(arg)
        w /= np.sum(w) * grid.dx
        mean = float(np.sum(x * w)) * grid.dx
        pl = float(np.sum(left * w)) * grid.dx
        r1, r2 = mean - ell_star, pl - population
        if abs(r1) < 1e-12 and abs(r2) < 1e-12:
            break
        # exact Jacobian: covariances under the current state
        exx = float(np.sum(x * x * w)) * grid.dx
        exl = float(np.sum(x * left * w)) * grid.dx
        j11 = (exx - mean * mean) / nu2
        j12 = (exl - mean * pl) / nu2
        j22 = (pl - pl * pl) / nu2
        det = j11 * j22 - j12 * j12
        if det <= 0.0:
            raise ContractViolation("population preparation is degenerate on this grid")
        sigma -= (j22 * r1 - j12 * r2) / det
        theta -= (-j12 * r1 + j11 * r2) / det
    else:
        raise ContractViolation(
            f"could not prepare well populations {population} at mean {ell_star}"
        )
    return density_from_values(grid, w)


def well_prepared_data(ell_star: float, nu: float, pot: Potential, grid: Grid, shift: float = 0.1) -> Density:
    """Small on-manifold perturbation of gamma_{lambda(ell*)}.

    The state is translated by `shift` and then tilted back onto the
    constraint: a bare translation would be undone by the solvers' initial
    mean projection, while the translation-minus-tilt residue is a genuine
    small perturbation with the exact limit mean (its multiplier trace stays
    near lambda(ell*), outside the multimodal set when sigma* is)."""
    st = solve_lambda(ell_star, nu, pot, grid).state
    return set_mean(project_mean(st.density, ell_star + shift), ell_star)


def kramers_sweep(
    pot: Potential,
    ell_star: float,
    nu_list: list[float],
    dt: float,
    grid: Grid,
    well_prepared: bool = False,
    tau: float = 1.0,
) -> dict:
    """Fit decay rates across noise levels and regress log(rate) against
    2 log(nu) - DeltaH*/nu^2; `dt` is a floor on each member's step.

    The constraint freezes the mean, which removes the odd well-hopping mode,
    the one mode with Kramers scaling.  So the regression slope measures the
    constrained model, not Arrhenius law: on the double well at
    nu = 0.8, 0.6, 0.5 it is about 0.54, and `gap_rate`'s own rates give the
    same slope.  A slope away from 1 is not a fit defect.

    Each member runs for 30 / gap_rate, with gap_rate = 2 mu_1 the exact decay
    rate of H(rho|gamma) at gamma_{lambda(ell*)} on this grid (see
    `fpsolver.gap_rate`), capped at 4200.  Every entry reports `gap_rate` and
    `fit_over_gap`.  The fit follows the slowest mode that the constraint
    changes, while mu_1 is the slowest mode overall.  On the double well at
    nu >= 1 the two differ: mu_1 is an even mode of the unconstrained
    generator, and the fit follows the constrained generator's second
    eigenvalue, so fit_over_gap exceeds 1 (1.16 at nu = 1.2) and the horizon
    from mu_1 is the conservative, longer one.  `predicted_scale` is the
    Arrhenius guess nu^2 e^{-DeltaH*/nu^2} and `ratio` the fit over it.
    `regression_slope` is NaN unless every fitted rate is finite and > 0.
    """
    if len(nu_list) < 3 and not well_prepared:
        raise ContractViolation("need at least 3 noise levels for the regression")
    for nu in nu_list:
        require_positive(nu=nu)
    if len(set(nu_list)) != len(nu_list):
        raise ContractViolation(f"noise levels must be distinct, got {list(nu_list)}")
    require_positive(dt=dt, tau=tau)
    _, delta_h_star = barrier_scan(pot, grid, (-2.0, 2.0))
    entries = []
    for nu in nu_list:
        rate_guess = nu * nu * math.exp(-delta_h_star / (nu * nu))
        gap = gap_rate(ell_star, nu, pot, grid, tau=tau)
        # H starts near 1e-2 and settles on a floor near 1e-11: about 21
        # e-folds at rate gap, so 30/gap reaches the floor with margin, and
        # fit_decay_rate sees the floor it excludes (its rule needs
        # h[-1] <= 30 h_min)
        horizon = min(30.0 / gap, 4200.0)
        member_dt = max(dt, min(0.012, horizon / 3e5))
        if well_prepared:
            rho0 = well_prepared_data(ell_star, nu, pot, grid)
        else:
            # small asymmetry: a large one tilts the running multiplier far
            # into the multimodal set, lowering the barrier mid-run
            rho0 = bimodal_side_data(ell_star, nu, pot, grid, population=0.52)
        rec_every = max(1, int(round(horizon / member_dt / 2500)))
        report = decay_experiment(
            rho0, constant_path(ell_star), nu, pot, member_dt, horizon, tau=tau,
            record_every=rec_every, fit_tail=not well_prepared,
        )
        entries.append({
            "nu": nu,
            "fitted_rate": report.fitted_rate,
            "gap_rate": gap,
            "fit_over_gap": report.fitted_rate / gap,
            "horizon": horizon,
            "dt": member_dt,
            "predicted_scale": rate_guess,
            "ratio": report.fitted_rate / rate_guess if rate_guess > 0 else float("nan"),
            "regime": report.regime,
            "short_window": report.short_window,
            "limited_mass": float(sum(r.limited_mass for r in report.records)),
            "records": report.records,
        })

    slope = float("nan")
    if len(entries) >= 2 and all(0.0 < e["fitted_rate"] < math.inf for e in entries):
        xs = np.array([2.0 * math.log(e["nu"]) - delta_h_star / e["nu"] ** 2 for e in entries])
        ys = np.array([math.log(e["fitted_rate"]) for e in entries])
        slope = float(np.polyfit(xs, ys, 1)[0])
    trajectories = {e["nu"]: e.pop("records") for e in entries}
    return {
        "delta_h_star": delta_h_star,
        "entries": entries,
        "regression_slope": slope,
        # every member always runs; the key stays for readers of summary.json
        "partial": False,
        "trajectories": trajectories,
    }
