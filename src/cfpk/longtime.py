"""Long-time verification suite: comparison identities, the quantitative
decay bound, decay-rate fitting, the noise-regime study, and the `verify`
contract battery.

All inequalities are audited along finite-volume trajectories; LSI-based
rates are guaranteed lower bounds on the measured relaxation, so the rate
contracts are one-sided.
"""

from __future__ import annotations

import math
from contextlib import ExitStack

import numpy as np

from .core import (
    MEAN_TOL,
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
from .forks import Forked, cpus
from .fpsolver import gap_rate, project_mean
from .fpsolver import run as fv_run
from .functionals import ckp_l1_bound, free_energy, relative_entropy, weighted_ckp
from .records import record_times, total_limited_mass
from .sampling import random_density, set_mean

FIT_WINDOW = (1e-10, 1e-2)
COMPARISON_TOL = 1e-8
# `verify`'s bounds: an identity or CKP residual passes at CONTRACT_TOL and
# the energy-balance residual at EB_TOL; the decay bound may be exceeded by
# CONTRACT_TOL + DECAY_BOUND_DT dt max(1, H0) and F on a constant path may
# rise by F_RISE_TOL + F_RISE_DT2 dt^2
CONTRACT_TOL = 1e-8
EB_TOL = 1e-3
DECAY_BOUND_DT = 1e-3
F_RISE_TOL = 1e-10
F_RISE_DT2 = 10.0
# the weighted-CKP weight is WCKP_WEIGHT min(c-, c+) (1 + |x|)
WCKP_WEIGHT = 0.5
# a sweep member's horizon and record density in e-folds of gap_rate
HORIZON_EFOLDS = 30.0
RECORDS_PER_EFOLD = 16


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
    if abs(m1 - ell) > MEAN_TOL:
        raise ContractViolation(f"rho has mean {m1}, expected ell={ell}")
    sol = solve_lambda(ell, nu, pot, grid)
    lam, state_lam = sol.lam, sol.state
    diff = relative_entropy(rho, gibbs(eta, nu, pot, grid)) - relative_entropy(rho, state_lam)
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
        - nu * nu * relative_entropy(rho, st)
    )
    return abs(lhs - eta * (ell - st.mean))


def decay_bound_curve(traj: dict[str, np.ndarray], tau_rate: float, c_ell_sigma: float) -> np.ndarray:
    """Right-hand side of the quantitative decay bound:
    e^{-tau t} H(0) + C int_0^t e^{-tau(t-s)} |l'(s)| ds, on record times,
    with |l'| from the `ell_dot` column."""
    t, speed = traj["t"], np.abs(traj["ell_dot"])
    h0 = traj["Hrel_quasistatic"][0]
    bound = np.empty(len(t))
    bound[0] = h0
    integral = 0.0
    for i in range(1, len(t)):
        dt = t[i] - t[i - 1]
        decay = math.exp(-tau_rate * dt)
        seg = 0.5 * dt * (speed[i - 1] * decay + speed[i])
        integral = integral * decay + seg
        bound[i] = math.exp(-tau_rate * t[i]) * h0 + c_ell_sigma * integral
    return bound


def decay_bound_audit(
    traj: dict[str, np.ndarray], params: ModelParams, pot: Potential, grid: Grid
) -> tuple[float, float, float]:
    """The quantitative decay bound on a trajectory: (predicted rate,
    C = max|lambda(ell)| + max|sigma|, max over the records after the first
    of H - bound).  Record 0 has H = bound by construction, so it is left
    out: the value is the bound's margin, < 0 on a run the bound holds on
    strictly.  A run always has at least two records (`record_times`)."""
    predicted = predicted_relaxation_time(traj, params, pot, grid)
    c_ell_sigma = float(np.max(np.abs(traj["lam_ell"]))) + float(np.max(np.abs(traj["sigma"])))
    bound = decay_bound_curve(traj, predicted, c_ell_sigma)
    return predicted, c_ell_sigma, float(np.max(traj["Hrel_quasistatic"][1:] - bound[1:]))


def fit_decay_rate(traj: dict[str, np.ndarray], tail_only: bool = False) -> tuple[float, bool]:
    """Least-squares slope of log Hrel_quasistatic inside the fit window.

    The window additionally excludes any noise floor the trace settles onto
    (the moment constraint is emergent, so multiplier-freezing drift leaves a
    small permanent offset against the exact reference state).  With
    `tail_only`, only the trailing half-decades above the floor enter the
    fit: metastable runs accelerate while the running tilt still lowers the
    barrier, and only the tail measures the limit barrier's rate.
    Returns (rate, short_window_flag); a trace whose fitted log-slope is not
    negative does not decay, and gives (nan, True).
    """
    t, h = traj["t"], traj["Hrel_quasistatic"]
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
    slope = float(np.polyfit(t[mask], np.log(h[mask]), 1)[0])
    if not slope < 0.0:
        return float("nan"), True
    return -slope, short


def predicted_relaxation_time(
    traj: dict[str, np.ndarray], params: ModelParams, pot: Potential, grid: Grid
) -> float:
    """1 / (tau C_LSI), k / tau for a k-convex H, with the LSI constant
    maximized over tilts up to the observed multiplier norm: the generator's
    rates scale as 1/tau."""
    if pot.convexity_lower_bound is not None and pot.convexity_lower_bound > 0.0:
        return pot.convexity_lower_bound / params.tau
    sig_max = float(np.max(np.abs(traj["sigma"])))
    sigmas = np.linspace(-sig_max, sig_max, 17) if sig_max > 0 else [0.0]
    c = max(lsi_constant(float(s), params.nu, pot, grid)[0] for s in sigmas)
    return 1.0 / (params.tau * c)


def classify_regime(traj: dict[str, np.ndarray], pot: Potential, grid: Grid) -> str:
    """The run's regime: "convex" for a uniformly convex H, else "kramers"
    when some record's multiplier lies in a closed interval of the
    multimodal tilt set, else "unimodal"."""
    if pot.convexity_lower_bound is not None and pot.convexity_lower_bound > 0.0:
        return "convex"
    sig = traj["sigma"]
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
) -> tuple[dict, dict[str, np.ndarray]]:
    """Run the direct solver and audit the quantitative decay bound; the
    path's declared envelope is checked at the record times.  Returns the
    `decay` block of `cfpk decay`'s summary.json and the run's columns."""
    declared = path.kappa is not None and path.L0 is not None
    if not (declared or path.L0 == 0.0):
        raise ContractViolation("path must declare kappa/L0 or be constant")
    params = ModelParams(tau=tau, nu=nu)
    traj = fv_run(rho0, path, dt, pot, params, T, record_every=record_every)
    path.check_decay(traj["t"])
    grid = rho0.grid
    predicted, c_ell_sigma, violation = decay_bound_audit(traj, params, pot, grid)
    rate, short = fit_decay_rate(traj)
    block = {
        "fitted_rate": rate,
        "predicted_tau": predicted,
        "C_ell_sigma": c_ell_sigma,
        "regime": classify_regime(traj, pot, grid),
        "bound_max_violation": violation,
        "short_window": short,
        "limited_mass": total_limited_mass(traj),
    }
    return block, traj


def ckp_chain_audit(traj: dict[str, np.ndarray]) -> float:
    """Worst violation of int |rho - gamma*| <= sqrt(2 Hrel_star) over samples."""
    return float(np.max(traj["l1_star"] - np.sqrt(2.0 * np.maximum(traj["Hrel_star"], 0.0))))


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
) -> tuple[dict, dict[float, dict[str, np.ndarray]]]:
    """Fit decay rates across noise levels and regress log(rate) against
    2 log(nu) - DeltaH*/nu^2; `dt` is a floor on each member's step.
    Returns the `kramers_sweep` block of summary.json and each member's
    columns by nu.  A member is one `fpsolver.run`, one `fit_decay_rate`
    (tail only, unless `well_prepared`) and one `classify_regime`.

    The regressor assumes an Arrhenius prefactor nu^2, which the constrained
    model lacks: on the double well at ell* = 0, `gap_rate` over nu in
    [0.2, 0.5] follows log rate = 1.28 - 1.002/nu^2 - 2.22 log nu, the full
    barrier with a prefactor near nu^-2.2.  So the slope is pre-asymptotic: at
    nu = 0.8, 0.6, 0.5 it is about 0.54, and `gap_rate`'s own rates give the
    same slope.  A slope away from 1 is not a fit defect.

    Each member runs for HORIZON_EFOLDS / gap_rate, capped at 4200, with
    gap_rate = 2 mu_1 the exact decay rate of H(rho|gamma) at
    gamma_{lambda(ell*)} on this grid (see `fpsolver.gap_rate`).  Every entry
    reports `gap_rate` and `fit_over_gap`.  The fit follows the slowest mode
    that the constraint changes, while mu_1 is the slowest mode overall.  On
    the double well at nu >= 1 the two differ: mu_1 is an even mode of the
    unconstrained generator, and the fit follows the constrained generator's
    second eigenvalue, so fit_over_gap exceeds 1 (1.16 at nu = 1.2) and the
    horizon from mu_1 is the conservative, longer one.  `predicted_scale` is
    the Arrhenius guess nu^2 e^{-DeltaH*/nu^2} and `ratio` the fit over it.
    `regression_slope` is NaN unless every fitted rate is finite and > 0.

    A member's `dt` is max(dt, min(0.012, horizon/3e5)), the smallest step of
    its `fpsolver.run`.  Records fall every `rec_every` slots of dt, the
    number nearest horizon / (RECORDS_PER_EFOLD HORIZON_EFOLDS), so 480 per
    member, and at the horizon; between records the steps grow up to the
    record spacing, and a step cut short by a record does not cap the next
    one, so once the error estimate allows it a member takes one step per
    record.  `steps` counts the steps taken.

    `barrier_scan` and every member's `gap_rate` run first, in this process,
    so a refused gap stops the sweep before any step.  The members then run
    on w = min(len(nu_list), CPUs) shares, share r being members r, r + w,
    ...; there is no option for it.  With w > 1 each share runs in a forked
    process, and the calling process only receives, member k from share
    k mod w in nu_list order.  So the block and the columns are the same
    bits as on one CPU, and the first failing member raises what it raises there.
    """
    if len(nu_list) < 3 and not well_prepared:
        raise ContractViolation("need at least 3 noise levels for the regression")
    for nu in nu_list:
        require_positive(nu=nu)
    if len(set(nu_list)) != len(nu_list):
        raise ContractViolation(f"noise levels must be distinct, got {list(nu_list)}")
    require_positive(dt=dt, tau=tau)
    _, delta_h_star = barrier_scan(pot, grid, (-2.0, 2.0))
    # a gap below gap_rate's precision floor stops the sweep before any step
    gaps = [gap_rate(ell_star, nu, pot, grid, tau=tau) for nu in nu_list]

    def member(k: int) -> tuple[dict, dict[str, np.ndarray]]:
        nu, gap = nu_list[k], gaps[k]
        rate_guess = nu * nu * math.exp(-delta_h_star / (nu * nu))
        # H starts near 1e-2 and settles on a floor near 1e-11: about 21
        # e-folds at rate gap, so 30 e-folds reach the floor with margin, and
        # fit_decay_rate sees the floor it excludes (its rule needs
        # h[-1] <= 30 h_min)
        horizon = min(HORIZON_EFOLDS / gap, 4200.0)
        member_dt = max(dt, min(0.012, horizon / 3e5))
        if well_prepared:
            rho0 = well_prepared_data(ell_star, nu, pot, grid)
        else:
            # small asymmetry: a large one tilts the running multiplier far
            # into the multimodal set, lowering the barrier mid-run
            rho0 = bimodal_side_data(ell_star, nu, pot, grid, population=0.52)
        rec_every = max(1, round(horizon / member_dt / (RECORDS_PER_EFOLD * HORIZON_EFOLDS)))
        traj = fv_run(
            rho0, constant_path(ell_star), member_dt, pot, ModelParams(tau=tau, nu=nu), horizon,
            record_every=rec_every,
        )
        rate, short = fit_decay_rate(traj, tail_only=not well_prepared)
        return {
            "nu": nu,
            "fitted_rate": rate,
            "gap_rate": gap,
            "fit_over_gap": rate / gap,
            "horizon": horizon,
            "dt": member_dt,
            "predicted_scale": rate_guess,
            "ratio": rate / rate_guess if rate_guess > 0 else float("nan"),
            "regime": classify_regime(traj, pot, grid),
            "short_window": short,
            "limited_mass": total_limited_mass(traj),
            "steps": int(traj["steps"].sum()),
        }, traj

    n = len(nu_list)
    w = min(n, cpus())
    shares = [(member(k) for k in range(r, n, w)) for r in range(w)]
    with ExitStack() as stack:
        if w > 1:
            for r in range(w):
                nus = [nu_list[k] for k in range(r, n, w)]
                what = f"the process running sweep members nu = {nus}"
                shares[r] = stack.enter_context(Forked(shares[r], what, {"nu": nus}))
        members = [iter(share) for share in shares]
        results = [next(members[k % w]) for k in range(n)]
    entries = [entry for entry, _ in results]
    trajectories = {nu: traj for nu, (_, traj) in zip(nu_list, results)}

    slope = float("nan")
    if len(entries) >= 2 and all(0.0 < e["fitted_rate"] < math.inf for e in entries):
        xs = np.array([2.0 * math.log(e["nu"]) - delta_h_star / e["nu"] ** 2 for e in entries])
        ys = np.array([math.log(e["fitted_rate"]) for e in entries])
        slope = float(np.polyfit(xs, ys, 1)[0])
    block = {
        "delta_h_star": delta_h_star,
        "entries": entries,
        "regression_slope": slope,
        # every member always runs; the key stays for readers of summary.json
        "partial": False,
    }
    return block, trajectories


def verify(
    rho0: Density, path: ConstraintPath, pot: Potential, params: ModelParams,
    dt: float, T: float, seed: int, record_every: int = 1,
) -> tuple[dict, dict[str, np.ndarray]]:
    """The contracts of `cfpk verify`.  Returns the `verify` block of
    summary.json, one entry per contract with its measured value and a pass
    flag, and the columns of the FV run from rho0.

    The identities, the sandwich and the weighted CKP draw random densities
    from one generator seeded with `seed`; the energy balance (against
    EB_TOL), the decay bound, both CKP bounds and, on a constant path
    (L0 = 0), the monotone free energy are audited on the FV run."""
    grid, nu = rho0.grid, params.nu
    rng = np.random.default_rng(seed)
    block: dict[str, dict] = {}

    worst_identity = 0.0
    for _ in range(20):
        rho = random_density(grid, rng)
        eta = float(rng.uniform(-0.8, 0.8))
        worst_identity = max(worst_identity, verify_free_energy_identity(rho, eta, nu, pot, grid))
    block["free_energy_identity"] = {"max_residual": worst_identity, "pass": worst_identity <= CONTRACT_TOL}

    worst_slack = -math.inf
    for _ in range(10):
        ell = float(rng.uniform(-0.6, 0.6))
        rho = random_density(grid, rng, mean=ell)
        eta = float(rng.uniform(-0.8, 0.8))
        worst_slack = max(worst_slack, verify_comparison(rho, eta, ell, nu, pot, grid)["slack"])
    block["relative_entropy_sandwich"] = {"max_slack": worst_slack, "pass": worst_slack <= COMPARISON_TOL}

    # weighted_ckp reads the densities of about ten records, and only those are kept
    stride = max(1, len(record_times(T, dt, record_every)[0]) // 10)
    traj = fv_run(rho0, path, dt, pot, params, T, record_every=record_every, keep_densities=stride)
    eb_max = float(np.nanmax(traj["eb_residual"][1:]))
    block["energy_dissipation_audit"] = {
        "max_eb_residual": eb_max,
        "tolerance": EB_TOL,
        "limited_mass": total_limited_mass(traj),
        "pass": eb_max <= EB_TOL,
    }

    tau_pred, _, bound_violation = decay_bound_audit(traj, params, pot, grid)
    h0 = float(traj["Hrel_quasistatic"][0])
    block["quantitative_decay_bound"] = {
        "predicted_tau": tau_pred,
        "max_violation": bound_violation,
        "pass": bound_violation <= CONTRACT_TOL + DECAY_BOUND_DT * dt * max(1.0, h0),
    }

    ckp_worst = ckp_chain_audit(traj)
    block["ckp_chain"] = {"max_violation": ckp_worst, "pass": ckp_worst <= CONTRACT_TOL}

    wckp_worst = -math.inf
    cmin = min(pot.growth_constants)
    weight = lambda x: WCKP_WEIGHT * cmin * (1.0 + np.abs(x))  # noqa: E731
    gamma_star = solve_lambda(path.ell_star, nu, pot, grid).state
    for vals in traj["density"]:
        wl1, _, wbound = weighted_ckp(Density(grid, vals), gamma_star, weight)
        wckp_worst = max(wckp_worst, wl1 - wbound)
    for _ in range(5):
        rho = random_density(grid, rng)
        wl1, _, wbound = weighted_ckp(rho, gamma_star, weight)
        l1, cbound = ckp_l1_bound(rho, gamma_star)
        wckp_worst = max(wckp_worst, wl1 - wbound, l1 - cbound)
    block["weighted_ckp"] = {"max_violation": wckp_worst, "pass": wckp_worst <= CONTRACT_TOL}

    if path.L0 == 0.0:
        rise = float(np.max(np.diff(traj["F"])))
        block["monotone_free_energy"] = {"max_rise": rise, "pass": rise <= F_RISE_TOL + F_RISE_DT2 * dt * dt}
    return block, traj
