"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from cfpk.cli import main as cli_main
from cfpk.core import (
    Density,
    Grid,
    ModelParams,
    constant_path,
    doublewell_potential,
    exp_decay_path,
    gaussian_density,
    quadratic_potential,
)
from cfpk.equilibrium import gibbs, landscape, solve_lambda
from cfpk.fpsolver import run as fv_run
from cfpk.longtime import (
    ckp_chain_audit,
    decay_experiment,
    kramers_sweep,
    verify_comparison,
    verify_free_energy_identity,
)
from cfpk.functionals import weighted_ckp
from cfpk.sampling import random_density
from cfpk.transport import jko_run, to_quantile

from oracles import discrete_sigma_series, strided, weak_form_residual


def report(criterion: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_1_equilibrium_map():
    grid = Grid(-12.0, 12.0, 1024)
    pot = quadratic_potential(1.0)
    t0 = time.monotonic()
    worst_gap, worst_iters = 0.0, 0
    for ell in (-1.0, 0.0, 0.7, 2.0):
        sol = solve_lambda(ell, 1.0, pot, grid)
        worst_gap = max(worst_gap, abs(sol.lam - ell))
        worst_iters = max(worst_iters, sol.iterations)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-9 and worst_iters <= 6 and elapsed < 1.0
    assert report(
        1, ok,
        f"lambda(ell)=ell gap {worst_gap:.2e} (<=1e-9), Newton iters {worst_iters} (<=6), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_2_monotone_parametrization():
    grid = Grid(-12.0, 12.0, 1024)
    pot = doublewell_potential()
    nu, d = 0.5, 1e-4
    worst = 0.0
    for lam in np.linspace(-0.8, 0.8, 20):
        st = gibbs(float(lam), nu, pot, grid)
        fd = (gibbs(lam + d, nu, pot, grid).mean - gibbs(lam - d, nu, pot, grid).mean) / (2 * d)
        worst = max(worst, abs(fd / (st.variance / st.nu**2) - 1.0))
    ok = worst <= 0.01
    assert report(2, ok, f"slope of lambda->M1 vs Var/nu^2: worst relative gap {worst:.2e} (<=1%)")


def test_criterion_3_gaussian_oracle_direct_solver():
    grid = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
    pot = quadratic_potential(1.0)
    rho0 = gaussian_density(grid, 0.5, 1.5**2)
    t0 = time.monotonic()
    recs = fv_run(rho0, constant_path(0.5), 1e-3, pot, ModelParams(), 3.0)
    elapsed = time.monotonic() - t0
    ts = recs["t"]
    vs = recs["M2"] - recs["M1"] ** 2
    sup_err = float(np.max(np.abs(vs - (1.0 + 1.25 * np.exp(-2.0 * ts)))))
    ok = sup_err <= 1e-3 and elapsed < 10.0
    assert report(3, ok, f"variance trace sup error {sup_err:.2e} (<=1e-3), {elapsed:.1f}s (<10s)")


def test_criterion_4_jko_fixed_point():
    grid = Grid(-12.0, 12.0, 8192)
    worst_w2, worst_sig = 0.0, 0.0
    for pot, ell, nu in ((quadratic_potential(1.0), 0.7, 1.0), (doublewell_potential(), 1.0, 0.5)):
        sol = solve_lambda(ell, nu, pot, grid)
        params = ModelParams(nu=nu)
        rec = jko_run(sol.state.density, constant_path(ell), 1e-5, 1e-5, pot, params, m=2048)
        worst_w2 = max(worst_w2, math.sqrt(rec["W2sq_step"][0]))
        worst_sig = max(worst_sig, abs(rec["sigma"][0] - sol.lam))
    ok = worst_w2 <= 1e-6 and worst_sig <= 1e-6
    assert report(
        4, ok, f"stationary step: W2 {worst_w2:.2e} (<=1e-6), sigma gap {worst_sig:.2e} (<=1e-6)"
    )


def _cutoff_test_function(span: float):
    """sin(x) * quintic cutoff (1 on |x|<=a, 0 on |x|>=b), C^2 throughout."""
    a, b = 0.65 * span, 0.9 * span

    def s(z):
        z = np.clip(z, 0.0, 1.0)
        return 6 * z**5 - 15 * z**4 + 10 * z**3

    def s1(z):
        zc = np.clip(z, 0.0, 1.0)
        return np.where((z > 0) & (z < 1), 30 * zc**4 - 60 * zc**3 + 30 * zc**2, 0.0)

    def s2(z):
        zc = np.clip(z, 0.0, 1.0)
        return np.where((z > 0) & (z < 1), 120 * zc**3 - 180 * zc**2 + 60 * zc, 0.0)

    w = b - a

    def c(x):
        return 1.0 - s((np.abs(x) - a) / w)

    def c1(x):
        return -np.sign(x) * s1((np.abs(x) - a) / w) / w

    def c2(x):
        return -s2((np.abs(x) - a) / w) / w**2

    zeta = lambda x: np.sin(x) * c(x)  # noqa: E731
    zeta_x = lambda x: np.cos(x) * c(x) + np.sin(x) * c1(x)  # noqa: E731
    zeta_xx = lambda x: -np.sin(x) * c(x) + 2 * np.cos(x) * c1(x) + np.sin(x) * c2(x)  # noqa: E731
    return zeta, zeta_x, zeta_xx


def test_criterion_5_scheme_consistency():
    grid = Grid(-12.0, 12.0, 1024)
    pot = doublewell_potential()
    params = ModelParams(nu=0.8)
    path = exp_decay_path(0.3, 0.4, 1.0)
    rho0 = gaussian_density(grid, path.ell(0.0), 0.5)

    probe = np.linspace(grid.x_min, grid.x_max, 100001)
    zeta_quad = (lambda x: x**2, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x))
    zeta_sin = _cutoff_test_function(12.0)
    sups = {zeta_quad: 2.0, zeta_sin: float(np.max(np.abs(zeta_sin[2](probe))))}

    worst_slack = -math.inf
    sums = {}
    for h in (0.04, 0.02, 0.01):
        recs = jko_run(rho0, path, h, 1.0, pot, params, keep_quantiles=1)
        x_prev = to_quantile(rho0, grid.n)
        x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
        for quantile, sigma in zip(recs["quantile"], recs["sigma"].tolist(), strict=True):
            for zeta, sup2 in sups.items():
                res, bound = weak_form_residual(
                    x_prev, quantile, sigma, h, *zeta, pot, params, sup_zeta_xx=sup2
                )
                worst_slack = max(worst_slack, res - bound)
            x_prev = quantile
        sums[h] = float(np.sum(recs["W2sq_step"]))
    ratios = [sums[h] / h for h in (0.04, 0.02, 0.01)]
    stable = max(ratios) / min(ratios) < 1.5
    decreasing = sums[0.04] > sums[0.02] > sums[0.01]
    ok = worst_slack <= 1e-9 and stable and decreasing
    assert report(
        5, ok,
        f"weak-form slack {worst_slack:.2e} (<=1e-9), sum W2^2/h in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (stable), linear in h: {decreasing}",
    )


def test_criterion_6_multiplier_convergence():
    grid = Grid(-12.0, 12.0, 1024)
    pot = doublewell_potential()
    params = ModelParams(nu=0.8)
    path = constant_path(0.5)
    rho0 = gaussian_density(grid, 0.5, 0.5)
    fv = fv_run(rho0, path, 5e-4, pot, params, 1.0, record_every=4)
    fvt, fvs = fv["t"], fv["sigma"]
    tt = fvt[fvt > 0]
    gaps = []
    for h in (0.04, 0.02, 0.01):
        recs = jko_run(rho0, path, h, 1.0, pot, params)
        ser = discrete_sigma_series(recs)
        gaps.append(float(np.max(np.abs(ser.piecewise_constant(tt) - np.interp(tt, fvt, fvs)))))
    ok = gaps[0] > gaps[1] > gaps[2]
    assert report(
        6, ok,
        "sup |sigma_h - sigma_fv| over h in {0.04, 0.02, 0.01}: "
        + " > ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_7_energy_dissipation_audit():
    pot = quadratic_potential(1.0)
    path = exp_decay_path(0.5, 0.3, 1.0)

    def audit(n, dt):
        grid = Grid(-11.2, 12.8, n)
        rho0 = solve_lambda(path.ell(0.0), 1.0, pot, grid).state.density
        recs = fv_run(rho0, path, dt, pot, ModelParams(), 3.0)
        limited = sum(recs["limited_mass"].tolist())
        return float(np.nanmax(recs["eb_residual"])), limited

    base, limited_base = audit(1024, 1e-3)
    refined, limited_refined = audit(2048, 5e-4)
    magnitude_ok = base <= 1e-3
    ratio = base / refined
    refinement_ok = ratio >= 3.0
    no_limiting = limited_base == 0.0 and limited_refined == 0.0
    report(7, magnitude_ok, f"max |dF/dt + D/tau - sigma l'| = {base:.2e} (<=1e-3)")
    report(
        7, refinement_ok,
        f"residual fall under dt halving (with dx refinement): {ratio:.2f}x (>=3x required; "
        f"second-order TR-BDF2 stepping with stage-predicted sigma gives about 4x)",
    )
    report(
        7, no_limiting,
        f"negative mass limited out by the stepper: {limited_base:.1e}, {limited_refined:.1e} (0 required)",
    )
    assert magnitude_ok
    assert refinement_ok, (
        f"refinement ratio {ratio:.2f} < 3: the audit residual is not second order in "
        f"(dt, dx); a sigma that lags the state by O(dt) caps the fall near 2x"
    )
    assert no_limiting


def test_criterion_8_quantitative_decay():
    grid = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
    pot = quadratic_potential(1.0)
    rho0 = gaussian_density(grid, 0.5, 1.5**2)
    t0 = time.monotonic()
    rep, traj = decay_experiment(rho0, constant_path(0.5), 1.0, pot, 1e-3,
                                 10.0, record_every=5)
    elapsed = time.monotonic() - t0
    ts, hq = strided(traj, "t", "Hrel_quasistatic")
    worst = max(h - math.exp(-t) * hq[0] for t, h in zip(ts, hq))
    ok = (
        rep["predicted_tau"] == pytest.approx(1.0)
        and worst <= 1e-10
        and rep["fitted_rate"] >= 1.0
        and elapsed < 30.0
    )
    assert report(
        8, ok,
        f"H(t) <= e^-t H(0) pointwise (worst slack {worst:.1e}), fitted rate "
        f"{rep['fitted_rate']:.2f} (>=1, oracle ~4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_9_identity_and_inequality_suites():
    grid = Grid(-12.0, 12.0, 1024)
    pot = doublewell_potential()
    nu = 1.0
    rng = np.random.default_rng(0)

    worst_identity = 0.0
    for _ in range(20):
        rho = random_density(grid, rng)
        eta = float(rng.uniform(-0.8, 0.8))
        worst_identity = max(worst_identity, verify_free_energy_identity(rho, eta, nu, pot, grid))

    sandwich_ok = True
    for _ in range(10):
        ell = float(rng.uniform(-0.5, 0.5))
        eta = float(rng.uniform(-0.8, 0.8))
        rho = random_density(grid, rng, mean=ell)
        sandwich_ok &= verify_comparison(rho, eta, ell, nu, pot, grid)["ok"]

    path = exp_decay_path(0.3, 0.3, 1.0)
    rho0 = solve_lambda(path.ell(0.0), nu, pot, grid).state.density
    recs = fv_run(rho0, path, 1e-3, pot, ModelParams(nu=nu), 2.0,
                  record_every=10, keep_densities=True)
    ckp_worst = ckp_chain_audit(recs)
    gamma_star = solve_lambda(path.ell_star, nu, pot, grid).state
    cmin = min(pot.growth_constants)
    weight = lambda x: 0.5 * cmin * (1.0 + np.abs(x))  # noqa: E731
    wckp_worst = -math.inf
    for vals in recs["density"]:
        wl1, _, bound = weighted_ckp(Density(grid, vals), gamma_star, weight)
        wckp_worst = max(wckp_worst, wl1 - bound)

    ok = worst_identity <= 1e-8 and sandwich_ok and ckp_worst <= 1e-8 and wckp_worst <= 1e-8
    assert report(
        9, ok,
        f"free-energy identity residual {worst_identity:.1e} (<=1e-8), sandwich on 10 triples: "
        f"{sandwich_ok}, CKP chain slack {ckp_worst:.1e}, weighted-CKP slack {wckp_worst:.1e}",
    )


def test_criterion_10_regime_study():
    grid = Grid(-12.0, 12.0, 1024)
    pot = doublewell_potential()
    t0 = time.monotonic()
    sweep, _ = kramers_sweep(pot, 0.0, [0.8, 0.6, 0.5], 2e-3, grid)
    rates = [e["fitted_rate"] for e in sweep["entries"]]
    slope = sweep["regression_slope"]
    monotone = rates[0] > rates[1] > rates[2]
    slope_ok = 0.5 <= slope <= 1.5

    prepared, _ = kramers_sweep(pot, 2.5, [0.8, 0.6, 0.5], 2e-3, grid,
                                well_prepared=True)
    elapsed = time.monotonic() - t0
    by_nu = {e["nu"]: e for e in prepared["entries"]}
    kramers_ratio = (0.25 / 0.64) * math.exp(-(1 / 0.25 - 1 / 0.64) * sweep["delta_h_star"])
    measured_ratio = by_nu[0.5]["fitted_rate"] / by_nu[0.8]["fitted_rate"]
    no_slowdown = measured_ratio >= 5.0 * kramers_ratio
    regimes_ok = all(e["regime"] == "unimodal" for e in prepared["entries"])

    ok = monotone and slope_ok and no_slowdown and regimes_ok and elapsed < 300.0
    assert report(
        10, ok,
        f"rates {rates[0]:.3g} > {rates[1]:.3g} > {rates[2]:.3g} (monotone: {monotone}), "
        f"regression slope {slope:.2f} (in [0.5, 1.5]), well-prepared ell*=2.5 rate ratio "
        f"{measured_ratio:.2f} vs Kramers-would-be {kramers_ratio:.3f} (no exponential "
        f"slowdown: {no_slowdown}), {elapsed:.0f}s (<300s)",
    )


VERIFY_CFG = """
[model]
potential = quadratic:1
nu = 1.0

[path]
kind = exp_decay:0.5,0.3,1.0

[grid]
x_min = -11.2
x_max = 12.8
n = 1024

[run]
kind = verify
T = 1.0
dt = 1e-3
"""


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "convex.cfg"
    cfg.write_text(VERIFY_CFG)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "7"])
        assert code == 0
        blobs.append(
            (out / "summary.json").read_bytes() + (out / "config_resolved.cfg").read_bytes()
        )
    identical = blobs[0] == blobs[1]
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    all_pass = all(entry["pass"] for entry in summary["verify"].values())
    ok = identical and all_pass
    assert report(
        11, ok,
        f"repeated verify runs bit-identical: {identical}, all verify contracts pass: {all_pass}",
    )
