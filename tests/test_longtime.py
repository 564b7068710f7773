import json
import math
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest

from cfpk.core import (
    ConstraintPath,
    Grid,
    ModelParams,
    constant_path,
    exp_decay_path,
    gaussian_density,
    moments,
)
from cfpk.equilibrium import gibbs, multimodal_intervals, solve_lambda
from cfpk.errors import CfpkError, ContractViolation, StepError
from cfpk.fpsolver import gap_rate
from cfpk.fpsolver import run as fv_run
from cfpk.functionals import free_energy, relative_entropy
from cfpk import forks, fpsolver, longtime, records
from cfpk.cli import main, parse_config
from cfpk.longtime import (
    HORIZON_EFOLDS,
    RECORDS_PER_EFOLD,
    bimodal_side_data,
    ckp_chain_audit,
    classify_regime,
    decay_experiment,
    fit_decay_rate,
    decay_bound_curve,
    verify_comparison,
    verify_free_energy_identity,
    well_prepared_data,
)
from cfpk.sampling import random_density

from oracles import cpus, deadline, gaussian_kl, strided, verify_quasistationary_derivative, verify_sigma_convergence


class TestClassifyRegime:
    @staticmethod
    def trajectory(*sigmas):
        return {"sigma": np.array(sigmas)}

    def test_kramers_when_a_multiplier_enters_the_set(self, grid, dw_pot):
        assert classify_regime(self.trajectory(2.0, 1.0, 0.3), dw_pot, grid) == "kramers"
        # the intervals are closed
        (lo, hi), = multimodal_intervals(dw_pot, grid)
        assert classify_regime(self.trajectory(2.0, hi), dw_pot, grid) == "kramers"
        assert classify_regime(self.trajectory(lo, -2.0), dw_pot, grid) == "kramers"

    def test_unimodal_outside_the_set(self, grid, dw_pot):
        assert classify_regime(self.trajectory(2.0, 2.0, 2.0), dw_pot, grid) == "unimodal"

    def test_convex(self, grid, quad_pot):
        assert classify_regime(self.trajectory(0.0, 0.3), quad_pot, grid) == "convex"


class TestComparisonSandwich:
    def test_degenerate_interval(self, grid, dw_pot):
        rho = random_density(grid, np.random.default_rng(0), mean=0.3)
        lam, _ = (lambda s: (s.lam, s.state))(solve_lambda(0.3, 1.0, dw_pot, grid))
        rep = verify_comparison(rho, lam, 0.3, 1.0, dw_pot, grid)
        assert rep["difference"] == pytest.approx(0.0, abs=1e-10)
        assert rep["lower"] == 0.0 and rep["upper"] == 0.0

    def test_gaussian_closed_form(self, grid, quad_pot):
        # H = x^2/2, nu = 1: difference is (eta - ell)^2/2 exactly
        ell, eta = 0.3, 0.9
        rho = gaussian_density(grid, ell, 1.7)
        rep = verify_comparison(rho, eta, ell, 1.0, quad_pot, grid)
        assert rep["difference"] == pytest.approx(0.5 * (eta - ell) ** 2, abs=1e-8)
        assert rep["lower"] == pytest.approx(rep["upper"], rel=1e-6)
        assert rep["ok"]

    def test_doublewell_random_triples(self, grid, dw_pot):
        rng = np.random.default_rng(42)
        for _ in range(10):
            ell = float(rng.uniform(-0.5, 0.5))
            eta = float(rng.uniform(-0.8, 0.8))
            nu = float(rng.choice([0.6, 0.8, 1.0]))
            rho = random_density(grid, rng, mean=ell)
            rep = verify_comparison(rho, eta, ell, nu, dw_pot, grid)
            assert rep["ok"], rep

    def test_precondition(self, grid, dw_pot):
        rho = gaussian_density(grid, 0.5, 1.0)
        with pytest.raises(ContractViolation):
            verify_comparison(rho, 0.1, 0.0, 1.0, dw_pot, grid)

    def test_reference_transfer_bound(self, grid, dw_pot):
        # H(rho | gamma_{lambda(ell*)}) <= H(rho | gamma_{lambda(ell)})
        #   + C_var/(2 c_var^2) |ell* - ell|^2   (nu factors cancel)
        from cfpk.equilibrium import landscape

        nu = 0.8
        scan = landscape(nu, dw_pot, grid, (-2.0, 2.0))
        rng = np.random.default_rng(14)
        for _ in range(8):
            ell = float(rng.uniform(-0.5, 0.5))
            ell_star = float(rng.uniform(-0.8, 0.8))
            rho = random_density(grid, rng, mean=ell)
            h_here = relative_entropy(rho, solve_lambda(ell, nu, dw_pot, grid).state)
            h_star = relative_entropy(rho, solve_lambda(ell_star, nu, dw_pot, grid).state)
            allowance = scan["C_var"] / (2.0 * scan["c_var"]**2) * (ell_star - ell) ** 2
            assert h_star <= h_here + allowance + 1e-8


class TestFreeEnergyIdentity:
    def test_eta_equals_lambda(self, grid, dw_pot):
        # constraint makes the right-hand side vanish
        nu = 0.8
        ell = 0.25
        sol = solve_lambda(ell, nu, dw_pot, grid)
        rho = random_density(grid, np.random.default_rng(1), mean=ell)
        f_rho = free_energy(rho, dw_pot, ModelParams(nu=nu)).F
        f_gam = free_energy(sol.state.density, dw_pot, ModelParams(nu=nu)).F
        h = relative_entropy(rho, sol.state)
        assert f_rho - f_gam == pytest.approx(nu * nu * h, abs=1e-8)

    def test_rho_equals_gamma(self, grid, dw_pot):
        st = gibbs(0.3, 1.0, dw_pot, grid)
        assert verify_free_energy_identity(st.density, 0.3, 1.0, dw_pot, grid) <= 1e-10

    def test_random_pairs(self, grid, dw_pot):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(grid, rng)
            eta = float(rng.uniform(-0.8, 0.8))
            nu = float(rng.choice([0.5, 1.0]))
            assert verify_free_energy_identity(rho, eta, nu, dw_pot, grid) <= 1e-8


class TestQuasistationaryDerivative:
    def test_stationary(self, fine_grid, dw_pot):
        nu = 0.8
        sol = solve_lambda(0.2, nu, dw_pot, fine_grid)
        path = constant_path(0.2)
        recs = fv_run(sol.state.density, path, 1e-3, dw_pot,
                      ModelParams(nu=nu), 0.02)
        assert verify_quasistationary_derivative(recs, dw_pot, path, ModelParams(nu=nu)) <= 1e-8

    def test_convex_moving_ell(self, quad_pot):
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 1.0)
        rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
        recs = fv_run(rho0, path, 1e-3, quad_pot, ModelParams(), 2.0)
        res = verify_quasistationary_derivative(recs, quad_pot, path, ModelParams())
        assert res <= 1e-3

    @pytest.mark.parametrize("nu,tau", [(0.8, 1.0), (1.0, 2.0), (0.8, 2.0)])
    def test_doublewell_moving_ell_at_nu_and_tau(self, grid, dw_pot, nu, tau):
        # nu^2 dH/dt = -D/tau + l'(sigma - lambda): the unscaled balance is
        # off by 5e-3 at nu = 0.8 and 0.18 at tau = 2
        path = exp_decay_path(0.5, 0.3, 1.0)
        params = ModelParams(tau=tau, nu=nu)
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        recs = fv_run(rho0, path, 1e-3, dw_pot, params, 2.0)
        assert verify_quasistationary_derivative(recs, dw_pot, path, params) <= 1e-4

    def test_too_short(self, grid, dw_pot):
        path = constant_path(0.2)
        sol = solve_lambda(0.2, 0.8, dw_pot, grid)
        recs = fv_run(sol.state.density, path, 1e-3, dw_pot,
                      ModelParams(nu=0.8), 1e-3)
        assert len(recs["t"]) == 2
        with pytest.raises(ContractViolation):
            verify_quasistationary_derivative(recs, dw_pot, path, ModelParams(nu=0.8))


class TestDecayExperiment:
    def test_convex_constant_ell(self, quad_pot):
        g = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
        rho0 = gaussian_density(g, 0.5, 1.5**2)
        rep, traj = decay_experiment(rho0, constant_path(0.5), 1.0, quad_pot,
                                     1e-3, 10.0, record_every=5)
        assert rep["regime"] == "convex"
        assert rep["predicted_tau"] == pytest.approx(1.0)
        assert rep["fitted_rate"] >= 1.0
        assert rep["fitted_rate"] == pytest.approx(4.0, rel=0.15)  # Gaussian oracle
        assert rep["bound_max_violation"] <= 1e-8
        ts, hq = strided(traj, "t", "Hrel_quasistatic")
        worst = max(h - math.exp(-t) * hq[0] for t, h in zip(ts, hq))
        assert worst <= 1e-10

    def test_predicted_rate_carries_one_over_tau(self, quad_pot):
        # criterion 8's run with tau = 8, and dt and T scaled by 8: every
        # rate of the generator is 1/8 of criterion 8's, so the predicted
        # rate k/tau bounds H from above at every record
        tau = 8.0
        g = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
        rho0 = gaussian_density(g, 0.5, 1.5**2)
        rep, _ = decay_experiment(rho0, constant_path(0.5), 1.0, quad_pot,
                                  tau * 1e-3, tau * 10.0, tau=tau, record_every=5)
        assert rep["predicted_tau"] == pytest.approx(1.0 / tau)
        assert rep["bound_max_violation"] < 0.0

    def test_bound_value_is_the_margin_after_record_0(self, quad_pot):
        # record 0 has H = bound by construction, so the audit reads the
        # records after it: the value is < 0 on a convex run the bound holds on
        g = Grid(-11.2, 12.8, 512)
        path = exp_decay_path(0.5, 0.3, 1.0)
        rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
        block, traj = longtime.verify(rho0, path, quad_pot, ModelParams(), 1e-3, 0.5, 0)
        entry = block["quantitative_decay_bound"]
        assert entry["pass"] and entry["max_violation"] < 0.0
        predicted, c, value = longtime.decay_bound_audit(traj, ModelParams(), quad_pot, g)
        gap = traj["Hrel_quasistatic"] - decay_bound_curve(traj, predicted, c)
        assert gap[0] == 0.0 and value == entry["max_violation"] == float(np.max(gap[1:]))

    def test_exp_decay_kappa_gt_tau(self, quad_pot):
        # H(t) <= e^{-tau t}(H(0) + C) with C = C_ls * L0/(kappa - tau)
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 2.0)
        rho0 = gaussian_density(g, path.ell(0.0), 1.2)
        rep, traj = decay_experiment(rho0, path, 1.0, quad_pot, 1e-3, 8.0,
                                     record_every=5)
        tau = rep["predicted_tau"]
        c_exp = rep["C_ell_sigma"] * path.L0 / (path.kappa - tau)
        ts, hqs = strided(traj, "t", "Hrel_quasistatic")
        for t, hq in zip(ts, hqs):
            assert hq <= math.exp(-tau * t) * (hqs[0] + c_exp) + 1e-9

    def test_false_envelope_is_refused(self, quad_pot):
        # |ell_dot(t)| = 0.4 e^{-t} breaks a declared envelope of 0.2 e^{-t}
        held = exp_decay_path(0.3, 0.4, 1.0)
        broken = ConstraintPath(held.ell, held.ell_dot, held.ell_star, kappa=held.kappa, L0=0.5 * held.L0)
        g = Grid(-12.0, 12.0, 256)
        rho0 = gaussian_density(g, held.ell(0.0), 1.0)
        decay_experiment(rho0, held, 1.0, quad_pot, 1e-2, 0.1)
        with pytest.raises(ContractViolation, match="envelope"):
            decay_experiment(rho0, broken, 1.0, quad_pot, 1e-2, 0.1)

    def test_fit_window_flag(self, quad_pot):
        # run stops while Hrel is still above the window: flagged, but a rate
        # is still reported from the available samples
        g = Grid(-11.0, 13.0, 512)
        rho0 = gaussian_density(g, 0.5, 4.0)
        rep, _ = decay_experiment(rho0, constant_path(0.5), 1.0, quad_pot,
                                  1e-3, 0.05)
        assert rep["short_window"]
        assert np.isfinite(rep["fitted_rate"])


class TestSigmaConvergence:
    def test_stationary_all_zero(self, grid, dw_pot):
        nu = 0.8
        path = constant_path(0.2)
        sol = solve_lambda(0.2, nu, dw_pot, grid)
        recs = fv_run(sol.state.density, path, 1e-3, dw_pot,
                      ModelParams(nu=nu), 0.05)
        rep = verify_sigma_convergence(recs, path, nu, dw_pot, grid)
        assert rep["ok"]
        assert abs(rep["sigma_star"] - sol.lam) < 1e-12

    def test_convex_run_bound_holds(self, quad_pot):
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 1.0)
        rho0 = gaussian_density(g, path.ell(0.0), 1.3)
        recs = fv_run(rho0, path, 1e-3, quad_pot, ModelParams(), 4.0,
                      record_every=5)
        rep = verify_sigma_convergence(recs, path, 1.0, quad_pot, g)
        assert rep["worst_sigma_slack"] <= 1e-8
        assert rep["worst_free_energy_slack"] <= 1e-6

    def test_doublewell_well_prepared(self, grid, dw_pot):
        nu = 0.6
        path = exp_decay_path(2.5, 0.2, 1.0)
        rho0 = well_prepared_data(path.ell(0.0), nu, dw_pot, grid, shift=0.05)
        recs = fv_run(rho0, path, 2e-3, dw_pot, ModelParams(nu=nu),
                      6.0, record_every=5)
        rep = verify_sigma_convergence(recs, path, nu, dw_pot, grid)
        assert rep["worst_sigma_slack"] <= 1e-8

    def test_sigma_gap_decays_at_half_rate(self, quad_pot):
        # log-slope of |sigma - sigma*| at least half the certified rate k/tau
        # in the tail (kappa != 1 here: at kappa = 1, sigma = ell + ell_dot is
        # identically sigma* for the quadratic potential).  The start has the
        # Gibbs shape, so H(rho|gamma) only rises on the constraint drift's
        # noise (to about 4e-10) and has no fitted rate to compare with
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 0.7)
        rho0 = gaussian_density(g, path.ell(0.0), 1.0)
        rep, traj = decay_experiment(rho0, path, 1.0, quad_pot,
                                     1e-3, 6.0, record_every=5)
        ts, sigma = map(np.array, strided(traj, "t", "sigma"))
        gap = np.abs(sigma - solve_lambda(path.ell_star, 1.0, quad_pot, g).lam)
        mask = (gap > 1e-11) & (ts > 0.5) & (ts < 4.0)
        slope = -np.polyfit(ts[mask], np.log(gap[mask]), 1)[0]
        assert math.isnan(rep["fitted_rate"])
        assert slope >= rep["predicted_tau"] / 2.0 - 1e-6


class TestCkpChain:
    def test_holds_on_trajectory(self, grid, dw_pot):
        path = exp_decay_path(0.3, 0.3, 1.0)
        nu = 0.8
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        recs = fv_run(rho0, path, 2e-3, dw_pot, ModelParams(nu=nu),
                      3.0, record_every=10)
        assert ckp_chain_audit(recs) <= 1e-8


class TestPreparedData:
    def test_bimodal_side_mean_and_population(self, grid, dw_pot):
        rho = bimodal_side_data(0.0, 0.5, dw_pot, grid, population=0.55)
        assert moments(rho)[0] == pytest.approx(0.0, abs=1e-10)
        left = float(np.sum(rho.values[: grid.n // 2])) * grid.dx
        assert left == pytest.approx(0.55, abs=1e-3)  # split-cell granularity

    def test_bimodal_falls_back_without_barrier(self, grid, quad_pot):
        rho = bimodal_side_data(0.0, 0.8, quad_pot, grid)
        assert moments(rho)[0] == pytest.approx(0.0, abs=1e-8)

    def test_well_prepared_on_manifold_but_nontrivial(self, grid, dw_pot):
        nu = 0.6
        rho = well_prepared_data(2.5, nu, dw_pot, grid, shift=0.1)
        assert moments(rho)[0] == pytest.approx(2.5, abs=1e-8)
        gamma = solve_lambda(2.5, nu, dw_pot, grid).state
        assert relative_entropy(rho, gamma) > 1e-6  # genuine perturbation


class TestGapRateOracle:
    def test_decay_fit_matches_gap_rate(self, grid, dw_pot):
        # criterion 10's first member, run as kramers_sweep runs it
        nu, dt = 0.8, 2e-3
        gap = gap_rate(0.0, nu, dw_pot, grid)
        horizon = 30.0 / gap
        rho0 = bimodal_side_data(0.0, nu, dw_pot, grid, population=0.52)
        records = fv_run(
            rho0, constant_path(0.0), dt, dw_pot, ModelParams(nu=nu), horizon,
            record_every=round(horizon / dt / (RECORDS_PER_EFOLD * HORIZON_EFOLDS)),
        )
        fitted_rate, short_window = fit_decay_rate(records, tail_only=True)
        assert not short_window
        assert fitted_rate == pytest.approx(gap, rel=0.01)


class _MemberRun(Exception):
    pass


class TestKramersSweepRecords:
    @staticmethod
    def member(monkeypatch, dw_pot, gap):
        # the horizon, step and record spacing a member with this gap_rate
        # passes to fv_run, which is stopped before its first step
        seen = {}

        def stop(rho0, path, dt, pot, params, T, record_every=1):
            seen.update(dt=dt, T=T, spacing=record_every * dt)
            raise _MemberRun

        monkeypatch.setattr(longtime, "gap_rate", lambda *args, **kwargs: gap)
        monkeypatch.setattr(longtime, "fv_run", stop)
        with pytest.raises(_MemberRun):
            longtime.kramers_sweep(
                dw_pot, 0.0, [0.8], 2e-3, Grid(-12.0, 12.0, 256), well_prepared=True
            )
        return seen

    @pytest.mark.parametrize("gap", [2.0, 0.5, 0.02])
    def test_sixteen_records_per_efold(self, monkeypatch, dw_pot, gap):
        seen = self.member(monkeypatch, dw_pot, gap)
        assert seen["T"] == 30.0 / gap
        assert abs(seen["spacing"] - 1.0 / (16.0 * gap)) <= seen["dt"]

    def test_capped_horizon_keeps_480_records(self, monkeypatch, dw_pot):
        seen = self.member(monkeypatch, dw_pot, 1e-4)
        assert seen["T"] == 4200.0
        assert seen["T"] / seen["spacing"] >= 480

    def test_benchmark_sweep_fit_windows(self, tmp_path, monkeypatch):
        # the sweep of perfbench/configs/fv_kramers_sweep.cfg; the spy counts
        # the points of each member's tail fit (the last polyfit is the
        # regression over the members); on one CPU, since the spy cannot
        # see the fits of members run in forked processes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        path = Path(__file__).parent.parent / "perfbench" / "configs" / "fv_kramers_sweep.cfg"
        cfg = parse_config(str(path), out_dir=str(tmp_path / "out"))
        fit_points = []
        polyfit = np.polyfit

        def spy(x, y, deg):
            fit_points.append(len(x))
            return polyfit(x, y, deg)

        monkeypatch.setattr(np, "polyfit", spy)
        out, trajectories = longtime.kramers_sweep(
            cfg.pot, cfg.path.ell_star, cfg.run.nu_list, cfg.run.dt, cfg.grid, tau=cfg.params.tau
        )
        assert len(fit_points) == len(cfg.run.nu_list) + 1
        for entry, points in zip(out["entries"], fit_points):
            assert 470 <= len(trajectories[entry["nu"]]["t"]) <= 510
            assert not entry["short_window"]
            assert points >= 100


def failing_run(failing):
    """fv_run, but raising a StepError with diagnostics for each nu in `failing`."""
    def run(rho0, path, dt, pot, params, T, record_every=1):
        if params.nu in failing:
            raise StepError(f"injected failure at nu = {params.nu}", diagnostics={"nu": params.nu, "step": 7})
        return fv_run(rho0, path, dt, pot, params, T, record_every=record_every)
    return run


class _Interrupt(BaseException):
    pass


@contextmanager
def alarm_interrupts(seconds=None):
    """SIGALRM raises _Interrupt in this block, `seconds` after it starts
    where given."""
    def interrupt(signum, frame):
        raise _Interrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    if seconds is not None:
        signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestKramersSweepProcesses:
    # on c > 1 CPUs a sweep of n members forks min(n, 4c) shares: up to
    # eight members on two CPUs each have their own child, which steps and
    # records them; this process only receives
    NU_LIST = [1.2, 1.0, 0.9]
    FIVE = [1.2, 1.1, 1.0, 0.95, 0.9]
    # eight shares on two CPUs: share 0 holds members 0 and 8
    NINE = [1.2, 1.15, 1.1, 1.05, 1.0, 0.95, 0.9, 0.85, 0.8]

    def sweep(self, dw_pot, n=8, nu_list=NU_LIST):
        # n = 8: the nu = 1.2 rate and the regression slope are NaN
        return longtime.kramers_sweep(dw_pot, 0.2, nu_list, 1e-2, Grid(-12.0, 12.0, n))

    @staticmethod
    def assert_same_bits(sweep, one_sweep, nu_list):
        (block, trajectories), (one_block, one_trajectories) = sweep, one_sweep
        # a float's repr gives its bits back, and NaN's repr equals itself
        assert repr(block) == repr(one_block)
        assert list(trajectories) == list(one_trajectories) == nu_list
        for nu, traj in trajectories.items():
            assert list(traj) == list(one_trajectories[nu])
            for name, col in traj.items():
                one = one_trajectories[nu][name]
                assert col.dtype == one.dtype and np.array_equal(col, one, equal_nan=True), (nu, name)

    @pytest.mark.parametrize("count", [None, 2, 3], ids=["default", "two", "three"])
    @pytest.mark.parametrize("n", [8, 128])
    def test_same_numbers_as_on_one_cpu(self, monkeypatch, dw_pot, count, n):
        cpus(monkeypatch, count)
        many = self.sweep(dw_pot, n)
        assert multiprocessing.active_children() == []
        cpus(monkeypatch, 1)
        self.assert_same_bits(many, self.sweep(dw_pot, n), self.NU_LIST)

    def test_nine_members_on_two_cpus(self, monkeypatch, tmp_path, dw_pot):
        # eight shares, each a child of this process, share r running
        # members r and r + 8; the same bits as on one CPU
        parent, runs = os.getpid(), tmp_path / "runs"

        def logged(rho0, path, dt, pot, params, T, record_every=1):
            with open(runs, "a") as fh:
                fh.write(f"{params.nu!r} {os.getpid()} {os.getppid()}\n")
            return fv_run(rho0, path, dt, pot, params, T, record_every=record_every)

        monkeypatch.setattr(longtime, "fv_run", logged)
        cpus(monkeypatch, 2)
        many = self.sweep(dw_pot, nu_list=self.NINE)
        assert multiprocessing.active_children() == []
        lines = [line.split() for line in runs.read_text().splitlines()]
        pid = {float(nu): int(p) for nu, p, _ in lines}
        assert len(lines) == len(pid) == 9 and {int(ppid) for _, _, ppid in lines} == {parent}
        assert pid[1.2] == pid[0.8] and len(set(pid.values())) == 8
        cpus(monkeypatch, 1)
        self.assert_same_bits(many, self.sweep(dw_pot, nu_list=self.NINE), self.NINE)

    def test_forked_child_sees_one_cpu(self, monkeypatch):
        # so a forked child never forks
        cpus(monkeypatch, 3)
        with forks.Forked((forks.cpus() for _ in range(1)), "the child", {}) as child:
            assert list(child) == [1]
        assert forks.cpus() == 3
        assert multiprocessing.active_children() == []

    def test_members_step_and_record_in_children_of_this_process(self, monkeypatch, tmp_path, dw_pot):
        # each member's steps and records run in one process, a child of
        # this one: no member forks its stepping
        parent, calls = os.getpid(), tmp_path / "calls"
        advance, kernel = fpsolver._advance, records._record_block

        def logged(name, target):
            seen = []

            def call(*args):
                if not seen:  # once per process: each fork starts from this empty list
                    seen.append(None)
                    with open(calls, "a") as fh:
                        fh.write(f"{name} {os.getpid()} {os.getppid()}\n")
                return target(*args)
            return call

        monkeypatch.setattr(fpsolver, "_advance", logged("step", advance))
        monkeypatch.setattr(records, "_record_block", logged("record", kernel))
        cpus(monkeypatch, 2)
        self.sweep(dw_pot, n=128)
        assert multiprocessing.active_children() == []
        lines = [line.split() for line in calls.read_text().splitlines()]
        stepping = {int(pid) for name, pid, _ in lines if name == "step"}
        recording = {int(pid) for name, pid, _ in lines if name == "record"}
        assert stepping == recording and len(stepping) == len(self.NU_LIST) and parent not in stepping
        assert {int(ppid) for _, _, ppid in lines} == {parent}

    @pytest.mark.parametrize(
        "nu_list, failing, many",
        [
            pytest.param(NU_LIST, (1.0, 0.9), None, id="failing0-default"),
            pytest.param(NU_LIST, (1.0, 0.9), 3, id="failing0-three"),
            pytest.param(NU_LIST, (1.2, 1.0), None, id="failing1-default"),
            pytest.param(NU_LIST, (1.2, 1.0), 3, id="failing1-three"),
            # members k = 3 and 4 fail: on two CPUs every member has its own
            # child, and k = 0, 1 and 2 arrive before the failure of k = 3
            pytest.param(FIVE, (0.95, 0.9), 2, id="five-two"),
            # member k = 8 fails in share 0, which first sends member 0
            pytest.param(NINE, (0.8,), 2, id="nine-two"),
        ],
    )
    def test_failure_as_on_one_cpu(self, monkeypatch, dw_pot, nu_list, failing, many):
        # the first failing member in nu_list order is raised, wherever it ran
        monkeypatch.setattr(longtime, "fv_run", failing_run(failing))
        raised = []
        for count in (many, 1):
            cpus(monkeypatch, count)
            with pytest.raises(StepError) as info:
                self.sweep(dw_pot, nu_list=nu_list)
            assert multiprocessing.active_children() == []
            raised.append(info.value)
        many, one = raised
        assert type(many) is type(one)
        assert str(many) == str(one) == f"injected failure at nu = {failing[0]}"
        assert many.diagnostics == one.diagnostics == {"nu": failing[0], "step": 7}

    @pytest.mark.parametrize("many", [None, 3], ids=["default", "three"])
    def test_cli_failure_writes_the_same_error_json(self, tmp_path, monkeypatch, capsys, many):
        monkeypatch.setattr(longtime, "fv_run", failing_run((1.0, 0.9)))
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "[model]\npotential = doublewell\n\n[path]\nkind = constant:0.2\n\n[grid]\nn = 8\n\n"
            "[run]\nnu_list = 1.2,1.0,0.9\ndt = 1e-2\n"
        )
        written = []
        for count, name in ((many, "many"), (1, "one")):
            cpus(monkeypatch, count)
            out = tmp_path / name
            assert main(["kramers-sweep", "--config", str(config), "--out", str(out)]) == 2
            assert not (out / "summary.json").exists()
            written.append((out / "error.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0]) == {
            "error": "StepError",
            "message": "injected failure at nu = 1.0",
            "diagnostics": {"nu": 1.0, "step": 7},
        }
        assert capsys.readouterr().err == "error: injected failure at nu = 1.0\n" * 2
        assert multiprocessing.active_children() == []

    def test_dead_child_names_its_members(self, monkeypatch, dw_pot):
        parent = os.getpid()

        def die(rho0, path, dt, pot, params, T, record_every=1):
            if params.nu == 1.0 and os.getpid() != parent:
                os._exit(3)
            return fv_run(rho0, path, dt, pot, params, T, record_every=record_every)

        monkeypatch.setattr(longtime, "fv_run", die)
        cpus(monkeypatch, 2)
        with deadline("the sweep waits on a dead child"), pytest.raises(CfpkError) as info:
            self.sweep(dw_pot)
        assert type(info.value) is CfpkError
        assert "nu = [1.0]" in str(info.value) and "code 3" in str(info.value)
        assert info.value.diagnostics == {"nu": [1.0], "exitcode": 3}
        assert multiprocessing.active_children() == []

    def test_interrupted_sweep_stops_its_children(self, monkeypatch, dw_pot):
        # this process is interrupted while it waits on children that run
        # long members: they are stopped and joined, not waited for
        def run(rho0, path, dt, pot, params, T, record_every=1):
            time.sleep(60.0)

        monkeypatch.setattr(longtime, "fv_run", run)
        cpus(monkeypatch, 2)
        start = time.perf_counter()
        with alarm_interrupts(1.0), pytest.raises(_Interrupt):
            self.sweep(dw_pot)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < 30.0

    def test_interrupted_sweep_leaves_no_stepping_process(self, monkeypatch, capfd, tmp_path, dw_pot):
        # each member steps and records in its own child of this process,
        # and stalls in its first record.  Once two members have stepped,
        # this process is interrupted and stops the members: no stepping
        # process outlives it.
        parent, pids, signalled = os.getpid(), tmp_path / "pids", tmp_path / "signalled"
        advance, seen = fpsolver._advance, []

        def stepping(*args):
            if not seen:
                seen.append(None)
                with open(pids, "a") as fh:
                    fh.write(f"{os.getpid()} {os.getppid()}\n")
                # any member that sees two lines may signal, as a third can
                # write before the second one reads; only the first does
                if len(pids.read_text().splitlines()) >= 2:
                    try:
                        os.close(os.open(signalled, os.O_CREAT | os.O_EXCL))
                        os.kill(parent, signal.SIGALRM)
                    except FileExistsError:
                        pass
            return advance(*args)

        def stalled(*args):
            time.sleep(60.0)

        monkeypatch.setattr(fpsolver, "_advance", stepping)
        monkeypatch.setattr(records, "_record_block", stalled)
        cpus(monkeypatch, 2)
        # the alarm after 30 s interrupts a sweep that no member interrupts
        with alarm_interrupts(30.0), pytest.raises(_Interrupt):
            self.sweep(dw_pot, n=128)
        assert multiprocessing.active_children() == []
        lines = [[int(v) for v in line.split()] for line in pids.read_text().splitlines()]
        stepping_pids = [pid for pid, _ in lines]
        # a third member may step before this process stops it
        assert signalled.exists() and len(stepping_pids) >= 2
        assert all(ppid == parent for _, ppid in lines)
        end = time.monotonic() + 10.0
        try:
            while (left := [pid for pid in stepping_pids if running(pid)]) and time.monotonic() < end:
                time.sleep(0.05)
            assert left == []
        finally:
            for pid in left:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert "Traceback" not in capfd.readouterr().err


class TestKramersSweepGuards:
    @pytest.mark.parametrize(
        "nu_list",
        [[0.8, 0.0, 0.5], [0.8, -0.6, 0.5], [0.8, math.nan, 0.5], [0.8, math.inf, 0.5], [0.8, 0.6, 0.8]],
        ids=["zero", "negative", "nan", "inf", "duplicate"],
    )
    def test_bad_noise_levels_rejected(self, quad_pot, nu_list):
        from cfpk.longtime import kramers_sweep

        with pytest.raises(ContractViolation):
            kramers_sweep(quad_pot, 0.0, nu_list, 2e-3, Grid(-12.0, 12.0, 128))


class TestKramersSweepRegression:
    def test_rate_below_zero_gives_nan_slope(self, dw_pot):
        # n = 8: every member fits a short window, and the nu = 1.2 trace
        # rises, so it has no rate and there is no log(rate) to regress
        from cfpk.longtime import kramers_sweep

        out, _ = kramers_sweep(dw_pot, 0.2, [1.2, 1.0, 0.9], 1e-2, Grid(-12.0, 12.0, 8))
        rates = [e["fitted_rate"] for e in out["entries"]]
        assert math.isnan(rates[0]) and min(rates[1:]) > 0.0
        assert math.isnan(out["regression_slope"])


class TestKramersSweepConvexControl:
    def test_no_barrier_rates_are_scale_free(self, quad_pot):
        from cfpk.longtime import kramers_sweep

        g = Grid(-12.0, 12.0, 512)
        out, _ = kramers_sweep(quad_pot, 0.0, [1.0, 0.8, 0.6], 2e-3, g)
        assert out["delta_h_star"] == 0.0
        rates = [e["fitted_rate"] for e in out["entries"]]
        assert all(e["regime"] == "convex" for e in out["entries"])
        assert max(rates) / min(rates) < 1.5  # no Kramers suppression


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = [0.05 * k for k in range(200)]
        recs = {"t": np.array(t), "Hrel_quasistatic": np.array([1e-1 * math.exp(-2.5 * t_k) for t_k in t])}
        rate, short = fit_decay_rate(recs)
        assert not short
        assert rate == pytest.approx(2.5, rel=1e-6)

    def test_floor_exclusion(self):
        t = [0.05 * k for k in range(400)]
        recs = {"t": np.array(t), "Hrel_quasistatic": np.array([1e-1 * math.exp(-2.5 * t_k) + 1e-9 for t_k in t])}
        rate, _ = fit_decay_rate(recs)
        assert rate == pytest.approx(2.5, rel=0.05)
