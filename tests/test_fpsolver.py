import dataclasses
import math
from contextlib import contextmanager
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cfpk.core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    constant_path,
    density_from_values,
    doublewell_potential,
    entropy,
    exp_decay_path,
    gaussian_density,
    moments,
    polynomial_potential,
    quadratic_potential,
    step_count,
)
from cfpk import fpsolver, records
from cfpk.equilibrium import TiltedFamily, gibbs, solve_lambda
from cfpk.errors import CfpkError, ContractViolation, SolverError, StepError
from cfpk.fpsolver import (
    _advance,
    _Stepper,
    gap_rate,
    project_mean,
    run,
    sigma_of_state,
)
from cfpk.transport import jko_run
from cfpk.functionals import dissipation, free_energy, log_partition, relative_entropy
from cfpk.longtime import bimodal_side_data
from cfpk.records import FPSOLVER_COLUMNS, record_times
from cfpk.sampling import random_density, set_mean

from oracles import constrained_gap_dense, gibbs_relative_entropy, w2


def cpus(monkeypatch, count):
    """Let a run see `count` CPUs; None keeps those this process may use."""
    if count is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestSigmaOfState:
    def test_gibbs_quadratic(self, grid, quad_pot):
        st = gibbs(0.6, 1.0, quad_pot, grid)
        s = sigma_of_state(st.density, 0.0, quad_pot, constant_path(0.6), ModelParams())
        assert s == pytest.approx(0.6, abs=1e-8)

    def test_ell_dot_term(self, grid, quad_pot):
        st = gibbs(0.0, 1.0, quad_pot, grid)
        path = exp_decay_path(0.0, 1.0, 1.0)  # ell_dot(0) = -1
        s = sigma_of_state(st.density, 0.0, quad_pot, path, ModelParams(tau=2.0))
        assert s == pytest.approx(0.0 + 2.0 * path.ell_dot(0.0), abs=1e-8)

    def test_odd_integrand_on_even_density(self, grid, dw_pot):
        st = gibbs(0.0, 0.5, dw_pot, grid)
        s = sigma_of_state(st.density, 0.0, dw_pot, constant_path(0.0), ModelParams(nu=0.5))
        assert abs(s) < 1e-8


class TestStep:
    def test_stationary_state_fixed(self, grid, dw_pot):
        nu = 0.5
        sol = solve_lambda(0.3, nu, dw_pot, grid)
        op = _Stepper(grid, dw_pot, constant_path(0.3), ModelParams(nu=nu))
        new, sigma, _, _, _ = _advance(sol.state.density.values, 0.0, 1e-2, op)
        assert float(np.sum(np.abs(new - sol.state.density.values))) * grid.dx <= 1e-10
        assert sigma == pytest.approx(sol.lam, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        c1=hst.floats(-1.0, 1.0),
        c2=hst.floats(-2.0, 2.0),
        c3=hst.floats(-0.5, 0.5),
        c4=hst.floats(0.1, 1.0),
        nu=hst.floats(0.4, 1.2),
        tilt=hst.floats(-1.0, 1.0),
    )
    def test_gibbs_states_are_fixed_points(self, c1, c2, c3, c4, nu, tilt):
        # every grid Gibbs state of a random quartic is an exact steady state
        # of the whole TR-BDF2 step.  These ranges keep the state below
        # e^-50 of its peak at x = +-8, so int H' gamma = tilt to quadrature
        # accuracy; denormal tail cells may leave the limiter a few 5e-324.
        g = Grid(-8.0, 8.0, 512)
        pot = polynomial_potential([0.0, c1, c2, c3, c4], g)
        state = gibbs(tilt, nu, pot, g)
        op = _Stepper(g, pot, constant_path(state.mean), ModelParams(nu=nu))
        new, sigma, drift, limited, _ = _advance(state.density.values, 0.0, 1e-2, op)
        assert float(np.sum(np.abs(new - state.density.values))) * g.dx <= 1e-10
        assert sigma == pytest.approx(tilt, abs=1e-8)
        assert drift <= 1e-12
        assert np.all(new >= 0.0)
        assert limited <= 1e-300

    def test_positivity_and_mass(self, grid, dw_pot):
        # the whole TR-BDF2 step conserves mass and stays nonnegative; the
        # positivity limiter acts only at the two stiff boundary cells here
        rng = np.random.default_rng(8)
        from cfpk.sampling import random_density, set_mean

        params = ModelParams(nu=0.7)
        for _ in range(10):
            rho = random_density(grid, rng)
            path = exp_decay_path(0.0, float(rng.normal()), 1.0)  # random tau l'(0)
            op = _Stepper(grid, dw_pot, path, params)
            vals, _, drift, _, _ = _advance(rho.values, 0.0, 0.01, op)
            assert np.all(vals >= 0.0)
            assert drift <= 1e-12
        # a one-cell spike drives both explicit updates far negative: the
        # limiter keeps the step nonnegative and mass-conserving
        spike = np.zeros(grid.n)
        spike[grid.n // 2] = 1.0 / grid.dx
        op = _Stepper(grid, dw_pot, constant_path(0.0), params)
        vals, _, drift, limited, _ = _advance(spike, 0.0, 0.01, op)
        assert limited > 0.1
        assert np.all(vals >= 0.0)
        assert drift <= 1e-12

    def test_mean_drift_second_order(self, quad_pot):
        # one-step defect |M1(rho_next) - ell(t + dt)| = O(dt^3 + dt dx^2): it
        # falls 8x when dt and dx halve together.  At fixed dx the dt^3 part
        # sinks below the O(dt dx^2) floor of the second-order stepper.
        path = exp_decay_path(0.3, 0.4, 1.0)
        gaps = {}
        for n, dt in ((256, 4e-3), (512, 2e-3), (1024, 1e-3)):
            g = Grid(-12.0, 12.0, n)
            rho = gaussian_density(g, path.ell(0.0), 1.3)
            new, _, _, _, _ = _advance(rho.values, 0.0, dt, _Stepper(g, quad_pot, path, ModelParams()))
            gaps[dt] = abs(moments(Density(g, new))[0] - path.ell(dt))
        assert gaps[4e-3] / gaps[2e-3] == pytest.approx(8.0, rel=0.25)
        assert gaps[2e-3] / gaps[1e-3] == pytest.approx(8.0, rel=0.25)


class TestRun:
    def test_gaussian_variance_oracle(self, quad_pot):
        g = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
        rho0 = gaussian_density(g, 0.5, 1.5**2)
        recs = run(rho0, constant_path(0.5), 1e-3, quad_pot,
                   ModelParams(), 3.0, record_every=10)
        ts = recs["t"]
        vs = recs["M2"] - recs["M1"] ** 2
        oracle = 1.0 + (1.5**2 - 1.0) * np.exp(-2.0 * ts)
        assert float(np.max(np.abs(vs - oracle))) <= 1e-3

    def test_stationary_audit(self, fine_grid, dw_pot):
        nu = 0.5
        sol = solve_lambda(0.3, nu, dw_pot, fine_grid)
        recs = run(sol.state.density, constant_path(0.3), 1e-3,
                   dw_pot, ModelParams(nu=nu), 0.05)
        assert float(np.nanmax(recs["eb_residual"])) <= 1e-8
        assert np.max(np.abs(recs["M1"] - 0.3)) <= 1e-10
        assert np.all(recs["limited_mass"] == 0.0)

    def test_audit_refines(self, quad_pot):
        # eb_residual falls under joint (dt, dx) refinement
        path = exp_decay_path(0.5, 0.3, 1.0)

        def eb(n, dt):
            g = Grid(-11.2, 12.8, n)
            rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
            recs = run(rho0, path, dt, quad_pot, ModelParams(), 1.5)
            return float(np.nanmax(recs["eb_residual"]))

        coarse = eb(512, 2e-3)
        fine = eb(1024, 1e-3)
        assert fine < coarse

    def test_initial_projection(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 1.1, 0.8)
        recs = run(rho0, constant_path(0.2), 1e-3, dw_pot,
                   ModelParams(nu=0.8), 0.01)
        assert recs["M1"][0] == pytest.approx(0.2, abs=1e-8)

    def test_undeclared_envelope_is_moving(self, quad_pot):
        # a path without kappa/L0 is not constant: lam_ell and
        # Hrel_quasistatic follow gamma_{lambda(ell(t))} as for exp_decay
        g = Grid(-12.0, 12.0, 256)
        declared = exp_decay_path(0.3, 0.4, 1.0)
        bare = ConstraintPath(declared.ell, declared.ell_dot, declared.ell_star)
        rho0 = gaussian_density(g, declared.ell(0.0), 1.0)
        declared_run, bare_run = (run(rho0, p, 1e-3, quad_pot, ModelParams(), 0.5) for p in (declared, bare))
        for c in FPSOLVER_COLUMNS + ["lam_ell"]:
            np.testing.assert_array_equal(bare_run[c], declared_run[c], err_msg=c)

    def test_model_sampled_once_per_grid(self, dw_pot):
        # the stepper, sigma, the free energy, the dissipation and every
        # lambda solve of a run read one grid sampling of H and H'
        calls = {"h": 0, "h1": 0}

        def counted(name):
            fn = getattr(dw_pot, name)

            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        pot = dataclasses.replace(dw_pot, h=counted("h"), h1=counted("h1"))
        g = Grid(-12.0, 12.0, 512)
        path = exp_decay_path(0.3, 0.4, 1.0)
        recs = run(gaussian_density(g, path.ell(0.0), 1.0), path, 1e-3, pot, ModelParams(nu=0.8), 0.02)
        assert len(recs["t"]) == 21
        assert calls == {"h": 1, "h1": 1}

    def test_step_count_guard(self, grid, quad_pot, monkeypatch):
        # a dt that schedules more than MAX_STEPS steps is refused before
        # the first step
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(fpsolver, "_advance", no_step)
        rho0 = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation, match="exceeds the limit"):
            run(rho0, constant_path(0.0), 1e-300, quad_pot, ModelParams(), 1.0)

    def test_infinite_step_mass_is_a_step_error(self, grid, quad_pot, monkeypatch):
        # an inf from the step's last solve passes the implicit gate's
        # min >= 0; the step's mass check names it and the step, before the
        # renormalization makes NaN of it
        solve = fpsolver.solve_banded
        calls = []

        def one_inf(*args):
            x, info = solve(*args)
            calls.append(None)
            if len(calls) == 2:  # the BDF2 stage of the first step
                x[len(x) // 2] = np.inf
            return x, info

        monkeypatch.setattr(fpsolver, "solve_banded", one_inf)
        rho0 = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(StepError, match="step mass") as exc:
            run(rho0, constant_path(0.0), 1e-3, quad_pot, ModelParams(), 0.01)
        assert exc.value.diagnostics == {"mass": np.inf, "step": 1}

    def test_constraint_tracking_first_order(self, quad_pot):
        # time order of the constraint drift at fixed dx: successive
        # differences of M1(t) between dt, dt/2 and dt/4 cancel the O(dx^2)
        # floor and fall 4x for the second-order stepper
        path = exp_decay_path(0.5, 0.3, 1.0)
        g = Grid(-11.2, 12.8, 1024)
        rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
        m1 = {}
        for k, dt in enumerate((2e-3, 1e-3, 5e-4)):
            recs = run(rho0, path, dt, quad_pot, ModelParams(), 2.0,
                       record_every=2**k)
            m1[dt] = recs["M1"]
        gaps = {
            2e-3: float(np.max(np.abs(m1[2e-3] - m1[1e-3]))),
            1e-3: float(np.max(np.abs(m1[1e-3] - m1[5e-4]))),
        }
        assert gaps[1e-3] == pytest.approx(0.25 * gaps[2e-3], rel=0.2)

    def test_sigma_m2_bounded_on_long_doublewell_run(self, grid, dw_pot):
        path = exp_decay_path(0.4, 0.4, 0.5)
        nu = 0.8
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        recs = run(rho0, path, 5e-3, dw_pot, ModelParams(nu=nu),
                   50.0, record_every=20)
        assert float(np.max(np.abs(recs["sigma"]))) < 5.0
        assert float(np.max(recs["M2"])) < 50.0

    def test_monotone_free_energy_constant_ell(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 0.2, 0.5)
        recs = run(rho0, constant_path(0.2), 1e-3, dw_pot,
                   ModelParams(nu=0.8), 1.0, record_every=5)
        assert float(np.max(np.diff(recs["F"]))) <= 1e-9


def accepted_steps(log):
    """(t, h, limited) of the accepted steps among logged `_advance` calls:
    an attempt is retried from the same t, so the last call from each t is
    the one taken."""
    return [call for call, after in zip(log, log[1:] + [None]) if after is None or after[0] != call[0]]


class TestAdaptiveSteps:
    @staticmethod
    def logged(monkeypatch):
        """Log (t, h, limited) of every `_advance` call, rejected ones too."""
        log = []
        advance = fpsolver._advance

        def wrapper(*args):
            out = advance(*args)
            log.append((args[1], args[2], out[3]))
            return out

        monkeypatch.setattr(fpsolver, "_advance", wrapper)
        return log

    @settings(max_examples=25, deadline=None)
    @given(
        n_steps=hst.integers(1, 12),
        dt=hst.floats(1e-4, 2e-2),
        nu=hst.floats(0.5, 1.2),
        seed=hst.integers(0, 2**32 - 1),
        moving=hst.booleans(),
    )
    def test_record_every_one_is_the_fixed_dt_loop(self, dw_pot, n_steps, dt, nu, seed, moving):
        # with a record every slot each step is the plain dt step from k dt,
        # bit for bit: no estimate, no retry, and the last record at T = n dt
        g = Grid(-8.0, 8.0, 128)
        path = exp_decay_path(0.2, 0.3, 1.0) if moving else constant_path(0.2)
        params = ModelParams(nu=nu)
        rho0 = set_mean(random_density(g, np.random.default_rng(seed)), path.ell(0.0))
        T = n_steps * dt
        recs = run(rho0, path, dt, dw_pot, params, T, keep_densities=True)
        assert recs["t"].tolist() == [k * dt for k in range(n_steps + 1)]
        assert recs["steps"].tolist() == [0] + [1] * n_steps
        op = _Stepper(g, dw_pot, path, params)
        vals = recs["density"][0]
        for k in range(n_steps):
            vals = _advance(vals, k * dt, dt, op)[0]
            np.testing.assert_array_equal(recs["density"][k + 1], vals)

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_ends_at_T_when_dt_does_not_divide_it(self, quad_pot, record_every):
        # 33 slots of dt = 0.03 cover T = 1, the last one running on to T
        # (0.04 long), and the run ends at T, where the variance oracle is
        # met (it ended at 1.02, 6.8e-3 away, before)
        g = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
        rho0 = gaussian_density(g, 0.5, 1.5**2)
        recs = run(rho0, constant_path(0.5), 0.03, quad_pot, ModelParams(), 1.0, record_every=record_every)
        assert recs["t"][-1] == 1.0
        assert recs["t"][-2] == pytest.approx(0.03 * (32 - 32 % record_every))
        oracle = 1.0 + (1.5**2 - 1.0) * np.exp(-2.0)
        assert recs["M2"][-1] - recs["M1"][-1] ** 2 == pytest.approx(oracle, abs=1e-3)

    def test_steps_are_at_least_dt_and_land_on_records(self, quad_pot, monkeypatch):
        # a Gaussian near the Gibbs state, with a dt that does not divide T:
        # each step taken spans whole slots of dt except the last, which
        # runs on to T, none is shorter than dt, steps grow past dt, and no
        # more steps are taken than step_count(T, dt)
        g = Grid(-12.0, 12.0, 256)
        dt, T = 1e-3, 0.3005
        log = self.logged(monkeypatch)
        recs = run(gaussian_density(g, 0.3, 1.02), constant_path(0.3), dt, quad_pot, ModelParams(), T,
                   record_every=7)
        taken = accepted_steps(log)
        assert taken[0][0] == 0.0 and recs["t"][-1] == T
        for (t, h, _), after in zip(taken, taken[1:]):
            assert after[0] == pytest.approx(t + h, rel=1e-14)
        for t, h, _ in taken[:-1]:
            assert h == round(h / dt) * dt >= dt
        t, h, _ = taken[-1]
        assert h > dt and t + h == pytest.approx(T, rel=1e-14)
        assert max(h for _, h, _ in taken[:-1]) > dt
        assert recs["steps"].sum() == len(taken) <= step_count(T, dt)

    def test_gibbs_state_steps_grow_to_the_record_spacing(self, grid, dw_pot):
        # a grid Gibbs state is a fixed point of every step, whatever its
        # length: its estimate is roundoff, the steps double up to the record
        # spacing, and the state stays put
        nu = 0.5
        sol = solve_lambda(0.3, nu, dw_pot, grid)
        recs = run(sol.state.density, constant_path(0.3), 1e-3, dw_pot, ModelParams(nu=nu), 0.5,
                   record_every=50)
        assert len(recs["t"]) == 11
        assert np.max(recs["l1_star"]) <= 1e-12
        assert np.max(np.abs(recs["M1"] - 0.3)) <= 1e-10
        assert np.all(recs["limited_mass"] == 0.0)
        assert recs["steps"][1] < 50 and recs["steps"][-5:].tolist() == [1] * 5

    def test_bimodal_side_data_is_never_limited(self, grid, dw_pot):
        # a Kramers-sweep member at nu = 1.2 (record_every = 2): a first step
        # of two slots would limit 7e-5 of negative mass, so the run starts
        # at dt, and grows to two slots only where nothing is limited
        nu = 1.2
        rho0 = bimodal_side_data(0.0, nu, dw_pot, grid, population=0.52)
        op = _Stepper(grid, dw_pot, constant_path(0.0), ModelParams(nu=nu))
        assert _advance(rho0.values, 0.0, 4e-3, op)[3] > 0.0
        recs = run(rho0, constant_path(0.0), 2e-3, dw_pot, ModelParams(nu=nu), 2.0, record_every=2)
        assert sum(recs["limited_mass"].tolist()) == 0.0
        assert recs["steps"].sum() < 1000

    @staticmethod
    def relaxing_run(dw_pot, record_every):
        """A Kramers-sweep member at nu = 1.2 on a coarse grid, to T = 6."""
        g = Grid(-12.0, 12.0, 256)
        rho0 = bimodal_side_data(0.0, 1.2, dw_pot, g, population=0.52)
        return run(rho0, constant_path(0.0), 2e-3, dw_pot, ModelParams(nu=1.2), 6.0,
                   record_every=record_every)

    @pytest.mark.parametrize("record_every", [6, 12])
    def test_relaxing_run_takes_one_step_per_record(self, dw_pot, record_every, monkeypatch):
        # err/tol is far below 1 near equilibrium, so after t = 4 each record
        # interval is one step.  A step the record cut short (4 of 12 slots
        # after a step of 8) must not cap the next one, or each record takes
        # two steps (8 + 4, 4 + 2).  No retry is taken.
        log = self.logged(monkeypatch)
        recs = self.relaxing_run(dw_pot, record_every)
        assert np.all(recs["steps"][recs["t"] > 4.0] == 1)
        assert len(log) == recs["steps"].sum()
        assert np.all(recs["limited_mass"] == 0.0)

    @pytest.mark.parametrize("record_every", [6, 12])
    def test_filter_skip_is_exact(self, dw_pot, record_every, monkeypatch):
        # an unfiltered err at most `level` already sets the next step to
        # its cap, so filtering every estimate changes no step and no record
        skipped = self.relaxing_run(dw_pot, record_every)
        advance = fpsolver._advance

        def always_filtered(values, t, dt, op, filter_above=None):
            return advance(values, t, dt, op, None if filter_above is None else 0.0)

        monkeypatch.setattr(fpsolver, "_advance", always_filtered)
        filtered = self.relaxing_run(dw_pot, record_every)
        assert skipped.keys() == filtered.keys()
        for c in skipped:
            np.testing.assert_array_equal(skipped[c], filtered[c], err_msg=c)

    def test_mass_drift_is_the_largest_step_drift(self, grid, dw_pot, monkeypatch):
        # mass_drift is the largest |mass - 1| of the steps since the
        # previous record, limited_mass their sum of limited negative mass
        advance = fpsolver._advance
        log = []

        def wrapper(*args):
            out = advance(*args)
            log.append((args[1], *out[2:4]))
            return out

        monkeypatch.setattr(fpsolver, "_advance", wrapper)
        rho0 = bimodal_side_data(0.0, 1.2, dw_pot, grid, population=0.52)
        recs = run(rho0, constant_path(0.0), 2e-3, dw_pot, ModelParams(nu=1.2), 0.5, record_every=5)
        assert recs["mass_drift"][0] == 0.0 and recs["limited_mass"][0] == 0.0
        steps = iter(accepted_steps(log))
        for n, drift, limited in zip(*(recs[c][1:].tolist() for c in ("steps", "mass_drift", "limited_mass"))):
            taken = [next(steps) for _ in range(n)]
            assert drift == max(d for _, d, _ in taken)
            assert limited == sum(c for _, _, c in taken)
        assert np.max(recs["mass_drift"]) > 0.0

    def test_limited_steps_are_retried(self, grid, dw_pot, monkeypatch):
        # with the error test off, a one-cell spike on the stiff side of the
        # double well: the dt steps limit (and are taken, as at fixed dt), a
        # longer step that would limit is retried, and none that is taken does
        monkeypatch.setattr(fpsolver, "ERR_TOL", math.inf)
        log = self.logged(monkeypatch)
        dt = 2e-3
        spike = np.zeros(grid.n)
        spike[600] = 1.0 / grid.dx
        rho0 = Density(grid, spike)
        recs = run(rho0, constant_path(float(grid.x[600])), dt, dw_pot, ModelParams(nu=0.7), 20 * dt,
                   record_every=8)
        taken = accepted_steps(log)
        assert any(lim > 0.0 and h > dt for _, h, lim in log)
        assert all(lim == 0.0 for _, h, lim in taken if h > dt)
        assert sum(recs["limited_mass"].tolist()) == pytest.approx(sum(lim for _, _, lim in taken))


ASYMMETRIC = polynomial_potential([0.1, 0.09, -0.15, 0.0, 0.25])


def moving_path(ell, ell_dot, ell_star):
    """A path at mean `ell` with rate `ell_dot` (L0 != 0, so it is moving)."""
    return ConstraintPath(ell=lambda t: ell, ell_dot=lambda t: ell_dot, ell_star=ell_star, L0=1.0)


class TestRecordKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        potential=hst.sampled_from(["quadratic", "doublewell", "polynomial"]),
        nu=hst.floats(0.3, 1.5),
        seed=hst.integers(0, 2**32 - 1),
        sigma_q=hst.floats(-1.5, 1.5),
        sigma_star=hst.floats(-1.5, 1.5),
        tau=hst.floats(0.25, 4.0),
        ell_dot=hst.floats(-2.0, 2.0),
    )
    def test_matches_public_functionals(
        self, grid, quad_pot, dw_pot, potential, nu, seed, sigma_q, sigma_star, tau, ell_dot
    ):
        # a run's first record is the record kernel on rho0 (the step is
        # held, so later records read rho0 too).  The linear moments come
        # from one matrix product, summed in another order than the public
        # functions' sums, so each agrees to 1e-13 of the magnitude of the
        # terms it sums; S, D and the relative entropies share the public
        # integrands and sums, and each relative entropy is also checked
        # against the long-double oracle
        pot = {"quadratic": quad_pot, "doublewell": dw_pot, "polynomial": ASYMMETRIC}[potential]
        params = ModelParams(tau=tau, nu=nu)
        ell = gibbs(sigma_q, nu, pot, grid).mean
        path = moving_path(ell, ell_dot, gibbs(sigma_star, nu, pot, grid).mean)
        sol_q, sol_star = solve_lambda(ell, nu, pot, grid), solve_lambda(path.ell_star, nu, pot, grid)
        # rho vanishes where either reference does, as a solution would, and
        # has mean ell, so the run does not project it; it stays positive
        # where a reference lies below 1e-300 (a product of the two would
        # underflow there)
        raw = random_density(grid, np.random.default_rng(seed)).values
        both = (sol_q.state.values > 0.0) & (sol_star.state.values > 0.0)
        rho = set_mean(density_from_values(grid, np.where(both, raw, 0.0)), ell)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpsolver, "_advance", lambda vals, t, dt, op, level: (vals, 0.0, 0.0, 0.0, 0.0))
            traj = run(rho, path, 1e-3, pot, params, 1e-3)
        rec = {c: traj[c][0] for c in FPSOLVER_COLUMNS}

        x, h, h1 = grid.x, pot.h(grid.x), pot.h1(grid.x)
        m1, m2, _ = moments(rho)
        fe = free_energy(rho, pot, params)

        def close(value, expected, scale):
            assert abs(value - expected) <= 1e-13 * scale

        def absolute(f):
            return float(np.sum(np.abs(f) * rho.values)) * grid.dx

        close(rec["M1"], m1, absolute(x))
        close(rec["M2"], m2, m2)
        close(rec["E"], fe.E, absolute(h))
        close(rec["sigma"], sigma_of_state(rho, 0.0, pot, path, params), absolute(h1) + tau * abs(ell_dot))
        close(rec["F"], fe.F, nu**2 * (abs(fe.S) + abs(log_partition(pot, grid, nu))) + absolute(h))
        assert rec["S"] == pytest.approx(entropy(rho), rel=1e-13, abs=1e-15)
        for value, sol in ((rec["Hrel_quasistatic"], sol_q), (rec["Hrel_star"], sol_star)):
            assert value == pytest.approx(relative_entropy(rho, sol.state), rel=1e-13, abs=1e-15)
            oracle = gibbs_relative_entropy(rho.values, x, h, sol.lam, nu, grid.dx)
            assert value == pytest.approx(oracle, rel=1e-13, abs=1e-15)
        assert rec["D"] == pytest.approx(dissipation(rho, rec["sigma"], pot, params), rel=1e-13)
        assert traj["density"].shape == (0, grid.n)

    @pytest.mark.parametrize("moving", [False, True])
    def test_finite_where_gamma_underflows(self, grid, quad_pot, moving):
        # at nu = 0.3 the Gibbs states underflow to 0 near the ends, where a
        # random density is still positive: `relative_entropy` and the record
        # read log gamma from the Gibbs exponent, finite on every cell, so
        # both match the long-double oracle and the run goes to the end
        nu = 0.3
        rho = random_density(grid, np.random.default_rng(3), mean=0.2)
        path = moving_path(0.2, 0.1, 0.2) if moving else constant_path(0.2)
        star = solve_lambda(0.2, nu, quad_pot, grid)
        x, h = grid.x, quad_pot.h(grid.x)
        assert star.state.values.min() == 0.0
        oracle = gibbs_relative_entropy(rho.values, x, h, star.lam, nu, grid.dx)
        assert relative_entropy(rho, star.state) == pytest.approx(oracle, rel=1e-13)
        recs = run(rho, path, 1e-3, quad_pot, ModelParams(nu=nu), 2e-3, keep_densities=True)
        assert len(recs["t"]) == 3
        for i, vals in enumerate(recs["density"]):
            for value, lam in ((recs["Hrel_quasistatic"][i], recs["lam_ell"][i]), (recs["Hrel_star"][i], star.lam)):
                oracle = gibbs_relative_entropy(vals, x, h, lam, nu, grid.dx)
                assert value == pytest.approx(oracle, rel=1e-13)

    def test_block_lambdas_start_from_tangent_predictor(self, grid, dw_pot, monkeypatch):
        # verify_forced's run for 300 steps with a record every step: a
        # block's lambdas are one batch, each lane starting from the tangent
        # predictor of the last converged lane (lambda(ell(0)), solved cold,
        # for the first block), and a record takes about two Gibbs
        # evaluations, counted per lane, in about two batch evaluations per
        # block.  The cold solves of lambda(ell*) and lambda(ell(0)) are in
        # the count; the first is taken out, as with one solve per record.
        # On one CPU, so that the batches run in this process, where they
        # are counted.
        cpus(monkeypatch, 1)
        nu = 0.8
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        star = solve_lambda(path.ell_star, nu, dw_pot, grid)
        lanes = []
        evaluate = TiltedFamily.evaluate

        def counted(family, sigma, nu, strict=True, out=None):
            lanes.append(len(sigma))
            return evaluate(family, sigma, nu, strict, out)

        monkeypatch.setattr(TiltedFamily, "evaluate", counted)
        recs = run(rho0, path, 1e-3, dw_pot, ModelParams(nu=nu), 0.3)
        monkeypatch.undo()
        n_records = len(recs["t"])
        assert n_records == 301
        assert (sum(lanes) - star.iterations) / n_records <= 2.1
        blocks = math.ceil(n_records / records.RECORD_BLOCK)
        assert blocks <= sum(size > 1 for size in lanes) <= 3 * blocks
        for lam, ell in zip(recs["lam_ell"].tolist(), recs["ell"].tolist()):
            assert lam == pytest.approx(solve_lambda(ell, nu, dw_pot, grid).lam, abs=1e-9)

    def test_records_do_not_depend_on_block_size(self, grid, dw_pot, monkeypatch):
        # Both schemes go through the one record loop.  FV: 101 records,
        # three full blocks of 32 and a last one of 5; JKO: 100 steps, the
        # last block of 4; each against a block of one.  The kernel is
        # called once per block, so the one patch of records.RECORD_BLOCK
        # reaches both runs.  Every sum runs along a row, so the diagnostics
        # of rho agree to 1e-12 relative (bit for bit here).  lambda(ell(t))
        # lanes start from other predictions and stop within LAMBDA_TOL, so
        # lam_ell agrees to 1e-9 and Hrel_quasistatic, which starts at 0 on
        # the FV run, to 1e-13 absolute.  On one CPU, so that the kernel
        # runs in this process, where it is counted.
        cpus(monkeypatch, 1)
        nu = 0.8
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        params = ModelParams(nu=nu)
        schemes = {
            "fv": (lambda: run(rho0, path, 1e-3, dw_pot, params, 0.2, record_every=2), 101),
            "jko": (lambda: jko_run(rho0, path, 0.01, 1.0, dw_pot, params), 100),
        }
        kernel = records._record_block
        blocks = []

        def counted(rows, *args):
            blocks.append(len(rows))
            return kernel(rows, *args)

        monkeypatch.setattr(records, "_record_block", counted)
        tolerance = {"lam_ell": {"abs": 1e-9}, "Hrel_quasistatic": {"rel": 1e-12, "abs": 1e-13}}
        for scheme, (runner, rows) in schemes.items():
            runs = {}
            for size in (1, 32):
                monkeypatch.setattr(records, "RECORD_BLOCK", size)
                blocks.clear()
                runs[size] = runner()
                assert len(blocks) == math.ceil(rows / size) and sum(blocks) == rows, (scheme, size)
            assert len(runs[1]["t"]) == rows
            assert runs[1].keys() == runs[32].keys()
            for name in runs[1]:
                for a, b in zip(runs[1][name].tolist(), runs[32][name].tolist()):
                    if name == "eb_residual" and math.isnan(a):
                        assert math.isnan(b)
                        continue
                    assert b == pytest.approx(a, **tolerance.get(name, {"rel": 1e-12, "abs": 0.0})), name

    @settings(max_examples=40, deadline=None)
    @given(
        slots=hst.integers(1, 60),
        frac=hst.sampled_from([0.0, 0.3, 0.99]),
        record_every=hst.integers(1, 9),
        stride=hst.integers(1, 7),
    )
    def test_record_count_and_density_stride(self, quad_pot, slots, frac, record_every, stride):
        # record_times is the schedule of a run (`verify` picks its
        # density stride from it), and keep_densities = s keeps the
        # densities of records 0, s, 2s, ...; the step is held, so this
        # tests the record times only.  The times are checked against the
        # slots k dt, k = 0, record_every, ..., and T, computed here
        # without record_times
        g = Grid(-8.0, 8.0, 64)
        dt = 0.01
        T = (slots + frac) * dt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpsolver, "_advance", lambda vals, t, dt, op, level: (vals, 0.0, 0.0, 0.0, 0.0))
            recs = run(gaussian_density(g, 0.0, 1.0), constant_path(0.0), dt, quad_pot, ModelParams(), T,
                       record_every=record_every, keep_densities=stride)
        n_records = len(recs["t"])
        assert n_records == len(record_times(T, dt, record_every)[0])
        assert len(recs["density"]) == len(range(0, n_records, stride))
        # T has `slots` whole slots; a fraction runs on in the last one
        expected = [k * dt for k in range(0, slots, record_every)] + [T]
        assert recs["t"].tolist() == expected
        assert recs["steps"][0] == 0 and (recs["steps"][1:] >= 1).all()

    def test_ell_dot_column_is_the_path_rate_at_record_times(self, grid, dw_pot):
        # one l'(t) per record time feeds sigma, the energy audit and the decay bound
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = solve_lambda(path.ell(0.0), 0.8, dw_pot, grid).state.density
        recs = run(rho0, path, 1e-3, dw_pot, ModelParams(nu=0.8), 0.0255, record_every=4)
        t = recs["t"].tolist()
        assert t[-1] == 0.0255 and len(t) == 8
        assert recs["ell_dot"].tolist() == [path.ell_dot(t_i) for t_i in t]
        assert recs["ell"].tolist() == [path.ell(t_i) for t_i in t]

    def test_negative_density_stride_is_refused(self, grid, quad_pot):
        with pytest.raises(ContractViolation, match="keep_densities >= 0"):
            run(gaussian_density(grid, 0.0, 1.0), constant_path(0.0), 1e-3, quad_pot, ModelParams(), 0.01,
                keep_densities=-1)

    def test_step_error_names_the_step_inside_a_block(self, grid, quad_pot, monkeypatch):
        # records are buffered, so a step's number is a running count, not a
        # sum over the records made so far: step 40 of a record_every = 1
        # run fails with records 32 to 39 still in the block
        advance = fpsolver._advance
        calls = []

        def fail_at_40(*args):
            calls.append(None)
            if len(calls) == 40:
                raise StepError("injected step failure")
            return advance(*args)

        monkeypatch.setattr(fpsolver, "_advance", fail_at_40)
        with pytest.raises(StepError, match="injected") as exc:
            run(gaussian_density(grid, 0.0, 1.0), constant_path(0.0), 1e-3, quad_pot, ModelParams(), 0.1)
        assert exc.value.diagnostics == {"step": 40}


class _Interrupt(BaseException):
    pass


@contextmanager
def deadline(hang):
    """Fails with `hang` where the block takes over 60 s, instead of hanging."""
    def hung(signum, frame):
        raise AssertionError(hang)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRecordProcess:
    # A run of more than one record block that may use more than one CPU
    # records in a forked process beside the stepping, and in this one
    # otherwise.  Every run here is longer than one block (RECORD_BLOCK = 16
    # rows), and on this grid a block's 16 states (128 KiB) fill the pipe.
    PATH = exp_decay_path(0.3, 0.4, 1.0)
    PARAMS = ModelParams(nu=0.8)

    def run(self, scheme, grid, pot):
        rho0 = solve_lambda(self.PATH.ell(0.0), self.PARAMS.nu, pot, grid).state.density
        if scheme == "fv_moving":  # 51 records
            return run(rho0, self.PATH, 1e-3, pot, self.PARAMS, 0.05, keep_densities=3)
        if scheme == "fv_constant":  # 41 records, no lambda batch
            return run(gaussian_density(grid, 0.3, 1.0), constant_path(0.3), 1e-3, pot, self.PARAMS, 0.04)
        return jko_run(rho0, self.PATH, 0.01, 0.3, pot, self.PARAMS, keep_quantiles=4)  # 30 rows

    @pytest.mark.parametrize("scheme", ["fv_moving", "fv_constant", "jko"])
    def test_same_bits_on_any_cpu_count(self, monkeypatch, grid, dw_pot, scheme):
        kernel, blocks = records._record_block, []

        def counted(rows, *args):
            blocks.append(len(rows))
            return kernel(rows, *args)

        monkeypatch.setattr(records, "_record_block", counted)
        runs, counted_here = {}, {}
        # one CPU last: `cpus` with None leaves an earlier patch in place
        for count in (None, 3, 1):
            cpus(monkeypatch, count)
            blocks.clear()
            with deadline("a run waits on its record process"):
                runs[count] = self.run(scheme, grid, dw_pot)
            counted_here[count] = list(blocks)
            assert multiprocessing.active_children() == []
        one = runs[1]
        # on one CPU every block is recorded here, on three none is
        assert sum(counted_here[1]) == len(one["t"]) > records.RECORD_BLOCK
        assert counted_here[3] == []
        for count in (None, 3):
            assert list(runs[count]) == list(one)
            for name, col in runs[count].items():
                assert col.dtype == one[name].dtype, (count, name)
                assert np.array_equal(col, one[name], equal_nan=True), (count, name)

    @pytest.mark.parametrize(
        "step_at, batch_at, block_at, message",
        [
            (20, None, None, "injected step failure"),
            (20, 5, None, "injected lambda failure"),
            (None, None, 3, "injected record failure"),
            (None, 5, 3, "injected lambda failure"),
        ],
        ids=["step", "lambda after a step", "record", "lambda after a record"],
    )
    def test_failure_as_on_one_cpu(self, monkeypatch, grid, dw_pot, step_at, batch_at, block_at, message):
        # a run of 101 records fails at step 20 (in the second block), in the
        # lambda batch of records 64 to 79 or in the record of the third
        # block; a lambda failure wins wherever it comes, as in a run that
        # solves every batch before its first step.  Each run counts afresh.
        advance, solve, kernel = fpsolver._advance, records.solve_lambdas, records._record_block
        rho0 = solve_lambda(self.PATH.ell(0.0), self.PARAMS.nu, dw_pot, grid).state.density

        def inject():
            calls = {}

            def failing(target, at, error, message):
                def call(*args):
                    calls[message] = calls.get(message, 0) + 1
                    if calls[message] == at:
                        raise error(message, diagnostics={"call": at})
                    return target(*args)
                return call

            monkeypatch.setattr(fpsolver, "_advance", failing(advance, step_at, StepError, "injected step failure"))
            monkeypatch.setattr(records, "solve_lambdas", failing(solve, batch_at, SolverError,
                                                                  "injected lambda failure"))
            monkeypatch.setattr(records, "_record_block", failing(kernel, block_at, SolverError,
                                                                  "injected record failure"))

        raised = []
        for count in (None, 3, 1):  # one CPU last, as above
            cpus(monkeypatch, count)
            inject()
            with deadline("a failed run waits on its record process"), pytest.raises(CfpkError) as info:
                run(rho0, self.PATH, 1e-3, dw_pot, self.PARAMS, 0.1)
            assert multiprocessing.active_children() == []
            raised.append(info.value)
        one = raised[-1]
        assert str(one) == message
        for other in raised[:-1]:
            assert type(other) is type(one)
            assert str(other) == str(one)
            assert other.diagnostics == one.diagnostics

    def test_dead_record_process(self, monkeypatch, grid, dw_pot):
        parent = os.getpid()
        kernel = records._record_block

        def die(rows, *args):
            if os.getpid() != parent:
                os._exit(3)
            return kernel(rows, *args)

        monkeypatch.setattr(records, "_record_block", die)
        cpus(monkeypatch, 2)
        with deadline("the run waits on a dead record process"), pytest.raises(CfpkError) as info:
            self.run("fv_moving", grid, dw_pot)
        assert type(info.value) is CfpkError
        assert str(info.value) == "the record process exited with code 3 before sending its result"
        assert info.value.diagnostics == {"exitcode": 3}
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_the_record_process(self, monkeypatch, grid, dw_pot):
        # the stepping is interrupted at step 20 while the record process
        # sleeps on the first block: it is stopped and joined, not waited for
        parent = os.getpid()
        advance, kernel = fpsolver._advance, records._record_block
        calls = []

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 20:
                raise _Interrupt
            return advance(*args)

        def sleepy(rows, *args):
            if os.getpid() != parent:
                time.sleep(60.0)
            return kernel(rows, *args)

        monkeypatch.setattr(fpsolver, "_advance", interrupted)
        monkeypatch.setattr(records, "_record_block", sleepy)
        cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(_Interrupt):
            self.run("fv_moving", grid, dw_pot)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < 30.0


class TestAuditScalingAtTau:
    @staticmethod
    def forced_run(pot, tau):
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 1.0)
        rho0 = solve_lambda(path.ell(0.0), 1.0, pot, g).state.density
        recs = run(rho0, path, 1e-3, pot, ModelParams(tau=tau, nu=1.0), 2.0, record_every=5)
        return path, recs

    def test_energy_rate_carries_one_over_tau(self, quad_pot):
        # at tau != 1 the rate that balances is dF/dt = -D/tau + sigma l',
        # the form the eb_residual column implements; the form with tau on
        # the pump, |dF/dt + D - tau sigma l'|, is off by far more
        tau = 2.0
        path, recs = self.forced_run(quad_pot, tau)
        t, f, d = recs["t"], recs["F"], recs["D"]
        sigma_ell_dot = recs["sigma"] * np.array([path.ell_dot(t_i) for t_i in t.tolist()])
        rate = np.diff(f) / np.diff(t)
        d_mid = 0.5 * (d[1:] + d[:-1])
        pump = 0.5 * (sigma_ell_dot[1:] + sigma_ell_dot[:-1])
        worst_scaled = float(np.max(np.abs(rate + d_mid / tau - pump)))
        worst_printed = float(np.max(np.abs(rate + d_mid - tau * pump)))
        assert worst_scaled <= 1e-3
        assert worst_printed > 50.0 * worst_scaled

    def test_eb_residual_column_balances_at_tau(self, quad_pot):
        _, recs = self.forced_run(quad_pot, 2.0)
        assert float(np.nanmax(recs["eb_residual"])) <= 1e-3


_DENSE_GAP_CASES = [
    ("doublewell-ell0", doublewell_potential(), 0.0, 0.8, (128, 256)),
    ("doublewell-ell0.5", doublewell_potential(), 0.5, 0.8, (128, 256)),
    ("quadratic", quadratic_potential(1.0), 0.3, 0.7, (128, 256)),
    # mu_1 = d_2: the third eigenvalue of P is a mode that z does not see
    ("doublewell-ell0-nu1.2", doublewell_potential(), 0.0, 1.2, (256,)),
    # the Kramers case: d_1, the well-hopping mode of P, is tiny
    ("doublewell-ell0-nu0.5", doublewell_potential(), 0.0, 0.5, (256,)),
]


class TestGapRate:
    @pytest.mark.parametrize(
        "n,pot,ell,nu",
        [
            pytest.param(n, pot, ell, nu, id=f"{name}-{n}")
            for name, pot, ell, nu, sizes in _DENSE_GAP_CASES
            for n in sizes
        ],
    )
    def test_matches_dense_eigenvalues(self, n, pot, ell, nu):
        g = Grid(-12.0, 12.0, n)
        assert gap_rate(ell, nu, pot, g) == pytest.approx(
            constrained_gap_dense(ell, nu, pot, g), rel=1e-8
        )

    @pytest.mark.parametrize("k", [1.0, 2.5])
    def test_quadratic_mu1_is_2k(self, grid, k):
        # the constraint removes the mean mode at k; the next OU mode is 2k
        mu1 = 0.5 * gap_rate(0.3, 0.7, quadratic_potential(k), grid)
        assert mu1 == pytest.approx(2.0 * k, rel=1e-3)

    def test_rate_scales_with_one_over_tau(self, dw_pot):
        g = Grid(-12.0, 12.0, 256)
        assert gap_rate(0.0, 0.8, dw_pot, g, tau=2.0) == pytest.approx(
            0.5 * gap_rate(0.0, 0.8, dw_pot, g, tau=1.0), rel=1e-12
        )

    def test_refuses_mu1_below_precision_floor(self, dw_pot):
        # at nu = 0.17 mu_1 is within a factor of 1000 eps max diag(P) of zero:
        # its value changes with the grid, and a horizon from it is noise
        with pytest.raises(SolverError) as info:
            gap_rate(0.0, 0.17, dw_pot, Grid(-12.0, 12.0, 1024))
        diag = info.value.diagnostics
        assert diag["mu1"] <= diag["floor"]
        assert (diag["nu"], diag["n"]) == (0.17, 1024)

    def test_accepts_nu_0_2_on_the_fitted_law(self, dw_pot):
        # mu_1 is about 4400 eps max diag(P) here, and the rate follows
        # log rate = 1.28 - 1.002/nu^2 - 2.22 log nu, fitted over [0.2, 0.5]
        rate = gap_rate(0.0, 0.2, dw_pot, Grid(-12.0, 12.0, 1024))
        assert math.log(rate) == pytest.approx(1.28 - 1.002 / 0.04 - 2.22 * math.log(0.2), abs=0.02)

    def test_tiny_tau_scales_exactly(self, dw_pot):
        # the rate nu^2/(tau dx^2) is factored out of the bisection: at
        # tau = 1e-300 P's entries would near float range and the
        # eigenvalue solver failed; now only the result scales
        g = Grid(-12.0, 12.0, 256)
        tau = 1e-300
        assert gap_rate(0.0, 0.8, dw_pot, g, tau=tau) == pytest.approx(
            gap_rate(0.0, 0.8, dw_pot, g) / tau, rel=1e-15
        )


class TestProjectMean:
    def test_translation(self, grid):
        rho = gaussian_density(grid, 0.9, 1.1)
        out = project_mean(rho, 0.15)
        assert moments(out)[0] == pytest.approx(0.15, abs=1e-10)
        assert moments(out)[2] == pytest.approx(1.1, abs=1e-2)

    def test_keeps_the_tails(self, quad_pot):
        # the translated Gaussian keeps its tails: cut off below quantile
        # level 1/(4n), as a round trip through 2n midpoint quantiles does,
        # it is nonzero on 221 of 1,024 cells and its dissipation is 7,220
        g = Grid(-12.0, 12.0, 1024)
        out = project_mean(gaussian_density(g, 1.0, 0.5), 0.2)
        assert abs(moments(out)[0] - 0.2) <= 1e-14
        assert np.abs(out.values - gaussian_density(g, 0.2, 0.5).values).sum() * g.dx < 1e-4
        assert dissipation(out, 0.2, quad_pot, ModelParams()) == pytest.approx(0.5, rel=1e-3)

    def test_whole_cell_shift_moves_the_values(self, grid):
        rho = gaussian_density(grid, 0.9, 1.1)
        out = project_mean(rho, moments(rho)[0] - 10 * grid.dx)
        np.testing.assert_allclose(out.values[:-10], rho.values[10:], rtol=0.0, atol=1e-13)


class TestCrossValidation:
    def test_jko_and_fv_agree(self, dw_pot):
        # same data, constant ell: the two solvers converge to each other
        from cfpk.transport import jko_run, quantile_to_density

        g = Grid(-12.0, 12.0, 1024)
        nu = 0.8
        params = ModelParams(nu=nu)
        path = constant_path(0.4)
        rho0 = gaussian_density(g, 0.4, 0.5)
        fv = run(rho0, path, 2.5e-4, dw_pot, params, 1.0,
                 record_every=40, keep_densities=True)
        gaps = {}
        for h in (0.04, 0.02):
            jk = jko_run(rho0, path, h, 1.0, dw_pot, params, keep_quantiles=1)
            worst = 0.0
            for t, quantile in zip(jk["t"].tolist(), jk["quantile"], strict=True):
                k = round(t / 0.01)
                if 0 <= k < len(fv["density"]):
                    jko_rho = quantile_to_density(quantile, g)
                    worst = max(worst, w2(jko_rho, Density(g, fv["density"][k]), 1024))
            gaps[h] = worst
        assert gaps[0.02] < gaps[0.04]
        assert gaps[0.02] < 0.05
