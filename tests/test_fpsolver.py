import dataclasses

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
)
from cfpk import fpsolver
from cfpk.equilibrium import TiltedFamily, gibbs, solve_lambda
from cfpk.errors import ContractViolation, StepError, SupportMismatchError
from cfpk.fpsolver import (
    _advance,
    _Stepper,
    gap_rate,
    project_mean,
    run,
    sigma_of_state,
)
from cfpk.functionals import dissipation, free_energy, log_partition, relative_entropy
from cfpk.records import FPSOLVER_COLUMNS
from cfpk.sampling import random_density, set_mean
from cfpk.transport import w2

from oracles import constrained_gap_dense, gibbs_relative_entropy


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
        op = _Stepper(grid, 1e-2, dw_pot, constant_path(0.3), ModelParams(nu=nu))
        new, sigma, _, _ = _advance(sol.state.density.values, 0.0, op)
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
        op = _Stepper(g, 1e-2, pot, constant_path(state.mean), ModelParams(nu=nu))
        new, sigma, drift, limited = _advance(state.density.values, 0.0, op)
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
            op = _Stepper(grid, 0.01, dw_pot, path, params)
            vals, _, drift, _ = _advance(rho.values, 0.0, op)
            assert np.all(vals >= 0.0)
            assert drift <= 1e-12
        # a one-cell spike drives both explicit updates far negative: the
        # limiter keeps the step nonnegative and mass-conserving
        spike = np.zeros(grid.n)
        spike[grid.n // 2] = 1.0 / grid.dx
        op = _Stepper(grid, 0.01, dw_pot, constant_path(0.0), params)
        vals, _, drift, limited = _advance(spike, 0.0, op)
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
            new, _, _, _ = _advance(rho.values, 0.0, _Stepper(g, dt, quad_pot, path, ModelParams()))
            gaps[dt] = abs(moments(Density(g, new))[0] - path.ell(dt))
        assert gaps[4e-3] / gaps[2e-3] == pytest.approx(8.0, rel=0.25)
        assert gaps[2e-3] / gaps[1e-3] == pytest.approx(8.0, rel=0.25)


class TestRun:
    def test_gaussian_variance_oracle(self, quad_pot):
        g = Grid(0.5 - 12.0, 0.5 + 12.0, 1024)
        rho0 = gaussian_density(g, 0.5, 1.5**2)
        recs = run(rho0, constant_path(0.5), 1e-3, quad_pot,
                   ModelParams(), 3.0, record_every=10)
        ts = np.array([r.t for r in recs])
        vs = np.array([r.M2 - r.M1**2 for r in recs])
        oracle = 1.0 + (1.5**2 - 1.0) * np.exp(-2.0 * ts)
        assert float(np.max(np.abs(vs - oracle))) <= 1e-3

    def test_stationary_audit(self, fine_grid, dw_pot):
        nu = 0.5
        sol = solve_lambda(0.3, nu, dw_pot, fine_grid)
        recs = run(sol.state.density, constant_path(0.3), 1e-3,
                   dw_pot, ModelParams(nu=nu), 0.05)
        assert float(np.nanmax([r.eb_residual for r in recs])) <= 1e-8
        assert max(abs(r.M1 - 0.3) for r in recs) <= 1e-10
        assert all(r.limited_mass == 0.0 for r in recs)

    def test_audit_refines(self, quad_pot):
        # eb_residual falls under joint (dt, dx) refinement
        path = exp_decay_path(0.5, 0.3, 1.0)

        def eb(n, dt):
            g = Grid(-11.2, 12.8, n)
            rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
            recs = run(rho0, path, dt, quad_pot, ModelParams(), 1.5)
            return float(np.nanmax([r.eb_residual for r in recs]))

        coarse = eb(512, 2e-3)
        fine = eb(1024, 1e-3)
        assert fine < coarse

    def test_initial_projection(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 1.1, 0.8)
        recs = run(rho0, constant_path(0.2), 1e-3, dw_pot,
                   ModelParams(nu=0.8), 0.01)
        assert recs[0].M1 == pytest.approx(0.2, abs=1e-8)

    def test_undeclared_envelope_is_moving(self, quad_pot):
        # a path without kappa/L0 is not constant: lam_ell and
        # Hrel_quasistatic follow gamma_{lambda(ell(t))} as for exp_decay
        g = Grid(-12.0, 12.0, 256)
        declared = exp_decay_path(0.3, 0.4, 1.0)
        bare = ConstraintPath(declared.ell, declared.ell_dot, declared.ell_star)
        rho0 = gaussian_density(g, declared.ell(0.0), 1.0)
        cols = FPSOLVER_COLUMNS + ["lam_ell"]
        declared_rows, bare_rows = (
            [[getattr(r, c) for c in cols] for r in run(rho0, p, 1e-3, quad_pot, ModelParams(), 0.5)]
            for p in (declared, bare)
        )
        np.testing.assert_array_equal(bare_rows, declared_rows)

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
        assert len(recs) == 21
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
            m1[dt] = np.array([r.M1 for r in recs])
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
        assert float(np.max(np.abs([r.sigma for r in recs]))) < 5.0
        assert float(np.max([r.M2 for r in recs])) < 50.0

    def test_monotone_free_energy_constant_ell(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 0.2, 0.5)
        recs = run(rho0, constant_path(0.2), 1e-3, dw_pot,
                   ModelParams(nu=0.8), 1.0, record_every=5)
        f = np.array([r.F for r in recs])
        assert float(np.max(np.diff(f))) <= 1e-9


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
        # terms it sums; S and D share the public integrands and sums.  The
        # relative entropies take log gamma from the Gibbs exponent, so where
        # 0 < gamma < 1e-300 they differ from `relative_entropy`'s floored
        # log by design: each is checked against the long-double oracle
        pot = {"quadratic": quad_pot, "doublewell": dw_pot, "polynomial": ASYMMETRIC}[potential]
        params = ModelParams(tau=tau, nu=nu)
        ell = gibbs(sigma_q, nu, pot, grid).mean
        path = moving_path(ell, ell_dot, gibbs(sigma_star, nu, pot, grid).mean)
        sol_q, sol_star = solve_lambda(ell, nu, pot, grid), solve_lambda(path.ell_star, nu, pot, grid)
        gamma_q, gamma_star = sol_q.state.density, sol_star.state.density
        # rho vanishes where either reference does, as a solution would, and
        # has mean ell, so the run does not project it
        raw = random_density(grid, np.random.default_rng(seed)).values
        both = gamma_q.values * gamma_star.values > 0.0
        rho = set_mean(density_from_values(grid, np.where(both, raw, 0.0)), ell)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fpsolver, "_advance", lambda vals, t, op: (vals, 0.0, 0.0, 0.0))
            rec = run(rho, path, 1e-3, pot, params, 1e-3)[0]

        x, h, h1 = grid.x, pot.h(grid.x), pot.h1(grid.x)
        m1, m2, _ = moments(rho)
        fe = free_energy(rho, pot, params)

        def close(value, expected, scale):
            assert abs(value - expected) <= 1e-13 * scale

        def absolute(f):
            return float(np.sum(np.abs(f) * rho.values)) * grid.dx

        close(rec.M1, m1, absolute(x))
        close(rec.M2, m2, m2)
        close(rec.E, fe.E, absolute(h))
        close(rec.sigma, sigma_of_state(rho, 0.0, pot, path, params), absolute(h1) + tau * abs(ell_dot))
        close(rec.F, fe.F, nu**2 * (abs(fe.S) + abs(log_partition(pot, grid, nu))) + absolute(h))
        assert rec.S == pytest.approx(entropy(rho), rel=1e-13, abs=1e-15)
        for value, lam in ((rec.Hrel_quasistatic, sol_q.lam), (rec.Hrel_star, sol_star.lam)):
            oracle = gibbs_relative_entropy(rho.values, x, h, lam, nu, grid.dx)
            assert value == pytest.approx(oracle, rel=1e-13, abs=1e-15)
        assert rec.D == pytest.approx(dissipation(rho, rec.sigma, pot, params), rel=1e-13)
        assert rec.density is None

    @pytest.mark.parametrize("moving", [False, True])
    def test_support_mismatch_is_kept(self, grid, quad_pot, moving):
        # at nu = 0.3 the Gibbs states underflow to 0 near the ends, where a
        # random density is still positive: `relative_entropy` refuses that
        # pair, while the record reads log gamma from the Gibbs exponent,
        # finite on every cell, and runs to the end
        nu = 0.3
        rho = random_density(grid, np.random.default_rng(3), mean=0.2)
        path = moving_path(0.2, 0.1, 0.2) if moving else constant_path(0.2)
        star = solve_lambda(0.2, nu, quad_pot, grid)
        with pytest.raises(SupportMismatchError):
            relative_entropy(rho, star.state.density)
        recs = run(rho, path, 1e-3, quad_pot, ModelParams(nu=nu), 2e-3, keep_densities=True)
        assert len(recs) == 3
        x, h = grid.x, quad_pot.h(grid.x)
        for r in recs:
            for value, lam in ((r.Hrel_quasistatic, r.lam_ell), (r.Hrel_star, star.lam)):
                oracle = gibbs_relative_entropy(r.density.values, x, h, lam, nu, grid.dx)
                assert value == pytest.approx(oracle, rel=1e-13)

    def test_extrapolated_warm_start(self, grid, dw_pot, monkeypatch):
        # verify_forced's run for 300 steps with a record every step: each
        # record solve starts from the last two records' lambdas, extrapolated
        # in t, and takes about two Gibbs evaluations (three from the
        # previous lambda alone)
        nu = 0.8
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = solve_lambda(path.ell(0.0), nu, dw_pot, grid).state.density
        star = solve_lambda(path.ell_star, nu, dw_pot, grid)
        calls = []
        evaluate = TiltedFamily.evaluate

        def counted(family, sigma, nu):
            calls.append(sigma)
            return evaluate(family, sigma, nu)

        monkeypatch.setattr(TiltedFamily, "evaluate", counted)
        recs = run(rho0, path, 1e-3, dw_pot, ModelParams(nu=nu), 0.3)
        monkeypatch.undo()
        assert len(recs) == 301
        assert (len(calls) - star.iterations) / len(recs) <= 2.1
        for r in recs:
            assert r.lam_ell == pytest.approx(solve_lambda(r.ell, nu, dw_pot, grid).lam, abs=1e-9)


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
        worst_scaled = 0.0
        worst_printed = 0.0
        for r0, r1 in zip(recs[:-1], recs[1:]):
            dt_rec = r1.t - r0.t
            rate = (r1.F - r0.F) / dt_rec
            d_mid = 0.5 * (r1.D + r0.D)
            pump = 0.5 * (r1.sigma * path.ell_dot(r1.t) + r0.sigma * path.ell_dot(r0.t))
            worst_scaled = max(worst_scaled, abs(rate + d_mid / tau - pump))
            worst_printed = max(worst_printed, abs(rate + d_mid - tau * pump))
        assert worst_scaled <= 1e-3
        assert worst_printed > 50.0 * worst_scaled

    def test_eb_residual_column_balances_at_tau(self, quad_pot):
        _, recs = self.forced_run(quad_pot, 2.0)
        assert float(np.nanmax([r.eb_residual for r in recs])) <= 1e-3


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


class TestCrossValidation:
    def test_jko_and_fv_agree(self, dw_pot):
        # same data, constant ell: the two solvers converge to each other
        from cfpk.transport import jko_run

        g = Grid(-12.0, 12.0, 1024)
        nu = 0.8
        params = ModelParams(nu=nu)
        path = constant_path(0.4)
        rho0 = gaussian_density(g, 0.4, 0.5)
        fv = run(rho0, path, 2.5e-4, dw_pot, params, 1.0,
                 record_every=40, keep_densities=True)
        gaps = {}
        for h in (0.04, 0.02):
            jk = jko_run(rho0, path, h, 1.0, dw_pot, params)
            worst = 0.0
            for r in jk:
                k = round(r.t / 0.01)
                if 0 <= k < len(fv) and fv[k].density is not None:
                    worst = max(worst, w2(r.density, fv[k].density, 1024))
            gaps[h] = worst
        assert gaps[0.02] < gaps[0.04]
        assert gaps[0.02] < 0.05
