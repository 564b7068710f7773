import numpy as np
import pytest

from cfpk.core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    constant_path,
    exp_decay_path,
    gaussian_density,
    moments,
)
from cfpk import fpsolver
from cfpk.equilibrium import gibbs, solve_lambda
from cfpk.errors import ContractViolation
from cfpk.fpsolver import (
    _advance,
    _Stepper,
    project_mean,
    run,
    sigma_of_state,
)
from cfpk.records import FPSOLVER_COLUMNS
from cfpk.transport import w2


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

    def test_positivity_and_mass(self, grid, dw_pot):
        # the whole TR-BDF2 step conserves mass and stays nonnegative; the
        # positivity limiter acts only at the two stiff boundary cells here
        rng = np.random.default_rng(8)
        from cfpk.sampling import random_density

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

    def test_step_count_guard(self, grid, quad_pot, monkeypatch):
        # a dt that schedules more than MAX_STEPS steps is refused before
        # the first step
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(fpsolver, "_advance", no_step)
        rho0 = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation, match="exceeds the limit"):
            run(rho0, constant_path(0.0), 1e-300, quad_pot, ModelParams(), 1.0)

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


class TestAuditScalingAtTau:
    def test_energy_rate_carries_one_over_tau(self, quad_pot):
        # the shipped audit column implements |dF/dt + D - tau sigma l'|; at
        # tau != 1 the rate that actually balances is dF/dt = -D/tau + sigma l'
        g = Grid(-11.2, 12.8, 1024)
        path = exp_decay_path(0.5, 0.3, 1.0)
        tau = 2.0
        rho0 = solve_lambda(path.ell(0.0), 1.0, quad_pot, g).state.density
        recs = run(rho0, path, 1e-3, quad_pot,
                   ModelParams(tau=tau, nu=1.0), 2.0, record_every=5)
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
