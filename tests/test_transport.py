import math

import numpy as np
import pytest

from cfpk.core import (
    Density,
    Grid,
    ModelParams,
    constant_path,
    exp_decay_path,
    gaussian_density,
    moments,
    normalize,
)
from cfpk import transport
from cfpk.equilibrium import solve_lambda
from cfpk.errors import ContractViolation
from cfpk.transport import (
    discrete_sigma_series,
    jko_run,
    jko_step,
    quantile_to_density,
    sum_w2sq,
    to_quantile,
    w2,
    weak_form_residual,
)

from oracles import exact_w2_histograms, gaussian_w2, jko_gaussian_step_variance


class TestQuantile:
    def test_uniform_identity(self):
        g = Grid(0.0, 1.0, 256)
        rho = normalize(Density(g, np.ones(g.n)))
        q = to_quantile(rho, 256)
        assert np.max(np.abs(q.x_of_s - (np.arange(256) + 0.5) / 256)) < g.dx

    def test_median_of_gaussian(self, grid):
        rho = gaussian_density(grid, 0.0, 1.0)
        q = to_quantile(rho, 1000)
        assert abs(q.x_of_s[499]) < grid.dx  # s = 0.4995 near the median

    def test_monotone(self, grid, dw_pot):
        from cfpk.equilibrium import gibbs

        rho = gibbs(0.0, 0.5, dw_pot, grid).density
        q = to_quantile(rho, 512)
        assert np.all(np.diff(q.x_of_s) > 0.0)

    def test_mean_preserved_exactly(self, grid):
        rho = gaussian_density(grid, 0.37, 1.44)
        q = to_quantile(rho, 777)
        assert float(np.mean(q.x_of_s)) == pytest.approx(moments(rho)[0], abs=1e-13)

    def test_roundtrip_w2(self, grid):
        rho = gaussian_density(grid, 0.3, 1.0)
        back = quantile_to_density(to_quantile(rho, 2048).x_of_s, grid)
        assert w2(rho, back, 2048) < 2.0 * grid.dx
        assert moments(back)[0] == pytest.approx(moments(rho)[0], abs=1e-10)

    def test_m_minimum(self, grid):
        rho = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation):
            to_quantile(rho, 32)


class TestW2:
    def test_translation(self, grid):
        a = gaussian_density(grid, 0.0, 1.0)
        b = gaussian_density(grid, 1.5, 1.0)
        assert w2(a, b, 2048) == pytest.approx(1.5, abs=1e-4)

    def test_gaussian_closed_form(self, grid):
        a = gaussian_density(grid, 0.0, 1.0)
        b = gaussian_density(grid, 1.0, 4.0)
        assert w2(a, b, 2048) == pytest.approx(gaussian_w2(0.0, 1.0, 1.0, 4.0), abs=1e-3)
        assert gaussian_w2(0.0, 1.0, 1.0, 4.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_self_distance(self, grid):
        a = gaussian_density(grid, 0.2, 0.7)
        assert w2(a, a, 512) == 0.0

    def test_symmetry_and_triangle(self, grid):
        rng = np.random.default_rng(12)
        from cfpk.sampling import random_density

        a, b, c = (random_density(grid, rng) for _ in range(3))
        dab = w2(a, b, 1024)
        assert dab == pytest.approx(w2(b, a, 1024), abs=1e-14)
        assert dab <= w2(a, c, 1024) + w2(c, b, 1024) + 1e-10

    def test_against_exact_coupling_oracle(self):
        # coarse histograms: quantile sampling vs the exact monotone-coupling
        # integral (the closed-form optimal transport in 1D)
        g = Grid(-2.0, 2.0, 32)
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = normalize(Density(g, rng.uniform(0.1, 1.0, g.n)))
            b = normalize(Density(g, rng.uniform(0.1, 1.0, g.n)))
            exact = exact_w2_histograms(a, b)
            sampled = w2(a, b, 1 << 17)
            assert sampled == pytest.approx(exact, abs=1e-6)


class TestJkoStep:
    def test_fixed_point_quadratic(self, quad_pot):
        g = Grid(-12.0, 12.0, 8192)
        sol = solve_lambda(0.7, 1.0, quad_pot, g)
        res = jko_step(sol.state.density, 0.7, 1e-5, quad_pot, ModelParams(), m=2048)
        assert math.sqrt(res.w2_sq) <= 1e-6
        assert abs(res.sigma_k - sol.lam) <= 1e-6
        assert abs(moments(res.rho_next)[0] - 0.7) <= 1e-8
        assert res.kkt_residual <= 1e-7

    def test_fixed_point_doublewell(self, dw_pot):
        g = Grid(-12.0, 12.0, 8192)
        sol = solve_lambda(1.0, 0.5, dw_pot, g)
        res = jko_step(sol.state.density, 1.0, 1e-5, dw_pot, ModelParams(nu=0.5), m=2048)
        assert math.sqrt(res.w2_sq) <= 1e-6
        assert abs(res.sigma_k - sol.lam) <= 1e-6

    def test_gaussian_one_step_oracle(self, quad_pot):
        g = Grid(-12.0, 12.0, 4096)
        rho = gaussian_density(g, 0.5, 1.44)
        h = 0.01
        res = jko_step(rho, 0.5, h, quad_pot, ModelParams(), m=4096)
        m1, _, v = moments(res.rho_next)
        assert m1 == pytest.approx(0.5, abs=1e-8)
        v_oracle = jko_gaussian_step_variance(1.44, h)
        assert (v - 1.44) == pytest.approx(v_oracle - 1.44, rel=0.08)

    def test_constraint_enforced(self, grid, dw_pot):
        rho = gaussian_density(grid, 0.1, 0.8)
        res = jko_step(rho, 0.35, 0.02, dw_pot, ModelParams(nu=0.8))
        assert abs(moments(res.rho_next)[0] - 0.35) <= 1e-8
        assert res.w2_sq >= 0.0


class TestJkoRun:
    def test_stationary_run(self, dw_pot):
        g = Grid(-12.0, 12.0, 8192)
        nu = 0.8
        sol = solve_lambda(0.3, nu, dw_pot, g)
        recs = jko_run(sol.state.density, constant_path(0.3), 2e-4, 2e-3, dw_pot, ModelParams(nu=nu))
        assert all(r.W2sq_step <= 1e-10 for r in recs)
        f_vals = [r.F for r in recs]
        assert max(f_vals) - min(f_vals) < 1e-5

    def test_step_count_guard(self, grid, quad_pot, monkeypatch):
        # an h that schedules more than MAX_STEPS steps is refused before
        # the first step
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(transport, "_inner_solve", no_step)
        rho0 = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation, match="exceeds the limit"):
            jko_run(rho0, constant_path(0.0), 1e-300, 1.0, quad_pot, ModelParams())

    def test_constraint_tracking(self, grid, dw_pot):
        path = exp_decay_path(0.2, 0.3, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        recs = jko_run(rho0, path, 0.02, 0.5, dw_pot, ModelParams(nu=0.8))
        assert max(abs(r.M1 - r.ell) for r in recs) <= 1e-8

    def test_descent_with_constant_constraint(self, grid, dw_pot):
        params = ModelParams(nu=0.8)
        rho0 = gaussian_density(grid, 0.3, 0.5)
        h = 0.02
        recs = jko_run(rho0, constant_path(0.3), h, 0.4, dw_pot, params)
        from cfpk.functionals import log_partition
        from cfpk.transport import _quantile_free_energy

        # scheme inequality: F(rho_k) + W2^2/(2 h_eff) <= F(rho_{k-1})
        logz0 = log_partition(dw_pot, grid, params.nu)
        f_prev = None
        for r in recs:
            f_here = _quantile_free_energy(r.quantile, dw_pot, params.nu, logz0)
            if f_prev is not None:
                assert f_here + r.W2sq_step / (2.0 * h) <= f_prev + 1e-10
            f_prev = f_here

    def test_apriori_sums(self, grid, dw_pot):
        # sum of squared step distances scales linearly with h; sup M2 uniform
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.2, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        sums = {}
        sups = {}
        for h in (0.04, 0.02, 0.01):
            recs = jko_run(rho0, path, h, 1.0, dw_pot, params)
            sums[h] = sum_w2sq(recs)
            sups[h] = max(r.M2 for r in recs)
        assert sums[0.04] > sums[0.02] > sums[0.01]
        ratios = [sums[h] / h for h in (0.04, 0.02, 0.01)]
        assert max(ratios) / min(ratios) < 1.5
        assert max(sups.values()) / min(sups.values()) < 1.2

    def test_initial_projection(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 1.3, 0.7)  # mean far from ell(0)
        recs = jko_run(rho0, constant_path(0.2), 0.02, 0.1, dw_pot, ModelParams(nu=0.8))
        assert abs(recs[0].M1 - 0.2) <= 1e-8

    def test_shift_comparison(self, grid, dw_pot):
        # minimality against the translated competitor:
        # F(rho_k) + W2^2(rho_k, rho_{k-1})/(2h) <= F(a rho_{k-1}) + a^2/(2h)
        from cfpk.functionals import log_partition
        from cfpk.transport import _quantile_free_energy

        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.2, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        h = 0.02
        recs = jko_run(rho0, path, h, 0.4, dw_pot, params)
        logz0 = log_partition(dw_pot, grid, params.nu)
        x_prev = to_quantile(rho0, grid.n).x_of_s
        x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
        for r in recs:
            a = r.ell - float(np.mean(x_prev))
            lhs = _quantile_free_energy(r.quantile, dw_pot, params.nu, logz0) + r.W2sq_step / (2 * h)
            rhs = _quantile_free_energy(x_prev + a, dw_pot, params.nu, logz0) + a * a / (2 * h)
            assert lhs <= rhs + 1e-10
            x_prev = r.quantile


class TestSigmaSeries:
    def test_stationary_sigma_constant(self, dw_pot):
        g = Grid(-12.0, 12.0, 2048)
        nu = 0.8
        sol = solve_lambda(0.3, nu, dw_pot, g)
        recs = jko_run(sol.state.density, constant_path(0.3), 0.01, 0.1, dw_pot, ModelParams(nu=nu))
        ser = discrete_sigma_series(recs)
        assert np.max(np.abs(ser.values - sol.lam)) < 1e-5

    def test_interpolant_gap_halves_with_h(self, grid, dw_pot):
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.2, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        gaps = {}
        for h in (0.04, 0.02):
            recs = jko_run(rho0, path, h, 1.0, dw_pot, params)
            gaps[h] = discrete_sigma_series(recs).sup_gap()
        assert gaps[0.02] == pytest.approx(0.5 * gaps[0.04], rel=0.25)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            discrete_sigma_series([])


class TestWeakForm:
    def test_residual_bounded(self, grid, dw_pot):
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.5)
        h = 0.02
        recs = jko_run(rho0, path, h, 0.5, dw_pot, params)
        zeta = (lambda x: x**2, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x))
        x_prev = to_quantile(rho0, grid.n).x_of_s
        x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
        for r in recs:
            res, bound = weak_form_residual(x_prev, r.quantile, r.sigma, h, *zeta, dw_pot, params)
            assert res <= bound + 1e-9
            x_prev = r.quantile

    def test_h_to_zero_consistency(self, grid, dw_pot):
        # residual of the weak form against a smooth zeta shrinks with h
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.5)
        zeta = (lambda x: np.sin(x), lambda x: np.cos(x), lambda x: -np.sin(x))
        worst = {}
        for h in (0.04, 0.01):
            recs = jko_run(rho0, path, h, 0.4, dw_pot, params)
            x_prev = to_quantile(rho0, grid.n).x_of_s
            x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
            vals = []
            for r in recs:
                res, _ = weak_form_residual(x_prev, r.quantile, r.sigma, h, *zeta, dw_pot, params)
                vals.append(res)
                x_prev = r.quantile
            worst[h] = max(vals)
        assert worst[0.01] < worst[0.04]
