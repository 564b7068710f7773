import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cfpk.core import Grid, ModelParams, density_from_values, gaussian_density, moments
from cfpk.equilibrium import (
    energy_barrier,
    gibbs,
    is_multimodal,
    landscape,
    lsi_constant,
    mean_derivative,
    solve_lambda,
    tilted_family,
    tilted_values,
)
from cfpk.errors import RangeError
from cfpk.functionals import dissipation, log_partition, relative_entropy
from cfpk.sampling import random_density, set_mean

from oracles import bisect_lambda, scan_barrier, scan_sigma_c


class TestGibbs:
    def test_quadratic_is_standard_gaussian(self, grid, quad_pot):
        st = gibbs(0.0, 1.0, quad_pot, grid)
        assert st.mean == pytest.approx(0.0, abs=1e-6)
        assert st.variance == pytest.approx(1.0, abs=1e-6)
        assert math.exp(st.log_z) == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-6)
        assert st.density.mass() == pytest.approx(1.0, abs=1e-12)

    def test_tilt_shifts_mean(self, grid, quad_pot):
        st = gibbs(0.8, 1.0, quad_pot, grid)
        assert st.mean == pytest.approx(0.8, abs=1e-8)
        assert st.variance == pytest.approx(1.0, abs=1e-6)

    def test_doublewell_symmetry(self, grid, dw_pot):
        st = gibbs(0.0, 0.5, dw_pot, grid)
        assert abs(st.mean) < 1e-8
        # bimodal: local minimum of the density at the origin
        mid = grid.n // 2
        assert st.density.values[mid] < 0.5 * np.max(st.density.values)

    @pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
    def test_variance_scaling(self, grid, quad_pot, nu):
        st = gibbs(0.0, nu, quad_pot, grid)
        assert st.variance == pytest.approx(nu * nu, abs=1e-6)

    def test_mean_consistent_with_density(self, grid, dw_pot):
        st = gibbs(0.4, 0.7, dw_pot, grid)
        assert st.mean == pytest.approx(moments(st.density)[0], abs=1e-8)


class TestTiltedFamily:
    """gibbs and log_partition repeat the direct formulas' float operations."""

    @staticmethod
    def direct_gibbs(sigma, nu, pot, grid):
        x = grid.x
        arg = -(np.asarray(pot.h(x), dtype=float) - sigma * x) / (nu * nu)
        shift = float(np.max(arg))
        w = np.exp(arg - shift)
        total = float(np.sum(w)) * grid.dx
        dens = density_from_values(grid, w / total)
        m1, _, var = moments(dens)
        return shift + math.log(total), dens.values, m1, var

    @staticmethod
    def direct_log_partition(pot, grid, nu):
        arg = -np.asarray(pot.h(grid.x), dtype=float) / (nu * nu)
        a = float(np.max(arg))
        return a + math.log(float(np.sum(np.exp(arg - a))) * grid.dx)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8, 1.0, 1.7])
    def test_bit_identical_to_direct_formulas(self, grid, quad_pot, dw_pot, nu):
        odd_grid = Grid(-8.0, 9.0, 333)
        for pot in (quad_pot, dw_pot):
            for g in (grid, odd_grid):
                assert log_partition(pot, g, nu) == self.direct_log_partition(pot, g, nu)
                for sigma in (-1.7, -0.3, 0.0, 0.45, 1.2):
                    log_z, values, m1, var = self.direct_gibbs(sigma, nu, pot, g)
                    state = gibbs(sigma, nu, pot, g)
                    assert state.log_z == log_z and state.mean == m1 and state.variance == var
                    np.testing.assert_array_equal(state.density.values, values)
                    x = g.x
                    np.testing.assert_array_equal(
                        tilted_values(sigma, pot, g), np.asarray(pot.h(x), dtype=float) - sigma * x
                    )

    def test_one_family_per_grid_with_read_only_arrays(self, grid, dw_pot):
        family = tilted_family(dw_pot, grid)
        assert tilted_family(dw_pot, grid) is family
        np.testing.assert_array_equal(family.x, grid.x)
        for arr in (family.x, family.x2, family.h):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestLambdaOfEll:
    def test_quadratic_identity(self, grid, quad_pot):
        for ell in (-1.0, 0.0, 0.7, 2.0):
            sol = solve_lambda(ell, 1.0, quad_pot, grid)
            assert sol.lam == pytest.approx(ell, abs=1e-9)
            assert sol.iterations <= 6

    def test_doublewell_symmetry(self, grid, dw_pot):
        lam = solve_lambda(0.0, 0.5, dw_pot, grid).lam
        assert lam == pytest.approx(0.0, abs=1e-9)

    def test_doublewell_against_bisection(self, grid, dw_pot):
        sol = solve_lambda(1.0, 0.5, dw_pot, grid)
        oracle = bisect_lambda(1.0, 0.5, dw_pot, grid, -1.0, 2.0)
        assert sol.lam == pytest.approx(oracle, abs=1e-8)
        assert sol.state.mean == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        potential=hst.sampled_from(["quadratic", "doublewell"]),
        nu=hst.sampled_from([0.5, 0.8, 1.0]),
        ells=hst.lists(hst.floats(-3.0, 3.0), min_size=2, max_size=6),
    )
    def test_warm_start_matches_cold(self, grid, quad_pot, dw_pot, potential, nu, ells):
        pot = quad_pot if potential == "quadratic" else dw_pot
        lam_prev = None
        for ell in ells:
            warm = solve_lambda(ell, nu, pot, grid, start=lam_prev)
            cold = solve_lambda(ell, nu, pot, grid)
            assert warm.lam == pytest.approx(cold.lam, abs=1e-9)
            assert warm.residual < 1e-10
            lam_prev = warm.lam

    def test_warm_start_counts_its_evaluations(self, grid, dw_pot):
        cold = solve_lambda(0.4, 0.5, dw_pot, grid)
        exact = solve_lambda(0.4, 0.5, dw_pot, grid, start=cold.lam)
        assert exact.iterations == 1 and exact.lam == cold.lam
        near = solve_lambda(0.41, 0.5, dw_pot, grid, start=cold.lam)
        assert 2 <= near.iterations < solve_lambda(0.41, 0.5, dw_pot, grid).iterations

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("start", [3.0, 10.0, 1e3, -1e6, math.inf, math.nan])
    def test_bad_start_falls_back_to_cold_solve(self, grid, dw_pot, start):
        # from 3 and 10 (the cold solve's answer is 0.034) a Newton step
        # fails to reduce |M1 - ell|; at 1e3, -1e6, inf and NaN the start
        # state degenerates.  The bracketed solve takes over and gives the
        # cold answer, and the failed evaluations are counted.
        cold = solve_lambda(0.4, 0.5, dw_pot, grid)
        sol = solve_lambda(0.4, 0.5, dw_pot, grid, start=start)
        assert sol.lam == pytest.approx(cold.lam, abs=1e-9)
        assert sol.iterations > cold.iterations

    def test_out_of_range(self, grid, quad_pot):
        with pytest.raises(RangeError):
            solve_lambda(15.0, 1.0, quad_pot, grid)

    def test_monotone_parametrization_slope(self, grid, dw_pot):
        # finite-difference slope of lambda -> M1 equals Var/nu^2 within 1%
        nu = 0.5
        lams = np.linspace(-0.8, 0.8, 20)
        d = 1e-4
        for lam in lams:
            st = gibbs(lam, nu, dw_pot, grid)
            fd = (gibbs(lam + d, nu, dw_pot, grid).mean - gibbs(lam - d, nu, dw_pot, grid).mean) / (2 * d)
            assert fd == pytest.approx(mean_derivative(st), rel=0.01)

    def test_bi_lipschitz(self, grid, dw_pot):
        nu = 0.5
        scan = landscape(nu, dw_pot, grid, (-1.5, 1.5))
        rng = np.random.default_rng(2)
        for _ in range(10):
            l1, l2 = rng.uniform(-0.8, 0.8, size=2)
            if abs(l1 - l2) < 1e-3:
                continue
            lam1 = solve_lambda(l1, nu, dw_pot, grid).lam
            lam2 = solve_lambda(l2, nu, dw_pot, grid).lam
            gap = abs(lam1 - lam2)
            # slope of M1 wrt lambda lies in [c_var, C_var]/nu^2
            assert gap >= abs(l1 - l2) * nu * nu / scan.C_var - 1e-9
            assert gap <= abs(l1 - l2) * nu * nu / scan.c_var + 1e-9

    def test_constrained_minimality(self, grid, dw_pot):
        # F(rho) >= F(gamma_{lambda(ell)}) for random rho on the manifold
        from cfpk.functionals import free_energy

        nu = 1.0
        rng = np.random.default_rng(4)
        ell = 0.4
        st = solve_lambda(ell, nu, dw_pot, grid).state
        f_min = free_energy(st.density, dw_pot, ModelParams(nu=nu)).F
        for _ in range(20):
            rho = random_density(grid, rng, mean=ell)
            assert free_energy(rho, dw_pot, ModelParams(nu=nu)).F >= f_min - 1e-8


class TestLandscape:
    def test_quadratic_trivial(self, grid, quad_pot):
        rep = landscape(1.0, quad_pot, grid, (-2.0, 2.0))
        assert rep.spinodal_measure == 0.0
        assert rep.sigma_set == []
        assert rep.delta_h_star == 0.0
        assert rep.c_var == pytest.approx(1.0, abs=1e-6)
        assert rep.C_var == pytest.approx(1.0, abs=1e-6)

    def test_doublewell_barrier(self, grid, dw_pot):
        assert energy_barrier(0.0, dw_pot, grid) == pytest.approx(1.0, abs=1e-3)
        assert energy_barrier(0.0, dw_pot, grid) == pytest.approx(
            scan_barrier(dw_pot, 0.0), abs=1e-3
        )

    def test_doublewell_sigma_set(self, grid, dw_pot):
        rep = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
        assert len(rep.sigma_set) == 1
        lo, hi = rep.sigma_set[0]
        sigma_c = scan_sigma_c(dw_pot)
        assert hi == pytest.approx(sigma_c, abs=1e-3)
        assert lo == pytest.approx(-sigma_c, abs=1e-3)
        assert rep.delta_h_star == pytest.approx(1.0, abs=1e-3)

    def test_spinodal_measure(self, grid, dw_pot):
        rep = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
        # H'' <= 0 exactly on |x| <= sqrt(2^(2/3) - 1)
        width = 2.0 * math.sqrt(2.0 ** (2.0 / 3.0) - 1.0)
        assert rep.spinodal_measure == pytest.approx(width, abs=2 * grid.dx)

    def test_multimodality_predicate(self, grid, dw_pot, quad_pot):
        assert is_multimodal(0.0, dw_pot, grid)
        assert not is_multimodal(2.0, dw_pot, grid)
        assert not is_multimodal(0.0, quad_pot, grid)

    def test_serialization(self, grid, dw_pot):
        rep = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
        d = rep.to_dict()
        for key in ("spinodal_measure", "sigma_intervals", "delta_h_star", "c_var", "C_var", "lsi_samples"):
            assert key in d


class TestLsiConstant:
    def test_convex_case(self, grid, quad_pot):
        for sigma in (-1.0, 0.0, 2.0):
            c, method = lsi_constant(sigma, 1.0, quad_pot, grid)
            assert method == "convex"
            assert c == pytest.approx(1.0)

    def test_doublewell_barrier_scaling(self, grid, dw_pot):
        # bound grows like exp(2 DeltaH / nu^2) at sigma = 0
        c1, m1 = lsi_constant(0.0, 1.0, dw_pot, grid)
        c2, m2 = lsi_constant(0.0, 0.5, dw_pot, grid)
        assert m1 == m2 == "holley_stroock"
        barrier = energy_barrier(0.0, dw_pot, grid)
        expected_ratio = 4.0 * math.exp(2.0 * barrier * (1.0 / 0.25 - 1.0))
        assert c2 / c1 == pytest.approx(expected_ratio, rel=1e-6)

    def test_outside_sigma_set(self, grid, dw_pot):
        c, _ = lsi_constant(3.0, 0.5, dw_pot, grid)
        # no barrier: O(nu^-2) only
        assert c == pytest.approx(2.0 / 0.25 / 2.0, rel=1e-9)
        assert energy_barrier(3.0, dw_pot, grid) == 0.0

    def test_empirical_lsi(self, grid, dw_pot):
        # H(rho|gamma_sigma) <= C_lsi D(rho, sigma)/nu^2 on random densities
        rng = np.random.default_rng(6)
        for nu in (1.0, 0.5):
            for sigma in (0.0, 0.4):
                c, _ = lsi_constant(sigma, nu, dw_pot, grid)
                gam = gibbs(sigma, nu, dw_pot, grid).density
                for _ in range(10):
                    rho = random_density(grid, rng)
                    h = relative_entropy(rho, gam)
                    d = dissipation(rho, sigma, dw_pot, ModelParams(nu=nu))
                    assert h <= c * d / nu**2 + 1e-8
