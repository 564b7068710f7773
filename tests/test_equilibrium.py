import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cfpk.core import (
    Grid,
    ModelParams,
    density_from_values,
    gaussian_density,
    integrate,
    moments,
    polynomial_potential,
)
from cfpk.equilibrium import (
    TiltedFamily,
    energy_barrier,
    gibbs,
    landscape,
    local_minima,
    lsi_constant,
    multimodal_intervals,
    LAMBDA_TOL,
    solve_lambda,
    solve_lambdas,
    tilted_family,
    variance_range,
)
from cfpk.errors import GridTooSmallError, RangeError
from cfpk.functionals import dissipation, log_partition, relative_entropy
from cfpk.sampling import random_density, set_mean

from oracles import bisect_lambda, local_minima_loop, scan_barrier, scan_sigma_c

# asymmetric double well whose lambda_0 = ell * H''(10) lies far from lambda(ell)
ASYMMETRIC = polynomial_potential([0.1, 0.09, -0.15, 0.0, 0.25])


def lanes(ells, nu, pot, grid, starts):
    """The lanes of one `solve_lambdas` batch, one namespace each."""
    columns = zip(*solve_lambdas(ells, nu, pot, grid, starts))
    names = ("lam", "mean", "variance", "log_z", "values", "iterations", "residual")
    return [SimpleNamespace(**dict(zip(names, lane))) for lane in columns]


class TestGibbs:
    def test_quadratic_is_standard_gaussian(self, grid, quad_pot):
        st = gibbs(0.0, 1.0, quad_pot, grid)
        assert st.mean == pytest.approx(0.0, abs=1e-6)
        assert st.variance == pytest.approx(1.0, abs=1e-6)
        assert math.exp(st.log_z) == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-6)
        assert integrate(st.density.values, grid) == pytest.approx(1.0, abs=1e-12)

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

    def test_state_in_one_cell_is_refused(self, quad_pot):
        # at nu = 0.01 on cells of width 3 the state falls in one cell, so
        # its variance is 0: the strict kernel refuses it, for one tilt and
        # for a range of tilts
        g = Grid(-12.0, 12.0, 8)
        with pytest.raises(GridTooSmallError, match="sigma=0.3, nu=0.01"):
            gibbs(0.3, 0.01, quad_pot, g)
        with pytest.raises(GridTooSmallError):
            variance_range(np.array([0.0, 0.3]), 0.01, quad_pot, g)


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
                        tilted_family(pot, g).tilted(sigma),
                        np.asarray(pot.h(x), dtype=float) - sigma * x,
                    )

    def test_one_family_per_grid_with_read_only_arrays(self, grid, dw_pot):
        family = tilted_family(dw_pot, grid)
        assert tilted_family(dw_pot, grid) is family
        np.testing.assert_array_equal(family.x, grid.x)
        np.testing.assert_array_equal(family.h, dw_pot.h(grid.x))
        np.testing.assert_array_equal(family.h1, dw_pot.h1(grid.x))
        for arr in (family.x, family.x2, family.h, family.h1):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


    def test_variance_range_over_gibbs_states(self, grid, dw_pot):
        sigmas = np.linspace(-1.5, 2.0, 9)
        variances = [gibbs(float(s), 0.6, dw_pot, grid).variance for s in sigmas]
        assert variance_range(sigmas, 0.6, dw_pot, grid) == (min(variances), max(variances))


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

    def test_newton_cycle_falls_back_to_bisection(self, grid, dw_pot):
        # Newton from the bracket end cycles between lambda ~ -0.73 and ~ 2.6
        sol = solve_lambda(1.421875, 0.8, dw_pot, grid)
        oracle = bisect_lambda(1.421875, 0.8, dw_pot, grid, -1.0, 2.0)
        assert sol.lam == pytest.approx(oracle, abs=1e-8)
        assert sol.residual < 1e-10

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
            warm = lanes([ell], nu, pot, grid, [lam_prev])[0]
            cold = solve_lambda(ell, nu, pot, grid)
            assert warm.lam == pytest.approx(cold.lam, abs=1e-9)
            assert warm.residual < 1e-10
            lam_prev = warm.lam

    def test_warm_start_counts_its_evaluations(self, grid, dw_pot):
        cold = solve_lambda(0.4, 0.5, dw_pot, grid)
        exact = lanes([0.4], 0.5, dw_pot, grid, [cold.lam])[0]
        assert exact.iterations == 1 and exact.lam == cold.lam
        near = lanes([0.41], 0.5, dw_pot, grid, [cold.lam])[0]
        assert 2 <= near.iterations < solve_lambda(0.41, 0.5, dw_pot, grid).iterations

    @pytest.mark.parametrize("start", [3.0, 10.0, 1e3, -1e6, math.inf, math.nan])
    def test_bad_start_falls_back_to_cold_solve(self, grid, dw_pot, start, monkeypatch):
        # 3 and 10 lie far from the answer, 0.034, and the loop runs from
        # them; at 1e3 and -1e6 the start state degenerates, and inf and NaN
        # are never evaluated: lambda_0 replaces those starts.  Every Gibbs
        # evaluation, the degenerate one included, is counted.
        cold = solve_lambda(0.4, 0.5, dw_pot, grid)
        calls = []
        evaluate = TiltedFamily.evaluate

        def counted(family, sigma, nu, strict=True, out=None):
            calls.extend(np.asarray(sigma).tolist())
            return evaluate(family, sigma, nu, strict, out)

        monkeypatch.setattr(TiltedFamily, "evaluate", counted)
        sol = lanes([0.4], 0.5, dw_pot, grid, [start])[0]
        assert sol.lam == pytest.approx(cold.lam, abs=1e-9)
        assert sol.iterations == len(calls)
        assert all(math.isfinite(s) for s in calls)

    @settings(max_examples=150, deadline=None)
    @given(
        potential=hst.sampled_from(["quadratic", "doublewell", "polynomial"]),
        nu=hst.floats(0.3, 1.5),
        ell=hst.floats(-6.0, 6.0),
        start_kind=hst.sampled_from(["none", "near", "wide", "inf", "nan"]),
        offset=hst.floats(-0.5, 0.5),
        wide=hst.floats(-60.0, 60.0),
    )
    def test_agrees_with_bisection_from_any_start(
        self, grid, quad_pot, dw_pot, potential, nu, ell, start_kind, offset, wide
    ):
        # without the reach cap a full Newton step from a far start (a wide
        # one, or ASYMMETRIC's lambda_0) lands where the state degenerates
        # and raises RangeError
        pot = {"quadratic": quad_pot, "doublewell": dw_pot, "polynomial": ASYMMETRIC}[potential]
        oracle = bisect_lambda(ell, nu, pot, grid, -300.0, 300.0)
        start = {
            "none": None,
            "near": oracle + offset,
            "wide": wide,
            "inf": math.inf,
            "nan": math.nan,
        }[start_kind]
        sol = lanes([ell], nu, pot, grid, [start])[0]
        assert sol.lam == pytest.approx(oracle, rel=1e-8, abs=1e-8)
        assert sol.residual < 1e-10

    def test_batch_lanes_repeat_their_one_lane_solves(self, grid, dw_pot):
        # one batch mixing lanes that converge at their first evaluation,
        # lanes one Newton step away, and, at nu = 0.3 near ell = 0, cold
        # lanes whose Newton steps overshoot and bisect (8 evaluations for
        # ell = 0.05, from 0.1 through -0.384): every lane ends where its own
        # one-lane solve from the same start ends, bit for bit, with the same
        # number of evaluations
        nu = 0.3
        exact = [solve_lambda(ell, nu, dw_pot, grid).lam for ell in (0.3, -0.4)]
        ells = np.array([0.05, 0.3, -0.4, 0.31, 0.2, -0.002])
        starts = np.array([math.nan, exact[0], exact[1], exact[0], math.nan, 0.5])
        batch = lanes(ells, nu, dw_pot, grid, starts)
        assert [sol.iterations for sol in batch[:3]] == [8, 1, 1]
        for sol, ell, start in zip(batch, ells, starts):
            one = lanes([float(ell)], nu, dw_pot, grid, [float(start)])[0]
            assert (sol.lam, sol.iterations, sol.residual) == (one.lam, one.iterations, one.residual)
            assert sol.residual < LAMBDA_TOL
            assert abs(sol.mean - ell) < LAMBDA_TOL
            assert (sol.mean, sol.variance, sol.log_z) == (
                one.mean, one.variance, one.log_z,
            )
            np.testing.assert_array_equal(sol.values, one.values)

    def test_batch_lanes_fall_back_from_degenerate_starts(self, grid, dw_pot):
        # at nu = 0.5 the finite starts 1e3 and -1e6 degenerate, the NaN start
        # is replaced before any evaluation, and lambda(0.3) is exact: every
        # lane ends where its one-lane solve ends, bit for bit, and a lane
        # that fell back counts its degenerate evaluation on top of the cold
        # solve's evaluations
        nu = 0.5
        exact = solve_lambda(0.3, nu, dw_pot, grid).lam
        ells = np.array([0.4, 0.3, 0.4, 0.4])
        starts = np.array([1e3, exact, math.nan, -1e6])
        batch = lanes(ells, nu, dw_pot, grid, starts)
        for sol, ell, start in zip(batch, ells, starts):
            one = lanes([float(ell)], nu, dw_pot, grid, [float(start)])[0]
            assert (sol.lam, sol.iterations, sol.residual) == (one.lam, one.iterations, one.residual)
            assert (sol.mean, sol.variance, sol.log_z) == (
                one.mean, one.variance, one.log_z,
            )
            np.testing.assert_array_equal(sol.values, one.values)
        fell, exact_lane, cold, fell_too = batch
        assert exact_lane.iterations == 1
        assert fell.iterations == fell_too.iterations == cold.iterations + 1
        assert fell.lam == fell_too.lam == cold.lam

    @settings(max_examples=25, deadline=None)
    @given(
        potential=hst.sampled_from(["quadratic", "doublewell", "polynomial"]),
        nu=hst.floats(0.3, 1.5),
        ells=hst.lists(hst.floats(-4.0, 4.0), min_size=1, max_size=8),
        offsets=hst.lists(hst.floats(-2.0, 2.0), min_size=8, max_size=8),
    )
    def test_batch_agrees_with_one_lane_solves(self, grid, quad_pot, dw_pot, potential, nu, ells, offsets):
        pot = {"quadratic": quad_pot, "doublewell": dw_pot, "polynomial": ASYMMETRIC}[potential]
        starts = np.array(ells) + np.array(offsets[: len(ells)])
        batch = lanes(np.array(ells), nu, pot, grid, starts)
        for sol, ell, start in zip(batch, ells, starts):
            one = lanes([ell], nu, pot, grid, [float(start)])[0]
            assert (sol.lam, sol.iterations) == (one.lam, one.iterations)
            assert sol.residual < LAMBDA_TOL

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
            assert fd == pytest.approx(st.variance / st.nu**2, rel=0.01)

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
            assert gap >= abs(l1 - l2) * nu * nu / scan["C_var"] - 1e-9
            assert gap <= abs(l1 - l2) * nu * nu / scan["c_var"] + 1e-9

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


def in_multimodal_set(sigma, pot, grid):
    return any(lo < sigma < hi for lo, hi in multimodal_intervals(pot, grid))


class TestLandscape:
    def test_quadratic_trivial(self, grid, quad_pot):
        rep = landscape(1.0, quad_pot, grid, (-2.0, 2.0))
        assert rep["spinodal_measure"] == 0.0
        assert rep["sigma_intervals"] == []
        assert rep["delta_h_star"] == 0.0
        assert rep["c_var"] == pytest.approx(1.0, abs=1e-6)
        assert rep["C_var"] == pytest.approx(1.0, abs=1e-6)

    def test_doublewell_barrier(self, grid, dw_pot):
        assert energy_barrier(0.0, dw_pot, grid) == pytest.approx(1.0, abs=1e-3)
        assert energy_barrier(0.0, dw_pot, grid) == pytest.approx(
            scan_barrier(dw_pot, 0.0), abs=1e-3
        )

    def test_doublewell_sigma_set(self, grid, dw_pot):
        rep = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
        assert len(rep["sigma_intervals"]) == 1
        lo, hi = rep["sigma_intervals"][0]
        sigma_c = scan_sigma_c(dw_pot)
        assert hi == pytest.approx(sigma_c, abs=1e-3)
        assert lo == pytest.approx(-sigma_c, abs=1e-3)
        assert rep["delta_h_star"] == pytest.approx(1.0, abs=1e-3)

    def test_sigma_set_between_tilt_samples(self, grid):
        # H'(x) = x^3 - 0.3x + 0.09 has three roots only for sigma in
        # 0.09 -+ 0.2 sqrt(0.1), which holds none of the 33 tilt samples
        pot = polynomial_potential([0.1, 0.09, -0.15, 0.0, 0.25])
        rep = landscape(0.5, pot, grid)
        assert len(rep["sigma_intervals"]) == 1
        lo, hi = rep["sigma_intervals"][0]
        assert lo == pytest.approx(0.09 - 0.2 * math.sqrt(0.1), abs=1e-6)
        assert hi == pytest.approx(0.09 + 0.2 * math.sqrt(0.1), abs=1e-6)
        assert in_multimodal_set(0.09, pot, grid) and not in_multimodal_set(0.0, pot, grid)
        assert rep["delta_h_star"] == energy_barrier(0.5 * (lo + hi), pot, grid)
        assert rep["delta_h_star"] == pytest.approx(energy_barrier(0.09, pot, grid), rel=1e-3)
        assert rep["delta_h_star"] > 0.02

    def test_sigma_set_clipped_to_the_range(self, grid, dw_pot):
        full = landscape(0.5, dw_pot, grid, (-2.0, 2.0))["sigma_intervals"]
        assert landscape(0.5, dw_pot, grid, (0.5, 2.0))["sigma_intervals"] == [[0.5, full[0][1]]]
        assert landscape(0.5, dw_pot, grid, (1.0, 2.0))["sigma_intervals"] == []

    def test_spinodal_measure(self, grid, dw_pot):
        rep = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
        # H'' <= 0 exactly on |x| <= sqrt(2^(2/3) - 1)
        width = 2.0 * math.sqrt(2.0 ** (2.0 / 3.0) - 1.0)
        assert rep["spinodal_measure"] == pytest.approx(width, abs=2 * grid.dx)

    def test_multimodality_predicate(self, grid, dw_pot, quad_pot):
        assert in_multimodal_set(0.0, dw_pot, grid)
        assert not in_multimodal_set(2.0, dw_pot, grid)
        assert not in_multimodal_set(0.0, quad_pot, grid)

    @settings(max_examples=300, deadline=None)
    @given(vals=hst.lists(hst.integers(-3, 3), max_size=40))
    def test_local_minima_matches_the_loop(self, vals):
        # small integer values make plateaus, also at both ends
        arr = np.array(vals, dtype=float)
        assert local_minima(arr) == local_minima_loop(arr)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
    def test_local_minima_of_the_tilted_doublewell(self, grid, dw_pot, sigma):
        vals = tilted_family(dw_pot, grid).tilted(sigma)
        assert local_minima(vals) == local_minima_loop(vals)

    def test_serialization(self, grid, dw_pot):
        d = landscape(0.5, dw_pot, grid, (-2.0, 2.0))
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

    def test_past_float_range_is_inf(self, grid, dw_pot):
        # 2 DeltaH / nu^2 = 800 at nu = 0.05; the estimate is 2.2e300 at nu = 0.054
        assert lsi_constant(0.0, 0.05, dw_pot, grid) == (math.inf, "holley_stroock")
        assert 1e300 < lsi_constant(0.0, 0.054, dw_pot, grid)[0] < math.inf

    def test_empirical_lsi(self, grid, dw_pot):
        # H(rho|gamma_sigma) <= C_lsi D(rho, sigma)/nu^2 on random densities
        rng = np.random.default_rng(6)
        for nu in (1.0, 0.5):
            for sigma in (0.0, 0.4):
                c, _ = lsi_constant(sigma, nu, dw_pot, grid)
                gam = gibbs(sigma, nu, dw_pot, grid)
                for _ in range(10):
                    rho = random_density(grid, rng)
                    h = relative_entropy(rho, gam)
                    d = dissipation(rho, sigma, dw_pot, ModelParams(nu=nu))
                    assert h <= c * d / nu**2 + 1e-8
