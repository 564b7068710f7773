import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cfpk.core import (
    Grid,
    ModelParams,
    density_from_values,
    gaussian_density,
    moments,
    polynomial_potential,
)
from cfpk.equilibrium import gibbs
from cfpk.errors import WeightTooStrongError
from cfpk.functionals import (
    ckp_l1_bound,
    dissipation,
    free_energy,
    relative_entropy,
    weighted_ckp,
)
from cfpk.sampling import random_density

from oracles import gaussian_entropy, gaussian_kl, gaussian_l1_distance, gibbs_relative_entropy


class TestFreeEnergy:
    def test_standard_gaussian_breakdown(self, grid, quad_pot):
        rho = gaussian_density(grid, 0.0, 1.0)
        eb = free_energy(rho, quad_pot, ModelParams(nu=1.0))
        assert eb.S == pytest.approx(gaussian_entropy(1.0), abs=1e-8)
        assert eb.E == pytest.approx(0.5, abs=1e-8)
        assert eb.logZ0 == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-10)
        assert eb.F == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_gibbs_state_has_zero_free_energy(self, grid, dw_pot, nu):
        st = gibbs(0.0, nu, dw_pot, grid)
        eb = free_energy(st.density, dw_pot, ModelParams(nu=nu))
        assert eb.F == pytest.approx(0.0, abs=1e-8)
        assert eb.F == pytest.approx(nu**2 * eb.S + eb.E + nu**2 * eb.logZ0, abs=1e-12)

    def test_positive_away_from_minimizer(self, grid, quad_pot):
        rho = gaussian_density(grid, 0.7, 1.3)
        assert free_energy(rho, quad_pot, ModelParams(nu=1.0)).F > 1e-3

    def test_identity_with_relative_entropy(self, grid, dw_pot):
        # F(rho) = nu^2 H(rho | gamma_{0,nu}) across random densities
        rng = np.random.default_rng(3)
        for nu in (0.5, 1.0):
            gamma = gibbs(0.0, nu, dw_pot, grid)
            for _ in range(25):
                rho = random_density(grid, rng)
                f = free_energy(rho, dw_pot, ModelParams(nu=nu)).F
                h = relative_entropy(rho, gamma)
                assert abs(f - nu * nu * h) < 1e-8

    def test_convexity(self, grid, quad_pot):
        rng = np.random.default_rng(11)
        params = ModelParams(nu=1.0)
        for _ in range(10):
            r1 = random_density(grid, rng)
            r2 = random_density(grid, rng)
            f1 = free_energy(r1, quad_pot, params).F
            f2 = free_energy(r2, quad_pot, params).F
            for a in (0.25, 0.5, 0.75):
                mix = density_from_values(grid, a * r1.values + (1 - a) * r2.values)
                fm = free_energy(mix, quad_pot, params).F
                assert fm <= a * f1 + (1 - a) * f2 + 1e-10


# asymmetric double well
ASYMMETRIC = polynomial_potential([0.1, 0.09, -0.15, 0.0, 0.25])


def random_gibbs(grid, pot, rng):
    return gibbs(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 1.5)), pot, grid)


class TestRelativeEntropy:
    def test_identical_arguments(self, grid, quad_pot):
        # N(0.3, 1.2) is gamma_{0.3, sqrt(1.2)} of H = x^2/2
        gam = gibbs(0.3, math.sqrt(1.2), quad_pot, grid)
        assert abs(relative_entropy(gam.density, gam)) < 1e-12

    def test_gaussian_pair(self, grid, quad_pot):
        rho = gaussian_density(grid, 0.5, 1.0)
        gam = gibbs(0.0, 1.0, quad_pot, grid)  # N(0, 1)
        assert relative_entropy(rho, gam) == pytest.approx(gaussian_kl(0.5, 1.0, 0.0, 1.0), abs=1e-6)
        assert relative_entropy(rho, gam) == pytest.approx(0.125, abs=1e-6)

    def test_nonnegative(self, grid, dw_pot):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rho = random_density(grid, rng)
            assert relative_entropy(rho, random_gibbs(grid, dw_pot, rng)) >= -1e-10

    def test_support_mismatch(self, grid, quad_pot):
        # gamma_{0,0.3} = N(0, 0.09) underflows to 0 near the grid ends,
        # where rho = N(0, 0.5) is still positive
        rho = gaussian_density(grid, 0.0, 0.5)
        gam = gibbs(0.0, 0.3, quad_pot, grid)
        assert gam.values.min() == 0.0 and rho.values.min() > 0.0
        h = relative_entropy(rho, gam)
        oracle = gibbs_relative_entropy(rho.values, grid.x, quad_pot.h(grid.x), 0.0, 0.3, grid.dx)
        assert math.isfinite(h)
        assert h == pytest.approx(oracle, rel=1e-13)


    @settings(max_examples=60, deadline=None)
    @given(
        potential=hst.sampled_from(["quadratic", "doublewell", "polynomial"]),
        nu=hst.floats(0.2, 1.5),
        sigma=hst.floats(-1.5, 1.5),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_matches_long_double_oracle(self, grid, quad_pot, dw_pot, potential, nu, sigma, seed):
        # rho vanishes where gamma underflows to 0, so H is finite; cells
        # with 0 < gamma < 1e-300 are where a floored log of gamma reads low
        pot = {"quadratic": quad_pot, "doublewell": dw_pot, "polynomial": ASYMMETRIC}[potential]
        gam = gibbs(sigma, nu, pot, grid)
        raw = random_density(grid, np.random.default_rng(seed)).values
        rho = density_from_values(grid, np.where(gam.values > 0.0, raw, 0.0))
        oracle = gibbs_relative_entropy(rho.values, grid.x, pot.h(grid.x), sigma, nu, grid.dx)
        assert relative_entropy(rho, gam) == pytest.approx(oracle, rel=1e-13, abs=1e-15)


class TestDissipation:
    def test_vanishes_at_gibbs(self, grid, dw_pot):
        for nu in (0.5, 1.0):
            st = gibbs(0.3, nu, dw_pot, grid)
            d = dissipation(st.density, 0.3, dw_pot, ModelParams(nu=nu))
            assert d < 1e-5  # O(dx^2) squared under the integral

    def test_constant_offset_gives_sigma_squared(self, grid, quad_pot):
        st = gibbs(0.0, 1.0, quad_pot, grid)
        d = dissipation(st.density, 1.0, quad_pot, ModelParams(nu=1.0))
        assert d == pytest.approx(1.0, abs=1e-4)

    def test_nonnegative(self, grid, dw_pot):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density(grid, rng)
            assert dissipation(rho, float(rng.normal()), dw_pot, ModelParams(nu=1.0)) >= 0.0


class TestCkp:
    def test_identical(self, grid, quad_pot):
        gam = gibbs(0.0, 1.0, quad_pot, grid)  # N(0, 1)
        l1, bound = ckp_l1_bound(gam.density, gam)
        assert l1 == pytest.approx(0.0, abs=1e-12)
        assert bound == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_oracle(self, grid, quad_pot):
        rho = gaussian_density(grid, 0.5, 1.0)
        gam = gibbs(0.0, 1.0, quad_pot, grid)  # N(0, 1)
        l1, bound = ckp_l1_bound(rho, gam)
        # |rho - gamma| has a kink at the crossing: O(dx^2) quadrature error
        assert l1 == pytest.approx(gaussian_l1_distance(0.5), abs=1e-5)
        assert bound == pytest.approx(0.5, abs=1e-6)
        assert l1 <= bound

    def test_inequality_random(self, grid, dw_pot):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = random_density(grid, rng)
            l1, bound = ckp_l1_bound(rho, random_gibbs(grid, dw_pot, rng))
            assert l1 <= bound + 1e-8


class TestWeightedCkp:
    def test_identical(self, grid, dw_pot):
        gam = gibbs(0.0, 1.0, dw_pot, grid)
        wl1, cw, bound = weighted_ckp(gam.density, gam, lambda x: 0.5 * (1.0 + np.abs(x)))
        assert wl1 == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_degenerates(self, grid, quad_pot):
        rho = gaussian_density(grid, 0.4, 1.0)
        gam = gibbs(0.0, 1.0, quad_pot, grid)  # N(0, 1)
        wl1, cw, bound = weighted_ckp(rho, gam, lambda x: np.zeros_like(x))
        assert wl1 == 0.0 and cw == pytest.approx(1.0, abs=1e-10)

    def test_paper_weight_on_doublewell(self, grid, dw_pot):
        # w = min(c-, c+)/2 (1 + |x|) against gamma_{lambda(ell)}
        from cfpk.equilibrium import solve_lambda

        st = solve_lambda(0.4, 1.0, dw_pot, grid).state
        cmin = min(dw_pot.growth_constants)
        w = lambda x: 0.5 * cmin * (1.0 + np.abs(x))  # noqa: E731
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(grid, rng)
            wl1, cw, bound = weighted_ckp(rho, st, w)
            assert np.isfinite(cw) and cw > 0
            assert wl1 <= bound + 1e-8

    def test_weight_too_strong(self, grid, quad_pot):
        gam = gibbs(0.0, 1.0, quad_pot, grid)  # N(0, 1)
        rho = gaussian_density(grid, 0.5, 1.0)
        with pytest.raises(WeightTooStrongError):
            weighted_ckp(rho, gam, lambda x: 5.0 * np.abs(x))
