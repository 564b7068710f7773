import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cfpk.core import (
    MAX_CELLS,
    MAX_STEPS,
    MIN_STEP,
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    constant_path,
    doublewell_potential,
    exp_decay_path,
    gaussian_density,
    integrate,
    density_from_values,
    moments,
    polynomial_potential,
    quadratic_potential,
    step_count,
    tanh_ramp_path,
)
from cfpk.errors import ContractViolation, DegenerateInputError

from oracles import quadrature_antiderivative


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ContractViolation):
            Grid(1.0, 0.0, 100)
        with pytest.raises(ContractViolation):
            Grid(0.0, 1.0, 4)
        assert Grid(0.0, 1.0, MAX_CELLS).n == MAX_CELLS  # no array is built
        with pytest.raises(ContractViolation, match=f"n <= {MAX_CELLS}"):
            Grid(0.0, 1.0, MAX_CELLS + 1)
        g = Grid(0.0, 1.0, 100)
        assert g.dx == pytest.approx(0.01)
        assert g.x[0] == pytest.approx(0.005)
        assert len(g.edges) == 101

    @pytest.mark.parametrize("name", ["x", "edges"])
    def test_one_read_only_array_per_grid(self, name):
        g = Grid(-1.0, 1.0, 64)
        arr = getattr(g, name)
        assert getattr(g, name) is arr and getattr(Grid(-1.0, 1.0, 64), name) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
        np.testing.assert_array_equal(g.edges, -1.0 + np.arange(65) * g.dx)
        np.testing.assert_array_equal(g.x, -1.0 + (np.arange(64) + 0.5) * g.dx)


class TestIntegrate:
    def test_constant(self):
        g = Grid(0.0, 1.0, 100)
        assert integrate(np.ones(100), g) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = Grid(0.0, 1.0, 100)
        assert integrate(g.x, g) == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_vs_antiderivative(self):
        g = Grid(-1.0, 1.0, 200)
        expected = quadrature_antiderivative(lambda x: x**3 / 3.0, -1.0, 1.0)
        assert integrate(g.x**2, g) == pytest.approx(expected, abs=1e-4)

    def test_length_mismatch(self):
        g = Grid(0.0, 1.0, 100)
        with pytest.raises(ContractViolation):
            integrate(np.ones(99), g)

    def test_refinement_is_second_order(self):
        # integrand with nonzero boundary derivative sits in the dx^2 regime;
        # halving dx must cut the error by at least 3.5
        exact = quadrature_antiderivative(lambda x: x**3 / 3.0, -2.0, 2.0)

        def err(n):
            g = Grid(-2.0, 2.0, n)
            return abs(integrate(g.x**2, g) - exact)

        assert err(128) / err(256) >= 3.5


class TestDensity:
    def test_moments_gaussian(self):
        g = Grid(-10.0, 10.0, 2000)
        rho = gaussian_density(g, 0.0, 1.0)
        m1, m2, var = moments(rho)
        assert abs(m1) < 1e-6
        assert m2 == pytest.approx(1.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_mean_translation(self):
        g = Grid(-10.0, 10.0, 2000)
        rho = gaussian_density(g, 1.7, 0.01)
        assert moments(rho)[0] == pytest.approx(1.7, abs=1e-8)

    def test_symmetric_mean_zero(self):
        g = Grid(-10.0, 10.0, 2000)
        rho = gaussian_density(g, 0.0, 2.0)
        assert abs(moments(rho)[0]) < 1e-10

    def test_variance_nonnegative(self):
        g = Grid(-5.0, 5.0, 64)
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = density_from_values(g, rng.uniform(0.0, 1.0, g.n))
            assert moments(rho)[2] >= 0.0

    def test_negative_values_rejected(self):
        g = Grid(0.0, 1.0, 16)
        vals = np.ones(16)
        vals[3] = -0.5
        with pytest.raises(ContractViolation):
            Density(g, vals)


class TestNormalize:
    """density_from_values, the one constructor from raw values."""

    def test_constant_rescale(self):
        g = Grid(0.0, 1.0, 100)
        rho = density_from_values(g, 2.0 * np.ones(100))
        assert np.allclose(rho.values, 1.0)

    def test_idempotent(self):
        g = Grid(-8.0, 8.0, 512)
        rho = gaussian_density(g, 0.0, 1.0)
        again = density_from_values(g, rho.values)
        assert np.max(np.abs(again.values - rho.values)) < 1e-14

    def test_small_mass_rescaled(self):
        g = Grid(-8.0, 8.0, 512)
        rho = gaussian_density(g, 0.0, 1.0)
        scaled = density_from_values(g, rho.values * 1e-3)
        assert integrate(scaled.values, g) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(DegenerateInputError):
            density_from_values(g, np.zeros(16))

    def test_negatives_clipped(self):
        g = Grid(0.0, 1.0, 16)
        vals = np.ones(16)
        vals[3] = -1e-17
        rho = density_from_values(g, vals)
        assert rho.values[3] == 0.0 and np.all(rho.values[np.arange(16) != 3] == 16.0 / 15.0)


class TestPotentials:
    def test_quadratic(self, grid):
        pot = quadratic_potential(2.0)
        pot.validate_on(grid)
        assert pot.convexity_lower_bound == 2.0
        assert pot.h1(np.array([1.5]))[0] == pytest.approx(3.0)

    def test_doublewell_derivatives(self, grid, dw_pot):
        dw_pot.validate_on(grid)
        x = np.linspace(-3.0, 3.0, 11)
        d = 1e-5
        fd1 = (dw_pot.h(x + d) - dw_pot.h(x - d)) / (2 * d)
        fd2 = (dw_pot.h1(x + d) - dw_pot.h1(x - d)) / (2 * d)
        fd3 = (dw_pot.h2(x + d) - dw_pot.h2(x - d)) / (2 * d)
        assert np.max(np.abs(fd1 - dw_pot.h1(x))) < 1e-8
        assert np.max(np.abs(fd2 - dw_pot.h2(x))) < 1e-7
        assert np.max(np.abs(fd3 - dw_pot.h3(x))) < 1e-6

    def test_doublewell_landmarks(self, dw_pot):
        # minima at +-sqrt(3) with value 0, local max 1 at the origin
        assert dw_pot.h(np.array([math.sqrt(3.0)]))[0] == pytest.approx(0.0, abs=1e-14)
        assert dw_pot.h(np.array([0.0]))[0] == pytest.approx(1.0)
        assert dw_pot.h2(np.array([0.0]))[0] == pytest.approx(-2.0)

    def test_polynomial(self, grid):
        pot = polynomial_potential([0.0, 0.0, 0.5])
        pot.validate_on(grid)
        x = np.array([2.0])
        assert pot.h(x)[0] == pytest.approx(2.0)
        assert pot.h1(x)[0] == pytest.approx(2.0)
        assert pot.h2(x)[0] == pytest.approx(1.0)

    def test_polynomial_constants_from_the_grid_interval(self, grid):
        # H'' = 2 + x^2: the certificate is its minimum 2 at x = 0, where
        # the even grid has no cell center; c-+ are H'' at x_min and x_max
        pot = polynomial_potential([0.0, 0.0, 1.0, 0.0, 1.0 / 12.0], grid)
        assert pot.convexity_lower_bound == 2.0
        assert pot.growth_constants == (146.0, 146.0)
        fallback = polynomial_potential([0.0, 0.0, 1.0, 0.0, 1.0 / 12.0])
        assert fallback.growth_constants == (102.0, 102.0)  # |x| = 10

    @settings(max_examples=60, deadline=None)
    @given(
        name=hst.sampled_from(["quadratic", "doublewell", "polynomial"]),
        xs=hst.lists(hst.floats(-1e3, 1e3), min_size=1, max_size=40),
    )
    def test_jet_is_the_separate_calls_bit_for_bit(self, name, xs):
        pot = {
            "quadratic": lambda: quadratic_potential(1.5),
            "doublewell": doublewell_potential,
            "polynomial": lambda: polynomial_potential([0.3, -0.2, 0.5, 0.0, 0.1]),
        }[name]()
        x = np.array(xs + [0.0])
        hv, h1v, h2 = pot.jet(x)
        for got, want in ((hv, pot.h(x)), (h1v, pot.h1(x)), (h2(), pot.h2(x))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("replaced", ["h", "h1", "h2"])
    def test_jet_falls_back_when_a_function_is_replaced(self, dw_pot, replaced):
        # the fused pass stands for h, h1 and h2 only while all three carry it
        x = np.linspace(-3.0, 3.0, 13)
        pot = dataclasses.replace(dw_pot, **{replaced: lambda v: np.full_like(v, 7.0)})
        hv, h1v, h2 = pot.jet(x)
        got = {"h": hv, "h1": h1v, "h2": h2()}
        for key, value in got.items():
            want = np.full_like(x, 7.0) if key == replaced else getattr(dw_pot, key)(x)
            np.testing.assert_array_equal(value, want)

    def test_polynomial_must_confine(self):
        with pytest.raises(ContractViolation):
            polynomial_potential([0.0, 1.0])  # linear, not confining


class TestConstraintPaths:
    def test_constant(self):
        p = constant_path(0.5)
        assert p.ell(3.0) == 0.5 and p.ell_dot(3.0) == 0.0 and p.ell_star == 0.5

    def test_exp_decay_envelope(self):
        p = exp_decay_path(0.5, 0.3, 1.0)
        p.check_decay(np.linspace(0.0, 20.0, 50))
        assert p.ell(0.0) == pytest.approx(0.8)
        d = 1e-6
        fd = (p.ell(1.0 + d) - p.ell(1.0 - d)) / (2 * d)
        assert fd == pytest.approx(p.ell_dot(1.0), abs=1e-7)
        assert abs(p.ell(40.0) - p.ell_star) < 1e-15

    def test_tanh_ramp_envelope(self):
        p = tanh_ramp_path(0.0, 1.0, 2.0, 0.5)
        p.check_decay(np.linspace(0.0, 30.0, 100))
        d = 1e-6
        for t in (0.5, 2.0, 4.0):
            fd = (p.ell(t + d) - p.ell(t - d)) / (2 * d)
            assert fd == pytest.approx(p.ell_dot(t), abs=1e-6)

    def test_tanh_ramp_far_from_center(self):
        # ell_dot stays finite and nonnegative where cosh(z)^2 overflows
        p = tanh_ramp_path(0.0, 1.0, 0.1, 0.001)
        for t in (-1.0, 0.45, 0.454, 2.0):
            assert 0.0 <= p.ell_dot(t) < 1e-150
        assert p.ell_dot(0.1) == pytest.approx(500.0)
        # exp(2 t0/w) of the envelope overflows past t0/w ~ 355
        with pytest.raises(ContractViolation, match="overflows"):
            tanh_ramp_path(0.0, 1.0, 1000.0, 0.5)

    def test_step_count_guard(self):
        assert step_count(1.0, 1e-3) == 1000
        assert step_count(1e-16, 1e-3) == 1  # a positive horizon takes at least one step
        assert step_count(float(MAX_STEPS), 1.0) == MAX_STEPS
        for T, dt in ((MAX_STEPS + 1.0, 1.0), (1.0, 1e-300), (1e300, 1e-300)):
            with pytest.raises(ContractViolation, match="exceeds the limit"):
                step_count(T, dt)

    def test_step_floor(self):
        assert step_count(MIN_STEP, MIN_STEP) == 1
        for T, dt in ((1e-300, 1e-305), (1e-160, 1e-160), (1e-100, 0.5 * MIN_STEP)):
            with pytest.raises(ContractViolation, match="below the floor"):
                step_count(T, dt)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: quadratic_potential(math.nan), "k"),
            (lambda: quadratic_potential(math.inf), "k"),
            (lambda: polynomial_potential([0.0, 0.0, 0.5, math.nan]), "coeffs[3]"),
            (lambda: polynomial_potential([0.0, math.inf, 0.5]), "coeffs[1]"),
            (lambda: constant_path(math.inf), "l"),
            (lambda: exp_decay_path(0.0, 1.0, math.nan), "kappa"),
            (lambda: tanh_ramp_path(0.0, 1.0, 0.0, math.nan), "w"),
        ],
        ids=["quadratic-nan", "quadratic-inf", "polynomial-nan", "polynomial-inf", "constant-inf",
             "exp_decay-nan", "tanh_ramp-nan"],
    )
    def test_non_finite_parameter_is_named(self, build, name):
        # `k <= 0` and the like are false for NaN, so each constructor checks
        # finiteness itself, naming the parameter, instead of failing later
        with pytest.raises(ContractViolation, match=rf"need finite {re.escape(name)}[ ,]"):
            build()

    def test_params_validation(self):
        with pytest.raises(ContractViolation):
            ModelParams(tau=0.0, nu=1.0)
        with pytest.raises(ContractViolation):
            ModelParams(tau=1.0, nu=-1.0)
        for nu in (1e200, 1e-200):  # nu^2 overflows to inf or underflows to 0
            with pytest.raises(ContractViolation, match="nu_squared"):
                ModelParams(nu=nu)
