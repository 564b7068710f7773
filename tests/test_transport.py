import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from cfpk.core import (
    ConstraintPath,
    Density,
    Grid,
    ModelParams,
    constant_path,
    doublewell_potential,
    exp_decay_path,
    gaussian_density,
    density_from_values,
    integrate,
    moments,
    quadratic_potential,
)
from cfpk import transport
from cfpk.equilibrium import solve_lambda
from cfpk.errors import ContractViolation, StepError
from cfpk.fpsolver import run as fv_run
from cfpk.functionals import dissipation
from cfpk.sampling import random_density
from cfpk.transport import jko_run, quantile_to_density, to_quantile

from oracles import (
    discrete_sigma_series,
    exact_w2_histograms,
    gaussian_w2,
    jko_gaussian_step_variance,
    quantile_free_energy,
    reference_inner_solve,
    reference_quantile_to_density,
    w2,
    weak_form_residual,
)


class TestQuantile:
    def test_uniform_identity(self):
        g = Grid(0.0, 1.0, 256)
        rho = density_from_values(g, np.ones(g.n))
        q = to_quantile(rho, 256)
        assert np.max(np.abs(q - (np.arange(256) + 0.5) / 256)) < g.dx

    def test_median_of_gaussian(self, grid):
        rho = gaussian_density(grid, 0.0, 1.0)
        q = to_quantile(rho, 1000)
        assert abs(q[499]) < grid.dx  # s = 0.4995 near the median

    def test_monotone(self, grid, dw_pot):
        from cfpk.equilibrium import gibbs

        rho = gibbs(0.0, 0.5, dw_pot, grid).density
        q = to_quantile(rho, 512)
        assert np.all(np.diff(q) > 0.0)

    def test_mean_preserved_exactly(self, grid):
        rho = gaussian_density(grid, 0.37, 1.44)
        q = to_quantile(rho, 777)
        assert float(np.mean(q)) == pytest.approx(moments(rho)[0], abs=1e-13)

    def test_roundtrip_w2(self, grid):
        rho = gaussian_density(grid, 0.3, 1.0)
        back = quantile_to_density(to_quantile(rho, 2048), grid)
        assert w2(rho, back, 2048) < 2.0 * grid.dx
        assert moments(back)[0] == pytest.approx(moments(rho)[0], abs=1e-10)

    def test_m_minimum(self, grid):
        rho = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation):
            to_quantile(rho, 32)

    def test_one_validated_density_per_projection(self, grid, monkeypatch):
        # a JKO step validates exactly one grid density: the projection
        # builds no intermediate Density, and neither does the constructor
        built = []
        validate = Density.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Density, "__post_init__", counted)
        x = random_quantiles(5, 512)
        dens = quantile_to_density(x, grid)
        assert len(built) == 1 and built[0] is dens
        assert moments(dens)[0] == pytest.approx(float(np.mean(x)), abs=1e-12)
        built.clear()
        rho = density_from_values(grid, np.exp(-grid.x**2))
        assert len(built) == 1 and built[0] is rho


PROPERTY_GRID = Grid(-8.0, 8.0, 256)


def random_quantiles(seed: int, m: int, width: float | None = None, center: float | None = None) -> np.ndarray:
    """m strictly increasing samples, with increments between 1/25 and 1 of
    the largest, spread over `width` length units (drawn from 1 to 8) with
    mean `center` (drawn from -2 to 2)."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 5.0, m - 1))])
    x *= (rng.uniform(1.0, 8.0) if width is None else width) / x[-1]
    return x + ((rng.uniform(-2.0, 2.0) if center is None else center) - float(np.mean(x)))


class TestQuantileProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(64, 512))
    def test_density_has_unit_mass_and_the_quantile_mean(self, seed, m):
        x = random_quantiles(seed, m)
        dens = quantile_to_density(x, PROPERTY_GRID)
        assert integrate(dens.values, dens.grid) == pytest.approx(1.0, abs=1e-12)
        assert moments(dens)[0] == pytest.approx(float(np.mean(x)), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(64, 512))
    def test_roundtrip_through_the_grid(self, seed, m):
        # the histogram's CDF agrees with the quantile's at every cell edge
        # up to the mean-restoring tilt, so each sample comes back within
        # about one cell
        x = random_quantiles(seed, m)
        back = to_quantile(quantile_to_density(x, PROPERTY_GRID), m)
        assert np.all(np.diff(back) > 0.0)
        assert float(np.max(np.abs(back - x))) <= 2.0 * PROPERTY_GRID.dx
        assert float(np.mean(back)) == pytest.approx(float(np.mean(x)), abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        potential=hst.sampled_from(["quadratic", "doublewell"]),
        nu=hst.sampled_from([0.6, 0.8, 1.0]),
        ell_star=hst.floats(-0.5, 0.5),
        amplitude=hst.floats(-0.5, 0.5),
    )
    def test_chain_quantiles_stay_increasing(self, seed, potential, nu, ell_star, amplitude):
        pot = quadratic_potential(1.0) if potential == "quadratic" else doublewell_potential()
        path = exp_decay_path(ell_star, amplitude, 1.0)
        rho0 = random_density(PROPERTY_GRID, np.random.default_rng(seed), mean=path.ell(0.0))
        recs = jko_run(rho0, path, 0.02, 0.1, pot, ModelParams(nu=nu))
        assert np.all(np.diff(recs["quantile"], axis=1) > 0.0)
        assert np.max(np.abs(recs["M1"] - recs["ell"])) <= 1e-8


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
            a = density_from_values(g, rng.uniform(0.1, 1.0, g.n))
            b = density_from_values(g, rng.uniform(0.1, 1.0, g.n))
            exact = exact_w2_histograms(a, b)
            sampled = w2(a, b, 1 << 17)
            assert sampled == pytest.approx(exact, abs=1e-6)


class TestJkoStep:
    # one step of the chain: jko_run on [0, h]

    def test_fixed_point_quadratic(self, quad_pot):
        g = Grid(-12.0, 12.0, 8192)
        sol = solve_lambda(0.7, 1.0, quad_pot, g)
        params = ModelParams()
        rec = jko_run(sol.state.density, constant_path(0.7), 1e-5, 1e-5, quad_pot, params, m=2048)
        assert math.sqrt(rec["W2sq_step"][0]) <= 1e-6
        assert abs(rec["sigma"][0] - sol.lam) <= 1e-6
        assert abs(rec["M1"][0] - 0.7) <= 1e-8
        assert rec["kkt_residual"][0] <= 1e-7

    def test_fixed_point_doublewell(self, dw_pot):
        g = Grid(-12.0, 12.0, 8192)
        sol = solve_lambda(1.0, 0.5, dw_pot, g)
        params = ModelParams(nu=0.5)
        rec = jko_run(sol.state.density, constant_path(1.0), 1e-5, 1e-5, dw_pot, params, m=2048)
        assert math.sqrt(rec["W2sq_step"][0]) <= 1e-6
        assert abs(rec["sigma"][0] - sol.lam) <= 1e-6

    def test_gaussian_one_step_oracle(self, quad_pot):
        g = Grid(-12.0, 12.0, 4096)
        rho = gaussian_density(g, 0.5, 1.44)
        h = 0.01
        rec = jko_run(rho, constant_path(0.5), h, h, quad_pot, ModelParams(), m=4096)
        m1, _, v = moments(quantile_to_density(rec["quantile"][0], g))
        assert m1 == pytest.approx(0.5, abs=1e-8)
        v_oracle = jko_gaussian_step_variance(1.44, h)
        assert (v - 1.44) == pytest.approx(v_oracle - 1.44, rel=0.08)

    def test_constraint_enforced(self, grid, dw_pot):
        # one step moves the mean from ell(0) = 0.1 to ell(h) = 0.35
        rho = gaussian_density(grid, 0.1, 0.8)
        h = 0.02
        path = ConstraintPath(
            ell=lambda t: 0.1 + 0.25 * t / h, ell_dot=lambda t: 0.25 / h, ell_star=0.35
        )
        rec = jko_run(rho, path, h, h, dw_pot, ModelParams(nu=0.8))
        assert abs(rec["M1"][0] - 0.35) <= 1e-8
        assert rec["W2sq_step"][0] >= 0.0


class TestInnerSolve:
    # one Newton solve that moves the mean from 0.1 to 0.3 at h = 0.02

    @pytest.fixture
    def step(self, grid, dw_pot):
        y = to_quantile(gaussian_density(grid, 0.1, 0.8), 256)
        return y, 0.3, 0.02, dw_pot, 0.8

    def test_singular_first_solve_is_shifted_and_retried(self, step, monkeypatch):
        x_ref, mu_ref, _, _ = transport._inner_solve(*step)
        real = transport.solve_banded
        diags = []

        def singular_once(sub, diag, sup, rhs):
            diags.append(diag.copy())
            if len(diags) == 1:
                return rhs, 1
            return real(sub, diag, sup, rhs)

        monkeypatch.setattr(transport, "solve_banded", singular_once)
        x, mu, _, _ = transport._inner_solve(*step)
        np.testing.assert_array_equal(diags[1], diags[0] + 1e-8)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-9)
        assert mu == pytest.approx(mu_ref, abs=1e-7)

    def test_always_singular_is_a_step_error(self, step, monkeypatch):
        monkeypatch.setattr(transport, "solve_banded", lambda sub, diag, sup, rhs: (rhs, 1))
        with pytest.raises(StepError, match="could not be regularized"):
            transport._inner_solve(*step)

    @pytest.mark.parametrize("derivative", ["h1", "h2"])
    def test_non_finite_newton_system_is_a_step_error(self, step, derivative):
        y, ell_k, h_eff, pot, nu = step
        broken = dataclasses.replace(pot, **{derivative: lambda x: np.full_like(x, np.nan)})
        with pytest.raises(StepError, match="non-finite Newton system"):
            transport._inner_solve(y, ell_k, h_eff, broken, nu)


class TestKernelsMatchTheirReferences:
    # the hot-path kernels repeat the float operations of their first
    # versions (tests/oracles.py) with fewer numpy calls: bit for bit

    @settings(max_examples=30, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        m=hst.integers(64, 512),
        potential=hst.sampled_from(["quadratic", "doublewell"]),
        width=hst.floats(0.5, 8.0),
        shift=hst.floats(-0.5, 0.5),
        h_eff=hst.floats(1e-3, 0.1),
        nu=hst.floats(0.4, 1.5),
    )
    def test_inner_solve(self, seed, m, potential, width, shift, h_eff, nu):
        pot = quadratic_potential(1.0) if potential == "quadratic" else doublewell_potential()
        y = random_quantiles(seed, m, width, 0.3)
        x, mu, it, res = transport._inner_solve(y, 0.3 + shift, h_eff, pot, nu)
        want = reference_inner_solve(y, 0.3 + shift, h_eff, pot, nu)
        np.testing.assert_array_equal(x, want[0])
        assert (mu, it, res) == want[1:]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        m=hst.integers(64, 512),
        log_width=hst.floats(-3.0, 1.5),
        center=hst.floats(-10.0, 10.0),
    )
    @example(seed=1, m=100, log_width=1.5, center=0.0)  # mass past both grid ends
    @example(seed=1, m=100, log_width=0.5, center=9.0)  # the tilt guard skips the tilt
    @example(seed=1, m=100, log_width=-2.0, center=0.03)  # one cell: no variance
    def test_quantile_to_density(self, seed, m, log_width, center):
        x = random_quantiles(seed, m, 10.0**log_width, center)
        got = quantile_to_density(x, PROPERTY_GRID)
        np.testing.assert_array_equal(got.values, reference_quantile_to_density(x, PROPERTY_GRID).values)


class TestJkoRun:
    def test_stationary_run(self, dw_pot):
        g = Grid(-12.0, 12.0, 8192)
        nu = 0.8
        sol = solve_lambda(0.3, nu, dw_pot, g)
        recs = jko_run(sol.state.density, constant_path(0.3), 2e-4, 2e-3, dw_pot, ModelParams(nu=nu))
        assert np.all(recs["W2sq_step"] <= 1e-10)
        assert np.max(recs["F"]) - np.min(recs["F"]) < 1e-5

    def test_step_count_guard(self, grid, quad_pot, monkeypatch):
        # an h that schedules more than MAX_STEPS steps is refused before
        # the first step
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(transport, "_inner_solve", no_step)
        rho0 = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ContractViolation, match="exceeds the limit"):
            jko_run(rho0, constant_path(0.0), 1e-300, 1.0, quad_pot, ModelParams())

    @pytest.mark.parametrize(
        "h,T,lengths", [(0.3, 1.0, [0.3, 0.3, 1.0 - 0.6]), (0.02, 0.005, [0.02])], ids=["stretched", "below-h"]
    )
    def test_chain_ends_at_T(self, grid, quad_pot, monkeypatch, h, T, lengths):
        # the steps end on an FV run's record times with dt = h, without
        # t = 0: where h does not divide T the last step runs on to T and
        # takes h_eff and D from its own length, and a horizon below h is
        # one step, to h
        spans = []
        inner = transport._inner_solve

        def recorded(y, ell_k, h_eff, pot, nu):
            spans.append(h_eff)
            return inner(y, ell_k, h_eff, pot, nu)

        monkeypatch.setattr(transport, "_inner_solve", recorded)
        recs = jko_run(gaussian_density(grid, 0.3, 1.2), constant_path(0.3), h, T, quad_pot, ModelParams(tau=2.0))
        assert recs["t"].tolist() == [k * h for k in range(1, len(lengths))] + [max(T, h)]
        assert spans == [length / 2.0 for length in lengths]
        w2sq = recs["W2sq_step"].tolist()
        assert recs["D"].tolist() == [(2.0 / length) ** 2 * w for length, w in zip(lengths, w2sq)]
        assert len(recs["quantile"]) == len(lengths)

    def test_step_error_names_the_step(self, grid, quad_pot, monkeypatch):
        # the chain runs in the shared record loop, which buffers its
        # states: a step error still names the step it failed in
        inner = transport._inner_solve
        calls = []

        def fail_at_3(*args):
            calls.append(None)
            if len(calls) == 3:
                raise StepError("injected step failure")
            return inner(*args)

        monkeypatch.setattr(transport, "_inner_solve", fail_at_3)
        recs = None
        with pytest.raises(StepError, match="injected") as exc:
            recs = jko_run(gaussian_density(grid, 0.0, 1.0), constant_path(0.0), 0.01, 0.1, quad_pot, ModelParams())
        assert exc.value.diagnostics == {"step": 3}
        assert recs is None and len(calls) == 3

    def test_constraint_tracking(self, grid, dw_pot):
        path = exp_decay_path(0.2, 0.3, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        recs = jko_run(rho0, path, 0.02, 0.5, dw_pot, ModelParams(nu=0.8))
        assert np.max(np.abs(recs["M1"] - recs["ell"])) <= 1e-8

    def test_descent_with_constant_constraint(self, grid, dw_pot):
        params = ModelParams(nu=0.8)
        rho0 = gaussian_density(grid, 0.3, 0.5)
        h = 0.02
        recs = jko_run(rho0, constant_path(0.3), h, 0.4, dw_pot, params)
        from cfpk.functionals import log_partition

        # scheme inequality: F(rho_k) + W2^2/(2 h_eff) <= F(rho_{k-1})
        logz0 = log_partition(dw_pot, grid, params.nu)
        f_prev = None
        for quantile, w2sq in zip(recs["quantile"], recs["W2sq_step"].tolist()):
            f_here = quantile_free_energy(quantile, dw_pot, params.nu, logz0)
            if f_prev is not None:
                assert f_here + w2sq / (2.0 * h) <= f_prev + 1e-10
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
            sums[h] = float(np.sum(recs["W2sq_step"]))
            sups[h] = float(np.max(recs["M2"]))
        assert sums[0.04] > sums[0.02] > sums[0.01]
        ratios = [sums[h] / h for h in (0.04, 0.02, 0.01)]
        assert max(ratios) / min(ratios) < 1.5
        assert max(sups.values()) / min(sups.values()) < 1.2

    def test_initial_projection(self, grid, dw_pot):
        rho0 = gaussian_density(grid, 1.3, 0.7)  # mean far from ell(0)
        recs = jko_run(rho0, constant_path(0.2), 0.02, 0.1, dw_pot, ModelParams(nu=0.8))
        assert abs(recs["M1"][0] - 0.2) <= 1e-8

    @staticmethod
    def forced_chain(grid, pot, tau):
        # the jko_chain benchmark's model, path and step, for T = 1
        params = ModelParams(tau=tau, nu=0.8)
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = solve_lambda(path.ell(0.0), params.nu, pot, grid).state.density
        return jko_run(rho0, path, 0.01, 1.0, pot, params), (rho0, path, pot, params)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_dissipation_is_the_metric_slope(self, grid, dw_pot, tau):
        # D = tau^2 W2sq_step / h^2, the step's squared metric slope, matches
        # the FV run's D on the same path to 1.1% at h = 0.01 once the first
        # steps are past (t >= 0.1)
        jko, (rho0, path, pot, params) = self.forced_chain(grid, dw_pot, tau)
        fv = fv_run(rho0, path, 1e-3, pot, params, 1.0, record_every=10)
        np.testing.assert_allclose(fv["t"][1:], jko["t"], rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(jko["D"], (tau / 0.01) ** 2 * jko["W2sq_step"])
        late = jko["t"] >= 0.1 - 1e-12
        assert np.max(np.abs(jko["D"][late] / fv["D"][1:][late] - 1.0)) <= 0.02

    def test_dissipation_is_not_the_grid_formula(self, grid, dw_pot):
        # the grid formula on the projected states reads hundreds to
        # thousands, over 1,000 times D: its excess comes from the cells at
        # the edge of the truncated support that quantile_to_density fills
        jko, (_, _, pot, params) = self.forced_chain(grid, dw_pot, 1.0)
        states = (quantile_to_density(x, grid) for x in jko["quantile"])
        formula = np.array([dissipation(rho, s, pot, params) for rho, s in zip(states, jko["sigma"].tolist())])
        assert np.min(formula) > 100.0 * np.max(jko["D"])

    def test_shift_comparison(self, grid, dw_pot):
        # minimality against the translated competitor:
        # F(rho_k) + W2^2(rho_k, rho_{k-1})/(2h) <= F(a rho_{k-1}) + a^2/(2h)
        from cfpk.functionals import log_partition

        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.2, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.6)
        h = 0.02
        recs = jko_run(rho0, path, h, 0.4, dw_pot, params)
        logz0 = log_partition(dw_pot, grid, params.nu)
        x_prev = to_quantile(rho0, grid.n)
        x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
        for ell, quantile, w2sq in zip(recs["ell"].tolist(), recs["quantile"], recs["W2sq_step"].tolist()):
            a = ell - float(np.mean(x_prev))
            lhs = quantile_free_energy(quantile, dw_pot, params.nu, logz0) + w2sq / (2 * h)
            rhs = quantile_free_energy(x_prev + a, dw_pot, params.nu, logz0) + a * a / (2 * h)
            assert lhs <= rhs + 1e-10
            x_prev = quantile


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
            discrete_sigma_series({"t": np.empty(0), "sigma": np.empty(0)})


class TestWeakForm:
    def test_residual_bounded(self, grid, dw_pot):
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.5)
        h = 0.02
        recs = jko_run(rho0, path, h, 0.5, dw_pot, params)
        zeta = (lambda x: x**2, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x))
        x_prev = to_quantile(rho0, grid.n)
        x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
        for quantile, sigma in zip(recs["quantile"], recs["sigma"].tolist()):
            res, bound = weak_form_residual(x_prev, quantile, sigma, h, *zeta, dw_pot, params)
            assert res <= bound + 1e-9
            x_prev = quantile

    def test_h_to_zero_consistency(self, grid, dw_pot):
        # residual of the weak form against a smooth zeta shrinks with h
        params = ModelParams(nu=0.8)
        path = exp_decay_path(0.3, 0.4, 1.0)
        rho0 = gaussian_density(grid, path.ell(0.0), 0.5)
        zeta = (lambda x: np.sin(x), lambda x: np.cos(x), lambda x: -np.sin(x))
        worst = {}
        for h in (0.04, 0.01):
            recs = jko_run(rho0, path, h, 0.4, dw_pot, params)
            x_prev = to_quantile(rho0, grid.n)
            x_prev = x_prev + (path.ell(0.0) - float(np.mean(x_prev)))
            vals = []
            for quantile, sigma in zip(recs["quantile"], recs["sigma"].tolist()):
                res, _ = weak_form_residual(x_prev, quantile, sigma, h, *zeta, dw_pot, params)
                vals.append(res)
                x_prev = quantile
            worst[h] = max(vals)
        assert worst[0.01] < worst[0.04]
