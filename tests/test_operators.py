"""Convolution backends, linear operators, nonlinear maps and the derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutsel.grid import Field, inner, l1_norm, restrict
from mutsel.model import build_problem, preset
from mutsel.operators import (
    ConvolutionEngine,
    OperatorError,
    combined_operator,
    full_update,
    host_map,
    host_operator,
    host_update,
    mass_bound,
    update_map,
)

BETA1_MASS = 200.0 * 0.4**3 / 6.0


def _random_density(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.random(grid.n), is_density=True)


class TestConvolution:
    def test_backends_agree(self, fig1_problem):
        direct = ConvolutionEngine(fig1_problem.kernel, fig1_problem.grid, "direct")
        fast = ConvolutionEngine(fig1_problem.kernel, fig1_problem.grid, "fft")
        for seed in range(5):
            f = _random_density(fig1_problem.grid, seed)
            a = direct.convolve(f)
            b = fast.convolve(f)
            assert l1_norm(a - b) / l1_norm(a) < 1e-10

    def test_constant_preserved_in_interior(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel, g, "fft")
        out = eng.convolve(Field(g, np.ones(g.n)))
        # kernel tails decay like exp(-dist/eps): negligible 25 widths inside
        interior = (g.nodes > g.x_min + 25 * fig1_problem.eps) & (
            g.nodes < g.x_max - 25 * fig1_problem.eps
        )
        assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-8

    def test_discrete_delta_sifts_kernel(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel, g, "direct")
        j = g.n // 2
        vals = np.zeros(g.n)
        vals[j] = 1.0 / g.quad_weights[j]
        out = eng.convolve(Field(g, vals))
        expected = fig1_problem.kernel.samples[np.arange(g.n) - j + g.n - 1]
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_mass_preserved_for_interior_support(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel, g, "fft")
        bump = np.exp(-((g.nodes - 0.55) / 0.05) ** 2)
        f = Field(g, bump, is_density=True)
        assert l1_norm(eng.convolve(f)) == pytest.approx(l1_norm(f), rel=1e-10)

    def test_unknown_mode_rejected(self, fig1_problem):
        with pytest.raises(OperatorError):
            ConvolutionEngine(fig1_problem.kernel, fig1_problem.grid, "simpson")

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_backend_agreement_property(self, seed):
        problem = _CACHE["problem"]
        f = _random_density(problem.grid, seed)
        a = ConvolutionEngine(problem.kernel, problem.grid, "direct").convolve(f)
        b = ConvolutionEngine(problem.kernel, problem.grid, "fft").convolve(f)
        assert l1_norm(a - b) / max(l1_norm(a), 1e-300) < 1e-10


# session problem for hypothesis (fixtures cannot feed @given directly)
_CACHE = {}


@pytest.fixture(autouse=True, scope="module")
def _fill_cache(fig1_problem):
    _CACHE["problem"] = fig1_problem
    yield
    _CACHE.clear()


class TestLinearOperators:
    def test_zero_maps_to_zero(self, fig1_problem):
        g = fig1_problem.grid
        op = host_operator(fig1_problem, 1)
        assert np.all(op.apply(Field(g, np.zeros(g.n))).values == 0.0)

    def test_host1_mass_on_constant(self, fig1_problem):
        g = fig1_problem.grid
        op = host_operator(fig1_problem, 1)
        out = op.apply(Field(g, np.ones(g.n)))
        # prefactor 1/2 times the quadratic bump's closed-form mass; the
        # quadrature carries an O(h^2) error from the support-end kinks
        assert l1_norm(out) == pytest.approx(0.5 * BETA1_MASS, rel=1e-4)

    def test_combined_equals_sum(self, fig1_problem):
        g = fig1_problem.grid
        f = _random_density(g, 7)
        total = combined_operator(fig1_problem).apply(f)
        parts = host_operator(fig1_problem, 1).apply(f) + host_operator(
            fig1_problem, 2
        ).apply(f)
        assert np.max(np.abs(total.values - parts.values)) < 1e-12

    def test_positivity(self, fig1_problem):
        op = combined_operator(fig1_problem)
        for seed in range(20):
            f = _random_density(fig1_problem.grid, seed)
            assert np.all(op.apply(f).values >= 0.0)

    def test_cross_support_leakage_negligible(self):
        # separated supports: host-1 output carries almost no mass on support 2
        # once the support gap spans many kernel widths
        problem = build_problem(preset("fig1"), 2e-3)
        g = problem.grid
        f = _random_density(g, 3)
        out = host_operator(problem, 1).apply(f)
        lo, hi = problem.host(2).sigma_support
        ind = np.zeros(g.n)
        ind[lo : hi + 1] = 1.0
        assert l1_norm(restrict(out, Field(g, ind))) < 1e-12

    def test_dense_matrix_matches_apply(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        f = _random_density(coarse_problem.grid, 11)
        direct = op.apply(f).values
        via_matrix = op.dense_matrix() @ f.values
        assert np.max(np.abs(direct - via_matrix)) < 1e-10

    def test_symmetrized_matrix_symmetric(self, coarse_problem):
        b = host_operator(coarse_problem, 1).dense_symmetric()
        assert np.max(np.abs(b - b.T)) < 1e-10

    def test_conjugacy_with_symmetrized_form(self, coarse_problem):
        # applying the square-root-symmetrized form to sqrt(psi) f reproduces
        # sqrt(psi) times the plain operator on the fitness support
        op = host_operator(coarse_problem, 1)
        f = _random_density(coarse_problem.grid, 5)
        s = np.sqrt(op.weight.values)
        lhs = op.symmetrized_apply_values(s * f.values)
        rhs = s * op.apply(f).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestNonlinearMaps:
    def test_zero_fixed(self, fig1_problem):
        g = fig1_problem.grid
        out = full_update(fig1_problem, Field(g, np.zeros(g.n)))
        assert np.all(out.values == 0.0)

    def test_reduces_to_linear_without_beta_mass(self, fig1_problem):
        # density supported away from beta_1's support: denominator is 1
        g = fig1_problem.grid
        vals = np.where((g.nodes > 0.95) & (g.nodes < 1.05), 1.0, 0.0)
        f = Field(g, vals, is_density=True)
        t1 = host_update(fig1_problem, 1, f)
        l1 = host_operator(fig1_problem, 1).apply(f)
        assert np.max(np.abs(t1.values - l1.values)) < 1e-14

    def test_mass_bound_value(self, fig1_problem):
        assert mass_bound(fig1_problem) == pytest.approx(1.0, rel=1e-12)

    def test_update_below_mass_bound(self, fig1_problem):
        bound = mass_bound(fig1_problem)
        for seed in range(100):
            f = _random_density(fig1_problem.grid, seed)
            out = full_update(fig1_problem, f)
            assert np.all(out.values >= 0.0)
            assert l1_norm(out) <= bound + 1e-12

    def test_update_dominated_by_linear(self, fig1_problem):
        f = _random_density(fig1_problem.grid, 13)
        t = full_update(fig1_problem, f)
        l = combined_operator(fig1_problem).apply(f)
        assert np.all(t.values <= l.values + 1e-14)

    def test_rejects_negative_density(self, fig1_problem):
        g = fig1_problem.grid
        with pytest.raises(OperatorError):
            full_update(fig1_problem, Field(g, np.full(g.n, -1.0)))


class TestDerivative:
    def test_derivative_at_zero_is_linear_operator(self, fig1_problem):
        g = fig1_problem.grid
        tmap = update_map(fig1_problem)
        h = _random_density(g, 17)
        dh = tmap.linearized_values(np.zeros(g.n), h.values)
        lh = combined_operator(fig1_problem).apply(h).values
        assert np.max(np.abs(dh - lh)) < 1e-12

    def test_linearity_in_direction(self, fig1_problem):
        g = fig1_problem.grid
        tmap = update_map(fig1_problem)
        a = _random_density(g, 1).values
        h1 = _random_density(g, 2).values
        h2 = _random_density(g, 3).values
        lhs = tmap.linearized_values(a, 2.5 * h1 + h2)
        rhs = 2.5 * tmap.linearized_values(a, h1) + tmap.linearized_values(a, h2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_matches_central_differences(self, fig1_problem):
        g = fig1_problem.grid
        tmap = update_map(fig1_problem)
        a = _random_density(g, 21).values
        h = _random_density(g, 22).values - 0.5
        delta = 1e-7
        fd = (tmap.apply_values(a + delta * h) - tmap.apply_values(a - delta * h)) / (
            2 * delta
        )
        an = tmap.linearized_values(a, h)
        rel = np.sum(g.quad_weights * np.abs(fd - an)) / np.sum(
            g.quad_weights * np.abs(an)
        )
        assert rel < 1e-6

    def test_contraction_identity_at_fixed_point(self, fig1_problem, fig1_state):
        # at a steady state the derivative applied to the state itself stays
        # strictly below the state wherever it is positive
        tmap = update_map(fig1_problem)
        a = fig1_state.A.values
        da = tmap.linearized_values(a, a)
        pos = a > 1e-8
        assert np.all(da[pos] < a[pos])


class TestOneConvolutionCore:
    def test_one_convolution_per_map_application(self, fig1_problem, monkeypatch):
        calls = []
        convolve = ConvolutionEngine.convolve_values

        def counted(self, values):
            calls.append(len(values))
            return convolve(self, values)

        monkeypatch.setattr(ConvolutionEngine, "convolve_values", counted)
        a = _random_density(fig1_problem.grid, 4)
        for tmap in (update_map(fig1_problem), host_map(fig1_problem, 1)):
            for expected in (1, 2, 3):
                tmap.apply_values(a.values)
                assert len(calls) == expected
            calls.clear()

    def test_toeplitz_view_is_the_index_gather(self, coarse_problem):
        n = coarse_problem.grid.n
        idx = np.arange(n)
        gathered = coarse_problem.kernel.samples[idx[:, None] - idx[None, :] + n - 1]
        view = ConvolutionEngine(coarse_problem.kernel, coarse_problem.grid).toeplitz()
        assert np.array_equal(view, gathered)

    def test_denominators_are_the_saturation_terms(self, fig1_problem):
        a = _random_density(fig1_problem.grid, 9)
        den = update_map(fig1_problem).denominators(a.values)
        theta = fig1_problem.mp.theta
        for k in (1, 2):
            expected = 1.0 + inner(fig1_problem.host(k).beta, a) / theta
            assert den[k - 1] == pytest.approx(expected, rel=1e-14)

    def test_coupled_map_is_sum_of_host_maps(self, fig1_problem):
        a = _random_density(fig1_problem.grid, 10)
        total = full_update(fig1_problem, a).values
        parts = host_update(fig1_problem, 1, a).values + host_update(fig1_problem, 2, a).values
        assert np.max(np.abs(total - parts)) < 1e-14 * np.max(np.abs(total))

    def test_host_map_dense_derivative_matches_apply(self, coarse_problem):
        tmap = host_map(coarse_problem, 2)
        rng = np.random.default_rng(12)
        a = rng.random(coarse_problem.grid.n)
        h = rng.standard_normal(coarse_problem.grid.n)
        dh = tmap.dense_derivative(a) @ h
        assert np.max(np.abs(dh - tmap.linearized_values(a, h))) < 1e-10
