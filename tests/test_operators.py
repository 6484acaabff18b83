"""The convolution, linear operators, nonlinear maps and the derivative."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutsel.grid import Field, TraitGrid, inner, l1_norm
from mutsel.model import MutationKernel, build_problem, preset
from mutsel.operators import (
    ConvolutionEngine,
    OperatorError,
    UpdateMap,
    combined_operator,
    gram_inverse,
    host_map,
    host_operator,
    mass_bound,
    update_map,
)
from mutsel.spectral import symmetric_spectrum

BETA1_MASS = 200.0 * 0.4**3 / 6.0


def _random_density(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.random(grid.n), is_density=True)


def _toeplitz_product(engine, f):
    """The O(n^2) reference: the same quadrature sum as a dense matrix product."""
    return Field(f.grid, engine.dense_matrix(np.ones(f.grid.n)) @ f.values)


def _symmetrized_matrix(op):
    """s K s with s = sqrt(w gain), the form whose spectrum symmetric_spectrum takes."""
    s = np.sqrt(op.engine.grid.quad_weights * op.gain)
    return s[:, None] * op.engine.toeplitz() * s[None, :]


class TestConvolution:
    def test_backends_agree(self, fig1_problem):
        eng = ConvolutionEngine(fig1_problem.kernel)
        for seed in range(5):
            f = _random_density(fig1_problem.grid, seed)
            a = _toeplitz_product(eng, f)
            b = Field(f.grid, eng.convolve_values(f.values))
            assert l1_norm(a - b) / l1_norm(a) < 1e-10

    def test_constant_preserved_in_interior(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel)
        out = Field(g, eng.convolve_values(np.ones(g.n)))
        # kernel tails decay like exp(-dist/eps): negligible 25 widths inside
        interior = (g.nodes > g.x_min + 25 * fig1_problem.eps) & (
            g.nodes < g.x_max - 25 * fig1_problem.eps
        )
        assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-8

    def test_discrete_delta_sifts_kernel(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel)
        j = g.n // 2
        vals = np.zeros(g.n)
        vals[j] = 1.0 / g.quad_weights[j]
        expected = fig1_problem.kernel.samples[np.arange(g.n) - j + g.n - 1]
        for out in (eng.convolve_values(vals), _toeplitz_product(eng, Field(g, vals)).values):
            assert np.max(np.abs(out - expected)) < 1e-10

    def test_mass_preserved_for_interior_support(self, fig1_problem):
        g = fig1_problem.grid
        eng = ConvolutionEngine(fig1_problem.kernel)
        bump = np.exp(-((g.nodes - 0.55) / 0.05) ** 2)
        f = Field(g, bump, is_density=True)
        out = Field(g, eng.convolve_values(f.values))
        assert l1_norm(out) == pytest.approx(l1_norm(f), rel=1e-10)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_backend_agreement_property(self, seed):
        problem = _CACHE["problem"]
        eng = ConvolutionEngine(problem.kernel)
        f = _random_density(problem.grid, seed)
        a = _toeplitz_product(eng, f)
        b = Field(f.grid, eng.convolve_values(f.values))
        assert l1_norm(a - b) / max(l1_norm(a), 1e-300) < 1e-10

    @pytest.mark.parametrize("where", ["left edge", "right edge", "interior", "whole grid"])
    def test_restricted_engine_is_the_toeplitz_window(self, fig1_problem, where):
        # the window keeps the grid's weights: a window re-trapezoided would
        # halve its end weights and miss at its end nodes
        g = fig1_problem.grid
        n = g.n
        lo, hi = {"left edge": (0, n // 3), "right edge": (n - n // 5, n),
                  "interior": (n // 4, n // 2 + 7), "whole grid": (0, n)}[where]
        eng = ConvolutionEngine(fig1_problem.kernel)
        sub = eng.restricted(lo, hi)
        assert sub.grid.n == hi - lo
        f = np.random.default_rng(3).random(hi - lo)
        want = eng.toeplitz()[lo:hi, lo:hi] @ (g.quad_weights[lo:hi] * f)
        assert np.max(np.abs(sub.convolve_values(f) - want)) < 1e-10 * np.max(np.abs(want))

    def test_whole_grid_restriction_is_the_engine(self, fig1_problem):
        eng = ConvolutionEngine(fig1_problem.kernel)
        f = _random_density(fig1_problem.grid, 4).values
        whole = eng.restricted(0, fig1_problem.grid.n)
        assert np.array_equal(whole.convolve_values(f), eng.convolve_values(f))


def _laplace_kernel(n, ratio, rng, eps=0.01):
    """The Laplace kernel on n nodes h = ratio * eps apart, with random positive
    quadrature weights.  Built directly: a problem's grid has at least 16
    nodes and the kernel asks for 5 within eps."""
    h = ratio * eps
    grid = TraitGrid(0.0, h * (n - 1), n, h, h * np.arange(n), h * rng.uniform(0.1, 1.0, n))
    offsets = h * np.arange(-(n - 1), n)
    raw_mass = 0.93
    samples = 0.5 * np.exp(-np.abs(offsets) / eps) / (eps * raw_mass)
    return MutationKernel(grid, samples, raw_mass, eps)


class TestTridiagonalEngine:
    # the factor is taken in closed form, not from the rounded tridiagonal
    # entries, so the solve stays within 1e-12 of the Toeplitz product as
    # h/eps shrinks, here down to 1e-4
    @given(n=st.integers(1, 300), log_ratio=st.floats(-4.0, math.log10(0.5)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, log_ratio=-4.0, seed=0)
    @example(n=2, log_ratio=-4.0, seed=1)
    @example(n=2, log_ratio=math.log10(0.5), seed=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_toeplitz_oracle(self, n, log_ratio, seed):
        rng = np.random.default_rng(seed)
        kernel = _laplace_kernel(n, 10.0**log_ratio, rng)
        eng = ConvolutionEngine(kernel)
        w = kernel.grid.quad_weights
        f = rng.standard_normal(n)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        for got, want in (
            (eng.convolve_values(f), eng.toeplitz() @ (w * f)),
            (eng.restricted(lo, hi).convolve_values(f[lo:hi]),
             eng.toeplitz()[lo:hi, lo:hi] @ (w[lo:hi] * f[lo:hi])),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(log_ratio=st.floats(-3.0, math.log10(0.5)),
           steps=st.lists(st.one_of(st.integers(1, 5), st.just(0)), max_size=150))
    @example(log_ratio=-3.0, steps=[])
    @example(log_ratio=math.log10(0.5), steps=[0, 1, 0])
    @settings(max_examples=60, deadline=None)
    def test_gram_inverse_is_the_inverse(self, log_ratio, steps):
        # nodes of a grid h = ratio * eps apart, skipping 1-5 nodes or (a 0
        # step) so many that rho = exp(-gap/eps) underflows to 0; the
        # product's own rounding grows like eps_mach * eps/h, hence h/eps >= 1e-3
        eps = 0.01
        h = 10.0**log_ratio * eps
        wide = math.ceil(800 * eps / h)
        idx = np.cumsum([0] + [s or wide for s in steps])
        kernel = MutationKernel(None, None, 0.93, eps)
        gram = 0.5 / (eps * 0.93) * np.exp(-h * np.abs(idx[:, None] - idx[None, :]) / eps)
        diag, off = gram_inverse(kernel, h * np.diff(idx))
        inverse = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(inverse @ gram - np.eye(len(idx)))) <= 1e-12
        if 0 in steps:
            assert np.exp(-h * wide / eps) == 0.0 and 0.0 in off


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
        assert np.all(op.matvec(np.zeros(g.n)) == 0.0)

    def test_host1_mass_on_constant(self, fig1_problem):
        g = fig1_problem.grid
        op = host_operator(fig1_problem, 1)
        out = Field(g, op.matvec(np.ones(g.n)))
        # prefactor 1/2 times the quadratic bump's closed-form mass; the
        # quadrature carries an O(h^2) error from the support-end kinks
        assert l1_norm(out) == pytest.approx(0.5 * BETA1_MASS, rel=1e-4)

    def test_combined_equals_sum(self, fig1_problem):
        g = fig1_problem.grid
        f = _random_density(g, 7)
        total = combined_operator(fig1_problem).matvec(f.values)
        parts = sum(host_operator(fig1_problem, k).matvec(f.values) for k in (1, 2))
        assert np.max(np.abs(total - parts)) < 1e-12

    def test_positivity(self, fig1_problem):
        op = combined_operator(fig1_problem)
        for seed in range(20):
            f = _random_density(fig1_problem.grid, seed)
            assert np.all(op.matvec(f.values) >= 0.0)

    def test_cross_support_leakage_negligible(self):
        # separated supports: host-1 output carries almost no mass on support 2
        # once the support gap spans many kernel widths
        problem = build_problem(preset("fig1"), 2e-3)
        g = problem.grid
        f = _random_density(g, 3)
        out = Field(g, host_operator(problem, 1).matvec(f.values))
        lo, hi = problem.host(2).sigma_support
        ind = np.zeros(g.n)
        ind[lo : hi + 1] = 1.0
        assert l1_norm(Field(g, out.values * ind)) < 1e-12

    def test_dense_matrix_matches_apply(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        f = _random_density(coarse_problem.grid, 11)
        direct = op.matvec(f.values)
        via_matrix = op.dense() @ f.values
        assert np.max(np.abs(direct - via_matrix)) < 1e-10

    def test_symmetrized_matrix_symmetric(self, coarse_problem):
        b = _symmetrized_matrix(host_operator(coarse_problem, 1))
        assert np.max(np.abs(b - b.T)) < 1e-10

    def test_conjugacy_with_symmetrized_form(self, coarse_problem):
        # the symmetric s K s applied to s f reproduces s times the plain
        # operator, s = sqrt(w gain): the similarity symmetric_spectrum uses
        op = host_operator(coarse_problem, 1)
        f = _random_density(coarse_problem.grid, 5)
        s = np.sqrt(op.engine.grid.quad_weights * op.gain)
        lhs = _symmetrized_matrix(op) @ (s * f.values)
        rhs = s * op.matvec(f.values)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_symmetric_spectrum_matches_dense_eigvals(self, coarse_problem):
        # the symmetric s K s is similar to the operator's own matrix, so its
        # top eigenvalues are those of the nonsymmetric dense eigensolve
        op = host_operator(coarse_problem, 1)
        dense = np.sort(np.linalg.eigvals(op.dense()).real)[::-1][:10]
        assert np.max(np.abs(symmetric_spectrum(op, 10) - dense)) < 1e-10


class TestNonlinearMaps:
    def test_zero_fixed(self, fig1_problem):
        g = fig1_problem.grid
        out = update_map(fig1_problem).apply(Field(g, np.zeros(g.n)))
        assert np.all(out.values == 0.0)

    def test_reduces_to_linear_without_beta_mass(self, fig1_problem):
        # density supported away from beta_1's support: denominator is 1
        g = fig1_problem.grid
        vals = np.where((g.nodes > 0.95) & (g.nodes < 1.05), 1.0, 0.0)
        f = Field(g, vals, is_density=True)
        t1 = host_map(fig1_problem, 1).apply(f)
        l1 = host_operator(fig1_problem, 1).matvec(f.values)
        assert np.max(np.abs(t1.values - l1)) < 1e-14

    def test_mass_bound_value(self, fig1_problem):
        assert mass_bound(fig1_problem) == pytest.approx(1.0, rel=1e-12)

    def test_update_below_mass_bound(self, fig1_problem):
        bound = mass_bound(fig1_problem)
        for seed in range(100):
            f = _random_density(fig1_problem.grid, seed)
            out = update_map(fig1_problem).apply(f)
            assert np.all(out.values >= 0.0)
            assert l1_norm(out) <= bound + 1e-12

    def test_update_dominated_by_linear(self, fig1_problem):
        f = _random_density(fig1_problem.grid, 13)
        t = update_map(fig1_problem).apply(f)
        l = combined_operator(fig1_problem).matvec(f.values)
        assert np.all(t.values <= l + 1e-14)

    def test_rejects_negative_density(self, fig1_problem):
        g = fig1_problem.grid
        with pytest.raises(OperatorError):
            update_map(fig1_problem).apply(Field(g, np.full(g.n, -1.0)))


class TestDerivative:
    def test_derivative_at_zero_is_linear_operator(self, fig1_problem):
        # the paper's L_k f = c_k m_eps * (psi_k f) with c_k = xi_k Lambda / theta
        mp = fig1_problem.mp
        h = _random_density(fig1_problem.grid, 17).values
        eng = ConvolutionEngine(fig1_problem.kernel)
        for k in (1, 2):
            op = host_operator(fig1_problem, k)
            c_k = mp.hosts[k - 1].xi * mp.lambda_ / mp.theta
            psi = fig1_problem.host(k).psi.values
            np.testing.assert_allclose(op.gain, c_k * psi, rtol=1e-15, atol=0)
            lh = c_k * eng.convolve_values(psi * h)
            assert np.max(np.abs(op.matvec(h) - lh)) < 1e-12

    def test_linearity_in_direction(self, fig1_problem):
        g = fig1_problem.grid
        tmap = update_map(fig1_problem)
        a = _random_density(g, 1).values
        h1 = _random_density(g, 2).values
        h2 = _random_density(g, 3).values
        lin = tmap.linearization(a)
        lhs = lin.matvec(2.5 * h1 + h2)
        rhs = 2.5 * lin.matvec(h1) + lin.matvec(h2)
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
        an = tmap.linearization(a).matvec(h)
        rel = np.sum(g.quad_weights * np.abs(fd - an)) / np.sum(
            g.quad_weights * np.abs(an)
        )
        assert rel < 1e-6

    @pytest.mark.parametrize("where", ["random", "fixed_point"])
    def test_newton_direction_solves_the_jacobian(self, fig1_problem, fig1_state, where):
        # at the fixed point T0 = K^-1 - diag(w g) is singular, and only the
        # one-node shift keeps the Woodbury solve defined
        tmap = update_map(fig1_problem)
        g = fig1_problem.grid
        a = fig1_state.A.values if where == "fixed_point" else _random_density(g, 4).values
        f = _random_density(g, 5).values - 0.5
        delta = tmap.newton_direction(a, f)
        lhs = delta - tmap.linearization(a).matvec(delta)
        assert np.sum(g.quad_weights * np.abs(lhs - f)) < 1e-10 * np.sum(g.quad_weights * np.abs(f))

    def test_newton_direction_on_one_node(self, fig1_problem):
        # a one-node engine has no off-diagonal; I - T'(a) is then a scalar
        tmap = update_map(fig1_problem)
        j = int(np.argmax(tmap.fitness[0]))
        one = UpdateMap(tmap.engine.restricted(j, j + 1), tmap.fitness[:, j : j + 1],
                        tmap.beta_rows[:, j : j + 1])
        a, f = np.array([0.7]), np.array([0.3])
        delta = one.newton_direction(a, f)
        assert delta - one.linearization(a).matvec(delta) == pytest.approx(f, rel=1e-12)

    def test_contraction_identity_at_fixed_point(self, fig1_problem, fig1_state):
        # at a steady state the derivative applied to the state itself stays
        # strictly below the state wherever it is positive
        tmap = update_map(fig1_problem)
        a = fig1_state.A.values
        da = tmap.linearization(a).matvec(a)
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

    def test_one_convolution_per_linearization_application(self, fig1_problem, monkeypatch):
        calls = []
        convolve = ConvolutionEngine.convolve_values

        def counted(self, values):
            calls.append(len(values))
            return convolve(self, values)

        monkeypatch.setattr(ConvolutionEngine, "convolve_values", counted)
        a = _random_density(fig1_problem.grid, 5).values
        h = np.random.default_rng(6).standard_normal(fig1_problem.grid.n)
        for tmap in (update_map(fig1_problem), host_map(fig1_problem, 1)):
            lin = tmap.linearization(a)
            calls.clear()
            for expected in (1, 2, 3):
                lin.matvec(h)
                assert len(calls) == expected

    def test_toeplitz_view_is_the_index_gather(self, coarse_problem):
        n = coarse_problem.grid.n
        idx = np.arange(n)
        gathered = coarse_problem.kernel.samples[idx[:, None] - idx[None, :] + n - 1]
        view = ConvolutionEngine(coarse_problem.kernel).toeplitz()
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
        total = update_map(fig1_problem).apply(a).values
        parts = sum(host_map(fig1_problem, k).apply(a).values for k in (1, 2))
        assert np.max(np.abs(total - parts)) < 1e-14 * np.max(np.abs(total))

    def test_host_map_dense_derivative_matches_apply(self, coarse_problem):
        tmap = host_map(coarse_problem, 2)
        rng = np.random.default_rng(12)
        a = rng.random(coarse_problem.grid.n)
        h = rng.standard_normal(coarse_problem.grid.n)
        dh = tmap.linearization(a).dense() @ h
        assert np.max(np.abs(dh - tmap.linearization(a).matvec(h))) < 1e-10
