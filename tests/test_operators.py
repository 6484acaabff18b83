"""The convolution, linear operators, nonlinear maps and the derivative."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

import mutsel
from mutsel.grid import Field, TraitGrid, inner, l1_norm
from mutsel.model import MutationKernel, build_problem, preset
from mutsel.operators import (
    ConvolutionEngine,
    ShiftedSolve,
    TridiagonalLU,
    combined_operator,
    gram_inverse,
    host_map,
    host_operator,
    sturm_count,
    update_map,
)
from oracles import (dense_derivative, dense_matrix, kernel_matrix, kernel_samples, mass_bound,
                     symmetric_spectrum)

BETA1_MASS = 200.0 * 0.4**3 / 6.0


def _random_density(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.random(grid.n), is_density=True)


def _toeplitz_product(engine, f):
    """The O(n^2) reference: the same quadrature sum as a dense matrix product."""
    return Field(f.grid, dense_matrix(engine, np.ones(f.grid.n)) @ f.values)


def _symmetrized_matrix(op):
    """s K s with s = sqrt(w gain), the form whose spectrum symmetric_spectrum takes."""
    s = np.sqrt(op.engine.grid.quad_weights * op.gain)
    return s[:, None] * kernel_matrix(op.engine) * s[None, :]


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
        expected = kernel_samples(fig1_problem.kernel)[np.arange(g.n) - j + g.n - 1]
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
        sub = eng.restricted(np.arange(lo, hi))
        assert sub.weights.size == hi - lo
        f = np.random.default_rng(3).random(hi - lo)
        want = kernel_matrix(eng)[lo:hi, lo:hi] @ (g.quad_weights[lo:hi] * f)
        assert np.max(np.abs(sub.convolve_values(f) - want)) < 1e-10 * np.max(np.abs(want))

    def test_whole_grid_restriction_is_the_engine(self, fig1_problem):
        eng = ConvolutionEngine(fig1_problem.kernel)
        f = _random_density(fig1_problem.grid, 4).values
        whole = eng.restricted(np.arange(fig1_problem.grid.n))
        assert np.array_equal(whole.convolve_values(f), eng.convolve_values(f))


def _laplace_kernel(n, ratio, rng, eps=0.01):
    """The Laplace kernel on n nodes h = ratio * eps apart, with random positive
    quadrature weights.  Built directly: a problem's grid has at least 16
    nodes and the kernel asks for 5 within eps."""
    h = ratio * eps
    grid = TraitGrid(0.0, h * (n - 1), n, h, h * np.arange(n), h * rng.uniform(0.1, 1.0, n))
    return MutationKernel(grid, 0.93, eps)


class TestTridiagonalEngine:
    # the factor is taken in closed form, not from the rounded tridiagonal
    # entries, so the solve stays within 1e-12 of the Toeplitz product as
    # h/eps shrinks, here down to 1e-4.  On a random sorted subset of up to
    # ``keep`` of the first n nodes it is the product's principal submatrix.
    # With ``wide``, h = eps/2 and the grid has 1,600 more nodes, the last of
    # which joins the subset at least 800 widths past the others: there
    # rho = exp(-gap/eps) underflows to 0
    @given(n=st.integers(1, 300), log_ratio=st.floats(-4.0, math.log10(0.5)),
           keep=st.integers(1, 300), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, log_ratio=-4.0, keep=1, wide=False, seed=0)
    @example(n=2, log_ratio=-4.0, keep=2, wide=False, seed=1)
    @example(n=2, log_ratio=math.log10(0.5), keep=2, wide=False, seed=2)
    @example(n=200, log_ratio=-2.0, keep=1, wide=False, seed=3)
    @example(n=50, log_ratio=-1.0, keep=20, wide=True, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_matches_toeplitz_oracle(self, n, log_ratio, keep, wide, seed):
        rng = np.random.default_rng(seed)
        size = n + 1600 if wide else n
        kernel = _laplace_kernel(size, 0.5 if wide else 10.0**log_ratio, rng)
        eng = ConvolutionEngine(kernel)
        w = kernel.grid.quad_weights
        f = rng.standard_normal(size)
        nodes = np.sort(rng.choice(n, min(keep, n), replace=False))
        if wide:
            nodes = np.append(nodes, size - 1)
        sub = eng.restricted(nodes)
        full = kernel_matrix(eng)
        for got, want in (
            (eng.convolve_values(f), full @ (w * f)),
            (sub.convolve_values(f[nodes]),
             full[np.ix_(nodes, nodes)] @ (w[nodes] * f[nodes])),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if wide:
            assert sub.gaps[-1] >= 800 * kernel.eps and sub.inverse[1][-1] == 0.0

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
        kernel = MutationKernel(None, 0.93, eps)
        gram = 0.5 / (eps * 0.93) * np.exp(-h * np.abs(idx[:, None] - idx[None, :]) / eps)
        diag, off = gram_inverse(kernel, h * np.diff(idx))
        inverse = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(inverse @ gram - np.eye(len(idx)))) <= 1e-12
        if 0 in steps:
            assert np.exp(-h * wide / eps) == 0.0 and 0.0 in off


@pytest.mark.parametrize("m", [1, 2, 40])
def test_tridiagonal_solve_matches_dense(m):
    # a factor made for one solve, with a right-hand side of shape (m,),
    # (m, 1) or (m, 5), gives the dense solution in that shape
    rng = np.random.default_rng(m)
    diag, off = 4.0 + rng.random(m), rng.standard_normal(m - 1)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for rhs in (rng.standard_normal(m), rng.standard_normal((m, 1)), rng.standard_normal((m, 5))):
        want = np.linalg.solve(matrix, rhs)
        got = TridiagonalLU(diag, off).solve(rhs)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 40])
@pytest.mark.parametrize("kind", ["definite", "indefinite", "complex", "singular"])
def test_tridiagonal_lu_solves_many_right_hand_sides(m, kind):
    # L D L^T without pivoting for a real positive definite matrix, pivoted LU
    # otherwise, complex symmetric ones included; one factor, then solves with
    # one and with several columns.  A singular matrix fails to factor.
    rng = np.random.default_rng(m)
    diag, off = 4.0 + rng.random(m), rng.standard_normal(m - 1)
    if kind == "indefinite":
        diag[m // 2] = -4.0
    if kind == "complex":
        diag, off = diag + 1j * rng.standard_normal(m), off * (1.0 - 0.5j)
    if kind == "singular":
        # [0], and [[1, 1], [1, 1]] decoupled from the rest
        diag[:2], off[:2] = ([0.0], []) if m == 1 else ([1.0, 1.0], [1.0, 0.0][: m - 1])
        with pytest.raises(LinAlgError):
            TridiagonalLU(diag, off)
        return
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lu = TridiagonalLU(diag, off)
    # the L D L^T factor holds exactly on the positive definite matrices
    assert lu.positive_definite == (kind == "definite")
    rhs_list = [rng.standard_normal(m), rng.standard_normal((m, 1)), rng.standard_normal((m, 5))]
    if kind == "complex":
        rhs_list.append(rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3)))
    for rhs in rhs_list:
        want = np.linalg.solve(matrix, rhs)
        got = lu.solve(rhs)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tridiagonal_lu_rejects_a_complex_right_hand_side_on_a_real_factor():
    # LAPACK's real solve would keep only the real part, with a ComplexWarning
    lu = TridiagonalLU(np.full(4, 4.0), np.ones(3))
    with pytest.raises(TypeError):
        lu.solve(np.ones(4) + 1j)


@pytest.mark.parametrize("m", [1, 2, 40])
def test_sturm_count_matches_dense(m):
    # eigenvalues in (lo, hi], finite or infinite ends, against a dense eigvalsh
    rng = np.random.default_rng(m)
    for _ in range(50):
        diag, off = rng.standard_normal(m), rng.standard_normal(m - 1)
        eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        lo, hi = np.sort(rng.standard_normal(2))
        for a, b in ((lo, hi), (-np.inf, hi), (lo, np.inf), (-np.inf, np.inf)):
            assert sturm_count(diag, off, a, b) == np.count_nonzero((eig > a) & (eig <= b))


def test_only_operators_calls_lapack_tridiagonal_routines():
    # TridiagonalLU (and the convolution's closed-form factor) is the one
    # home of tridiagonal factors and solves, and sturm_count of Sturm counts:
    # no other module names a LAPACK gtsv, gttrf, gttrs, pttrf, pttrs or stebz,
    # by import, attribute or the string get_lapack_funcs takes
    routine = re.compile(r"[sdcz]?(gtsv|gttrf|gttrs|pttrf|pttrs|stebz)")
    users = set()
    for path in Path(mutsel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("name", "attr", "id", "value"):
                name = getattr(node, field, None)
                if isinstance(name, str) and routine.fullmatch(name.rsplit(".", 1)[-1]):
                    users.add(path.name)
    assert users == {"operators.py"}


def test_only_operators_names_flapack_and_none_imports_scipy_linalg():
    # operators alone loads scipy's LAPACK extension; no module imports
    # scipy.linalg or scipy.sparse, at module level or inside a function, so
    # no command loads either
    flapack_users, importers = set(), set()
    for path in Path(mutsel.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for field in ("name", "attr", "id", "value", "module"):
                name = getattr(node, field, None)
                if isinstance(name, str) and "_flapack" in name:
                    flapack_users.add(path.name)
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == pkg or n.startswith(pkg + ".")
                   for n in names for pkg in ("scipy.linalg", "scipy.sparse")):
                importers.add(path.name)
    assert flapack_users == {"operators.py"}
    assert importers == set()


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
        via_matrix = dense_derivative(op) @ f.values
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
        dense = np.sort(np.linalg.eigvals(dense_derivative(op)).real)[::-1][:10]
        assert np.max(np.abs(symmetric_spectrum(op, 10) - dense)) < 1e-10


class TestNonlinearMaps:
    def test_zero_fixed(self, fig1_problem):
        g = fig1_problem.grid
        out = update_map(fig1_problem).apply_values(np.zeros(g.n))
        assert np.all(out == 0.0)

    def test_reduces_to_linear_without_beta_mass(self, fig1_problem):
        # density supported away from beta_1's support: denominator is 1
        g = fig1_problem.grid
        vals = np.where((g.nodes > 0.95) & (g.nodes < 1.05), 1.0, 0.0)
        f = Field(g, vals, is_density=True)
        t1 = host_map(fig1_problem, 1).apply_values(f.values)
        l1 = host_operator(fig1_problem, 1).matvec(f.values)
        assert np.max(np.abs(t1 - l1)) < 1e-14

    def test_mass_bound_value(self, fig1_problem):
        assert mass_bound(fig1_problem) == pytest.approx(1.0, rel=1e-12)

    def test_update_below_mass_bound(self, fig1_problem):
        bound = mass_bound(fig1_problem)
        for seed in range(100):
            f = _random_density(fig1_problem.grid, seed)
            out = Field(f.grid, update_map(fig1_problem).apply_values(f.values))
            assert np.all(out.values >= 0.0)
            assert l1_norm(out) <= bound + 1e-12

    def test_update_dominated_by_linear(self, fig1_problem):
        f = _random_density(fig1_problem.grid, 13)
        t = update_map(fig1_problem).apply_values(f.values)
        l = combined_operator(fig1_problem).matvec(f.values)
        assert np.all(t <= l + 1e-14)


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

    @pytest.mark.parametrize("sigma", [1.001, 0.9, 2.5])
    def test_shifted_solve_inverts_the_shifted_derivative(self, fig1_problem, fig1_state,
                                                          fig3_tight, sigma):
        # factored once, each solve x has (sigma I - T'(a)) x = y, also where
        # sigma K^-1 - D is indefinite (sigma below the pencil's top, 1): at
        # fig1's and fig3's steady states (overlapping supports), at a density
        # off the fixed point, and at one with a single local maximum, where
        # the second host's shift lands off a peak
        g = fig1_problem.grid
        one_peak = 1.0 / (1.0 + ((g.nodes - g.nodes[g.n // 3]) / 0.2) ** 2)
        top = int(np.argmax(one_peak))
        assert np.all(np.diff(one_peak[: top + 1]) > 0) and np.all(np.diff(one_peak[top:]) < 0)
        for problem, a in ((fig1_problem, fig1_state.A.values), (fig3_tight[0], fig3_tight[1].values),
                           (fig1_problem, _random_density(g, 7).values), (fig1_problem, one_peak)):
            lin = update_map(problem).linearization(a)
            solve = ShiftedSolve(lin, sigma)
            for seed in (5, 6):
                y = _random_density(problem.grid, seed).values - 0.5
                x = solve.solve(y)
                assert np.max(np.abs(sigma * x - lin.matvec(x) - y)) < 1e-11 * np.max(np.abs(y))

    def test_newton_direction_on_one_node(self, fig1_problem):
        # a one-node engine has no off-diagonal; I - T'(a) is then a scalar
        tmap = update_map(fig1_problem)
        j = int(np.argmax(tmap.fitness[0]))
        one = tmap.restricted(np.array([j]))
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


@pytest.fixture
def calls(monkeypatch):
    """The lengths of the inputs of every convolution made while the test runs."""
    lengths = []
    convolve = ConvolutionEngine.convolve_values

    def counted(self, values):
        lengths.append(len(values))
        return convolve(self, values)

    monkeypatch.setattr(ConvolutionEngine, "convolve_values", counted)
    return lengths


class TestOneConvolutionCore:
    def test_one_convolution_per_map_application(self, fig1_problem, calls):
        a = _random_density(fig1_problem.grid, 4)
        for tmap in (update_map(fig1_problem), host_map(fig1_problem, 1)):
            for expected in (1, 2, 3):
                tmap.apply_values(a.values)
                assert len(calls) == expected
            calls.clear()

    def test_one_convolution_per_linearization_application(self, fig1_problem, calls):
        a = _random_density(fig1_problem.grid, 5).values
        h = np.random.default_rng(6).standard_normal(fig1_problem.grid.n)
        for tmap in (update_map(fig1_problem), host_map(fig1_problem, 1)):
            lin = tmap.linearization(a)
            calls.clear()
            for expected in (1, 2, 3):
                lin.matvec(h)
                assert len(calls) == expected

    def test_building_an_operator_convolves_nothing(self, fig1_problem, calls):
        # the low-rank term is taken inside the one convolution of an
        # application; at the zero density it vanishes
        a = _random_density(fig1_problem.grid, 5).values
        h = np.random.default_rng(6).standard_normal(fig1_problem.grid.n)
        for build in (lambda: host_operator(fig1_problem, 1),
                      lambda: host_operator(fig1_problem, 2),
                      lambda: combined_operator(fig1_problem),
                      lambda: update_map(fig1_problem).linearization(a),
                      lambda: host_map(fig1_problem, 2).linearization(a)):
            op = build()
            assert calls == []
            op.matvec(h)
            assert calls == [fig1_problem.grid.n]
            calls.clear()

    def test_denominators_are_the_saturation_terms(self, fig1_problem):
        a = _random_density(fig1_problem.grid, 9)
        den = update_map(fig1_problem).denominators(a.values)
        theta = fig1_problem.mp.theta
        for k in (1, 2):
            expected = 1.0 + inner(fig1_problem.host(k).beta, a) / theta
            assert den[k - 1] == pytest.approx(expected, rel=1e-14)

    def test_coupled_map_is_sum_of_host_maps(self, fig1_problem):
        a = _random_density(fig1_problem.grid, 10)
        total = update_map(fig1_problem).apply_values(a.values)
        parts = sum(host_map(fig1_problem, k).apply_values(a.values) for k in (1, 2))
        assert np.max(np.abs(total - parts)) < 1e-14 * np.max(np.abs(total))

    def test_host_map_dense_derivative_matches_apply(self, coarse_problem):
        tmap = host_map(coarse_problem, 2)
        rng = np.random.default_rng(12)
        a = rng.random(coarse_problem.grid.n)
        h = rng.standard_normal(coarse_problem.grid.n)
        dh = dense_derivative(tmap.linearization(a)) @ h
        assert np.max(np.abs(dh - tmap.linearization(a).matvec(h))) < 1e-10
