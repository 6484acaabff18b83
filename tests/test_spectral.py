"""Principal eigenpairs, dense spectra, gaps and threshold limits."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import LinearOperator, eigsh

from mutsel.grid import Field, l1_norm
from mutsel.model import (
    HostParams,
    ModelParams,
    TraitExpression,
    build_problem,
)
from mutsel.operators import combined_operator, host_operator
from mutsel.spectral import (
    gap_exponent,
    principal_eigenpair,
    solve_combined_spectrum,
    solve_host_spectrum,
)
from oracles import symmetric_spectrum


def _full_grid_lanczos(op, k):
    """Lanczos on the whole grid, the reference for principal_eigenpair's
    tridiagonal solve: (top k eigenvalues, descending; applications)."""
    grid = op.engine.grid
    sw = np.sqrt(grid.quad_weights)
    s = np.sqrt(op.gain)
    applications = []

    def matvec(x):
        applications.append(1)
        return sw * s * op.engine.convolve_values(s * x.ravel() / sw)

    b = LinearOperator((grid.n, grid.n), matvec=matvec, dtype=float)
    v0 = sw * (1.0 + np.random.default_rng(0).random(grid.n))
    vals, _ = eigsh(b, k=k, which="LA", v0=v0, tol=0)
    return np.sort(vals)[::-1], len(applications)


def _flat_beta_problem():
    """Host 1 with beta = 3 over the whole window: a reflection-symmetric operator."""
    hosts = (
        HostParams(xi=0.5, beta=TraitExpression("3.0"), beta_support=(-0.5, 1.5)),
        HostParams(xi=0.5, beta=TraitExpression("400*pos((x-0.7)*(0.9-x))"),
                   beta_support=(0.7, 0.9)),
    )
    return build_problem(ModelParams(1.0, 1.0, 1.0, hosts), 0.05, n=512)


class TestPrincipalEigenpair:
    def test_matches_dense_eigensolve(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-12)
        dense_top = symmetric_spectrum(op, 1)[0]
        assert res.converged
        assert res.lambda1 == pytest.approx(dense_top, abs=1e-8)

    def test_eigenfunction_normalized_and_positive(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-12)
        assert l1_norm(res.phi1) == pytest.approx(1.0, abs=1e-12)
        omega = np.flatnonzero(coarse_problem.host(1).psi.values > 0)
        assert np.all(res.phi1.values[omega[0] : omega[-1] + 1] > 0.0)

    def test_residual_below_tolerance(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-10)
        assert res.residual < 1e-10

    def test_constant_fitness_gives_prefactor_times_level(self, fig1):
        # flat fitness over the whole window: the constant is an eigenfunction
        res = principal_eigenpair(host_operator(_flat_beta_problem(), 1), tol=1e-8)
        # window truncation costs a few percent at this kernel width
        assert res.lambda1 == pytest.approx(0.5 * 3.0, rel=0.05)
        assert res.lambda1 <= 0.5 * 3.0

    def test_rayleigh_quotient_stationary(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-12)
        w = coarse_problem.grid.quad_weights
        s = np.sqrt(op.gain)
        u = s * res.phi1.values
        num = float(np.sum(w * u * s * op.engine.convolve_values(s * u)))
        den = float(np.sum(w * u * u))
        assert num / den == pytest.approx(res.lambda1, abs=1e-8)


class TestDenseSpectrum:
    def test_sorted_descending_nonnegative(self, coarse_problem):
        vals = symmetric_spectrum(host_operator(coarse_problem, 1), 20)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= -1e-10)

    def test_count_validation(self, coarse_problem):
        from mutsel.spectral import SpectralError

        with pytest.raises(SpectralError):
            symmetric_spectrum(host_operator(coarse_problem, 1), 10_000)

    def test_scale_equivariance(self, fig1, coarse_problem):
        # at 1e200, w gain times L phi overflows: the Rayleigh quotient of
        # principal_eigenpair is taken with w gain as a share of its maximum
        base = symmetric_spectrum(host_operator(coarse_problem, 1), 5)
        pair = solve_host_spectrum(coarse_problem, 1, with_second=True)
        for factor in (3.0, 1e200):
            scaled = build_problem(fig1.scaled_beta(factor), 0.05, n=512)
            multiplied = symmetric_spectrum(host_operator(scaled, 1), 5)
            assert np.allclose(multiplied, factor * base, rtol=1e-10)
            res = solve_host_spectrum(scaled, 1, with_second=True)
            assert res.converged
            assert res.lambda1 == pytest.approx(factor * pair.lambda1, rel=1e-13)
            assert res.lambda2 == pytest.approx(factor * pair.lambda2, rel=1e-13)

    def test_second_matches_dense(self, coarse_problem):
        # the flat-beta operator's second eigenvector is odd, so a start vector
        # even under reflection would never reach it
        for problem in (coarse_problem, _flat_beta_problem()):
            res = solve_host_spectrum(problem, 1, tol=1e-12, with_second=True)
            dense = symmetric_spectrum(host_operator(problem, 1), 2)
            assert res.converged
            assert res.lambda1 == pytest.approx(dense[0], rel=1e-12)
            assert res.lambda2 == pytest.approx(dense[1], abs=1e-10)

    def test_repeatable(self, fig1_problem):
        first, second = (
            solve_host_spectrum(fig1_problem, 1, with_second=True) for _ in range(2)
        )
        assert (first.lambda1, first.lambda2, first.iterations) == (
            second.lambda1, second.lambda2, second.iterations
        )

    def test_lanczos_failure_is_not_converged(self, fig1_problem, monkeypatch):
        import mutsel.spectral as spec

        def factor_fails(*args, **kwargs):
            raise LinAlgError("tridiagonal factorization failed")

        monkeypatch.setattr(spec, "TridiagonalLU", factor_fails)
        res = solve_host_spectrum(fig1_problem, 1, with_second=True)
        assert not res.converged and res.residual > 1e-10

    def test_subnormal_gain_tail(self, fig1):
        # the Gaussian trait's tails underflow to subnormal gains, where the
        # diagonal of (S G S)^-1, about 1/(w gain), would overflow
        hosts = (
            HostParams(xi=0.5, beta=TraitExpression("4*exp(-3e4*(x-0.4)**2)"),
                       beta_support=(0.2, 0.6)),
            fig1.hosts[1],
        )
        problem = build_problem(ModelParams(1.0, 1.0, 1.0, hosts), 0.05, n=512)
        op = host_operator(problem, 1)
        wg = problem.grid.quad_weights * op.gain
        assert 0.0 < wg[wg > 0].min() < 1e-308
        res = solve_host_spectrum(problem, 1, with_second=True)
        dense = symmetric_spectrum(op, 2)
        assert res.converged
        assert res.lambda1 == pytest.approx(dense[0], rel=1e-12)
        assert res.lambda2 == pytest.approx(dense[1], rel=1e-12)

    def test_certificate_catches_a_loose_bisection(self, fig1, monkeypatch):
        # LAPACK's default bisection tolerance, eps_mach times the 1-norm of a
        # matrix whose diagonal reaches about 3e16 where the gain nears 0 at the
        # support ends, misplaced the combined operator's top eigenvalue at
        # about 1.68 in place of 3.805: the certificate must reject an
        # eigenvector of the pencil at such a wrong eigenvalue
        import mutsel.spectral as spec

        lowest = spec._lowest

        def misplaced(pencil):
            # two steps of inverse iteration from the constant vector at the
            # shift 2.26 mu1, where lambda = 3.805/2.26, the misplaced value
            u, below = lowest(pencil)
            lu = pencil.shifted(2.26 * pencil.rayleigh(u))
            u = np.ones(u.size)
            for _ in range(2):
                u = lu.solve(pencil.share * u)
                u /= np.abs(u).max()
            return u * np.sign(np.sum(u)), below

        problem = build_problem(fig1, 1e-2)
        exact = solve_combined_spectrum(problem)
        monkeypatch.setattr(spec, "_lowest", misplaced)
        loose = solve_combined_spectrum(problem)
        assert exact.converged and exact.lambda1 == pytest.approx(3.805, abs=1e-3)
        assert not loose.converged and loose.residual > 1e-2
        assert abs(loose.lambda1 - exact.lambda1) > 1.0
        with pytest.raises(spec.SpectralError, match="^combined spectral radius"):
            problem.combined_radius


def test_fine_grid_certificates_converge(fig1):
    # at h/eps = 1e-2 bisection's lambda1 is off by about eps_mach (eps/h)^2
    # relative, which left the combined residual at 1.3e-10; the Rayleigh
    # quotient is not
    problem = build_problem(fig1, 1e-2, n=100_000)
    for result in (solve_host_spectrum(problem, 1), solve_combined_spectrum(problem)):
        assert result.converged and result.residual < 1e-11


def test_fine_grid_second_eigenvalue(fig1):
    # at h/eps = 1.1e-3 rounding the explicit entries of G^-1 moves its
    # eigenvalues by about 4 eps_mach (eps/h)^2 = 7e-10 relative, and
    # bisection on (S G S)^-1 left lambda2 1.0e-10 off; the Rayleigh quotient
    # through the closed-form factor is not
    problem = build_problem(fig1, 1e-2, n=100_000)
    op = host_operator(problem, 1)
    res = principal_eigenpair(op, with_second=True)
    ref, _ = _full_grid_lanczos(op, 2)
    assert res.converged
    assert res.lambda2 == pytest.approx(ref[1], rel=1e-12)


@pytest.mark.parametrize("eps, n", [(1e-3, None), (1e-2, 100_000)])
def test_factorizations_per_call_are_bounded(fig1, monkeypatch, eps, n):
    # inverse iteration for lambda1 and Rayleigh-quotient iteration for
    # lambda2 each take a few factors, at the default fine grid and at h/eps =
    # 1.1e-3 alike
    import mutsel.spectral as spec

    problem = build_problem(fig1, eps, n=n)
    assert problem.grid.n == (n or 8193)
    factors = []
    factor = spec.TridiagonalLU

    def counted(*args):
        factors.append(args)
        return factor(*args)

    monkeypatch.setattr(spec, "TridiagonalLU", counted)
    for op in (host_operator(problem, 1), host_operator(problem, 2), combined_operator(problem)):
        factors.clear()
        assert principal_eigenpair(op, with_second=True).converged
        assert 0 < len(factors) <= 30


def test_second_eigenvalue_on_a_lower_bump(fig1, monkeypatch):
    # two bumps of beta on one support: the second eigenvector lives on the
    # lower bump, where u1 and so the start vector (x - xbar) u1 are small, and
    # Rayleigh-quotient iteration finds the higher bump's second mode, lambda3;
    # the Sturm counts reject it and bisection brackets lambda2
    import mutsel.spectral as spec

    beta = "8*exp(-200*(x-0.3)**2) + 7*exp(-200*(x-0.7)**2)"
    hosts = (HostParams(xi=0.5, beta=TraitExpression(beta), beta_support=(0.1, 0.9)),
             fig1.hosts[1])
    problem = build_problem(ModelParams(1.0, 1.0, 1.0, hosts), 0.02, n=512)
    op = host_operator(problem, 1)
    iterations, bisections = [], []
    iterate, bisect = spec._complement_iteration, spec._bisect_second

    def iteration_spy(pencil, u1, v, shift=None):
        mu = iterate(pencil, u1, v, shift)
        iterations.append((pencil, mu, shift))
        return mu

    def bisection_spy(*args):
        bisections.append(args)
        return bisect(*args)

    monkeypatch.setattr(spec, "_complement_iteration", iteration_spy)
    monkeypatch.setattr(spec, "_bisect_second", bisection_spy)
    res = principal_eigenpair(op, with_second=True)
    dense = symmetric_spectrum(op, 3)
    (pencil, mu, shift), _ = iterations
    assert shift is None
    assert op.d.max() / mu == pytest.approx(dense[2], rel=1e-12)
    assert [pencil.count_below(mu * (1.0 + t * spec.SECOND_COUNT_GAP))
            for t in (-1.0, 1.0)] != [1, 2]
    assert len(bisections) == 1
    assert res.converged
    assert res.lambda2 == pytest.approx(dense[1], rel=1e-12)


class TestWindowedLanczos:
    @pytest.fixture(scope="class")
    def fine(self, fig1):
        return build_problem(fig1, 1e-3)

    @pytest.mark.parametrize("which, k", [("host 1", 2), ("host 2", 2), ("combined", 1)])
    def test_matches_full_grid(self, fine, which, k):
        # the solves the CLI runs: two eigenvalues per host, one for the sum
        op = combined_operator(fine) if which == "combined" else host_operator(fine, int(which[-1]))
        assert (op.gain > 0).sum() < fine.grid.n
        res = principal_eigenpair(op, with_second=k == 2)
        ref, applications = _full_grid_lanczos(op, k)
        assert res.converged
        assert res.lambda1 == pytest.approx(ref[0], rel=1e-12)
        if k == 2:
            assert res.lambda2 == pytest.approx(ref[1], rel=1e-12)
        # the eigenfunction's reconstruction and its residual
        assert res.iterations == 2

    def test_combined_second_eigenvalue(self, fine):
        # the combined gain is positive on two separate supports: one gap of
        # G^-1 spans the zero-gain nodes between them, and the two full-grid
        # applications are far fewer than the whole-grid Lanczos run's
        op = combined_operator(fine)
        res = principal_eigenpair(op, with_second=True)
        ref, applications = _full_grid_lanczos(op, 2)
        assert res.lambda1 == pytest.approx(ref[0], rel=1e-12)
        assert res.lambda2 == pytest.approx(ref[1], rel=1e-12)
        assert res.iterations <= applications

    def test_fitness_at_one_node(self, fig1):
        # host 1's gain is positive at one node, so the pencil has one node and
        # the operator rank 1: the second eigenvalue is 0
        hosts = (
            HostParams(xi=0.5, beta=TraitExpression("1e6*pos((x-0.499)*(0.503-x))"),
                       beta_support=(0.499, 0.503)),
            fig1.hosts[1],
        )
        problem = build_problem(ModelParams(1.0, 1.0, 1.0, hosts), 0.05, n=278)
        op = host_operator(problem, 1)
        assert np.count_nonzero(op.gain > 0) == 1
        res = solve_host_spectrum(problem, 1, with_second=True)
        dense = symmetric_spectrum(op, 2)
        assert res.converged
        assert res.lambda1 == pytest.approx(0.0596, abs=1e-4)
        assert res.lambda1 == pytest.approx(dense[0], rel=1e-12)
        assert res.lambda2 == pytest.approx(0.0, abs=1e-12)


class TestGapsAndLimits:
    # R0 = max of the combined gain (Lambda/theta) sum_k xi_k psi_k, and R0_k =
    # host k's: the small-mutation limits of the spectral radii
    def test_r0_limits_fig1(self, fig1_problem):
        assert fig1_problem.host(1).r0 == pytest.approx(4.0, abs=1e-3)
        assert fig1_problem.host(2).r0 == pytest.approx(2.0, abs=1e-3)
        assert combined_operator(fig1_problem).gain.max() == pytest.approx(4.0, abs=1e-3)

    def test_r0_limits_fig2(self, fig2_problem):
        assert fig2_problem.host(2).r0 == pytest.approx(0.75, abs=1e-3)
        assert combined_operator(fig2_problem).gain.max() == pytest.approx(4.0, abs=1e-3)

    def test_r0_fig3_dominates_parts(self, fig3):
        problem = build_problem(fig3, 0.01)
        r0 = combined_operator(problem).gain.max()
        assert r0 >= max(problem.host(1).r0, problem.host(2).r0) - 1e-12

    def test_spectral_radius_below_limit_and_increasing(self, fig1):
        lams = []
        for eps in (0.05, 0.02, 0.01):
            problem = build_problem(fig1, eps)
            res = solve_host_spectrum(problem, 1)
            assert res.lambda1 < problem.host(1).r0
            lams.append(res.lambda1)
        assert lams == sorted(lams)

    def test_degenerate_twin_peaks_flagged(self):
        # two identical bumps: the limit eigenvalue is double, the gap collapses
        twin = TraitExpression("100*(pos((x-0.1)*(0.3-x)) + pos((x-0.7)*(0.9-x)))")
        hosts = (
            HostParams(xi=0.5, beta=twin, beta_support=(0.1, 0.9)),
            HostParams(xi=0.5, beta=TraitExpression("400*pos((x-0.4)*(0.6-x))"),
                       beta_support=(0.4, 0.6)),
        )
        mp = ModelParams(1.0, 1.0, 1.0, hosts)
        gaps = []
        for eps in (0.05, 0.02, 0.01):
            problem = build_problem(mp, eps, n=1024)
            vals = symmetric_spectrum(host_operator(problem, 1), 2)
            gaps.append(vals[0] - vals[1])
        # relative gap shrinks much faster than any small fixed power of eps
        assert gaps[-1] / gaps[0] < (0.01 / 0.05) ** 2


def test_gap_exponent_fit():
    eps = [0.1, 0.05, 0.02, 0.01]
    assert gap_exponent(eps, [3.0 * e**1.5 for e in eps]) == pytest.approx(1.5, rel=1e-12)
    # NaN and nonpositive gaps are left out of the fit
    gaps = [3.0 * 0.1**2, float("nan"), 0.0, 3.0 * 0.01**2]
    assert gap_exponent(eps, gaps) == pytest.approx(2.0, rel=1e-12)
    assert gap_exponent(eps, [1.0, float("nan"), -1.0, 0.0]) is None

