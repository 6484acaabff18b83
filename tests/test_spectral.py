"""Principal eigenpairs, dense spectra, gaps and threshold limits."""

import functools

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

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
    solve_host_spectrum,
    symmetric_spectrum,
)


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
        lo, hi = coarse_problem.host(1).omega_support
        assert np.all(res.phi1.values[lo : hi + 1] > 0.0)

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
        scaled = build_problem(fig1.scaled_beta(3.0), 0.05, n=512)
        base = symmetric_spectrum(host_operator(coarse_problem, 1), 5)
        tripled = symmetric_spectrum(host_operator(scaled, 1), 5)
        assert np.allclose(tripled, 3.0 * base, rtol=1e-10)

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

        monkeypatch.setattr(spec, "eigsh", functools.partial(eigsh, maxiter=1, ncv=4))
        res = solve_host_spectrum(fig1_problem, 1, with_second=True)
        assert not res.converged and res.residual > 1e-10


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
        def twin(x):
            b = np.clip((x - 0.1) * (0.3 - x), 0.0, None)
            b2 = np.clip((x - 0.7) * (0.9 - x), 0.0, None)
            return 100.0 * (b + b2)

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

