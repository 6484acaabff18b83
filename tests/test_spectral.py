"""Principal eigenpairs, dense spectra, gaps and threshold limits."""

import numpy as np
import pytest

from mutsel.grid import Field, l1_norm
from mutsel.model import (
    HostParams,
    ModelParams,
    build_problem,
    constant,
    quadratic_bump,
)
from mutsel.operators import host_operator
from mutsel.spectral import (
    gap_exponent,
    principal_eigenpair,
    r0_limits,
    second_eigenvalue,
    solve_host_spectrum,
    spectral_gap_table,
    symmetric_spectrum,
)


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
        hosts = (
            HostParams(xi=0.5, beta=constant(3.0), beta_support=(-0.5, 1.5)),
            HostParams(xi=0.5, beta=quadratic_bump(400, 0.7, 0.9), beta_support=(0.7, 0.9)),
        )
        mp = ModelParams(1.0, 1.0, 1.0, hosts)
        problem = build_problem(mp, 0.05, n=512)
        res = principal_eigenpair(host_operator(problem, 1), tol=1e-8)
        # window truncation costs a few percent at this kernel width
        assert res.lambda1 == pytest.approx(0.5 * 3.0, rel=0.05)
        assert res.lambda1 <= 0.5 * 3.0

    def test_rayleigh_quotient_stationary(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-12)
        w = coarse_problem.grid.quad_weights
        u = np.sqrt(op.weight.values) * res.phi1.values
        num = float(np.sum(w * u * op.symmetrized_apply_values(u)))
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

    def test_deflated_second_matches_dense(self, coarse_problem):
        op = host_operator(coarse_problem, 1)
        res = principal_eigenpair(op, tol=1e-12)
        dense = symmetric_spectrum(op, 2)[1]
        import mutsel.spectral as spec

        old = spec.DENSE_LIMIT
        spec.DENSE_LIMIT = 0  # force the deflated iterative path
        try:
            iterative = second_eigenvalue(op, res, tol=1e-12)
        finally:
            spec.DENSE_LIMIT = old
        assert iterative == pytest.approx(dense, abs=1e-7)


class TestGapsAndLimits:
    def test_r0_limits_fig1(self, fig1_problem):
        r0, r01, r02 = r0_limits(fig1_problem)
        assert r01 == pytest.approx(4.0, abs=1e-3)
        assert r02 == pytest.approx(2.0, abs=1e-3)
        assert r0 == pytest.approx(4.0, abs=1e-3)

    def test_r0_limits_fig2(self, fig2_problem):
        r0, r01, r02 = r0_limits(fig2_problem)
        assert r02 == pytest.approx(0.75, abs=1e-3)
        assert r0 == pytest.approx(4.0, abs=1e-3)

    def test_r0_fig3_dominates_parts(self, fig3):
        problem = build_problem(fig3, 0.01)
        r0, r01, r02 = r0_limits(problem)
        assert r0 >= max(r01, r02) - 1e-12

    def test_spectral_radius_below_limit_and_increasing(self, fig1):
        lams = []
        for eps in (0.05, 0.02, 0.01):
            problem = build_problem(fig1, eps)
            res = solve_host_spectrum(problem, 1)
            assert res.lambda1 < problem.host(1).r0
            lams.append(res.lambda1)
        assert lams == sorted(lams)

    def test_gap_table(self, fig1):
        table = spectral_gap_table(fig1, 1, [0.1, 0.05, 0.02], n=512)
        assert all(r.gap > 0 for r in table.rows)
        assert table.fitted_exponent is not None
        assert np.isfinite(table.fitted_exponent)
        assert not table.degenerate

    def test_degenerate_twin_peaks_flagged(self):
        # two identical bumps: the limit eigenvalue is double, the gap collapses
        def twin(x):
            b = np.clip((x - 0.1) * (0.3 - x), 0.0, None)
            b2 = np.clip((x - 0.7) * (0.9 - x), 0.0, None)
            return 100.0 * (b + b2)

        hosts = (
            HostParams(xi=0.5, beta=twin, beta_support=(0.1, 0.9)),
            HostParams(xi=0.5, beta=quadratic_bump(400, 0.4, 0.6), beta_support=(0.4, 0.6)),
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
