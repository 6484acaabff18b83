"""Linearized stability spectra at steady states."""

import tracemalloc

import numpy as np
import pytest

from mutsel.grid import Field, l1_norm
from mutsel.model import build_problem, preset
from mutsel.operators import host_operator, update_map
from mutsel.spectral import solve_combined_spectrum, solve_host_spectrum
from mutsel.equilibrium import default_start, solve_coupled, solve_uncoupled
from mutsel.stability import (
    EIGENVALUE_COUNT,
    stability_report,
    uncoupled_derivative_spectrum,
)


class TestStabilityReport:
    def test_fig1_endemic_stable(self, fig1_problem, fig1_state):
        rep = stability_report(fig1_problem, fig1_state.A)
        assert rep.is_fixed_point
        assert rep.stable
        assert rep.spectral_radius < 1.0

    def test_fig2_endemic_stable(self, fig2_problem, fig2_state):
        rep = stability_report(fig2_problem, fig2_state.A)
        assert rep.stable

    def test_extinction_state_unstable_with_radius_of_linear_operator(
        self, fig1_problem
    ):
        g = fig1_problem.grid
        zero = Field(g, np.zeros(g.n))
        rep = stability_report(fig1_problem, zero)
        lam = solve_combined_spectrum(fig1_problem, tol=1e-12).lambda1
        assert not rep.stable
        assert rep.spectral_radius == pytest.approx(lam, abs=1e-6)
        assert rep.error_bound is None

    def test_error_bound_covers_distance_to_fixed_point(self, fig1_problem, fig1_state):
        rough = solve_coupled(fig1_problem, tol=1e-7)
        rep = stability_report(fig1_problem, rough.A)
        assert rep.error_bound == pytest.approx(
            rep.fixed_point_residual / (1.0 - rep.spectral_radius), rel=1e-12
        )
        assert l1_norm(rough.A - fig1_state.A) <= rep.error_bound

    def test_eigenvalues_sorted_by_modulus(self, fig1_problem, fig1_state):
        rep = stability_report(fig1_problem, fig1_state.A)
        mods = np.abs(rep.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)

    def test_non_fixed_point_flagged(self, fig1_problem):
        g = fig1_problem.grid
        bogus = Field(g, np.full(g.n, 0.3), is_density=True)
        rep = stability_report(fig1_problem, bogus)
        assert not rep.is_fixed_point

    def test_matrix_matches_matrix_free_application(self, coarse_problem):
        tmap = update_map(coarse_problem)
        rng = np.random.default_rng(0)
        a = rng.random(coarse_problem.grid.n)
        h = rng.standard_normal(coarse_problem.grid.n)
        d = tmap.linearization(a).dense()
        assert np.max(np.abs(d @ h - tmap.linearization(a).matvec(h))) < 1e-10

    def test_peak_memory_linear_in_n(self, fig1_problem, fig1_state):
        # the Arnoldi run is matrix-free: its traced peak is about 127 vectors
        # of length n (0.90 MB at n = 881), where one n x n matrix is 6.2 MB
        n = fig1_problem.grid.n
        tracemalloc.start()
        try:
            stability_report(fig1_problem, fig1_state.A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 8 * n

    def test_top_eigenvalues_match_dense(self, fig1_problem, fig1_state):
        rep = stability_report(fig1_problem, fig1_state.A)
        lin = update_map(fig1_problem).linearization(fig1_state.A.values)
        dense = np.linalg.eigvals(lin.dense())
        dense = dense[np.argsort(-np.abs(dense))][:EIGENVALUE_COUNT]
        assert len(rep.eigenvalues) == EIGENVALUE_COUNT
        assert np.max(np.abs(rep.eigenvalues - dense)) < 1e-10
        assert rep.spectral_radius == pytest.approx(np.abs(dense[0]), abs=1e-10)

    def test_grid_smaller_than_eigenvalue_count(self):
        # ARPACK needs k < n - 1, so 16 nodes give 14 eigenvalues; the radius
        # is the dense eigensolve's (only the radius is compared: values of
        # equal modulus need not come out in the same order)
        problem = build_problem(preset("fig1"), 0.2, n=16, padding=0.1)
        rep = stability_report(problem, default_start(problem))
        assert len(rep.eigenvalues) == 14
        assert rep.spectral_radius == pytest.approx(0.2041052007786639, abs=1e-12)


class TestStabilityMechanism:
    def test_derivative_top_is_host_gap_ratios(self, fig1):
        # with separated supports the coupled derivative's two largest
        # eigenvalues are the single-host ratios lambda2^k / lambda1^k, and the
        # stability margin closes at first order: (1 - radius) lambda1^1 / eps
        # = (lambda1^1 - lambda2^1) / eps -> 40
        margins = []
        for eps in (0.01, 0.005, 0.0025):
            problem = build_problem(fig1, eps)
            spectra = [
                solve_host_spectrum(problem, k, tol=1e-12, with_second=True) for k in (1, 2)
            ]
            ratios = sorted((s.lambda2 / s.lambda1 for s in spectra), reverse=True)
            rep = stability_report(problem, solve_coupled(problem, tol=1e-12).A)
            assert np.max(np.abs(rep.eigenvalues[:2] - ratios)) < 1e-9
            margins.append((1.0 - rep.spectral_radius) * spectra[0].lambda1 / eps)
        assert margins == sorted(margins)
        assert margins[-1] == pytest.approx(40.0, rel=0.05)


class TestUncoupledFormula:
    def test_fig1_host1_formula_matches_matrix(self, coarse_problem):
        sol = solve_uncoupled(coarse_problem, 1)
        us = uncoupled_derivative_spectrum(coarse_problem, sol, count=10)
        assert us.max_mismatch < 1e-6

    def test_top_value_is_max_of_reciprocal_and_ratio(self, coarse_problem):
        sol = solve_uncoupled(coarse_problem, 1)
        us = uncoupled_derivative_spectrum(coarse_problem, sol, count=10)
        lam = us.operator_spectrum
        expected_top = max(1.0 / lam[0], lam[1] / lam[0])
        assert us.formula[0] == pytest.approx(expected_top, rel=1e-10)
        assert np.abs(us.matrix[0]) == pytest.approx(expected_top, abs=1e-8)

    def test_below_threshold_spectrum_is_operator_spectrum(self, fig2):
        problem = build_problem(fig2, 0.05, n=512)
        sol = solve_uncoupled(problem, 2)
        assert sol.is_trivial
        us = uncoupled_derivative_spectrum(problem, sol, count=5)
        assert np.allclose(us.formula, us.operator_spectrum[:5], atol=1e-10)
        assert us.formula[0] < 1.0

    def test_eigenfunction_maps_to_reciprocal_eigenvalue(self, coarse_problem):
        # at the single-host state, the principal eigenfunction is an
        # eigenvector of that host's derivative with eigenvalue 1/lambda1
        sol = solve_uncoupled(coarse_problem, 1)
        g = coarse_problem.grid
        theta = coarse_problem.mp.theta
        hd = coarse_problem.host(1)
        op = host_operator(coarse_problem, 1)
        a = sol.a_star.values
        phi = sol.spectral.phi1.values
        den = 1.0 + float(np.sum(g.quad_weights * hd.beta.values * a)) / theta
        beta_phi = float(np.sum(g.quad_weights * hd.beta.values * phi))
        out = op.matvec(phi) / den - op.matvec(a) / den**2 * (
            beta_phi / theta
        )
        expected = phi / sol.spectral.lambda1
        rel = np.sum(g.quad_weights * np.abs(out - expected)) / np.sum(
            g.quad_weights * np.abs(expected)
        )
        assert rel < 1e-8

    def test_imaginary_parts_negligible(self, coarse_problem):
        sol = solve_uncoupled(coarse_problem, 1)
        us = uncoupled_derivative_spectrum(coarse_problem, sol, count=10)
        assert np.max(np.abs(us.matrix.imag)) < 1e-8
