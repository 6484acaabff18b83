"""Fixed-point solvers, reconstruction and steady-state diagnostics."""

import numpy as np
import pytest

from mutsel.grid import Field, inner, l1_norm
from mutsel.model import HostParams, ModelParams, build_problem, compile_trait_expression
from mutsel.operators import ConvolutionEngine, mass_bound, update_map
from mutsel.equilibrium import (
    concentration_row,
    concentration_targets,
    default_start,
    lower_bound_check,
    mu_pinning_check,
    reconstruct,
    solve_coupled,
    solve_uncoupled,
    superposition_error,
)


class TestUncoupled:
    def test_fig1_host1_exact_fixed_point(self, fig1_problem, fig1_uncoupled):
        sol = fig1_uncoupled[0]
        assert not sol.is_trivial
        assert sol.residual < 1e-9

    def test_nu_identity(self, fig1_problem, fig1_uncoupled):
        # int(beta a*) = theta (lambda1 - 1) by the closed form
        sol = fig1_uncoupled[0]
        beta_mass = inner(fig1_problem.host(1).beta, sol.a_star)
        assert beta_mass == pytest.approx(sol.spectral.lambda1 - 1.0, rel=1e-10)

    def test_fig2_host2_trivial(self, fig2_problem):
        sol = solve_uncoupled(fig2_problem, 2)
        assert sol.is_trivial
        assert l1_norm(sol.a_star) == 0.0

    def test_a_star_positive_mass(self, fig1_uncoupled):
        for sol in fig1_uncoupled:
            assert l1_norm(sol.a_star) > 0.1


class TestCoupled:
    def test_fig1_endemic(self, fig1_state):
        assert fig1_state.classification == "endemic"
        assert fig1_state.converged
        assert fig1_state.residual < 1e-9

    def test_scaled_down_beta_disease_free(self, fig1):
        problem = build_problem(fig1.scaled_beta(0.1), 0.01)
        state = solve_coupled(problem, tol=1e-10)
        assert state.classification == "disease_free"
        assert l1_norm(state.A) < 1e-8

    def test_fixed_point_residual_both_backends(self, fig1, fig1_state):
        for mode in ("direct", "fft"):
            problem = build_problem(fig1, 0.01, mode=mode)
            tmap = update_map(problem)
            ta = tmap.apply_values(fig1_state.A.values)
            res = float(
                np.sum(problem.grid.quad_weights * np.abs(ta - fig1_state.A.values))
            )
            assert res < 1e-9

    def test_multistart_agreement(self, fig1_problem, fig1_state):
        rng = np.random.default_rng(1)
        for _ in range(3):
            vals = rng.random(fig1_problem.grid.n) + 1e-3
            start = Field(
                fig1_problem.grid,
                vals / float(np.sum(fig1_problem.grid.quad_weights * vals)),
            )
            other = solve_coupled(fig1_problem, start=start, tol=1e-12)
            assert l1_norm(other.A - fig1_state.A) < 1e-8

    def test_mass_bound_respected(self, fig1_problem, fig1_state):
        assert l1_norm(fig1_state.A) <= mass_bound(fig1_problem) + 1e-12

    def test_threshold_crossing_matches_spectral_radius(self, fig1):
        # scaling beta moves the endemic branch exactly with the radius
        from mutsel.spectral import solve_combined_spectrum

        for scale in (0.2, 0.3):
            problem = build_problem(fig1.scaled_beta(scale), 0.02)
            lam = solve_combined_spectrum(problem).lambda1
            state = solve_coupled(problem, tol=1e-10)
            if lam > 1.0:
                assert state.classification == "endemic"
            else:
                assert state.classification == "disease_free"


class TestReconstruct:
    def test_disease_free_levels(self, fig1_problem):
        g = fig1_problem.grid
        state = reconstruct(fig1_problem, Field(g, np.zeros(g.n), is_density=True))
        assert state.S1 == pytest.approx(0.5, rel=1e-12)
        assert state.S2 == pytest.approx(0.5, rel=1e-12)
        assert state.classification == "disease_free"

    def test_solver_output_consistent(self, fig1_problem, fig1_state):
        redone = reconstruct(fig1_problem, fig1_state.A)
        assert redone.residual < 1e-9
        assert redone.S1 == pytest.approx(fig1_state.S1, rel=1e-12)

    def test_mu_definition(self, fig1_problem, fig1_state):
        mu1 = fig1_problem.mp.theta + inner(fig1_problem.host(1).beta, fig1_state.A)
        assert fig1_state.mu1 == pytest.approx(mu1, rel=1e-12)


class TestDiagnostics:
    def test_superposition_small_at_moderate_eps(
        self, fig1_problem, fig1_state, fig1_uncoupled
    ):
        sup = superposition_error(fig1_problem, fig1_state.A, fig1_uncoupled)
        assert sup.e_total < 1e-6
        assert sup.e_sigma1 <= sup.e_total + 1e-15
        assert sup.e_complement <= sup.e_total + 1e-15

    def test_superposition_zero_on_exact_sum(self, fig1_problem, fig1_uncoupled):
        s = fig1_uncoupled[0].a_star + fig1_uncoupled[1].a_star
        sup = superposition_error(fig1_problem, s, fig1_uncoupled)
        assert sup.e_total < 1e-12

    def test_pinning(self, fig1_problem, fig1_state, fig1_spectra):
        reports = mu_pinning_check(fig1_problem, fig1_state, fig1_spectra)
        assert len(reports) == 2
        for r in reports:
            assert r.inequality_ok
            assert r.pinned

    def test_pinning_skipped_for_disease_free(self, fig1_problem, fig1_spectra):
        g = fig1_problem.grid
        dfree = reconstruct(fig1_problem, Field(g, np.zeros(g.n), is_density=True))
        assert mu_pinning_check(fig1_problem, dfree, fig1_spectra) == []

    def test_lower_bound(self, fig1_problem, fig1_state, fig1_spectra):
        checks = lower_bound_check(fig1_problem, fig1_state, fig1_spectra)
        assert len(checks) == 2
        for _, mass, bound, ok in checks:
            assert ok
            assert mass >= bound - 1e-9

    def test_concentration_targets_fig1(self, fig1_problem):
        t = concentration_targets(fig1_problem)
        assert t.s[0] == pytest.approx(0.125, rel=1e-3)
        assert t.s[1] == pytest.approx(0.25, rel=1e-3)
        assert t.infected_mass[0] == pytest.approx(0.375, rel=1e-3)
        assert t.infected_mass[1] == pytest.approx(0.25, rel=1e-3)
        assert t.a_mass == pytest.approx(0.625, rel=1e-3)
        assert t.a_first_moment == pytest.approx(0.35, rel=1e-3)

    def test_concentration_targets_fig2_partial(self, fig2_problem):
        t = concentration_targets(fig2_problem)
        # below-threshold host keeps the disease-free tissue level
        assert t.s[1] == pytest.approx(0.5, rel=1e-12)
        assert t.infected_mass[1] == 0.0

    def test_concentration_row_consistency(self, fig1_problem, fig1_state):
        row = concentration_row(fig1_problem, fig1_state)
        assert row.a_mass == pytest.approx(l1_norm(fig1_state.A), rel=1e-12)
        assert 0.3 < row.a_argmax < 0.9


def _with_death_and_production(mp):
    """The model with nonzero extra death d, non-constant production r, delta = 2."""
    hosts = tuple(
        HostParams(h.xi, h.beta, h.beta_support, d=compile_trait_expression(d),
                   r=compile_trait_expression(r))
        for h, d, r in zip(mp.hosts, ("0.3 + x", "0.5"), ("1 + 2*x", "2 - x"))
    )
    return ModelParams(mp.lambda_, mp.theta, 2.0, hosts)


class TestReconstructResidual:
    @pytest.mark.parametrize("variant", ["fig1", "fig1_d_r_delta"])
    def test_matches_convolved_spore_production(self, fig1, variant):
        # the residual delta ||A - T(A)||_1 must equal the balance it stands
        # for, ||delta A - m_eps * (sum_k r_k I_k)||_1, at any density A
        mp = fig1 if variant == "fig1" else _with_death_and_production(fig1)
        problem = build_problem(mp, 0.01)
        engine = ConvolutionEngine(problem.kernel, problem.grid)
        rng = np.random.default_rng(5)
        densities = [default_start(problem), Field(problem.grid, rng.random(problem.grid.n))]
        for A in densities:
            state = reconstruct(problem, A)
            production = (
                problem.host(1).r.values * state.I1.values
                + problem.host(2).r.values * state.I2.values
            )
            old = l1_norm(
                Field(problem.grid, mp.delta * A.values - engine.convolve_values(production))
            )
            assert state.residual == pytest.approx(old, rel=1e-14)
