"""Fixed-point solvers, reconstruction and steady-state diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from mutsel import equilibrium, spectral
from mutsel.grid import Field, UsageError, inner, l1_norm
from mutsel.model import (
    OVERLAPPING_SUPPORTS,
    HostParams,
    ModelParams,
    TraitExpression,
    build_problem,
    preset,
)
from mutsel.operators import ConvolutionEngine, host_map, update_map
from mutsel.spectral import solve_combined_spectrum
from mutsel.equilibrium import (
    concentration_targets,
    default_start,
    lower_bound_check,
    mu_pinning_check,
    reconstruct,
    solve_coupled,
    solve_uncoupled,
    summarize,
    superposition_error,
)
from oracles import dense_matrix, mass_bound


def _random_start(problem, rng):
    """A unit-mass random start, as ``mutsel equilibrium --starts`` draws it."""
    vals = rng.random(problem.grid.n) + 1e-3
    return Field(problem.grid, vals / float(np.sum(problem.grid.quad_weights * vals)))


class TestUncoupled:
    def test_fig1_host1_exact_fixed_point(self, fig1_problem, fig1_uncoupled):
        a = fig1_uncoupled[0]
        assert a.values.any()
        mapped = Field(fig1_problem.grid, host_map(fig1_problem, 1).apply_values(a.values))
        assert l1_norm(mapped - a) < 1e-9

    def test_nu_identity(self, fig1_problem, fig1_uncoupled):
        # int(beta a*) = theta (lambda1 - 1) by the closed form
        beta_mass = inner(fig1_problem.host(1).beta, fig1_uncoupled[0])
        assert beta_mass == pytest.approx(fig1_problem.host_spectra[0].lambda1 - 1.0, rel=1e-10)

    def test_fig2_host2_trivial(self, fig2_problem):
        assert fig2_problem.host_spectra[1].lambda1 <= 1.0
        assert l1_norm(solve_uncoupled(fig2_problem, 2)) == 0.0

    def test_a_star_positive_mass(self, fig1_uncoupled):
        for a in fig1_uncoupled:
            assert l1_norm(a) > 0.1

    def test_host_spectra_solved_once_per_problem(self, fig1, monkeypatch):
        # the coupled solve's certificate reads the host spectra too
        problem = build_problem(fig1, 0.05)
        problem.combined_radius
        calls = []
        solve = spectral.principal_eigenpair

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "principal_eigenpair", counted)
        state = solve_coupled(problem)
        solve_uncoupled(problem, 1)
        solve_uncoupled(problem, 2)
        mu_pinning_check(problem, state)
        lower_bound_check(problem, state)
        assert len(calls) == 2

    def test_single_host_states_convolve_nothing(self, fig1, monkeypatch):
        # a_k* is a closed-form multiple of the cached eigenfunction, and the
        # superposition error reads the two densities
        problem = build_problem(fig1, 0.05)
        problem.combined_radius
        A = solve_coupled(problem).A
        calls = []
        convolve = ConvolutionEngine.convolve_values

        def counted(self, values):
            calls.append(values)
            return convolve(self, values)

        monkeypatch.setattr(ConvolutionEngine, "convolve_values", counted)
        solve_uncoupled(problem, 1)
        solve_uncoupled(problem, 2)
        superposition_error(problem, A)
        assert calls == []

    def test_unconverged_host_spectrum_raises(self, fig1, monkeypatch):
        # a tridiagonal eigensolve that fails in LAPACK does not converge
        def factor_fails(*args, **kwargs):
            raise LinAlgError("tridiagonal factorization failed")

        monkeypatch.setattr(spectral, "TridiagonalLU", factor_fails)
        with pytest.raises(spectral.SpectralError, match="^host 1 spectrum did not converge"):
            solve_uncoupled(build_problem(fig1, 0.05), 1)


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
        # the tridiagonal-solve map and the same map as an O(n^2) Toeplitz product
        problem = build_problem(fig1, 0.01)
        tmap = update_map(problem)
        a = fig1_state.A.values
        toeplitz = dense_matrix(tmap.engine, np.ones(problem.grid.n))
        for ta in (tmap.apply_values(a), toeplitz @ (tmap.linearization(a).gain * a)):
            res = float(np.sum(problem.grid.quad_weights * np.abs(ta - a)))
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
        # scaling beta moves the endemic branch exactly with the radius, and
        # the radius is linear in beta, so a target radius rho fixes the scale
        lam_unscaled = solve_combined_spectrum(build_problem(fig1, 0.02)).lambda1
        rhos = (0.5, 0.9, 0.98, 0.995, 1.005, 1.02, 1.1)
        # map applications damped fixed-point iteration took just above threshold
        damped_iterations = {1.005: 2351, 1.02: 731}
        cases = [(0.2, None), (0.3, None), *((rho / lam_unscaled, rho) for rho in rhos)]
        for scale, rho in cases:
            problem = build_problem(fig1.scaled_beta(scale), 0.02)
            lam = solve_combined_spectrum(problem).lambda1
            assert lam == pytest.approx(scale * lam_unscaled, rel=1e-10)
            state = solve_coupled(problem, tol=1e-10)
            assert state.converged
            assert state.classification == ("endemic" if lam > 1.0 else "disease_free")
            if lam > 1.0:
                # every positive fixed point has max_k mu_k / theta >= lam; the
                # zero state, a fixed point too, has 1
                assert state.mu.max() / problem.mp.theta > lam - 1e-6
            if rho in damped_iterations:
                assert state.iterations < damped_iterations[rho]

    def test_small_eps_converges_in_few_iterations(self, fig1):
        # at eps = 1e-3 (n = 8193) plain iteration contracts at about 0.99 per
        # step and took 905 and 1,431 map applications from these two starts;
        # pseudo-transient continuation takes 1 (from the superposition start)
        # and 11
        problem = build_problem(fig1, 1e-3)
        for start in (None, _random_start(problem, np.random.default_rng(1))):
            state = solve_coupled(problem, start=start)
            assert state.converged
            assert state.iterations <= 30
            assert state.A.values.min() >= 0.0

    def test_superposition_start_converges_at_once(self, fig1):
        # at eps = 1e-3 the sum of the single-host states has a residual near
        # 1e-15, so one map application certifies it
        state = solve_coupled(build_problem(fig1, 1e-3))
        assert state.converged and state.classification == "endemic"
        assert state.iterations == 1 and state.restarts == 0

    def test_overlapping_supports_start_from_default_start(self, fig3):
        # fig3's supports overlap, so its coupled state is no superposition
        problem = build_problem(fig3, 2.5e-3)
        assert OVERLAPPING_SUPPORTS in problem.assumption_warnings
        state = solve_coupled(problem)
        same = solve_coupled(problem, start=default_start(problem))
        assert state.converged
        assert state.residual_history == same.residual_history

    def test_mass_off_the_read_nodes_is_ignored(self, fig1_problem, fig1_state):
        # the map reads its input only where a fitness or beta row is nonzero,
        # and the solve runs on those nodes alone: mass added elsewhere changes
        # nothing, to the last bit
        start = _random_start(fig1_problem, np.random.default_rng(3))
        off = np.ones(fig1_problem.grid.n, bool)
        off[update_map(fig1_problem).read_nodes] = False
        assert off.any()
        heavy = Field(fig1_problem.grid, start.values + 5.0 * off)
        state, other = (solve_coupled(fig1_problem, start=s, tol=1e-12) for s in (start, heavy))
        assert state.converged and other.converged
        assert np.array_equal(state.A.values, other.A.values)
        assert state.residual_history == other.residual_history
        assert l1_norm(state.A - fig1_state.A) < 1e-8

    @pytest.mark.parametrize("eps", [2.5e-3, 1e-3])
    def test_overlapping_supports_random_starts_take_even_counts(self, fig3, eps):
        # clipped Newton steps used to stall at points that miss host 1's peak,
        # and plain steps regrew it: 9 to 244 map applications at 2.5e-3 and
        # 11 to 1,120 at 1e-3 from these starts.  Pseudo-transient steps take
        # 11 and 12 from every one of them
        problem = build_problem(fig3, eps)
        reference = solve_coupled(problem).A
        iterations = []
        for seed in range(1, 21):
            state = solve_coupled(problem, start=_random_start(problem, np.random.default_rng(seed)))
            assert state.converged
            assert l1_norm(state.A - reference) < 1e-8
            iterations.append(state.iterations)
        assert max(iterations) <= 2 * np.median(iterations)

    @pytest.mark.parametrize("seed", [6, 8])
    def test_stalled_newton_escapes_by_plain_steps(self, fig3, seed):
        # from these random starts clipped Newton steps stalled at points that
        # missed host 1's peak (236 and 34 map applications, 197 and 10 of them
        # plain steps), and plain steps regrew it.  Pseudo-transient steps do
        # not stall there: 11 map applications each, and no plain step
        problem = build_problem(fig3, 2.5e-3)
        state = solve_coupled(problem, start=_random_start(problem, np.random.default_rng(seed)))
        assert state.converged and state.restarts == 0
        assert state.iterations <= 30
        assert l1_norm(state.A - solve_coupled(problem).A) < 1e-8

    def test_overlapping_supports_default_start_converges_fast(self, fig3):
        # criterion 10's case: Newton with plain steps took 149 map
        # applications, 127 of them plain steps; pseudo-transient steps take 12
        state = solve_coupled(build_problem(fig3, 1e-3))
        assert state.converged and state.classification == "endemic"
        assert state.iterations <= 30

    @pytest.mark.parametrize("default", [False, True])
    def test_near_threshold_converges_fast(self, fig1, default):
        # at rho = 1.002 plain iteration contracts at nearly 1, and the previous
        # Anderson solve took 1,550 map applications from default_start;
        # pseudo-transient continuation takes 1 from the superposition start
        # and 15 from default_start
        rho = build_problem(fig1, 1e-2).combined_radius
        problem = build_problem(replace(fig1, lambda_=fig1.lambda_ * 1.002 / rho), 1e-2)
        assert problem.combined_radius == pytest.approx(1.002, rel=1e-12)
        state = solve_coupled(problem, start=default_start(problem) if default else None)
        assert state.converged and state.classification == "endemic"
        assert state.iterations <= 30

    @pytest.mark.parametrize("name, eps, scale, mass, most", [
        ("fig1", 1e-2, 1.0, 1e-8, 60),
        *((name, eps, scale, 1e-6, 200) for name, eps, scale in (
            ("fig1", 2.5e-3, 0.26), ("fig1", 2.5e-3, 0.51), ("fig1", 2.5e-3, 0.52),
            ("fig1", 1e-2, 0.6), ("fig2", 2.5e-3, 1.0), ("fig3", 2.5e-3, 0.3),
            ("fig3", 2.5e-3, 0.52), ("fig3", 1e-2, 1.0)))])
    def test_tiny_start_does_not_collapse_to_zero(self, name, eps, scale, mass, most):
        # the zero state is a root of a - T(a) too, and Newton heads for it from
        # a start of tiny mass.  The start is lifted to the combined lower bound,
        # and plain steps grow the other host to its own: on fig1 from 1e-8
        # times default_start, 13 map applications, 3 of them plain steps.  On
        # the models above threshold from starts of mass 1e-6, pseudo-transient
        # steps without the lift went to the zero state or stalled in 10 of 30
        # starts each; Newton with plain steps took 421 to 520 map applications
        # on fig1 with beta x 0.26 (rho = 1.027) and 812 to 957 with beta x 0.52,
        # which now take 150 to 159 and 11 to 16
        problem = build_problem(preset(name).scaled_beta(scale), eps)
        assert problem.combined_radius > 1.0
        reference = solve_coupled(problem, tol=1e-12).A
        rng = np.random.default_rng(1)
        for start in (default_start(problem), *(_random_start(problem, rng) for _ in range(2))):
            state = solve_coupled(problem, start=Field(problem.grid, mass * start.values),
                                  tol=1e-12)
            assert state.converged and state.classification == "endemic"
            assert state.iterations <= most
            assert l1_norm(state.A - reference) < 1e-8

    def test_escapes_single_host_state(self, fig1_problem, fig1_state):
        # host 1's single-host state is a near-fixed point of the coupled map
        # (residual 2e-11) that host 2's mode grows away from; a Newton-like
        # step would cancel that growth and return there.  Plain steps follow
        # it until host 2 meets its lower bound, then shifted steps converge:
        # 53 map applications in all, 44 of them plain steps.
        start = solve_uncoupled(fig1_problem, 1)
        state = solve_coupled(fig1_problem, start=start, tol=1e-12)
        assert state.converged
        assert state.iterations <= 200
        assert state.A.values.min() >= 0.0
        assert l1_norm(state.A - fig1_state.A) < 1e-8

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_single_host_state_is_not_accepted(self, fig1, eps):
        # at the default tol host 1's single-host state passes the residual
        # test after one map application, with host 2's mu2/theta = 1 far
        # below its lambda1 = 1.81; the necessary conditions turn it down, and
        # plain steps, not shifted steps, leave it
        problem = build_problem(fig1, eps)
        state = solve_coupled(problem, start=solve_uncoupled(problem, 1))
        assert state.converged and state.iterations > 1
        assert all(p.inequality_ok for p in mu_pinning_check(problem, state))
        assert all(ok for *_, ok in lower_bound_check(problem, state))
        assert l1_norm(state.A - solve_coupled(problem).A) < 1e-6

    def test_near_fixed_point_never_escaped_is_not_converged(self, fig1_problem, monkeypatch):
        monkeypatch.setattr(equilibrium, "DEFAULT_MAX_ITER", 5)
        start = solve_uncoupled(fig1_problem, 1)
        state = solve_coupled(fig1_problem, start=start)
        assert state.residual_history[0] < 1e-10
        assert not state.converged and state.classification == "non_converged"

    def test_negative_start_rejected(self, fig1_problem):
        vals = default_start(fig1_problem).values.copy()
        vals[len(vals) // 2] = -1e-12
        with pytest.raises(UsageError, match="nonnegative"):
            solve_coupled(fig1_problem, start=Field(fig1_problem.grid, vals))

    def test_combined_spectrum_computed_once_per_problem(self, fig1, monkeypatch):
        calls = []
        solve = spectral.solve_combined_spectrum

        def counted(problem, **kwargs):
            calls.append(problem)
            return solve(problem, **kwargs)

        monkeypatch.setattr(spectral, "solve_combined_spectrum", counted)
        problem = build_problem(fig1, 0.02)
        for _ in range(2):
            state = solve_coupled(problem)
            reconstruct(problem, state.A)
        assert calls == [problem]


class TestReconstruct:
    def test_disease_free_levels(self, fig1_problem):
        g = fig1_problem.grid
        state = reconstruct(fig1_problem, Field(g, np.zeros(g.n), is_density=True))
        assert state.S[0] == pytest.approx(0.5, rel=1e-12)
        assert state.S[1] == pytest.approx(0.5, rel=1e-12)
        assert state.classification == "disease_free"

    def test_solver_output_consistent(self, fig1_problem, fig1_state):
        redone = reconstruct(fig1_problem, fig1_state.A)
        assert redone.residual < 1e-9
        assert redone.S[0] == pytest.approx(fig1_state.S[0], rel=1e-12)

    def test_mu_definition(self, fig1_problem, fig1_state):
        mu1 = fig1_problem.mp.theta + inner(fig1_problem.host(1).beta, fig1_state.A)
        assert fig1_state.mu[0] == pytest.approx(mu1, rel=1e-12)


class TestDiagnostics:
    def test_superposition_small_at_moderate_eps(self, fig1_problem, fig1_state):
        sup = superposition_error(fig1_problem, fig1_state.A)
        assert sup.e_total < 1e-6
        assert sup.e_sigma1 <= sup.e_total + 1e-15
        assert sup.e_complement <= sup.e_total + 1e-15

    def test_superposition_zero_on_exact_sum(self, fig1_problem, fig1_uncoupled):
        s = fig1_uncoupled[0] + fig1_uncoupled[1]
        sup = superposition_error(fig1_problem, s)
        assert sup.e_total < 1e-12

    def test_superposition_sums_partition_the_window(self, fig1_problem, fig1_state, fig3):
        # fig1: the supports are disjoint, so the three sums split e_total
        sup = superposition_error(fig1_problem, fig1_state.A)
        parts = sup.e_sigma1 + sup.e_sigma2 + sup.e_complement
        assert parts == pytest.approx(sup.e_total, rel=1e-14)
        # fig3: the supports overlap on [0.6, 0.7], which counts in both sigma sums
        problem = build_problem(fig3, 0.02)
        unc = (solve_uncoupled(problem, 1), solve_uncoupled(problem, 2))
        a = solve_coupled(problem).A
        (lo1, hi1), (lo2, hi2) = (problem.host(k).sigma_support for k in (1, 2))
        nodes = problem.grid.nodes
        assert lo1 < lo2 <= hi1 < hi2
        assert nodes[lo2] == pytest.approx(0.6) and nodes[hi1] == pytest.approx(0.7)
        err = problem.grid.quad_weights * np.abs(a.values - unc[0].values - unc[1].values)
        overlap = float(np.sum(err[lo2 : hi1 + 1]))
        sup = superposition_error(problem, a)
        assert overlap > 1e-3 * sup.e_total
        excess = sup.e_sigma1 + sup.e_sigma2 + sup.e_complement - sup.e_total
        assert excess == pytest.approx(overlap, rel=1e-12)

    def test_pinning(self, fig1_problem, fig1_state):
        reports = mu_pinning_check(fig1_problem, fig1_state)
        assert len(reports) == 2
        for r in reports:
            assert r.inequality_ok
            assert r.pinned

    def test_pinning_skipped_for_disease_free(self, fig1_problem):
        g = fig1_problem.grid
        dfree = reconstruct(fig1_problem, Field(g, np.zeros(g.n), is_density=True))
        assert mu_pinning_check(fig1_problem, dfree) == []

    def test_lower_bound(self, fig1_problem, fig1_state):
        checks = lower_bound_check(fig1_problem, fig1_state)
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
        row = summarize(fig1_state)
        assert row.a_mass == pytest.approx(l1_norm(fig1_state.A), rel=1e-12)
        assert 0.3 < row.a_argmax < 0.9


def _with_death_and_production(mp):
    """The model with nonzero extra death d, non-constant production r, delta = 2."""
    hosts = tuple(
        HostParams(h.xi, h.beta, h.beta_support, d=TraitExpression(d),
                   r=TraitExpression(r))
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
        engine = ConvolutionEngine(problem.kernel)
        rng = np.random.default_rng(5)
        densities = [default_start(problem), Field(problem.grid, rng.random(problem.grid.n))]
        for A in densities:
            state = reconstruct(problem, A)
            production = (
                problem.host(1).r.values * state.I[0].values
                + problem.host(2).r.values * state.I[1].values
            )
            old = l1_norm(
                Field(problem.grid, mp.delta * A.values - engine.convolve_values(production))
            )
            assert state.residual == pytest.approx(old, rel=1e-14)
