"""Linearized stability spectra at steady states."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.sparse.linalg import LinearOperator, eigs

import mutsel.stability as stab
from mutsel.grid import Field, l1_norm
from mutsel.model import build_problem, preset
from mutsel.operators import TridiagonalLU, host_operator, update_map
from mutsel.spectral import solve_combined_spectrum, solve_host_spectrum
from mutsel.equilibrium import default_start, solve_coupled, solve_uncoupled
from mutsel.stability import (BASIS_CAP, EIGENVALUE_COUNT, INITIAL_SAMPLES, SHIFT,
                              STABILITY_MARGIN, arnoldi, eigenvalue_count, stability_report)
from oracles import dense_derivative, uncoupled_derivative_spectrum


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

    def test_eigenvalues_sorted_by_modulus(self, fig1_problem, fig1_state, fig3_tight):
        rep = stability_report(fig1_problem, fig1_state.A)
        mods = np.abs(rep.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)
        # a conjugate pair shares its modulus exactly; its positive imaginary
        # part comes first, whichever order the Arnoldi run returned it in
        eig = stability_report(*fig3_tight).eigenvalues
        mods = np.abs(eig)
        assert np.all(np.diff(mods) <= 0.0)
        ties = np.flatnonzero(np.diff(mods) == 0.0)
        assert ties.size >= 1
        for i in ties:
            assert eig[i] == np.conj(eig[i + 1]) and eig[i].imag > 0.0

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
        d = dense_derivative(tmap.linearization(a))
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
        dense = np.linalg.eigvals(dense_derivative(lin))
        dense = dense[np.argsort(-np.abs(dense))][:EIGENVALUE_COUNT]
        assert len(rep.eigenvalues) == EIGENVALUE_COUNT
        assert np.max(np.abs(rep.eigenvalues - dense)) < 1e-10
        assert rep.spectral_radius == pytest.approx(np.abs(dense[0]), abs=1e-10)

    def test_grid_smaller_than_eigenvalue_count(self):
        # a grid of n nodes gives at most n - 2, so 16 nodes give 14 eigenvalues; the radius
        # is the dense eigensolve's (only the radius is compared: values of
        # equal modulus need not come out in the same order)
        problem = build_problem(preset("fig1"), 0.2, n=16, padding=0.1)
        rep = stability_report(problem, default_start(problem))
        assert len(rep.eigenvalues) == 14
        assert rep.spectral_radius == pytest.approx(0.2041052007786639, abs=1e-12)
        # too few nodes for shift-invert: regular mode runs and nothing is counted
        assert rep.mode == "regular" and "fewer" in rep.fallback
        assert rep.certificate is None and not rep.certified


def _operator(lin):
    """``lin`` as the operator scipy's ``eigs``, the reference eigensolver, takes."""
    return LinearOperator((lin.a.size, lin.a.size), matvec=lin.matvec, dtype=float)


def _on_read_nodes(problem, A):
    """The derivative the report's Arnoldi runs on, and the report's start vector there."""
    tmap = update_map(problem)
    read = tmap.read_nodes
    v0 = (1.0 + np.random.default_rng(0).random(problem.grid.n))[read]
    return tmap.restricted(read).linearization(A.values[read]), v0


def _regular(problem, A):
    """The regular-mode run the report falls back to, sorted as the report sorts."""
    lin, v0 = _on_read_nodes(problem, A)
    eig = eigs(_operator(lin), k=EIGENVALUE_COUNT, which="LM", v0=v0, tol=0,
               return_eigenvectors=False)
    return eig[np.lexsort((-eig.imag, -np.abs(eig)))]


class TestShiftInvert:
    @pytest.mark.parametrize("name, eps", [("fig1", 2.5e-3), ("fig3", 2.5e-3), ("fig1", 1e-3)])
    def test_matches_regular_mode(self, name, eps):
        # shift-invert runs and is certified; its sorted list is regular mode's
        # to 1e-12, a conjugate pair included (fig3)
        problem = build_problem(preset(name), eps)
        state = solve_coupled(problem)
        rep = stability_report(problem, state.A)
        assert rep.mode == "shift-invert" and rep.fallback is None
        assert rep.certified and rep.certificate.count == EIGENVALUE_COUNT
        assert rep.operator_applications <= 100
        assert np.max(np.abs(rep.eigenvalues - _regular(problem, state.A))) < 1e-12

    def test_wrong_eigenvalue_set_falls_back_to_regular_mode(self, fig3_tight, monkeypatch):
        # shift-invert is made to lose its largest eigenvalue: the count outside
        # the circle then exceeds the eigenvalues found there, and regular mode runs
        def lossy(apply, v0, want):
            mu, used = arnoldi(apply, v0, want)
            if want == EIGENVALUE_COUNT:  # the regular run
                return mu, used
            # the run's values mu = 1 / (SHIFT - lambda), as eigenvalues lambda
            eig = SHIFT - 1.0 / mu
            eig = eig[np.argsort(-np.abs(eig))]
            return 1.0 / (SHIFT - np.append(eig[1:], 0.5 * eig[-1])), used

        monkeypatch.setattr(stab, "arnoldi", lossy)
        rep = stability_report(*fig3_tight)
        assert rep.mode == "regular"
        assert "count" in rep.fallback
        # the regular run is not counted: the report keeps the count that failed
        assert not rep.certified and rep.certificate.count != EIGENVALUE_COUNT
        assert np.max(np.abs(rep.eigenvalues - _regular(*fig3_tight))) < 1e-12

    def test_undecided_count_falls_back_to_regular_mode(self, fig1_problem, fig1_state,
                                                        monkeypatch):
        import mutsel.stability as stab

        count = stab.eigenvalue_count
        calls = []

        def undecided(lin, radius):
            calls.append(radius)
            got = count(lin, radius)
            return stab.EigenvalueCount(radius, got.pencil_count, None, got.samples)

        monkeypatch.setattr(stab, "eigenvalue_count", undecided)
        rep = stability_report(fig1_problem, fig1_state.A)
        assert len(calls) == 1
        assert rep.mode == "regular" and "undecided" in rep.fallback
        assert not rep.certified and rep.certificate.winding is None
        assert rep.stable

    def test_single_host_state_counted_unstable(self, fig1_problem):
        # at host 1's single-host state host 2's mode grows: the count outside
        # the stability boundary is the number of eigenvalues found beyond it
        A = solve_uncoupled(fig1_problem, 1)
        rep = stability_report(fig1_problem, A)
        assert not rep.stable and rep.spectral_radius > 1.0
        lin, _ = _on_read_nodes(fig1_problem, A)
        boundary = eigenvalue_count(lin, 1.0 - STABILITY_MARGIN)
        outside = np.count_nonzero(np.abs(rep.eigenvalues) > 1.0 - STABILITY_MARGIN)
        assert boundary.count == outside >= 1


class TestArnoldi:
    @pytest.mark.parametrize("n, seed", [(40, 0), (40, 1), (150, 2), (150, 6)])
    def test_top_values_match_dense(self, n, seed):
        # random nonsymmetric matrices, their top values among conjugate
        # pairs; the larger ones restart (n above the basis cap), and seed 6's
        # first restart would split a conjugate pair
        a = np.random.default_rng(seed).standard_normal((n, n))
        v0 = np.random.default_rng(seed + 10).random(n)
        got, used = arnoldi(lambda y: a @ y, v0, 10)
        want = stab._by_modulus(np.linalg.eigvals(a))[:10]
        assert np.any(want.imag != 0.0)
        assert (used > BASIS_CAP) == (n > BASIS_CAP)
        assert got.size == 10 and np.all(np.diff(np.abs(got)) <= 1e-12)
        assert np.max(np.abs(stab._by_modulus(got) - want)) < 1e-10 * np.abs(want[0])

    def test_breakdown_goes_on_from_a_random_vector(self):
        # an upper-triangular matrix keeps e1 invariant: the first step gives
        # h_21 = 0 exactly, and the run continues orthogonally to e1
        n = 12
        a = (np.triu(np.random.default_rng(4).standard_normal((n, n)), 1)
             + np.diag(np.arange(1.0, n + 1)))
        got, used = arnoldi(lambda y: a @ y, np.eye(n)[0], n - 2)
        assert used == n
        assert np.allclose(got, np.arange(n, 2.0, -1.0), rtol=0.0, atol=1e-10)

    def test_breakdown_on_a_tiny_grid(self):
        # fig1's derivative on 16 nodes has rank 10 (its columns off the 11
        # read nodes are zero), so no Krylov space has more than 11
        # dimensions: the run breaks down before it spans the grid, goes on,
        # and gives the dense spectrum's top 14
        problem = build_problem(preset("fig1"), 0.2, n=16, padding=0.1)
        lin = update_map(problem).linearization(default_start(problem).values)
        dense = dense_derivative(lin)
        assert np.linalg.matrix_rank(dense) == 10
        got, used = arnoldi(lin.matvec, 1.0 + np.random.default_rng(0).random(16), 14)
        assert used == 16
        want = stab._by_modulus(np.linalg.eigvals(dense))[:14]
        assert np.max(np.abs(stab._by_modulus(got) - want)) < 1e-12

    def test_exhausted_budget_gives_none(self, monkeypatch):
        monkeypatch.setattr(stab, "MAX_APPLICATIONS", BASIS_CAP)
        a = np.random.default_rng(0).standard_normal((150, 150))
        assert arnoldi(lambda y: a @ y, np.ones(150), 10) == (None, BASIS_CAP)

    def test_regular_mode_restarts_to_scipys_answer(self):
        # regular mode on fig1 at eps = 1e-3 clusters the top eigenvalues below
        # 1: its run restarts, and still matches scipy's eigs, in no more
        # applications than eigs takes there (212; 255 without locking)
        problem = build_problem(preset("fig1"), 1e-3)
        A = solve_coupled(problem).A
        lin, v0 = _on_read_nodes(problem, A)
        got, used = arnoldi(lin.matvec, v0, EIGENVALUE_COUNT)
        assert BASIS_CAP < used <= 212
        assert np.max(np.abs(stab._by_modulus(got) - _regular(problem, A))) < 1e-12

    def test_unconverged_runs(self, fig3_tight, monkeypatch):
        # shift-invert that does not converge falls back to regular mode; a
        # regular run that does not either fails the report
        def shift_invert_fails(apply, v0, want):
            mu, used = arnoldi(apply, v0, want)
            return (mu if want == EIGENVALUE_COUNT else None), used

        monkeypatch.setattr(stab, "arnoldi", shift_invert_fails)
        rep = stability_report(*fig3_tight)
        assert rep.mode == "regular" and rep.fallback == "shift-invert Arnoldi did not converge"
        assert rep.certificate is None and not rep.certified
        assert np.max(np.abs(rep.eigenvalues - _regular(*fig3_tight))) < 1e-12
        monkeypatch.setattr(stab, "arnoldi", lambda apply, v0, want: (None, 7))
        with pytest.raises(stab.StabilityError, match="did not converge"):
            stability_report(*fig3_tight)


@pytest.mark.parametrize("where", ["fixed_point", "random", "zero"])
def test_eigenvalue_count_matches_dense(coarse_problem, where):
    # the count outside circles between the moduli of the dense spectrum,
    # by modulus gap and at the stability boundary
    tmap = update_map(coarse_problem)
    read = tmap.read_nodes
    a = {"fixed_point": solve_coupled(coarse_problem, tol=1e-12).A.values,
         "random": np.random.default_rng(3).random(coarse_problem.grid.n),
         "zero": np.zeros(coarse_problem.grid.n)}[where][read]
    lin = tmap.restricted(read).linearization(a)
    mods = np.sort(np.abs(np.linalg.eigvals(dense_derivative(lin))))[::-1]
    for j in (1, 2, 5, 20):
        radius = 0.5 * (mods[j - 1] + mods[j])
        assert eigenvalue_count(lin, radius).count == j
    assert eigenvalue_count(lin, 1.0 - STABILITY_MARGIN).count == np.count_nonzero(
        mods > 1.0 - STABILITY_MARGIN)


class TestUndecidedCount:
    """The exits of ``eigenvalue_count`` that leave the count undecided, each
    called directly on the report's circle and then met by the report, which
    falls back to regular mode."""

    @pytest.fixture(scope="class")
    def case(self, coarse_problem):
        """A density whose certified count refines past its first samples, the
        derivative at it on the read nodes and the report's certificate."""
        A = Field(coarse_problem.grid, np.random.default_rng(3).random(coarse_problem.grid.n),
                  is_density=True)
        rep = stability_report(coarse_problem, A)
        assert rep.certified and rep.certificate.samples > INITIAL_SAMPLES
        return A, _on_read_nodes(coarse_problem, A)[0], rep.certificate

    @staticmethod
    def _falls_back(problem, A):
        rep = stability_report(problem, A)
        assert rep.mode == "regular" and "undecided" in rep.fallback
        assert not rep.certified and rep.certificate.count is None
        return rep.certificate

    def test_failed_pencil_count(self, coarse_problem, case, monkeypatch):
        A, lin, cert = case

        def fails(*args):
            raise LinAlgError("Sturm count failed")

        monkeypatch.setattr(stab, "sturm_count", fails)
        got = eigenvalue_count(lin, cert.radius)
        assert got.pencil_count is None and got.count is None
        assert self._falls_back(coarse_problem, A).pencil_count is None

    def test_failed_refinement_sample(self, coarse_problem, case, monkeypatch):
        # the first samples factor, the first refinement sample does not
        A, lin, cert = case

        def first_samples_only():
            calls = itertools.count(1)

            def factor(*args):
                if next(calls) > INITIAL_SAMPLES:
                    raise LinAlgError("singular sample")
                return TridiagonalLU(*args)
            monkeypatch.setattr(stab, "TridiagonalLU", factor)

        first_samples_only()
        got = eigenvalue_count(lin, cert.radius)
        assert got.pencil_count == cert.pencil_count and got.winding is None
        assert got.samples == INITIAL_SAMPLES
        first_samples_only()
        assert self._falls_back(coarse_problem, A).winding is None

    def test_sample_budget_exhausted(self, coarse_problem, case, monkeypatch):
        A, lin, cert = case
        monkeypatch.setattr(stab, "MAX_SAMPLES", cert.samples - 1)
        got = eigenvalue_count(lin, cert.radius)
        assert got.pencil_count == cert.pencil_count and got.winding is None
        assert got.samples <= stab.MAX_SAMPLES
        found = self._falls_back(coarse_problem, A)
        assert found.winding is None and found.samples <= stab.MAX_SAMPLES


def _full_grid_arnoldi(problem, a):
    """Arnoldi on the whole grid from stability_report's start vector, the
    reference for its windowed run."""
    n = problem.grid.n
    v0 = 1.0 + np.random.default_rng(0).random(n)
    return eigs(_operator(update_map(problem).linearization(a)), k=min(EIGENVALUE_COUNT, n - 2),
                which="LM", v0=v0, tol=0, return_eigenvectors=False)


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_windowed_arnoldi_matches_full_grid(name):
    # fig3's supports overlap; at both, the map reads its input on fewer nodes
    # than the grid has, and the derivative's nonzero spectrum is the window's
    problem = build_problem(preset(name), 2.5e-3)
    tmap = update_map(problem)
    assert ((tmap.fitness != 0).any(axis=0) | (tmap.beta_rows != 0).any(axis=0)).sum() \
        < problem.grid.n
    state = solve_coupled(problem)
    rep = stability_report(problem, state.A)
    ref = _full_grid_arnoldi(problem, state.A.values)
    assert len(rep.eigenvalues) == len(ref) == EIGENVALUE_COUNT
    # matched by nearest value: a conjugate pair shares one modulus
    assert max(np.min(np.abs(ref - z)) for z in rep.eigenvalues) < 1e-10
    assert max(np.min(np.abs(rep.eigenvalues - z)) for z in ref) < 1e-10


@pytest.mark.parametrize("eps, n, reads, size", [(2.5e-3, None, 1919, 1919), (0.2, 30, 19, 22)])
def test_arnoldi_runs_on_the_read_nodes(eps, n, reads, size, monkeypatch):
    # fig1 at eps = 2.5e-3 reads its input on 1,919 of 3,521 nodes, in two
    # blocks whose hull has 2,239; on the 30-node grid the 19 read nodes are
    # padded with the first 3 off them to the 22 that 20 eigenvalues need
    sizes = []

    def recorded(apply, v0, want):
        sizes.append(v0.size)
        return arnoldi(apply, v0, want)

    monkeypatch.setattr(stab, "arnoldi", recorded)
    problem = build_problem(preset("fig1"), eps, n=n, padding=None if n is None else 0.1)
    assert update_map(problem).read_nodes.size == reads
    state = solve_coupled(problem)
    rep = stability_report(problem, state.A)
    assert sizes == [size]
    ref = _full_grid_arnoldi(problem, state.A.values)
    top = ref[np.abs(ref) > 1e-12]
    assert max(np.min(np.abs(rep.eigenvalues - z)) for z in top) < 1e-10


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
        us = uncoupled_derivative_spectrum(coarse_problem, 1, count=10)
        assert us.max_mismatch < 1e-6

    def test_top_value_is_max_of_reciprocal_and_ratio(self, coarse_problem):
        us = uncoupled_derivative_spectrum(coarse_problem, 1, count=10)
        lam = us.operator_spectrum
        expected_top = max(1.0 / lam[0], lam[1] / lam[0])
        assert us.formula[0] == pytest.approx(expected_top, rel=1e-10)
        assert np.abs(us.matrix[0]) == pytest.approx(expected_top, abs=1e-8)

    def test_below_threshold_spectrum_is_operator_spectrum(self, fig2):
        problem = build_problem(fig2, 0.05, n=512)
        assert not solve_uncoupled(problem, 2).values.any()
        us = uncoupled_derivative_spectrum(problem, 2, count=5)
        assert np.allclose(us.formula, us.operator_spectrum[:5], atol=1e-10)
        assert us.formula[0] < 1.0

    def test_eigenfunction_maps_to_reciprocal_eigenvalue(self, coarse_problem):
        # at the single-host state, the principal eigenfunction is an
        # eigenvector of that host's derivative with eigenvalue 1/lambda1
        g = coarse_problem.grid
        theta = coarse_problem.mp.theta
        hd = coarse_problem.host(1)
        op = host_operator(coarse_problem, 1)
        a = solve_uncoupled(coarse_problem, 1).values
        phi = coarse_problem.host_spectra[0].phi1.values
        den = 1.0 + float(np.sum(g.quad_weights * hd.beta.values * a)) / theta
        beta_phi = float(np.sum(g.quad_weights * hd.beta.values * phi))
        out = op.matvec(phi) / den - op.matvec(a) / den**2 * (
            beta_phi / theta
        )
        expected = phi / coarse_problem.host_spectra[0].lambda1
        rel = np.sum(g.quad_weights * np.abs(out - expected)) / np.sum(
            g.quad_weights * np.abs(expected)
        )
        assert rel < 1e-8

    def test_imaginary_parts_negligible(self, coarse_problem):
        us = uncoupled_derivative_spectrum(coarse_problem, 1, count=10)
        assert np.max(np.abs(us.matrix.imag)) < 1e-8
