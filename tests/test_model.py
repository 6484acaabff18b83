"""Parameters, fitness construction, kernel scaling, presets and validation."""

import numpy as np
import pytest

from mutsel.grid import make_grid
from mutsel.model import (
    HostParams,
    KernelResolutionError,
    ModelError,
    ModelParams,
    TraitExpression,
    build_fitness,
    build_problem,
    default_window,
    preset,
    scale_kernel,
    support_distance,
    validate_assumptions,
)


class TestFitness:
    def test_fig1_host1(self, fig1):
        g = make_grid(0.0, 1.1, 1101)  # nodes hit 0.4 exactly
        hd = build_fitness(fig1, 1, g)
        assert hd.x_star == pytest.approx(0.4, abs=1e-12)
        assert hd.psi_max == pytest.approx(8.0, rel=1e-12)
        assert hd.r0 == pytest.approx(4.0, rel=1e-12)

    def test_fig1_host2(self, fig1):
        g = make_grid(0.0, 1.1, 1101)
        hd = build_fitness(fig1, 2, g)
        assert hd.x_star == pytest.approx(0.8, abs=1e-12)
        assert hd.psi_max == pytest.approx(4.0, rel=1e-12)
        assert hd.r0 == pytest.approx(2.0, rel=1e-12)

    def test_fig2_host2_below_threshold(self, fig2):
        g = make_grid(0.0, 1.1, 1101)
        hd = build_fitness(fig2, 2, g)
        assert hd.psi_max == pytest.approx(1.5, rel=1e-12)
        assert hd.r0 == pytest.approx(0.75, rel=1e-12)

    def test_pointwise_identity(self, fig1):
        g = make_grid(0.0, 1.1, 513)
        hd = build_fitness(fig1, 1, g)
        expected = (
            hd.beta.values * hd.r.values / (fig1.delta * (fig1.theta + hd.d.values))
        )
        assert np.array_equal(hd.psi.values, expected)

    def test_omega_inside_sigma(self, fig1):
        g = make_grid(0.0, 1.1, 513)
        hd = build_fitness(fig1, 1, g)
        assert hd.sigma_support[0] <= hd.omega_support[0]
        assert hd.omega_support[1] <= hd.sigma_support[1]

    def test_zero_fitness_rejected(self):
        hosts = (
            HostParams(xi=0.5, beta=TraitExpression("0.0"), beta_support=(0.2, 0.6)),
            HostParams(xi=0.5, beta=TraitExpression("1.0*pos((x-0.7)*(0.9-x))"),
                       beta_support=(0.7, 0.9)),
        )
        mp = ModelParams(1.0, 1.0, 1.0, hosts)
        with pytest.raises(ModelError):
            build_fitness(mp, 1, make_grid(0.0, 1.1, 64))

    def test_r0_refinement_second_order(self, fig1):
        # psi_max converges at O(h^2): |error| <= |psi''| h^2 / 8 = 50 h^2
        for n in (301, 600, 1201):
            g = make_grid(0.0, 1.1, n + 1)
            hd = build_fitness(fig1, 1, g)
            assert abs(hd.r0 - 4.0) <= 0.5 * 50.0 * g.h**2 + 1e-12


class TestKernel:
    def test_center_value(self):
        g = make_grid(0.0, 1.0, 257)
        k = scale_kernel(0.1, g)
        assert k.center_value == pytest.approx(5.0, rel=1e-3)

    def test_unit_mass_after_normalization(self):
        g = make_grid(0.0, 1.0, 257)
        for eps in (0.05, 0.1, 0.3):
            k = scale_kernel(eps, g)
            mass = g.h * (k.samples.sum() - 0.5 * k.samples[0] - 0.5 * k.samples[-1])
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        g = make_grid(0.0, 1.0, 257)
        k = scale_kernel(0.1, g)
        assert np.array_equal(k.samples, k.samples[::-1])

    def test_under_resolution_rejected(self):
        g = make_grid(0.0, 1.2, 1024)
        with pytest.raises(KernelResolutionError):
            scale_kernel(1e-3, g)

    def test_fine_grid_resolves(self):
        g = make_grid(0.0, 1.2, 8193)
        k = scale_kernel(1e-3, g)
        assert k.raw_mass > 0.9

    def test_rejects_negative_eps(self):
        g = make_grid(0.0, 1.0, 64)
        with pytest.raises(ModelError):
            scale_kernel(-0.1, g)


class TestPresets:
    def test_fig1_betas(self, fig1):
        x = np.array([0.4, 0.8])
        assert fig1.hosts[0].beta(x)[0] == pytest.approx(200 * 0.2 * 0.2)
        assert fig1.hosts[1].beta(x)[1] == pytest.approx(400 * 0.1 * 0.1)
        assert fig1.hosts[0].xi == 0.5
        assert fig1.lambda_ == fig1.theta == fig1.delta == 1.0

    def test_fig2_differs_only_in_host2(self, fig1, fig2):
        x = np.linspace(0, 1.1, 100)
        assert np.array_equal(fig1.hosts[0].beta(x), fig2.hosts[0].beta(x))
        assert fig2.hosts[1].beta(np.array([0.8]))[0] == pytest.approx(150 * 0.1 * 0.1)

    def test_fig3_supports_overlap(self, fig3):
        assert fig3.hosts[0].beta_support == (0.3, 0.7)
        assert fig3.hosts[1].beta_support == (0.6, 0.8)
        assert support_distance(fig3) == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            preset("fig9")


class TestValidation:
    def test_fig1_report_clean(self, fig1):
        problem = build_problem(fig1, 0.01)
        assert validate_assumptions(fig1, problem.kernel, problem.derived) == []
        assert problem.assumption_warnings == []
        assert support_distance(fig1) == pytest.approx(0.1, abs=1e-12)

    def test_beta_outside_declared_support_warned(self, fig1, fig2, fig3):
        for mp in (fig1, fig2, fig3):
            warnings = build_problem(mp, 0.01).assumption_warnings
            assert not any("outside its declared support" in w for w in warnings)
        # declared on [0.7, 0.9], but positive on (0.25, 0.9): it overlaps host 1
        wide = HostParams(xi=0.5, beta=TraitExpression("400*pos((x-0.25)*(0.9-x))"),
                          beta_support=(0.7, 0.9))
        problem = build_problem(ModelParams(1.0, 1.0, 1.0, (fig1.hosts[0], wide)), 0.05)
        warnings = [w for w in problem.assumption_warnings if "declared support" in w]
        assert warnings == ["beta_2 is positive outside its declared support"]

    def test_fig3_overlap_warning(self, fig3):
        problem = build_problem(fig3, 0.01)
        warnings = validate_assumptions(fig3, problem.kernel, problem.derived)
        assert any("overlap" in w for w in warnings)

    def test_xi_sum_enforced(self):
        hosts = (
            HostParams(xi=0.6, beta=TraitExpression("1*pos((x-0.2)*(0.6-x))"),
                       beta_support=(0.2, 0.6)),
            HostParams(xi=0.6, beta=TraitExpression("1*pos((x-0.7)*(0.9-x))"),
                       beta_support=(0.7, 0.9)),
        )
        with pytest.raises(ModelError):
            ModelParams(1.0, 1.0, 1.0, hosts)

    def test_scaled_beta(self, fig1):
        scaled = fig1.scaled_beta(0.1)
        x = np.array([0.4])
        assert scaled.hosts[0].beta(x)[0] == pytest.approx(0.1 * fig1.hosts[0].beta(x)[0])


class TestProblemAssembly:
    def test_default_window_padding(self, fig1):
        assert default_window(fig1, 0.001) == (0.0, 1.1)
        lo, hi = default_window(fig1, 0.05)  # 10 eps = 0.5 > 0.2
        assert lo == pytest.approx(-0.3)
        assert hi == pytest.approx(1.4)

    def test_build_problem_shapes(self, fig1_problem):
        assert fig1_problem.grid.n == fig1_problem.host(1).psi.values.shape[0]
        assert fig1_problem.kernel.samples.shape == (2 * fig1_problem.grid.n - 1,)


class TestTraitExpressions:
    def test_bump_expression(self):
        f = TraitExpression("200*pos((x-0.2)*(0.6-x))")
        x = np.array([0.0, 0.4, 1.0])
        assert f(x)[0] == 0.0
        assert f(x)[1] == pytest.approx(8.0)

    def test_constant_expression_broadcasts(self):
        f = TraitExpression("1")
        assert f(np.zeros(5)).shape == (5,)

    def test_rejects_unknown_names(self):
        with pytest.raises(ModelError):
            TraitExpression("__import__('os').system('true')")
