"""Parameters, fitness construction, kernel scaling, presets and validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutsel.grid import TraitGrid, make_grid
from mutsel.model import (
    HostParams,
    KernelResolutionError,
    ModelError,
    ModelParams,
    TraitExpression,
    _EXPR_NAMES,
    build_fitness,
    build_problem,
    default_window,
    model_from_dict,
    preset,
    scale_kernel,
    support_distance,
    validate_assumptions,
)
from oracles import kernel_samples, resolution_error, trapezoid_mass


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
        omega = np.flatnonzero(hd.psi.values > 0)
        assert hd.sigma_support[0] <= omega[0]
        assert omega[-1] <= hd.sigma_support[1]

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
        assert kernel_samples(k)[g.n - 1] == pytest.approx(5.0, rel=1e-3)

    def test_unit_mass_after_normalization(self):
        g = make_grid(0.0, 1.0, 257)
        for eps in (0.05, 0.1, 0.3):
            samples = kernel_samples(scale_kernel(eps, g))
            mass = g.h * (samples.sum() - 0.5 * samples[0] - 0.5 * samples[-1])
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        g = make_grid(0.0, 1.0, 257)
        samples = kernel_samples(scale_kernel(0.1, g))
        assert np.array_equal(samples, samples[::-1])

    # nodes h = ratio * eps apart; at n = 4000, ratio = 0.5 the end term
    # r^(n-1) = exp(-1999.5) underflows to 0.  The closed form and the
    # term-by-term sum each round differently: over 20,000 random draws they
    # differed by at most 6 ulp
    @given(n=st.integers(16, 4000), log_ratio=st.floats(-4.0, math.log10(0.5)))
    @example(n=4000, log_ratio=math.log10(0.5))
    @example(n=16, log_ratio=-4.0)
    @settings(max_examples=100, deadline=None)
    def test_raw_mass_is_the_trapezoid_sum(self, n, log_ratio):
        g = make_grid(0.0, 1.0, n)
        eps = g.h / 10.0**log_ratio
        want = trapezoid_mass(eps, g)
        assert abs(scale_kernel(eps, g).raw_mass - want) <= 8 * np.spacing(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 257])
    @pytest.mark.parametrize("nodes_per_eps", [0.5, 1.0, 1.999999, 2.0, 2.000001, 3.0, 8.0])
    def test_resolution_check_counts_as_all_offsets(self, n, nodes_per_eps):
        # the check counts the offsets j h within eps for j = 1, 2 alone
        h = 0.01
        g = TraitGrid(0.0, h * max(n - 1, 1), n, h, h * np.arange(n), np.full(n, h))
        eps = nodes_per_eps * h
        want = resolution_error(eps, g)
        if want is None:
            scale_kernel(eps, g)
        else:
            with pytest.raises(KernelResolutionError) as exc:
                scale_kernel(eps, g)
            assert str(exc.value) == want

    def test_building_allocates_no_offset_array(self):
        # 2n - 1 offsets and samples would be 48 MB here
        g = make_grid(0.0, 1.1, 1_000_001)
        tracemalloc.start()
        try:
            scale_kernel(1e-5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

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

    @pytest.mark.parametrize("host1", [{"xi": "abc"}, {"beta_support": [0.2, 0.4, 0.6]}])
    def test_document_errors_are_model_errors(self, host1):
        hosts = [{"xi": 0.5, "beta": "x", "beta_support": [0.2, 0.6]},
                 {"xi": 0.5, "beta": "x", "beta_support": [0.7, 0.9]}]
        hosts[0].update(host1)
        with pytest.raises(ModelError):
            model_from_dict({"lambda": 1.0, "theta": 1.0, "delta": 1.0, "hosts": hosts})


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

    @pytest.mark.parametrize("factor", [0.1, 0.51, 1e200, 3])
    def test_scaled_beta_is_the_product_expression(self, fig1, factor):
        # a scaled trait is one more expression, whose values are the float64
        # products of the factor and the unscaled values
        x = np.linspace(0.0, 1.1, 1001)
        for host, scaled in zip(fig1.hosts, fig1.scaled_beta(factor).hosts):
            assert isinstance(scaled.beta, TraitExpression)
            assert scaled.beta(x).tobytes() == (float(factor) * host.beta(x)).tobytes()


class TestProblemAssembly:
    def test_default_window_padding(self, fig1):
        assert default_window(fig1, 0.001) == (0.0, 1.1)
        lo, hi = default_window(fig1, 0.05)  # 10 eps = 0.5 > 0.2
        assert lo == pytest.approx(-0.3)
        assert hi == pytest.approx(1.4)

    def test_build_problem_shapes(self, fig1_problem):
        assert fig1_problem.grid.n == fig1_problem.host(1).psi.values.shape[0]


class TestTraitExpressions:
    def test_bump_expression(self):
        f = TraitExpression("200*pos((x-0.2)*(0.6-x))")
        x = np.array([0.0, 0.4, 1.0])
        assert f(x)[0] == 0.0
        assert f(x)[1] == pytest.approx(8.0)

    def test_constant_expression_broadcasts(self):
        f = TraitExpression("1")
        assert f(np.zeros(5)).shape == (5,)

    @pytest.mark.parametrize("beta", ["exp(1000*x)", "log(x)"])
    def test_non_finite_values_are_a_model_error(self, fig1, beta):
        # numpy's overflow and log warnings would escape as errors here, where
        # warnings are errors, instead of the model's own message
        hosts = (HostParams(xi=0.5, beta=TraitExpression(beta), beta_support=(0.2, 0.6)),
                 fig1.hosts[1])
        with pytest.raises(ModelError, match="finite and nonnegative"):
            build_problem(ModelParams(1.0, 1.0, 1.0, hosts), 0.05)

    @pytest.mark.parametrize("expr", ["1j*x", "200*pos((x-0.2)*(0.6-x)) + 1e-3j", "1j"])
    def test_rejects_complex_values(self, expr):
        # a cast to float would keep the real part and drop the rest
        with pytest.raises(ModelError, match="complex") as exc:
            TraitExpression(expr)(np.linspace(0.0, 1.0, 5))
        assert repr(expr) in str(exc.value)

    def test_rejects_unknown_names(self):
        with pytest.raises(ModelError):
            TraitExpression("__import__('os').system('true')")

    @pytest.mark.parametrize("expr", ['"1"', "b'1'", "x + '1'", 'f"{x}"'])
    def test_rejects_strings(self, expr):
        with pytest.raises(ModelError, match="may not contain strings"):
            TraitExpression(expr)

    def test_rejects_f_string_before_building_it(self):
        # evaluated, this f-string is 10 MB of spaces, then the number 1
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="may not contain strings"):
                TraitExpression('f"{1:{10**7}}"')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_deep_expressions(self):
        # comparisons are cast without recursing over the tree, so a sum of 900
        # terms still evaluates; one the parser cannot take is a ModelError
        assert TraitExpression("+".join(["x"] * 900))(np.ones(2)).tolist() == [900.0, 900.0]
        with pytest.raises(ModelError, match="recursion"):
            TraitExpression("+".join(["x"] * 5000))

    @pytest.mark.parametrize("expr", ["(x>0.3)+(x>0.5)", "(pi>e)+(pi>e)"])
    def test_comparisons_add_as_numbers(self, expr):
        x = np.array([0.0, 0.4, 0.6, 1.0])
        got = TraitExpression(expr)(x)
        assert got.dtype == np.float64
        assert got[-1] == 2.0
        assert np.all(got[x > 0.5] == 2.0)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_preset_traits_unchanged_by_the_comparison_cast(self, name):
        # the presets hold no comparison: their values are those of the
        # expression compiled as written, byte for byte
        x = np.linspace(-0.5, 1.5, 4001)
        for host in preset(name).hosts:
            for trait in (host.beta, host.d, host.r):
                code = compile(trait.expr, "<trait-expression>", "eval")
                code = code.replace(co_consts=tuple(
                    np.float64(c) if isinstance(c, (int, float)) else c for c in code.co_consts))
                with np.errstate(all="ignore"):
                    want = eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x})
                want = np.broadcast_to(np.asarray(want, dtype=float), x.shape)
                assert trait(x).tobytes() == want.tobytes()
