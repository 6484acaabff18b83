"""Grid construction, quadrature and field arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutsel.grid import (
    Field,
    MAX_NODES,
    GridError,
    integrate,
    inner,
    l1_norm,
    make_grid,
)

# closed form: int_0.2^0.6 200 (x-0.2)(0.6-x) dx = 200 * 0.4^3 / 6
BETA1_MASS = 200.0 * 0.4**3 / 6.0


def beta1(x):
    return 200.0 * np.clip((x - 0.2) * (0.6 - x), 0.0, None)


class TestMakeGrid:
    def test_trapezoid_weights(self):
        g = make_grid(0.0, 2.0, 21)
        assert g.h == pytest.approx(0.1)
        assert g.quad_weights[0] == pytest.approx(0.05)
        assert g.quad_weights[-1] == pytest.approx(0.05)
        assert np.allclose(g.quad_weights[1:-1], 0.1)

    def test_weight_sum_is_window_length(self):
        g = make_grid(0.0, 1.2, 8193)
        assert g.quad_weights.sum() == pytest.approx(1.2, rel=1e-12)

    def test_nodes_uniform(self):
        g = make_grid(-1.0, 1.0, 17)
        diffs = np.diff(g.nodes)
        assert np.all(diffs > 0)
        assert np.max(np.abs(diffs - g.h)) < 1e-12

    def test_equal_grids_hash_alike(self):
        a, b = make_grid(0.0, 1.0, 64), make_grid(0.0, 1.0, 64)
        assert a == b and hash(a) == hash(b)

    def test_rejects_small_n(self):
        with pytest.raises(GridError):
            make_grid(0.0, 1.0, 11)

    def test_rejects_n_above_the_node_bound(self):
        # raised before any array is allocated: 10^10 nodes would take 80 GB
        for n in (MAX_NODES + 1, 10**10):
            with pytest.raises(GridError, match=f"at most {MAX_NODES} nodes"):
                make_grid(0.0, 1.0, n)

    def test_rejects_bad_bounds(self):
        with pytest.raises(GridError):
            make_grid(1.0, 0.0, 100)
        with pytest.raises(GridError):
            make_grid(0.0, float("inf"), 100)

    @given(st.integers(min_value=16, max_value=500), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_sum_property(self, n, length):
        g = make_grid(0.0, length, n)
        assert g.quad_weights.sum() == pytest.approx(length, rel=1e-12)


class TestL1Norm:
    def test_zero_field(self):
        g = make_grid(0.0, 1.0, 64)
        assert l1_norm(Field(g, np.zeros(64))) == 0.0

    def test_constant_one(self):
        g = make_grid(0.0, 1.0, 101)
        assert l1_norm(Field(g, np.ones(101))) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_bump_against_antiderivative(self):
        g = make_grid(0.0, 1.0, 4097)
        f = Field(g, beta1(g.nodes))
        assert l1_norm(f) == pytest.approx(BETA1_MASS, abs=1e-6)

    def test_refinement_order_two(self):
        errs = []
        for n in (257, 513, 1025):
            g = make_grid(0.0, 1.0, n)
            errs.append(abs(l1_norm(Field(g, beta1(g.nodes))) - BETA1_MASS))
        # halving h should shrink the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_piecewise_linear_exact(self):
        g = make_grid(0.0, 1.0, 33)
        hat = np.clip(1.0 - np.abs(g.nodes - 0.5) / 0.25, 0.0, None)
        # the hat's kinks sit on nodes, so the trapezoid rule is exact
        assert l1_norm(Field(g, hat)) == pytest.approx(0.25, rel=1e-12)


class TestRestrict:
    """Binary field operations are restricted to fields on one grid."""

    def test_grid_mismatch(self):
        f = Field(make_grid(0.0, 1.0, 64), np.ones(64))
        g = Field(make_grid(0.0, 1.0, 65), np.ones(65))
        for combine in (Field.__add__, Field.__sub__, inner):
            with pytest.raises(GridError, match="different grids"):
                combine(f, g)


class TestField:
    def test_density_rejects_negative(self):
        g = make_grid(0.0, 1.0, 64)
        with pytest.raises(GridError):
            Field(g, np.full(64, -1.0), is_density=True)

    def test_rejects_nan(self):
        g = make_grid(0.0, 1.0, 64)
        vals = np.ones(64)
        vals[3] = np.nan
        with pytest.raises(GridError):
            Field(g, vals)

    def test_arithmetic(self):
        g = make_grid(0.0, 1.0, 64)
        f = Field(g, np.full(64, 2.0))
        h = Field(g, np.full(64, 3.0))
        assert np.all((f + h).values == 5.0)
        assert np.all((h - f).values == 1.0)

    def test_inner_and_integrate(self):
        g = make_grid(0.0, 1.0, 101)
        f = Field(g, g.nodes)
        assert integrate(f) == pytest.approx(0.5, abs=1e-4)
        assert inner(f, f) == pytest.approx(1.0 / 3.0, abs=1e-4)
