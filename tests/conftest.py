"""Shared fixtures: presets and solved states reused across test modules."""

import numpy as np
import pytest

from mutsel.equilibrium import solve_coupled, solve_uncoupled
from mutsel.model import build_problem, preset


@pytest.fixture(scope="session")
def fig1():
    return preset("fig1")


@pytest.fixture(scope="session")
def fig2():
    return preset("fig2")


@pytest.fixture(scope="session")
def fig3():
    return preset("fig3")


@pytest.fixture(scope="session")
def fig1_problem(fig1):
    """fig1 at a moderate mutation width; cheap enough for many tests."""
    return build_problem(fig1, 0.01)


@pytest.fixture(scope="session")
def fig1_state(fig1_problem):
    return solve_coupled(fig1_problem, tol=1e-12)


@pytest.fixture(scope="session")
def fig1_uncoupled(fig1_problem):
    return solve_uncoupled(fig1_problem, 1), solve_uncoupled(fig1_problem, 2)


@pytest.fixture(scope="session")
def fig2_problem(fig2):
    return build_problem(fig2, 0.01)


@pytest.fixture(scope="session")
def fig2_state(fig2_problem):
    return solve_coupled(fig2_problem, tol=1e-12)


@pytest.fixture(scope="session")
def fig3_tight(fig3):
    """fig3 at eps = 2.5e-3 and its steady state: overlapping supports, and a
    conjugate pair (0.815178 +- 0.000195i) among the top 20 eigenvalues."""
    problem = build_problem(fig3, 2.5e-3)
    return problem, solve_coupled(problem).A


@pytest.fixture(scope="session")
def coarse_problem(fig1):
    """Small grid for dense-matrix comparisons."""
    return build_problem(fig1, 0.05, n=512)


def random_density(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.random(grid.n)
    from mutsel.grid import Field

    return Field(grid, vals, is_density=True)
