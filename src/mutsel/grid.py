"""Uniform 1-D trait grids, trapezoid quadrature and density fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_NODES = 16
# 80 MB per vector of values
MAX_NODES = 10_000_000


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TraitGrid:
    """Uniform grid on [x_min, x_max] with trapezoid quadrature weights."""

    x_min: float
    x_max: float
    n: int
    h: float
    # follow from the fields above, so grids compare and hash without them
    nodes: np.ndarray = field(compare=False)
    quad_weights: np.ndarray = field(compare=False)


def grid_spacing(x_min: float, x_max: float, n: int) -> float:
    """The node spacing ``make_grid(x_min, x_max, n)`` gives, found without
    allocating the grid: ``GridError`` for bounds or a node count it rejects."""
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise GridError("grid bounds must be finite")
    if x_min >= x_max:
        raise GridError(f"x_min={x_min} must be < x_max={x_max}")
    if n < MIN_NODES:
        raise GridError(f"need at least {MIN_NODES} nodes, got {n}")
    if n > MAX_NODES:
        raise GridError(f"at most {MAX_NODES} nodes are allowed, got {n}")
    return (x_max - x_min) / (n - 1)


def make_grid(x_min: float, x_max: float, n: int) -> TraitGrid:
    h = grid_spacing(x_min, x_max, n)
    nodes = np.linspace(x_min, x_max, n)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return TraitGrid(float(x_min), float(x_max), int(n), float(h), nodes, w)


@dataclass
class Field:
    """Values of a density (or any trait function) sampled on a grid."""

    grid: TraitGrid
    values: np.ndarray
    is_density: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise GridError(
                f"field shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("field values must be finite")
        if self.is_density and np.any(self.values < 0):
            raise GridError("density field must be nonnegative")

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridError("fields live on different grids")


def l1_norm(f: Field) -> float:
    """Quadrature L1 norm: sum of w_i |f_i|."""
    return float(np.sum(f.grid.quad_weights * np.abs(f.values)))


def integrate(f: Field) -> float:
    """Signed quadrature integral of f over the window."""
    return float(np.sum(f.grid.quad_weights * f.values))


def inner(f: Field, g: Field) -> float:
    """Quadrature inner product sum w_i f_i g_i."""
    _check_same_grid(f, g)
    return float(np.sum(f.grid.quad_weights * f.values * g.values))
