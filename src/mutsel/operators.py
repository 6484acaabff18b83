"""Discrete weighted-convolution operators and the nonlinear update maps.

Provides the per-host linear operators (kernel convolution against a fitness
weight), their symmetrized counterparts, and the nonlinear update map whose
fixed points are the steady states, with its analytic derivative.  The map and
its derivative are each a single weighted convolution (the derivative minus a
low-rank correction), whatever the number of hosts summed over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .grid import Field, GridError, TraitGrid
from .model import MutationKernel, Problem

MODES = ("direct", "fft")


class OperatorError(ValueError):
    pass


@dataclass
class ConvolutionEngine:
    """Quadrature convolution with the scaled mutation kernel.

    ``direct`` mode evaluates the full O(n^2) sum and serves as the reference;
    ``fft`` mode computes the identical sum with an FFT-based linear
    convolution.  Both return g(x_i) = sum_j w_j m_eps(x_i - x_j) f(x_j).
    """

    kernel: MutationKernel
    grid: TraitGrid
    mode: str = "fft"

    def __post_init__(self):
        if self.mode not in MODES:
            raise OperatorError(f"unknown convolution mode {self.mode!r}")
        if self.kernel.grid != self.grid:
            raise OperatorError("kernel was sampled on a different grid")

    def convolve_values(self, values: np.ndarray) -> np.ndarray:
        n = self.grid.n
        wf = self.grid.quad_weights * values
        if self.mode == "direct":
            full = np.convolve(wf, self.kernel.samples)
        else:
            full = fftconvolve(wf, self.kernel.samples)
        # samples[j] sits at offset (j-(n-1))h, so node i of the output is
        # entry (n-1)+i of the full linear convolution
        return full[n - 1 : 2 * n - 1]

    def convolve(self, f: Field) -> Field:
        if f.grid != self.grid:
            raise GridError("field lives on a different grid than the engine")
        return Field(self.grid, self.convolve_values(f.values))

    def toeplitz(self) -> np.ndarray:
        """Read-only n x n view K[i, j] = m_eps(x_i - x_j) = samples[(n-1)+i-j]."""
        n = self.grid.n
        return np.lib.stride_tricks.sliding_window_view(self.kernel.samples, n)[:, ::-1]

    def dense_matrix(self, weight: np.ndarray) -> np.ndarray:
        """Matrix of f -> convolve_values(weight * f): K[i, j] w_j weight_j."""
        return self.toeplitz() * (self.grid.quad_weights * weight)[None, :]


def convolution_engine(problem: Problem) -> ConvolutionEngine:
    """The problem's convolution engine, in the problem's backend mode."""
    return ConvolutionEngine(problem.kernel, problem.grid, problem.mode)


@dataclass
class WeightedConvolutionOperator:
    """f -> prefactor * m_eps * (weight . f): the per-host linear operator."""

    weight: Field
    prefactor: float
    engine: ConvolutionEngine

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.prefactor * self.engine.convolve_values(self.weight.values * values)

    def apply(self, f: Field) -> Field:
        if f.grid != self.engine.grid:
            raise GridError("field lives on a different grid than the operator")
        return Field(self.engine.grid, self.apply_values(f.values))

    def dense_matrix(self) -> np.ndarray:
        """Explicit n x n matrix: M[i, j] = pref * m_eps(x_i - x_j) w_j weight_j."""
        return self.engine.dense_matrix(self.prefactor * self.weight.values)

    def dense_symmetric(self) -> np.ndarray:
        """Similar symmetric matrix with the same spectrum.

        Conjugating M by diag(sqrt(w) * sqrt(weight)) yields
        B[i, j] = pref * sqrt(w_i weight_i) m_eps(x_i - x_j) sqrt(w_j weight_j),
        the quadrature form of the square-root-symmetrized operator.
        """
        s = np.sqrt(self.engine.grid.quad_weights * self.weight.values)
        b = (self.prefactor * s)[:, None] * self.engine.toeplitz()
        b *= s[None, :]
        return b

    def symmetrized_apply_values(self, values: np.ndarray) -> np.ndarray:
        """Apply sqrtW . m_eps * (sqrtW . f) with sqrtW = sqrt(weight)."""
        s = np.sqrt(self.weight.values)
        return self.prefactor * s * self.engine.convolve_values(s * values)


def _influx_rate(problem: Problem, k: int) -> float:
    """c_k = xi_k Lambda / theta, the prefactor of host k's operator."""
    mp = problem.mp
    return mp.hosts[k - 1].xi * mp.lambda_ / mp.theta


def host_operator(problem: Problem, k: int) -> WeightedConvolutionOperator:
    """Linear operator of host k: (xi_k Lambda / theta) m_eps * (Psi_k f)."""
    return WeightedConvolutionOperator(
        problem.host(k).psi, _influx_rate(problem, k), convolution_engine(problem)
    )


def combined_operator(problem: Problem) -> WeightedConvolutionOperator:
    """Sum of the two host operators, as a single weighted convolution."""
    mp = problem.mp
    return WeightedConvolutionOperator(
        problem.combined_fitness, mp.lambda_ / mp.theta, convolution_engine(problem)
    )


# ---------------------------------------------------------------------------
# nonlinear update maps

def _check_nonnegative(f: Field) -> None:
    if np.any(f.values < 0):
        raise OperatorError("update maps require a nonnegative input density")


@dataclass
class UpdateMap:
    """The fixed-point map T(a) = m_eps * (g(a) a), summed over some hosts.

    g(a) = sum_k c_k psi_k / den_k(a), with c_k = xi_k Lambda / theta and the
    saturation denominator den_k(a) = 1 + theta^-1 int beta_k a.  Row k of
    ``fitness`` holds c_k psi_k and row k of ``beta_rows`` the quadrature row
    w beta_k / theta, so den = 1 + beta_rows @ a.
    """

    engine: ConvolutionEngine
    fitness: np.ndarray
    beta_rows: np.ndarray

    def denominators(self, a: np.ndarray) -> np.ndarray:
        """Saturation denominators 1 + theta^-1 int beta_k a, one per host."""
        return 1.0 + self.beta_rows @ a

    def _gain(self, den: np.ndarray) -> np.ndarray:
        """g = sum_k c_k psi_k / den_k for the given denominators."""
        return (1.0 / den) @ self.fitness

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.engine.convolve_values(self._gain(self.denominators(values)) * values)

    def apply(self, f: Field) -> Field:
        _check_nonnegative(f)
        return Field(self.engine.grid, self.apply_values(f.values))

    def _correction(self, a: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Rows L_k a / den_k^2: with beta_rows, the rank-one term of each host."""
        return np.array(
            [self.engine.convolve_values(row * a) / d**2 for row, d in zip(self.fitness, den)]
        )

    def linearized_values(self, a: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Derivative of the map at density a, applied to direction h."""
        den = self.denominators(a)
        out = self.engine.convolve_values(self._gain(den) * h)
        out -= (self.beta_rows @ h) @ self._correction(a, den)
        return out

    def dense_derivative(self, a: np.ndarray) -> np.ndarray:
        """Dense derivative at a: K w diag(g(a)) minus the per-host rank-one terms."""
        den = self.denominators(a)
        d = self.engine.dense_matrix(self._gain(den))
        d -= self._correction(a, den).T @ self.beta_rows
        return d


def _map_over(problem: Problem, hosts: tuple[int, ...]) -> UpdateMap:
    w_theta = problem.grid.quad_weights / problem.mp.theta
    return UpdateMap(
        convolution_engine(problem),
        np.array([_influx_rate(problem, k) * problem.host(k).psi.values for k in hosts]),
        np.array([w_theta * problem.host(k).beta.values for k in hosts]),
    )


def update_map(problem: Problem) -> UpdateMap:
    """The coupled map T = T_1 + T_2."""
    return _map_over(problem, (1, 2))


def host_map(problem: Problem, k: int) -> UpdateMap:
    """Single-host map T_k(a) = L_k a / (1 + theta^-1 int beta_k a)."""
    return _map_over(problem, (k,))


def host_update(problem: Problem, k: int, f: Field) -> Field:
    """Single-host map applied once."""
    return host_map(problem, k).apply(f)


def full_update(problem: Problem, f: Field) -> Field:
    """Coupled map applied once (convenience wrapper around UpdateMap)."""
    return update_map(problem).apply(f)


def mass_bound(problem: Problem) -> float:
    """A-priori L1 bound (Lambda / (delta theta)) sum_k xi_k max(r_k)."""
    mp = problem.mp
    return (
        mp.lambda_
        / (mp.delta * mp.theta)
        * sum(
            mp.hosts[k].xi * float(problem.derived[k].r.values.max())
            for k in (0, 1)
        )
    )
