"""The nonlinear update maps, their derivatives and the convolution beneath them.

The fixed points of the update maps are the steady states.  Each map and its
derivative are a single weighted convolution (the derivative minus a low-rank
correction), whatever the number of hosts summed over.  The per-host and
combined linear operators L f = m_eps * (gain . f) are the maps' derivatives at
the zero density, so they share that code.

The mutation kernel is the Laplace kernel m_eps(z) = exp(-|z|/eps)/(2 eps),
the Green's function of 1 - eps^2 d^2/dx^2.  Its Gram matrix on any sorted
set of nodes therefore has a tridiagonal inverse, and that inverse's
Cholesky-type factor, in closed form (``gram_inverse``, ``gram_factor``): a
convolution is one O(n) tridiagonal solve, and the symmetric eigenproblems
built on it are tridiagonal too (see ``spectral``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpttrs
from scipy.sparse.linalg import LinearOperator

from .grid import Field
from .model import MutationKernel, Problem


class OperatorError(ValueError):
    pass


def gram_factor(kernel: MutationKernel, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G^-1 = L D L^T in closed form, for G[i, j] = m_eps(x_i - x_j) on sorted
    nodes whose consecutive distances are ``gaps``: ``(diag(D), subdiagonal of
    the unit lower bidiagonal L)``.

    G = C exp(-|x_i - x_j|/eps) with C = 1/(2 eps raw_mass) is the covariance
    of a Markov chain: with rho_i = exp(-gaps_i/eps), L has subdiagonal
    -rho_i, and D is 1/((1 - rho_i^2) C) at every node but the last, where it
    is 1/C.  1 - rho^2 is taken as -expm1(-2 gap/eps): the plain difference
    cancels as gap/eps shrinks.  A gap wide enough that rho underflows to 0
    splits G^-1 into independent blocks.
    """
    c = 0.5 / (kernel.eps * kernel.raw_mass)
    t = gaps / kernel.eps
    return np.append(-1.0 / np.expm1(-2.0 * t), 1.0) / c, -np.exp(-t)


def gram_inverse(kernel: MutationKernel, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal G^-1 = L D L^T (see
    ``gram_factor``): -rho_i/((1 - rho_i^2) C) off the diagonal and
    (1 + q_{i-1} + q_i)/C on it, with q = rho^2/(1 - rho^2) (0 past either end).
    """
    d, sub = gram_factor(kernel, gaps)
    return d + np.append(0.0, sub**2 * d[:-1]), sub * d[:-1]


class ConvolutionEngine:
    """Quadrature convolution with the scaled mutation kernel, on the kernel's grid.

    Returns g(x_i) = sum_j w_j m_eps(x_i - x_j) f(x_j), that is g = K (w f)
    with the Toeplitz K[i, j] = C r^|i-j|, r = exp(-h/eps).  Its inverse is
    tridiagonal, K^-1 = tridiag(-r, 1 + r^2, -r)/((1 - r^2) C) with corner
    entries 1/((1 - r^2) C), and its L D L^T factor is known in closed form
    (``gram_factor``), so each call is one O(n) LAPACK solve K^-1 g = w f
    (``dpttrs``).  The closed form keeps the solve accurate as h/eps shrinks,
    where a factor computed from the rounded tridiagonal entries is not: their
    row sums, (1 - r)/(1 + r) in the interior, are what K's action on smooth
    values depends on.  ``restricted`` gives the engine of a window of nodes;
    ``toeplitz`` and ``dense_matrix`` give the same sum as an O(n^2) Toeplitz
    product, the reference in tests.
    """

    def __init__(self, kernel: MutationKernel):
        self.kernel = kernel
        self.grid = kernel.grid
        d, sub = gram_factor(kernel, np.full(self.grid.n - 1, self.grid.h))
        # f2py bounds the subdiagonal to one entry, not zero, at n = 1
        self._factor = d, sub if sub.size else np.zeros(1)

    def convolve_values(self, values: np.ndarray) -> np.ndarray:
        return dpttrs(*self._factor, self.grid.quad_weights * values)[0]

    def restricted(self, lo: int, hi: int) -> "ConvolutionEngine":
        """The engine of the m = hi - lo nodes lo..hi-1 alone.

        It keeps this grid's quadrature weights on the window (the window is not
        re-trapezoided: an end node inside the grid keeps its whole weight), so
        its output is this engine's on values that vanish off the window, read
        on the window; on the whole grid it computes exactly what this engine
        does.  The kernel samples are cut to the 2m-1 offsets the window spans.
        """
        g, n, m = self.grid, self.grid.n, hi - lo
        window = replace(g, x_min=float(g.nodes[lo]), x_max=float(g.nodes[hi - 1]), n=m,
                         nodes=g.nodes[lo:hi], quad_weights=g.quad_weights[lo:hi])
        samples = self.kernel.samples[(n - 1) - (m - 1) : (n - 1) + m]
        return ConvolutionEngine(replace(self.kernel, grid=window, samples=samples))

    def toeplitz(self) -> np.ndarray:
        """Read-only n x n view K[i, j] = m_eps(x_i - x_j) = samples[(n-1)+i-j]."""
        n = self.grid.n
        return np.lib.stride_tricks.sliding_window_view(self.kernel.samples, n)[:, ::-1]

    def dense_matrix(self, weight: np.ndarray) -> np.ndarray:
        """Matrix of f -> convolve_values(weight * f): K[i, j] w_j weight_j."""
        return self.toeplitz() * (self.grid.quad_weights * weight)[None, :]


# ---------------------------------------------------------------------------
# nonlinear update maps

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
        if np.any(f.values < 0):
            raise OperatorError("update maps require a nonnegative input density")
        return Field(self.engine.grid, self.apply_values(f.values))

    def linearization(self, a: np.ndarray) -> "Linearization":
        """Derivative of the map at density a, as an operator on directions h."""
        return Linearization(self, a)


class Linearization(LinearOperator):
    """Derivative of an UpdateMap at a fixed density a.

    h -> m_eps * (g(a) h) - sum_k (L_k a / den_k^2)(theta^-1 int beta_k h).  The
    gain g(a) and the correction rows L_k a / den_k^2 are formed once, so each
    application costs one convolution.
    """

    def __init__(self, tmap: UpdateMap, a: np.ndarray):
        den = tmap.denominators(a)
        self.engine = tmap.engine
        self.beta_rows = tmap.beta_rows
        self.gain = tmap._gain(den)
        self.correction = np.array(
            [tmap.engine.convolve_values(row * a) / d**2 for row, d in zip(tmap.fitness, den)]
        )
        super().__init__(float, (len(a), len(a)))

    def _matvec(self, h: np.ndarray) -> np.ndarray:
        h = h.ravel()
        return self.engine.convolve_values(self.gain * h) - (self.beta_rows @ h) @ self.correction

    def dense(self) -> np.ndarray:
        """Explicit n x n matrix of the derivative, the only n x n array formed.

        Each host's rank-one term is subtracted in place by BLAS ``dger`` on
        the Fortran-ordered transpose, so no n x n temporary is allocated.
        """
        d = self.engine.dense_matrix(self.gain)
        for beta_row, correction in zip(self.beta_rows, self.correction):
            dger(-1.0, beta_row, correction, a=d.T, overwrite_a=1)
        return d


def _map_over(problem: Problem, hosts: tuple[int, ...]) -> UpdateMap:
    mp = problem.mp
    w_theta = problem.grid.quad_weights / mp.theta
    return UpdateMap(
        ConvolutionEngine(problem.kernel),
        # c_k psi_k with c_k = xi_k Lambda / theta
        np.array([mp.hosts[k - 1].xi * mp.lambda_ / mp.theta * problem.host(k).psi.values
                  for k in hosts]),
        np.array([w_theta * problem.host(k).beta.values for k in hosts]),
    )


def update_map(problem: Problem) -> UpdateMap:
    """The coupled map T = T_1 + T_2."""
    return _map_over(problem, (1, 2))


def host_map(problem: Problem, k: int) -> UpdateMap:
    """Single-host map T_k(a) = L_k a / (1 + theta^-1 int beta_k a)."""
    return _map_over(problem, (k,))


def host_operator(problem: Problem, k: int) -> Linearization:
    """Linear operator of host k, L_k f = (xi_k Lambda / theta) m_eps * (psi_k f):
    the derivative of T_k at zero."""
    return host_map(problem, k).linearization(np.zeros(problem.grid.n))


def combined_operator(problem: Problem) -> Linearization:
    """L_1 + L_2, the derivative of the coupled map T at zero."""
    return update_map(problem).linearization(np.zeros(problem.grid.n))


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
