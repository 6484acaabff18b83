"""The nonlinear update maps, their derivatives and the convolution beneath them.

The fixed points of the update maps are the steady states.  Each map and its
derivative are a single weighted convolution, whatever the number of hosts
summed over: the derivative's low-rank term is taken inside it.  The
per-host and combined linear operators L f = m_eps * (gain . f) are the maps'
derivatives at the zero density, so they share that code, and building one
convolves nothing.

The mutation kernel is the Laplace kernel m_eps(z) = exp(-|z|/eps)/(2 eps),
the Green's function of 1 - eps^2 d^2/dx^2.  Its Gram matrix on any sorted
set of nodes therefore has a tridiagonal inverse, and that inverse's
Cholesky-type factor, in closed form (``gram_inverse``, ``gram_factor``): a
convolution is one O(n) tridiagonal solve, the symmetric eigenproblems
built on it are tridiagonal too (see ``spectral``), and a solve with
sigma I - T' for a map's derivative T', a pseudo-transient step (a Newton
step at sigma = 1), is a tridiagonal solve plus a low-rank correction
(``ShiftedSolve``) on the structure ``Linearization`` derives.  Every
general tridiagonal solve, real or complex, goes through ``TridiagonalLU``,
and every count of a symmetric tridiagonal's eigenvalues in an interval
through ``sturm_count``.  The kernel enters only through eps and its mass
(``gram_factor``): nothing here forms a sample array or an n x n matrix, and
the O(n^2) matrix products the tests compare against live with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .model import MutationKernel, Problem


def _load_flapack():
    """scipy's LAPACK extension, loaded from its file without running
    ``scipy/linalg/__init__.py``: that builds scipy's array-API namespace, which
    imports ``numpy.f2py`` and ``numpy.testing``, most of the CLI's start-up.
    It is registered under its own name, so ``scipy.linalg.lapack`` reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        where = scipy.__path__[0] + "/linalg"
        spec = PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no {name} in {where}")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_flapack = _load_flapack()
dgttrf, dgttrs, dpttrf, dpttrs = _flapack.dgttrf, _flapack.dgttrs, _flapack.dpttrf, _flapack.dpttrs
dstebz, zgttrf, zgttrs = _flapack.dstebz, _flapack.zgttrf, _flapack.zgttrs


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


class TridiagonalLU:
    """Factor of tridiag(off, diag, off), real or complex, for any number of
    solves: L D L^T without pivoting (LAPACK ``dpttrf``) when the matrix is real
    and positive definite, as the shifted solves are at a stable steady state,
    else LU with partial pivoting (``dgttrf``, ``zgttrf``).  ``dpttrs`` takes
    about half the time of ``dgttrs`` per right-hand side, which is most of a
    shift-invert step; on an indefinite matrix the failed ``dpttrf`` stops at
    its first nonpositive pivot, one pass at most.  ``positive_definite`` says
    whether the L D L^T factor held, which proves the real matrix positive
    definite.  ``LinAlgError`` if a pivot is exactly zero (the matrix is
    singular)."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.n = diag.size
        self.is_complex = np.iscomplexobj(diag) or np.iscomplexobj(off)
        if self.n < 3:
            # f2py's gttrf takes 3 nodes or more: pad with a decoupled identity
            diag = np.append(diag, np.ones(3 - self.n))
            off = np.append(off, np.zeros(3 - self.n))[:2]
        self.positive_definite = False
        if not self.is_complex:
            *self._factor, info = dpttrf(diag, off)
            self._trs = dpttrs
            self.positive_definite = not info
        if self.is_complex or info:
            gttrf, self._trs = (zgttrf, zgttrs) if self.is_complex else (dgttrf, dgttrs)
            *self._factor, info = gttrf(off, diag, off)
        if info:
            raise LinAlgError(f"tridiagonal factorization failed (gttrf info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with tridiag(off, diag, off) x = rhs, for one right-hand side or the
        columns of several; ``TypeError`` for complex ones on a real factor."""
        if np.iscomplexobj(rhs) and not self.is_complex:
            # LAPACK's real solve would drop the imaginary part, with a ComplexWarning
            raise TypeError("a real tridiagonal factor cannot solve a complex right-hand side")
        b = rhs.reshape(self.n, -1)
        if self.n < 3:
            b = np.vstack((b, np.zeros((3 - self.n, b.shape[1]), b.dtype)))
        x, info = self._trs(*self._factor, b)
        if info:
            raise LinAlgError(f"tridiagonal solve failed (info {info})")
        return x[: self.n].reshape(rhs.shape)


def sturm_count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """The number of eigenvalues of the symmetric tridiag(off, diag, off) in
    (lo, hi], either end infinite or not, from LAPACK ``stebz``'s Sturm counts
    at the two ends, clipped to Gershgorin's discs: the tolerance spans the
    interval, so nothing is bisected.  By Sylvester's law of inertia the count
    is exact for a matrix within rounding of the given one.  ``LinAlgError``
    if LAPACK reports a failure."""
    # f2py bounds the off-diagonal to one entry, not zero, on one node
    count, *_, info = dstebz(diag, off if off.size else np.zeros(1), 1, lo, hi, 0, 0,
                             hi - lo, "E")
    if info:
        raise LinAlgError(f"Sturm count failed (stebz info {info})")
    return int(count)


class ConvolutionEngine:
    """Quadrature convolution with the scaled mutation kernel, on a sorted set of
    the kernel's grid nodes (all of them by default).

    Returns g(x_i) = sum_j w_j m_eps(x_i - x_j) f(x_j) over the nodes, that is
    g = K (w f) with the Gram matrix K[i, j] = C exp(-|x_i - x_j|/eps), whose
    inverse is tridiagonal; on the whole grid K[i, j] = C r^|i-j|,
    r = exp(-h/eps), and K^-1 = tridiag(-r, 1 + r^2, -r)/((1 - r^2) C) with
    corner entries 1/((1 - r^2) C).  Its L D L^T factor is known in closed form
    (``gram_factor``), so each call is one O(n) LAPACK solve K^-1 g = w f
    (``dpttrs``).  The closed form keeps the solve accurate as h/eps shrinks,
    where a factor computed from the rounded tridiagonal entries is not: their
    row sums, (1 - r)/(1 + r) in the interior, are what K's action on smooth
    values depends on.  ``restricted`` gives the engine of a subset of the
    nodes.
    """

    def __init__(self, kernel: MutationKernel, nodes: np.ndarray | None = None):
        self.kernel = kernel
        # the whole grid, whose indices ``nodes`` are
        self.grid = kernel.grid
        self.nodes = np.arange(self.grid.n) if nodes is None else nodes
        # the grid's own weights: a subset is not re-trapezoided, so an end node
        # inside the grid keeps its whole weight
        self.weights = self.grid.quad_weights[self.nodes]
        self.gaps = self.grid.h * np.diff(self.nodes)
        d, sub = gram_factor(kernel, self.gaps)
        # the closed-form factor of K^-1 (``gram_factor``); f2py bounds the
        # subdiagonal to one entry, not zero, on one node
        self.factor = d, sub if sub.size else np.zeros(1)

    def convolve_values(self, values: np.ndarray) -> np.ndarray:
        return dpttrs(*self.factor, self.weights * values)[0]

    @cached_property
    def inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the tridiagonal K^-1 (``gram_inverse``)."""
        return gram_inverse(self.kernel, self.gaps)

    def restricted(self, nodes: np.ndarray) -> "ConvolutionEngine":
        """The engine of the given sorted positions among this engine's nodes.

        Its output is this engine's on values that vanish off those nodes, read
        on them; on all of them it computes exactly what this engine does.
        """
        return ConvolutionEngine(self.kernel, self.nodes[nodes])


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

    @cached_property
    def read_nodes(self) -> np.ndarray:
        """The nodes where a fitness or a beta row is nonzero: T(a) reads a only
        there, through g(a) a and through the denominators."""
        return np.flatnonzero((self.fitness != 0).any(axis=0) | (self.beta_rows != 0).any(axis=0))

    def restricted(self, nodes: np.ndarray) -> "UpdateMap":
        """This map on the given sorted positions among its engine's nodes alone
        (``ConvolutionEngine.restricted``)."""
        return UpdateMap(self.engine.restricted(nodes), self.fitness[:, nodes],
                         self.beta_rows[:, nodes])

    def denominators(self, a: np.ndarray) -> np.ndarray:
        """Saturation denominators 1 + theta^-1 int beta_k a, one per host."""
        return 1.0 + self.beta_rows @ a

    def _gain(self, den: np.ndarray) -> np.ndarray:
        """g = sum_k c_k psi_k / den_k for the given denominators."""
        return (1.0 / den) @ self.fitness

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.engine.convolve_values(self._gain(self.denominators(values)) * values)

    def linearization(self, a: np.ndarray) -> "Linearization":
        """Derivative of the map at density a, as an operator on directions h."""
        return Linearization(self, a)

    def newton_direction(self, a: np.ndarray, f: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """The shifted Newton direction of a - T(a) at a: delta with
        (sigma I - T'(a)) delta = f, for the residual f = T(a) - a (``ShiftedSolve``).
        sigma = 1 is Newton's step, and sigma = 1 + 1/dt the linearly implicit
        Euler step of length dt of da/dt = T(a) - a.  Raises ``LinAlgError`` when
        the solve is singular or the direction is not finite."""
        delta = ShiftedSolve(self.linearization(a), sigma).solve(f)
        if not np.all(np.isfinite(delta)):
            raise LinAlgError("Newton direction is not finite")
        return delta


class ShiftedSolve:
    """x with (sigma I - T'(a)) x = y for the derivative T'(a) = K (D - U V^T)
    of an UpdateMap (``Linearization``), factored once for any number of
    right-hand sides.  The coupled solve's steps take sigma = 1 + 1/dt, from 2
    down towards Newton's 1, and the stability report's shift-invert 1.001.

    x solves (M + U V^T) x = K^-1 y with the symmetric tridiagonal
    M = sigma K^-1 - D.  For sigma near 1 and a near a fixed point M is
    singular or nearly so: a is the null vector of K^-1 - D, and K D has an
    eigenvalue pinned near 1 on the mode of each peak of a.  So the Woodbury
    formula is applied around M + s E E^T instead (s = max |diag M|; E's
    columns are the unit vectors at the highest local maxima of a, one per
    host), with the shift moved into the low-rank term [U, -s E][V, E]^T.
    Building it takes one tridiagonal LU and a solve with 2 right-hand sides
    per host; each solve then takes one product with K^-1, one tridiagonal
    solve and a correction of rank 2 per host.  Raises ``LinAlgError`` when
    the factor or the small dense system is singular.
    """

    def __init__(self, lin: Linearization, sigma: float):
        a, self._lin = lin.a, lin
        # the highest local maxima of a (a plateau's last node), one per host,
        # then the first other nodes where a has fewer
        peak = np.append(True, a[1:] >= a[:-1]) & np.append(a[:-1] > a[1:], True)
        keys = np.where(peak, a, -1.0)
        self._peaks = np.empty(min(len(lin.u), a.size), int)
        for i in range(self._peaks.size):
            self._peaks[i] = np.argmax(keys)
            keys[self._peaks[i]] = -np.inf
        shifted, off = lin.shifted(sigma)
        s = np.abs(shifted).max()
        shifted[self._peaks] += s
        self._lu = TridiagonalLU(shifted, off)
        rhs = np.zeros((a.size, len(lin.u) + self._peaks.size))
        rhs[:, : len(lin.u)] = lin.u.T
        rhs[self._peaks, len(lin.u) + np.arange(self._peaks.size)] = -s
        cols = self._lu.solve(rhs)
        # (M + s E E^T + [U, -s E][V, E]^T)^-1 = (1 - cols small^-1 [V, E]^T) M_s^-1
        self._correction = cols @ np.linalg.inv(np.eye(rhs.shape[1]) + self._low_rank(cols))

    def _low_rank(self, x: np.ndarray) -> np.ndarray:
        """[V, E]^T x: V^T x, then x at the peaks."""
        return np.concatenate((self._lin.beta_rows @ x, x[self._peaks]))

    def solve(self, y: np.ndarray) -> np.ndarray:
        diag, off = self._lin.engine.inverse
        ky = diag * y
        ky[:-1] += off * y[1:]
        ky[1:] += off * y[:-1]
        x = self._lu.solve(ky)
        return x - self._correction @ self._low_rank(x)


class Linearization:
    """Derivative of an UpdateMap at a fixed density ``a``.

    h -> m_eps * (g(a) h - sum_k (theta^-1 int beta_k h) c_k psi_k a / den_k^2),
    with g(a) and the ``rows`` c_k psi_k a / den_k^2 formed once (dividing by
    den_k twice, as den_k^2 can overflow): building it costs no convolution
    and each application one (``matvec``), all the stability report's
    Arnoldi run asks of an operator.  As a matrix it is
    T' = K (D - U V^T), with K^-1 tridiagonal (``ConvolutionEngine.inverse``),
    D = diag(``d``) = diag(w g(a)), U^T = ``u`` = w rows and V^T = ``beta_rows``.
    """

    def __init__(self, tmap: UpdateMap, a: np.ndarray):
        den = tmap.denominators(a)
        self.a = a
        self.engine = tmap.engine
        self.beta_rows = tmap.beta_rows
        self.gain = tmap._gain(den)
        self.rows = tmap.fitness * a / den[:, None] / den[:, None]
        self.d = self.engine.weights * self.gain
        self.u = self.engine.weights * self.rows

    def matvec(self, h: np.ndarray) -> np.ndarray:
        return self.engine.convolve_values(self.gain * h - (self.beta_rows @ h) @ self.rows)

    def shifted(self, sigma: complex) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the symmetric tridiagonal sigma K^-1 - D."""
        diag, off = self.engine.inverse
        return sigma * diag - self.d, sigma * off


def build_maps(problem: Problem) -> tuple[UpdateMap, UpdateMap, UpdateMap]:
    """The coupled map T = T_1 + T_2 and the host maps T_1 and T_2, on one
    convolution engine; ``Problem.update_maps`` keeps them."""
    mp = problem.mp
    w_theta = problem.grid.quad_weights / mp.theta
    engine = ConvolutionEngine(problem.kernel)
    # c_k psi_k with c_k = xi_k Lambda / theta
    fitness = np.array([h.xi * mp.lambda_ / mp.theta * hd.psi.values
                        for h, hd in zip(mp.hosts, problem.derived)])
    beta_rows = np.array([w_theta * hd.beta.values for hd in problem.derived])
    return (UpdateMap(engine, fitness, beta_rows),
            *(UpdateMap(engine, fitness[k : k + 1], beta_rows[k : k + 1]) for k in (0, 1)))


def update_map(problem: Problem) -> UpdateMap:
    """The coupled map T = T_1 + T_2."""
    return problem.update_maps[0]


def host_map(problem: Problem, k: int) -> UpdateMap:
    """Single-host map T_k(a) = L_k a / (1 + theta^-1 int beta_k a)."""
    return problem.update_maps[k]


def host_operator(problem: Problem, k: int) -> Linearization:
    """Linear operator of host k, L_k f = (xi_k Lambda / theta) m_eps * (psi_k f):
    the derivative of T_k at zero."""
    return host_map(problem, k).linearization(np.zeros(problem.grid.n))


def combined_operator(problem: Problem) -> Linearization:
    """L_1 + L_2, the derivative of the coupled map T at zero."""
    return update_map(problem).linearization(np.zeros(problem.grid.n))
