"""Spectral radii, principal eigenpairs and spectral gaps.

A linear operator f -> m_eps * (gain . f), the derivative of an update map at
zero, is similar to a symmetric kernel operator via conjugation with the
square root of its gain, so its spectrum is real and nonnegative.  The
symmetric form s K s, with s = sqrt(w gain), is zero off the gain's support,
so its nonzero eigenpairs are those of S G S on the m nodes where the gain is
positive, with G the kernel's Gram matrix there and S = diag(s).  For the
Laplace kernel G^-1 is tridiagonal (``operators.gram_inverse``, whatever the
gaps between the nodes): the top eigenvalues of the operator are the
reciprocals of the smallest ones of the pencil G^-1 u = mu S^2 u, whose
entries stay bounded where the gain nears 0.  They are found by inverse
iteration at shifts that a positive definite factor proves below the
smallest one, and by Rayleigh-quotient iteration certified by Sturm counts
(``operators.sturm_count``) for the second, with bisection on those counts
as its fallback; each step is one O(m) tridiagonal factor and solve
(``operators.TridiagonalLU``).  Rayleigh quotients in the pencil are taken
through the closed-form factor of G^-1 (``ConvolutionEngine.factor``).  The
principal eigenvalue is the Rayleigh quotient of the eigenfunction
reconstructed on the whole grid, where the L1 residual of the pair certifies
it.  The dense symmetric eigensolve the tests cross-check against is in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .grid import Field, RunFailure, l1_norm
from .model import Problem
from .operators import (ConvolutionEngine, Linearization, TridiagonalLU, combined_operator,
                        host_operator, sturm_count)

DEFAULT_TOL = 1e-10
# the relative change of the Rayleigh quotient at which inverse iteration for
# the second eigenvector stops: the step after a quotient this close leaves
# the vector within rounding
RQI_TOL = 1e-10
# the most steps (factors) either inverse iteration takes
MAX_INVERSE_STEPS = 30
# the relative distance from the second eigenvalue found at which its two
# certifying Sturm counts are taken
SECOND_COUNT_GAP = 1e-8
# the relative width to which the fallback's bisection brackets the second
# eigenvalue: it gives the shift of an inverse iteration, not the eigenvalue
BISECTION_TOL = 1e-10
# eps_mach^2: the share of the largest w * gain below which principal_eigenpair
# leaves a node out of the eigensolve
NEGLIGIBLE_SHARE = np.finfo(float).eps ** 2


class SpectralError(RunFailure):
    pass


@dataclass
class SpectralResult:
    lambda1: float
    phi1: Field
    residual: float
    iterations: int  # full-grid operator applications
    converged: bool
    lambda2: float | None = None
    gap: float | None = None
    degenerate: bool = False


def certified(result: SpectralResult, what: str) -> SpectralResult:
    """``result``, or ``SpectralError`` naming ``what`` when it did not converge."""
    if not result.converged:
        raise SpectralError(f"{what} did not converge (residual {result.residual:.3g})")
    return result


def principal_eigenpair(
    op: Linearization,
    *,
    tol: float = DEFAULT_TOL,
    with_second: bool = False,
) -> SpectralResult:
    """Dominant eigenvalue and positive unit-mass eigenfunction of a linear
    operator, the derivative of an update map at zero.

    Takes the smallest eigenvalue or, with ``with_second``, the smallest two of
    the pencil G^-1 u = mu S^2 u on the m nodes where the gain is positive and
    not negligible (``_Pencil``): mu1 and its eigenvector by inverse iteration
    at shifts proven below mu1 (``_lowest``), mu2 by Rayleigh-quotient
    iteration certified by two Sturm counts, with bisection as the fallback
    (``_second``).  The operator has rank m on m such nodes, so with m = 1 its
    second eigenvalue is 0.  lambda1 is the Rayleigh quotient of the
    eigenfunction in the symmetric form on the whole grid, and lambda2 that of
    the second eigenvector in the pencil, taken through the closed-form factor
    of G^-1.  Convergence is declared on the relative quadrature-L1 residual of
    the eigenpair on the whole grid, which costs two full-grid operator
    applications (``iterations``); a LAPACK failure in the search for the
    eigenvector yields ``converged=False``.
    """
    grid = op.engine.grid
    wg = op.d
    if not np.any(wg > 0):
        raise SpectralError("operator gain is identically zero")
    # S^2 = w gain as a share of its largest entry, so that the pencil's
    # eigenvalues, which grow like 1/(w gain), cannot overflow: a node whose
    # share is below NEGLIGIBLE_SHARE (a subnormal tail of a trait, say) moves
    # the top eigenvalues by less than m times that share of lambda1, and is
    # left out
    share = wg / wg.max()
    nodes = np.flatnonzero(share > NEGLIGIBLE_SHARE)
    pencil = _Pencil(op.engine.restricted(nodes), share[nodes])
    try:
        u, below = _lowest(pencil)
        # the operator has rank m on m nodes: with m = 1 its second eigenvalue is 0
        mu2 = (_second(pencil, u, below, grid.nodes[nodes])
               if with_second and nodes.size > 1 else np.inf)
    except LinAlgError:
        # reported as not converged: ``certified`` raises, the CLI exits 1
        nan = float("nan")
        result = SpectralResult(nan, Field(grid, np.zeros(grid.n)), float("inf"), 0, False)
        if with_second:
            result.lambda2 = result.gap = nan
        return result
    # u is the eigenfunction on the nodes, so L u, with u taken as 0 off them,
    # where the gain is (negligibly) 0, is an eigenfunction of L
    y = np.zeros(grid.n)
    y[nodes] = op.gain[nodes] * u
    phi = np.clip(op.engine.convolve_values(y), 0.0, None)
    mass = l1_norm(Field(grid, phi))
    if mass <= 0:
        raise SpectralError("eigenfunction reconstruction produced the zero field")
    phi = Field(grid, phi / mass, is_density=True)
    lphi = op.matvec(phi.values)
    # the Rayleigh quotient of the symmetric form w gain L, taken with the
    # share, as w gain times L phi can overflow
    mphi = share * phi.values
    lam = float(mphi @ lphi / (mphi @ phi.values))
    res = float(np.sum(grid.quad_weights * np.abs(lphi - lam * phi.values)) / lam)
    result = SpectralResult(lam, phi, res, 2, res < tol)
    if with_second:
        result.lambda2 = float(wg.max() / mu2)
        result.gap = lam - result.lambda2
        result.degenerate = result.gap < 1e-12
    return result


class _Pencil:
    """The symmetric-definite pencil G^-1 u = mu S^2 u on the nodes of a
    convolution engine, with S^2 = diag(``share``) and G^-1 = tridiag(off, diag,
    off) = L D L^T the engine's ``inverse`` and ``factor``.

    mu = max(w gain) / lambda for the eigenvalues lambda of the operator, and
    u = S^-1 v for the eigenvectors v of S G S.  Unlike (S G S)^-1, whose
    diagonal reaches about 3e16 where the gain nears 0 at a support's ends,
    the pencil's entries stay bounded.  Its Rayleigh quotient is taken through
    the factor, u^T G^-1 u = sum d (L^T u)^2: L^T u is a difference of
    neighbouring entries, where the tridiagonal's own entries would cancel
    like eps_mach (eps/h)^2 on a smooth u.
    """

    def __init__(self, engine: ConvolutionEngine, share: np.ndarray):
        self.share = share
        self.d, self.sub = engine.factor
        self.diag, self.off = engine.inverse

    def rayleigh(self, u: np.ndarray) -> float:
        ltu = u.copy()
        ltu[:-1] += self.sub * u[1:]
        return float(self.d @ ltu**2 / (self.share @ u**2))

    def rounding(self, u: np.ndarray, rho: float) -> float:
        """eps_mach u^T |G^-1| u / u^T G^-1 u for the quotient rho at u: to
        first order, the largest relative change in the pencil's eigenvalues
        near rho that rounding the entries of G^-1 can make, about
        4 eps_mach (eps/h)^2 on a smooth u."""
        au = np.abs(u)
        bound = self.diag @ u**2 - 2.0 * self.off @ (au[:-1] * au[1:])
        return float(np.finfo(float).eps * bound / (rho * (self.share @ u**2)))

    def shifted(self, sigma: float) -> TridiagonalLU:
        """The factor of G^-1 - sigma S^2."""
        return TridiagonalLU(self.diag - sigma * self.share, self.off)

    def count_below(self, sigma: float) -> int:
        """The number of eigenvalues at or below sigma: by Sylvester's law of
        inertia, that of the nonpositive eigenvalues of G^-1 - sigma S^2."""
        return sturm_count(self.diag - sigma * self.share, self.off, -np.inf, 0.0)

    def orthogonal(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """v made S^2-orthogonal to u, scaled to max |v| = 1."""
        su = self.share * u
        v = v - (su @ v) / (su @ u) * u
        return v / np.abs(v).max()


def _lowest(pencil: _Pencil) -> tuple[np.ndarray, float]:
    """The positive eigenvector u of the pencil's smallest eigenvalue mu1,
    scaled to max |u| = 1, and the last shift proven below mu1.

    Inverse iteration from the constant vector, first at the shift 0, below
    which G^-1 is positive definite, then just below the current Rayleigh
    quotient: by its last fall, a distance that shrinks as fast as the
    quotient's error does, but not by less than rounding can move the
    quotient (``_Pencil.rounding``).  A shift is used only where the L D L^T
    factor of G^-1 - sigma S^2 holds, which proves it below mu1; else the
    shift falls back four times as far below the quotient.  Every step lowers
    the quotient; once it falls by no more than rounding, one step at that
    distance below it, where the other eigenvectors shrink by that distance
    over their gap, is the last.  The solve of a positive definite matrix
    whose off-diagonal is nonpositive keeps u positive.  ``LinAlgError`` if a
    factor fails.
    """
    u = np.ones(pencil.share.size)
    rho = pencil.rayleigh(u)
    sigma = below = 0.0
    rounding, last = None, False
    for _ in range(MAX_INVERSE_STEPS):
        lu = pencil.shifted(sigma)
        if not lu.positive_definite:
            sigma = max(below, rho - 4.0 * (rho - sigma))
            continue
        below = sigma
        u = lu.solve(pencil.share * u)
        u /= u.max()
        if last:
            break
        quotient = pencil.rayleigh(u)
        fall, rho = rho - quotient, quotient
        if rounding is None:
            # u is as smooth after the first step as at the end
            rounding = pencil.rounding(u, rho)
        last = fall <= rounding * rho
        sigma = max(below, rho - max(fall, rounding * rho))
    return u, below


def _second(pencil: _Pencil, u1: np.ndarray, below: float, x: np.ndarray) -> float:
    """The pencil's second smallest eigenvalue mu2, on two nodes or more, given
    the eigenvector ``u1`` of mu1, a shift ``below`` it and the nodes' traits.

    Rayleigh-quotient iteration on the S^2-orthogonal complement of u1, from
    (x - xbar) u1 with xbar the mean trait under the weight S^2 u1^2 (so the
    start lies in the complement), finds an eigenvalue of the complement.  It is mu2 when G^-1 - sigma S^2 has one nonpositive
    eigenvalue at sigma = mu (1 - SECOND_COUNT_GAP) and two at
    mu (1 + SECOND_COUNT_GAP).  It need not be, since the start vector
    carries little of an eigenvector that lives where u1 is small (a second
    bump of the gain, say); then bisection on the Sturm counts
    (``_bisect_second``) brackets mu2 to BISECTION_TOL, and inverse iteration
    at its upper end gives the eigenvector.  Either way mu2 is the Rayleigh
    quotient of the last vector.
    """
    weights = pencil.share * u1**2
    start = (x - weights @ x / weights.sum()) * u1
    mu = _complement_iteration(pencil, u1, start)
    hi = mu * (1.0 + SECOND_COUNT_GAP)
    above = pencil.count_below(hi)
    if above == 2 and pencil.count_below(mu * (1.0 - SECOND_COUNT_GAP)) == 1:
        return mu
    while above < 2:
        hi *= 2.0
        above = pencil.count_below(hi)
    shift = _bisect_second(pencil, below, hi)
    # the constant and the trait, neither even nor odd about any point
    start = 1.0 + (x - x[0]) / (x[-1] - x[0])
    return _complement_iteration(pencil, u1, start, shift)


def _complement_iteration(pencil: _Pencil, u1: np.ndarray, v: np.ndarray,
                          shift: float | None = None) -> float:
    """Inverse iteration on the S^2-orthogonal complement of u1 from v, at a
    fixed ``shift`` or, without one, at the current Rayleigh quotient (RQI):
    the quotient once it moves by less than RQI_TOL relative, or after
    MAX_INVERSE_STEPS steps.  A factor that is exactly singular stops it,
    the shift being an eigenvalue to the accuracy of the arithmetic."""
    v = pencil.orthogonal(v, u1)
    rho = pencil.rayleigh(v)
    for _ in range(MAX_INVERSE_STEPS):
        try:
            w = pencil.shifted(rho if shift is None else shift).solve(pencil.share * v)
        except LinAlgError:
            break
        v = pencil.orthogonal(w, u1)
        last, rho = rho, pencil.rayleigh(v)
        if abs(rho - last) <= RQI_TOL * rho:
            break
    return rho


def _bisect_second(pencil: _Pencil, lo: float, hi: float) -> float:
    """The upper end of a bracket of mu2 whose width is BISECTION_TOL relative,
    by bisection from ``lo``, with at most one eigenvalue at or below it, and
    ``hi``, with two or more."""
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if pencil.count_below(mid) >= 2:
            hi = mid
        else:
            lo = mid
    return hi


def solve_host_spectrum(
    problem: Problem,
    k: int,
    *,
    tol: float = DEFAULT_TOL,
    with_second: bool = False,
) -> SpectralResult:
    """Principal (and optionally second) eigenvalue of host k's operator."""
    return principal_eigenpair(host_operator(problem, k), tol=tol, with_second=with_second)


def solve_combined_spectrum(problem: Problem, *, tol: float = DEFAULT_TOL) -> SpectralResult:
    return principal_eigenpair(combined_operator(problem), tol=tol)


# ---------------------------------------------------------------------------
# gap decay

def gap_exponent(eps: list[float], gaps: list[float]) -> float | None:
    """Fitted slope of log(gap) against log(eps) over the positive gaps.

    None when fewer than two gaps are positive (NaN gaps count as missing).
    """
    positive = [(e, g) for e, g in zip(eps, gaps) if g > 0]
    if len(positive) < 2:
        return None
    le, lg = np.log(positive).T
    return float(np.polyfit(le, lg, 1)[0])

