"""Spectral radii, principal eigenpairs and spectral gaps.

A linear operator f -> m_eps * (gain . f), the derivative of an update map at
zero, is similar to a symmetric kernel operator via conjugation with the
square root of its gain, so its spectrum is real and nonnegative.  The
symmetric form s K s, with s = sqrt(w gain), is zero off the gain's support,
so its nonzero eigenpairs are those of S G S on the m nodes where the gain is
positive, with G the kernel's Gram matrix there and S = diag(s).  For the
Laplace kernel G^-1 is tridiagonal (``operators.gram_inverse``, whatever the
gaps between the nodes), and so is (S G S)^-1 = S^-1 G^-1 S^-1: the top
eigenvalues of the operator are the reciprocals of its smallest ones, which
LAPACK bisection (``stebz``) finds in O(m) work each; the eigenvector comes
from inverse iteration on the equivalent pencil G^-1 - mu S^2, and the
principal eigenvalue is its Rayleigh quotient.  The principal pair is
certified by the L1 residual of the eigenfunction reconstructed on the whole
grid.  The dense symmetric eigensolve the tests cross-check against is in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .grid import Field, l1_norm
from .model import Problem
from .operators import (Linearization, TridiagonalLU, combined_operator, gram_inverse,
                        host_operator)

DEFAULT_TOL = 1e-10
# absolute bisection tolerance: LAPACK's default, eps_mach times the matrix's
# 1-norm, is far too coarse where a gain near 0 makes that norm huge, so
# bisection runs to the relative accuracy of the arithmetic instead
BISECTION_TOL = 1e-300
# eps_mach^2: the share of the largest w * gain below which principal_eigenpair
# leaves a node out of the eigensolve
NEGLIGIBLE_SHARE = np.finfo(float).eps ** 2


class SpectralError(RuntimeError):
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
    the tridiagonal (S G S)^-1 on the m nodes where the gain is positive and
    not negligible, by bisection to machine precision.  The operator has rank
    m on m such nodes, so with m = 1 its second eigenvalue is 0.  The
    eigenfunction comes from inverse iteration on the pencil G^-1 - mu S^2
    (``_pencil_eigenvector``), and lambda1 is its Rayleigh quotient in the
    symmetric form: bisection's own lambda1 drifts like eps_mach (eps/h)^2,
    with the conditioning of (S G S)^-1, and lambda2 is bisection's.
    Convergence is declared on the relative quadrature-L1 residual of the
    eigenpair on the whole grid, which costs two full-grid operator
    applications (``iterations``); a LAPACK failure yields ``converged=False``.
    """
    grid = op.engine.grid
    wg = op.d
    if not np.any(wg > 0):
        raise SpectralError("operator gain is identically zero")
    k = 2 if with_second else 1
    # S^2 = w gain as a share of its largest entry, so that the diagonal of
    # (S G S)^-1, which grows like 1/(w gain), cannot overflow: a node whose
    # share is below NEGLIGIBLE_SHARE (a subnormal tail of a trait, say) moves
    # the top eigenvalues by less than m times that share of lambda1, and is
    # left out
    share = wg / wg.max()
    nodes = np.flatnonzero(share > NEGLIGIBLE_SHARE)
    kept = share[nodes]
    root = np.sqrt(kept)
    diag, off = gram_inverse(op.engine.kernel, grid.h * np.diff(nodes))
    try:
        mu = eigh_tridiagonal(
            diag / kept, off / (root[:-1] * root[1:]), eigvals_only=True, select="i",
            select_range=(0, min(k, nodes.size) - 1), lapack_driver="stebz",
            tol=BISECTION_TOL,
        )
        u = _pencil_eigenvector(diag, off, kept, mu[0])
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
        result.lambda2 = float(wg.max() / mu[1]) if len(mu) > 1 else 0.0
        result.gap = lam - result.lambda2
        result.degenerate = result.gap < 1e-12
    return result


def _pencil_eigenvector(diag: np.ndarray, off: np.ndarray, share: np.ndarray,
                        mu: float) -> np.ndarray:
    """The positive eigenvector u of G^-1 u = mu S^2 u (G^-1 = tridiag(off,
    diag, off), S^2 = diag(share)), scaled to max |u| = 1.

    u = S^-1 v for the eigenvector v of (S G S)^-1, whose diagonal is huge
    where S is tiny (about 3e16 at a support's end nodes): inverse iteration
    there, as in LAPACK's ``stein``, leaves residuals of eps_mach times that
    norm, 1e-11 in the certificate.  The pencil's entries stay bounded.  Two
    steps of inverse iteration from the constant vector, against one factor of
    the pencil shifted just below mu so that no pivot is exactly zero (as it
    is for a single node), shrink the other eigenvectors by about 1e-12 over
    the relative gap to the next mu each.
    """
    lu = TridiagonalLU(diag - (1.0 - 1e-12) * mu * share, off)
    u = np.ones(diag.size)
    for _ in range(2):
        u = lu.solve(share * u)
        u /= np.max(np.abs(u))
    return u * np.sign(np.sum(u))


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

