"""Spectral radii, principal eigenpairs and spectral gaps.

A linear operator f -> m_eps * (gain . f), the derivative of an update map at
zero, is similar to a symmetric kernel operator via conjugation with the
square root of its gain, so its spectrum is real and nonnegative.  The top
eigenvalues come from one implicitly restarted Lanczos run (ARPACK, through
``scipy.sparse.linalg.eigsh``) on the Euclidean-symmetric form of the
operator, and the principal pair is certified by the L1 residual of the
reconstructed eigenfunction; dense symmetric eigensolves provide the rest of
the spectrum and the independent cross-check.

The symmetric form s K s, with s = sqrt(w gain), is zero off the gain's
support, so its nonzero eigenpairs live on the nodes where the gain is
positive: Lanczos runs on the window spanning them, with a convolution engine
restricted to it.  The same argument serves the stability solve: a
derivative T' that reads its input only on a window, T' = T'P with P the
restriction to it, has the nonzero spectrum of P T' P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .grid import Field, l1_norm
from .model import Problem
from .operators import Linearization, combined_operator, host_operator

DEFAULT_TOL = 1e-10


class SpectralError(RuntimeError):
    pass


@dataclass
class SpectralResult:
    lambda1: float
    phi1: Field
    residual: float
    iterations: int  # operator applications
    converged: bool
    lambda2: float | None = None
    gap: float | None = None
    degenerate: bool = False


def certified(result: SpectralResult, what: str) -> SpectralResult:
    """``result``, or ``SpectralError`` naming ``what`` when it did not converge."""
    if not result.converged:
        raise SpectralError(f"{what} did not converge (residual {result.residual:.3g})")
    return result


def arpack_window(mask: np.ndarray, k: int) -> tuple[int, int]:
    """Node window lo..hi-1 (half-open) from the first to the last True entry of
    ``mask``, widened within the grid to at least k + 2 nodes: ARPACK asks for
    more nodes than the k eigenvalues it returns."""
    n = len(mask)
    hits = np.flatnonzero(mask)
    lo, hi = int(hits[0]), int(hits[-1]) + 1
    need = min(n, k + 2)
    lo = max(0, min(lo, hi - need))
    return lo, max(hi, lo + need)


def principal_eigenpair(
    op: Linearization,
    *,
    tol: float = DEFAULT_TOL,
    with_second: bool = False,
) -> SpectralResult:
    """Dominant eigenvalue and positive unit-mass eigenfunction of a linear
    operator, the derivative of an update map at zero.

    Runs ARPACK's Lanczos iteration to machine precision on
    sqrt(w) sqrt(gain) K sqrt(gain) sqrt(w), for the top eigenvalue or,
    with ``with_second``, the top two, on the window of nodes where the gain
    is positive (see ``arpack_window``).  Convergence is declared on the
    relative quadrature-L1 residual of the eigenpair reconstructed on the whole
    grid; a Lanczos run that does not converge yields ``converged=False``.
    """
    grid = op.engine.grid
    positive = op.gain > 0
    if not positive.any():
        raise SpectralError("operator gain is identically zero")
    k = 2 if with_second else 1
    lo, hi = arpack_window(positive, k)
    window = slice(lo, hi)
    engine = op.engine.restricted(lo, hi)
    sw = np.sqrt(grid.quad_weights[window])
    s = np.sqrt(op.gain[window])
    applications = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return sw * s * engine.convolve_values(s * x.ravel() / sw)

    b = LinearOperator((hi - lo, hi - lo), matvec=matvec, dtype=float)
    # seeded, because ARPACK's own start vector does not repeat within a
    # process; not reflection-even, because an even start has no component
    # along the odd eigenvectors of a reflection-symmetric operator
    v0 = sw * (1.0 + np.random.default_rng(0).random(grid.n)[window])
    try:
        vals, vecs = eigsh(b, k=k, which="LA", v0=v0, tol=0)
        lanczos_converged = True
    except ArpackNoConvergence as exc:
        vals, vecs, lanczos_converged = exc.eigenvalues, exc.eigenvectors, False
    if len(vals) == 0:
        # nothing converged: fall back to the start vector's Rayleigh quotient
        vals, vecs = np.array([v0 @ b.matvec(v0) / (v0 @ v0)]), v0[:, None]
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]

    lam = float(vals[0])
    # eigsh fixes no sign; the principal eigenvector is the positive one.  It
    # is u = vecs / sw on the window and 0 off it, where the gain vanishes, so
    # phi = m_eps * (sqrt(gain) u) / lam solves L phi = lam phi on the whole grid
    u = vecs[:, 0] / sw * np.sign(np.sum(vecs[:, 0]))
    su = np.zeros(grid.n)
    su[window] = s * u
    phi = np.clip(op.engine.convolve_values(su) / lam, 0.0, None)
    mass = l1_norm(Field(grid, phi))
    if mass <= 0:
        raise SpectralError("eigenfunction reconstruction produced the zero field")
    phi = Field(grid, phi / mass, is_density=True)
    lphi = op.matvec(phi.values)
    res = float(np.sum(grid.quad_weights * np.abs(lphi - lam * phi.values)) / lam)
    result = SpectralResult(lam, phi, res, applications, lanczos_converged and res < tol)
    if with_second:
        result.lambda2 = float(vals[1]) if len(vals) > 1 else float("nan")
        result.gap = lam - result.lambda2
        result.degenerate = result.gap < 1e-12
    return result


def symmetric_spectrum(op: Linearization, count: int) -> np.ndarray:
    """Top ``count`` eigenvalues (descending) via a dense symmetric eigensolve.

    The operator's matrix K w diag(gain) is similar, by diag(s) with
    s = sqrt(w gain), to the symmetric s K s.
    """
    n = op.engine.grid.n
    if count > n:
        raise SpectralError(f"requested {count} eigenvalues from an {n}-point grid")
    s = np.sqrt(op.engine.grid.quad_weights * op.gain)
    b = s[:, None] * op.engine.toeplitz()
    b *= s[None, :]
    vals = eigh(b, eigvals_only=True, subset_by_index=(n - count, n - 1))
    return vals[::-1]


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

