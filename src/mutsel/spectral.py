"""Spectral radii, principal eigenpairs, spectral gaps and threshold limits.

The per-host linear operator is similar to a symmetric kernel operator via
conjugation with the square root of its fitness weight, so its spectrum is
real and nonnegative.  The dominant eigenpair is computed by power iteration
with a Rayleigh-quotient estimate in the symmetrized frame; dense symmetric
eigensolves provide the rest of the spectrum and the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .grid import Field, l1_norm
from .model import ModelParams, Problem, build_problem
from .operators import WeightedConvolutionOperator, combined_operator, host_operator

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
DENSE_LIMIT = 2048


class SpectralError(RuntimeError):
    pass


@dataclass
class SpectralResult:
    lambda1: float
    phi1: Field
    residual: float
    iterations: int
    converged: bool
    lambda2: float | None = None
    gap: float | None = None
    r0_limit: float | None = None
    degenerate: bool = False


def _weighted_dot(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(w * a * b))


def _symmetric_vector_to_eigenfunction(
    op: WeightedConvolutionOperator, v: np.ndarray, lam: float
) -> Field:
    # if u is an eigenvector of the symmetrized operator at lam, then
    # phi = (pref / lam) m_eps * (sqrt(weight) u) solves L phi = lam phi
    s = np.sqrt(op.weight.values)
    phi = op.prefactor / lam * op.engine.convolve_values(s * v)
    phi = np.clip(phi, 0.0, None)
    f = Field(op.engine.grid, phi)
    norm = l1_norm(f)
    if norm <= 0:
        raise SpectralError("eigenfunction reconstruction produced the zero field")
    return Field(op.engine.grid, phi / norm, is_density=True)


def _l1_residual(op: WeightedConvolutionOperator, lam: float, phi: Field) -> float:
    lphi = op.apply_values(phi.values)
    return float(
        np.sum(op.engine.grid.quad_weights * np.abs(lphi - lam * phi.values)) / lam
    )


def principal_eigenpair(
    op: WeightedConvolutionOperator,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    check_every: int = 50,
) -> SpectralResult:
    """Dominant eigenvalue and positive unit-mass eigenfunction of the operator.

    Runs power iteration on the symmetrized form, with convergence declared on
    the relative quadrature-L1 residual of the reconstructed eigenpair.
    """
    grid = op.engine.grid
    w = grid.quad_weights
    v = (op.weight.values > 0).astype(float)
    if not v.any():
        raise SpectralError("operator weight is identically zero")
    v /= math.sqrt(_weighted_dot(w, v, v))

    lam = 0.0
    for it in range(1, max_iter + 1):
        sv = op.symmetrized_apply_values(v)
        lam = _weighted_dot(w, v, sv)
        if lam <= 0:
            raise SpectralError("power iteration collapsed to a nonpositive estimate")
        norm = math.sqrt(_weighted_dot(w, sv, sv))
        v = sv / norm
        if it % check_every == 0 or it == max_iter:
            phi = _symmetric_vector_to_eigenfunction(op, v, lam)
            res = _l1_residual(op, lam, phi)
            if res < tol:
                return SpectralResult(float(lam), phi, res, it, True)
    phi = _symmetric_vector_to_eigenfunction(op, v, lam)
    res = _l1_residual(op, lam, phi)
    return SpectralResult(float(lam), phi, res, max_iter, False)


def symmetric_spectrum(op: WeightedConvolutionOperator, count: int) -> np.ndarray:
    """Top ``count`` eigenvalues (descending) via a dense symmetric eigensolve."""
    n = op.engine.grid.n
    if count > n:
        raise SpectralError(f"requested {count} eigenvalues from an {n}-point grid")
    b = op.dense_symmetric()
    vals = eigh(b, eigvals_only=True, subset_by_index=(n - count, n - 1))
    return vals[::-1]


def second_eigenvalue(
    op: WeightedConvolutionOperator,
    principal: SpectralResult,
    *,
    tol: float = 1e-10,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Second eigenvalue, dense when the grid is small, deflated otherwise."""
    grid = op.engine.grid
    if grid.n <= DENSE_LIMIT:
        return float(symmetric_spectrum(op, 2)[1])
    w = grid.quad_weights
    # deflated power iteration in the symmetrized frame: project out the
    # dominant eigenvector (recomputed here to full accuracy in that frame)
    u = np.sqrt(op.weight.values) * principal.phi1.values
    u /= math.sqrt(_weighted_dot(w, u, u))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.n)
    v -= u * _weighted_dot(w, u, v)
    v /= math.sqrt(_weighted_dot(w, v, v))
    lam = 0.0
    for it in range(1, max_iter + 1):
        sv = op.symmetrized_apply_values(v)
        sv -= u * _weighted_dot(w, u, sv)
        new_lam = _weighted_dot(w, v, sv)
        norm = math.sqrt(_weighted_dot(w, sv, sv))
        if norm == 0:
            return 0.0
        v = sv / norm
        if it % 50 == 0 and abs(new_lam - lam) < tol * max(abs(new_lam), 1.0):
            return float(new_lam)
        lam = new_lam
    return float(lam)


def solve_host_spectrum(
    problem: Problem,
    k: int,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    with_second: bool = False,
) -> SpectralResult:
    """Principal (and optionally second) eigenvalue of host k's operator."""
    op = host_operator(problem, k)
    res = principal_eigenpair(op, tol=tol, max_iter=max_iter)
    res.r0_limit = problem.host(k).r0
    if with_second:
        res.lambda2 = second_eigenvalue(op, res, tol=tol, max_iter=max_iter)
        res.gap = res.lambda1 - res.lambda2
        res.degenerate = res.gap < 1e-12
    return res


def solve_combined_spectrum(
    problem: Problem,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    op = combined_operator(problem)
    res = principal_eigenpair(op, tol=tol, max_iter=max_iter)
    res.r0_limit = r0_limits(problem)[0]
    return res


# ---------------------------------------------------------------------------
# gap sweep and limits

@dataclass
class GapRow:
    eps: float
    lambda1: float
    lambda2: float
    gap: float
    residual: float
    iterations: int


@dataclass
class GapTable:
    host: int
    rows: list[GapRow] = field(default_factory=list)
    fitted_exponent: float | None = None
    degenerate: bool = False

    @property
    def gaps(self) -> np.ndarray:
        return np.array([r.gap for r in self.rows])


def spectral_gap_table(
    mp: ModelParams,
    k: int,
    eps_list: list[float],
    *,
    n: int | None = None,
    tol: float = DEFAULT_TOL,
) -> GapTable:
    """Per-epsilon (lambda1, lambda2, gap) with a fitted polynomial decay rate."""
    table = GapTable(host=k)
    for eps in eps_list:
        problem = build_problem(mp, eps, n=n)
        res = solve_host_spectrum(problem, k, tol=tol, with_second=True)
        table.rows.append(
            GapRow(eps, res.lambda1, res.lambda2, res.gap, res.residual, res.iterations)
        )
        if res.degenerate:
            table.degenerate = True
    table.fitted_exponent = gap_exponent([r.eps for r in table.rows], list(table.gaps))
    return table


def gap_exponent(eps: list[float], gaps: list[float]) -> float | None:
    """Fitted slope of log(gap) against log(eps) over the positive gaps.

    None when fewer than two gaps are positive (NaN gaps count as missing).
    """
    positive = [(e, g) for e, g in zip(eps, gaps) if g > 0]
    if len(positive) < 2:
        return None
    le, lg = np.log(positive).T
    return float(np.polyfit(le, lg, 1)[0])


def r0_limits(problem: Problem) -> tuple[float, float, float]:
    """(R0, R0_host1, R0_host2): the small-mutation limits of the spectral radii."""
    mp = problem.mp
    r0 = mp.lambda_ / mp.theta * float(problem.combined_fitness.values.max())
    return r0, problem.host(1).r0, problem.host(2).r0
