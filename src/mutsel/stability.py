"""Linearized stability of steady states.

Assembles the dense matrix of the analytic derivative of the fixed-point map
at a given density, computes its (generally nonsymmetric) spectrum, and checks
it against the closed-form description available for single-host states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .grid import Field
from .model import Problem
from .operators import host_map, host_operator, update_map
from .spectral import symmetric_spectrum
from .equilibrium import UncoupledSolution

DENSE_LIMIT = 4096
STABILITY_MARGIN = 1e-9


class StabilityError(RuntimeError):
    pass


@dataclass
class StabilityReport:
    eigenvalues: np.ndarray  # complex, sorted by descending modulus
    spectral_radius: float
    stable: bool
    fixed_point_residual: float
    is_fixed_point: bool
    uncoupled_prediction: np.ndarray | None = None


def check_dense_size(problem: Problem) -> None:
    """Raise StabilityError if the grid is too fine for the dense eigensolve."""
    if problem.grid.n > DENSE_LIMIT:
        raise StabilityError(
            f"dense stability eigensolve limited to n <= {DENSE_LIMIT}; "
            f"got n = {problem.grid.n}"
        )


def derivative_matrix(problem: Problem, a: np.ndarray) -> np.ndarray:
    """Dense matrix of the derivative of the coupled map at density a.

    The weighted kernel matrix scaled by the map's gain g(a), minus one
    rank-one correction per host from differentiating its saturation
    denominator.
    """
    return update_map(problem).dense_derivative(a)


def stability_report(problem: Problem, A: Field, *, tol: float = 1e-8) -> StabilityReport:
    """Spectrum of the linearization at A, with a fixed-point recheck.

    The density is re-run through the coupled map; a large residual flags the
    report as evaluated away from a steady state (the spectrum is still
    returned).
    """
    check_dense_size(problem)
    a = A.values
    ta = update_map(problem).apply_values(np.clip(a, 0.0, None))
    residual = float(np.sum(problem.grid.quad_weights * np.abs(ta - a)))
    # the transpose has the same spectrum and is Fortran-ordered, so LAPACK
    # overwrites it instead of working on a copy
    eig = eigvals(derivative_matrix(problem, a).T, overwrite_a=True)
    order = np.argsort(-np.abs(eig))
    eig = eig[order]
    radius = float(np.abs(eig[0]))
    return StabilityReport(
        eigenvalues=eig,
        spectral_radius=radius,
        stable=radius < 1.0 - STABILITY_MARGIN,
        fixed_point_residual=residual,
        is_fixed_point=residual < tol,
    )


def top_modulus_estimate(problem: Problem, A: Field) -> float:
    """Matrix-free spectral radius of the linearization at A.

    One implicitly restarted Arnoldi run (ARPACK, through
    ``scipy.sparse.linalg.eigs``) for the eigenvalue of largest modulus; used
    when the grid is too large for the dense eigensolve.
    """
    lin = update_map(problem).linearization(np.clip(A.values, 0.0, None))
    # seeded, because ARPACK's own start vector does not repeat within a process
    v0 = 1.0 + np.random.default_rng(0).random(problem.grid.n)
    try:
        top = eigs(lin, k=1, which="LM", v0=v0, tol=0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise StabilityError("Arnoldi iteration for the spectral radius did not converge") from exc
    return float(np.abs(top[0]))


# ---------------------------------------------------------------------------
# single-host closed form

@dataclass
class UncoupledStability:
    formula: np.ndarray       # predicted derivative spectrum, descending
    matrix: np.ndarray        # dense eigensolve of the assembled derivative
    operator_spectrum: np.ndarray
    max_mismatch: float


def uncoupled_derivative_spectrum(
    problem: Problem,
    solution: UncoupledSolution,
    *,
    count: int = 10,
) -> UncoupledStability:
    """Derivative spectrum at a single-host steady state, formula vs matrix.

    Above threshold the derivative spectrum is the operator spectrum divided by
    its top value, with the top value itself replaced by its reciprocal (and 0
    joining from the rank-one correction); below threshold the state is zero
    and the derivative is the operator itself.
    """
    k = solution.k
    op = host_operator(problem, k)
    lam_spec = symmetric_spectrum(op, count + 1)
    lam1 = lam_spec[0]
    if solution.is_trivial:
        formula = lam_spec[:count]
    else:
        vals = [1.0 / lam1] + [l / lam1 for l in lam_spec[1:]] + [0.0]
        formula = np.sort(vals)[::-1][:count]

    m = host_map(problem, k).dense_derivative(solution.a_star.values)
    eig = np.linalg.eigvals(m)
    eig = eig[np.argsort(-np.abs(eig))]
    top = np.sort(eig.real[: count])[::-1]
    mismatch = float(np.max(np.abs(top[: len(formula)] - formula)))
    return UncoupledStability(
        formula=formula,
        matrix=eig[:count],
        operator_spectrum=lam_spec,
        max_mismatch=mismatch,
    )
