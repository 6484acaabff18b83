"""Linearized stability of steady states.

The spectrum of the analytic derivative of the fixed-point map at a given
density comes from one matrix-free Arnoldi run (ARPACK) for the
``EIGENVALUE_COUNT`` eigenvalues of largest modulus, at any grid size.  The
tests check it against a dense eigensolve of the assembled derivative, and at
single-host states against the spectrum's closed form (``tests/oracles.py``).

The map T(a) = m_eps * (g(a) a) reads a only on its read nodes R, where a
fitness row (through g and a) or a beta row (through the denominators) is
nonzero.  With P the restriction to R its derivative satisfies T' = T'P.  The
nonzero eigenvalues of the product T'P are those of PT' (AB and BA share
them), and PT' = PT'P, the derivative of the map restricted to R, the
restriction the coupled solve runs on: the Arnoldi run takes the spectrum
there, each application one convolution on R's nodes (an O(|R|) tridiagonal
solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field
from .model import Problem
from .operators import update_map

EIGENVALUE_COUNT = 20
STABILITY_MARGIN = 1e-9


class StabilityError(RuntimeError):
    pass


@dataclass
class StabilityReport:
    eigenvalues: np.ndarray  # complex, the largest by modulus, descending
    spectral_radius: float
    stable: bool
    fixed_point_residual: float
    is_fixed_point: bool
    error_bound: float | None  # residual / (1 - radius); None unless radius < 1


def stability_report(problem: Problem, A: Field, *, tol: float = 1e-8) -> StabilityReport:
    """Largest-modulus spectrum of the linearization at A, with a fixed-point recheck.

    The density is re-run through the coupled map; a large residual flags the
    report as evaluated away from a steady state (the spectrum is still
    returned).  Where the radius q is below 1, iteration near A contracts
    asymptotically at rate q, so ``error_bound`` = residual / (1 - q) bounds
    A's L1 distance to the fixed point to first order (q is a spectral radius,
    not a norm).  ARPACK needs k < n - 1, so a grid of n nodes yields at most
    n - 2 eigenvalues, and the read nodes the run takes place on are padded
    with the first nodes off them to at least k + 2 nodes (the padding adds
    only zero eigenvalues: the derivative's columns there are zero).
    """
    # scipy.sparse.linalg is imported where it runs: it is most of the import
    # time and peak memory the CLI would otherwise spend before any command
    from scipy.sparse.linalg import ArpackNoConvergence, eigs

    a = A.values
    tmap = update_map(problem)
    ta = tmap.apply_values(np.clip(a, 0.0, None))
    residual = float(np.sum(problem.grid.quad_weights * np.abs(ta - a)))
    n = problem.grid.n
    k = min(EIGENVALUE_COUNT, n - 2)
    read = tmap.read_nodes
    pad = np.setdiff1d(np.arange(n), read)[: max(0, k + 2 - read.size)]
    nodes = np.union1d(read, pad)
    # seeded, because ARPACK's own start vector does not repeat within a process
    v0 = 1.0 + np.random.default_rng(0).random(n)
    try:
        eig = eigs(
            tmap.restricted(nodes).linearization(a[nodes]), k=k, which="LM",
            v0=v0[nodes], tol=0, return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise StabilityError("Arnoldi iteration for the stability spectrum did not converge") from exc
    eig = eig[np.argsort(-np.abs(eig))]
    radius = float(np.abs(eig[0]))
    return StabilityReport(
        eigenvalues=eig,
        spectral_radius=radius,
        stable=radius < 1.0 - STABILITY_MARGIN,
        fixed_point_residual=residual,
        is_fixed_point=residual < tol,
        error_bound=residual / (1.0 - radius) if radius < 1.0 else None,
    )
