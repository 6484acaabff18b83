"""Linearized stability of steady states.

The spectrum of the analytic derivative T' of the fixed-point map at a given
density is taken for its ``EIGENVALUE_COUNT`` eigenvalues of largest modulus
by one matrix-free Arnoldi run (``arnoldi``) in shift-invert mode, and the
answer is checked by counting the eigenvalues outside a circle.

The map T(a) = m_eps * (g(a) a) reads a only on its read nodes R, where a
fitness row (through g and a) or a beta row (through the denominators) is
nonzero.  With P the restriction to R its derivative satisfies T' = T'P.  The
nonzero eigenvalues of the product T'P are those of PT' (AB and BA share
them), and PT' = PT'P, the derivative of the map restricted to R, the
restriction the coupled solve runs on.  Everything below runs there.

Arnoldi.  ``arnoldi`` builds an orthonormal Krylov basis by classical
Gram-Schmidt run twice and takes the Ritz pairs (theta, y) of the projected
matrix H from ``numpy.linalg.eig`` once the basis holds ``BASIS_CAP``
vectors.  It stops when the residual estimate |h_{m+1,m} y_m| of every
wanted Ritz value is within machine precision of its modulus (ARPACK's test
at ``tol=0``).  Otherwise it restarts from the wanted Ritz vectors and
``RESTART_EXTRA`` more, orthonormalized (Morgan, Math. Comp. 65, 1996): their
span is invariant under H, so the restarted basis keeps the Arnoldi relation
without a Schur form, which numpy does not compute.  The leading Ritz vectors
that have converged are locked, their coupling to the rest set to zero, so
that their estimates stay at zero instead of wandering at rounding level.

Shift-invert.  T' = K (D - U V^T), with K^-1 tridiagonal, D = diag(w g(a)) and
a rank-2 U V^T, all taken from one ``operators.Linearization``, which the
shifted solve and the count below both read.  (sigma I - T')^-1 costs one
product with K^-1, one tridiagonal solve against a factor computed once and a
small Woodbury correction (``operators.ShiftedSolve``).  Arnoldi on it with
sigma = ``SHIFT``, just above 1, finds the eigenvalues nearest sigma.
Regular-mode Arnoldi on T' itself needs ever more applications as the top
eigenvalues cluster below 1 at small eps (fig1: 135, 210 and 720 at eps =
2.5e-3, 1e-3 and 1e-4, the last on 30,001 nodes); shift-invert separates
them (73, 87 and 87).

Certificate.  The eigenvalues nearest sigma need not be those of largest
modulus.  By the matrix determinant lemma det(lambda I - T') is det(K) times
det(lambda K^-1 - D) times f(lambda) = det(I + V^T (lambda K^-1 - D)^-1 U), a
2 x 2 determinant, so by the argument principle the number of eigenvalues of
T' outside |lambda| = r is the number of eigenvalues of the symmetric-definite
pencil (D, K^-1) above r (the positive eigenvalues of the tridiagonal
D - r K^-1, Sylvester's inertia, counted exactly by
``operators.sturm_count``) minus the winding number of f on the circle.  The
pencil count is exact; the winding number is read from samples of f.
f(conj z) = conj f(z), so only the upper half-circle is sampled.  Each
sample factors the complex tridiagonal lambda K^-1 - D
(``operators.TridiagonalLU``) and solves it with
the columns of U and V as right-hand sides, which gives f and the rate at
which its argument turns.  Gaps between samples are halved until f's argument
moves by at most ``MAX_ARGUMENT_STEP`` across each, and by that step to within
``RATE_TOLERANCE`` of the trapezoid rule on the rates at its ends: a turn of
2 pi between two samples would pass the first test alone.  A value of
f that is 0 or not finite, or ``MAX_SAMPLES`` samples, leaves the count
undecided.

The circle is put midway between the k-th modulus found and the next, so a
count equal to k says that exactly the reported eigenvalues lie outside it:
the radius is the largest of them and ``stable`` is decided by it.  A count
that disagrees, or cannot be decided, or a shift-invert run that does not
converge within ``MAX_APPLICATIONS``, falls back to regular-mode Arnoldi for
the k eigenvalues of largest modulus, which is not counted; the report says
which ran and why, and keeps the count that failed.

The count is a check, not a proof: ``certified`` means that it agreed under
the sampling test above.  What the sampling can miss is two zeros of f next
to each other and to the circle between two samples: inside it they make the
count too large, so regular mode runs; outside it they would have to be two
eigenvalues the Arnoldi run missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .grid import Field
from .model import Problem
from .operators import Linearization, ShiftedSolve, TridiagonalLU, sturm_count, update_map

EIGENVALUE_COUNT = 20
STABILITY_MARGIN = 1e-9
# Arnoldi's shift: just above the radius 1 that stability is about
SHIFT = 1.001
# relative gap below the k-th modulus under which the circle of the count is
# not put between the k-th and the next modulus found
RADIUS_GAP = 1e-6
# the contour's first samples on the upper half-circle; the largest change in
# f's argument accepted between neighbours, and the largest gap between that
# change and the one predicted from f's rates at both; the sampling's budget
INITIAL_SAMPLES = 5
MAX_ARGUMENT_STEP = np.pi / 2
RATE_TOLERANCE = np.pi / 8
MAX_SAMPLES = 400
# the Arnoldi basis's largest size, the Ritz vectors a restart keeps beyond
# the wanted ones, and the operator applications a run may spend
BASIS_CAP = 45
RESTART_EXTRA = 10
MAX_APPLICATIONS = 5000
# machine precision, and the floor ARPACK puts under a Ritz value's modulus
# in its convergence test
EPS = np.finfo(float).eps
EPS23 = EPS ** (2 / 3)


class StabilityError(RuntimeError):
    pass


@dataclass
class EigenvalueCount:
    """The number of eigenvalues of T' outside the circle |lambda| = ``radius``:
    ``pencil_count - winding``, or None where the sampling of f could not
    decide its winding number or LAPACK's pencil count failed (``pencil_count``
    None)."""

    radius: float
    pencil_count: int | None
    winding: int | None
    samples: int

    @property
    def count(self) -> int | None:
        return None if self.winding is None else self.pencil_count - self.winding


@dataclass
class StabilityReport:
    eigenvalues: np.ndarray  # complex, the largest by modulus, descending
    spectral_radius: float
    stable: bool
    fixed_point_residual: float
    is_fixed_point: bool
    error_bound: float | None  # residual / (1 - radius); None unless radius < 1
    mode: str  # the Arnoldi run the eigenvalues come from: "shift-invert" or "regular"
    fallback: str | None  # why regular mode ran; None if it did not
    operator_applications: int  # shifted solves and derivative applications, all runs
    # the count on the shift-invert run's circle; None if that run failed or
    # did not run
    certificate: EigenvalueCount | None
    certified: bool  # shift-invert's count equals the eigenvalues it found outside the circle


def eigenvalue_count(lin: Linearization, radius: float) -> EigenvalueCount:
    """The number of eigenvalues of the derivative ``lin`` outside |lambda| = radius,
    as the pencil count minus the winding number of f (module docstring)."""
    # the positive eigenvalues of D - r K^-1
    try:
        pencil = sturm_count(*(-t for t in lin.shifted(radius)), 0.0, np.inf)
    except LinAlgError:
        pencil = None
    # the columns of U, then of V
    rhs = np.vstack((lin.u, lin.beta_rows)).T

    def f(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f at r e^(i theta), and the rate d(arg f)/d(theta) = Re(lambda f'/f).

        With R = (lambda K^-1 - D)^-1, symmetric, X = R U, Y = R V and
        S = I + V^T X: f = det S, f'/f = -tr(S^-1 Y^T K^-1 X) as R' = -R K^-1 R,
        and lambda K^-1 X = U + D X as (lambda K^-1 - D) R = I.
        """
        values, rates = np.empty(theta.size, complex), np.empty(theta.size)
        for i, lam in enumerate(radius * np.exp(1j * theta)):
            x, y = np.hsplit(TridiagonalLU(*lin.shifted(lam)).solve(rhs), 2)
            s = np.eye(len(lin.u)) + lin.beta_rows @ x
            values[i] = np.linalg.det(s)
            rates[i] = -np.trace(np.linalg.solve(s, y.T @ (lin.u.T + lin.d[:, None] * x))).real
        return values, rates

    theta = np.linspace(0.0, np.pi, INITIAL_SAMPLES)
    try:
        values, rates = f(theta)
    except LinAlgError:
        values = np.zeros(1)
    # a failed pencil count, a singular solve, or f 0 or not finite on the
    # circle leaves the count undecided
    while pencil is not None and np.all(np.isfinite(values) & (values != 0)):
        steps = np.angle(values[1:] / values[:-1])
        # a turn hidden between two samples shows as a step 2 pi away from
        # the one the trapezoid rule predicts from the rates at its ends
        predicted = 0.5 * np.diff(theta) * (rates[1:] + rates[:-1])
        wide = ((np.abs(steps) > MAX_ARGUMENT_STEP)
                | (np.abs(steps - predicted) > RATE_TOLERANCE))
        if not wide.any():
            # f is real at -r and r, so the change over the half-circle is a
            # multiple of pi, and over the whole circle twice it
            turns = steps.sum() / np.pi
            winding = round(turns)
            return EigenvalueCount(radius, pencil, winding if abs(turns - winding) < 0.25
                                   else None, theta.size)
        if theta.size + wide.sum() > MAX_SAMPLES:
            break
        mid = 0.5 * (theta[:-1] + theta[1:])[wide]
        try:
            new, new_rates = f(mid)
        except LinAlgError:
            break
        order = np.argsort(np.concatenate((theta, mid)), kind="stable")
        theta = np.concatenate((theta, mid))[order]
        values = np.concatenate((values, new))[order]
        rates = np.concatenate((rates, new_rates))[order]
    return EigenvalueCount(radius, pencil, None, theta.size)


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w minus its projection on the orthonormal rows of ``basis``, by
    classical Gram-Schmidt run twice, and the projection's coefficients."""
    coeffs = basis @ w
    w = w - coeffs @ basis
    again = basis @ w
    w -= again @ basis
    return coeffs + again, w


def arnoldi(apply, v0: np.ndarray, want: int) -> tuple[np.ndarray | None, int]:
    """The ``want`` eigenvalues of largest modulus of the linear map ``apply``
    on vectors of v0's length, by descending modulus (a conjugate pair may be
    split at the last), and the applications spent; None in place of the
    eigenvalues where ``MAX_APPLICATIONS`` did not converge them (module
    docstring).  ``want`` must leave the basis room for a restart:
    want + RESTART_EXTRA + 1 < BASIS_CAP.

    A breakdown, h_{j+1,j} = 0 up to rounding, means the basis spans an
    invariant subspace: the Ritz values there are exact, and the basis goes on
    from a random vector orthogonal to it while the space has room."""
    n = v0.size
    cap = min(BASIS_CAP, n)
    basis = np.empty((cap + 1, n))
    h = np.zeros((cap + 1, cap))
    basis[0] = v0 / np.linalg.norm(v0)
    rng = np.random.default_rng(0)
    j = applications = 0
    while applications < MAX_APPLICATIONS:
        coeffs, w = _orthogonalize(basis[: j + 1], apply(basis[j]))
        applications += 1
        h[: j + 1, j] = coeffs
        beta = math.sqrt(w @ w)
        j += 1
        # once the basis spans the whole space, h[j, j - 1] stays 0
        if j < n and beta > EPS * math.sqrt(coeffs @ coeffs):
            h[j, j - 1] = beta
            basis[j] = w / beta
        elif j < n:
            w = _orthogonalize(basis[:j], rng.standard_normal(n))[1]
            basis[j] = w / np.linalg.norm(w)
        if j < cap:
            continue
        values, vectors = np.linalg.eig(h[:j, :j])
        order = np.argsort(-np.abs(values), kind="stable")
        values, vectors = values[order], vectors[:, order]
        converged = h[j, j - 1] * np.abs(vectors[-1]) <= EPS * np.maximum(EPS23, np.abs(values))
        if converged[:want].all():
            return values[:want], applications
        # restart from the wanted Ritz vectors and a few more, a conjugate
        # pair whole; its real and imaginary parts span the pair's subspace
        kept = want + RESTART_EXTRA
        kept += values[kept - 1].imag > 0
        q = np.linalg.qr(np.where(values[:kept].imag < 0, vectors[:, :kept].imag,
                                  vectors[:, :kept].real))[0]
        t = q.T @ h[:j, :j] @ q
        b = h[j, j - 1] * q[-1]
        # lock the converged leading Ritz vectors (a conjugate pair's
        # estimates are equal, so a pair is locked whole)
        locked = kept if converged[:kept].all() else int(np.argmin(converged[:kept]))
        t[locked:, :locked] = 0.0
        b[:locked] = 0.0
        basis[:kept] = q.T @ basis[:j]
        basis[kept] = basis[j]
        h[:] = 0.0
        h[:kept, :kept] = t
        h[kept, :kept] = b
        j = kept
    return None, applications


def _by_modulus(eig: np.ndarray) -> np.ndarray:
    """Eigenvalues by descending modulus, a conjugate pair's positive imaginary
    part first."""
    return eig[np.lexsort((-eig.imag, -np.abs(eig)))]


def _circle(moduli: np.ndarray, k: int) -> tuple[float, int]:
    """The radius of the counting circle for the descending ``moduli`` found, and
    the count that certifies them: between the k-th and the next one where they
    are apart, else just below the last one."""
    if moduli.size > k and moduli[k] < (1.0 - RADIUS_GAP) * moduli[k - 1]:
        return 0.5 * (moduli[k - 1] + moduli[k]), k
    return (1.0 - RADIUS_GAP) * moduli[-1], moduli.size


def stability_report(problem: Problem, A: Field, *, tol: float = 1e-8) -> StabilityReport:
    """Largest-modulus spectrum of the linearization at A, with a fixed-point recheck.

    The density is re-run through the coupled map; a large residual flags the
    report as evaluated away from a steady state (the spectrum is still
    returned).  Where the radius q is below 1, iteration near A contracts
    asymptotically at rate q, so ``error_bound`` = residual / (1 - q) bounds
    A's L1 distance to the fixed point to first order (q is a spectral radius,
    not a norm).  A grid of n nodes yields at most n - 2 eigenvalues (the
    bound ARPACK, the earlier eigensolver, set, kept so that artifacts keep
    their shape), and read nodes fewer than k + 2 are padded with the first
    nodes off them (the padding adds only zero eigenvalues: the derivative's
    columns there are zero).  Shift-invert asks for one eigenvalue more than
    it reports, to place the counting circle in the gap below the k-th, and
    so runs on k + 3 nodes or more; on fewer the regular run is the only one.
    """
    a = A.values
    tmap = update_map(problem)
    ta = tmap.apply_values(np.clip(a, 0.0, None))
    residual = float(np.sum(problem.grid.quad_weights * np.abs(ta - a)))
    n = problem.grid.n
    k = min(EIGENVALUE_COUNT, n - 2)
    kept = np.zeros(n, bool)
    kept[tmap.read_nodes] = True
    kept[np.flatnonzero(~kept)[: max(k + 2 - tmap.read_nodes.size, 0)]] = True
    nodes = np.flatnonzero(kept)
    lin = tmap.restricted(nodes).linearization(a[nodes])
    # seeded, so that repeated reports repeat their Arnoldi runs
    v0 = (1.0 + np.random.default_rng(0).random(n))[nodes]

    fallback, count, applications = None, None, 0
    if nodes.size < k + 3:
        fallback = f"{nodes.size} nodes, fewer than the {k + 3} shift-invert runs on"
    else:
        try:
            # the eigenvalues mu = 1 / (sigma - lambda) of (sigma I - T')^-1
            mu, applications = arnoldi(ShiftedSolve(lin, SHIFT).solve, v0, k + 1)
        except LinAlgError as exc:
            fallback = f"the shifted solve failed: {exc}"
        else:
            if mu is None:
                fallback = "shift-invert Arnoldi did not converge"
            else:
                eig = _by_modulus(SHIFT - 1.0 / mu)
                radius, expected = _circle(np.abs(eig), k)
                count = eigenvalue_count(lin, radius)
                if count.count is None:
                    fallback = "the count is undecided"
                elif count.count != expected:
                    fallback = (f"the count outside r = {count.radius:.9g} is {count.count}, "
                                f"not {expected}")
    if fallback is not None:
        eig, used = arnoldi(lin.matvec, v0, k)
        applications += used
        if eig is None:
            raise StabilityError("Arnoldi iteration for the stability spectrum did not converge")
        eig = _by_modulus(eig)
    eig = eig[:k]
    radius = float(np.abs(eig[0]))
    return StabilityReport(
        eigenvalues=eig,
        spectral_radius=radius,
        stable=radius < 1.0 - STABILITY_MARGIN,
        fixed_point_residual=residual,
        is_fixed_point=residual < tol,
        error_bound=residual / (1.0 - radius) if radius < 1.0 else None,
        mode="shift-invert" if fallback is None else "regular",
        fallback=fallback,
        operator_applications=applications,
        certificate=count,
        certified=fallback is None,
    )
