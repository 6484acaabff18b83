"""O(n^2) references the tests compare the library against.

The library never forms the kernel's samples or an n x n matrix: a convolution
is a tridiagonal solve and every spectrum is taken from the tridiagonal
structure or matrix-free.  The functions here build the same quantities the
direct way, as dense arrays.  The dynamics' reference is fixed-step rk4, on
the packed state and on the model's equations on the whole grid.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from mutsel.dynamics import _System
from mutsel.equilibrium import SystemState, solve_uncoupled
from mutsel.grid import Field
from mutsel.model import MIN_NODES_PER_WIDTH, Problem
from mutsel.operators import ConvolutionEngine, Linearization, host_map, host_operator
from mutsel.spectral import SpectralError


# ---------------------------------------------------------------------------
# the kernel's samples

def raw_samples(eps, grid):
    """exp(-|z|/eps) / (2 eps) at the 2n - 1 offsets z = (j - (n-1)) h, so
    that entry (n-1) + i - j is the kernel at x_i - x_j."""
    offsets = grid.h * np.arange(-(grid.n - 1), grid.n)
    return 0.5 * np.exp(-np.abs(offsets / eps)) / eps


def trapezoid_mass(eps, grid):
    """The trapezoid mass of ``raw_samples`` on the difference grid, summed
    term by term: what ``scale_kernel``'s closed-form ``raw_mass`` sums."""
    raw = raw_samples(eps, grid)
    return grid.h * (raw.sum() - 0.5 * raw[0] - 0.5 * raw[-1])


def kernel_samples(kernel):
    """The renormalized kernel at the offsets of ``raw_samples``."""
    return raw_samples(kernel.eps, kernel.grid) / kernel.raw_mass


def resolution_error(eps, grid):
    """The message of the under-resolution check made by counting every one of
    the 2n - 1 offsets within eps, or None where it passes."""
    offsets = grid.h * np.arange(-(grid.n - 1), grid.n)
    within = np.count_nonzero(np.abs(offsets) <= eps + 1e-15)
    if within >= MIN_NODES_PER_WIDTH:
        return None
    return (f"grid under-resolves kernel: {within} nodes within |x| <= eps={eps} "
            f"(h={grid.h:.3g}); need {MIN_NODES_PER_WIDTH}")


# ---------------------------------------------------------------------------
# dense operators

def kernel_matrix(engine: ConvolutionEngine) -> np.ndarray:
    """K[i, j] = m_eps(x_i - x_j) = exp(-h |i - j| / eps) / (2 eps raw_mass) on
    the engine's nodes."""
    kernel = engine.kernel
    idx = engine.nodes
    distance = engine.grid.h * np.abs(idx[:, None] - idx[None, :])
    return np.exp(-distance / kernel.eps) / (2.0 * kernel.eps * kernel.raw_mass)


def dense_matrix(engine: ConvolutionEngine, weight: np.ndarray) -> np.ndarray:
    """Matrix of f -> convolve_values(weight * f): K[i, j] w_j weight_j."""
    return kernel_matrix(engine) * (engine.weights * weight)[None, :]


def dense_derivative(lin: Linearization) -> np.ndarray:
    """The derivative's n x n matrix: K diag(w g(a)) minus, per host, the
    rank-one K (w row_k) (w beta_k / theta)^T."""
    w = lin.engine.weights
    k = kernel_matrix(lin.engine)
    return k * (w * lin.gain)[None, :] - (k @ (w * lin.rows).T) @ lin.beta_rows


def symmetric_spectrum(op: Linearization, count: int) -> np.ndarray:
    """Top ``count`` eigenvalues (descending) via a dense symmetric eigensolve.

    The operator's matrix K w diag(gain) is similar, by diag(s) with
    s = sqrt(w gain), to the symmetric s K s.
    """
    n = op.engine.grid.n
    if count > n:
        raise SpectralError(f"requested {count} eigenvalues from an {n}-point grid")
    s = np.sqrt(op.engine.grid.quad_weights * op.gain)
    b = s[:, None] * kernel_matrix(op.engine)
    b *= s[None, :]
    vals = eigh(b, eigvals_only=True, subset_by_index=(n - count, n - 1))
    return vals[::-1]


# ---------------------------------------------------------------------------
# closed forms

@dataclass
class UncoupledStability:
    formula: np.ndarray       # predicted derivative spectrum, descending
    matrix: np.ndarray        # dense eigensolve of the assembled derivative
    operator_spectrum: np.ndarray
    max_mismatch: float


def uncoupled_derivative_spectrum(
    problem: Problem,
    k: int,
    *,
    count: int = 10,
) -> UncoupledStability:
    """Derivative spectrum at host k's single-host steady state, formula vs matrix.

    Above threshold the derivative spectrum is the operator spectrum divided by
    its top value, with the top value itself replaced by its reciprocal (and 0
    joining from the rank-one correction); below threshold the state is zero
    and the derivative is the operator itself.
    """
    a = solve_uncoupled(problem, k)
    op = host_operator(problem, k)
    lam_spec = symmetric_spectrum(op, count + 1)
    lam1 = lam_spec[0]
    if not a.values.any():
        formula = lam_spec[:count]
    else:
        vals = [1.0 / lam1] + [l / lam1 for l in lam_spec[1:]] + [0.0]
        formula = np.sort(vals)[::-1][:count]

    m = dense_derivative(host_map(problem, k).linearization(a.values))
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


# ---------------------------------------------------------------------------
# the dynamics

@dataclass
class Rk4Run:
    terminal: SystemState
    steps: int
    rhs_evals: int
    negative_entries: int  # summed over the states after each step


def rk4(problem: Problem, init: SystemState, t_end: float, dt: float) -> Rk4Run:
    """Classical Runge-Kutta 4 from ``init`` in round(t_end/dt) steps of dt, on
    the packed right-hand side of ``dynamics.integrate``; negative entries are
    counted, not clipped."""
    system = _System(problem, init)
    y = system.pack(init)
    steps = round(t_end / dt)
    negative = 0
    for _ in range(steps):
        y = _rk4_step(system.rhs, y, dt)
        negative += int(np.count_nonzero(y < 0))
    return Rk4Run(system.unpack(y, steps * dt), steps, system.evals, negative)


def _rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def full_grid_derivative(problem: Problem, state: SystemState) -> tuple:
    """The model's equations on the whole grid, as ((dS1, dS2), dI1, dI2, dA):
    dS_k = xi_k Lambda - theta S_k - S_k int beta_k A, dI_k = beta_k S_k A - (theta + d_k) I_k
    and dA = -delta A + m_eps * (r_1 I_1 + r_2 I_2)."""
    mp, w, a = problem.mp, problem.grid.quad_weights, state.A.values
    ds, di = [], []
    production = np.zeros(problem.grid.n)
    for host, hd, s, i in zip(mp.hosts, problem.derived, state.S,
                              (i.values for i in state.I)):
        ds.append(host.xi * mp.lambda_ - mp.theta * s - s * np.sum(w * hd.beta.values * a))
        di.append(hd.beta.values * s * a - (mp.theta + hd.d.values) * i)
        production += hd.r.values * i
    da = -mp.delta * a + ConvolutionEngine(problem.kernel).convolve_values(production)
    return np.array(ds), *di, da


def full_grid_rk4(problem: Problem, init: SystemState, t_end: float, dt: float) -> SystemState:
    """Classical Runge-Kutta 4 from ``init`` in round(t_end/dt) steps of dt, on
    ``full_grid_derivative``: every field on every node, nothing packed."""
    g, n = problem.grid, problem.grid.n

    def state(y):
        return SystemState(y[:2], (Field(g, y[2 : 2 + n]), Field(g, y[2 + n : 2 + 2 * n])),
                           Field(g, y[2 + 2 * n :]))

    def f(y):
        return np.concatenate(full_grid_derivative(problem, state(y)))

    y = np.concatenate((init.S, *(i.values for i in init.I), init.A.values))
    for _ in range(round(t_end / dt)):
        y = _rk4_step(f, y, dt)
    return state(y)
