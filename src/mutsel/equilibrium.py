"""Steady-state solvers and their diagnostics.

Solves the single-host fixed-point problems in closed form from the principal
eigenpair, solves the coupled problem by pseudo-transient continuation from
their superposition, rebuilds the full equilibrium (healthy tissue, infected
densities) from the spore density, and evaluates the superposition,
concentration, pinning and lower-bound diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .grid import Field, RunFailure, UsageError, inner, integrate, l1_norm
from .model import Problem, support_distance
from .operators import ShiftedSolve, update_map

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# slack of the paper's inequalities mu_k/theta >= lambda1^k and
# int(beta_k A) >= (theta/2)(lambda1^k - 1); mu_k/theta is pinned to lambda1^k
# when the two agree to PIN_TOL
INEQUALITY_TOL = 1e-9
PIN_TOL = 1e-4


# ---------------------------------------------------------------------------
# single-host problem

def solve_uncoupled(problem: Problem, k: int) -> Field:
    """Single-host steady state a_k*, a multiple of the cached eigenfunction.

    If the spectral radius exceeds 1 the unique positive fixed point is
    nu * phi1 with nu = theta (lambda1 - 1) / int(beta_k phi1); otherwise only
    the zero state exists.  The eigenpair is ``problem.host_spectra[k - 1]``.
    """
    spectral = problem.host_spectra[k - 1]
    lam = spectral.lambda1
    grid = problem.grid
    if lam <= 1.0:
        return Field(grid, np.zeros(grid.n), is_density=True)
    beta_phi = inner(problem.host(k).beta, spectral.phi1)
    if beta_phi <= 0:
        raise RunFailure(f"principal eigenfunction carries no beta_{k} mass")
    nu = problem.mp.theta * (lam - 1.0) / beta_phi
    return Field(grid, nu * spectral.phi1.values, is_density=True)


# ---------------------------------------------------------------------------
# coupled problem

@dataclass
class SystemState:
    """A state of the model: healthy tissue S, an array indexed by host k - 1,
    the infected densities I, one ``Field`` per host, and the spore density A."""

    S: np.ndarray
    I: tuple[Field, Field]
    A: Field


@dataclass
class EquilibriumState(SystemState):
    """A steady state, with mu_k = theta + int(beta_k A) indexed as S is, and the
    balance residual, class and counters of the solve that found it."""

    mu: np.ndarray
    residual: float
    classification: str  # "disease_free" | "endemic" | "non_converged"
    iterations: int = 0
    restarts: int = 0
    residual_history: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.classification != "non_converged"


def default_start(problem: Problem) -> Field:
    """Unit-mass positive start supported on both fitness supports."""
    vals = problem.host(1).psi.values + problem.host(2).psi.values
    mass = float(np.sum(problem.grid.quad_weights * vals))
    return Field(problem.grid, vals / mass, is_density=True)


def solve_coupled(
    problem: Problem,
    *,
    start: Field | None = None,
    tol: float = DEFAULT_TOL,
) -> EquilibriumState:
    """Pseudo-transient continuation for the coupled spore-density equation a = T(a).

    Each iteration maps the iterate once, g = T(a), with the plain-map residual
    f = g - a, and takes the linearly implicit Euler step a + delta of
    da/dt = T(a) - a, (sigma I - T'(a)) delta = f with sigma = 1 + 1/dt
    (``operators.ShiftedSolve``, O(n)), clipped at 0.  The step starts at
    sigma = 2 (dt = 1) and is lengthened by switched evolution relaxation,
    sigma <- 1 + (sigma - 1) res/res_prev (dt <- dt res_prev/res), so it
    becomes Newton's step, sigma = 1, as the residual falls (Mulder & Van Leer,
    J. Comput. Phys. 59, 1985; Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998).

    Every positive fixed point keeps den_k - 1 = theta^-1 int beta_k a above the
    paper's lower bound (lambda1^k - 1)/2, and max_k den_k - 1 above
    (rho - 1)/2, with rho the combined radius.  den - 1 is linear in a, so a
    start below the second bound is first scaled up along itself to meet it.
    The plain step T(a), clipped, is taken instead of the shifted one in two
    cases, and sigma is reset to 2 after the first:

    - the iterate breaks a bound: shifted steps would head for the zero state,
      a root of a - T(a) too, or keep it at a saddle without one host's mode,
      such as a single host's steady state, which the other host's mode grows
      away from;
    - the shifted solve is singular, or its step is not finite.

    The default start is the superposition a1* + a2* of the single-host states
    (``Problem.host_spectra``), or ``default_start`` when the beta supports
    overlap (``support_distance`` is 0) or both hosts are below threshold.

    T(a) reads a only on the map's read nodes R, where a fitness or beta row is
    nonzero (``UpdateMap.read_nodes``), so the iteration runs on R alone: its
    map applications, residuals, bounds and steps are those of the whole
    grid's iteration read on R.  The returned density T(a) is extended to the
    whole grid by one full-grid map application, and ``reconstruct`` certifies
    it there.

    Converged only when the quadrature-L1 residual of the plain map on R is
    below ``tol`` and, for an endemic state, the paper's necessary conditions
    hold (``necessary_conditions_hold``).  ``iterations`` counts map
    applications, ``restarts`` plain steps, and ``residual_history`` holds the
    last residuals on R.
    """
    whole = update_map(problem)
    read = whole.read_nodes
    tmap = whole.restricted(read)
    w = tmap.engine.weights

    def steady_state(x: np.ndarray) -> EquilibriumState:
        # T(x) on the whole grid, from x on R
        full = np.zeros(problem.grid.n)
        full[read] = x
        A = np.clip(whole.apply_values(full), 0.0, None)
        return reconstruct(problem, Field(problem.grid, A, is_density=True))

    excess_floor = 0.5 * (problem.combined_radius - 1.0)
    floors = 0.5 * (np.array([s.lambda1 for s in problem.host_spectra]) - 1.0)

    if start is None:
        start = default_start(problem)
        if support_distance(problem.mp) > 0:
            superposed = solve_uncoupled(problem, 1) + solve_uncoupled(problem, 2)
            start = superposed if np.any(superposed.values) else start
    if np.any(start.values < 0):
        raise UsageError("start density must be nonnegative")
    a = start.values[read]
    top = (tmap.denominators(a) - 1.0).max()
    if 0.0 < top < excess_floor:
        a = a * (excess_floor / top)
    sigma, restarts = 2.0, 0
    history: list[float] = []
    converged = False
    for it in range(1, DEFAULT_MAX_ITER + 1):
        mapped = a  # the iterate g is the image of
        g = tmap.apply_values(a)
        f = g - a
        res = float(np.sum(w * np.abs(f)))
        history.append(res)
        if res < tol:
            state = steady_state(mapped)
            converged = necessary_conditions_hold(problem, state)
            if converged:
                break
        if it > 1:
            sigma = 1.0 + (sigma - 1.0) * res / history[-2]
        excess = tmap.denominators(a) - 1.0
        if excess.max() < excess_floor or np.any(excess < floors):
            sigma = 2.0
        else:
            try:
                delta = ShiftedSolve(tmap.linearization(a), sigma).solve(f)
                if np.all(np.isfinite(delta)):
                    a = np.clip(a + delta, 0.0, None)
                    continue
            except LinAlgError:
                pass
        restarts += 1
        a = np.clip(g, 0.0, None)
    if not converged:
        state = steady_state(mapped)
        state.classification = "non_converged"
    state.iterations = it
    state.restarts = restarts
    state.residual_history = history[-50:]
    return state


def classify(problem: Problem, A: Field) -> str:
    """Endemic for a nonzero density when the combined operator (the map's
    linearization at zero) has spectral radius above 1, else disease-free."""
    if not np.any(A.values) or problem.combined_radius <= 1.0:
        return "disease_free"
    return "endemic"


def reconstruct(problem: Problem, A: Field) -> EquilibriumState:
    """Rebuild the full steady state from a spore density.

    Healthy tissue S_k = xi_k Lambda / mu_k with mu_k = theta + int(beta_k A);
    infected density I_k = beta_k S_k A / (theta + d_k).  The residual
    ||delta A - m_eps * (sum_k r_k I_k)||_1 measures how well the spore
    production balances decay; since sum_k r_k I_k = delta g(A) A, it equals
    delta ||A - T(A)||_1.  The class is ``classify``'s.
    """
    mp = problem.mp
    tmap = update_map(problem)
    mu = mp.theta * tmap.denominators(A.values)
    S = np.array([host.xi for host in mp.hosts]) * mp.lambda_ / mu
    I = tuple(Field(problem.grid, hd.beta.values * s * A.values / (mp.theta + hd.d.values),
                    is_density=True) for hd, s in zip(problem.derived, S))
    residual = mp.delta * l1_norm(A - Field(problem.grid, tmap.apply_values(A.values)))
    return EquilibriumState(S, I, A, mu, residual, classify(problem, A))


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class SuperpositionError:
    e_total: float
    e_sigma1: float
    e_sigma2: float
    e_complement: float


def superposition_error(problem: Problem, A: Field) -> SuperpositionError:
    """L1 distances between A and the sum a1* + a2* of the single-host states.

    Over the window, over each beta support and over the rest; nodes where the
    supports overlap count in both support sums.  Each sum runs over the whole
    window with the nodes outside its set zeroed, so all four add in one order.
    """
    diff = A.values - solve_uncoupled(problem, 1).values - solve_uncoupled(problem, 2).values
    err = problem.grid.quad_weights * np.abs(diff)
    nodes = np.arange(problem.grid.n)
    on1, on2 = (
        (lo <= nodes) & (nodes <= hi)
        for lo, hi in (problem.host(k).sigma_support for k in (1, 2))
    )
    return SuperpositionError(
        e_total=float(np.sum(err)),
        e_sigma1=float(np.sum(err * on1)),
        e_sigma2=float(np.sum(err * on2)),
        e_complement=float(np.sum(err * ~(on1 | on2))),
    )


@dataclass
class ConcentrationTargets:
    s: tuple[float, float]
    infected_mass: tuple[float, float]
    a_mass: float
    a_first_moment: float


def concentration_targets(problem: Problem) -> ConcentrationTargets:
    """Closed-form small-mutation limits of the equilibrium scalars.

    Per host with threshold above 1: healthy tissue tends to the reciprocal
    fitness maximum, the infected mass and the host's spore-mass contribution
    follow from the threshold excess; below-threshold hosts keep the
    disease-free tissue level and contribute nothing.
    """
    mp = problem.mp
    s_t = []
    i_t = []
    a_mass = 0.0
    a_moment = 0.0
    for k in (1, 2):
        hd = problem.host(k)
        host = mp.hosts[k - 1]
        if hd.r0 > 1.0:
            idx = int(np.argmin(np.abs(problem.grid.nodes - hd.x_star)))
            beta_peak = hd.beta.values[idx]
            d_peak = hd.d.values[idx]
            s_t.append(1.0 / hd.psi_max)
            i_mass = (hd.r0 - 1.0) / (hd.psi_max * (1.0 + d_peak / mp.theta))
            i_t.append(i_mass)
            contrib = mp.theta / beta_peak * (hd.r0 - 1.0)
            a_mass += contrib
            a_moment += hd.x_star * contrib
        else:
            s_t.append(host.xi * mp.lambda_ / mp.theta)
            i_t.append(0.0)
    return ConcentrationTargets(
        s=(s_t[0], s_t[1]),
        infected_mass=(i_t[0], i_t[1]),
        a_mass=a_mass,
        a_first_moment=a_moment,
    )


@dataclass
class Summary:
    """The scalars of a state: S_k and the infected mass int I_k per host, and
    the mass, first moment and argmax of A, all Python floats."""

    S: tuple[float, float]
    infected_mass: tuple[float, float]
    a_mass: float
    a_first_moment: float
    a_argmax: float


def summarize(state: SystemState) -> Summary:
    grid = state.A.grid
    return Summary(
        S=tuple(state.S.tolist()),
        infected_mass=tuple(integrate(i) for i in state.I),
        a_mass=integrate(state.A),
        a_first_moment=inner(Field(grid, grid.nodes), state.A),
        a_argmax=float(grid.nodes[int(np.argmax(state.A.values))]),
    )


@dataclass
class PinningReport:
    host: int
    mu_over_theta: float
    lambda1: float
    signed_gap: float
    inequality_ok: bool
    pinned: bool


def mu_pinning_check(problem: Problem, state: EquilibriumState) -> list[PinningReport]:
    """Check mu_k / theta against the per-host spectral radius.

    The ratio always dominates the spectral radius at an endemic state, and
    matches the principal eigenvalue tightly for above-threshold hosts.
    """
    if state.classification != "endemic":
        return []
    reports = []
    for k, mu in enumerate(state.mu.tolist(), start=1):
        ratio = mu / problem.mp.theta
        lam = problem.host_spectra[k - 1].lambda1
        gap = ratio - lam
        reports.append(
            PinningReport(
                host=k,
                mu_over_theta=ratio,
                lambda1=lam,
                signed_gap=gap,
                inequality_ok=gap >= -INEQUALITY_TOL,
                pinned=abs(gap) < PIN_TOL,
            )
        )
    return reports


def lower_bound_check(
    problem: Problem, state: EquilibriumState
) -> list[tuple[int, float, float, bool]]:
    """Per host: (k, int beta_k A, bound, ok) where the bound is
    (theta/2)(spectral radius - 1), active only above threshold."""
    out = []
    for k in (1, 2):
        lam = problem.host_spectra[k - 1].lambda1
        if lam <= 1.0:
            continue
        mass = inner(problem.host(k).beta, state.A)
        bound = 0.5 * problem.mp.theta * (lam - 1.0)
        out.append((k, mass, bound, mass >= bound - INEQUALITY_TOL))
    return out


def necessary_conditions_hold(problem: Problem, state: EquilibriumState) -> bool:
    """At an endemic state, the pinning inequalities mu_k/theta >= lambda1^k
    and the lower bounds int(beta_k A) >= (theta/2)(lambda1^k - 1), which every
    positive steady state meets; true at any other state."""
    if state.classification != "endemic":
        return True
    return (all(p.inequality_ok for p in mu_pinning_check(problem, state))
            and all(ok for *_, ok in lower_bound_check(problem, state)))
