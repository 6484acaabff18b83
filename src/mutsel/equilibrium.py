"""Steady-state solvers and their diagnostics.

Solves the single-host fixed-point problems in closed form from the principal
eigenpair, solves the coupled problem by globalized Newton iteration from their
superposition, rebuilds the full equilibrium (healthy tissue, infected
densities) from the spore density, and evaluates the superposition,
concentration, pinning and lower-bound diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError

from .grid import Field, inner, integrate, l1_norm
from .model import OVERLAPPING_SUPPORTS, Problem
from .operators import host_map, update_map
from .spectral import SpectralResult

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# the coupled solve takes plain steps after this many Newton steps in a row
# without a new lowest residual, until one comes in
STALL_STEPS = 3
# slack of the paper's inequalities mu_k/theta >= lambda1^k and
# int(beta_k A) >= (theta/2)(lambda1^k - 1); mu_k/theta is pinned to lambda1^k
# when the two agree to PIN_TOL
INEQUALITY_TOL = 1e-9
PIN_TOL = 1e-4


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# single-host problem

@dataclass
class UncoupledSolution:
    k: int
    nu: float
    a_star: Field
    spectral: SpectralResult
    is_trivial: bool
    residual: float


def solve_uncoupled(problem: Problem, k: int) -> UncoupledSolution:
    """Single-host steady state: a multiple of the principal eigenfunction.

    If the spectral radius exceeds 1 the unique positive fixed point is
    nu * phi1 with nu = theta (lambda1 - 1) / int(beta_k phi1); otherwise only
    the zero state exists.  The eigenpair is ``problem.host_spectra[k - 1]``.
    """
    spectral = problem.host_spectra[k - 1]
    lam = spectral.lambda1
    grid = problem.grid
    if lam <= 1.0:
        zero = Field(grid, np.zeros(grid.n), is_density=True)
        return UncoupledSolution(k, 0.0, zero, spectral, True, 0.0)
    beta_phi = inner(problem.host(k).beta, spectral.phi1)
    if beta_phi <= 0:
        raise SolverError(f"principal eigenfunction carries no beta_{k} mass")
    nu = problem.mp.theta * (lam - 1.0) / beta_phi
    a_star = Field(grid, nu * spectral.phi1.values, is_density=True)
    residual = l1_norm(host_map(problem, k).apply(a_star) - a_star)
    return UncoupledSolution(k, float(nu), a_star, spectral, False, residual)


# ---------------------------------------------------------------------------
# coupled problem

@dataclass
class EquilibriumState:
    A: Field
    S1: float
    S2: float
    I1: Field
    I2: Field
    mu1: float
    mu2: float
    residual: float
    classification: str  # "disease_free" | "endemic"
    iterations: int = 0
    restarts: int = 0
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)

    def mu(self, k: int) -> float:
        return self.mu1 if k == 1 else self.mu2


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
    """Globalized Newton iteration for the coupled spore-density equation a = T(a).

    Each iteration maps the iterate once, g = T(a), with the plain-map residual
    f = g - a, and takes the Newton step a + delta, (I - T'(a)) delta = f
    (``UpdateMap.newton_direction``, O(n)), clipped at 0.  Every positive fixed
    point keeps den_k - 1 = theta^-1 int beta_k a above the paper's lower bound
    (lambda1^k - 1)/2, and max_k den_k - 1 above (rho - 1)/2, with rho the
    combined radius.  The plain step T(a), clipped, is taken instead when

    - the Newton iterate breaks a bound: it heads for the zero state, a root of
      a - T(a) too, or for a state without one host's mode;
    - the iterate is a near-fixed point (below);
    - ``STALL_STEPS`` Newton steps in a row brought no new lowest residual (as at
      clipped points where the step keeps pushing the same nodes below 0): plain
      steps then run until an iterate within the bounds brings one;
    - the Newton direction could not be computed.

    The default start is the superposition a1* + a2* of the single-host states
    (``Problem.host_spectra``), or ``default_start`` when the fitness supports
    overlap or both hosts are below threshold.

    Converged only when the quadrature-L1 residual of the plain map is below
    ``tol`` and, for an endemic state, the paper's necessary conditions hold
    (``necessary_conditions_hold``); the returned density is then T(a).  An
    endemic iterate under ``tol`` that fails them is a near-fixed point, such
    as a single host's steady state, which the other host's mode grows away
    from: plain steps follow that mode until a lower residual comes in.
    ``iterations`` counts map applications and ``restarts`` plain steps.
    """
    tmap = update_map(problem)
    excess_floor = 0.5 * (problem.combined_radius - 1.0)
    floors = 0.5 * (np.array([s.lambda1 for s in problem.host_spectra]) - 1.0)

    def within_bounds(x: np.ndarray) -> bool:
        excess = tmap.denominators(x) - 1.0
        return excess.max() >= excess_floor and bool(np.all(excess >= floors))

    if start is None:
        start = default_start(problem)
        if OVERLAPPING_SUPPORTS not in problem.assumption_warnings:
            superposed = solve_uncoupled(problem, 1).a_star + solve_uncoupled(problem, 2).a_star
            start = superposed if np.any(superposed.values) else start
    if np.any(start.values < 0):
        raise SolverError("start density must be nonnegative")
    a = start.values.copy()
    best = np.inf
    since_best = restarts = 0
    newton = plain = False
    history: list[float] = []
    converged = False
    for it in range(1, DEFAULT_MAX_ITER + 1):
        g = tmap.apply_values(a)
        f = g - a
        res = float(np.sum(problem.grid.quad_weights * np.abs(f)))
        history.append(res)
        near_fixed = res < tol
        if near_fixed:
            state = reconstruct(problem, Field(problem.grid, np.clip(g, 0.0, None),
                                               is_density=True))
            converged = necessary_conditions_hold(problem, state)
            if converged:
                break
        if res < best and within_bounds(a):
            best, since_best, plain = res, 0, False
        elif newton:
            since_best += 1
            plain = since_best >= STALL_STEPS
        plain = plain or near_fixed
        newton = not plain
        if newton:
            try:
                trial = np.clip(a + tmap.newton_direction(a, f), 0.0, None)
                newton = within_bounds(trial)
            except LinAlgError:
                newton = False
        if newton:
            a = trial
        else:
            restarts += 1
            a = np.clip(g, 0.0, None)
    if not converged:
        state = reconstruct(problem, Field(problem.grid, np.clip(g, 0.0, None),
                                           is_density=True))
        state.classification = "non_converged"
    state.iterations = it
    state.restarts = restarts
    state.converged = converged
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
    mus = mp.theta * tmap.denominators(A.values)
    ss = []
    infected = []
    for k, mu in zip((1, 2), mus):
        hd = problem.host(k)
        s = mp.hosts[k - 1].xi * mp.lambda_ / mu
        ik = hd.beta.values * s * A.values / (mp.theta + hd.d.values)
        ss.append(s)
        infected.append(Field(problem.grid, ik, is_density=True))
    residual = mp.delta * l1_norm(A - Field(problem.grid, tmap.apply_values(A.values)))
    return EquilibriumState(
        A=A,
        S1=float(ss[0]),
        S2=float(ss[1]),
        I1=infected[0],
        I2=infected[1],
        mu1=float(mus[0]),
        mu2=float(mus[1]),
        residual=residual,
        classification=classify(problem, A),
    )


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class SuperpositionError:
    e_total: float
    e_sigma1: float
    e_sigma2: float
    e_complement: float


def superposition_error(
    problem: Problem,
    A: Field,
    uncoupled: tuple[UncoupledSolution, UncoupledSolution],
) -> SuperpositionError:
    """L1 distances between the coupled state and the sum of single-host states.

    Over the window, over each beta support and over the rest; nodes where the
    supports overlap count in both support sums.  Each sum runs over the whole
    window with the nodes outside its set zeroed, so all four add in one order.
    """
    diff = A.values - uncoupled[0].a_star.values - uncoupled[1].a_star.values
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
            beta_star = hd.beta.values[idx]
            d_star = hd.d.values[idx]
            s_t.append(1.0 / hd.psi_max)
            i_mass = (hd.r0 - 1.0) / (hd.psi_max * (1.0 + d_star / mp.theta))
            i_t.append(i_mass)
            contrib = mp.theta / beta_star * (hd.r0 - 1.0)
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
class ConcentrationRow:
    eps: float
    s1: float
    s2: float
    i1_mass: float
    i2_mass: float
    a_mass: float
    a_first_moment: float
    a_argmax: float


def concentration_row(problem: Problem, state: EquilibriumState) -> ConcentrationRow:
    x = Field(problem.grid, problem.grid.nodes)
    return ConcentrationRow(
        eps=problem.eps,
        s1=state.S1,
        s2=state.S2,
        i1_mass=integrate(state.I1),
        i2_mass=integrate(state.I2),
        a_mass=integrate(state.A),
        a_first_moment=inner(x, state.A),
        a_argmax=float(problem.grid.nodes[int(np.argmax(state.A.values))]),
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
    for k in (1, 2):
        ratio = state.mu(k) / problem.mp.theta
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
