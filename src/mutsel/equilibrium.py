"""Steady-state solvers and their diagnostics.

Solves the single-host fixed-point problems in closed form from the principal
eigenpair, solves the coupled problem by damped fixed-point iteration, rebuilds
the full equilibrium (healthy tissue, infected densities) from the spore
density, and evaluates the superposition, concentration, pinning and
lower-bound diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, inner, integrate, l1_norm, restrict
from .model import ModelParams, Problem, build_problem
from .operators import UpdateMap, host_update, update_map
from .spectral import SpectralResult, solve_host_spectrum

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000


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


def solve_uncoupled(
    problem: Problem,
    k: int,
    *,
    tol: float = DEFAULT_TOL,
    spectral: SpectralResult | None = None,
) -> UncoupledSolution:
    """Single-host steady state: a multiple of the principal eigenfunction.

    If the spectral radius exceeds 1 the unique positive fixed point is
    nu * phi1 with nu = theta (lambda1 - 1) / int(beta_k phi1); otherwise only
    the zero state exists.
    """
    if spectral is None:
        spectral = solve_host_spectrum(problem, k, tol=tol)
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
    residual = l1_norm(host_update(problem, k, a_star) - a_star)
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
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)

    def mu(self, k: int) -> float:
        return self.mu1 if k == 1 else self.mu2

    def s(self, k: int) -> float:
        return self.S1 if k == 1 else self.S2

    def infected(self, k: int) -> Field:
        return self.I1 if k == 1 else self.I2


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
    max_iter: int = DEFAULT_MAX_ITER,
    tmap: UpdateMap | None = None,
) -> EquilibriumState:
    """Damped fixed-point iteration for the coupled spore-density equation.

    Plain iteration (damping 1) is used until the quadrature-L1 update residual
    increases, at which point the damping factor is halved.
    """
    if tmap is None:
        tmap = update_map(problem)
    if start is None:
        start = default_start(problem)
    if np.any(start.values < 0):
        raise SolverError("start density must be nonnegative")
    a = start.values.copy()
    w = problem.grid.quad_weights
    omega = 1.0
    prev_res = np.inf
    history: list[float] = []
    converged = False
    iterations = max_iter
    for it in range(1, max_iter + 1):
        ta = tmap.apply_values(a)
        res = float(np.sum(w * np.abs(ta - a)))
        history.append(res)
        if res < tol:
            a = ta
            converged = True
            iterations = it
            break
        if res > prev_res and omega > 2.0**-8:
            omega *= 0.5
        a = (1.0 - omega) * a + omega * ta
        prev_res = res
    state = reconstruct(problem, Field(problem.grid, np.clip(a, 0.0, None), is_density=True), tol=tol)
    state.iterations = iterations
    state.converged = converged
    state.residual_history = history[-50:]
    if not converged:
        state.classification = "non_converged"
    return state


def reconstruct(problem: Problem, A: Field, *, tol: float = DEFAULT_TOL) -> EquilibriumState:
    """Rebuild the full steady state from a spore density.

    Healthy tissue S_k = xi_k Lambda / mu_k with mu_k = theta + int(beta_k A);
    infected density I_k = beta_k S_k A / (theta + d_k).  The residual
    ||delta A - m_eps * (sum_k r_k I_k)||_1 measures how well the spore
    production balances decay; since sum_k r_k I_k = delta g(A) A, it equals
    delta ||A - T(A)||_1.
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
    classification = "endemic" if l1_norm(A) > 10.0 * tol else "disease_free"
    return EquilibriumState(
        A=A,
        S1=float(ss[0]),
        S2=float(ss[1]),
        I1=infected[0],
        I2=infected[1],
        mu1=float(mus[0]),
        mu2=float(mus[1]),
        residual=residual,
        classification=classification,
    )


# ---------------------------------------------------------------------------
# diagnostics

def support_indicator(problem: Problem, k: int) -> Field:
    lo, hi = problem.host(k).sigma_support
    vals = np.zeros(problem.grid.n)
    vals[lo : hi + 1] = 1.0
    return Field(problem.grid, vals)


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
    """L1 distances between the coupled state and the sum of single-host states."""
    diff = Field(problem.grid, A.values - uncoupled[0].a_star.values - uncoupled[1].a_star.values)
    ind1 = support_indicator(problem, 1)
    ind2 = support_indicator(problem, 2)
    comp = Field(problem.grid, np.clip(1.0 - ind1.values - ind2.values, 0.0, 1.0))
    return SuperpositionError(
        e_total=l1_norm(diff),
        e_sigma1=l1_norm(restrict(diff, ind1)),
        e_sigma2=l1_norm(restrict(diff, ind2)),
        e_complement=l1_norm(restrict(diff, comp)),
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


@dataclass
class ConcentrationTable:
    rows: list[ConcentrationRow]
    targets: ConcentrationTargets
    extrapolated: ConcentrationRow | None = None


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


def concentration_table(
    mp: ModelParams,
    eps_list: list[float],
    *,
    tol: float = 1e-9,
    n: int | None = None,
) -> ConcentrationTable:
    """Equilibrium scalars along a mutation-width sweep, with extrapolation.

    Richardson extrapolation on the two smallest widths gives the reported
    zero-width estimate; the closed-form targets ride along for comparison.
    """
    rows = []
    last_problem = None
    for eps in sorted(eps_list, reverse=True):
        problem = build_problem(mp, eps, n=n)
        state = solve_coupled(problem, tol=tol)
        rows.append(concentration_row(problem, state))
        last_problem = problem
    table = ConcentrationTable(rows, concentration_targets(last_problem))
    if len(rows) >= 2:
        r1, r0 = rows[-2], rows[-1]  # r0 has the smallest width
        f = r1.eps / r0.eps

        def rich(a, b):
            return (f * b - a) / (f - 1.0)

        table.extrapolated = ConcentrationRow(
            eps=0.0,
            s1=rich(r1.s1, r0.s1),
            s2=rich(r1.s2, r0.s2),
            i1_mass=rich(r1.i1_mass, r0.i1_mass),
            i2_mass=rich(r1.i2_mass, r0.i2_mass),
            a_mass=rich(r1.a_mass, r0.a_mass),
            a_first_moment=rich(r1.a_first_moment, r0.a_first_moment),
            a_argmax=r0.a_argmax,
        )
    return table


@dataclass
class PinningReport:
    host: int
    mu_over_theta: float
    lambda1: float
    signed_gap: float
    inequality_ok: bool
    pinned: bool


def mu_pinning_check(
    problem: Problem,
    state: EquilibriumState,
    spectral: tuple[SpectralResult, SpectralResult],
    *,
    ineq_tol: float = 1e-9,
    pin_tol: float = 1e-4,
) -> list[PinningReport]:
    """Check mu_k / theta against the per-host spectral radius.

    The ratio always dominates the spectral radius at an endemic state, and
    matches the principal eigenvalue tightly for above-threshold hosts.
    """
    if state.classification != "endemic":
        return []
    reports = []
    for k in (1, 2):
        ratio = state.mu(k) / problem.mp.theta
        lam = spectral[k - 1].lambda1
        gap = ratio - lam
        reports.append(
            PinningReport(
                host=k,
                mu_over_theta=ratio,
                lambda1=lam,
                signed_gap=gap,
                inequality_ok=gap >= -ineq_tol,
                pinned=abs(gap) < pin_tol,
            )
        )
    return reports


def lower_bound_check(
    problem: Problem,
    state: EquilibriumState,
    spectral: tuple[SpectralResult, SpectralResult],
    *,
    tol: float = 1e-9,
) -> list[tuple[int, float, float, bool]]:
    """Per host: (k, int beta_k A, bound, ok) where the bound is
    (theta/2)(spectral radius - 1), active only above threshold."""
    out = []
    for k in (1, 2):
        lam = spectral[k - 1].lambda1
        if lam <= 1.0:
            continue
        mass = inner(problem.host(k).beta, state.A)
        bound = 0.5 * problem.mp.theta * (lam - 1.0)
        out.append((k, mass, bound, mass >= bound - tol))
    return out
