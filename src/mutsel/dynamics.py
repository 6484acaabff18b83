"""Time integration of the two-host infection/mutation system.

Evolves healthy-tissue scalars, infected-tissue densities and the spore
density with the adaptive Dormand-Prince 8(5,3) pair, its only stepper, to
cross-validate the steady-state solvers and show convergence to equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, RunFailure, UsageError
from .model import Problem
from .equilibrium import Summary, SystemState, default_start, summarize
from .operators import update_map

NEGATIVE_SLACK = 1e-12
BLOWUP_NORM = 1e12
MAX_STEPS = 10**7
# rhs evaluations a run may spend, or 4 per step of dt if that is larger
MAX_RHS_EVALS = 10**6
# dop853's error control, per accepted step
RTOL = 1e-11
ATOL = 1e-13


class DynamicsError(RunFailure):
    pass


@dataclass
class Trajectory:
    samples: list[tuple[float, Summary]]  # (t, summary) at t = 0, each mark and t_end
    terminal: SystemState
    t_end: float
    clip_events: int
    steps: int  # accepted steps
    rhs_evals: int
    rejected_steps: int


def disease_free_state(problem: Problem, *, bump: float = 0.0) -> SystemState:
    """Disease-free start, optionally with a small spore perturbation.

    ``bump`` scales a unit-mass positive density supported on both fitness
    supports; 0 gives the exact disease-free state.
    """
    mp, grid = problem.mp, problem.grid
    return SystemState(
        S=np.array([host.xi * mp.lambda_ / mp.theta for host in mp.hosts]),
        I=tuple(Field(grid, np.zeros(grid.n), is_density=True) for _ in mp.hosts),
        A=Field(grid, bump * default_start(problem).values, is_density=True),
    )


class _System:
    """Right-hand side on the packed state y = (S, each I_k on its nodes, A).

    Nodes k are those where beta_k or the start's I_k is nonzero, as in
    ``UpdateMap.read_nodes``. Off them dI_k/dt = -(theta + d_k) I_k keeps I_k at
    exactly zero, so it is not stored; ``unpack`` restores the full-grid fields.
    """

    def __init__(self, problem: Problem, init: SystemState):
        mp, self.grid, n = problem.mp, problem.grid, problem.grid.n
        self.theta, self.delta, self.n, self.full_size = mp.theta, mp.delta, n, 3 * n + 2
        self.tmap = update_map(problem)
        self.influx = np.array([h.xi * mp.lambda_ for h in mp.hosts])
        self.host_nodes = [np.flatnonzero((hd.beta.values != 0) | (i.values != 0))
                           for hd, i in zip(problem.derived, init.I)]
        # the node of each packed I entry, and the traits there
        self.nodes = np.concatenate(self.host_nodes)
        beta, d, self.r = (
            np.concatenate([getattr(hd, name).values[nodes]
                            for hd, nodes in zip(problem.derived, self.host_nodes)])
            for name in ("beta", "d", "r"))
        self.loss = mp.theta + d
        m1, m = self.host_nodes[0].size, self.nodes.size
        # the host of each packed I entry, so that beta * S[host] is beta_k S_k
        self.beta, self.host = beta, np.repeat([0, 1], [m1, m - m1])
        self.infected = slice(2, 2 + m)
        self.slices = (slice(2, 2 + m1), slice(2 + m1, 2 + m), slice(2 + m, 2 + m + n))
        self.evals = 0

    def pack(self, state: SystemState) -> np.ndarray:
        return np.concatenate((state.S, *(i.values[nodes] for i, nodes in
                                          zip(state.I, self.host_nodes)), state.A.values))

    def unpack(self, y: np.ndarray) -> SystemState:
        """The full-grid fields of a packed state, or of its derivative."""
        infected = np.zeros((2, self.n))
        for row, nodes, part in zip(infected, self.host_nodes, self.slices):
            row[nodes] = y[part]
        return SystemState(y[:2].copy(), tuple(Field(self.grid, v) for v in infected),
                           Field(self.grid, y[self.slices[2]].copy()))

    def rhs(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # dS_k/dt = xi_k Lambda - theta S_k (1 + theta^-1 int beta_k a),
        # dI_k/dt = beta_k S_k a - (theta + d_k) I_k and
        # dA/dt = -delta a + m_eps * (sum_k r_k I_k)
        self.evals += 1
        out = np.empty_like(y) if out is None else out
        s, i, a = y[:2], y[self.infected], y[self.slices[2]]
        out[:2] = self.influx - self.theta * s * self.tmap.denominators(a)
        di = out[self.infected]
        np.multiply(self.beta * s[self.host], a[self.nodes], out=di)
        di -= self.loss * i
        production = np.bincount(self.nodes, self.r * i, minlength=self.n)
        da = out[self.slices[2]]
        np.multiply(a, -self.delta, out=da)
        da += self.tmap.engine.convolve_values(production)
        return out


def check_schedule(t_end: float, dt: float, sample_every: int) -> None:
    """Raise UsageError unless t_end and dt are finite and positive, t_end/dt
    is at most MAX_STEPS and rounds to at least one step, and sample_every >= 1."""
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise UsageError(f"{name} must be finite and positive, got {value}")
    if not t_end / dt <= MAX_STEPS:
        raise UsageError(
            f"t_end/dt = {t_end / dt:.3g} steps exceeds the limit of {MAX_STEPS}"
        )
    if round(t_end / dt) < 1:
        raise UsageError(f"t_end/dt = {t_end / dt:.3g} rounds to zero steps")
    if sample_every < 1:
        raise UsageError(f"sample_every must be at least 1, got {sample_every}")


def _lower_triangular(rows: list[list[float]]) -> np.ndarray:
    a = np.zeros((len(rows), len(rows)))
    for s, row in enumerate(rows):
        a[s, :s] = row
    return a


# Dormand-Prince 8(5,3) (Hairer, Norsett and Wanner, Solving ODEs I, II.10), the
# tableau of scipy's DOP853; the system is autonomous, so the nodes c are not needed.
_A = _lower_triangular([
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636],
])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
# the 3rd- and 5th-order error estimators; the 13th stage is the derivative at
# the new state
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_E = np.array([_E3, _E5])


def _dop853(system, y, f, h):
    """One step and its error in Hairer's DOP853 norm scaled by ATOL + RTOL*|y|
    (accept if <= 1). Rows 0 to 12 of ``k`` hold y, k_1 = f, ..., k_12; each
    stage input y + h sum_j a_ij k_j is one product of the row (1, h a_i) with
    the rows above it, and so is y_new with (1, h b). Row 13 is the derivative
    at the new state, the next step's k_1 (FSAL), and the error estimates are
    one product of (e3, e5) with rows 1 to 13. The norm's N is the full-grid
    state's length, not the packed one's: the entries left out hold zeros,
    whose error is exactly zero."""
    coef = np.hstack((np.ones((12, 1)), h * _A))
    k = np.empty((14, y.size))
    k[0], k[1] = y, f
    stage = np.empty(y.size)
    for i in range(1, 12):
        np.dot(coef[i, : i + 1], k[: i + 1], out=stage)
        system.rhs(stage, out=k[i + 1])
    y_new = np.append(1.0, h * _B) @ k[:13]
    system.rhs(y_new, out=k[13])
    e = _E @ k[1:]
    e /= ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
    e3, e5 = np.einsum("ij,ij->i", e, e)
    err = abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * system.full_size) if e5 else 0.0
    return y_new, k[13], err


@np.errstate(all="ignore")
def integrate(
    problem: Problem,
    init: SystemState,
    t_end: float,
    dt: float,
    *,
    sample_every: int = 100,
) -> Trajectory:
    """Integrate from ``init`` at t = 0 to ``round(t_end/dt)*dt``.

    dop853 starts with ``dt`` and adapts the step to RTOL and ATOL, by the
    factor 0.9*err^(-1/8) clamped to [0.2, 10]. It lands exactly on the sample
    times ``k*sample_every*dt`` and on the end time. Negative undershoots
    within a tiny slack are clipped to zero and counted; larger ones, a
    blow-up past 1e12, a step below 1e-14*max(1, |t|) and more than
    max(MAX_RHS_EVALS, 4*round(t_end/dt)) right-hand-side evaluations (4 per
    step of dt) abort the run, and so does a start that is not finite or is
    past 1e12. numpy's floating-point warnings are off: these checks report
    what they would warn of.
    """
    check_schedule(t_end, dt, sample_every)
    sys = _System(problem, init)
    y = sys.pack(init)
    t = 0.0
    _check_bounded(y, t)
    f = None  # rhs(y) once computed
    n_steps = int(round(t_end / dt))
    budget = max(MAX_RHS_EVALS, 4 * n_steps)
    marks = [*range(sample_every, n_steps, sample_every), n_steps]
    h = dt
    accepted = rejected = clip_events = 0
    may_grow = True
    samples = [(t, summarize(init))]
    for mark in marks:
        target = mark * dt
        while t < target:
            if sys.evals > budget:
                raise DynamicsError(
                    f"{sys.evals} right-hand-side evaluations exceed the budget of "
                    f"{budget} at t={t:.6g}"
                )
            if h < 1e-14 * max(1.0, abs(t)):
                raise DynamicsError(f"step size underflow (h={h:.3g}) at t={t:.6g}")
            # stretch by up to 0.1% rather than leave a sliver before the mark
            # (rounding in t would otherwise add a tiny step)
            landing = t + 1.001 * h >= target
            h_try = target - t if landing else h
            if f is None:
                f = sys.rhs(y)
            y_new, f_new, err = _dop853(sys, y, f, h_try)
            if not err <= 1.0:  # NaN rejects too
                rejected += 1
                h = h_try * (max(0.2, 0.9 * err ** -0.125) if np.isfinite(err) else 0.2)
                may_grow = False
                continue
            factor = min(10.0, 0.9 * err ** -0.125) if err > 0 else 10.0
            if not may_grow:
                factor = min(1.0, factor)
            # a step cut short to land on a mark never shrinks the next one
            h = max(h, factor * h_try) if landing else factor * h_try
            may_grow = True
            t = target if landing else t + h_try
            y, f = y_new, f_new
            accepted += 1
            negative = y < 0
            if negative.any():
                worst = float(y[negative].min())
                if worst < -NEGATIVE_SLACK:
                    raise DynamicsError(f"state went negative ({worst:.3g}) at t={t:.6g}")
                clip_events += int(np.count_nonzero(negative))
                y[negative] = 0.0
                f = None
            _check_bounded(y, t)
        end = sys.unpack(y)
        samples.append((t, summarize(end)))
    return Trajectory(
        samples=samples,
        terminal=end,
        t_end=t,
        clip_events=clip_events,
        steps=accepted,
        rhs_evals=sys.evals,
        rejected_steps=rejected,
    )


def _check_bounded(y: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(y)) or np.abs(y).max() > BLOWUP_NORM:
        raise DynamicsError(f"solution blew up at t={t:.6g}")

