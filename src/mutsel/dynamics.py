"""Time integration of the two-host infection/mutation system.

Evolves healthy-tissue scalars, infected-tissue densities and the spore
density with fixed-step explicit integrators, to cross-validate the
steady-state solvers and exhibit convergence toward equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, l1_norm
from .model import Problem
from .equilibrium import default_start
from .operators import update_map

NEGATIVE_SLACK = 1e-12
BLOWUP_NORM = 1e12
MAX_STEPS = 10**7


class DynamicsError(RuntimeError):
    pass


@dataclass
class SystemState:
    t: float
    S1: float
    S2: float
    I1: Field
    I2: Field
    A: Field


@dataclass
class TrajectorySample:
    t: float
    s1: float
    s2: float
    i1_mass: float
    i2_mass: float
    a_mass: float
    a_argmax: float


@dataclass
class Trajectory:
    samples: list[TrajectorySample]
    terminal: SystemState
    clip_events: int
    steps: int


def disease_free_state(problem: Problem, *, bump: float = 0.0) -> SystemState:
    """Disease-free start, optionally with a small spore perturbation.

    ``bump`` scales a unit-mass positive density supported on both fitness
    supports; 0 gives the exact disease-free state.
    """
    mp = problem.mp
    grid = problem.grid
    zero = np.zeros(grid.n)
    vals = bump * default_start(problem).values
    return SystemState(
        t=0.0,
        S1=mp.hosts[0].xi * mp.lambda_ / mp.theta,
        S2=mp.hosts[1].xi * mp.lambda_ / mp.theta,
        I1=Field(grid, zero.copy(), is_density=True),
        I2=Field(grid, zero.copy(), is_density=True),
        A=Field(grid, vals, is_density=True),
    )


class _System:
    """Packed-vector right-hand side built on the coupled map's quadrature rows."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.grid = problem.grid
        self.tmap = update_map(problem)
        mp = problem.mp
        self.influx = np.array([h.xi * mp.lambda_ for h in mp.hosts])
        self.hosts = [
            (hd.beta.values, mp.theta + hd.d.values, hd.r.values) for hd in problem.derived
        ]
        n = self.grid.n
        self.n = n
        self.slices = (slice(2, 2 + n), slice(2 + n, 2 + 2 * n), slice(2 + 2 * n, 2 + 3 * n))

    def pack(self, state: SystemState) -> np.ndarray:
        return np.concatenate(
            ([state.S1, state.S2], state.I1.values, state.I2.values, state.A.values)
        )

    def unpack(self, t: float, y: np.ndarray) -> SystemState:
        i1, i2, a = (y[s] for s in self.slices)
        g = self.grid
        return SystemState(
            t=t,
            S1=float(y[0]),
            S2=float(y[1]),
            I1=Field(g, i1.copy(), is_density=True),
            I2=Field(g, i2.copy(), is_density=True),
            A=Field(g, a.copy(), is_density=True),
        )

    def rhs(self, y: np.ndarray) -> np.ndarray:
        # dS_k/dt = xi_k Lambda - theta S_k (1 + theta^-1 int beta_k a)
        mp = self.problem.mp
        a = y[self.slices[2]]
        out = np.empty_like(y)
        out[:2] = self.influx - mp.theta * y[:2] * self.tmap.denominators(a)
        production = np.zeros(self.n)
        for sk, sl, (beta, loss, r) in zip(y[:2], self.slices, self.hosts):
            ik = y[sl]
            out[sl] = beta * sk * a - loss * ik
            production += r * ik
        out[self.slices[2]] = -mp.delta * a + self.tmap.engine.convolve_values(production)
        return out


def rhs(problem: Problem, state: SystemState) -> SystemState:
    """Time derivative of a state, returned with the same layout."""
    sys = _System(problem)
    dy = sys.rhs(sys.pack(state))
    g = problem.grid
    return SystemState(
        t=state.t,
        S1=float(dy[0]),
        S2=float(dy[1]),
        I1=Field(g, dy[sys.slices[0]].copy()),
        I2=Field(g, dy[sys.slices[1]].copy()),
        A=Field(g, dy[sys.slices[2]].copy()),
    )


def rhs_l1_norm(problem: Problem, state: SystemState) -> float:
    """Scalar size of the time derivative: |dS_k| plus the densities' L1 norms."""
    sys = _System(problem)
    dy = sys.rhs(sys.pack(state))
    w = problem.grid.quad_weights
    total = abs(float(dy[0])) + abs(float(dy[1]))
    for s in sys.slices:
        total += float(np.sum(w * np.abs(dy[s])))
    return total


def max_stable_dt(problem: Problem) -> float:
    """Conservative explicit-Euler step bound 1 / (theta + delta + max rates)."""
    mp = problem.mp
    fastest = mp.theta + mp.delta
    for k in (1, 2):
        hd = problem.host(k)
        fastest += float(hd.d.values.max()) + float(hd.beta.values.max())
    return 1.0 / fastest


def check_schedule(t_end: float, dt: float, sample_every: int) -> None:
    """Raise DynamicsError unless t_end and dt are finite and positive, t_end/dt
    is at most MAX_STEPS, and sample_every >= 1."""
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise DynamicsError(f"{name} must be finite and positive, got {value}")
    if not t_end / dt <= MAX_STEPS:
        raise DynamicsError(
            f"t_end/dt = {t_end / dt:.3g} steps exceeds the limit of {MAX_STEPS}"
        )
    if sample_every < 1:
        raise DynamicsError(f"sample_every must be at least 1, got {sample_every}")


def integrate(
    problem: Problem,
    init: SystemState,
    t_end: float,
    dt: float,
    *,
    method: str = "rk4",
    sample_every: int = 100,
) -> Trajectory:
    """Fixed-step integration from ``init`` to ``t_end``.

    Negative undershoots within a tiny slack are clipped to zero and counted;
    larger ones, and any blow-up past 1e12, abort the run.
    """
    if method not in ("euler", "rk4"):
        raise DynamicsError(f"unknown method {method!r}")
    check_schedule(t_end, dt, sample_every)
    if method == "euler" and dt >= max_stable_dt(problem):
        raise DynamicsError(
            f"dt={dt} exceeds the explicit-Euler stability bound "
            f"{max_stable_dt(problem):.3g}"
        )
    sys = _System(problem)
    y = sys.pack(init)
    steps = int(round(t_end / dt))
    clip_events = 0
    samples = [ _sample(problem, init.t, y, sys) ]
    t = init.t
    for step in range(1, steps + 1):
        if method == "euler":
            y = y + dt * sys.rhs(y)
        else:
            k1 = sys.rhs(y)
            k2 = sys.rhs(y + 0.5 * dt * k1)
            k3 = sys.rhs(y + 0.5 * dt * k2)
            k4 = sys.rhs(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        negative = y < 0
        if negative.any():
            worst = float(y[negative].min())
            if worst < -NEGATIVE_SLACK:
                raise DynamicsError(
                    f"state went negative ({worst:.3g}) at t={t + dt:.6g}"
                )
            clip_events += int(np.count_nonzero(negative))
            y[negative] = 0.0
        if not np.all(np.isfinite(y)) or np.abs(y).max() > BLOWUP_NORM:
            raise DynamicsError(f"solution blew up at t={t + dt:.6g}")
        t = init.t + step * dt
        if step % sample_every == 0 or step == steps:
            samples.append(_sample(problem, t, y, sys))
    return Trajectory(
        samples=samples,
        terminal=sys.unpack(t, y),
        clip_events=clip_events,
        steps=steps,
    )


def _sample(problem: Problem, t: float, y: np.ndarray, sys: _System) -> TrajectorySample:
    w = problem.grid.quad_weights
    i1, i2, a = (y[s] for s in sys.slices)
    return TrajectorySample(
        t=t,
        s1=float(y[0]),
        s2=float(y[1]),
        i1_mass=float(np.sum(w * np.abs(i1))),
        i2_mass=float(np.sum(w * np.abs(i2))),
        a_mass=float(np.sum(w * np.abs(a))),
        a_argmax=float(problem.grid.nodes[int(np.argmax(a))]),
    )


def distance_to_equilibrium(state: SystemState, a_eq: Field) -> float:
    """Quadrature-L1 distance between the state's spore density and a target."""
    return l1_norm(state.A - a_eq)
