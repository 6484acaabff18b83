"""Time integration: right-hand side identities and convergence to equilibria."""

from dataclasses import replace

import numpy as np
import pytest

import mutsel.dynamics as dyn
from mutsel.grid import Field, UsageError, l1_norm
from mutsel.model import build_problem, preset
from mutsel.operators import ConvolutionEngine
from mutsel.dynamics import (
    DynamicsError,
    SystemState,
    disease_free_state,
    integrate,
)
from mutsel.equilibrium import reconstruct
from oracles import rk4


@pytest.fixture(scope="module")
def endemic_rk4(fig1_problem):
    """rk4 from a small spore bump toward fig1's endemic state, t = 120, dt = 0.02."""
    init = disease_free_state(fig1_problem, bump=1e-3)
    return rk4(fig1_problem, init, 120.0, 0.02)


def state_l1(a: SystemState, b: SystemState) -> float:
    """|dS1| + |dS2| plus the quadrature L1 norms of the three density differences."""
    return np.abs(a.S - b.S).sum() + sum(
        l1_norm(x - y) for x, y in zip((*a.I, a.A), (*b.I, b.A))
    )


def derivative(problem, state: SystemState) -> SystemState:
    """The time derivative of a state, read on the full grid through ``unpack``."""
    system = dyn._System(problem, state)
    return system.unpack(system.rhs(system.pack(state)))


def derivative_l1(problem, state: SystemState) -> float:
    """|dS1/dt| + |dS2/dt| plus the quadrature L1 norms of the density derivatives."""
    d = derivative(problem, state)
    return np.abs(d.S).sum() + sum(l1_norm(f) for f in (*d.I, d.A))


def full_grid_derivative(problem, state: SystemState) -> tuple:
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


def random_state(problem, seed: int) -> SystemState:
    """Random positive S_k and A, and I_k random positive where beta_k is."""
    rng = np.random.default_rng(seed)
    g = problem.grid
    i1, i2 = (rng.random(g.n) * (hd.beta.values > 0) for hd in problem.derived)
    s = rng.random(2)
    return SystemState(s, tuple(Field(g, v, is_density=True) for v in (i1, i2)),
                       Field(g, rng.random(g.n), is_density=True))


class TestRhs:
    def test_disease_free_is_equilibrium(self, fig1_problem):
        state = disease_free_state(fig1_problem)
        assert derivative_l1(fig1_problem, state) == 0.0

    def test_solver_equilibrium_nearly_stationary(self, fig1_problem, fig1_state):
        assert derivative_l1(fig1_problem, fig1_state) < 1e-9

    def test_pure_decay_without_infection(self, fig1_problem):
        g = fig1_problem.grid
        state = SystemState(
            S=np.array([0.5, 0.5]),
            I=tuple(Field(g, np.zeros(g.n), is_density=True) for _ in range(2)),
            A=Field(g, np.full(g.n, 0.7), is_density=True),
        )
        da = derivative(fig1_problem, state).A.values
        delta = fig1_problem.mp.delta
        assert np.max(np.abs(da + delta * 0.7)) < 1e-12

    @pytest.mark.parametrize("name, overlap", [("fig1", False), ("fig3", True)])
    def test_packed_matches_full_grid_equations(self, name, overlap):
        problem = build_problem(preset(name), 0.01)
        for seed in range(3):
            state = random_state(problem, seed)
            host_nodes = dyn._System(problem, state).host_nodes
            assert (host_nodes[0][-1] >= host_nodes[1][0]) == overlap
            d = derivative(problem, state)
            packed = (d.S, d.I[0].values, d.I[1].values, d.A.values)
            for got, want in zip(packed, full_grid_derivative(problem, state)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestHulls:
    def test_infected_start_off_beta_support_decays(self, fig1_problem):
        # I1 starts positive on x < 0.1, left of beta_1's support [0.2, 0.6]:
        # there dI1/dt = -(theta + d_1) I1 alone
        g = fig1_problem.grid
        off = g.nodes < 0.1
        init = disease_free_state(fig1_problem, bump=1e-3)
        init.I = (Field(g, np.where(off, 0.5 + g.nodes, 0.0), is_density=True), init.I[1])
        assert dyn._System(fig1_problem, init).host_nodes[0][0] == 0
        traj = integrate(fig1_problem, init, 1.0, 1e-2, sample_every=10**6)
        end = traj.terminal
        loss = fig1_problem.mp.theta + fig1_problem.host(1).d.values[off]
        exact = init.I[0].values[off] * np.exp(-loss * traj.t_end)
        assert np.max(np.abs(end.I[0].values[off] / exact - 1.0)) < 1e-12
        assert all(f.values.shape == (g.n,) for f in (*end.I, end.A))

    def test_host_without_beta_or_infection_packs_no_nodes(self, fig1_problem):
        g = fig1_problem.grid
        host2 = replace(fig1_problem.host(2), beta=Field(g, np.zeros(g.n)))
        problem = replace(fig1_problem, derived=(fig1_problem.host(1), host2))
        init = disease_free_state(problem, bump=1e-3)
        assert dyn._System(problem, init).host_nodes[1].size == 0
        end = integrate(problem, init, 0.1, 0.01).terminal
        assert end.I[1].values.shape == (g.n,) and not end.I[1].values.any()
        assert l1_norm(end.I[0]) > 0.0


class TestIntegrate:
    def test_constant_trajectory_from_equilibrium(self, fig1_problem):
        state = disease_free_state(fig1_problem)
        traj = integrate(fig1_problem, state, 1.0, 0.01, sample_every=10)
        assert traj.terminal.S[0] == pytest.approx(state.S[0], abs=1e-12)
        assert l1_norm(traj.terminal.A) == 0.0

    def test_extinction_below_threshold_dop853(self, fig1):
        problem = build_problem(fig1.scaled_beta(0.1), 0.02)
        init = disease_free_state(problem, bump=0.1)
        traj = integrate(problem, init, 60.0, 0.01, sample_every=500)
        masses = [s.a_mass for _, s in traj.samples]
        assert masses[-1] < 1e-8
        assert all(b <= a + 1e-14 for a, b in zip(masses[1:], masses[2:]))

    def test_convergence_to_endemic_state(self, endemic_rk4, fig1_state):
        assert l1_norm(endemic_rk4.terminal.A - fig1_state.A) < 1e-3
        assert endemic_rk4.negative_entries == 0

    def test_terminal_state_reconstruction_consistent(self, fig1_problem, endemic_rk4):
        redone = reconstruct(fig1_problem, endemic_rk4.terminal.A)
        assert redone.residual < 1e-3

    def test_step_halving_rk4_higher_order(self, fig1_problem):
        init = disease_free_state(fig1_problem, bump=0.05)
        t1 = rk4(fig1_problem, init, 2.0, 0.08)
        t2 = rk4(fig1_problem, init, 2.0, 0.04)
        ref = rk4(fig1_problem, init, 2.0, 0.002)
        e1 = l1_norm(t1.terminal.A - ref.terminal.A)
        e2 = l1_norm(t2.terminal.A - ref.terminal.A)
        assert e1 / e2 > 10.0  # order 4 would give 16; allow slack

    @pytest.mark.parametrize(
        "t_end, dt, sample_every",
        [(1.0, float("nan"), 100), (float("inf"), 0.01, 100), (-5.0, 0.01, 100),
         (1.0, 0.0, 100), (1.0, 0.01, 0), (1.0, 5e-324, 100), (1.0, 1e-300, 100),
         (1.0, 3.0, 100)],
    )
    def test_bad_schedule_rejected(self, fig1_problem, t_end, dt, sample_every):
        init = disease_free_state(fig1_problem)
        with pytest.raises(UsageError):
            integrate(fig1_problem, init, t_end, dt, sample_every=sample_every)

    def test_dop853_matches_rk4(self, fig1_problem):
        init = disease_free_state(fig1_problem, bump=1e-3)
        fixed = rk4(fig1_problem, init, 20.0, 0.01)
        adaptive = integrate(fig1_problem, init, 20.0, 0.01)
        assert state_l1(adaptive.terminal, fixed.terminal) < 1e-10
        assert (fixed.steps, fixed.rhs_evals, fixed.negative_entries) == (2000, 8000, 0)
        assert adaptive.rhs_evals < fixed.rhs_evals / 2

    def test_dop853_from_equilibrium_stays_there(self, fig1_problem, fig1_state):
        # an EquilibriumState is a SystemState: the dynamics start from it as it is
        end = integrate(fig1_problem, fig1_state, 1.0, 0.01).terminal
        assert l1_norm(end.A - fig1_state.A) < 1e-12
        assert np.abs(end.S - fig1_state.S).sum() < 1e-12

    def test_dop853_reaches_equilibrium(self, fig1_problem, fig1_state):
        # criterion 9's two assertions, under the adaptive stepper
        init = disease_free_state(fig1_problem, bump=1e-3)
        traj = integrate(fig1_problem, init, 200.0, 0.01, sample_every=2000)
        assert l1_norm(traj.terminal.A - fig1_state.A) < 1e-4
        assert traj.clip_events == 0

    def test_sample_times_exact(self, fig1_problem):
        init = disease_free_state(fig1_problem, bump=1e-3)
        traj = integrate(fig1_problem, init, 1.03, 0.005, sample_every=40)
        # round(1.03 / 0.005) = 206 steps: marks every 40 steps, then the end
        marks = [0, 40, 80, 120, 160, 200, 206]
        assert [t for t, _ in traj.samples] == [k * 0.005 for k in marks]
        assert traj.t_end == 206 * 0.005

    def test_dop853_step_underflow_raises(self, fig1_problem, monkeypatch):
        monkeypatch.setattr(dyn, "RTOL", 0.0)
        monkeypatch.setattr(dyn, "ATOL", 1e-100)
        init = disease_free_state(fig1_problem, bump=1e-3)
        with pytest.raises(DynamicsError, match="underflow"):
            integrate(fig1_problem, init, 1.0, 0.01)

    @staticmethod
    def undershoot(monkeypatch, depth):
        """dop853 replaced by an Euler step with zero error that leaves the last
        two spore nodes at -depth * NEGATIVE_SLACK."""
        def step(system, y, f, h):
            y_new = y + h * f
            y_new[-2:] = -depth * dyn.NEGATIVE_SLACK
            return y_new, system.rhs(y_new), 0.0

        monkeypatch.setattr(dyn, "_dop853", step)

    def test_undershoot_within_slack_clipped(self, fig1_problem, monkeypatch):
        # counted and set to zero after every step
        self.undershoot(monkeypatch, 0.5)
        init = disease_free_state(fig1_problem, bump=1e-3)
        traj = integrate(fig1_problem, init, 0.03, 0.01, sample_every=1)
        assert traj.steps == 3 and traj.clip_events == 6
        assert np.all(traj.terminal.A.values[-2:] == 0.0)
        assert np.all(traj.terminal.A.values[:-2] >= 0.0)

    def test_undershoot_past_slack_raises(self, fig1_problem, monkeypatch):
        self.undershoot(monkeypatch, 2.0)
        init = disease_free_state(fig1_problem, bump=1e-3)
        with pytest.raises(DynamicsError, match="went negative"):
            integrate(fig1_problem, init, 0.03, 0.01, sample_every=1)

    def test_samples_monotone_time(self, fig1_problem):
        init = disease_free_state(fig1_problem, bump=1e-3)
        traj = integrate(fig1_problem, init, 5.0, 0.01, sample_every=100)
        times = [t for t, _ in traj.samples]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(5.0, abs=1e-9)

    def test_dop853_accuracy_and_cost_at_benchmark(self, fig1_problem, monkeypatch):
        # the dynamics workload's run: fig1, eps = 1e-2, t = 100 from a 1e-3 bump
        init = disease_free_state(fig1_problem, bump=1e-3)
        traj = integrate(fig1_problem, init, 100.0, 0.01)
        monkeypatch.setattr(dyn, "RTOL", 1e-13)
        monkeypatch.setattr(dyn, "ATOL", 1e-15)
        tight = integrate(fig1_problem, init, 100.0, 0.01)
        assert state_l1(traj.terminal, tight.terminal) < 1e-12
        assert traj.rhs_evals < 3000
        assert traj.clip_events == 0
        # the full-grid run's step decisions: the packed state's error norm
        # divides by the full-grid length 3n + 2
        assert (traj.steps, traj.rejected_steps, traj.rhs_evals) == (228, 4, 2785)


def test_dop853_tableau_order_conditions():
    A, B = dyn._A, dyn._B
    C = A.sum(axis=1)
    for q in range(1, 9):
        assert B @ C ** (q - 1) == pytest.approx(1.0 / q, abs=1e-14)
    for q in range(1, 8):
        assert B @ (A @ C ** (q - 1)) == pytest.approx(1.0 / (q * (q + 1)), abs=1e-14)
    assert abs(dyn._E3.sum()) < 1e-14
    assert abs(dyn._E5.sum()) < 1e-14
    assert A.shape == (12, 12) and not np.triu(A).any()
