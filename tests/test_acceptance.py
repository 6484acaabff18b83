"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 checks that host 1's principal eigenvalue in fig1 approaches its
small-mutation limit, the fitness maximum w_max = 4, at the rate the
asymptotics give.  With w = psi_1 / 2 = 4 - 100 (x - 0.4)^2 and the Laplace
kernel's second moment mu_2 = 2, the symmetrized operator near the maximum is
w_max - (|w''|/2) y^2 + (w_max mu_2 eps^2 / 2) d^2/dy^2, a harmonic oscillator
whose ground energy gives

    4 - lambda_1(eps) = c * eps + O(eps^2),  c = sqrt(mu_2 w_max |w''|) / 2 = 20.

The distance to the limit is therefore first order (about 0.1 at
eps = 0.005), so the criterion asserts the limit through the first-order
Richardson extrapolant 2 lambda_1(0.005) - lambda_1(0.01), within 0.005 of 4,
and the rate through (4 - lambda_1) / eps, which must increase along the
sweep and lie within 2% of c = 20 at eps = 0.005.
"""

import time

import numpy as np
import pytest

from mutsel.grid import Field, l1_norm
from mutsel.model import build_problem, preset, scale_kernel
from mutsel.operators import (
    ConvolutionEngine,
    host_operator,
    mass_bound,
    update_map,
)
from mutsel.spectral import (
    principal_eigenpair,
    solve_combined_spectrum,
    solve_host_spectrum,
    symmetric_spectrum,
)
from mutsel.equilibrium import (
    concentration_row,
    concentration_targets,
    lower_bound_check,
    mu_pinning_check,
    solve_coupled,
    solve_uncoupled,
    superposition_error,
)
from mutsel.stability import stability_report, uncoupled_derivative_spectrum
from mutsel.dynamics import disease_free_state, integrate


def report(num: int, title: str, checks: list[tuple[str, bool]]):
    ok = all(c[1] for c in checks)
    verdict = "PASS" if ok else "FAIL"
    failed = ", ".join(c[0] for c in checks if not c[1])
    suffix = f" [failed: {failed}]" if failed else ""
    print(f"ACCEPTANCE {num:2d} [{verdict}] {title}{suffix}")
    assert ok, f"criterion {num} ({title}): failed sub-checks: {failed}"


@pytest.fixture(scope="module")
def fig1():
    return preset("fig1")


@pytest.fixture(scope="module")
def fig1_small(fig1):
    """fig1 at the preset mutation width 1e-3 on the default (8193-node) grid."""
    problem = build_problem(fig1, 1e-3)
    state = solve_coupled(problem, tol=1e-10)
    return problem, state


# Host 1's small-mutation limit w_max and the first-order coefficient c in
# 4 - lambda_1(eps) = c * eps + O(eps^2).  Near the nondegenerate maximum of
# w = 4 - 100 (x - 0.4)^2 the kernel acts as 1 + (mu_2 eps^2 / 2) d^2/dx^2, so
# the symmetrized operator is a harmonic oscillator with ground energy
# c * eps, c = sqrt(mu_2 * w_max * |w''|) / 2 = sqrt(2 * 4 * 200) / 2 = 20.
SPECTRAL_LIMIT = 4.0
SPECTRAL_RATE = 20.0


def test_criterion_1_spectral_limit(fig1):
    checks = []
    widths = (0.05, 0.02, 0.01, 0.005)
    lams = []
    for eps in widths:
        t0 = time.perf_counter()
        problem = build_problem(fig1, eps, n=4096)
        res = solve_host_spectrum(problem, 1)
        elapsed = time.perf_counter() - t0
        lams.append(res.lambda1)
        checks.append((f"converged@{eps}", res.converged))
        checks.append((f"runtime@{eps}<30s", elapsed < 30.0))
    checks.append(("monotone increase", lams == sorted(lams)))
    checks.append(("below limit 4", all(l < SPECTRAL_LIMIT for l in lams)))
    # the O(eps) terms cancel in the extrapolant; what is left is ~100 eps^2
    extrapolant = 2.0 * lams[-1] - lams[-2]
    checks.append(("|2 r(0.005) - r(0.01) - 4| < 0.005",
                   abs(extrapolant - SPECTRAL_LIMIT) < 0.005))
    rates = [(SPECTRAL_LIMIT - l) / eps for l, eps in zip(lams, widths)]
    checks.append(("(4-r)/eps increasing, within 2% of 20 at eps=0.005",
                   rates == sorted(rates)
                   and abs(rates[-1] - SPECTRAL_RATE) < 0.02 * SPECTRAL_RATE))
    coarse = build_problem(fig1, 0.05, n=512)
    op = host_operator(coarse, 1)
    power = principal_eigenpair(op, tol=1e-12)
    dense = symmetric_spectrum(op, 1)[0]
    checks.append(("dense vs power 1e-8", abs(power.lambda1 - dense) < 1e-8))
    report(1, "spectral radius approaches its limit", checks)


def test_criterion_2_threshold_dichotomy(fig1, fig1_small):
    scaled = build_problem(fig1.scaled_beta(0.1), 1e-3)
    dfree = solve_coupled(scaled, tol=1e-10)
    _, endemic = fig1_small
    report(2, "extinction/endemic threshold dichotomy", [
        ("scaled-down run disease_free", dfree.classification == "disease_free"),
        ("scaled-down mass < 1e-8", l1_norm(dfree.A) < 1e-8),
        ("unscaled run endemic", endemic.classification == "endemic"),
    ])


def test_criterion_3_concentration_limits(fig1_small):
    problem, state = fig1_small
    t0 = time.perf_counter()
    row = concentration_row(problem, state)
    targets = concentration_targets(problem)
    pairs = [
        ("S1", row.s1, targets.s[0]),
        ("S2", row.s2, targets.s[1]),
        ("I1 mass", row.i1_mass, targets.infected_mass[0]),
        ("I2 mass", row.i2_mass, targets.infected_mass[1]),
        ("A mass", row.a_mass, targets.a_mass),
        ("A first moment", row.a_first_moment, targets.a_first_moment),
    ]
    checks = [(name, abs(got - want) / want < 0.05) for name, got, want in pairs]
    checks.append(("runtime<5min", time.perf_counter() - t0 < 300.0))
    report(3, "closed-form small-mutation limits within 5%", checks)


def test_criterion_4_superposition(fig1):
    checks = []
    prev = np.inf
    rel = np.inf
    for eps in (0.05, 0.02, 0.01, 0.005):
        problem = build_problem(fig1, eps)
        state = solve_coupled(problem, tol=1e-12)
        unc = (solve_uncoupled(problem, 1), solve_uncoupled(problem, 2))
        sup = superposition_error(problem, state.A, unc)
        rel = sup.e_total / l1_norm(state.A)
        checks.append((f"decreasing@{eps}", rel < prev))
        prev = rel
    checks.append(("rel error < 1e-3 at eps=0.005", rel < 1e-3))
    fig2 = preset("fig2")
    p2 = build_problem(fig2, 0.005)
    st2 = solve_coupled(p2, tol=1e-12)
    lo, hi = p2.host(2).sigma_support
    mass2 = float(np.sum(p2.grid.quad_weights[lo : hi + 1] * np.abs(st2.A.values[lo : hi + 1])))
    checks.append(("fig2 mass on support 2 < 1e-4", mass2 < 1e-4))
    report(4, "single-host superposition of the coupled state", checks)


def test_criterion_5_lower_bound(fig1, fig1_small):
    checks = []
    for eps, bundle in ((1e-3, fig1_small), (0.01, None)):
        if bundle is None:
            problem = build_problem(fig1, eps)
            state = solve_coupled(problem, tol=1e-10)
        else:
            problem, state = bundle
        for k, mass, bound, ok in lower_bound_check(problem, state):
            checks.append((f"host{k}@{eps}", ok))
    report(5, "infection-pressure lower bound at endemic states", checks)


def test_criterion_6_mu_pinning(fig1):
    problem = build_problem(fig1, 0.005)
    state = solve_coupled(problem, tol=1e-12)
    checks = []
    for rep in mu_pinning_check(problem, state):
        checks.append((f"host{rep.host} inequality", rep.inequality_ok))
        checks.append((f"host{rep.host} |gap|<1e-4", abs(rep.signed_gap) < 1e-4))
    checks.append(("two hosts reported", len(checks) == 4))
    report(6, "saturation rate pins the principal eigenvalue", checks)


def test_criterion_7_stability(fig1):
    checks = []
    for name in ("fig1", "fig2"):
        problem = build_problem(preset(name), 0.01)
        checks.append((f"{name} grid within dense budget", problem.grid.n <= 2048))
        state = solve_coupled(problem, tol=1e-12)
        rep = stability_report(problem, state.A)
        checks.append((f"{name} endemic spectrum inside unit disc", rep.stable))
    problem = build_problem(fig1, 0.01)
    zero = Field(problem.grid, np.zeros(problem.grid.n))
    rep0 = stability_report(problem, zero)
    lam = solve_combined_spectrum(problem, tol=1e-12).lambda1
    checks.append(("extinction radius matches operator 1e-6",
                   abs(rep0.spectral_radius - lam) < 1e-6))
    coarse = build_problem(fig1, 0.05, n=512)
    sol = solve_uncoupled(coarse, 1)
    us = uncoupled_derivative_spectrum(coarse, sol, count=10)
    checks.append(("uncoupled formula vs matrix 1e-6 (top 10)", us.max_mismatch < 1e-6))
    report(7, "linearized stability of steady states", checks)


def test_criterion_8_multistart_uniqueness(fig1_small):
    problem, reference = fig1_small
    rng = np.random.default_rng(2024)
    spread = 0.0
    for _ in range(10):
        vals = rng.random(problem.grid.n) + 1e-3
        start = Field(
            problem.grid, vals / float(np.sum(problem.grid.quad_weights * vals))
        )
        state = solve_coupled(problem, start=start, tol=1e-10)
        spread = max(spread, l1_norm(state.A - reference.A))
    report(8, "seeded multistart solutions coincide", [
        ("10 starts within 1e-6 L1", spread < 1e-6),
    ])


def test_criterion_9_dynamics_consistency(fig1):
    problem = build_problem(fig1, 0.01)
    state = solve_coupled(problem, tol=1e-12)
    init = disease_free_state(problem, bump=1e-3)
    traj = integrate(problem, init, 200.0, 0.01, method="rk4", sample_every=2000)
    dist = l1_norm(traj.terminal.A - state.A)
    report(9, "trajectory reaches the solver equilibrium", [
        ("distance < 1e-4 at t=200", dist < 1e-4),
        ("no clipping events", traj.clip_events == 0),
    ])


def test_criterion_10_overlapping_supports_argmax():
    problem = build_problem(preset("fig3"), 1e-3)
    state = solve_coupled(problem, tol=1e-10)
    idx = int(np.argmax(state.A.values))
    argmax = float(problem.grid.nodes[idx])
    report(10, "overlapping-support concentration location", [
        ("endemic", state.classification == "endemic"),
        ("argmax in [0.642, 0.662]", 0.642 <= argmax <= 0.662),
    ])


def test_criterion_11_property_suites(fig1):
    checks = []
    problem = build_problem(fig1, 0.01)
    grid = problem.grid
    rng = np.random.default_rng(11)

    engine = ConvolutionEngine(problem.kernel)
    toeplitz = engine.dense_matrix(np.ones(grid.n))
    worst = 0.0
    for _ in range(10):
        f = Field(grid, rng.random(grid.n), is_density=True)
        a = Field(grid, toeplitz @ f.values)
        b = Field(grid, engine.convolve_values(f.values))
        worst = max(worst, l1_norm(a - b) / l1_norm(a))
    checks.append(("backend cross-agreement 1e-10", worst < 1e-10))

    k = scale_kernel(0.01, grid)
    mass = grid.h * (k.samples.sum() - 0.5 * k.samples[0] - 0.5 * k.samples[-1])
    checks.append(("kernel unit mass", abs(mass - 1.0) < 1e-12))

    bound = mass_bound(problem)
    tmap = update_map(problem)
    positive = True
    bounded = True
    for _ in range(100):
        f = Field(grid, rng.random(grid.n), is_density=True)
        out = tmap.apply(f)
        positive &= bool(np.all(out.values >= 0.0))
        bounded &= l1_norm(out) <= bound + 1e-12
    checks.append(("update positivity on 100 random fields", positive))
    checks.append(("update mass bound on 100 random fields", bounded))

    a = rng.random(grid.n)
    h = rng.standard_normal(grid.n)
    delta = 1e-7
    fd = (tmap.apply_values(a + delta * h) - tmap.apply_values(a - delta * h)) / (
        2 * delta
    )
    an = tmap.linearization(a).matvec(h)
    rel = float(
        np.sum(grid.quad_weights * np.abs(fd - an))
        / np.sum(grid.quad_weights * np.abs(an))
    )
    checks.append(("derivative vs central differences 1e-6", rel < 1e-6))

    scalars = []
    for padding in (None, 0.4):  # default padding is 0.2 at this width
        p = build_problem(fig1, 0.01, padding=padding)
        st = solve_coupled(p, tol=1e-12)
        row = concentration_row(p, st)
        lam1 = solve_host_spectrum(p, 1, tol=1e-12).lambda1
        lam2 = solve_host_spectrum(p, 2, tol=1e-12).lambda1
        scalars.append([
            row.s1, row.s2, row.i1_mass, row.i2_mass, row.a_mass,
            row.a_first_moment, row.a_argmax, st.mu1, st.mu2, lam1, lam2,
        ])
    drift = max(abs(x - y) for x, y in zip(*scalars))
    checks.append(("padding doubling drift < 1e-6", drift < 1e-6))

    report(11, "cross-backend, positivity, derivative and truncation audits", checks)
