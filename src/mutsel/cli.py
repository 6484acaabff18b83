"""Command-line interface: spectra, equilibria, sweeps, dynamics, stability.

Each subcommand resolves a model (preset name or JSON config), runs the
corresponding solver and writes CSV/JSON artifacts plus a manifest echoing the
fully resolved configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eq
from . import model as mdl
from . import spectral as spec
from . import stability as stab
from . import dynamics as dyn
from .grid import Field, GridError, l1_norm

SCHEMA_VERSION = 1
DEFAULT_SWEEP = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]


# ---------------------------------------------------------------------------
# config resolution

def load_model_config(path: str) -> mdl.ModelParams:
    """Build model parameters from a JSON file.

    Expected shape::

        {"lambda": 1.0, "theta": 1.0, "delta": 1.0,
         "hosts": [{"xi": 0.5, "beta": "200*pos((x-0.2)*(0.6-x))",
                    "beta_support": [0.2, 0.6], "d": "0", "r": "1"}, ...]}
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        hosts = [
            mdl.HostParams(
                xi=float(h["xi"]),
                beta=mdl.compile_trait_expression(h["beta"]),
                beta_support=tuple(h["beta_support"]),
                d=mdl.compile_trait_expression(str(h.get("d", "0"))),
                r=mdl.compile_trait_expression(str(h.get("r", "1"))),
            )
            for h in raw["hosts"]
        ]
        if len(hosts) != 2:
            raise mdl.ModelError("config must define exactly two hosts")
        return mdl.ModelParams(
            lambda_=float(raw["lambda"]),
            theta=float(raw["theta"]),
            delta=float(raw["delta"]),
            hosts=(hosts[0], hosts[1]),
        )
    except (TypeError, ValueError) as exc:
        raise mdl.ModelError(f"invalid model config {path}: {exc}") from exc


def resolve_model(args) -> tuple[mdl.ModelParams, dict]:
    if args.preset and args.config:
        raise SystemExit2("--preset and --config are mutually exclusive")
    if args.preset:
        mp = mdl.preset(args.preset)
        source = {"preset": args.preset}
    elif args.config:
        mp = load_model_config(args.config)
        source = {"config": str(Path(args.config).resolve())}
    else:
        raise SystemExit2("one of --preset or --config is required")
    scale = getattr(args, "scale_beta", 1.0)
    if scale != 1.0:
        if scale <= 0:
            raise SystemExit2("--scale-beta must be positive")
        mp = mp.scaled_beta(scale)
        source["scale_beta"] = scale
    return mp, source


class SystemExit2(SystemExit):
    """Usage error: exit status 2, message on stderr."""

    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


# ---------------------------------------------------------------------------
# output helpers

def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_csv(path: Path, name: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema=mutsel.{name}.v{SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir: Path, command: str, source: dict, knobs: dict) -> None:
    write_json(outdir / "manifest.json", {"command": command, "model": source, "options": knobs})


def _eps_list(args) -> list[float]:
    eps = args.epsilon
    if not eps:
        raise SystemExit2("at least one --epsilon value is required")
    if not all(np.isfinite(e) and e > 0 for e in eps):
        raise SystemExit2("epsilon values must be finite and positive")
    return eps


def _host_diagnostics(problem, state, tol):
    """Host spectra, and the coupled state's distance from the single-host sum."""
    sp = tuple(spec.solve_host_spectrum(problem, k, tol=tol) for k in (1, 2))
    unc = tuple(eq.solve_uncoupled(problem, k, spectral=s) for k, s in zip((1, 2), sp))
    return sp, eq.superposition_error(problem, state.A, unc)


# ---------------------------------------------------------------------------
# subcommands

def _spectrum_entry(payload):
    mp, eps, host, n, tol = payload
    problem = mdl.build_problem(mp, eps, n=n)
    if host == 0:
        res = spec.solve_combined_spectrum(problem, tol=tol)
        lam2 = gap = float("nan")
    else:
        res = spec.solve_host_spectrum(problem, host, tol=tol, with_second=True)
        lam2, gap = res.lambda2, res.gap
    return [eps, res.lambda1, lam2, gap, res.residual, res.iterations, res.converged]


def cmd_spectrum(args) -> int:
    mp, source = resolve_model(args)
    eps_list = _eps_list(args)
    outdir = _outdir(args)
    payloads = [(mp, e, args.host, args.n, args.tol) for e in eps_list]
    rows = _run_parallel(_spectrum_entry, payloads, args.jobs)
    write_csv(
        outdir / "spectrum.csv",
        "spectrum",
        ["epsilon", "lambda1", "lambda2", "gap", "residual", "iterations", "converged"],
        rows,
    )
    summary = {"rows": len(rows)}
    exponent = spec.gap_exponent([r[0] for r in rows], [r[3] for r in rows])
    if exponent is not None:
        summary["gap_exponent"] = exponent
    write_manifest(outdir, "spectrum", source, _knobs(args, epsilon=eps_list))
    write_json(outdir / "spectrum_summary.json", summary)
    failed = [r for r in rows if not r[6]]
    if failed and not args.allow_partial:
        print(f"error: {len(failed)} spectral solve(s) did not converge", file=sys.stderr)
        return 1
    for r in rows:
        print(f"epsilon={r[0]:g} lambda1={r[1]:.12g}")
    return 0


def cmd_equilibrium(args) -> int:
    mp, source = resolve_model(args)
    eps = _eps_list(args)[0]
    outdir = _outdir(args)
    problem = mdl.build_problem(mp, eps, n=args.n)
    if args.stability:
        stab.check_dense_size(problem)
    tol = args.tol

    states = []
    rng = np.random.default_rng(args.seed)
    starts = max(1, args.starts)
    for i in range(starts):
        if i == 0:
            start = None
        else:
            vals = rng.random(problem.grid.n) + 1e-3
            start = Field(problem.grid, vals / float(np.sum(problem.grid.quad_weights * vals)))
        states.append(eq.solve_coupled(problem, start=start, tol=tol))
    state = states[0]
    spread = max(l1_norm(s.A - state.A) for s in states) if starts > 1 else 0.0

    if not state.converged and not args.allow_partial:
        write_csv(
            outdir / "residual_history.csv",
            "residuals",
            ["iteration", "residual"],
            [[i, r] for i, r in enumerate(state.residual_history)],
        )
        print("error: coupled solve did not converge", file=sys.stderr)
        return 1

    sp, sup = _host_diagnostics(problem, state, tol)
    pin = eq.mu_pinning_check(problem, state, sp)
    low = eq.lower_bound_check(problem, state, sp)
    row = eq.concentration_row(problem, state)

    write_csv(
        outdir / "equilibrium_fields.csv",
        "fields",
        ["x", "A", "I1", "I2"],
        [
            [x, a, i1, i2]
            for x, a, i1, i2 in zip(
                problem.grid.nodes, state.A.values, state.I1.values, state.I2.values
            )
        ],
    )
    diagnostics = {
        "classification": state.classification,
        "residual": state.residual,
        "iterations": state.iterations,
        "S1": state.S1,
        "S2": state.S2,
        "mu1": state.mu1,
        "mu2": state.mu2,
        "masses": {
            "I1": row.i1_mass,
            "I2": row.i2_mass,
            "A": row.a_mass,
            "xA": row.a_first_moment,
        },
        "a_argmax": row.a_argmax,
        "multistart_spread": spread,
        "superposition": vars(sup),
        "pinning": [vars(p) for p in pin],
        "lower_bounds": [
            {"host": k, "beta_mass": m, "bound": b, "ok": ok} for k, m, b, ok in low
        ],
    }
    if args.stability:
        rep = stab.stability_report(problem, state.A, tol=max(10 * tol, 1e-8))
        diagnostics["stability"] = {
            "spectral_radius": rep.spectral_radius,
            "stable": rep.stable,
            "eigenvalues": [
                {"re": float(z.real), "im": float(z.imag)} for z in rep.eigenvalues[:20]
            ],
        }
    write_json(outdir / "equilibrium.json", diagnostics)
    write_manifest(
        outdir, "equilibrium", source,
        _knobs(args, epsilon=[eps], starts=starts, seed=args.seed, stability=args.stability),
    )
    print(
        f"classification={state.classification} A_mass={row.a_mass:.6g} "
        f"argmax={row.a_argmax:.4g}"
    )
    return 0


def _sweep_entry(payload):
    mp, eps, n, tol = payload
    problem = mdl.build_problem(mp, eps, n=n)
    state = eq.solve_coupled(problem, tol=tol)
    _, sup = _host_diagnostics(problem, state, tol)
    row = eq.concentration_row(problem, state)
    targets = eq.concentration_targets(problem)
    return row, sup, state.converged, targets


def cmd_sweep(args) -> int:
    mp, source = resolve_model(args)
    eps_list = _eps_list(args) if args.epsilon else DEFAULT_SWEEP
    outdir = _outdir(args)
    payloads = [(mp, e, args.n, args.tol) for e in sorted(eps_list, reverse=True)]
    results = _run_parallel(_sweep_entry, payloads, args.jobs)
    conv_rows = []
    sup_rows = []
    failures = 0
    targets = results[-1][3]
    for row, sup, converged, _ in results:
        conv_rows.append(
            [row.eps, row.s1, row.s2, row.i1_mass, row.i2_mass, row.a_mass,
             row.a_first_moment, row.a_argmax, converged]
        )
        sup_rows.append([row.eps, sup.e_total, sup.e_sigma1, sup.e_sigma2, sup.e_complement])
        failures += 0 if converged else 1
    write_csv(
        outdir / "concentration.csv",
        "concentration",
        ["epsilon", "S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_first_moment",
         "A_argmax", "converged"],
        conv_rows,
    )
    write_csv(
        outdir / "superposition.csv",
        "superposition",
        ["epsilon", "e_total", "e_sigma1", "e_sigma2", "e_complement"],
        sup_rows,
    )
    write_json(
        outdir / "targets.json",
        {
            "S1": targets.s[0], "S2": targets.s[1],
            "I1_mass": targets.infected_mass[0], "I2_mass": targets.infected_mass[1],
            "A_mass": targets.a_mass, "A_first_moment": targets.a_first_moment,
        },
    )
    write_manifest(outdir, "sweep", source, _knobs(args, epsilon=eps_list))
    if failures and not args.allow_partial:
        print(f"error: {failures} sweep entr(ies) did not converge", file=sys.stderr)
        return 1
    print(f"sweep complete: {len(conv_rows)} rows -> {outdir}")
    return 0


def cmd_dynamics(args) -> int:
    mp, source = resolve_model(args)
    eps = _eps_list(args)[0]
    outdir = _outdir(args)
    problem = mdl.build_problem(mp, eps, n=args.n)
    if args.method == "euler" and args.dt >= dyn.max_stable_dt(problem):
        raise SystemExit2(
            f"dt={args.dt} violates the explicit-Euler stability bound "
            f"{dyn.max_stable_dt(problem):.3g}"
        )
    init = dyn.disease_free_state(problem, bump=args.bump)
    try:
        traj = dyn.integrate(
            problem, init, args.t_end, args.dt, method=args.method,
            sample_every=args.sample_every,
        )
    except dyn.DynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_csv(
        outdir / "trajectory.csv",
        "trajectory",
        ["t", "S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_argmax"],
        [[s.t, s.s1, s.s2, s.i1_mass, s.i2_mass, s.a_mass, s.a_argmax]
         for s in traj.samples],
    )
    state = eq.solve_coupled(problem, tol=args.tol)
    dist = dyn.distance_to_equilibrium(traj.terminal, state.A)
    write_json(
        outdir / "dynamics_summary.json",
        {
            "terminal_time": traj.terminal.t,
            "terminal_a_mass": l1_norm(traj.terminal.A),
            "distance_to_equilibrium": dist,
            "equilibrium_classification": state.classification,
            "clip_events": traj.clip_events,
            "steps": traj.steps,
        },
    )
    write_manifest(
        outdir, "dynamics", source,
        _knobs(args, epsilon=[eps], t_end=args.t_end, dt=args.dt, method=args.method,
               bump=args.bump),
    )
    print(f"terminal distance to equilibrium: {dist:.6g}")
    return 0


def cmd_stability(args) -> int:
    mp, source = resolve_model(args)
    eps = _eps_list(args)[0]
    outdir = _outdir(args)
    problem = mdl.build_problem(mp, eps, n=args.n)
    stab.check_dense_size(problem)
    state = eq.solve_coupled(problem, tol=args.tol)
    if not state.converged and not args.allow_partial:
        print("error: coupled solve did not converge", file=sys.stderr)
        return 1
    rep = stab.stability_report(problem, state.A, tol=max(10 * args.tol, 1e-8))
    write_json(
        outdir / "stability.json",
        {
            "classification": state.classification,
            "spectral_radius": rep.spectral_radius,
            "stable": rep.stable,
            "is_fixed_point": rep.is_fixed_point,
            "eigenvalues": [
                {"re": float(z.real), "im": float(z.imag)} for z in rep.eigenvalues
            ],
        },
    )
    write_manifest(outdir, "stability", source, _knobs(args, epsilon=[eps]))
    print(f"spectral radius {rep.spectral_radius:.6g} -> {'stable' if rep.stable else 'unstable'}")
    return 0


# ---------------------------------------------------------------------------
# plumbing

def _run_parallel(fn, payloads, jobs):
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


def _knobs(args, **extra) -> dict:
    knobs = {
        "n": args.n,
        "tol": args.tol,
        "jobs": args.jobs,
        "allow_partial": args.allow_partial,
        "output_dir": str(Path(args.output_dir).resolve()),
    }
    knobs.update(extra)
    return knobs


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["fig1", "fig2", "fig3"])
    p.add_argument("--config", help="JSON model-parameter file")
    p.add_argument("--epsilon", type=float, action="append", default=[],
                   help="mutation width (repeatable)")
    p.add_argument("--n", type=int, default=None, help="grid node count override")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--scale-beta", type=float, default=1.0,
                   help="multiply both infection efficiencies")
    p.add_argument("--jobs", type=int,
                   default=int(os.environ.get("MUTSEL_JOBS", "1")))
    p.add_argument("--allow-partial", action="store_true",
                   help="exit 0 even when some entries fail to converge")
    p.add_argument("--output-dir", default="mutsel-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutsel",
        description="Steady states, spectra and mutation-limit diagnostics "
                    "for a two-host nonlocal selection-mutation model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="principal eigenvalues and spectral gaps")
    _add_common(p)
    p.add_argument("--host", type=int, choices=[0, 1, 2], default=1,
                   help="host operator (0 = combined)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("equilibrium", help="coupled steady state and diagnostics")
    _add_common(p)
    p.add_argument("--starts", type=int, default=1,
                   help="number of random starts (first uses the default start)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stability", action="store_true",
                   help="append the linearized-stability report")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sweep", help="mutation-width sweep tables")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", help="time integration toward equilibrium")
    _add_common(p)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--method", choices=["euler", "rk4"], default="rk4")
    p.add_argument("--bump", type=float, default=1e-3,
                   help="initial spore-mass perturbation")
    p.add_argument("--sample-every", type=int, default=100)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("stability", help="linearized stability at the steady state")
    _add_common(p)
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2:
        raise
    except (
        mdl.ModelError, GridError, stab.StabilityError,
        FileNotFoundError, KeyError, json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
