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
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import equilibrium as eq
from . import model as mdl
from . import spectral as spec
from . import stability as stab
from . import dynamics as dyn
from .grid import Field, GridError, l1_norm

SCHEMA_VERSION = 1
DEFAULT_SWEEP = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
# parsed options the manifest leaves out: the subcommand's own, and the model
# source, which goes under "model"
NOT_OPTIONS = {"command", "func", "preset", "config", "scale_beta"}


# ---------------------------------------------------------------------------
# config resolution

def load_model_config(path: str) -> mdl.ModelParams:
    """Model parameters from a JSON model document (see ``mdl.model_from_dict``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return mdl.model_from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
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
        if not (np.isfinite(scale) and scale > 0):
            raise SystemExit2(f"--scale-beta must be finite and positive, got {scale}")
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit2(f"cannot create output directory {out}: {exc}") from None
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


def write_manifest(outdir: Path, args, source: dict) -> None:
    """Every parsed option but the model source, with the output directory and
    the widths resolved (sweep's default list when none is given)."""
    options = {k: v for k, v in vars(args).items() if k not in NOT_OPTIONS}
    options["output_dir"] = str(Path(args.output_dir).resolve())
    options["epsilon"] = args.epsilon or DEFAULT_SWEEP
    versions = {"mutsel": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    write_json(outdir / "manifest.json",
               {"command": args.command, "model": source, "options": options,
                "versions": versions})


def _eps_list(args) -> list[float]:
    eps = args.epsilon
    if not eps:
        raise SystemExit2("at least one --epsilon value is required")
    if not all(np.isfinite(e) and e > 0 for e in eps):
        raise SystemExit2("epsilon values must be finite and positive")
    if len(set(eps)) != len(eps):
        raise SystemExit2(f"repeated --epsilon value in {eps}")
    return eps


def _unconverged(args, outdir: Path, states) -> bool:
    """Report coupled solves that did not converge; True means exit with status 1.

    The residual histories of the failed solves go to ``residual_history.csv``;
    with ``--allow-partial`` the failure is let through.
    """
    failed = [(i, s) for i, s in enumerate(states) if not s.converged]
    if not failed or args.allow_partial:
        return False
    write_csv(
        outdir / "residual_history.csv",
        "residuals",
        ["start", "iteration", "residual"],
        [
            [i, s.iterations - len(s.residual_history) + 1 + j, r]
            for i, s in failed
            for j, r in enumerate(s.residual_history)
        ],
    )
    print(f"error: {len(failed)} coupled solve(s) did not converge", file=sys.stderr)
    return True


def _steady_states(args, starts: int = 1, seed: int = 0):
    """The set-up of the one-width commands: ``(source, outdir, problem, states)``,
    the coupled solves from the default start and ``starts - 1`` seeded random
    starts, with ``states`` None when one did not converge (exit status 1)."""
    mp, source = resolve_model(args)
    eps = _eps_list(args)
    if len(eps) != 1:
        raise SystemExit2(f"{args.command} takes exactly one --epsilon, got {len(eps)}")
    outdir = _outdir(args)
    problem = mdl.build_problem(mp, eps[0], n=args.n)
    rng = np.random.default_rng(seed)
    states = []
    for i in range(starts):
        start = None
        if i:
            vals = rng.random(problem.grid.n) + 1e-3
            start = Field(problem.grid, vals / float(np.sum(problem.grid.quad_weights * vals)))
        states.append(eq.solve_coupled(problem, start=start, tol=args.tol))
    return source, outdir, problem, None if _unconverged(args, outdir, states) else states


def _merged(warning_lists) -> list[str]:
    """The distinct model-assumption warnings of several problems, in first-seen order."""
    return list(dict.fromkeys(w for ws in warning_lists for w in ws))


def _stability_fields(rep) -> dict:
    return {
        "spectral_radius": rep.spectral_radius,
        "stable": rep.stable,
        "error_bound": rep.error_bound,
        "eigenvalues": [{"re": float(z.real), "im": float(z.imag)} for z in rep.eigenvalues],
    }


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
    row = [eps, res.lambda1, lam2, gap, res.residual, res.iterations, res.converged]
    return row, res.degenerate, problem.assumption_warnings


def cmd_spectrum(args) -> int:
    mp, source = resolve_model(args)
    eps_list = _eps_list(args)
    outdir = _outdir(args)
    payloads = [(mp, e, args.host, args.n, args.tol) for e in eps_list]
    results = _run_parallel(_spectrum_entry, payloads, args.jobs)
    rows = [row for row, _, _ in results]
    write_csv(
        outdir / "spectrum.csv",
        "spectrum",
        ["epsilon", "lambda1", "lambda2", "gap", "residual", "iterations", "converged"],
        rows,
    )
    summary = {"rows": len(rows), "assumption_warnings": _merged([w for *_, w in results])}
    if args.host:  # the combined operator's second eigenvalue is not computed
        summary["degenerate"] = any(d for _, d, _ in results)
    exponent = spec.gap_exponent([r[0] for r in rows], [r[3] for r in rows])
    if exponent is not None:
        summary["gap_exponent"] = exponent
    write_manifest(outdir, args, source)
    write_json(outdir / "spectrum_summary.json", summary)
    failed = [r for r in rows if not r[6]]
    if failed and not args.allow_partial:
        print(f"error: {len(failed)} spectral solve(s) did not converge", file=sys.stderr)
        return 1
    for r in rows:
        print(f"epsilon={r[0]:g} lambda1={r[1]:.12g}")
    return 0


def cmd_equilibrium(args) -> int:
    if args.seed < 0:
        raise SystemExit2(f"--seed must be nonnegative, got {args.seed}")
    if args.starts < 1:
        raise SystemExit2(f"--starts must be at least 1, got {args.starts}")
    source, outdir, problem, states = _steady_states(args, args.starts, args.seed)
    if states is None:
        return 1
    state = states[0]
    spread = max(l1_norm(s.A - state.A) for s in states)
    unc = (eq.solve_uncoupled(problem, 1), eq.solve_uncoupled(problem, 2))
    sup = eq.superposition_error(problem, state.A, unc)
    pin = eq.mu_pinning_check(problem, state)
    low = eq.lower_bound_check(problem, state)
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
        "restarts": state.restarts,
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
        "assumption_warnings": problem.assumption_warnings,
    }
    if args.stability:
        rep = stab.stability_report(problem, state.A, tol=max(10 * args.tol, 1e-8))
        diagnostics["stability"] = _stability_fields(rep)
    write_json(outdir / "equilibrium.json", diagnostics)
    write_manifest(outdir, args, source)
    print(
        f"classification={state.classification} A_mass={row.a_mass:.6g} "
        f"argmax={row.a_argmax:.4g}"
    )
    return 0


def _sweep_entry(payload):
    mp, eps, n, tol = payload
    problem = mdl.build_problem(mp, eps, n=n)
    state = eq.solve_coupled(problem, tol=tol)
    unc = (eq.solve_uncoupled(problem, 1), eq.solve_uncoupled(problem, 2))
    sup = eq.superposition_error(problem, state.A, unc)
    row = eq.concentration_row(problem, state)
    targets = eq.concentration_targets(problem)
    return row, sup, state.converged, targets, problem.assumption_warnings


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
    for row, sup, converged, *_ in results:
        conv_rows.append(
            [row.eps, row.s1, row.s2, row.i1_mass, row.i2_mass, row.a_mass,
             row.a_first_moment, row.a_argmax, converged]
        )
        sup_rows.append([row.eps, sup.e_total, sup.e_sigma1, sup.e_sigma2, sup.e_complement])
        failures += 0 if converged else 1
    header = ["epsilon", "S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_first_moment",
              "A_argmax", "converged"]
    write_csv(outdir / "concentration.csv", "concentration", header, conv_rows)
    write_csv(
        outdir / "superposition.csv",
        "superposition",
        ["epsilon", "e_total", "e_sigma1", "e_sigma2", "e_complement"],
        sup_rows,
    )
    limits = {
        "S1": targets.s[0], "S2": targets.s[1],
        "I1_mass": targets.infected_mass[0], "I2_mass": targets.infected_mass[1],
        "A_mass": targets.a_mass, "A_first_moment": targets.a_first_moment,
    }
    if len(conv_rows) >= 2:
        # Richardson extrapolant (f b - a)/(f - 1), f = eps_1/eps_0, from the
        # two smallest widths eps_1 > eps_0 (rows a and b)
        a, b = conv_rows[-2], conv_rows[-1]
        f = a[0] / b[0]
        limits["extrapolated"] = {
            name: (f * y - x) / (f - 1.0) for name, x, y in zip(header[1:7], a[1:7], b[1:7])
        }
        limits["extrapolated"]["A_argmax"] = b[7]
    limits["assumption_warnings"] = _merged([w for *_, w in results])
    write_json(outdir / "targets.json", limits)
    write_manifest(outdir, args, source)
    if failures and not args.allow_partial:
        print(f"error: {failures} sweep entr(ies) did not converge", file=sys.stderr)
        return 1
    print(f"sweep complete: {len(conv_rows)} rows -> {outdir}")
    return 0


def cmd_dynamics(args) -> int:
    dyn.check_schedule(args.t_end, args.dt, args.sample_every)
    source, outdir, problem, states = _steady_states(args)
    if states is None:
        return 1
    state = states[0]
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
    dist = l1_norm(traj.terminal.A - state.A)
    write_json(
        outdir / "dynamics_summary.json",
        {
            "terminal_time": traj.terminal.t,
            "terminal_a_mass": l1_norm(traj.terminal.A),
            "distance_to_equilibrium": dist,
            "equilibrium_classification": state.classification,
            "clip_events": traj.clip_events,
            "method": traj.method,
            "steps": traj.steps,
            "rejected_steps": traj.rejected_steps,
            "rhs_evals": traj.rhs_evals,
            "assumption_warnings": problem.assumption_warnings,
        },
    )
    write_manifest(outdir, args, source)
    print(f"terminal distance to equilibrium: {dist:.6g}")
    return 0


def cmd_stability(args) -> int:
    source, outdir, problem, states = _steady_states(args)
    if states is None:
        return 1
    state = states[0]
    rep = stab.stability_report(problem, state.A, tol=max(10 * args.tol, 1e-8))
    write_json(
        outdir / "stability.json",
        {
            "classification": state.classification,
            "is_fixed_point": rep.is_fixed_point,
            **_stability_fields(rep),
            "assumption_warnings": problem.assumption_warnings,
        },
    )
    write_manifest(outdir, args, source)
    print(f"spectral radius {rep.spectral_radius:.6g} -> {'stable' if rep.stable else 'unstable'}")
    return 0


# ---------------------------------------------------------------------------
# plumbing

def _run_parallel(fn, payloads, jobs):
    if jobs == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # the pool forks all its workers at the first submit, so fork no idle ones
    workers = min(jobs, len(payloads))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["fig1", "fig2", "fig3"])
    p.add_argument("--config", help="JSON model-parameter file")
    p.add_argument("--epsilon", type=float, action="append", default=[],
                   help="mutation width (repeatable)")
    p.add_argument("--n", type=int, default=None, help="grid node count override")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--scale-beta", type=float, default=1.0,
                   help="multiply both infection efficiencies")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for sweep and spectrum (default: $MUTSEL_JOBS or 1)")
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
    p.add_argument("--dt", type=float, default=0.01,
                   help="step of rk4; first step of dop853; "
                        "samples are --sample-every * dt apart")
    p.add_argument("--method", choices=list(dyn.STEPPERS), default="dop853")
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
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise SystemExit2(f"--tol must be finite and positive, got {args.tol}")
    if args.jobs is None:
        jobs = os.environ.get("MUTSEL_JOBS", "1")
        try:
            args.jobs = int(jobs)
        except ValueError:
            raise SystemExit2(f"MUTSEL_JOBS must be an integer, got {jobs!r}") from None
    if args.jobs < 1:
        raise SystemExit2(f"--jobs (or MUTSEL_JOBS) must be at least 1, got {args.jobs}")
    try:
        return args.func(args)
    except SystemExit2:
        raise
    except (mdl.ModelError, GridError, dyn.DynamicsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (spec.SpectralError, stab.StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
