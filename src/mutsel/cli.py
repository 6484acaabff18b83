"""Command-line interface: spectra, equilibria, sweeps, dynamics, stability.

Each subcommand resolves a model (preset name or JSON config), writes a
manifest echoing the fully resolved configuration (``_setup``), runs the
corresponding solver and writes CSV/JSON artifacts.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import equilibrium as eq
from . import model as mdl
from . import spectral as spec
from . import stability as stab
from . import dynamics as dyn
from .grid import Field, RunFailure, UsageError, l1_norm

SCHEMA_VERSION = 1
DEFAULT_SWEEP = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
# parsed options the manifest leaves out: the subcommand's own, and the model
# source, which goes under "model"
NOT_OPTIONS = {"command", "func", "preset", "config", "scale_beta"}
# rows write_csv formats and writes at a time
CSV_BLOCK_ROWS = 2048


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
        raise UsageError("--preset and --config are mutually exclusive")
    if args.preset:
        mp = mdl.preset(args.preset)
        source = {"preset": args.preset}
    elif args.config:
        mp = load_model_config(args.config)
        source = {"config": str(Path(args.config).resolve())}
    else:
        raise UsageError("one of --preset or --config is required")
    scale = getattr(args, "scale_beta", 1.0)
    if scale != 1.0:
        if not (np.isfinite(scale) and scale > 0):
            raise UsageError(f"--scale-beta must be finite and positive, got {scale}")
        mp = mp.scaled_beta(scale)
        source["scale_beta"] = scale
    return mp, source


# ---------------------------------------------------------------------------
# output helpers

def write_csv(path: Path, name: str, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Rows of Python numbers and booleans, or the rows of a 2-d float array,
    written by ``str``: the shortest repr of a float.  (``repr`` of a numpy
    scalar reads ``np.float64(...)``, so an array is read through ``tolist``.)
    Each block of ``CSV_BLOCK_ROWS`` rows is one ``%`` of the row template on
    its values in row order, written at once; ``%s`` is ``str``."""
    row = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema=mutsel.{name}.v{SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[i : i + CSV_BLOCK_ROWS]
            values = block.ravel().tolist() if isinstance(block, np.ndarray) else chain(*block)
            fh.write(row * len(block) % tuple(values))


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir: Path, args, source: dict) -> None:
    """Every parsed option but the model source, the output directory resolved."""
    options = {k: v for k, v in vars(args).items() if k not in NOT_OPTIONS}
    options["output_dir"] = str(Path(args.output_dir).resolve())
    versions = {"mutsel": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    write_json(outdir / "manifest.json",
               {"command": args.command, "model": source, "options": options,
                "versions": versions})


def _eps_list(args) -> list[float]:
    eps = args.epsilon
    if not eps:
        raise UsageError("at least one --epsilon value is required")
    if not all(np.isfinite(e) and e > 0 for e in eps):
        raise UsageError("epsilon values must be finite and positive")
    if len(set(eps)) != len(eps):
        raise UsageError(f"repeated --epsilon value in {eps}")
    return eps


def _setup(args, *, one_width: bool = False) -> tuple[mdl.ModelParams, list[float], Path]:
    """The set-up every command runs first: ``(model, widths, outdir)``.  It
    resolves the model, checks the widths and the grid of each (its node
    count and kernel resolution, ``model.grid_size``), creates the output
    directory and writes ``manifest.json``, in that order: input these checks
    reject creates nothing, and every run past them leaves a manifest, a
    failed one too."""
    mp, source = resolve_model(args)
    eps = _eps_list(args)
    if one_width and len(eps) != 1:
        raise UsageError(f"{args.command} takes exactly one --epsilon, got {len(eps)}")
    for e in eps:
        mdl.grid_size(mp, e, n=args.n)
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc}") from None
    write_manifest(outdir, args, source)
    return mp, eps, outdir


def _require_converged(failed: int, what: str) -> None:
    """``RunFailure`` when ``failed`` solves (``what``) did not converge."""
    if failed:
        raise RunFailure(f"{failed} {what} did not converge")


def _steady_states(args, starts: int = 1, seed: int = 0):
    """The set-up of the one-width commands: ``(outdir, problem, states)``, the
    coupled solves from the default start and ``starts - 1`` seeded random
    starts.  When one did not converge, the residual histories of the failed
    ones go to ``residual_history.csv`` before ``RunFailure`` is raised."""
    mp, (eps,), outdir = _setup(args, one_width=True)
    problem = mdl.build_problem(mp, eps, n=args.n)
    # only a random start loads numpy.random, whose first import is slow
    rng = np.random.default_rng(seed) if starts > 1 else None
    states = []
    for i in range(starts):
        start = None
        if i:
            vals = rng.random(problem.grid.n) + 1e-3
            start = Field(problem.grid, vals / float(np.sum(problem.grid.quad_weights * vals)))
        states.append(eq.solve_coupled(problem, start=start, tol=args.tol))
    failed = [(i, s) for i, s in enumerate(states) if not s.converged]
    if failed:
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
    _require_converged(len(failed), "coupled solve(s)")
    return outdir, problem, states


def _merged(warning_lists) -> list[str]:
    """The distinct model-assumption warnings of several problems, in first-seen order."""
    return list(dict.fromkeys(w for ws in warning_lists for w in ws))


def _stability_block(args, problem, state) -> dict:
    """The linearized-stability report at ``state``, as ``stability.json`` holds
    it and ``equilibrium --stability`` adds it to ``equilibrium.json``."""
    rep = stab.stability_report(problem, state.A, tol=max(10 * args.tol, 1e-8))
    return {
        "is_fixed_point": rep.is_fixed_point,
        "spectral_radius": rep.spectral_radius,
        "stable": rep.stable,
        "error_bound": rep.error_bound,
        "eigenvalues": [{"re": float(z.real), "im": float(z.imag)} for z in rep.eigenvalues],
        "eigensolve": {
            "mode": rep.mode,
            "fallback": rep.fallback,
            "operator_applications": rep.operator_applications,
            "certified": rep.certified,
            # radius, pencil_count, winding and samples: counts, and no times,
            # so repeated runs write the same artifact
            "certificate": dict(vars(rep.certificate)) if rep.certificate else None,
        },
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    mp, eps_list, outdir = _setup(args)
    rows, degenerate, warnings = [], [], []
    for eps in eps_list:
        problem = mdl.build_problem(mp, eps, n=args.n)
        if args.host == 0:
            res = spec.solve_combined_spectrum(problem, tol=args.tol)
            lam2 = gap = float("nan")
        else:
            res = spec.solve_host_spectrum(problem, args.host, tol=args.tol, with_second=True)
            lam2, gap = res.lambda2, res.gap
        rows.append([eps, res.lambda1, lam2, gap, res.residual, res.iterations, res.converged])
        degenerate.append(res.degenerate)
        warnings.append(problem.assumption_warnings)
    write_csv(
        outdir / "spectrum.csv",
        "spectrum",
        ["epsilon", "lambda1", "lambda2", "gap", "residual", "iterations", "converged"],
        rows,
    )
    summary = {"rows": len(rows), "assumption_warnings": _merged(warnings)}
    if args.host:  # the combined operator's second eigenvalue is not computed
        summary["degenerate"] = any(degenerate)
    exponent = spec.gap_exponent([r[0] for r in rows], [r[3] for r in rows])
    if exponent is not None:
        summary["gap_exponent"] = exponent
    write_json(outdir / "spectrum_summary.json", summary)
    _require_converged(sum(not r[6] for r in rows), "spectral solve(s)")
    for r in rows:
        print(f"epsilon={r[0]:g} lambda1={r[1]:.12g}")
    return 0


def cmd_equilibrium(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.starts < 1:
        raise UsageError(f"--starts must be at least 1, got {args.starts}")
    outdir, problem, states = _steady_states(args, args.starts, args.seed)
    state = states[0]
    spread = max(l1_norm(s.A - state.A) for s in states)
    sup = eq.superposition_error(problem, state.A)
    pin = eq.mu_pinning_check(problem, state)
    low = eq.lower_bound_check(problem, state)
    summary = eq.summarize(state)

    write_csv(
        outdir / "equilibrium_fields.csv",
        "fields",
        ["x", "A", "I1", "I2"],
        np.column_stack((problem.grid.nodes, state.A.values, *(i.values for i in state.I))),
    )
    diagnostics = {
        "classification": state.classification,
        "residual": state.residual,
        "iterations": state.iterations,
        "restarts": state.restarts,
        "S1": summary.S[0],
        "S2": summary.S[1],
        "mu1": float(state.mu[0]),
        "mu2": float(state.mu[1]),
        "masses": {
            "I1": summary.infected_mass[0],
            "I2": summary.infected_mass[1],
            "A": summary.a_mass,
            "xA": summary.a_first_moment,
        },
        "a_argmax": summary.a_argmax,
        "multistart_spread": spread,
        "superposition": vars(sup),
        "pinning": [vars(p) for p in pin],
        "lower_bounds": [
            {"host": k, "beta_mass": m, "bound": b, "ok": ok} for k, m, b, ok in low
        ],
        "assumption_warnings": problem.assumption_warnings,
    }
    if args.stability:
        diagnostics["stability"] = _stability_block(args, problem, state)
    write_json(outdir / "equilibrium.json", diagnostics)
    print(
        f"classification={state.classification} A_mass={summary.a_mass:.6g} "
        f"argmax={summary.a_argmax:.4g}"
    )
    return 0


def cmd_sweep(args) -> int:
    args.epsilon = args.epsilon or list(DEFAULT_SWEEP)
    mp, eps_list, outdir = _setup(args)
    conv_rows, sup_rows, warnings = [], [], []
    for eps in sorted(eps_list, reverse=True):
        problem = mdl.build_problem(mp, eps, n=args.n)
        state = eq.solve_coupled(problem, tol=args.tol)
        sup = eq.superposition_error(problem, state.A)
        s = eq.summarize(state)
        conv_rows.append([eps, *s.S, *s.infected_mass, s.a_mass, s.a_first_moment,
                          s.a_argmax, state.converged])
        sup_rows.append([eps, sup.e_total, sup.e_sigma1, sup.e_sigma2, sup.e_complement])
        warnings.append(problem.assumption_warnings)
    # the closed-form limits, on the finest width's grid
    targets = eq.concentration_targets(problem)
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
    limits["assumption_warnings"] = _merged(warnings)
    write_json(outdir / "targets.json", limits)
    _require_converged(sum(not r[-1] for r in conv_rows), "sweep entr(ies)")
    print(f"sweep complete: {len(conv_rows)} rows -> {outdir}")
    return 0


def cmd_dynamics(args) -> int:
    dyn.check_schedule(args.t_end, args.dt, args.sample_every)
    if not (np.isfinite(args.bump) and args.bump >= 0):
        raise UsageError(f"--bump must be finite and nonnegative, got {args.bump}")
    outdir, problem, (state,) = _steady_states(args)
    init = dyn.disease_free_state(problem, bump=args.bump)
    traj = dyn.integrate(problem, init, args.t_end, args.dt, sample_every=args.sample_every)
    write_csv(
        outdir / "trajectory.csv",
        "trajectory",
        ["t", "S1", "S2", "I1_mass", "I2_mass", "A_mass", "A_argmax"],
        [[t, *s.S, *s.infected_mass, s.a_mass, s.a_argmax] for t, s in traj.samples],
    )
    dist = l1_norm(traj.terminal.A - state.A)
    write_json(
        outdir / "dynamics_summary.json",
        {
            "terminal_time": traj.t_end,
            "terminal_a_mass": l1_norm(traj.terminal.A),
            "distance_to_equilibrium": dist,
            "equilibrium_classification": state.classification,
            "clip_events": traj.clip_events,
            "steps": traj.steps,
            "rejected_steps": traj.rejected_steps,
            "rhs_evals": traj.rhs_evals,
            "assumption_warnings": problem.assumption_warnings,
        },
    )
    print(f"terminal distance to equilibrium: {dist:.6g}")
    return 0


def cmd_stability(args) -> int:
    outdir, problem, (state,) = _steady_states(args)
    block = _stability_block(args, problem, state)
    write_json(outdir / "stability.json", {"classification": state.classification, **block,
                                           "assumption_warnings": problem.assumption_warnings})
    print(f"spectral radius {block['spectral_radius']:.6g} -> "
          f"{'stable' if block['stable'] else 'unstable'}")
    return 0


# ---------------------------------------------------------------------------
# plumbing

def build_parser() -> argparse.ArgumentParser:
    # the options every subcommand takes, defined once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=["fig1", "fig2", "fig3"])
    common.add_argument("--config", help="JSON model-parameter file")
    common.add_argument("--epsilon", type=float, action="append", default=[],
                        help="mutation width (repeatable)")
    common.add_argument("--n", type=int, default=None, help="grid node count override, 16 to 10^7")
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--scale-beta", type=float, default=1.0,
                        help="multiply both infection efficiencies")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted only as 1: every command runs in one process")
    common.add_argument("--output-dir", default="mutsel-out")

    parser = argparse.ArgumentParser(
        prog="mutsel",
        description="Steady states, spectra and mutation-limit diagnostics "
                    "for a two-host nonlocal selection-mutation model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="principal eigenvalues and spectral gaps")
    p.add_argument("--host", type=int, choices=[0, 1, 2], default=1,
                   help="host operator (0 = combined)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("equilibrium", parents=[common],
                       help="coupled steady state and diagnostics")
    p.add_argument("--starts", type=int, default=1,
                   help="number of random starts (first uses the default start)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stability", action="store_true",
                   help="append the linearized-stability report")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sweep", parents=[common], help="mutation-width sweep tables")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", parents=[common],
                       help="time integration toward equilibrium")
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.01,
                   help="first step; samples are --sample-every * dt apart")
    p.add_argument("--bump", type=float, default=1e-3,
                   help="initial spore-mass perturbation")
    p.add_argument("--sample-every", type=int, default=100)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("stability", parents=[common],
                       help="linearized stability at the steady state")
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: status 0; 2 and one ``error:`` line on stderr for a ``UsageError``
    or an ``OSError``; 1 and one for a ``RunFailure``.  argparse's errors exit 2 with usage."""
    args = build_parser().parse_args(argv)
    try:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise UsageError(f"--tol must be finite and positive, got {args.tol}")
        if args.jobs != 1:
            raise UsageError(f"--jobs must be 1: every command runs in one process, "
                             f"got {args.jobs}")
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
