#!/usr/bin/env python3
"""Benchmark of the mutsel CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload equilibrium-fine --seed 1 --seconds 22 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every command runs in-process through
``mutsel.cli.main(argv)`` with ``--jobs 1`` and one BLAS thread, one after
another (closed loop, one caller), and its artifacts are checked against
``reference.json``.

``--trace 0`` repeats the workload's commands while another pass as slow as
the slowest so far fits in ``--seconds``, and reports the end-to-end metrics:
the median pass time ``wall_s``, the median set-up time ``setup_s`` of
several fresh processes, ``peak_rss_mb`` and ``tasks``.  Both times are
scaled to seconds of a machine of fixed speed by calibration blocks run
during the passes (see ``calibrate.py``), because the speed of a shared
machine drifts by half over minutes; the measured times are printed beside
them.
``--trace 1`` runs one untraced and one traced pass, reports the per-layer
metrics derived from the spans, checks that both passes wrote the same
artifacts, and writes the spans to ``.bench_runs/<workload>/spans.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every command passed its check, 1 when one did not, and 2 when the
benchmark could not run at all (no ``src/mutsel`` beside it).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BLAS_THREADS = 1
SETUP_PROBES = 4  # set-up probes, each in a fresh process
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks", "count"),
)


def pin_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MUTSEL_JOBS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_cli():
    import mutsel.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "mutsel":
        raise RuntimeError(f"imported mutsel from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# set-up: import plus build_problem, in fresh processes

def setup_probe(workload: str) -> dict:
    """Time ``import mutsel.cli`` and every ``build_problem`` the workload needs."""
    t0 = time.perf_counter()
    cli = import_cli()
    t1 = time.perf_counter()
    from mutsel import model

    parser = cli.build_parser()
    grid_n = []
    for argv in workloads.commands(workload, 0):
        args = parser.parse_args(argv)
        grid_n.append([model.build_problem(model.preset(args.preset), eps).grid.n
                       for eps in args.epsilon])
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1, "grid_n": grid_n}


def fresh_probes(workload: str) -> list[dict]:
    """``setup_probe`` in ``SETUP_PROBES`` fresh processes, one after another.

    A process imports ``mutsel.cli`` cold only once, so each set-up needs a
    process of its own.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# one pass: every command of the workload, each checked after it returns

def run_pass(cli, commands: list[list[str]], refs: list[dict] | None,
             outdir: Path, sampler: calibrate.Sampler | None = None) -> list[dict]:
    """Run the commands in order; return one record per command.

    With ``refs`` None the artifacts are read but not checked.  With a
    running ``sampler`` each record also has ``calibration_s``, the blocks
    run during the command and one right after it, and ``nominal_s``, the
    command's own time (those blocks subtracted) scaled by them.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    records = []
    for i, argv in enumerate(commands):
        out = outdir / f"c{i}"
        full = [*argv, "--jobs", "1", "--output-dir", str(out)]
        error = None
        if sampler:
            sampler.take()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(full)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed task, not a crashed benchmark
            code, error = 1, traceback.format_exc()
        wall = time.perf_counter() - start
        nominal, samples = None, []
        if sampler:
            samples = sampler.take()
            own = wall - sum(samples)
            samples.append(sampler.sample())
            nominal = calibrate.scale(own, samples)
        seen, problems = None, []
        if code != 0:
            problems.append(error or f"exit status {code}")
        else:
            try:
                seen = workloads.observe(argv[0], out)
                if refs is not None:
                    problems = workloads.check(argv[0], seen, refs[i])
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
        records.append({"argv": argv, "wall_s": wall, "nominal_s": nominal,
                        "calibration_s": samples, "exit": code,
                        "observed": seen, "problems": problems})
    return records


def pass_wall(records: list[dict], key: str = "wall_s") -> float:
    return sum(r[key] for r in records)


def same_artifacts(a: Path, b: Path) -> list[str]:
    """Files that differ between two pass directories (manifest paths excepted)."""
    diffs = []
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    for rel in files:
        x, y = a / rel, b / rel
        if not (x.is_file() and y.is_file()):
            diffs.append(f"{rel}: missing on one side")
        elif rel.name == "manifest.json":
            mx, my = (json.loads(p.read_text(encoding="utf-8")) for p in (x, y))
            for m in (mx, my):
                m["options"].pop("output_dir", None)
            if mx != my:
                diffs.append(str(rel))
        elif x.read_bytes() != y.read_bytes():
            diffs.append(str(rel))
    return diffs


# ---------------------------------------------------------------------------
# the two modes

def untraced(cli, commands, refs, outdir: Path, seconds: float,
             probes: list[dict]) -> tuple[list, dict]:
    passes = []
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, commands, refs, outdir / "u", sampler))
            elapsed = time.perf_counter() - start
            if elapsed + max(pass_wall(p) for p in passes) > seconds:
                break
    finally:
        sampler.stop()
    # the set-up probes ran just before the passes: scale them by the whole run's blocks
    samples = [c for p in passes for r in p for c in r["calibration_s"]]
    return passes, {
        "setup_s": calibrate.scale(
            statistics.median(p["import_s"] + p["build_s"] for p in probes), samples),
        "wall_s": statistics.median(pass_wall(p, "nominal_s") for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": len(commands),
    }


def traced(cli, commands, refs, outdir: Path, workload: str, run_id: str,
           import_s: float) -> tuple[list, dict, list[str]]:
    plain = run_pass(cli, commands, refs, outdir / "u")
    tracer = spans.Tracer(workload, run_id)
    tracer.install()
    try:
        seen = run_pass(cli, commands, refs, outdir / "t")
    finally:
        tracer.restore()
    problems = [f"traced artifact differs: {d}" for d in same_artifacts(outdir / "u", outdir / "t")]
    problems += [f"tracing wrapper left in place: {name}" for name in spans.leftover_wrappers()]
    tracer.write(outdir / "spans.csv.gz")
    metrics = spans.layer_metrics(
        tracer.spans, wall_traced=pass_wall(seen),
        overhead_s=len(tracer.spans) * spans.wrapper_cost(), import_s=import_s,
    )
    return [plain, seen], metrics, problems


# ---------------------------------------------------------------------------
# stamp and report

def stamp(seed: int, commands, probes) -> dict:
    import numpy
    import scipy
    import mutsel

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "mutsel": mutsel.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "grid_n": [{"argv": argv, "n": n} for argv, n in zip(commands, probes[0]["grid_n"])],
    }


def report(metrics: dict[str, tuple[float, str]], counts: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    if counts:
        print("  hardware-free counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def artifact_counts(records: list[dict]) -> dict:
    """Work counts the artifacts themselves report (untraced runs have no spans)."""
    counts = {}
    for r in records:
        seen = r["observed"] or {}
        key = r["argv"][0]
        if "iterations" in seen:
            counts[f"{key}.solve_coupled.iterations(first start)"] = seen["iterations"]
        if "steps" in seen:
            counts[f"{key}.steps"] = seen["steps"]
        for row in seen.get("rows", ()):
            counts.setdefault(f"{key}.principal_eigenpair.iterations", 0)
            counts[f"{key}.principal_eigenpair.iterations"] += row["iterations"]
    return counts


def record_reference(cli, workload: str, commands) -> int:
    records = run_pass(cli, commands, None, RUNS / workload / "reference")
    bad = [r for r in records if r["problems"]]
    if bad:
        print(f"error: cannot record a failed command: {bad[0]}", file=sys.stderr)
        return 1
    refs = workloads.load_reference() if workloads.REFERENCE.exists() else {}
    refs[workload] = [r["observed"] for r in records]
    workloads.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"recorded {len(records)} reference answers for {workload}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one unchecked pass and store its answers in reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "mutsel" / "cli.py").is_file():
        print(f"error: no mutsel sources at {SRC / 'mutsel'}", file=sys.stderr)
        return 2
    pin_threads()
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0

    if args.record_reference:
        return record_reference(import_cli(), args.workload,
                                workloads.commands(args.workload, args.seed))
    probes = fresh_probes(args.workload)
    cli = import_cli()
    commands = workloads.commands(args.workload, args.seed)
    refs = workloads.load_reference()[args.workload]
    outdir = RUNS / args.workload
    run_id = uuid.uuid4().hex[:12]
    problems: list[str] = []
    if args.trace:
        passes, metrics, problems = traced(
            cli, commands, refs, outdir, args.workload, run_id,
            statistics.median(p["import_s"] for p in probes),
        )
        counts = {k: metrics[k][0] for k in (
            "operators.convolve.calls", "equilibrium.solve_coupled.iterations",
            "spectral.principal_eigenpair.iterations", "dynamics.rhs_evals")}
    else:
        passes, values = untraced(cli, commands, refs, outdir, args.seconds, probes)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        counts = artifact_counts(passes[-1])

    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0 and not problems
    info = stamp(args.seed, commands, probes)
    result = {
        "workload": args.workload, "trace": args.trace, "run_id": run_id, "stamp": info,
        "passes": [[{k: r[k] for k in ("argv", "wall_s", "nominal_s", "calibration_s",
                                        "exit", "problems")} for r in p]
                   for p in passes],
        "setup_probes": probes, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {len(records)}  failed {failed}  passes "
          + " ".join(f"{pass_wall(p):.3f}s" for p in passes))
    print("# stamp " + json.dumps(info))
    print("# measured " + json.dumps({
        "pass_s": [pass_wall(p) for p in passes],
        "pass_nominal_s": [pass_wall(p, "nominal_s") for p in passes] if not args.trace else [],
        "setup_s": [p["import_s"] + p["build_s"] for p in probes],
    }))
    for r in records:
        for p in r["problems"]:
            print(f"  FAILED {' '.join(r['argv'])}: {p}")
    for p in problems:
        print(f"  FAILED {p}")
    report(metrics, counts)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
