#!/usr/bin/env python3
"""Self-test of the benchmark itself; takes a few seconds.

    python3 bench/selftest.py

Checks the span arithmetic on a synthetic span tree, that tracing wrappers
are removed again, that traced artifacts equal untraced ones bit for bit,
that hardware-free counts repeat exactly between two traced runs, that the
calibration sampler leaves the artifacts unchanged and scales times as
documented, that the reference checks reject wrong answers, that
``BENCHMARK.json`` names the metrics the code reports, and that the
benchmark refuses to run without the mutsel sources.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.RUNS / "selftest"

# small versions of the four workloads' commands
SMALL = [
    ["equilibrium", "--preset", "fig1", "--epsilon", "0.05", "--starts", "2", "--seed", "3"],
    ["dynamics", "--preset", "fig1", "--epsilon", "0.05", "--t-end", "2"],
    ["stability", "--preset", "fig3", "--epsilon", "0.05"],
    ["spectrum", "--preset", "fig1", "--host", "1", "--epsilon", "0.05", "--epsilon", "0.02"],
    ["spectrum", "--preset", "fig1", "--host", "0", "--epsilon", "0.05"],
]


def span(i, parent, name, start, end, info=None):
    return spans.Span(i, parent, name, start, end, info)


def test_span_arithmetic():
    tree = [
        span(1, 0, "cli.main", 0.0, 10.0),
        span(2, 1, "equilibrium.solve_coupled", 1.0, 4.0, {"iterations": 7, "converged": True}),
        span(3, 2, spans.CONVOLVE, 2.0, 3.0, {"n": 100}),
        span(4, 1, "stability.stability_report", 3.0, 6.0),  # overlaps its sibling
        span(5, 4, "stability.derivative_matrix", 3.5, 4.5, {"n": 10}),
        span(6, 1, "cli.write_json", 8.0, 12.0, {"bytes": 5}),  # runs past its parent
        span(7, 6, "cli.write_json", 9.0, 9.5, {"bytes": 2}),  # nested in the same name
    ]
    ix = spans.SpanIndex(tree)
    # 10 s minus the union [1, 6] and the clipped [8, 10]
    assert ix.self_time(tree[0]) == 3.0, ix.self_time(tree[0])
    assert ix.self_time(tree[1]) == 2.0
    assert ix.self_time(tree[3]) == 2.0
    assert ix.busy("equilibrium.solve_coupled", "stability.stability_report") == 5.0
    assert ix.busy("cli.write_json") == 4.0
    assert ix.under(spans.CONVOLVE, "equilibrium.solve_coupled") == 1
    assert ix.under(spans.CONVOLVE, "stability.stability_report") == 0
    assert spans.covered([(0.0, 1.0), (0.5, 2.0), (5.0, 6.0)], 0.5, 5.5) == 2.0

    m = spans.layer_metrics(tree, wall_traced=10.0, overhead_s=1.0, import_s=1.0)
    assert [name for name in m] == [name for name, _ in spans.LAYER_METRICS]
    assert m["equilibrium.solve_coupled.iterations"][0] == 7
    assert m["equilibrium.solve_coupled.convolutions"][0] == 1
    assert m["equilibrium.solve_coupled.converged_ratio"][0] == 1.0
    assert m["operators.convolve.share"][0] == 0.1
    assert m["stability.eig.self_s"][0] == 2.0
    assert m["stability.matrix_bytes_computed"][0] == 800
    assert m["cli.write.bytes"][0] == 7
    assert m["cli.self_s"][0] == 3.0 + 3.5 + 0.5
    assert m["trace.overhead_s"][0] == 1.0
    flops, nbytes = spans.fft_cost(100)
    assert m["operators.convolve.flops_computed"][0] == flops > 0 and nbytes > 0


def bindings() -> dict:
    """Every function bound in a mutsel module or class, by where it is bound."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mutsel" or name.startswith("mutsel.")):
            continue
        for attr, obj in vars(module).items():
            found[(name, attr)] = obj
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    found[(name, attr, meth)] = fn
    return found


def test_wrappers_restored():
    cli = run.import_cli()
    before = bindings()
    tracer = spans.Tracer("selftest", "wrap")
    tracer.install()
    try:
        import mutsel.operators as ops
        import mutsel.spectral as spec

        assert hasattr(cli.main, "bench_span")
        assert hasattr(spec.host_operator, "bench_span"), "from-import binding not traced"
        assert hasattr(ops.ConvolutionEngine.convolve_values, "bench_span")
        assert not hasattr(sys.modules["mutsel.grid"].l1_norm, "bench_span")
    finally:
        tracer.restore()
    after = bindings()
    changed = [k for k in before if before[k] is not after.get(k)]
    assert not changed, changed
    assert not spans.leftover_wrappers()


def traced_pass(cli, outdir: Path):
    tracer = spans.Tracer("selftest", outdir.name)
    tracer.install()
    try:
        records = run.run_pass(cli, SMALL, None, outdir)
    finally:
        tracer.restore()
    return records, spans.layer_metrics(tracer.spans, wall_traced=1.0, overhead_s=0.0,
                                        import_s=0.0)


def test_traced_runs_match_untraced_and_repeat():
    cli = run.import_cli()
    plain = run.run_pass(cli, SMALL, None, SCRATCH / "u")
    assert all(r["exit"] == 0 and not r["problems"] for r in plain), plain
    first, m1 = traced_pass(cli, SCRATCH / "t")
    second, m2 = traced_pass(cli, SCRATCH / "v")
    assert all(r["exit"] == 0 for r in first + second)
    assert not run.same_artifacts(SCRATCH / "u", SCRATCH / "t")
    assert not run.same_artifacts(SCRATCH / "u", SCRATCH / "v")
    counts = [{k: m[k][0] for k in spans.HARDWARE_FREE} for m in (m1, m2)]
    assert counts[0] == counts[1], (counts[0], counts[1])
    for key in ("operators.convolve.calls", "equilibrium.solve_coupled.iterations",
                "spectral.principal_eigenpair.iterations", "dynamics.rhs_evals",
                "stability.matrix_bytes_computed", "cli.write.bytes"):
        assert counts[0][key] > 0, key


def test_calibration_sampler():
    assert calibrate.scale(3.0, [calibrate.NOMINAL_S, 3 * calibrate.NOMINAL_S]) == 1.5
    cli = run.import_cli()
    plain = run.run_pass(cli, SMALL, None, SCRATCH / "p")
    sampler = calibrate.Sampler(interval=0.01)
    sampler.start()
    try:
        sampled = run.run_pass(cli, SMALL, None, SCRATCH / "s", sampler)
    finally:
        sampler.stop()
    assert not run.same_artifacts(SCRATCH / "p", SCRATCH / "s")
    assert all(r["exit"] == 0 and r["calibration_s"] for r in sampled)
    assert sum(len(r["calibration_s"]) for r in sampled) > len(sampled), "timer never fired"
    assert all(0 < r["nominal_s"] for r in sampled)
    assert plain[0]["nominal_s"] is None
    assert spans.wrapper_cost() > 0


def test_checks_reject_wrong_answers():
    refs = workloads.load_reference()
    for w in workloads.WORKLOADS:
        cmds = workloads.commands(w, 1)
        assert len(refs[w]) == len(cmds), w
        for argv, ref in zip(cmds, refs[w]):
            assert workloads.check(argv[0], ref, ref) == [], (w, argv)
    eq_ref = refs["equilibrium-fine"][0]
    assert workloads.check("equilibrium", {**eq_ref, "S1": eq_ref["S1"] * (1 + 2e-6)}, eq_ref)
    assert workloads.check("equilibrium", {**eq_ref, "multistart_spread": 1e-5}, eq_ref)
    assert workloads.check("equilibrium", {**eq_ref, "classification": "disease_free"}, eq_ref)
    dyn = refs["dynamics"][0]
    assert workloads.check("dynamics", {**dyn, "distance_to_equilibrium": 2e-4}, dyn)
    assert workloads.check("dynamics", {**dyn, "clip_events": 1}, dyn)
    st = refs["stability-dense"][0]
    assert workloads.check("stability", {**st, "spectral_radius": st["spectral_radius"] + 2e-6}, st)
    assert workloads.check("stability", {**st, "is_fixed_point": False}, st)
    sp = refs["spectrum-gap"][0]
    rows = [dict(r) for r in sp["rows"]]
    rows[1]["lambda1"] *= 1 + 2e-8
    assert workloads.check("spectrum", {"rows": rows}, sp)
    rows = [dict(r) for r in sp["rows"]]
    rows[2]["converged"] = False
    assert workloads.check("spectrum", {"rows": rows}, sp)
    assert workloads.check("spectrum", {"rows": sp["rows"][:2]}, sp)


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    assert doc["paths"] == [run.BENCH.name]


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "dynamics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    run.pin_threads()
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except Exception:
                failures += 1
                print(f"FAIL  {name}\n{traceback.format_exc()}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
