#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize medians, quartiles and spreads.

    python3 bench/collect.py --out bench/BENCH_1.json

Two sets each run every workload of ``BENCHMARK.json`` once per seed (seeds
1 to 10), interleaving workloads, with its settings.  For every
end-to-end metric it reports each set's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (third minus first
quartile, as a share of the median), and how far the second set's median
moved from the first, measured in the metric's worse direction.  Two traced
runs per workload follow, and the hardware-free counts must repeat exactly
between them.  The exit status is 1 if any run failed its check, a spread
exceeds its bound, the second set's median moved by more than the bound, or
a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600
SEEDS = 10
SETS = 2
TRACED = 2

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    stamp, measured = (next((json.loads(l[len(tag):]) for l in lines if l.startswith(tag)),
                            None) for tag in ("# stamp ", "# measured "))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "run_s": elapsed, "measured": measured, "stamp": stamp, **result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(1, SEEDS + 1)
    runs = []
    for s in range(SETS):
        for seed in seeds:
            for w in names:
                r = run_once(spec, w, seed, 0)
                r["set"] = s
                runs.append(r)
                print(f"set {s} seed {seed} {w}: correct={r['correct']} "
                      f"run {r['run_s']:.1f} s " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
    traced = []
    for i in range(TRACED):
        for w in names:
            r = run_once(spec, w, 1, 1)
            traced.append(r)
            print(f"traced {i} {w}: correct={r['correct']} run {r['run_s']:.1f} s", flush=True)

    ok = all(r["correct"] and r["exit"] == 0 for r in runs + traced)
    summary = {}
    for w in names:
        summary[w] = {}
        for m in spec["end_to_end"]:
            sets = []
            for s in range(SETS):
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s and m["name"] in r["metrics"]]
                sets.append(summarize(vals))
            sign = 1.0 if m["better"] == "lower" else -1.0
            shifts = [sign * (x["median"] - sets[0]["median"]) / sets[0]["median"]
                      for x in sets[1:]]
            entry = {"unit": m["unit"], "bound": m["bound"], "sets": sets,
                     "worse_shift": shifts}
            summary[w][m["name"]] = entry
            spread_ok = all(x["spread"] <= m["bound"] for x in sets)
            shift_ok = all(d <= m["bound"] for d in shifts)
            ok &= spread_ok and shift_ok
            print(f"{w:<17} {m['name']:<12} " + "  ".join(
                f"median {x['median']:.6g} spread {x['spread']:.4f}" for x in sets)
                + (f"  worse_shift {max(shifts):+.4f}" if shifts else "")
                + f"  bound {m['bound']}"
                + ("" if spread_ok and shift_ok else "  OUT OF BOUND"))
    layers = {}
    for w in names:
        mine = [r for r in traced if r["workload"] == w]
        if not mine:
            continue
        counts = [{k: r["metrics"].get(k, {}).get("value") for k in spans.HARDWARE_FREE}
                  for r in mine]
        repeat = all(c == counts[0] for c in counts)
        ok &= repeat
        layers[w] = {
            "counts_repeat": repeat,
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in mine],
        }
        print(f"{w:<17} traced runs {len(mine)}  hardware-free counts repeat: {repeat}")

    if args.out:
        stamp = next((r["stamp"] for r in runs + traced if r["stamp"]), None)
        doc = {
            "stamp": stamp and {k: v for k, v in stamp.items() if k not in ("seed", "grid_n")},
            "grid_n": {w: next((r["stamp"]["grid_n"] for r in runs + traced
                                if r["workload"] == w and r["stamp"]), None) for w in names},
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "sets": SETS,
            "all_correct": all(r["correct"] for r in runs + traced),
            "tasks_failed": {w: sum(r["failed"] for r in runs + traced if r["workload"] == w)
                             for w in names},
            "end_to_end": summary,
            "per_layer": layers,
            "runs": [{k: r[k] for k in ("workload", "seed", "set", "trace", "correct",
                                        "attempted", "failed", "run_s", "measured")}
                     | {"metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for r in runs + [dict(t, set=None) for t in traced]],
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
