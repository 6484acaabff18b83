#!/usr/bin/env python3
"""Compare the artifacts that two mutsel source trees write, command by command.

    python3 scripts/same_answers.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold a ``mutsel`` package, such
as the ``src`` directories of two checkouts.  The benchmark's command lines
(``bench/workloads.py``, seed 1) and five more, which reach the sweep, fig3's
multistart with its stability report, rk4 dynamics on fig2, and the second
eigenvalue of a host on fig3's overlapping supports and of fig2's host 2,
near its threshold, each run once
with each tree, in a fresh interpreter with one BLAS thread.  For every
artifact, and for the command's standard output, one line says
``byte-identical`` or gives the largest relative difference among its
numbers; the output directory in ``manifest.json`` is left out.  The exit
status is 1 when an exit status or an artifact's text outside its numbers
differs, an artifact is missing on one side, or a number differs by more than
1e-12 relative; else 0.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

RTOL = 1e-12
EXTRA_COMMANDS = [
    ["sweep", "--preset", "fig1"],
    ["equilibrium", "--preset", "fig3", "--epsilon", "2.5e-3", "--starts", "4", "--stability"],
    ["dynamics", "--preset", "fig2", "--epsilon", "2e-2", "--t-end", "50", "--method", "rk4",
     "--dt", "0.02"],
    ["spectrum", "--preset", "fig3", "--host", "1", "--epsilon", "1e-2", "--epsilon", "2.5e-3"],
    ["spectrum", "--preset", "fig2", "--host", "2", "--epsilon", "2e-3", "--epsilon", "1e-3"],
]
# a number that stands alone: not the digit in a name such as S1 or v1
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)"
                    r"(?![\w.])")


def run(src: Path, argv: list[str], outdir: Path) -> tuple[int, str]:
    """Exit status and standard output of ``mutsel argv`` run from ``src``,
    with the output directory's name in it read as OUTDIR."""
    env = {**os.environ, "PYTHONPATH": str(src), "MUTSEL_JOBS": "1",
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-m", "mutsel.cli", *argv,
                           "--output-dir", str(outdir)],
                          env=env, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.replace(str(outdir), "OUTDIR")


def artifact_text(path: Path) -> str:
    if path.name != "manifest.json":
        return path.read_text(encoding="utf-8")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["options"].pop("output_dir", None)
    return json.dumps(manifest, indent=1, sort_keys=True)


def largest_difference(a: str, b: str) -> float | None:
    """The largest relative difference between the numbers of two texts, or
    None when they differ outside their numbers."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def compare(label: str, a: str, b: str) -> bool:
    """Print one line for a pair of texts; True when they agree within RTOL."""
    if a == b:
        print(f"{label}: byte-identical")
        return True
    diff = largest_difference(a, b)
    if diff is None:
        print(f"{label}: differs outside its numbers")
        return False
    print(f"{label}: largest relative difference {diff:.3g}")
    return diff <= RTOL


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_answers.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    commands = [c for w in workloads.WORKLOADS for c in workloads.commands(w, 1)]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate([*commands, *EXTRA_COMMANDS]):
            outdirs = [Path(tmp, f"{i}-{side}") for side in ("parent", "change")]
            (code_a, out_a), (code_b, out_b) = (run(src, command, out)
                                                for src, out in zip(trees, outdirs))
            print("mutsel " + " ".join(command))
            if code_a != code_b:
                print(f"  exit status {code_a} against {code_b}")
                ok = False
            ok &= compare("  (stdout)", out_a, out_b)
            names = sorted({p.name for d in outdirs if d.is_dir() for p in d.iterdir()})
            for name in names:
                a, b = (d / name for d in outdirs)
                if not (a.is_file() and b.is_file()):
                    print(f"  {name}: missing on one side")
                    ok = False
                else:
                    ok &= compare(f"  {name}", artifact_text(a), artifact_text(b))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
