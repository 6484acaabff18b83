#!/usr/bin/env python3
"""Compare the artifacts that two mutsel source trees write, command by command.

    python3 scripts/same_answers.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold a ``mutsel`` package, such
as the ``src`` directories of two checkouts.  The benchmark's command lines
(``bench/workloads.py``, seed 1) and twenty more, which reach the sweep,
fig3's multistart with its stability report, dynamics on fig2 from dt = 0.02
and on fig3's overlapping supports (nodes where both hosts' I entries are
summed), the second eigenvalue of a host on fig3's overlapping supports and
of fig2's host 2, near its threshold, fig3's coupled solve at eps = 1e-3 and
fig2's from two starts, so the Newton steps run on all three presets,
``--scale-beta`` in a sweep and in an equilibrium with its stability report,
fig2's stability report, fig1's at eps = 0.5 (fewer read nodes than eigenvalues
reported), a multistart whose third start takes a plain step, the
disease-free state of ``--scale-beta 0.1``, and six malformed command lines
(exit status 2), each run once with each tree, in a fresh interpreter with
one BLAS thread.  It first prints the line count of ``mutsel/*.py`` in each
tree and each subcommand's option count (``--help`` left out) in each, the
size of a refactor and of its knobs.  For every artifact, and for the
command's standard output and standard error, one line says
``byte-identical`` or gives the largest relative difference among its
numbers and where it is: the key path of a JSON artifact, the column and
line of a CSV one, the line of the standard output or error.  The output
directory reads OUTDIR in both streams, and is left out of
``manifest.json``.  The exit status is 1 when an exit status
or an artifact's text outside its numbers differs, an artifact is missing on
one side, or a number differs by more than 1e-12 relative; else 0.
"""

from __future__ import annotations

import csv
import io
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
    ["dynamics", "--preset", "fig2", "--epsilon", "2e-2", "--t-end", "50", "--dt", "0.02"],
    # 39 grid nodes carry an I entry of each host
    ["dynamics", "--preset", "fig3", "--epsilon", "2e-2", "--t-end", "20"],
    ["spectrum", "--preset", "fig3", "--host", "1", "--epsilon", "1e-2", "--epsilon", "2.5e-3"],
    ["spectrum", "--preset", "fig2", "--host", "2", "--epsilon", "2e-3", "--epsilon", "1e-3"],
    ["equilibrium", "--preset", "fig3", "--epsilon", "1e-3"],
    ["equilibrium", "--preset", "fig2", "--epsilon", "1e-3", "--starts", "2", "--seed", "3"],
    ["sweep", "--preset", "fig3", "--scale-beta", "0.52", "--epsilon", "1e-2",
     "--epsilon", "2.5e-3"],
    ["equilibrium", "--preset", "fig1", "--epsilon", "2.5e-3", "--scale-beta", "0.51",
     "--stability"],
    ["stability", "--preset", "fig2", "--epsilon", "1e-2"],
    # 15 read nodes, fewer than the 20 eigenvalues reported
    ["stability", "--preset", "fig1", "--epsilon", "0.5"],
    # the third start takes a plain step in the coupled solve
    ["equilibrium", "--preset", "fig1", "--epsilon", "1e-3", "--starts", "3", "--seed", "1"],
    # extinction: the disease-free path
    ["equilibrium", "--preset", "fig1", "--scale-beta", "0.1", "--epsilon", "1e-3"],
    # malformed input, which exits 2 with one error line
    ["equilibrium", "--preset", "fig1", "--epsilon", "5e-2", "--tol", "-1"],
    ["dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--dt", "nan"],
    ["dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--t-end", "1", "--dt", "3"],
    ["dynamics", "--preset", "fig1", "--epsilon", "5e-2", "--sample-every", "0"],
    ["sweep", "--preset", "fig1", "--epsilon", "5e-2", "--jobs", "2"],
    ["spectrum", "--preset", "fig1", "--epsilon", "5e-2", "--epsilon", "5e-2"],
]
# a number that stands alone: not the digit in a name such as S1 or v1; the
# group keeps the numbers in NUMBER.split's list, at its odd positions
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN))"
                    r"(?![\w.])")
# prints {subcommand: the parser actions that have option strings, but --help}
OPTION_COUNTS = """
import argparse, json
from mutsel.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps({name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                            for a in p._actions) for name, p in sub.choices.items()}))
"""


def python(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``python args`` with the ``mutsel`` package of ``src``, on one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(src),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=False)


def run(src: Path, argv: list[str], outdir: Path) -> tuple[int, str, str]:
    """Exit status, standard output and standard error of ``mutsel argv`` run
    from ``src``, with the output directory's name in them read as OUTDIR."""
    proc = python(src, ["-m", "mutsel.cli", *argv, "--output-dir", str(outdir)])
    return (proc.returncode, *(text.replace(str(outdir), "OUTDIR")
                               for text in (proc.stdout, proc.stderr)))


def line_count(src: Path) -> int:
    """The lines of ``mutsel/*.py`` under ``src``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "mutsel").glob("*.py"))


def option_counts(src: Path) -> dict[str, int]:
    """Each subcommand's count of options of the ``mutsel`` CLI under ``src``."""
    return json.loads(python(src, ["-c", OPTION_COUNTS]).stdout)


def artifact_text(path: Path) -> str:
    if path.name != "manifest.json":
        return path.read_text(encoding="utf-8")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["options"].pop("output_dir", None)
    return json.dumps(manifest, indent=1, sort_keys=True)


def _json_values(node, path: str = ""):
    """(key path, value) of every leaf of a JSON document, in order, with list
    items indexed, as in ``eigenvalues[3].re``; leaves other than numbers as
    their JSON text."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_values(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_values(value, f"{path}[{i}]")
    else:
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        yield path, float(node) if number else json.dumps(node)


def _csv_values(text: str):
    """(column and line, cell) of every cell of a CSV artifact, cells that
    parse as numbers as floats; its comment lines and header are one text
    value each."""
    header = None
    for i, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if header is None:
            yield f"line {i}", ",".join(row)
            header = None if row and row[0].startswith("#") else row
            continue
        for j, cell in enumerate(row):
            where = f"column {header[j] if j < len(header) else j}, line {i}"
            try:
                yield where, float(cell)
            except ValueError:
                yield where, cell


def _text_values(text: str):
    """(line, value) of the numbers of a plain text and the text between them."""
    for i, line in enumerate(text.splitlines(), start=1):
        for j, part in enumerate(NUMBER.split(line)):
            yield f"line {i}", float(part) if j % 2 else part


def labelled_values(name: str, text: str) -> list[tuple[str, float | str]]:
    """The values of an artifact named ``name``, numbers as floats and the
    rest as text, each with where it is: JSON leaves by key path, CSV cells by
    column and line, and the numbers of any other text by line."""
    if name.endswith(".json"):
        return list(_json_values(json.loads(text)))
    if name.endswith(".csv"):
        return list(_csv_values(text))
    return list(_text_values(text))


def largest_difference(name: str, a: str, b: str) -> tuple[float, str] | None:
    """The largest relative difference between the numbers of two texts and
    where it is, or None when they differ outside their numbers."""
    va, vb = labelled_values(name, a), labelled_values(name, b)

    def skeleton(values):
        return [(where, x if isinstance(x, str) else None) for where, x in values]

    if skeleton(va) != skeleton(vb):
        return None
    worst, where = 0.0, ""
    for (label, x), (_, y) in zip(va, vb):
        if isinstance(x, str) or x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        diff = abs(x - y) / scale if math.isfinite(scale) else math.inf
        if diff > worst:
            worst, where = diff, label
    return worst, where


def compare(name: str, a: str, b: str) -> bool:
    """Print one line for a pair of texts; True when they agree within RTOL."""
    if a == b:
        print(f"  {name}: byte-identical")
        return True
    diff = largest_difference(name, a, b)
    if diff is None:
        print(f"  {name}: differs outside its numbers")
        return False
    print(f"  {name}: largest relative difference {diff[0]:.3g} at {diff[1]}")
    return diff[0] <= RTOL


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_answers.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    commands = [c for w in workloads.WORKLOADS for c in workloads.commands(w, 1)]
    ok = True
    print("mutsel/*.py: {} lines against {}".format(*map(line_count, trees)))
    parent, change = map(option_counts, trees)
    print("options: " + ", ".join(f"{name} {parent.get(name, '-')} against "
                                  f"{change.get(name, '-')}" for name in parent | change))
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate([*commands, *EXTRA_COMMANDS]):
            outdirs = [Path(tmp, f"{i}-{side}") for side in ("parent", "change")]
            (code_a, *texts_a), (code_b, *texts_b) = (run(src, command, out)
                                                      for src, out in zip(trees, outdirs))
            print("mutsel " + " ".join(command))
            if code_a != code_b:
                print(f"  exit status {code_a} against {code_b}")
                ok = False
            for stream, a, b in zip(("(stdout)", "(stderr)"), texts_a, texts_b):
                ok &= compare(stream, a, b)
            names = sorted({p.name for d in outdirs if d.is_dir() for p in d.iterdir()})
            for name in names:
                a, b = (d / name for d in outdirs)
                if not (a.is_file() and b.is_file()):
                    print(f"  {name}: missing on one side")
                    ok = False
                else:
                    ok &= compare(name, artifact_text(a), artifact_text(b))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
