"""The benchmark's workloads: mutsel CLI command lines and their reference checks.

Each workload is a short list of ``mutsel`` commands run one after another.
After a command returns, ``observe`` reads the values the check needs from
its artifacts and ``check`` compares them with the answers recorded from the
seed commit in ``reference.json``.  Tolerances admit any solver that reaches
the same certified answer; they are never wider than the acceptance criteria.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("equilibrium-fine", "dynamics", "stability-dense", "spectrum-gap")

# acceptance-criterion bounds (criteria 8 and 9) and reference tolerances
MULTISTART_SPREAD = 1e-6
DYNAMICS_DISTANCE = 1e-4
MASS_RTOL = 1e-6
RADIUS_ATOL = 1e-6
LAMBDA1_RTOL = 1e-8
LAMBDA2_ATOL = 1e-6


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass over ``workload``."""
    if workload == "equilibrium-fine":
        return [["equilibrium", "--preset", "fig1", "--epsilon", "1e-3",
                 "--starts", "2", "--seed", str(seed)]]
    if workload == "dynamics":
        return [["dynamics", "--preset", "fig1", "--epsilon", "1e-2", "--t-end", "100"]]
    if workload == "stability-dense":
        return [["stability", "--preset", preset, "--epsilon", "2.5e-3"]
                for preset in ("fig1", "fig3")]
    if workload == "spectrum-gap":
        sweep = ["--epsilon", "5e-3", "--epsilon", "2e-3", "--epsilon", "1e-3"]
        return [
            ["spectrum", "--preset", "fig1", "--host", "1", *sweep],
            ["spectrum", "--preset", "fig1", "--host", "2", *sweep],
            ["spectrum", "--preset", "fig1", "--host", "0", "--epsilon", "1e-3"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# reading artifacts

def observe(subcommand: str, outdir: Path) -> dict:
    """The checked values of one command, read from its artifacts."""
    if subcommand == "equilibrium":
        d = _json(outdir / "equilibrium.json")
        return {
            "classification": d["classification"],
            "multistart_spread": d["multistart_spread"],
            "S1": d["S1"],
            "S2": d["S2"],
            "A_mass": d["masses"]["A"],
            "iterations": d["iterations"],
        }
    if subcommand == "dynamics":
        d = _json(outdir / "dynamics_summary.json")
        return {
            "distance_to_equilibrium": d["distance_to_equilibrium"],
            "clip_events": d["clip_events"],
            "steps": d["steps"],
        }
    if subcommand == "stability":
        d = _json(outdir / "stability.json")
        return {
            "is_fixed_point": d["is_fixed_point"],
            "stable": d["stable"],
            "spectral_radius": d["spectral_radius"],
        }
    if subcommand == "spectrum":
        with open(outdir / "spectrum.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        return {
            "rows": [
                {
                    "epsilon": float(r["epsilon"]),
                    "lambda1": float(r["lambda1"]),
                    "lambda2": _number_or_none(r["lambda2"]),
                    "iterations": int(r["iterations"]),
                    "converged": r["converged"] == "True",
                }
                for r in rows
            ]
        }
    raise ValueError(f"no reference check for subcommand {subcommand!r}")


def _number_or_none(text: str) -> float | None:
    """A CSV number; None for the NaN written where a value does not exist."""
    value = float(text)
    return None if math.isnan(value) else value


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# comparing with the reference

def check(subcommand: str, seen: dict, ref: dict) -> list[str]:
    """Reasons the observed values disagree with the reference (empty if none)."""
    bad: list[str] = []
    if subcommand == "equilibrium":
        if seen["classification"] != "endemic":
            bad.append(f"classification {seen['classification']!r} is not 'endemic'")
        if not seen["multistart_spread"] < MULTISTART_SPREAD:
            bad.append(f"multistart_spread {seen['multistart_spread']:.3g} >= {MULTISTART_SPREAD}")
        for key in ("S1", "S2", "A_mass"):
            _close(bad, key, seen[key], ref[key], rtol=MASS_RTOL)
    elif subcommand == "dynamics":
        if not seen["distance_to_equilibrium"] < DYNAMICS_DISTANCE:
            bad.append(
                f"distance_to_equilibrium {seen['distance_to_equilibrium']:.3g} "
                f">= {DYNAMICS_DISTANCE}"
            )
        if seen["clip_events"] != 0:
            bad.append(f"{seen['clip_events']} clip events")
    elif subcommand == "stability":
        for key in ("is_fixed_point", "stable"):
            if seen[key] is not True:
                bad.append(f"{key} is {seen[key]!r}")
        _close(bad, "spectral_radius", seen["spectral_radius"], ref["spectral_radius"],
               atol=RADIUS_ATOL)
    elif subcommand == "spectrum":
        rows, ref_rows = seen["rows"], ref["rows"]
        if [r["epsilon"] for r in rows] != [r["epsilon"] for r in ref_rows]:
            bad.append(f"{len(rows)} rows do not match the reference epsilons")
            return bad
        for r, q in zip(rows, ref_rows):
            where = f"epsilon={r['epsilon']:g}"
            if not r["converged"]:
                bad.append(f"{where}: not converged")
            _close(bad, f"{where} lambda1", r["lambda1"], q["lambda1"], rtol=LAMBDA1_RTOL)
            if r["lambda2"] is None or q["lambda2"] is None:
                if r["lambda2"] != q["lambda2"]:
                    bad.append(f"{where}: lambda2 {r['lambda2']!r}, reference {q['lambda2']!r}")
            else:
                _close(bad, f"{where} lambda2", r["lambda2"], q["lambda2"], atol=LAMBDA2_ATOL)
    else:
        raise ValueError(f"no reference check for subcommand {subcommand!r}")
    return bad


def _close(bad: list[str], what: str, value: float, ref: float, *,
           rtol: float = 0.0, atol: float = 0.0) -> None:
    limit = atol + rtol * abs(ref)
    if not abs(value - ref) <= limit:
        bad.append(f"{what} = {value!r}, reference {ref!r} (limit {limit:.3g})")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
