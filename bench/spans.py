"""Spans around the public functions of mutsel's layers, and the layer metrics.

``Tracer.install`` replaces every public function, and every public method of
every class, defined in the layer modules with a wrapper that records a span
(name, start, end, parent span).  It patches each name that is bound to the
original in any loaded ``mutsel`` module, so calls through ``from x import f``
bindings are seen too.  ``Tracer.restore`` puts every original back.  The
``grid`` module is not wrapped: its functions are single numpy reductions and
their time shows up in the callers' self time.

``layer_metrics`` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("model", "operators", "spectral", "equilibrium", "stability", "dynamics", "cli")

CONVOLVE = "operators.ConvolutionEngine.convolve_values"
UPDATE_MAP = "operators.UpdateMap.apply_values"
SOLVE_COUPLED = "equilibrium.solve_coupled"
PRINCIPAL = "spectral.principal_eigenpair"
SECOND = "spectral.second_eigenvalue"
RHS = "dynamics._System.rhs"
WRITERS = ("cli.write_csv", "cli.write_json")

# Values read from a span's arguments or result, recorded with the span.
# Each must be a count that does not depend on the hardware.
PROBES = {
    "model.build_problem": lambda args, result: {"n": result.grid.n},
    CONVOLVE: lambda args, result: {"n": len(result)},
    SOLVE_COUPLED: lambda args, result: {
        "iterations": result.iterations, "converged": bool(result.converged)
    },
    PRINCIPAL: lambda args, result: {"iterations": result.iterations},
    "dynamics.integrate": lambda args, result: {"steps": result.steps},
    "stability.derivative_matrix": lambda args, result: {"n": result.shape[0]},
    "cli.write_csv": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "cli.write_json": lambda args, result: {"bytes": os.path.getsize(args[0])},
}

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("mutsel.import_s", "s"),
    ("model.build_problem.s", "s"),
    ("model.build_problem.calls", "count"),
    ("model.grid_n", "count"),
    ("operators.convolve.calls", "count"),
    ("operators.convolve.s", "s"),
    ("operators.convolve.us_per_call", "us"),
    ("operators.convolve.share", "fraction"),
    ("operators.convolve.flops_computed", "flop"),
    ("operators.convolve.bytes_computed", "B"),
    ("operators.update_map.calls", "count"),
    ("operators.update_map.s", "s"),
    ("equilibrium.solve_coupled.calls", "count"),
    ("equilibrium.solve_coupled.s", "s"),
    ("equilibrium.solve_coupled.iterations", "count"),
    ("equilibrium.solve_coupled.convolutions", "count"),
    ("equilibrium.solve_coupled.converged_ratio", "fraction"),
    ("equilibrium.solve_uncoupled.s", "s"),
    ("equilibrium.reconstruct.s", "s"),
    ("spectral.principal_eigenpair.calls", "count"),
    ("spectral.principal_eigenpair.s", "s"),
    ("spectral.principal_eigenpair.iterations", "count"),
    ("spectral.principal_eigenpair.convolutions", "count"),
    ("spectral.second_eigenvalue.s", "s"),
    ("spectral.second_eigenvalue.convolutions", "count"),
    ("spectral.symmetric_spectrum.s", "s"),
    ("stability.stability_report.s", "s"),
    ("stability.derivative_matrix.s", "s"),
    ("stability.eig.self_s", "s"),
    ("stability.matrix_bytes_computed", "B"),
    ("dynamics.integrate.s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.rhs_evals", "count"),
    ("dynamics.us_per_rhs", "us"),
    ("cli.self_s", "s"),
    ("cli.write.s", "s"),
    ("cli.write.bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# counts that must repeat exactly between two traced runs of one workload and seed
HARDWARE_FREE = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "flop", "B"))


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a span with no traced caller
    name: str
    start: float
    end: float
    info: dict | None


class Tracer:
    """Records spans for every public callable of the layer modules while installed."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            module = sys.modules[f"mutsel.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
        # rebind the originals wherever a mutsel module holds them
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "mutsel" or name.startswith("mutsel.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end, {"raised": True}))
                raise
            end = clock()
            stack.pop()
            spans.append(Span(span_id, parent, name, start, end,
                              probe(args, result) if probe else None))
            return result

        traced = functools.wraps(fn)(traced)
        traced.bench_span = name
        return traced

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, one row per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "workload", "span_id", "parent_id", "name",
                          "start_s", "end_s", "info"])
            for s in sorted(self.spans, key=lambda s: s.span_id):
                out.writerow([self.run_id, self.workload, s.span_id, s.parent_id, s.name,
                              repr(s.start - t0), repr(s.end - t0),
                              json.dumps(s.info, sort_keys=True) if s.info else ""])


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span wrapper adds to a call: median over ``repeats`` timings."""

    def noop():
        return None

    traced = Tracer("wrapper_cost", "")._wrap(noop, "wrapper_cost.noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def leftover_wrappers() -> list[str]:
    """Names of span wrappers still bound in any loaded mutsel module."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mutsel" or name.startswith("mutsel.")):
            continue
        for attr, obj in vars(module).items():
            owners = [(attr, obj)]
            if inspect.isclass(obj):
                owners += [(f"{attr}.{m}", fn) for m, fn in vars(obj).items()]
            found += [f"{name}.{a}" for a, fn in owners if hasattr(fn, "bench_span")]
    return found


# ---------------------------------------------------------------------------
# span arithmetic

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanIndex:
    """Spans looked up by id, by name and by parent."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.span_id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            self.children[s.parent_id].append(s)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, *names: str) -> float:
        """Wall time during which at least one span of ``names`` was open."""
        chosen = [s for n in names for s in self.by_name.get(n, ())]
        if not chosen:
            return 0.0
        lo = min(s.start for s in chosen)
        hi = max(s.end for s in chosen)
        return covered(((s.start, s.end) for s in chosen), lo, hi)

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its child spans cover."""
        kids = self.children.get(span.span_id, ())
        return (span.end - span.start) - covered(
            ((k.start, k.end) for k in kids), span.start, span.end
        )

    def total(self, name: str, key: str) -> float:
        return sum((s.info or {}).get(key, 0) for s in self.by_name.get(name, ()))

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        count = 0
        for s in self.by_name.get(name, ()):
            parent = self.by_id.get(s.parent_id)
            while parent is not None:
                if parent.name == ancestor:
                    count += 1
                    break
                parent = self.by_id.get(parent.parent_id)
        return count


def fft_cost(n: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one FFT linear convolution of n values.

    scipy's ``fftconvolve`` of the n weighted values with the 2n-1 kernel
    samples pads both to N = next_fast_len(3n-2), takes two real forward
    transforms and one inverse, and multiplies N/2+1 complex values.  Flops
    count 2.5 N log2 N per transform plus 6 per complex product; bytes count
    each array read or written once: the two inputs, two padded inputs and
    the real output of length N, and three complex spectra.
    """
    from scipy.fft import next_fast_len

    big = next_fast_len(3 * n - 2, real=True)
    half = big // 2 + 1
    flops = 3 * 2.5 * big * math.log2(big) + 6 * half
    nbytes = 8 * (n + 2 * n - 1) + 8 * 3 * big + 16 * 3 * half
    return flops, nbytes


def layer_metrics(spans: list[Span], *, wall_traced: float, overhead_s: float,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), in ``LAYER_METRICS`` order."""
    ix = SpanIndex(spans)
    conv_calls = ix.calls(CONVOLVE)
    conv_s = ix.busy(CONVOLVE)
    costs = [fft_cost(s.info["n"]) for s in ix.by_name.get(CONVOLVE, ())]
    solves = ix.calls(SOLVE_COUPLED)
    rhs_evals = ix.calls(RHS)
    matrices = ix.by_name.get("stability.derivative_matrix", ())
    values = {
        "mutsel.import_s": import_s,
        "model.build_problem.s": ix.busy("model.build_problem"),
        "model.build_problem.calls": ix.calls("model.build_problem"),
        "model.grid_n": max((s.info["n"] for s in ix.by_name.get("model.build_problem", ())),
                            default=0),
        "operators.convolve.calls": conv_calls,
        "operators.convolve.s": conv_s,
        "operators.convolve.us_per_call": 1e6 * conv_s / conv_calls if conv_calls else 0.0,
        "operators.convolve.share": conv_s / wall_traced if wall_traced > 0 else 0.0,
        "operators.convolve.flops_computed": sum(f for f, _ in costs),
        "operators.convolve.bytes_computed": sum(b for _, b in costs),
        "operators.update_map.calls": ix.calls(UPDATE_MAP),
        "operators.update_map.s": ix.busy(UPDATE_MAP),
        "equilibrium.solve_coupled.calls": solves,
        "equilibrium.solve_coupled.s": ix.busy(SOLVE_COUPLED),
        "equilibrium.solve_coupled.iterations": ix.total(SOLVE_COUPLED, "iterations"),
        "equilibrium.solve_coupled.convolutions": ix.under(CONVOLVE, SOLVE_COUPLED),
        "equilibrium.solve_coupled.converged_ratio":
            ix.total(SOLVE_COUPLED, "converged") / solves if solves else 0.0,
        "equilibrium.solve_uncoupled.s": ix.busy("equilibrium.solve_uncoupled"),
        "equilibrium.reconstruct.s": ix.busy("equilibrium.reconstruct"),
        "spectral.principal_eigenpair.calls": ix.calls(PRINCIPAL),
        "spectral.principal_eigenpair.s": ix.busy(PRINCIPAL),
        "spectral.principal_eigenpair.iterations": ix.total(PRINCIPAL, "iterations"),
        "spectral.principal_eigenpair.convolutions": ix.under(CONVOLVE, PRINCIPAL),
        "spectral.second_eigenvalue.s": ix.busy(SECOND),
        "spectral.second_eigenvalue.convolutions": ix.under(CONVOLVE, SECOND),
        "spectral.symmetric_spectrum.s": ix.busy("spectral.symmetric_spectrum"),
        "stability.stability_report.s": ix.busy("stability.stability_report"),
        "stability.derivative_matrix.s": ix.busy("stability.derivative_matrix"),
        "stability.eig.self_s": sum(
            ix.self_time(s) for s in ix.by_name.get("stability.stability_report", ())
        ),
        "stability.matrix_bytes_computed": sum(8 * s.info["n"] ** 2 for s in matrices),
        "dynamics.integrate.s": ix.busy("dynamics.integrate"),
        "dynamics.steps": ix.total("dynamics.integrate", "steps"),
        "dynamics.rhs_evals": rhs_evals,
        "dynamics.us_per_rhs": 1e6 * ix.busy(RHS) / rhs_evals if rhs_evals else 0.0,
        "cli.self_s": sum(ix.self_time(s) for s in spans if s.name.startswith("cli.")),
        "cli.write.s": ix.busy(*WRITERS),
        "cli.write.bytes": sum(ix.total(w, "bytes") for w in WRITERS),
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}
