"""Span tracing of seqident's layers from outside the package.

``install`` replaces every public module-level function of each layer
module with a wrapper, at every name under which a seqident module (or the
package namespace) holds it, so calls between modules go through the
wrappers without any change to the package.  Callers outside the package
are traced when they look functions up through a module at call time
(``sq.joint(...)``), as the workloads do.

A call entering a layer from outside it opens a span; calls made inside the
same layer are counted but stay part of the open span, so a span's self time
is the layer's own work and child spans are always calls into other layers.
Spans (name, start, end, parent, self time) are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer modules, in the order their per-layer metrics are reported.
LAYERS = (
    "graph",
    "diagram",
    "stability",
    "prob",
    "evaluate",
    "strategy",
    "optimize",
    "modelfile",
    "cli",
)

_JOINTS = {"joint", "mixed_joint_pi", "dag_joint"}
_REPORTS = {
    "check_simple_stability",
    "check_extended_stability",
    "check_general",
    "check_pearl_robins",
    "check_assumptions",
}
_CHECK_GRAPHS = (
    "diagram.augment_with_regime",
    "diagram.build_check_graph",
    "diagram.build_pearl_robins_graph",
    "diagram.normalize_parents",
)
MIB = 2**20


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        # (name, layer, start, end, parent index or -1, self seconds)
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span index, layer, child seconds, start]
        self.counts: Counter = Counter()
        self.max_table_bytes = 0
        self.cli_processes: list[dict] = []
        self._report_keys: set = set()

    def begin_item(self) -> None:
        """Report uniqueness is judged within one item."""
        self._report_keys = set()

    def enter(self, layer: str) -> list:
        frame = [len(self.spans), layer, 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        frame.append(time.perf_counter())
        return frame

    def leave(self, frame: list, name: str, failed: bool) -> None:
        t1 = time.perf_counter()
        idx, layer, child_s, t0 = frame
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans[idx] = (name, layer, t0, t1, parent, (t1 - t0) - child_s)
        if self.stack:
            self.stack[-1][2] += t1 - t0
        if failed:
            self.counts[layer + ".errors"] += 1

    def absorb(self, child: dict) -> None:
        """Add the spans and counters a traced child process wrote."""
        base = len(self.spans)
        for name, layer, t0, t1, parent, own in child["spans"]:
            self.spans.append((name, layer, t0, t1, parent + base if parent >= 0 else -1, own))
        self.counts.update(child["counts"])
        self.max_table_bytes = max(self.max_table_bytes, child["max_table_bytes"])

    def observe(self, layer: str, fname: str, args: tuple, result) -> None:
        """Work counters read off a call's arguments and result."""
        if layer == "prob" and fname in _JOINTS:
            table = result.table
            self.counts["prob.joint.calls"] += 1
            self.counts["prob.cells"] += table.size
            self.counts["prob.bytes"] += table.nbytes
            self.max_table_bytes = max(self.max_table_bytes, table.nbytes)
        elif layer == "stability" and fname in _REPORTS:
            self.counts["stability.reports"] += 1
            key = (fname,) + tuple(args[:2])
            if key not in self._report_keys:
                self._report_keys.add(key)
                self.counts["stability.distinct_reports"] += 1
        elif layer == "modelfile" and fname == "parse_model_file":
            self.counts["modelfile.lines"] += args[0].count("\n")


def _wrap(tracer: Tracer, layer: str, fname: str, fn):
    name = f"{layer}.{fname}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[name] += 1
        stack = tracer.stack
        if stack and stack[-1][1] == layer:
            result = fn(*args, **kwargs)
        else:
            frame = tracer.enter(layer)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.leave(frame, name, failed)
        tracer.observe(layer, fname, args, result)
        return result

    return traced


def _traced_iter(tracer: Tracer, orig_iter):
    """Each step of a strategy enumeration is a strategy-layer span."""

    def __iter__(self):
        it = orig_iter(self)
        while True:
            tracer.counts["strategy.enumerate"] += 1
            frame = tracer.enter("strategy")
            failed = True
            try:
                s = next(it)
                failed = False
            except StopIteration:
                failed = False
                return
            finally:
                tracer.leave(frame, "strategy.enumerate", failed)
            tracer.counts["strategy.enumerated"] += 1
            yield s

    return __iter__


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every loaded layer module; returns the patches for ``uninstall``."""
    mods = [m for n, m in list(sys.modules.items()) if n == "seqident" or n.startswith("seqident.")]
    patches: list[tuple] = []
    for layer in LAYERS:
        mod = sys.modules.get(f"seqident.{layer}")
        if mod is None:
            continue
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = _wrap(tracer, layer, fname, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        patches.append((m, attr, fn))
                        setattr(m, attr, wrapped)
    enum_cls = sys.modules["seqident.strategy"].StrategyEnumeration
    patches.append((enum_cls, "__iter__", enum_cls.__iter__))
    enum_cls.__iter__ = _traced_iter(tracer, enum_cls.__iter__)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase: name -> (value, unit).

    Counts and self times are totals over the traced phase; the ``cli.*``
    figures are medians per CLI process."""
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    for name, layer, t0, t1, _parent, own in tracer.spans:
        self_s[name] += own
        incl_s[name] += t1 - t0
        layer_s[layer] += own
    c = tracer.counts

    def ms(x: float) -> tuple[float, str]:
        return (x * 1000.0, "ms")

    def count(x: float) -> tuple[float, str]:
        return (float(x), "count")

    def rate(n: float, seconds: float) -> tuple[float, str]:
        return (n / seconds if seconds > 0 else 0.0, "1/s")

    def median(key: str) -> tuple[float, str]:
        vals = [p[key] for p in tracer.cli_processes]
        return ms(statistics.median(vals) if vals else 0.0)

    reports = c["stability.reports"]
    out = {
        "graph.d_separated.calls": count(c["graph.d_separated"]),
        "graph.d_separated.self_ms": ms(self_s["graph.d_separated"]),
        "graph.build_dag.calls": count(c["graph.build_dag"]),
        "graph.build_dag.self_ms": ms(self_s["graph.build_dag"]),
        "graph.queries_per_s": rate(c["graph.d_separated"], incl_s["graph.d_separated"]),
        "diagram.check_graph.calls": count(sum(c[n] for n in _CHECK_GRAPHS)),
        "diagram.check_graph.self_ms": ms(sum(self_s[n] for n in _CHECK_GRAPHS)),
        "stability.reports": count(reports),
        "stability.self_ms": ms(layer_s["stability"]),
        "stability.unique_report_ratio": (
            c["stability.distinct_reports"] / reports if reports else 0.0,
            "ratio",
        ),
        "prob.joint.calls": count(c["prob.joint.calls"]),
        "prob.cells": count(c["prob.cells"]),
        "prob.bytes": (float(c["prob.bytes"]), "B_computed"),
        "prob.max_table_mib": (tracer.max_table_bytes / MIB, "MiB_computed"),
        "prob.cells_per_s": rate(c["prob.cells"], layer_s["prob"]),
        "prob.self_ms": ms(layer_s["prob"]),
        "prob.positivity.self_ms": ms(self_s["prob.check_positivity"]),
        "stability.splice.self_ms": ms(self_s["stability.check_theorem1_numeric"]),
        "evaluate.conditionals.self_ms": ms(self_s["evaluate.observational_conditionals"]),
        "evaluate.oracle.self_ms": ms(self_s["evaluate.evaluate_oracle"]),
        "evaluate.g_recursion.calls": count(c["evaluate.evaluate_g_recursion"]),
        "evaluate.g_recursion.self_ms": ms(self_s["evaluate.evaluate_g_recursion"]),
        "strategy.enumerated": count(c["strategy.enumerated"]),
        "strategy.enumerate.self_ms": ms(self_s["strategy.enumerate"]),
        "optimize.bruteforce.self_ms": ms(self_s["optimize.optimize_bruteforce"]),
        "optimize.backward.self_ms": ms(self_s["optimize.optimize_backward"]),
        "optimize.strategies_per_s": rate(
            c["strategy.enumerated"], incl_s["optimize.optimize_bruteforce"]
        ),
        "modelfile.parse.calls": count(c["modelfile.parse_model_file"]),
        "modelfile.parse.self_ms": ms(self_s["modelfile.parse_model_file"]),
        "modelfile.lines_per_s": rate(c["modelfile.lines"], incl_s["modelfile.parse_model_file"]),
        "cli.import_ms": median("import_s"),
        "cli.main.self_ms": median("main_self_s"),
        "cli.process_ms": median("process_s"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = count(c[layer + ".errors"])
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def dump_spans(tracer: Tracer, path) -> None:
    """Write the spans as tab-separated lines: index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tself_s\n")
        for i, (name, _layer, t0, t1, parent, own) in enumerate(tracer.spans):
            fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{own:.9f}\n")
