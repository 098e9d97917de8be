"""seqident benchmark harness.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <identify|evaluate|optimize|cli>
        --seed <n> --seconds <s> --trace <0|1>

One client, closed loop: each item starts when the previous one has ended,
with no threads and at most one subprocess at a time.  Set-up imports
seqident in a fresh interpreter, generates the seeded inputs and warms up;
it is repeated three times and the median is ``setup_s``.  The timed phase
runs whole passes over the workload's pool, always in pool order, until the
items' busy time reaches ``--seconds``, so every run measures the same mix of
inputs and allocates tables of the same sizes in the same order.
After each pass every output is checked: the first time an item runs it
goes through the workload's correctness gate, later runs must reproduce
that output exactly.

``--trace 0`` prints the end-to-end metrics:

    items_per_s   items completed per second of item time      (1/s)
    item_p50_ms   median wall time per item                    (ms)
    item_tail_ms  fixed per-workload tail percentile of item time (ms); the
                  percentile and the samples beyond it are in the detail line
    peak_rss_mib  peak resident memory of this process, or of the largest
                  CLI child on ``cli`` (MiB)
    setup_s       input generation, import and warm-up (s)

``fail_ratio`` (failed / attempted items) is printed beside them and is the
``failed``/``attempted`` pair of the result line.

``--trace 1`` runs the timed phase untraced for half of ``--seconds``, then
exactly one traced pass with every public function of seqident's layers
wrapped (see tracing.py), and prints the per-layer metrics.  The spans are
written to ``.perfbench_out/spans-<workload>.tsv``.

The last line of stdout is the JSON result; a detail line before it holds
host facts, the tail percentile and the input properties of the pool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIB = 2**20
_IMPORT_PROBE = "import time; t = time.perf_counter(); import seqident; print(time.perf_counter() - t)"


def _import_seconds() -> float:
    """Import time of seqident (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def _host_facts() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "caches": caches or "unknown",
    }


def _summarize(facts: list[dict]) -> dict:
    """Input properties of the pool: min/median/max of numbers, shares of the rest."""
    out = {}
    for key in facts[0] if facts else ():
        vals = [f[key] for f in facts]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            out[key] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals)}
        else:
            out[key] = {
                str(v): round(sum(1 for u in vals if u == v) / len(vals), 4)
                for v in sorted(set(vals), key=str)
            }
    return out


class Run:
    """One workload's pool, its reference outputs and the tallies of a run."""

    def __init__(self, workload, pool: list) -> None:
        self.wl, self.pool = workload, pool
        self.refs: dict[int, tuple] = {}
        self.facts: dict[int, dict] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer=None) -> list[float]:
        """Time one pass over the pool, then check every output."""
        results = []
        for idx in range(len(self.pool)):
            if tracer is not None:
                tracer.begin_item()
            t0 = time.perf_counter()
            try:
                out, err = self.wl.run(self.pool[idx], tracer), None
            except Exception as exc:  # counted as a failed item
                out, err = None, exc
            results.append((idx, out, err, time.perf_counter() - t0))
        for idx, out, err, _ in results:
            self._verify(idx, out, err)
        return [dt for *_, dt in results]

    def _verify(self, idx: int, out, err) -> None:
        self.attempted += 1
        if err is not None:
            self._fail(idx, [f"{type(err).__name__}: {err}"])
            return
        digest = self.wl.digest(out)
        if idx not in self.refs:
            problems, self.facts[idx] = self.wl.check(self.pool[idx], out)
            self.refs[idx] = (digest, problems)
        else:
            ref, problems = self.refs[idx]
            if digest != ref:
                problems = problems + ["output differs from the item's first run"]
        if problems:
            self._fail(idx, problems)

    def _fail(self, idx: int, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(f"item {idx}: {p}" for p in problems[:3])

    def timed(self, seconds: float) -> list[list[float]]:
        """Whole passes until their busy time reaches ``seconds``."""
        passes: list[list[float]] = []
        while sum(map(sum, passes)) < seconds:
            passes.append(self.one_pass())
        return passes


def _throughput(passes: list[list[float]]) -> float:
    return sum(map(len, passes)) / sum(map(sum, passes))


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload; returns (result, detail)."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = _import_seconds()
            t0 = time.perf_counter()
            rng = np.random.default_rng(seed)
            pool = workload.setup(rng, workdir, tiny)
            for item in pool[: workload.warm_items]:
                workload.run(item, None)
            setups.append(import_s + time.perf_counter() - t0)
        r = Run(workload, pool)
        detail = {"workload": name, "seed": seed, "host": _host_facts(), "pool_items": len(pool)}
        if not trace:
            passes = r.timed(seconds)
            durations = [d for p in passes for d in p]
            who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            tail = float(np.percentile(durations, workload.tail_percentile))
            metrics = {
                "items_per_s": (_throughput(passes), "1/s"),
                "item_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
                "item_tail_ms": (tail * 1000.0, "ms"),
                "peak_rss_mib": (resource.getrusage(who).ru_maxrss * 1024 / MIB, "MiB"),
                "setup_s": (statistics.median(setups), "s"),
            }
            detail["tail"] = {
                "percentile": workload.tail_percentile,
                "samples": len(durations),
                "samples_beyond": sum(1 for d in durations if d > tail),
            }
        else:
            untraced = r.timed(seconds / 2)
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced = r.one_pass(tracer)
            finally:
                tracing.uninstall(patches)
            ratio = _throughput([traced]) / _throughput(untraced)
            metrics = tracing.per_layer_metrics(tracer, ratio)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracing.dump_spans(tracer, out_dir / f"spans-{name}.tsv")
            detail["spans"] = len(tracer.spans)
        detail["fail_ratio"] = r.failed / r.attempted
        detail["properties"] = _summarize([r.facts[i] for i in sorted(r.facts)])
        detail["problems"] = r.problems
        result = {
            "correct": r.failed == 0,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("identify", "evaluate", "optimize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqident" / "__init__.py").is_file():
        print(f"seqident sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqident

    if Path(seqident.__file__).resolve().parent != SRC / "seqident":
        print(f"imported seqident from {seqident.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in detail["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{args.workload:9s} {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} {'fail_ratio':32s} {detail['fail_ratio']:.6g} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
