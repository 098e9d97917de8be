"""Print the end-to-end metrics and fail ratio of every workload in one table.

Usage (from the root of a checkout):

    python3 perfbench/summary.py [--seed N] [--seconds S]

``--seconds`` defaults to the ``run_seconds`` of BENCHMARK.json.

Each workload runs through run.py in a fresh process, so peak memory is
that workload's own.  Exits 1 if any workload fails to run or to check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("detail "))
        for name, m in result["metrics"].items():
            print(f"{w['name']:9s} {name:13s} {m['value']:12.4f} {m['unit']}")
        print(f"{w['name']:9s} {'fail_ratio':13s} {detail['fail_ratio']:12.4f} ratio")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
