"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload):
    result, detail = run.run(workload, seed=7, seconds=0.01, trace=False, tiny=True)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["fail_ratio"] == 0.0, detail["problems"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    traced, detail = run.run(workload, seed=7, seconds=0.01, trace=True, tiny=True)
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert detail["fail_ratio"] == 0.0, detail["problems"]
    assert detail["spans"] > 0
