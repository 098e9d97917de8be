"""Golden CLI outputs on the shipped models.

Every run below goes through ``cli.main`` in-process and records stdout,
stderr and the exit code in ``golden_cli.json``.  A change that moves any
printed value, even at rounding level, shows up as a diff of that file.
To record the outputs again after a reviewed change, run from the
repository root:

    PYTHONPATH=src python -m tests.test_golden_cli
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from seqident import prob
from seqident.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def _cases() -> list[list[str]]:
    """The recorded command lines; model paths are relative to the repository root."""
    cases: list[list[str]] = []
    for path in sorted((ROOT / "models").glob("*.sid")):
        f = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        labels = re.findall(r"^var (\S+)", text, re.MULTILINE)
        strategies = list(dict.fromkeys(re.findall(r"^strategy (\S+)", text, re.MULTILINE)))
        has_cpt = re.search(r"^cpt ", text, re.MULTILINE) is not None
        cases.append(["validate", f])
        cases += [["check", f, "--all"], ["check", f, "--all", "--spec", "none"]]
        for fmt, name in itertools.product(("text", "json"), [None] + strategies):
            cases.append(["report", f, "--format", fmt] + ([] if name is None else ["--strategy", name]))
        for name in strategies:
            for method in ("grecursion", "oracle", "decomposition"):
                cases.append(["evaluate", f, "--strategy", name, "--method", method])
            cases.append(["positivity", f, "--strategy", name])
        cases += [["optimize", f, "--spec", "full"], ["optimize", f, "--spec", "none"]]
        if has_cpt:
            nodes = labels + (["sigma"] if strategies else [])
            for x, y in itertools.combinations(nodes, 2):
                for z in [[]] + [[w] for w in labels if w not in (x, y)]:
                    cases.append(["dsep", f, x, "/", y, "/", *z, "--numeric", "--tol", "0"])
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {
        "argv": argv,
        "code": code,
        "out": out.getvalue().splitlines(),
        "err": err.getvalue().splitlines(),
    }


def test_cli_outputs_match_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in want] == _cases(), "case list changed; record the outputs again"
    moved = [(r, got) for r in want if (got := _run(r["argv"])) != r]
    assert not moved, f"{len(moved)} runs differ; first, recorded then now: {moved[0]}"


def test_cli_outputs_match_golden_with_one_cell_blocks(monkeypatch):
    # the observed law summed one observed configuration at a time keeps every bit
    monkeypatch.setattr(prob, "BLOCK_CELLS", 1)
    test_cli_outputs_match_golden(monkeypatch)


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = [_run(argv) for argv in _cases()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"recorded {len(runs)} runs in {GOLDEN.relative_to(ROOT)}")
