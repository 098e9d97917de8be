"""Every parse message, pinned on seeded mutations and hand-written files.

``parse_messages.json`` holds one case per input file: either an edit list
applied to one of the shipped models (seeded mutations) or a hand-written
text.  Each case records the issue strings the parser reports, or the
serialized text when the file parses.  A change that moves any message, its
order, line or column, or the canonical text shows up as a diff of that
file.  To record the cases again after a reviewed change, run from the
repository root:

    PYTHONPATH=src python -m tests.test_parse_messages
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from seqident.graph import MAX_NODES
from seqident.modelfile import ModelFileError, parse_model_file, serialize_model_file

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "parse_messages.json"

_TOKENS = [
    "|", ":", "-", "->", "#", "nan", "inf", "-inf", "1e999", "-0.5", "0", "1", "2", "0.5",
    "x", "stage=0", "stage=1", "stage=9", "stage=x", "sigma", "Z", "hidden", "outcome",
    "action", "covariate", "covarite", "stages", "var", "edge", "cpt", "strategy", "loss",
    "²", "L1|", "-:",
]
_LINES = [
    "stages 2", "stages 99", "stages", "var Z hidden stage=1", "var Z covariate stage=9",
    "var", "edge Y -> L1", "edge A1 -> A1", "edge L1 -> Z", "edge", "loss : 1 0",
    "loss : 1 0 2", "loss :", "loss 1 0", "cpt Z | - : 1", "cpt A1 | - : 0.5 0.5",
    "cpt", "strategy t A1 | - : 1 0", "strategy t A1 | - : 0.5 0.6", "strategy t",
    "strategy t A2 | L1 A1 L2 : 1 0", "frobnicate", "  # only a comment",
]


def _mutate(rng: random.Random, lines: list[str]) -> list:
    """One edit ``[i, k, new]``: lines[i:i + k] becomes new."""
    i = rng.randrange(len(lines))
    op = rng.randrange(8)
    if op == 0:
        return [i, 1, []]
    if op == 1:
        return [i, 1, [lines[i], lines[i]]]
    if op == 2:
        return [i, 0, [rng.choice(_LINES)]]
    if op == 3 and i + 1 < len(lines):
        return [i, 2, [lines[i + 1], lines[i]]]
    if op == 4:
        indent, comment = rng.choice(("", " ", "\t", "   ")), rng.choice(("", " # note", "#x"))
        return [i, 1, [indent + lines[i] + comment]]
    toks = lines[i].split("#", 1)[0].split()
    if not toks:
        return [i, 0, [rng.choice(_LINES)]]
    k = rng.randrange(len(toks))
    pool = _TOKENS + toks
    if op == 5:
        del toks[k]
    elif op == 6:
        toks[k] = rng.choice(pool)
    elif k + 1 < len(toks) and rng.random() < 0.3:
        toks[k : k + 2] = [toks[k] + toks[k + 1]]
    else:
        toks.insert(k, rng.choice(pool))
    sep = rng.choice((" ", " ", "  ", "\t"))
    return [i, 1, [sep.join(toks)]]


def _mutations(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    sources = sorted((ROOT / "models").glob("*.sid"))
    cases = []
    for _ in range(count):
        path = rng.choice(sources)
        lines = path.read_text().splitlines()
        edits = []
        for _ in range(rng.choice((1, 1, 2))):
            i, k, new = _mutate(rng, lines)
            lines[i : i + k] = new
            edits.append([i, k, new])
        cases.append({"source": path.relative_to(ROOT).as_posix(), "edits": edits})
    return cases


_GRAPH = """\
stages 2
var L1 covariate stage=1
var U1 hidden stage=1
var A1 action stage=1
var L2 covariate stage=2
var A2 action stage=2
var Y outcome stage=3
edge L1 -> A1
edge U1 -> L2
edge A1 -> L2
edge L2 -> A2
edge A2 -> Y
"""
_CPT = """\
cpt L1 | - : 0.4 0.6
cpt U1 | - : 0.5 0.5
cpt A1 | L1 : 0.7 0.3
cpt A1 | L1 : 0.4 0.6
cpt L2 | U1 A1 : 0.8 0.2
cpt L2 | U1 A1 : 0.3 0.7
cpt L2 | U1 A1 : 0.6 0.4
cpt L2 | U1 A1 : 0.25 0.75
cpt A2 | L2 : 0.55 0.45
cpt A2 | L2 : 0.35 0.65
cpt Y | A2 : 0.9 0.1
cpt Y | A2 : 0.5 0.5
"""
_STRATEGY = """\
strategy s A1 | L1 : 1 0
strategy s A1 | L1 : 0 1
strategy s A2 | L2 : 0 1
strategy s A2 | L2 : 1 0
"""


def _hand_written() -> list[dict]:
    many = ["stages 1"] + [f"var H{i} hidden stage=1" for i in range(MAX_NODES - 1)]
    many += ["var A1 action stage=1", "var Y outcome stage=2"]
    texts = {
        "stage count over the node cap": _GRAPH.replace("stages 2", f"stages {MAX_NODES}"),
        "25th variable": "\n".join(many) + "\n",
        "hidden strategy parent": _GRAPH + "strategy h A1 | U1 : 1 0\nstrategy h A2 | - : 1 0\n",
        "outcome strategy parent": _GRAPH + "strategy o A1 | - : 1 0\nstrategy o A2 | Y : 1 0\n",
        "later covariate as strategy parent": _GRAPH
        + "strategy f A1 | L2 : 1 0\nstrategy f A2 | - : 1 0\n",
        "parent not realised before its action": _GRAPH
        + "strategy r A1 | A2 : 1 0\nstrategy r A2 | - : 1 0\n",
        "strategy for a non-action": _GRAPH + "strategy n L1 | - : 1 0\n",
        "rows must have": _GRAPH + _CPT + _STRATEGY.replace("A2 | L2 : 0 1", "A2 | L2 : 0 1 0"),
        "non-finite loss": _GRAPH + _CPT + "loss : 0 nan\n",
        "kernel rows not normalised": _GRAPH + _CPT + _STRATEGY.replace("L1 : 0 1", "L1 : 0.5 0.6"),
        "parses": _GRAPH + _CPT + _STRATEGY + "loss : 0 1\n",
        "rows differ in length": _GRAPH + _CPT.replace("0.3 0.7", "0.3 0.6 0.1"),
        "cpt parents do not match edges": _GRAPH + _CPT.replace("Y | A2", "Y | L2"),
        "loss length": _GRAPH + _CPT + "loss : 0 1 2\n",
        "missing kernels": _GRAPH + "strategy m A1 | - : 1 0\n",
        "inconsistent parent list": _GRAPH + "strategy i A1 | L1 : 1 0\nstrategy i A1 | - : 0 1\n",
        "bad edge reports both endpoints": _GRAPH + "edge P -> Q\n",
        "reserved regime name": _GRAPH + "var sigma covariate stage=1\n",
        "negative kernel entry": _GRAPH + _CPT + _STRATEGY.replace("L2 : 1 0", "L2 : 1.5 -0.5"),
        "parents in another order": _GRAPH + _CPT.replace("L2 | U1 A1", "L2 | A1 U1"),
        "extra token before the bar": _GRAPH + _CPT.replace("cpt U1 |", "cpt U1 L1 |"),
        "indented row with a comment": _GRAPH
        + _CPT.replace("cpt A2 | L2 : 0.55", "\t cpt A2 | L2 : x#0.55"),
        "unicode whitespace": _GRAPH.replace("var Y", "var Y").replace("A2 -> Y", "A2 ->　Q"),
    }
    return [{"name": name, "text": text} for name, text in texts.items()]


def _text(case: dict) -> str:
    if "text" in case:
        return case["text"]
    lines = (ROOT / case["source"]).read_text().splitlines()
    for i, k, new in case["edits"]:
        lines[i : i + k] = new
    return "\n".join(lines) + "\n"


def _outcome(text: str) -> dict:
    try:
        pf = parse_model_file(text)
    except ModelFileError as exc:
        return {"issues": [str(i) for i in exc.issues]}
    return {"serialized": serialize_model_file(pf).splitlines()}


def test_parse_messages_match_record():
    want = json.loads(RECORD.read_text())
    moved = []
    for case in want:
        recorded = {k: case[k] for k in ("issues", "serialized") if k in case}
        if (got := _outcome(_text(case))) != recorded:
            moved.append((case, got))
    assert not moved, f"{len(moved)} cases differ; first, recorded then now: {moved[0]}"


if __name__ == "__main__":
    cases = []
    for case in _mutations(400, seed=17) + _hand_written():
        try:
            case |= _outcome(_text(case))
        except Exception as exc:  # noqa: BLE001 - a crash is not a message to pin
            print(f"left out {case}: {type(exc).__name__}: {exc}")
            continue
        cases.append(case)
    RECORD.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(cases)} cases in {RECORD.relative_to(ROOT)}")
