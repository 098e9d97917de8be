"""Line-oriented model files.

Grammar (whitespace-separated tokens, ``#`` starts a comment):

    stages <N>
    var <name> <action|covariate|hidden|outcome> stage=<i>
    edge <from> -> <to>
    cpt <var> | <parent list or -> : <p p ...>       # one line per parent
                                                     # configuration, in
                                                     # lexicographic order
    strategy <name> <action> | <pa_s list or -> : <p p ...>
    loss : <k(y0) k(y1) ...>

Variables must be declared before they are referenced.  State counts are
inferred from the probability-vector lengths, so a file either carries a
complete cpt section or none at all.  Strategy kernels are bound only when a
model is present; the parent sets in strategy headers are always available.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, not at the other breaks that
``str.splitlines`` knows.  A line is parsed as the plain strings that
``str.split`` makes of it, up to its comment; a token the grammar has no
place for is an issue.  Issues name a token by its index on the line, and
its column is worked out from the raw line only when an issue is reported.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .diagram import (
    REGIME,
    StagedDiagram,
    StrategyParentSpec,
    VarKind,
    kernel_parent_order,
    parent_spec,
    staged_diagram,
)
from .errors import InvalidParentSpec, SeqidentError, UnknownLabel
from .graph import MAX_NODES
from .prob import DiscreteModel, LossFunction, loss_function
from .strategy import Strategy, make_stochastic

_KINDS = {k.value for k in VarKind}
_LINE_BREAK = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class ModelFileError(SeqidentError):
    def __init__(self, issues: list[ParseIssue]):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(eq=False)
class ParsedModelFile:
    diagram: StagedDiagram
    model: DiscreteModel | None
    strategies: tuple[Strategy, ...] | None
    loss: LossFunction | None
    strategy_specs: dict[str, StrategyParentSpec] = field(default_factory=dict)

    def strategy(self, name: str) -> Strategy:
        for s in self.strategies or ():
            if s.name == name:
                return s
        raise UnknownLabel(f"no strategy named {name!r} in file")


def split_lines(text: str) -> list[str]:
    """The lines of a model file: breaks at ``\\n``, ``\\r\\n`` and ``\\r`` only."""
    return _LINE_BREAK.split(text)


def _col(raw: str, k: int) -> int:
    """1-based column of token k of a raw line (``str.split`` splits on the same
    whitespace as ``\\S+``)."""
    body = raw.split("#", 1)[0]
    return next(itertools.islice(re.finditer(r"\S+", body), k, None)).start() + 1


def _find(toks: list[str], text: str, start: int) -> int | None:
    try:
        return toks.index(text, start)
    except ValueError:
        return None


@dataclass
class _TableRows:
    parents: tuple[str, ...]
    at: tuple[int, int]  # line and column of the first directive
    rows: list[list[float]]


def parse_model_file(text: str) -> ParsedModelFile:
    """Parse a model file; raises ModelFileError carrying every issue found."""
    issues: list[ParseIssue] = []
    stages: int | None = None
    declared: dict[str, tuple[str, int]] = {}  # name -> (kind, stage)
    edges: dict[tuple[str, str], None] = {}
    tables: dict[tuple[str, ...], _TableRows] = {}  # ("cpt", var) or ("strategy", name, action)
    loss_vals: list[float] | None = None
    loss_at = (0, 0)
    ln, raw = 0, ""  # the line being parsed, which err() locates tokens on

    def err(k: int, msg: str) -> None:
        issues.append(ParseIssue(ln, _col(raw, k), msg))

    def undeclared(toks: list[str], k: int) -> bool:
        if toks[k] in declared:
            return False
        err(k, f"undeclared variable {toks[k]!r}")
        return True

    def numbers(toks: list[str], start: int) -> list[float] | None:
        vals = []
        for k in range(start, len(toks)):
            try:
                vals.append(float(toks[k]))
            except ValueError:
                err(k, f"not a number: {toks[k]!r}")
                return None
        return vals or None

    for ln, raw in enumerate(split_lines(text), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "stages":
            if len(toks) != 2 or not re.fullmatch(r"\d+", toks[1]):
                err(0, "expected 'stages <N>'")
            elif stages is not None:
                err(0, "duplicate stages line")
            else:
                stages = int(toks[1])
                if stages + 1 > MAX_NODES:  # one action per stage plus the outcome
                    err(1, f"{stages} stages need {stages + 1} nodes; the maximum is {MAX_NODES}")
        elif head == "var":
            if len(toks) != 4:
                err(0, "expected 'var <name> <kind> stage=<i>'")
                continue
            _, name, kind, stage = toks
            m = re.fullmatch(r"stage=(\d+)", stage)
            if kind not in _KINDS:
                err(2, f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
            elif not m:
                err(3, "expected stage=<i>")
            elif name in declared:
                err(1, f"duplicate variable {name!r}")
            elif name == REGIME:
                err(1, f"{REGIME!r} is reserved for the regime node")
            else:
                if len(declared) == MAX_NODES:
                    err(1, f"{name!r} is variable {MAX_NODES + 1}; the maximum is {MAX_NODES}")
                declared[name] = (kind, int(m.group(1)))
        elif head == "edge":
            if len(toks) != 4 or toks[2] != "->":
                err(0, "expected 'edge <from> -> <to>'")
            elif not undeclared(toks, 1) | undeclared(toks, 3):  # `|`: report both ends
                if (toks[1], toks[3]) in edges:
                    err(1, f"duplicate edge {toks[1]} -> {toks[3]}")
                else:
                    edges[toks[1], toks[3]] = None
        elif head in ("cpt", "strategy"):
            # cpt <var> | ... and strategy <name> <action> | ...: the variable
            # checked is token need - 1, just before the bar on a well-formed line
            need = 2 if head == "cpt" else 3
            if len(toks) <= need:
                err(0, f"malformed {head} line")
                continue
            bar, colon = _find(toks, "|", need), _find(toks, ":", need)
            if bar is None or colon is None or colon < bar:
                err(0, "expected '| <parents> : <numbers>'")
                continue
            bad = undeclared(toks, need - 1)
            if bar > need:
                err(need, f"unexpected token {toks[need]!r} before '|'")
                bad = True
            parents = toks[bar + 1 : colon]
            if parents == ["-"]:
                parents = []
            for j, p in enumerate(parents):
                bad |= undeclared(toks, bar + 1 + j)
                if p in parents[:j]:
                    err(bar + 1 + j, f"duplicate parent {p!r}")
                    bad = True
            probs = numbers(toks, colon + 1)
            if probs is None:
                err(0, "missing probabilities")
                continue
            if bad:
                continue
            key = tuple(toks[:need])
            entry = tables.get(key)
            if entry is None:
                tables[key] = _TableRows(tuple(parents), (ln, _col(raw, 0)), [probs])
            elif entry.parents != tuple(parents):
                err(0, f"inconsistent parent list; first declared {entry.parents}")
            else:
                entry.rows.append(probs)
        elif head == "loss":
            colon = _find(toks, ":", 0)
            if colon is None:
                err(0, "expected ': <numbers>'")
            elif colon > 1:
                err(1, f"unexpected token {toks[1]!r} before ':'")
            elif loss_vals is not None:
                err(0, "duplicate loss line")
            elif (vals := numbers(toks, colon + 1)) is None:
                err(0, "missing loss values")
            else:
                loss_vals, loss_at = vals, (ln, _col(raw, 0))
        else:
            err(0, f"unknown directive {head!r}")

    if stages is None:
        issues.append(ParseIssue(1, 1, "missing 'stages <N>' line"))
    if issues:
        raise ModelFileError(issues)
    assert stages is not None

    diagram = staged_diagram(stages, [(n, *decl) for n, decl in declared.items()], list(edges))
    cpt_rows = {key[1]: rows for key, rows in tables.items() if key[0] == "cpt"}
    strat_rows = {key[1:]: rows for key, rows in tables.items() if key[0] == "strategy"}
    model, states = _bind_model(diagram, cpt_rows, issues)
    specs, strategies = _bind_strategies(diagram, strat_rows, states, issues)
    loss = None
    if loss_vals is not None:
        try:
            outcome = diagram.outcome_label
            if states is not None and len(loss_vals) != states[outcome]:
                raise ValueError(
                    f"loss has {len(loss_vals)} entries, outcome has {states[outcome]} states"
                )
            loss = loss_function(loss_vals, outcome)
        except UnknownLabel:
            issues.append(ParseIssue(*loss_at, "loss needs an outcome variable"))
        except ValueError as exc:
            issues.append(ParseIssue(*loss_at, str(exc)))
    if issues:
        raise ModelFileError(issues)
    return ParsedModelFile(
        diagram=diagram,
        model=model,
        strategies=strategies,
        loss=loss,
        strategy_specs=specs,
    )


def _lex_reshape(
    rows: _TableRows,
    given_states: list[int],
    n_own: int,
    canonical: tuple[str, ...],
    issues: list[ParseIssue],
) -> np.ndarray | None:
    """Rows in lexicographic order over the file's parent order, transposed to
    the canonical parent order."""
    expected = 1
    for s in given_states:
        expected *= s
    if len(rows.rows) != expected:
        msg = f"{len(rows.rows)} rows given, parent configurations require {expected}"
        issues.append(ParseIssue(*rows.at, msg))
        return None
    flat = np.array(rows.rows, dtype=float)
    arr = flat.reshape(tuple(given_states) + (n_own,))
    perm = [rows.parents.index(p) for p in canonical]
    return np.transpose(arr, perm + [len(given_states)])


def _bind_model(
    diagram: StagedDiagram,
    cpt_rows: dict[str, _TableRows],
    issues: list[ParseIssue],
) -> tuple[DiscreteModel | None, dict[str, int] | None]:
    if not cpt_rows:
        return None, None
    states: dict[str, int] = {}
    for var, rows in cpt_rows.items():
        lengths = {len(r) for r in rows.rows}
        if len(lengths) != 1:
            issues.append(ParseIssue(*rows.at, f"rows for {var} differ in length"))
            return None, None
        states[var] = lengths.pop()
    missing = [v.label for v in diagram.vars if v.label not in cpt_rows]
    if missing:
        first = next(iter(cpt_rows.values()))
        issues.append(ParseIssue(*first.at, f"cpt section incomplete; missing {missing}"))
        return None, None
    cpts: dict[str, np.ndarray] = {}
    for var, rows in cpt_rows.items():
        canonical = diagram.parents[var]
        if set(rows.parents) != set(canonical):
            msg = f"cpt parents {list(rows.parents)} do not match edges {list(canonical)}"
            issues.append(ParseIssue(*rows.at, msg))
            continue
        arr = _lex_reshape(rows, [states[p] for p in rows.parents], states[var], canonical, issues)
        if arr is not None:
            cpts[var] = arr
    if len(cpts) != len(cpt_rows):
        return None, None
    return DiscreteModel(states=states, cpts=cpts), states


def _bind_strategies(
    diagram: StagedDiagram,
    strat_rows: dict[tuple[str, ...], _TableRows],
    states: dict[str, int] | None,
    issues: list[ParseIssue],
) -> tuple[dict[str, StrategyParentSpec], tuple[Strategy, ...] | None]:
    specs: dict[str, StrategyParentSpec] = {}
    strategies: list[Strategy] = []
    for name in dict.fromkeys(n for n, _ in strat_rows):
        mine = {a: rows for (n, a), rows in strat_rows.items() if n == name}
        at = next(iter(mine.values())).at
        try:
            spec = parent_spec(diagram, {a: rows.parents for a, rows in mine.items()})
        except InvalidParentSpec as exc:
            issues.append(ParseIssue(*at, str(exc)))
            continue
        missing = [a for a in diagram.actions if a not in mine]
        if missing:
            issues.append(ParseIssue(*at, f"strategy {name} missing kernels for {missing}"))
            continue
        specs[name] = spec
        if states is None:
            continue
        kernels: dict[str, np.ndarray] = {}
        ok = True
        for a, rows in mine.items():
            canonical = kernel_parent_order(diagram, spec, a)
            n_own = states[a]
            if any(len(r) != n_own for r in rows.rows):
                issues.append(ParseIssue(*rows.at, f"rows must have {n_own} entries"))
                ok = False
                continue
            arr = _lex_reshape(rows, [states[p] for p in rows.parents], n_own, canonical, issues)
            if arr is None:
                ok = False
                continue
            kernels[a] = arr
        if not ok:
            continue
        try:
            strategies.append(make_stochastic(diagram, states, spec, kernels, name))
        except (ValueError, SeqidentError) as exc:
            issues.append(ParseIssue(*at, str(exc)))
    bound = tuple(strategies) if states is not None and strategies else None
    return specs, bound


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_table(out: list[str], head: str, parents: tuple[str, ...], table: np.ndarray) -> None:
    """One row per parent configuration, in lexicographic order."""
    prefix = f"{head} | {' '.join(parents) or '-'} : "
    for row in table.reshape(-1, table.shape[-1]):
        out.append(prefix + " ".join(_fmt(p) for p in row))


def serialize_model_file(pf: ParsedModelFile) -> str:
    """Canonical text for a parsed file; parse(serialize(x)) == x on content."""
    d = pf.diagram
    out: list[str] = [f"stages {d.n_stages}"]
    for v in d.vars:
        out.append(f"var {v.label} {v.kind.value} stage={v.stage}")
    for a, b in d.edges:
        out.append(f"edge {a} -> {b}")
    if pf.model is not None:
        for v in d.vars:
            _write_table(out, f"cpt {v.label}", d.parents[v.label], pf.model.cpts[v.label])
    for s in pf.strategies or ():
        for a in s.actions:
            _write_table(out, f"strategy {s.name} {a}", s.parents_of(a), s.kernel_table(a))
    if pf.loss is not None:
        out.append("loss : " + " ".join(_fmt(v) for v in pf.loss.values))
    return "\n".join(out) + "\n"
