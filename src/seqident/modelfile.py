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
"""

from __future__ import annotations

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


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[list[_Tok]]:
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [
            _Tok(m.group(0), ln, m.start() + 1) for m in re.finditer(r"\S+", body)
        ]
        lines.append(toks)
    return lines


@dataclass
class _TableRows:
    parents: tuple[str, ...]
    header: _Tok
    rows: list[tuple[int, list[float]]]  # (line, probabilities)


def _split_bar_colon(
    toks: list[_Tok], start: int, issues: list[ParseIssue]
) -> tuple[list[_Tok], list[_Tok]] | None:
    """Split ``... | parents : numbers`` after position start."""
    rest = toks[start:]
    bar = next((i for i, t in enumerate(rest) if t.text == "|"), None)
    colon = next((i for i, t in enumerate(rest) if t.text == ":"), None)
    if bar is None or colon is None or colon < bar:
        t = toks[0]
        issues.append(ParseIssue(t.line, t.col, "expected '| <parents> : <numbers>'"))
        return None
    return rest[bar + 1 : colon], rest[colon + 1 :]


def _parse_floats(toks: list[_Tok], issues: list[ParseIssue]) -> list[float] | None:
    if not toks:
        return None
    vals = []
    for t in toks:
        try:
            vals.append(float(t.text))
        except ValueError:
            issues.append(ParseIssue(t.line, t.col, f"not a number: {t.text!r}"))
            return None
    return vals


def parse_model_file(text: str) -> ParsedModelFile:
    """Parse a model file; raises ModelFileError carrying every issue found."""
    issues: list[ParseIssue] = []
    stages: int | None = None
    var_decls: list[tuple[str, str, int]] = []
    var_names: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    cpt_rows: dict[str, _TableRows] = {}
    strat_rows: dict[tuple[str, str], _TableRows] = {}
    strat_order: list[str] = []
    loss_vals: list[float] | None = None
    loss_tok: _Tok | None = None

    def err(t: _Tok, msg: str) -> None:
        issues.append(ParseIssue(t.line, t.col, msg))

    for toks in _tokenize(text):
        if not toks:
            continue
        head = toks[0]
        if head.text == "stages":
            if len(toks) != 2 or not re.fullmatch(r"\d+", toks[1].text):
                err(head, "expected 'stages <N>'")
            elif stages is not None:
                err(head, "duplicate stages line")
            else:
                stages = int(toks[1].text)
                if stages + 1 > MAX_NODES:  # one action per stage plus the outcome
                    err(toks[1], f"{stages} stages need {stages + 1} nodes; the maximum is {MAX_NODES}")
        elif head.text == "var":
            if len(toks) != 4:
                err(head, "expected 'var <name> <kind> stage=<i>'")
                continue
            name, kind, stage_tok = toks[1], toks[2], toks[3]
            if kind.text not in _KINDS:
                err(kind, f"unknown kind {kind.text!r}; expected one of {sorted(_KINDS)}")
                continue
            m = re.fullmatch(r"stage=(\d+)", stage_tok.text)
            if not m:
                err(stage_tok, "expected stage=<i>")
                continue
            if name.text in var_names:
                err(name, f"duplicate variable {name.text!r}")
                continue
            if name.text == REGIME:
                err(name, f"{REGIME!r} is reserved for the regime node")
                continue
            if len(var_decls) == MAX_NODES:
                err(name, f"{name.text!r} is variable {MAX_NODES + 1}; the maximum is {MAX_NODES}")
            var_names.add(name.text)
            var_decls.append((name.text, kind.text, int(m.group(1))))
        elif head.text == "edge":
            if len(toks) != 4 or toks[2].text != "->":
                err(head, "expected 'edge <from> -> <to>'")
                continue
            a, b = toks[1], toks[3]
            bad = False
            for t in (a, b):
                if t.text not in var_names:
                    err(t, f"undeclared variable {t.text!r}")
                    bad = True
            if bad:
                continue
            if (a.text, b.text) in edge_seen:
                err(a, f"duplicate edge {a.text} -> {b.text}")
                continue
            edge_seen.add((a.text, b.text))
            edges.append((a.text, b.text))
        elif head.text in ("cpt", "strategy"):
            is_cpt = head.text == "cpt"
            need = 2 if is_cpt else 3
            if len(toks) < need + 1:
                err(head, f"malformed {head.text} line")
                continue
            names = toks[1:need]
            split = _split_bar_colon(toks, need, issues)
            if split is None:
                continue
            parent_toks, prob_toks = split
            bad = False
            for t in names:
                if head.text == "strategy" and t is names[0]:
                    continue  # strategy name, not a variable
                if t.text not in var_names:
                    err(t, f"undeclared variable {t.text!r}")
                    bad = True
            parents: list[str] = []
            if not (len(parent_toks) == 1 and parent_toks[0].text == "-"):
                for t in parent_toks:
                    if t.text not in var_names:
                        err(t, f"undeclared variable {t.text!r}")
                        bad = True
                    if t.text in parents:
                        err(t, f"duplicate parent {t.text!r}")
                        bad = True
                    parents.append(t.text)
            probs = _parse_floats(prob_toks, issues)
            if probs is None:
                err(head, "missing probabilities")
                bad = True
            if bad:
                continue
            key: str | tuple[str, str]
            if is_cpt:
                key = names[0].text
                book = cpt_rows
            else:
                key = (names[0].text, names[1].text)
                book = strat_rows  # type: ignore[assignment]
                if names[0].text not in strat_order:
                    strat_order.append(names[0].text)
            entry = book.get(key)  # type: ignore[arg-type]
            if entry is None:
                book[key] = _TableRows(tuple(parents), head, [(head.line, probs)])  # type: ignore[index]
            else:
                if entry.parents != tuple(parents):
                    err(head, f"inconsistent parent list; first declared {entry.parents}")
                    continue
                entry.rows.append((head.line, probs))
        elif head.text == "loss":
            split = _split_colon_only(toks, issues)
            if split is None:
                continue
            if loss_vals is not None:
                err(head, "duplicate loss line")
                continue
            vals = _parse_floats(split, issues)
            if vals is None:
                err(head, "missing loss values")
                continue
            loss_vals = vals
            loss_tok = head
        else:
            err(head, f"unknown directive {head.text!r}")

    if stages is None:
        issues.append(ParseIssue(1, 1, "missing 'stages <N>' line"))
    if issues:
        raise ModelFileError(issues)
    assert stages is not None

    diagram = staged_diagram(stages, var_decls, edges)
    model, states = _bind_model(diagram, cpt_rows, issues)
    specs, strategies = _bind_strategies(diagram, strat_rows, strat_order, states, issues)
    loss = None
    if loss_vals is not None:
        assert loss_tok is not None
        outcome = diagram.outcome_label
        if states is not None and len(loss_vals) != states[outcome]:
            issues.append(
                ParseIssue(
                    loss_tok.line,
                    loss_tok.col,
                    f"loss has {len(loss_vals)} entries, outcome has {states[outcome]} states",
                )
            )
        else:
            try:
                loss = loss_function(loss_vals, outcome)
            except ValueError as exc:
                issues.append(ParseIssue(loss_tok.line, loss_tok.col, str(exc)))
    if issues:
        raise ModelFileError(issues)
    return ParsedModelFile(
        diagram=diagram,
        model=model,
        strategies=strategies,
        loss=loss,
        strategy_specs=specs,
    )


def _split_colon_only(toks: list[_Tok], issues: list[ParseIssue]) -> list[_Tok] | None:
    colon = next((i for i, t in enumerate(toks) if t.text == ":"), None)
    if colon is None:
        issues.append(ParseIssue(toks[0].line, toks[0].col, "expected ': <numbers>'"))
        return None
    return toks[colon + 1 :]


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
        issues.append(
            ParseIssue(
                rows.header.line,
                rows.header.col,
                f"{len(rows.rows)} rows given, parent configurations require {expected}",
            )
        )
        return None
    flat = np.array([r for _, r in rows.rows], dtype=float)
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
        lengths = {len(r) for _, r in rows.rows}
        if len(lengths) != 1:
            issues.append(
                ParseIssue(rows.header.line, rows.header.col, f"rows for {var} differ in length")
            )
            return None, None
        states[var] = lengths.pop()
    missing = [v.label for v in diagram.vars if v.label not in cpt_rows]
    if missing:
        first = next(iter(cpt_rows.values())).header
        issues.append(
            ParseIssue(first.line, first.col, f"cpt section incomplete; missing {missing}")
        )
        return None, None
    cpts: dict[str, np.ndarray] = {}
    for var, rows in cpt_rows.items():
        canonical = diagram.parents[var]
        if set(rows.parents) != set(canonical):
            issues.append(
                ParseIssue(
                    rows.header.line,
                    rows.header.col,
                    f"cpt parents {list(rows.parents)} do not match edges {list(canonical)}",
                )
            )
            continue
        arr = _lex_reshape(rows, [states[p] for p in rows.parents], states[var], canonical, issues)
        if arr is not None:
            cpts[var] = arr
    if len(cpts) != len(cpt_rows):
        return None, None
    return DiscreteModel(states=states, cpts=cpts), states


def _bind_strategies(
    diagram: StagedDiagram,
    strat_rows: dict[tuple[str, str], _TableRows],
    strat_order: list[str],
    states: dict[str, int] | None,
    issues: list[ParseIssue],
) -> tuple[dict[str, StrategyParentSpec], tuple[Strategy, ...] | None]:
    specs: dict[str, StrategyParentSpec] = {}
    strategies: list[Strategy] = []
    for name in strat_order:
        mine = {a: rows for (n, a), rows in strat_rows.items() if n == name}
        try:
            spec = parent_spec(diagram, {a: rows.parents for a, rows in mine.items()})
        except InvalidParentSpec as exc:
            header = next(iter(mine.values())).header
            issues.append(ParseIssue(header.line, header.col, str(exc)))
            continue
        missing = [a for a in diagram.actions if a not in mine]
        if missing:
            header = next(iter(mine.values())).header
            issues.append(
                ParseIssue(header.line, header.col, f"strategy {name} missing kernels for {missing}")
            )
            continue
        specs[name] = spec
        if states is None:
            continue
        kernels: dict[str, np.ndarray] = {}
        ok = True
        for a, rows in mine.items():
            canonical = kernel_parent_order(diagram, spec, a)
            n_own = states[a]
            if any(len(r) != n_own for _, r in rows.rows):
                issues.append(
                    ParseIssue(rows.header.line, rows.header.col, f"rows must have {n_own} entries")
                )
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
            header = next(iter(mine.values())).header
            issues.append(ParseIssue(header.line, header.col, str(exc)))
    bound = tuple(strategies) if states is not None and strategies else None
    return specs, bound


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_model_file(pf: ParsedModelFile) -> str:
    """Canonical text for a parsed file; parse(serialize(x)) == x on content."""
    d = pf.diagram
    out: list[str] = [f"stages {d.n_stages}"]
    for v in d.vars:
        out.append(f"var {v.label} {v.kind.value} stage={v.stage}")
    for a, b in d.edges:
        out.append(f"edge {a} -> {b}")
    if pf.model is not None:
        m = pf.model
        for v in d.vars:
            parents = d.parents[v.label]
            header = " ".join(parents) if parents else "-"
            table = m.cpts[v.label].reshape(-1, m.states[v.label])
            for row in table:
                out.append(
                    f"cpt {v.label} | {header} : " + " ".join(_fmt(p) for p in row)
                )
    for s in pf.strategies or ():
        for a in s.actions:
            parents = s.parents_of(a)
            header = " ".join(parents) if parents else "-"
            table = s.kernel_table(a).reshape(-1, s.kernel_table(a).shape[-1])
            for row in table:
                out.append(
                    f"strategy {s.name} {a} | {header} : " + " ".join(_fmt(p) for p in row)
                )
    if pf.loss is not None:
        out.append("loss : " + " ".join(_fmt(v) for v in pf.loss.values))
    return "\n".join(out) + "\n"
