"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a check failed (including
separation failures and NotGuaranteed verdicts), 2 usage or parse errors,
3 internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagram import (
    REGIME,
    StagedDiagram,
    StrategyParentSpec,
    augment_with_regime,
    full_history_spec,
    is_full_history,
    parent_spec,
    unconditional_spec,
    validate_diagram,
)
from .errors import (
    EmptyQuerySet,
    InternalTheorem2Violation,
    InvalidParentSpec,
    OverlappingSets,
    SeqidentError,
    StageOutOfRange,
    UnknownLabel,
    UnknownNode,
)
from .evaluate import (
    evaluate_decomposition,
    evaluate_g_recursion,
    evaluate_oracle,
    observational_conditionals,
)
from .fuzz import theorem2_fuzz
from .graph import d_separated
from .modelfile import (
    ModelFileError,
    ParsedModelFile,
    ParseIssue,
    parse_model_file,
    split_lines,
)
from .optimize import optimize_backward, optimize_bruteforce
from .prob import (
    JointTable,
    _regime_marginal,
    _regime_mixture,
    check_positivity,
    ci_deviation,
    validate_model,
)
from .stability import (
    IdentificationReport,
    check_extended_stability,
    check_general,
    check_pearl_robins,
    check_simple_stability,
    check_theorem1_numeric,
    decide_identifiability,
)
from .strategy import ENUMERATION_CAP, MAX_ENUMERATION


class _UsageError(Exception):
    """A command line the command cannot act on; exit code 2."""


class _Refused(Exception):
    """The file's diagram has violations, already printed; exit code 1."""


USAGE_ERRORS = (
    _UsageError,
    ModelFileError,
    EmptyQuerySet,
    UnknownLabel,
    UnknownNode,
    OverlappingSets,
    StageOutOfRange,
    InvalidParentSpec,
    OSError,  # the model file could not be read
)


def _load(path: str) -> ParsedModelFile:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the first bad byte, counted as the parser counts them
        head = split_lines(raw[: exc.start].decode("utf-8"))
        issue = ParseIssue(len(head), len(head[-1]) + 1, "not UTF-8 text")
        raise ModelFileError([issue]) from None
    return parse_model_file(text)


def _resolve_spec(arg: str, d: StagedDiagram) -> StrategyParentSpec:
    if arg == "full":
        return full_history_spec(d)
    if arg == "none":
        return unconditional_spec(d)
    other = _load(arg)
    if not other.strategy_specs:
        raise InvalidParentSpec(f"spec file {arg!r} declares no strategy")
    first = next(iter(other.strategy_specs))
    return parent_spec(d, dict(other.strategy_specs[first].parents))


def _print_report(rd: dict) -> None:
    """Text rendering of one ``_report_dict`` document."""
    print(f"[{rd['check']}] {'PASS' if rd['overall'] else 'FAIL'}")
    for e in rd["entries"]:
        status = "pass" if e["passed"] else "FAIL"
        line = f"  i={e['index']}: {e['query']} : {status}"
        if e["note"]:
            line += f"  ({e['note']})"
        print(line)
        if e["witness"] is not None:
            print(f"    witness: {' - '.join(e['witness'])}")
    for n in rd["notes"]:
        print(f"  note: {n}")


def _report_dict(r: IdentificationReport) -> dict:
    return {
        "check": r.check,
        "overall": r.passed,
        "entries": [
            {
                "index": e.index,
                "query": e.query,
                "separated": e.verdict.separated if e.verdict is not None else None,
                "witness": list(e.verdict.witness)
                if e.verdict is not None and e.verdict.witness is not None
                else None,
                "passed": e.passed,
                "note": e.note,
            }
            for e in r.entries
        ],
        "notes": list(r.notes),
    }


def _analyse(d: StagedDiagram, spec: StrategyParentSpec):
    """The five graphical reports in print order, and the combined verdict;
    reports the verdict already holds are reused, not rerun."""
    decision = decide_identifiability(d, spec)
    general = decision.general if decision.general is not None else check_general(d, spec)
    reports = [
        decision.simple,
        check_extended_stability(d),
        general,
        check_pearl_robins(d, spec),
        decision.assumptions,
    ]
    return reports, decision


def _has_sections(pf: ParsedModelFile, who: str, *sections: str) -> None:
    """Usage error unless the file has every named section."""
    present = {"cpt": pf.model, "loss": pf.loss, "strategy": pf.strategies}
    if any(present[name] is None for name in sections):
        if len(sections) == 1:
            raise _UsageError(f"{who} needs a {sections[0]} section")
        raise _UsageError(f"{who} needs {' and '.join(sections)} sections")


def _violation_lines(violations) -> list[str]:
    """``validate_diagram``'s findings, one line each."""
    return [f"{v.code}: {v.message}" for v in violations]


def _model_issues(pf: ParsedModelFile) -> list[str]:
    """``validate_model``'s findings on the file's model, one line each."""
    return [f"{i.code} [{i.var}]: {i.message}" for i in validate_model(pf.model, pf.diagram)]


def _require(pf: ParsedModelFile, who: str, *sections: str) -> None:
    """Usage error unless the file has every named section and, when the cpt
    section is among them, its model passes ``validate_model``."""
    _has_sections(pf, who, *sections)
    if "cpt" in sections:
        issues = _model_issues(pf)
        if issues:
            raise _UsageError("\n".join(issues))


def _inputs(args, *sections: str) -> ParsedModelFile:
    """Load ``args.file``, which must have the named sections.  A diagram with
    violations is refused: they are printed to stderr."""
    pf = _load(args.file)
    lines = _violation_lines(validate_diagram(pf.diagram))
    if lines:
        print("\n".join(lines), file=sys.stderr)
        raise _Refused
    _require(pf, args.command, *sections)
    return pf


def _cmd_validate(args) -> int:
    pf = _load(args.file)
    lines = _violation_lines(validate_diagram(pf.diagram))
    if pf.model is not None:
        lines += _model_issues(pf)
    print("\n".join(lines) or "ok")
    return 1 if lines else 0


def _cmd_dsep(args) -> int:
    pf = _inputs(args)
    groups: list[list[str]] = [[]]
    for tok in args.query:
        if tok == "/":
            groups.append([])
        else:
            groups[-1].append(tok)
    if len(groups) != 3:
        raise _UsageError("query must be '<x..> / <y..> / <z..>'")
    x, y, z = (list(dict.fromkeys(g)) for g in groups)  # each set names a label once
    uses_regime = REGIME in x + y + z
    g = augment_with_regime(pf.diagram) if uses_regime else pf.diagram.dag
    verdict = d_separated(g, x, y, z)
    if args.numeric:
        _dsep_numeric(args, pf, x, y, z, uses_regime, verdict.separated)
    if verdict.separated:
        print("separated")
        return 0
    print("NOT separated")
    print(f"witness: {' - '.join(verdict.witness)}")
    return 1


def _dsep_numeric(args, pf, x, y, z, uses_regime, separated) -> None:
    """Cross-check the graph verdict on the file's law of the query's variables."""
    _require(pf, "dsep --numeric", "cpt", *(["strategy"] if uses_regime else []))
    gap = _dsep_gap(pf, x, y, z)
    if separated:
        within = gap <= args.tol
        verdict = "independent" if within else "dependence above --tol"
        print(f"numeric: {verdict} (gap {gap:.3e} {'<=' if within else '>'} tol {args.tol:.1e})")
    else:
        felt = "felt" if gap > args.dep_tol else "below --dep-tol"
        print(f"numeric: dependence gap {gap:.3e} ({felt} at {args.dep_tol:.1e})")


def _dsep_gap(pf: ParsedModelFile, x, y, z) -> float:
    """``ci_deviation`` on the law of the query's variables alone.  A regime node
    in the query mixes the observational law with the first strategy's."""
    labels = tuple(v for v in x + y + z if v != REGIME)
    if REGIME in x + y + z:
        table = _regime_mixture(pf.model, pf.diagram, pf.strategies[0], labels)
        labels += (REGIME,)
    else:
        table = _regime_marginal(pf.model, pf.diagram, None, labels)
    return ci_deviation(JointTable(labels, table), x, y, z)


def _cmd_check(args) -> int:
    pf = _inputs(args)
    d = pf.diagram
    want_all = args.all or not (args.simple or args.extended or args.general or args.pearl_robins)
    spec = None
    if want_all or args.general or args.pearl_robins:
        spec = _resolve_spec(args.spec, d)
    if want_all:
        reports, decision = _analyse(d, spec)
    else:
        reports = []
        if args.simple:
            reports.append(check_simple_stability(d))
        if args.extended:
            reports.append(check_extended_stability(d))
        if args.general:
            reports.append(check_general(d, spec))
        if args.pearl_robins:
            reports.append(check_pearl_robins(d, spec))
    for r in reports:
        _print_report(_report_dict(r))
    if want_all:
        # the combined run answers the identifiability question, so the exit
        # code follows the verdict; assumption entries are regularity
        # conditions and never gate it
        print(f"verdict: {decision.verdict.value}")
        return 0 if decision.verdict.value != "NotGuaranteed" else 1
    return 0 if all(r.passed for r in reports) else 1


def _cmd_positivity(args) -> int:
    pf = _inputs(args, "cpt")
    s = pf.strategy(args.strategy)
    report = check_positivity(pf.model, pf.diagram, s)
    if report.passed:
        print("positivity holds")
        return 0
    for issue in report.issues:
        hist = ", ".join(f"{v}={st}" for v, st in issue.history) or "(empty)"
        print(
            f"stage {issue.stage}: action state {issue.action_state} at {hist}: {issue.reason}"
        )
    return 1


def _cmd_evaluate(args) -> int:
    pf = _inputs(args, "cpt", "loss")
    s = pf.strategy(args.strategy)
    if args.method == "grecursion":
        oc = observational_conditionals(pf.model, pf.diagram)
        result = evaluate_g_recursion(oc, s, pf.loss)
    elif args.method == "oracle":
        result = evaluate_oracle(pf.model, pf.diagram, s, pf.loss)
    else:
        if not s.deterministic:
            raise _UsageError("decomposition method needs a deterministic strategy")
        result = evaluate_decomposition(pf.model, pf.diagram, s, pf.loss)
    print(f"value {result.value!r}")
    return 0


def _strategy_table_lines(d: StagedDiagram, choices, oc) -> list[str]:
    lines = []
    for i, a in enumerate(d.actions):
        table = choices[a]
        hist_vars = oc.hist_vars[i] + oc.block_vars[i]
        if table.ndim == 0:
            lines.append(f"{a} = {int(table)}")
            continue
        for cfg in np.ndindex(*table.shape):
            rendered = ", ".join(f"{v}={c}" for v, c in zip(hist_vars, cfg))
            lines.append(f"{a}({rendered}) = {int(table[cfg])}")
    return lines


def _cmd_optimize(args) -> int:
    pf = _inputs(args, "cpt", "loss")
    d = pf.diagram
    spec = _resolve_spec(args.spec, d)
    oc = observational_conditionals(pf.model, d)
    result = _optimum(oc, d, pf.loss, spec, args.max_enum)
    print(f"value {result.value!r}")
    if result.choices is not None:
        for line in _strategy_table_lines(d, result.choices, oc):
            print(line)
        flagged = sum(int(u.sum()) for u in result.unreached.values())
        if flagged:
            print(f"flagged: {flagged} unreachable histories carry the tie-break action")
    else:
        print(f"argmax set size {len(result.argmax)}")
    return 0


def _optimum(oc, d: StagedDiagram, loss, spec: StrategyParentSpec, cap: int = ENUMERATION_CAP):
    """Backward induction on the full-history spec, brute force on any other."""
    if is_full_history(d, spec):
        return optimize_backward(oc, d, loss, spec)
    return optimize_bruteforce(oc, d, loss, spec, cap=cap)


def _cmd_fuzz(args) -> int:
    if not args.theorem2:
        raise _UsageError("nothing to fuzz; pass --theorem2")
    result = theorem2_fuzz(args.seed, args.iters)
    print(
        f"iterations {result.iterations}: simple {result.simple_passes}, "
        f"general-only {result.general_passes}, not-guaranteed {result.not_guaranteed}"
    )
    if not result.ok:
        for v in result.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 3
    return 0


def _cmd_report(args) -> int:
    pf = _load(args.file)
    d = pf.diagram
    doc: dict = {"file": args.file}
    violations = validate_diagram(d)
    doc["validation"] = [{"code": v.code, "message": v.message} for v in violations]
    if not violations:
        spec = _resolve_spec(args.spec, d)
        if args.strategy is not None:
            _has_sections(pf, "report --strategy", "cpt", "loss")
        reports, decision = _analyse(d, spec)
        doc["reports"] = [_report_dict(r) for r in reports]
        doc.update(verdict=decision.verdict.value, value=None, strategy_table=None)
        if pf.model is not None and pf.loss is not None:
            s = None if args.strategy is None else pf.strategy(args.strategy)
            # a numeric step that fails, or a model that validate flags,
            # leaves its first error in the fields it would have filled; the
            # reports and verdict above stand
            issues = _model_issues(pf)
            oc = {"error": issues[0]} if issues else _attempt(lambda: observational_conditionals(pf.model, d))
            if s is not None:
                doc["value"] = _attempt(lambda: evaluate_g_recursion(oc, s, pf.loss).value, oc)
                if _error(oc) is None:
                    doc["reports"].append(_report_dict(check_theorem1_numeric(pf.model, d, s, tol=args.tol)))
            # the optimum for the spec the verdict is for, found as `optimize` finds it
            doc["strategy_table"] = _attempt(lambda: _optimum_fields(_optimum(oc, d, pf.loss, spec)), oc)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in _violation_lines(violations):
            print(line)
        if not violations:
            for rd in doc["reports"]:
                _print_report(rd)
            print(f"verdict: {doc['verdict']}")
            if _error(doc["value"]) is not None:
                print(f"evaluate: {_error(doc['value'])}")
            elif doc["value"] is not None:
                print(f"value {doc['value']!r}")
            if _error(doc["strategy_table"]) is not None:
                print(f"optimize: {_error(doc['strategy_table'])}")
            elif doc["strategy_table"] is not None:
                print(f"optimal value {doc['strategy_table']['value']!r}")
                if "argmax_size" in doc["strategy_table"]:
                    print(f"argmax set size {doc['strategy_table']['argmax_size']}")
    failed = any(_error(doc.get(field)) is not None for field in ("value", "strategy_table"))
    return 1 if violations or doc.get("verdict") == "NotGuaranteed" or failed else 0


def _attempt(step, given=None):
    """``step()``, or ``{"error": message}`` when it raises a SeqidentError;
    a step whose input ``given`` holds a failed step fails with its error."""
    if _error(given) is not None:
        return given
    try:
        return step()
    except SeqidentError as exc:
        return {"error": str(exc)}


def _error(field) -> str | None:
    """The message of a report field that holds a failed step, else None."""
    return field.get("error") if isinstance(field, dict) else None


def _optimum_fields(opt) -> dict:
    """The report's ``strategy_table`` for an ``_optimum`` result."""
    if opt.choices is None:
        return {"value": opt.value, "argmax_size": len(opt.argmax)}
    return {"value": opt.value, "choices": {a: t.tolist() for a, t in opt.choices.items()}}


def _at_least(kind: type, low: int, high: float = math.inf):
    """argparse type: a finite number of the given kind, from low to high."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        # compared, not math.isfinite: that overflows on an int beyond any float
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqident",
        description=(
            "Identifiability checks, exact evaluation, and optimisation of "
            "sequential decision strategies on staged influence diagrams."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dsep", help="separation query on the diagram")
    p.add_argument("file")
    p.add_argument("query", nargs="+", metavar="X.. / Y.. / Z..")
    p.add_argument("--numeric", action="store_true",
                   help="with a cpt section, also measure the dependence on the joint")
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9,
                   help="tolerance for numeric equality checks")
    p.add_argument("--dep-tol", type=_at_least(float, 0), default=1e-6,
                   help="threshold for calling a numeric dependence real")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("check", help="run identifiability checks")
    p.add_argument("file")
    p.add_argument("--simple", action="store_true")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--general", action="store_true")
    p.add_argument("--pearl-robins", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--spec", default="full",
                   help="'full', 'none', or a file whose first strategy fixes the parent sets")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("positivity", help="support-inclusion check")
    p.add_argument("file")
    p.add_argument("--strategy", required=True)
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("evaluate", help="expected loss of a strategy")
    p.add_argument("file")
    p.add_argument("--strategy", required=True)
    p.add_argument("--method", choices=["grecursion", "oracle", "decomposition"],
                   default="grecursion")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="optimal strategy search")
    p.add_argument("file")
    p.add_argument("--spec", default="full")
    p.add_argument("--max-enum", type=_at_least(int, 1, MAX_ENUMERATION), default=ENUMERATION_CAP,
                   help="cap on strategy enumeration size")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("fuzz", help="randomised property sweeps")
    p.add_argument("--theorem2", action="store_true",
                   help="general-criterion pass implies simple stability on "
                        "full-history problems")
    # a string default goes through the type check, so a bad SEQIDENT_SEED
    # is a usage error of fuzz alone
    p.add_argument("--seed", type=_at_least(int, 0),
                   default=os.environ.get("SEQIDENT_SEED", "0"))
    p.add_argument("--iters", type=_at_least(int, 0), default=1000)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("report", help="full machine-readable report")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--spec", default="full")
    p.add_argument("--strategy", default=None)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9,
                   help="tolerance for numeric equality checks")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _Refused:
        return 1
    except ModelFileError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return 2
    except InternalTheorem2Violation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SeqidentError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
