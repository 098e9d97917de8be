"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a check failed (including
separation failures and NotGuaranteed verdicts), 2 usage or parse errors,
3 internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
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
    unconditional_spec,
    validate_diagram,
)
from .errors import (
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
from .modelfile import ModelFileError, ParsedModelFile, ParseIssue, parse_model_file
from .optimize import optimize_backward, optimize_bruteforce
from .prob import check_positivity, ci_deviation, joint, regime_mixture_joint, validate_model
from .stability import (
    IdentificationReport,
    check_extended_stability,
    check_general,
    check_pearl_robins,
    check_simple_stability,
    check_theorem1_numeric,
    decide_identifiability,
)

USAGE_ERRORS = (
    ModelFileError,
    UnknownLabel,
    UnknownNode,
    OverlappingSets,
    StageOutOfRange,
    InvalidParentSpec,
)


def _load(path: str) -> ParsedModelFile:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        line = raw.count(b"\n", 0, exc.start) + 1
        issue = ParseIssue(line, exc.start - line_start + 1, "not UTF-8 text")
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
    return other.strategy_specs[first]


def _witness_text(witness) -> str:
    return " - ".join(witness)


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
            print(f"    witness: {_witness_text(e['witness'])}")
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


def _has_violations(d: StagedDiagram) -> bool:
    """Print the diagram's violations to stderr; true if there are any."""
    violations = validate_diagram(d)
    for v in violations:
        print(f"{v.code}: {v.message}", file=sys.stderr)
    return bool(violations)


def _cmd_validate(args) -> int:
    pf = _load(args.file)
    code = 0
    violations = validate_diagram(pf.diagram)
    for v in violations:
        print(f"{v.code}: {v.message}")
        code = 1
    if pf.model is not None:
        for issue in validate_model(pf.model, pf.diagram):
            print(f"{issue.code} [{issue.var}]: {issue.message}")
            code = 1
    if code == 0:
        print("ok")
    return code


def _cmd_dsep(args) -> int:
    pf = _load(args.file)
    if _has_violations(pf.diagram):
        return 1
    groups: list[list[str]] = [[]]
    for tok in args.query:
        if tok == "/":
            groups.append([])
        else:
            groups[-1].append(tok)
    if len(groups) != 3:
        print("query must be '<x..> / <y..> / <z..>'", file=sys.stderr)
        return 2
    x, y, z = groups
    uses_regime = REGIME in x + y + z
    g = augment_with_regime(pf.diagram) if uses_regime else pf.diagram.dag
    verdict = d_separated(g, x, y, z)
    if args.numeric:
        code = _dsep_numeric(args, pf, x, y, z, uses_regime, verdict.separated)
        if code is not None:
            return code
    if verdict.separated:
        print("separated")
        return 0
    print("NOT separated")
    print(f"witness: {_witness_text(verdict.witness)}")
    return 1


def _dsep_numeric(args, pf, x, y, z, uses_regime, separated) -> int | None:
    """Cross-check the graph verdict on the file's joint; returns an exit
    code only on usage problems."""
    if pf.model is None:
        print("--numeric needs a cpt section", file=sys.stderr)
        return 2
    if uses_regime:
        if not pf.strategies:
            print("--numeric with the regime node needs a strategy section", file=sys.stderr)
            return 2
        jt = regime_mixture_joint(pf.model, pf.diagram, pf.strategies[0])
    else:
        jt = joint(pf.model, pf.diagram)
    gap = ci_deviation(jt, x, y, z)
    if separated:
        print(f"numeric: independent (gap {gap:.3e} <= tol {args.tol:.1e})")
    else:
        felt = "felt" if gap > args.dep_tol else "below --dep-tol"
        print(f"numeric: dependence gap {gap:.3e} ({felt} at {args.dep_tol:.1e})")
    return None


def _cmd_check(args) -> int:
    pf = _load(args.file)
    if _has_violations(pf.diagram):
        return 1
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
    pf = _load(args.file)
    if _has_violations(pf.diagram):
        return 1
    if pf.model is None:
        print("file has no cpt section", file=sys.stderr)
        return 2
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
    pf = _load(args.file)
    if _has_violations(pf.diagram):
        return 1
    if pf.model is None or pf.loss is None:
        print("evaluate needs cpt and loss sections", file=sys.stderr)
        return 2
    s = pf.strategy(args.strategy)
    if args.method == "grecursion":
        oc = observational_conditionals(pf.model, pf.diagram)
        result = evaluate_g_recursion(oc, s, pf.loss)
    elif args.method == "oracle":
        result = evaluate_oracle(pf.model, pf.diagram, s, pf.loss)
    else:
        if not s.deterministic:
            print("decomposition method needs a deterministic strategy", file=sys.stderr)
            return 2
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
    pf = _load(args.file)
    if _has_violations(pf.diagram):
        return 1
    if pf.model is None or pf.loss is None:
        print("optimize needs cpt and loss sections", file=sys.stderr)
        return 2
    d = pf.diagram
    spec = _resolve_spec(args.spec, d)
    oc = observational_conditionals(pf.model, d)
    if is_full_history(d, spec):
        result = optimize_backward(oc, d, pf.loss, spec)
        print(f"value {result.value!r}")
        for line in _strategy_table_lines(d, result.choices, oc):
            print(line)
        flagged = sum(int(u.sum()) for u in result.unreached.values())
        if flagged:
            print(f"flagged: {flagged} unreachable histories carry the tie-break action")
    else:
        result = optimize_bruteforce(oc, d, pf.loss, spec, cap=args.max_enum)
        print(f"value {result.value!r}")
        print(f"argmax set size {len(result.argmax)}")
    return 0


def _cmd_fuzz(args) -> int:
    if not args.theorem2:
        print("nothing to fuzz; pass --theorem2", file=sys.stderr)
        return 2
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
    code = 1 if violations else 0
    if not violations:
        spec = _resolve_spec(args.spec, d)
        reports, decision = _analyse(d, spec)
        doc["reports"] = [_report_dict(r) for r in reports]
        doc["verdict"] = decision.verdict.value
        if decision.verdict.value == "NotGuaranteed":
            code = 1
        doc["value"] = None
        doc["strategy_table"] = None
        if pf.model is not None and pf.loss is not None:
            oc = observational_conditionals(pf.model, d)
            if args.strategy is not None:
                s = pf.strategy(args.strategy)
                doc["value"] = evaluate_g_recursion(oc, s, pf.loss).value
                doc["reports"].append(
                    _report_dict(check_theorem1_numeric(pf.model, d, s, tol=args.tol))
                )
            try:
                opt = optimize_backward(oc, d, pf.loss, full_history_spec(d))
            except SeqidentError as exc:
                doc["strategy_table"] = {"error": str(exc)}
            else:
                doc["strategy_table"] = {
                    "value": opt.value,
                    "choices": {a: t.tolist() for a, t in opt.choices.items()},
                }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for v in violations:
            print(f"{v.code}: {v.message}")
        if not violations:
            for rd in doc["reports"]:
                _print_report(rd)
            print(f"verdict: {doc['verdict']}")
            if doc["value"] is not None:
                print(f"value {doc['value']!r}")
            if doc["strategy_table"] is not None:
                if "value" in doc["strategy_table"]:
                    print(f"optimal value {doc['strategy_table']['value']!r}")
                else:
                    print(f"optimize: {doc['strategy_table']['error']}")
    return code


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9,
                        help="tolerance for numeric equality checks")
    common.add_argument("--dep-tol", type=float, default=1e-6,
                        help="threshold for calling a numeric dependence real")
    common.add_argument("--max-enum", type=int, default=10**6,
                        help="cap on strategy enumeration size")

    p = sub.add_parser("validate", parents=[common], help="validate a model file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dsep", parents=[common], help="separation query on the diagram")
    p.add_argument("file")
    p.add_argument("query", nargs="+", metavar="X.. / Y.. / Z..")
    p.add_argument("--numeric", action="store_true",
                   help="with a cpt section, also measure the dependence on the joint")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("check", parents=[common], help="run identifiability checks")
    p.add_argument("file")
    p.add_argument("--simple", action="store_true")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--general", action="store_true")
    p.add_argument("--pearl-robins", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--spec", default="full",
                   help="'full', 'none', or a file whose first strategy fixes the parent sets")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("positivity", parents=[common], help="support-inclusion check")
    p.add_argument("file")
    p.add_argument("--strategy", required=True)
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("evaluate", parents=[common], help="expected loss of a strategy")
    p.add_argument("file")
    p.add_argument("--strategy", required=True)
    p.add_argument("--method", choices=["grecursion", "oracle", "decomposition"],
                   default="grecursion")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", parents=[common], help="optimal strategy search")
    p.add_argument("file")
    p.add_argument("--spec", default="full")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("fuzz", parents=[common], help="randomised property sweeps")
    p.add_argument("--theorem2", action="store_true",
                   help="general-criterion pass implies simple stability on "
                        "full-history problems")
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("SEQIDENT_SEED", "0")))
    p.add_argument("--iters", type=int, default=1000)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("report", parents=[common], help="full machine-readable report")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--spec", default="full")
    p.add_argument("--strategy", default=None)
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
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SeqidentError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
