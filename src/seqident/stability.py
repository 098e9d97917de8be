"""Identifiability checks for sequential decision strategies.

All graphical criteria reduce to separation queries on derived graphs:
simple and extended stability are read off the regime-augmented diagram,
the general criterion off the per-stage hybrid-regime graphs, and the
Pearl-Robins criterion off the per-stage edge-deleted graphs.  Each of the
four is its list of stage queries (index, graph, x, y, z) handed to one
runner, ``_run``, which asks them in stage order, building each stage's
graph only when that stage comes up, and renders one entry per query.  A
stage whose x is empty passes as vacuous.  Failed entries carry a witness
path.

A graphical check runs once per diagram object and spec: its report is
stored on the diagram instance, so a later call with the same object and
spec, including the calls inside ``decide_identifiability``, returns the same
report.  An equal diagram built separately starts with an empty store.
A spec is checked against a diagram object once as well: ``parent_spec``
stores its strategy-parent masks on the instance, and every check and check
graph reads them through ``diagram._spec_masks``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .diagram import (
    REGIME,
    StagedDiagram,
    StrategyParentSpec,
    VarKind,
    _spec_masks,
    build_check_graph,
    build_pearl_robins_graph,
    is_full_history,
)
from .errors import InternalTheorem2Violation
from .graph import SeparationVerdict, ancestors, d_separated
from .prob import DiscreteModel, _condition, _contract, _spliced_factors
from .strategy import Strategy


@dataclass(frozen=True)
class CheckEntry:
    index: int
    query: str
    passed: bool
    verdict: SeparationVerdict | None = None
    note: str = ""


@dataclass(frozen=True)
class IdentificationReport:
    check: str
    entries: tuple[CheckEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _render(d: StagedDiagram, x: Iterable[str], y: tuple[str], z: Iterable[str]) -> str:
    """The query as text, x and z in diagram order; y is one label, which may
    be the regime node, and has nothing to sort."""
    order = d.position.__getitem__
    left = ", ".join(sorted(x, key=order)) + " _||_ " + ", ".join(y)
    zs = sorted(z, key=order)
    return left + (" | " + ", ".join(zs) if zs else "")


def _once_per_diagram(check: Callable[..., IdentificationReport]):
    """Store check's report on the diagram object, keyed by check and spec.

    The store sits in the instance ``__dict__``, as ``cached_property``
    values do, so it lives and dies with the object and is never shared by
    equal diagrams.  A call that raises stores nothing.  Before a check
    first runs with a spec, ``diagram._spec_masks`` reads the spec's masks,
    which refuses a spec that ``parent_spec`` would not give for this
    diagram object.
    """

    @functools.wraps(check)
    def once(d: StagedDiagram, *spec: StrategyParentSpec) -> IdentificationReport:
        reports = d.__dict__.setdefault("_check_reports", {})
        key = (check.__name__, *spec)
        report = reports.get(key)
        if report is None:
            for s in spec:
                _spec_masks(d, s)
            report = reports[key] = check(d, *spec)
        return report

    return once


# what a stage lacks when its first query set is empty, by check
_LACKS = {"simple-stability": "covariates", "extended-stability": "covariates or hidden variables"}


def _run(
    d: StagedDiagram, check: str, queries: Iterable[tuple], notes: tuple[str, ...] = ()
) -> IdentificationReport:
    """One entry per stage query (index, graph, x, y, z), asked in turn.

    The queries are drawn one at a time, so a generator builds a stage's
    graph only after the earlier stages are asked, and a graph that raises
    leaves no report.  A stage with an empty x passes vacuously.
    """
    entries = []
    for i, g, x, y, z in queries:
        if x:
            v = d_separated(g, x, y, z)
            entries.append(CheckEntry(i, _render(d, x, y, z), v.separated, v))
        else:
            lacks = f"stage {i} has no {_LACKS[check]}"
            entries.append(CheckEntry(i, lacks, True, None, "vacuous"))
    return IdentificationReport(check, tuple(entries), notes)


def _stability_queries(d: StagedDiagram) -> Iterator[tuple]:
    """Per stage, the covariate block vs the regime in the regime graph, given
    the observed past."""
    for i in range(1, d.n_stages + 2):
        past = d.actions_before(i) + d.covariates_before(i)
        yield i, d.regime_dag, d.covariate_block(i), (REGIME,), past


@_once_per_diagram
def check_simple_stability(d: StagedDiagram) -> IdentificationReport:
    """Per stage, the covariate block given the observed past is regime-invariant."""
    return _run(d, "simple-stability", _stability_queries(d))


@_once_per_diagram
def check_extended_stability(d: StagedDiagram) -> IdentificationReport:
    """Simple stability once the hidden blocks are added to the conditioning chain:
    each stage's hidden variables join its block and every later past."""
    n = d.n_stages
    return _run(d, "extended-stability", (
        (i, g, (d.hidden_labels(i) if i <= n else ()) + x, y,
         z + d.stage_span(VarKind.HIDDEN, 1, i))
        for i, g, x, y, z in _stability_queries(d)
    ))


@_once_per_diagram
def check_general(d: StagedDiagram, spec: StrategyParentSpec) -> IdentificationReport:
    """Outcome vs regime in every hybrid-regime graph, given the history so far.

    A pass identifies every strategy whose parent sets match the spec, given
    positivity.  The same separation test is applied whether the strategy
    kernels are deterministic or stochastic.
    """
    return _run(d, "general-criterion", (
        (
            i,
            build_check_graph(d, spec, i),
            (d.outcome_label,),
            (REGIME,),
            d.actions_before(i + 1) + d.covariates_through(i),
        )
        for i in range(1, d.n_stages + 1)
    ), notes=("applies to stochastic strategy kernels as well as deterministic ones",))


@_once_per_diagram
def check_pearl_robins(d: StagedDiagram, spec: StrategyParentSpec) -> IdentificationReport:
    """Outcome vs each action in the edge-deleted graphs, given the action's history."""
    return _run(d, "pearl-robins", (
        (
            i,
            build_pearl_robins_graph(d.dag, d, spec, i),
            (d.outcome_label,),
            (d.action_label(i),),
            d.actions_before(i) + d.covariates_through(i),
        )
        for i in range(1, d.n_stages + 1)
    ))


@_once_per_diagram
def check_assumptions(d: StagedDiagram, spec: StrategyParentSpec) -> IdentificationReport:
    """Regularity assumptions for the optimal-strategy reduction.

    Checked: every action's strategy parents are a subset of its
    observational parents, and every covariate is an ancestor of the outcome
    in the all-strategy-parents graph.  The two implied ancestry facts are
    reported informationally.
    """
    d0 = build_check_graph(d, spec, 0)
    y = d.outcome_label
    entries = []
    for i, a in enumerate(d.actions, start=1):
        ok = spec.of(a) <= set(d.pa_o(a))
        entries.append(CheckEntry(i, f"strategy parents of {a} within observational parents", ok))
    covariates = [v for v in d.vars if v.kind is VarKind.COVARIATE]
    where = "in the all-strategy graph"
    anc_y = ancestors(d0, (y,))
    for v in covariates:
        ok = v.label in anc_y and v.label != y
        entries.append(CheckEntry(v.stage, f"{v.label} is an ancestor of {y} {where}", ok))
    notes = [f"informational: {a} ancestor of {y} {where}: {a in anc_y}" for a in d.actions]
    anc_actions = ancestors(d0, d.actions)
    notes += [
        f"informational: {v.label} ancestor of some action {where}: {v.label in anc_actions}"
        for v in covariates
    ]
    return IdentificationReport(check="assumptions", entries=tuple(entries), notes=tuple(notes))


def check_theorem1_numeric(
    m: DiscreteModel,
    d: StagedDiagram,
    s: Strategy,
    tol: float = 1e-9,
) -> IdentificationReport:
    """Numeric counterpart of the general criterion on a concrete model.

    For each stage the outcome's conditional given the observed history must
    agree between the two spliced joints that differ only in how that stage's
    action arose.  Histories with zero probability under either splice are
    skipped and counted in the entry note.
    """
    y = d.outcome_label
    n = d.n_stages
    hists = [d.actions_before(i + 1) + d.covariates_through(i) for i in range(1, n + 1)]
    laws: dict[tuple[int, int], np.ndarray] = {}  # (split, stage) -> joint of history and Y
    for j in range(n + 1):
        # split j serves stages j and j + 1
        factors = _spliced_factors(m, d, s, j)
        for i in (j, j + 1):
            if 1 <= i <= n:
                laws[j, i] = _contract(d.labels, m.states, factors, hists[i - 1] + (y,))
    entries = []
    for i, hist in enumerate(hists, start=1):
        lc, lmask = _condition(laws[i - 1, i], len(hist))
        rc, rmask = _condition(laws[i, i], len(hist))
        both = lmask & rmask
        dev = float(np.abs(lc - rc)[both].max(initial=0.0))
        skipped = int((~both).sum())
        note = f"max deviation {dev:.3e}"
        if skipped:
            note += f"; skipped {skipped} zero-probability histories"
        entries.append(
            CheckEntry(
                i,
                f"outcome law given {', '.join(hist) or 'nothing'} invariant to stage-{i} splice",
                dev <= tol,
                None,
                note,
            )
        )
    return IdentificationReport(check="splice-agreement", entries=tuple(entries))


class IdentifiabilityVerdict(str, enum.Enum):
    IDENTIFIED_SIMPLE = "IdentifiedSimple"
    IDENTIFIED_GENERAL = "IdentifiedGeneral"
    NOT_GUARANTEED = "NotGuaranteed"


@dataclass(frozen=True)
class IdentifiabilityDecision:
    verdict: IdentifiabilityVerdict
    simple: IdentificationReport
    general: IdentificationReport | None
    assumptions: IdentificationReport

    @property
    def reports(self) -> tuple[IdentificationReport, ...]:
        out: tuple[IdentificationReport, ...] = (self.simple,)
        if self.general is not None:
            out += (self.general,)
        return out + (self.assumptions,)


def decide_identifiability(
    d: StagedDiagram, spec: StrategyParentSpec
) -> IdentifiabilityDecision:
    """Sufficiency-only identifiability verdict for the strategy class.

    Simple stability alone settles the question when it holds; otherwise the
    general criterion is consulted.  NotGuaranteed means neither sufficient
    condition applies, not that identification is impossible.  On
    full-history specs satisfying both regularity assumptions the general
    criterion can never out-do simple stability; observing that would be an
    implementation bug and raises instead of returning.
    """
    simple = check_simple_stability(d)
    assumptions = check_assumptions(d, spec)
    if simple.passed:
        return IdentifiabilityDecision(
            IdentifiabilityVerdict.IDENTIFIED_SIMPLE, simple, None, assumptions
        )
    general = check_general(d, spec)
    if general.passed:
        if is_full_history(d, spec) and assumptions.passed:
            raise InternalTheorem2Violation(
                "general criterion passed without simple stability on a "
                f"full-history problem with assumptions satisfied: vars "
                f"{[v.label for v in d.vars]}, edges {list(d.edges)}"
            )
        return IdentifiabilityDecision(
            IdentifiabilityVerdict.IDENTIFIED_GENERAL, simple, general, assumptions
        )
    return IdentifiabilityDecision(
        IdentifiabilityVerdict.NOT_GUARANTEED, simple, general, assumptions
    )
