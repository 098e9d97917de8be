"""Staged influence diagrams and the derived check graphs.

Variables are grouped into decision stages.  The canonical total order is
hidden block, covariate block, action within each stage, then the outcome;
all edges must point forward in that order, which makes acyclicity hold by
construction.  Regime augmentation adds the decision node ``sigma`` with an
arrow into every action.
Positions in that order are the node ids of every graph built from the
diagram's parent masks, and each derived graph copies those masks and edits
only the actions' entries.  The order sorts by stage, so the labels of one
kind at a range of stages are a slice of a per-kind index.

``parent_spec`` is the one place a strategy parent spec is checked against a
diagram.  It stores the spec's strategy parents as position bitmasks on the
diagram object, and the kernel parent orders, parent normalisation and the
check graphs read them from there; a spec it did not give for that object
is checked once, by the same rule, on first use.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    DuplicateEdge,
    InvalidParentSpec,
    StageOutOfRange,
    UnknownLabel,
)
from .graph import Dag, _check_size, _ids

REGIME = "sigma"


class VarKind(str, enum.Enum):
    ACTION = "action"
    COVARIATE = "covariate"
    HIDDEN = "hidden"
    OUTCOME = "outcome"


_BLOCK_RANK = {
    VarKind.HIDDEN: 0,
    VarKind.COVARIATE: 1,
    VarKind.ACTION: 2,
    VarKind.OUTCOME: 3,
}


@dataclass(frozen=True)
class Variable:
    label: str
    kind: VarKind
    stage: int


@dataclass(frozen=True)
class Violation:
    code: str  # BadStageOrder | MultipleOutcomes | HiddenAfterOutcome | EdgeAgainstOrder
    message: str


@dataclass(frozen=True)
class StagedDiagram:
    """Variables with stage indices plus directed edges, in canonical order.

    ``inert`` records (action, parent) pairs added by parent normalisation;
    the observational kernel of the action must not vary with those parents.
    """

    n_stages: int
    vars: tuple[Variable, ...]
    edges: tuple[tuple[str, str], ...]
    inert: frozenset[tuple[str, str]] = field(default=frozenset())

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vars)

    @cached_property
    def position(self) -> dict[str, int]:
        return {v.label: i for i, v in enumerate(self.vars)}

    @cached_property
    def by_label(self) -> dict[str, Variable]:
        return {v.label: v for v in self.vars}

    @cached_property
    def dag(self) -> Dag:
        _check_size(self.labels)
        return Dag(self.labels, self.parent_masks)

    @cached_property
    def regime_dag(self) -> Dag:
        """The diagram plus the regime node, with one arrow into every action."""
        r = 1 << len(self.vars)
        masks = tuple(
            m | r if v.kind is VarKind.ACTION else m
            for v, m in zip(self.vars, self.parent_masks)
        )
        return Dag(self.labels + (REGIME,), masks + (0,))

    @cached_property
    def parent_masks(self) -> tuple[int, ...]:
        """Each variable's parents as a bitmask over positions."""
        pos = self.position
        out = [0] * len(self.vars)
        for a, b in self.edges:
            out[pos[b]] |= 1 << pos[a]
        return tuple(out)

    @cached_property
    def parents(self) -> dict[str, tuple[str, ...]]:
        # parent lists in canonical order
        labels = self.labels
        return {
            lab: tuple(labels[p] for p in _ids(m)) for lab, m in zip(labels, self.parent_masks)
        }

    @cached_property
    def _stage_index(self) -> dict[VarKind, tuple[tuple[str, ...], tuple[int, ...]]]:
        """Per kind, its labels in canonical order and their ascending stages."""
        out = {}
        for kind in VarKind:
            vs = [v for v in self.vars if v.kind is kind]
            out[kind] = (tuple(v.label for v in vs), tuple(v.stage for v in vs))
        return out

    def stage_span(self, kind: VarKind, first: int | None, stop: int) -> tuple[str, ...]:
        """Labels of one kind at stages first..stop-1 in canonical order; with
        first None, at every stage before stop."""
        labels, stages = self._stage_index[kind]
        lo = 0 if first is None else bisect_left(stages, first)
        return labels[lo : bisect_left(stages, stop)]

    @cached_property
    def actions(self) -> tuple[str, ...]:
        return self._stage_index[VarKind.ACTION][0]

    def action_label(self, i: int) -> str:
        if not 1 <= i <= self.n_stages:
            raise StageOutOfRange(f"stage {i} not in 1..{self.n_stages}")
        acts = self.stage_span(VarKind.ACTION, i, i + 1)
        if not acts:
            raise UnknownLabel(f"no action at stage {i}")
        return acts[0]

    @cached_property
    def outcome_label(self) -> str:
        outcomes = self._stage_index[VarKind.OUTCOME][0]
        if not outcomes:
            raise UnknownLabel("no outcome variable")
        return outcomes[0]

    def covariate_labels(self, i: int) -> tuple[str, ...]:
        return self.stage_span(VarKind.COVARIATE, i, i + 1)

    def hidden_labels(self, i: int) -> tuple[str, ...]:
        return self.stage_span(VarKind.HIDDEN, i, i + 1)

    def covariate_block(self, i: int) -> tuple[str, ...]:
        """Covariate block at stage i; the block at stage N+1 is the outcome."""
        if i == self.n_stages + 1:
            return (self.outcome_label,)
        return self.covariate_labels(i)

    @cached_property
    def hiddens(self) -> tuple[str, ...]:
        return self._stage_index[VarKind.HIDDEN][0]

    @cached_property
    def observed_labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.vars if v.kind is not VarKind.HIDDEN)

    def pa_o(self, action: str) -> tuple[str, ...]:
        if self.by_label[action].kind is not VarKind.ACTION:
            raise UnknownLabel(f"{action!r} is not an action variable")
        return self.parents[action]

    def inert_parents(self, action: str) -> frozenset[str]:
        return frozenset(p for a, p in self.inert if a == action)

    def actions_before(self, i: int) -> tuple[str, ...]:
        return self.stage_span(VarKind.ACTION, None, i)

    def covariates_before(self, i: int) -> tuple[str, ...]:
        return self.stage_span(VarKind.COVARIATE, None, i)

    def covariates_through(self, i: int) -> tuple[str, ...]:
        return self.stage_span(VarKind.COVARIATE, None, i + 1)


def staged_diagram(
    n_stages: int,
    variables: Iterable[tuple[str, VarKind | str, int]],
    edges: Iterable[tuple[str, str]],
    inert: Iterable[tuple[str, str]] = (),
) -> StagedDiagram:
    """Canonicalise declarations into a StagedDiagram.

    Structural problems (stage layout, edge direction) are reported by
    :func:`validate_diagram`; only unusable declarations raise here.
    """
    decls = [Variable(lab, VarKind(kind), stage) for lab, kind, stage in variables]
    seen: set[str] = set()
    for v in decls:
        if v.label in seen:
            raise UnknownLabel(f"duplicate variable {v.label!r}")
        if v.label == REGIME:
            raise UnknownLabel(f"{REGIME!r} is reserved for the regime node")
        seen.add(v.label)
    order = sorted(
        range(len(decls)),
        key=lambda i: (decls[i].stage, _BLOCK_RANK[decls[i].kind], i),
    )
    canon = tuple(decls[i] for i in order)
    pos = {v.label: i for i, v in enumerate(canon)}
    edge_list: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()
    for a, b in edges:
        if a not in pos or b not in pos:
            missing = a if a not in pos else b
            raise UnknownLabel(f"edge endpoint {missing!r} is not a declared variable")
        if (a, b) in seen_edges:
            raise DuplicateEdge(f"duplicate edge {a} -> {b}")
        seen_edges.add((a, b))
        edge_list.append((a, b))
    edge_list.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
    return StagedDiagram(
        n_stages=n_stages,
        vars=canon,
        edges=tuple(edge_list),
        inert=frozenset(inert),
    )


def validate_diagram(d: StagedDiagram) -> tuple[Violation, ...]:
    """Check all stage-structure invariants; returns the full violation list."""
    found: list[Violation] = []
    n = d.n_stages
    if n < 1:
        found.append(Violation("BadStageOrder", f"need at least one stage, got {n}"))

    outcomes = [v for v in d.vars if v.kind is VarKind.OUTCOME]
    if len(outcomes) != 1:
        found.append(
            Violation("MultipleOutcomes", f"expected exactly one outcome, found {len(outcomes)}")
        )
    for v in outcomes:
        if v.stage != n + 1:
            found.append(
                Violation(
                    "BadStageOrder",
                    f"outcome {v.label} must sit at stage {n + 1}, found stage {v.stage}",
                )
            )
    for i in range(1, n + 1):
        acts = len(d.stage_span(VarKind.ACTION, i, i + 1))
        if acts != 1:
            found.append(
                Violation("BadStageOrder", f"stage {i} must hold exactly one action, found {acts}")
            )
    for v in d.vars:
        if v.kind is VarKind.ACTION and not 1 <= v.stage <= n:
            found.append(
                Violation("BadStageOrder", f"action {v.label} at stage {v.stage} outside 1..{n}")
            )
        if v.kind is VarKind.HIDDEN and v.stage > n:
            found.append(
                Violation("HiddenAfterOutcome", f"hidden {v.label} at stage {v.stage} is past the last decision")
            )
        if v.kind in (VarKind.HIDDEN, VarKind.COVARIATE) and v.stage < 1:
            found.append(
                Violation("BadStageOrder", f"{v.label} at stage {v.stage} precedes stage 1")
            )
        if v.kind is VarKind.COVARIATE and v.stage > n:
            found.append(
                Violation("BadStageOrder", f"covariate {v.label} at stage {v.stage} is past the last decision")
            )
    pos = d.position
    for a, b in d.edges:
        if pos[a] >= pos[b]:
            found.append(
                Violation("EdgeAgainstOrder", f"edge {a} -> {b} goes against the stage order")
            )
    return tuple(found)


def augment_with_regime(d: StagedDiagram) -> Dag:
    """Append the regime node with one arrow into every action; the graph is
    built once per diagram object."""
    return d.regime_dag


@dataclass(frozen=True)
class StrategyParentSpec:
    """Per-action sets of observed predecessors the strategy may consult."""

    parents: tuple[tuple[str, frozenset[str]], ...]  # (action, pa_s) in stage order

    def of(self, action: str) -> frozenset[str]:
        for a, ps in self.parents:
            if a == action:
                return ps
        raise UnknownLabel(f"no parent set for action {action!r}")


def parent_spec(d: StagedDiagram, mapping: Mapping[str, Iterable[str]]) -> StrategyParentSpec:
    """Validate and canonicalise a per-action parent mapping.

    This is the one place a spec is checked against a diagram.  The spec it
    returns is stored on the diagram object with each action's strategy
    parents as a bitmask over positions, which ``_spec_masks`` hands to every
    consumer.  Of several parents an action may not have, the one named is
    the first in a fixed order, whatever the set iteration order: labels the
    diagram lacks by name, then the others by diagram position.
    """
    pos = d.position
    entries: list[tuple[str, frozenset[str]]] = []
    for action in d.actions:
        ps = frozenset(mapping.get(action, ()))
        refused = []  # (order key, message)
        for p in ps:
            if p not in pos:
                refused.append(((0, p), f"{p!r} is not a variable of the diagram"))
                continue
            kind, at = d.by_label[p].kind, (1, pos[p])
            if kind is VarKind.HIDDEN:
                refused.append((at, f"strategy for {action} may not consult hidden {p}"))
            elif kind is VarKind.OUTCOME:
                refused.append((at, f"strategy for {action} may not consult the outcome {p}"))
            elif pos[p] >= pos[action]:
                refused.append((at, f"{p} is not realised before {action}"))
        if refused:
            raise InvalidParentSpec(min(refused)[1])
        entries.append((action, ps))
    unknown = set(mapping) - set(d.actions)
    if unknown:
        raise InvalidParentSpec(f"not actions of the diagram: {sorted(unknown)}")
    spec = StrategyParentSpec(parents=tuple(entries))
    masks = {a: sum(1 << pos[p] for p in ps) for a, ps in entries}
    d.__dict__.setdefault("_spec_masks", {})[spec] = masks
    return spec


def _spec_masks(d: StagedDiagram, spec: StrategyParentSpec) -> dict[str, int]:
    """Each action's strategy parents as a bitmask over the diagram's positions.

    The masks are those ``parent_spec`` stored for this diagram object.  A
    spec it did not return for this object (made for another diagram, or
    built by hand) is checked by ``parent_spec`` once: a spec without a
    parent set for some action raises UnknownLabel, a parent the diagram may
    not consult raises ``parent_spec``'s InvalidParentSpec.  So does any
    other mismatch: an action the diagram lacks, else the first action
    listed out of stage order (or twice), else parent sets that are not
    frozensets.
    """
    store = d.__dict__.setdefault("_spec_masks", {})
    if spec not in store and parent_spec(d, {a: spec.of(a) for a in d.actions}) != spec:
        listed = [a for a, _ in spec.parents]
        if not set(listed) <= set(d.actions):
            raise InvalidParentSpec("the parent spec lists actions the diagram lacks")
        for i, a in enumerate(listed):
            if d.actions[i : i + 1] != (a,):
                raise InvalidParentSpec(f"the parent spec lists {a} out of stage order")
        raise InvalidParentSpec("the parent spec's parent sets are not frozensets")
    return store[spec]


def kernel_parent_order(
    d: StagedDiagram, spec: StrategyParentSpec, action: str
) -> tuple[str, ...]:
    """The action's strategy parents in diagram order, which is the order of
    the parent axes of its kernel table."""
    mask = _spec_masks(d, spec).get(action)
    if mask is None:
        raise UnknownLabel(f"no parent set for action {action!r}")
    return tuple(d.labels[p] for p in _ids(mask))


def _full_history(d: StagedDiagram) -> dict[str, frozenset[str]]:
    """Per action, all earlier actions and all covariates realised so far."""
    return {
        a: frozenset(d.actions_before(i + 1) + d.covariates_through(i + 1))
        for i, a in enumerate(d.actions)
    }


def full_history_spec(d: StagedDiagram) -> StrategyParentSpec:
    """Every action may consult all earlier actions and all covariates realised so far."""
    return parent_spec(d, _full_history(d))


def unconditional_spec(d: StagedDiagram) -> StrategyParentSpec:
    return parent_spec(d, {})


def is_full_history(d: StagedDiagram, spec: StrategyParentSpec) -> bool:
    return spec.parents == tuple(_full_history(d).items())


def normalize_parents(d: StagedDiagram, spec: StrategyParentSpec) -> StagedDiagram:
    """Fold strategy parents into the observational parent sets.

    Added parents are recorded as inert: they join the action's conditioning
    set without being allowed any influence on its observational kernel.
    The variables are kept as they are, and the added edges join the edge
    list in position order.
    """
    pos = d.position
    extra_edges: list[tuple[str, str]] = []
    extra_inert: set[tuple[str, str]] = set(d.inert)
    for action, mask in _spec_masks(d, spec).items():
        for p in _ids(mask & ~d.parent_masks[pos[action]]):
            extra_edges.append((d.labels[p], action))
            extra_inert.add((action, d.labels[p]))
    if not extra_edges:
        return d
    edges = sorted(d.edges + tuple(extra_edges), key=lambda e: (pos[e[0]], pos[e[1]]))
    return StagedDiagram(d.n_stages, d.vars, tuple(edges), frozenset(extra_inert))


def build_check_graph(d: StagedDiagram, spec: StrategyParentSpec, i: int) -> Dag:
    """Hybrid-regime graph for stage i.

    Actions before stage i keep their observational parents, actions after it
    get the strategy parents, and the stage-i action takes the union of both
    plus the regime node, whose only arrow points into it.  With i = 0 the
    regime node is absent and every action uses its strategy parents.
    """
    if not 0 <= i <= d.n_stages:
        raise StageOutOfRange(f"stage {i} not in 0..{d.n_stages}")
    pos = d.position
    masks = list(d.parent_masks)
    for a, strategy in _spec_masks(d, spec).items():
        stage = d.by_label[a].stage
        if stage > i or i == 0:
            masks[pos[a]] = strategy
        elif stage == i:
            masks[pos[a]] |= strategy | 1 << len(d.vars)
    if i == 0:
        return Dag(d.labels, tuple(masks))
    return Dag(d.labels + (REGIME,), (*masks, 0))


def build_pearl_robins_graph(
    dprime: Dag, d: StagedDiagram, spec: StrategyParentSpec, i: int
) -> Dag:
    """Edge-deleted graph for the Pearl-Robins style check at stage i.

    Edges out of the stage-i action are removed; for every later action only
    the incoming edges the strategy actually consults survive (hidden parents
    never do).  ``dprime``'s first nodes must be the diagram's variables in
    position order, as in every graph built from its parent masks.
    """
    if not 1 <= i <= d.n_stages:
        raise StageOutOfRange(f"stage {i} not in 1..{d.n_stages}")
    if dprime.labels[: len(d.vars)] != d.labels:
        raise UnknownLabel("the graph's first nodes are not the diagram's variables in order")
    pos, strategy = d.position, _spec_masks(d, spec)
    cut = 1 << pos[d.action_label(i)]
    masks = [m & ~cut for m in dprime.parent_masks]
    for j in range(i + 1, d.n_stages + 1):
        a = d.action_label(j)
        masks[pos[a]] &= strategy[a]
    return Dag(dprime.labels, tuple(masks))
