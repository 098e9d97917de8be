"""Random instance generators and the optimality-reduction fuzz loop.

The generators produce valid staged diagrams by construction (variables are
assigned stages first, edges only ever point forward), models with interior
probabilities so positivity holds, and strategies of either flavour.  They
back both the property-test suites and the CLI fuzz command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import (
    StagedDiagram,
    StrategyParentSpec,
    VarKind,
    full_history_spec,
    kernel_parent_order,
    normalize_parents,
    parent_spec,
    staged_diagram,
)
from .errors import InternalTheorem2Violation
from .prob import DiscreteModel, LossFunction
from .stability import IdentifiabilityVerdict, decide_identifiability
from .strategy import Strategy, _gathered, make_stochastic


def random_staged_diagram(
    rng: np.random.Generator,
    max_stages: int = 3,
    max_extra: int = 4,
    p_edge: float = 0.5,
    require_action_outcome_edge: bool = False,
) -> StagedDiagram:
    """Random valid diagram: ≤ one hidden and ≤ one covariate per stage."""
    n = int(rng.integers(1, max_stages + 1))
    variables: list[tuple[str, VarKind, int]] = []
    extra_slots: list[tuple[str, VarKind, int]] = []
    for i in range(1, n + 1):
        if rng.random() < 0.5:
            extra_slots.append((f"U{i}", VarKind.HIDDEN, i))
        if rng.random() < 0.6:
            extra_slots.append((f"L{i}", VarKind.COVARIATE, i))
    while len(extra_slots) > max_extra:
        extra_slots.pop(int(rng.integers(len(extra_slots))))
    variables.extend(extra_slots)
    variables.extend((f"A{i}", VarKind.ACTION, i) for i in range(1, n + 1))
    variables.append(("Y", VarKind.OUTCOME, n + 1))
    d0 = staged_diagram(n, variables, [])
    labels = d0.labels
    edges = []
    for ai in range(len(labels)):
        for bi in range(ai + 1, len(labels)):
            if rng.random() < p_edge:
                edges.append((labels[ai], labels[bi]))
    if require_action_outcome_edge:
        last_action = d0.action_label(n)
        if (last_action, "Y") not in edges:
            edges.append((last_action, "Y"))
    return staged_diagram(n, variables, edges)


def random_parent_spec(
    rng: np.random.Generator, d: StagedDiagram, p_keep: float = 0.5
) -> StrategyParentSpec:
    mapping = {}
    for i, a in enumerate(d.actions, start=1):
        allowed = d.actions_before(i) + d.covariates_through(i)
        mapping[a] = [v for v in allowed if rng.random() < p_keep]
    return parent_spec(d, mapping)


_FLOOR = 0.05  # the smallest raw draw of a random row, before normalising


def _random_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    raw = rng.uniform(_FLOOR, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def random_model(
    rng: np.random.Generator,
    d: StagedDiagram,
    state_choices: tuple[int, ...] = (2, 3),
) -> DiscreteModel:
    """Random CPTs with probabilities bounded away from zero.

    Inert action parents get identical rows across their states, as parent
    normalisation requires.
    """
    states = {v.label: int(rng.choice(state_choices)) for v in d.vars}
    cpts: dict[str, np.ndarray] = {}
    for v in d.vars:
        parents = d.parents[v.label]
        inert = d.inert_parents(v.label) if v.kind is VarKind.ACTION else frozenset()
        gen_shape = tuple(1 if p in inert else states[p] for p in parents) + (states[v.label],)
        full_shape = tuple(states[p] for p in parents) + (states[v.label],)
        rows = _random_rows(rng, gen_shape)
        cpts[v.label] = np.broadcast_to(rows, full_shape).copy()
    return DiscreteModel(states=states, cpts=cpts)


def random_strategy(
    rng: np.random.Generator,
    d: StagedDiagram,
    spec: StrategyParentSpec,
    states: dict[str, int],
    deterministic: bool = False,
    name: str = "s",
) -> Strategy:
    """Random kernels, or with ``deterministic`` one uniform state per history."""
    orders = [kernel_parent_order(d, spec, a) for a in d.actions]
    tables = {}
    for a, order in zip(d.actions, orders):
        pshape = tuple(states[p] for p in order)
        n = states[a]
        if deterministic:
            rows = [rng.integers(n) for _ in np.ndindex(*pshape)]  # in history-row order
            tables[a] = np.array(rows, dtype=np.int64).reshape(pshape)
        else:
            tables[a] = _random_rows(rng, pshape + (n,))
    if deterministic:
        return _gathered(d, states, spec, tables, name, orders)
    return make_stochastic(d, states, spec, tables, name)


def random_loss(rng: np.random.Generator, states: dict[str, int], outcome: str) -> LossFunction:
    return LossFunction(values=rng.uniform(0.0, 1.0, size=states[outcome]), outcome=outcome)


@dataclass(frozen=True)
class FuzzResult:
    iterations: int
    simple_passes: int
    general_passes: int
    not_guaranteed: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def theorem2_fuzz(seed: int, iters: int) -> FuzzResult:
    """Random full-history problems: a general-criterion pass must always come
    with a simple-stability pass once the regularity assumptions hold.

    Diagrams are generated with the last action wired into the outcome and
    parents normalised, which makes both assumptions hold by construction.
    """
    rng = np.random.default_rng(seed)
    simple = general = neither = 0
    violations: list[str] = []
    for _ in range(iters):
        d = random_staged_diagram(rng, require_action_outcome_edge=True)
        spec = full_history_spec(d)
        dn = normalize_parents(d, spec)
        try:
            decision = decide_identifiability(dn, spec)
        except InternalTheorem2Violation as exc:
            violations.append(str(exc))
            continue
        if not decision.assumptions.passed:
            violations.append(
                "generator failed to establish the regularity assumptions: "
                f"vars {[v.label for v in dn.vars]}"
            )
            continue
        if decision.verdict is IdentifiabilityVerdict.IDENTIFIED_SIMPLE:
            simple += 1
        elif decision.verdict is IdentifiabilityVerdict.IDENTIFIED_GENERAL:
            general += 1
        else:
            neither += 1
    return FuzzResult(
        iterations=iters,
        simple_passes=simple,
        general_passes=general,
        not_guaranteed=neither,
        violations=tuple(violations),
    )
