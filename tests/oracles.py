"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written in a different style from the
package internals: plain dicts and explicit loops instead of dense arrays,
and an active-path separation test instead of moralisation.  The graph
references further down are the label-based moralisation and breadth-first
search, and the Kahn order with its cycle search, that ``seqident.graph``
used before it worked on node ids; the id-based code must reproduce them
exactly.  Next to them are the regime graph, the hybrid-regime and the
edge-deleted check graphs as ``seqident.diagram`` built them from label
edge lists through ``build_dag``, before it derived them from parent ids,
and the per-stage label accessors and parent normalisation as
``StagedDiagram`` ran them before it kept a per-kind stage index: a scan
over every variable per call, and a rebuild through ``staged_diagram``.
Beside the one-candidate-at-a-time brute force, its candidates are decoded
on their own and built through ``make_deterministic``, apart from
``StrategyEnumeration``, and choice-table indices are decoded one history
row at a time, as that class did before it decoded all rows at once.
Then come the per-configuration loops that
``ci_deviation`` and ``check_positivity`` ran before they worked on whole
arrays, and the array code must match them bit for bit.  Then come the decomposition and the
splice check as they ran on dense joints, before those queries summed
variables out one at a time.  Then comes the dense product as it was
built before every table went through ``prob._contract``; ``joint`` and the
contraction must reproduce it bit for bit, and the tests build every dense
spliced or plain-DAG table with it.  Then come two dense-table helpers
that only the tests use: conditioning a joint on evidence, and the joint
with the regime indicator that ``dsep --numeric`` sums down.  Last are five
helpers the package itself never calls: a numeric conditional-independence
test, a random plain DAG with its parameterisation and its factors, and a
model's own action kernels as a strategy.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from seqident import (
    REGIME,
    Dag,
    DiscreteModel,
    OptimizationResult,
    StagedDiagram,
    Strategy,
    StrategyParentSpec,
    build_dag,
    enumerate_deterministic,
    evaluate_g_recursion,
    kernel,
    make_deterministic,
    make_stochastic,
    parent_spec,
    staged_diagram,
)
from seqident.diagram import VarKind
from seqident.errors import (
    OverlappingSets,
    SeqidentError,
    StageOutOfRange,
    UnknownLabel,
)
from seqident.prob import (
    JointTable,
    PositivityIssue,
    _regime_mixture,
    _spliced_factors,
    ci_deviation,
    joint,
    marginal,
)
from seqident.stability import CheckEntry, IdentificationReport


def path_d_separated(g: Dag, x: set[str], y: set[str], z: set[str]) -> bool:
    """Reachability over active trails with collider handling."""
    zi = {g.index[v] for v in z}
    # ancestors of the conditioning set, for collider activation
    anc_z: set[int] = set()
    todo = list(zi)
    while todo:
        n = todo.pop()
        if n in anc_z:
            continue
        anc_z.add(n)
        todo.extend(g.parents[n])
    reachable: set[int] = set()
    visited: set[tuple[int, str]] = set()
    queue: deque[tuple[int, str]] = deque((g.index[v], "up") for v in x)
    while queue:
        node, direction = queue.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in zi:
            reachable.add(node)
        if direction == "up" and node not in zi:
            for p in g.parents[node]:
                queue.append((p, "up"))
            for c in g.children[node]:
                queue.append((c, "down"))
        elif direction == "down":
            if node not in zi:
                for c in g.children[node]:
                    queue.append((c, "down"))
            if node in anc_z:
                for p in g.parents[node]:
                    queue.append((p, "up"))
    return not any(g.index[v] in reachable for v in y)


def moral_graph_reference(
    g: Dag, seed
) -> tuple[tuple[str, ...], frozenset[tuple[str, str]]]:
    """Labels (host index order) and edges (endpoints in host index order) of
    the ancestral moral graph: every DAG edge inside the closure, plus every
    pair of closure parents sharing a child."""
    frontier = deque(g.index[v] for v in seed)
    closure: set[int] = set(frontier)
    while frontier:
        n = frontier.popleft()
        for p in g.parents[n]:
            if p not in closure:
                closure.add(p)
                frontier.append(p)
    undirected: set[tuple[str, str]] = set()

    def add(a: int, b: int) -> None:
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            undirected.add((g.labels[lo], g.labels[hi]))

    for a, b in g.edges:
        if a in closure and b in closure:
            add(a, b)
    for child in closure:
        ps = [p for p in g.parents[child] if p in closure]
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                add(a, b)
    return tuple(g.labels[i] for i in sorted(closure)), frozenset(undirected)


def separation_witness_reference(g: Dag, x, y, z) -> tuple[str, ...] | None:
    """Breadth-first search on labels over the ancestral moral graph, from y
    (sources in index order, neighbours in index order) to x, avoiding z.
    None when separated, else the first path found."""
    labels, edges = moral_graph_reference(g, set(x) | set(y) | set(z))
    order = {lab: i for i, lab in enumerate(labels)}
    adj: dict[str, set[str]] = {lab: set() for lab in labels}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    prev: dict[str, str | None] = {}
    queue: deque[str] = deque()
    for lab in sorted(y, key=g.index.__getitem__):
        prev[lab] = None
        queue.append(lab)
    while queue:
        node = queue.popleft()
        if node in x:
            path = [node]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for nb in sorted(adj[node], key=order.__getitem__):
            if nb in z or nb in prev:
                continue
            prev[nb] = node
            queue.append(nb)
    return None


class NoRegimeNode(SeqidentError):
    """A graph without the regime node was passed to ``strip_regime``."""


def strip_regime(g: Dag) -> Dag:
    """Drop the regime node and its incident edges."""
    if REGIME not in g.labels:
        raise NoRegimeNode("graph has no regime node")
    keep = tuple(lab for lab in g.labels if lab != REGIME)
    edges = [
        (g.labels[a], g.labels[b])
        for a, b in g.edges
        if g.labels[a] != REGIME and g.labels[b] != REGIME
    ]
    return build_dag(keep, edges)


def regime_dag_reference(d: StagedDiagram) -> Dag:
    return build_dag(d.labels + (REGIME,), [*d.edges, *((REGIME, a) for a in d.actions)])


def check_graph_reference(d: StagedDiagram, spec: StrategyParentSpec, i: int) -> Dag:
    edges: list[tuple[str, str]] = []
    for v in d.vars:
        if v.kind is not VarKind.ACTION:
            edges.extend((p, v.label) for p in d.parents[v.label])
            continue
        if v.stage < i:
            parents = d.pa_o(v.label)
        elif v.stage > i or i == 0:
            parents = sorted(spec.of(v.label), key=d.position.__getitem__)
        else:
            union = set(d.pa_o(v.label)) | spec.of(v.label)
            parents = sorted(union, key=d.position.__getitem__)
            edges.append((REGIME, v.label))
        edges.extend((p, v.label) for p in parents)
    labels = d.labels if i == 0 else d.labels + (REGIME,)
    return build_dag(labels, edges)


def pearl_robins_graph_reference(
    dprime: Dag, d: StagedDiagram, spec: StrategyParentSpec, i: int
) -> Dag:
    a_i = d.action_label(i)
    later = {d.action_label(j): spec.of(d.action_label(j)) for j in range(i + 1, d.n_stages + 1)}
    kept = [
        (src, dst)
        for src, dst in dprime.edge_labels()
        if src != a_i and not (dst in later and src not in later[dst])
    ]
    return build_dag(dprime.labels, kept)


def action_label_scan(d: StagedDiagram, i: int) -> str:
    if not 1 <= i <= d.n_stages:
        raise StageOutOfRange(f"stage {i} not in 1..{d.n_stages}")
    for v in d.vars:
        if v.kind is VarKind.ACTION and v.stage == i:
            return v.label
    raise UnknownLabel(f"no action at stage {i}")


def covariate_labels_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    return tuple(v.label for v in d.vars if v.kind is VarKind.COVARIATE and v.stage == i)


def hidden_labels_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    return tuple(v.label for v in d.vars if v.kind is VarKind.HIDDEN and v.stage == i)


def actions_before_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    return tuple(v.label for v in d.vars if v.kind is VarKind.ACTION and v.stage < i)


def covariates_before_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    return tuple(v.label for v in d.vars if v.kind is VarKind.COVARIATE and v.stage < i)


def covariates_through_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    return tuple(v.label for v in d.vars if v.kind is VarKind.COVARIATE and v.stage <= i)


# each per-stage accessor of StagedDiagram, by method name
STAGE_SCANS = {
    "action_label": action_label_scan,
    "covariate_labels": covariate_labels_scan,
    "hidden_labels": hidden_labels_scan,
    "actions_before": actions_before_scan,
    "covariates_before": covariates_before_scan,
    "covariates_through": covariates_through_scan,
}


def hidden_past_scan(d: StagedDiagram, i: int) -> tuple[str, ...]:
    """The hidden variables of stages 1..i-1, as extended stability adds
    them to the stage-i past."""
    return tuple(h for j in range(1, i) for h in hidden_labels_scan(d, j))


def stage_action_count_scan(d: StagedDiagram, i: int) -> int:
    return len([v for v in d.vars if v.kind is VarKind.ACTION and v.stage == i])


def normalize_parents_reference(d: StagedDiagram, spec: StrategyParentSpec) -> StagedDiagram:
    extra_edges: list[tuple[str, str]] = []
    extra_inert: set[tuple[str, str]] = set(d.inert)
    for action in d.actions:
        have = set(d.pa_o(action))
        for p in sorted(spec.of(action), key=d.position.__getitem__):
            if p not in have:
                extra_edges.append((p, action))
                extra_inert.add((action, p))
    if not extra_edges:
        return d
    return staged_diagram(
        d.n_stages,
        [(v.label, v.kind, v.stage) for v in d.vars],
        list(d.edges) + extra_edges,
        inert=extra_inert,
    )


def kahn_order(n: int, edges: set[tuple[int, int]]) -> tuple[int, ...]:
    """Kahn's algorithm, children in index order; shorter than n iff the
    edges hold a cycle."""
    children: list[list[int]] = [sorted(b for a, b in edges if a == i) for i in range(n)]
    indeg = [sum(1 for _, b in edges if b == i) for i in range(n)]
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for c in children[node]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return tuple(order)


def first_cycle(labels, edges: set[tuple[int, int]]) -> tuple[str, ...]:
    """Depth-first back-edge search, roots and children in index order; the
    first cycle closed, as labels.  Only meaningful when Kahn stalls."""
    children = [sorted(b for a, b in edges if a == i) for i in range(len(labels))]
    color = [0] * len(labels)  # 0 white, 1 gray, 2 black
    stack: list[int] = []

    def visit(n: int) -> tuple[str, ...] | None:
        color[n] = 1
        stack.append(n)
        for c in children[n]:
            if color[c] == 1:
                return tuple(labels[i] for i in stack[stack.index(c) :])
            if color[c] == 0:
                found = visit(c)
                if found is not None:
                    return found
        stack.pop()
        color[n] = 2
        return None

    for n in range(len(labels)):
        if color[n] == 0:
            found = visit(n)
            if found is not None:
                return found
    raise AssertionError("cycle reported but not found")


def brute_joint(
    d: StagedDiagram, m: DiscreteModel, strategy: Strategy | None = None
) -> dict[tuple[int, ...], float]:
    """Joint by explicit enumeration of full configurations."""
    labels = d.labels
    out = {}
    for cfg in itertools.product(*[range(m.states[v]) for v in labels]):
        env = dict(zip(labels, cfg))
        p = 1.0
        for v in labels:
            if strategy is not None and d.by_label[v].kind.value == "action":
                p *= float(kernel(strategy, v, env)[env[v]])
            else:
                idx = tuple(env[q] for q in d.parents[v]) + (env[v],)
                p *= float(m.cpts[v][idx])
        out[cfg] = p
    return out


def brute_conditional(
    joint_map: dict[tuple[int, ...], float],
    labels: tuple[str, ...],
    target: str,
    n_target: int,
    evidence: dict[str, int],
) -> list[float]:
    """p(target | evidence) from an enumerated joint."""
    t_ax = labels.index(target)
    num = [0.0] * n_target
    for cfg, p in joint_map.items():
        if all(cfg[labels.index(v)] == s for v, s in evidence.items()):
            num[cfg[t_ax]] += p
    total = sum(num)
    assert total > 0, "conditioning event has zero probability"
    return [v / total for v in num]


def brute_expectation(
    joint_map: dict[tuple[int, ...], float],
    labels: tuple[str, ...],
    outcome: str,
    k_values,
) -> float:
    y_ax = labels.index(outcome)
    return sum(p * float(k_values[cfg[y_ax]]) for cfg, p in joint_map.items())


def brute_g_recursion(d: StagedDiagram, m: DiscreteModel, strategy: Strategy, k_values) -> float:
    """Recursive backward evaluation over observed histories.

    Uses only the observed marginal of the enumerated observational joint and
    the strategy kernels, mirroring what the identification route is allowed
    to see, but with none of the array machinery.
    """
    observed = d.observed_labels
    obs_joint: dict[tuple[int, ...], float] = {}
    for cfg, p in brute_joint(d, m).items():
        key = tuple(cfg[d.labels.index(v)] for v in observed)
        obs_joint[key] = obs_joint.get(key, 0.0) + p

    def prefix_prob(hist: dict[str, int]) -> float:
        total = 0.0
        for cfg, p in obs_joint.items():
            if all(cfg[observed.index(v)] == s for v, s in hist.items()):
                total += p
        return total

    def over_block(i: int, hist: dict[str, int]) -> float:
        if i == d.n_stages + 2:
            return float(k_values[hist[d.outcome_label]])
        block = (d.outcome_label,) if i == d.n_stages + 1 else d.covariate_labels(i)
        base = prefix_prob(hist)
        total = 0.0
        for cfg in itertools.product(*[range(m.states[v]) for v in block]):
            ext = dict(hist, **dict(zip(block, cfg)))
            w = prefix_prob(ext) / base  # p(block | hist; observational)
            if w > 0.0:
                total += w * (over_action(i, ext) if i <= d.n_stages else over_block(i + 1, ext))
        return total

    def over_action(i: int, hist: dict[str, int]) -> float:
        a = d.action_label(i)
        row = kernel(strategy, a, hist)
        total = 0.0
        for state in range(m.states[a]):
            if row[state] > 0.0:
                total += float(row[state]) * over_block(i + 1, dict(hist, **{a: state}))
        return total

    return over_block(1, {})


def deterministic_candidates(d, states, spec):
    """Every deterministic strategy in enumeration order, decoded here on its
    own and validated through ``make_deterministic``: per action, its choice
    tables in lexicographic order over the histories (``np.ndindex`` order);
    across actions, the first most significant.  Named ``s{index}``."""
    configs = [
        list(np.ndindex(*(states[p] for p in sorted(spec.of(a), key=d.position.__getitem__))))
        for a in d.actions
    ]
    tables = [
        itertools.product(range(states[a]), repeat=len(cfgs)) for a, cfgs in zip(d.actions, configs)
    ]
    for i, rows in enumerate(itertools.product(*tables)):
        choices = {a: dict(zip(cfgs, row)) for a, cfgs, row in zip(d.actions, configs, rows)}
        yield make_deterministic(d, states, spec, choices, name=f"s{i}")


def choice_tables_reference(n: int, pshape: tuple[int, ...], idx) -> np.ndarray:
    """Decode choice-table indices one history row at a time, as
    ``StrategyEnumeration._tables`` did before it divided by every row's
    place value at once: the last row is the least significant digit."""
    rem = np.array(idx, dtype=np.int64)
    digits = np.empty((rem.size, math.prod(pshape)), dtype=np.int64)
    for row in range(digits.shape[1] - 1, -1, -1):
        digits[:, row] = rem % n
        rem //= n
    return digits.reshape((rem.size,) + tuple(pshape))


def assert_same_strategy(got: Strategy, want: Strategy) -> None:
    """Two strategies agree in name, parent orders and every table's dtype,
    shape and bytes, and both are deterministic."""
    assert got.name == want.name
    assert got.actions == want.actions and got.parent_orders == want.parent_orders
    for tg, tw in zip(got.tables, want.tables, strict=True):
        assert tg.dtype == tw.dtype and tg.shape == tw.shape
        assert tg.tobytes() == tw.tobytes()
    assert got.deterministic is True and want.deterministic is True


def bruteforce_reference(oc, d, k, spec, cap=10**6) -> tuple[OptimizationResult, list[float]]:
    """Brute force one candidate at a time: each candidate of
    ``deterministic_candidates`` is evaluated by its own g-recursion, support
    walk included.  Returns the result and every candidate's value in order."""
    enumerate_deterministic(d, oc.states, spec, cap=cap)  # the cap check only
    values: list[float] = []
    best_value: float | None = None
    argmax: list[Strategy] = []
    for s in deterministic_candidates(d, oc.states, spec):
        value = evaluate_g_recursion(oc, s, k).value
        values.append(value)
        if best_value is None or value > best_value:
            best_value = value
            argmax = [s]
        elif value == best_value:
            argmax.append(s)
    assert best_value is not None and argmax
    result = OptimizationResult(value=best_value, strategy=argmax[0], argmax=tuple(argmax))
    return result, values


def ci_deviation_reference(j, x, y, z=()) -> float:
    """The factorisation gap one conditioning configuration at a time, as
    ``seqident.prob.ci_deviation`` computed it before it took every
    positive-probability configuration in one array expression."""
    xs, ys, zs = tuple(x), tuple(y), tuple(z)
    sub = marginal(j, xs + ys + zs)
    t = np.transpose(sub.table, [sub.axis(v) for v in xs + ys + zs])
    nx = int(np.prod(t.shape[: len(xs)], initial=1))
    ny = int(np.prod(t.shape[len(xs) : len(xs) + len(ys)], initial=1))
    t = t.reshape(nx, ny, -1)
    pz = t.sum(axis=(0, 1))
    worst = 0.0
    for kz in range(t.shape[2]):
        if pz[kz] <= 0.0:
            continue
        pxy = t[:, :, kz] / pz[kz]
        px = pxy.sum(axis=1)
        py = pxy.sum(axis=0)
        worst = max(worst, float(np.abs(pxy - np.outer(px, py)).max()))
    return worst


def positivity_issues_reference(m: DiscreteModel, d: StagedDiagram, s: Strategy) -> list:
    """Support-inclusion issues by a loop over every reached history and
    action state, in the order ``seqident.prob.check_positivity`` reports
    them."""
    observed = d.observed_labels
    po = marginal(joint(m, d), observed).table
    ps = marginal(joint(m, d, s), observed).table
    issues = []
    for i in range(1, d.n_stages + 1):
        a_lab = d.action_label(i)
        cut = observed.index(a_lab)
        hist_vars = observed[:cut]
        ps_hist = ps.sum(axis=tuple(range(cut, ps.ndim)))
        po_hist_a = po.sum(axis=tuple(range(cut + 1, po.ndim)))
        pa_idx = [hist_vars.index(p) for p in s.parents_of(a_lab)]
        for cfg in np.ndindex(*ps_hist.shape):
            if ps_hist[cfg] <= 0.0:
                continue
            row = s.kernel_table(a_lab)[tuple(cfg[ix] for ix in pa_idx)]
            history = tuple(zip(hist_vars, (int(c) for c in cfg)))
            for a_state in range(row.shape[0]):
                if row[a_state] > 0.0 and po_hist_a[cfg + (a_state,)] <= 0.0:
                    reason = (
                        "history never observed"
                        if po_hist_a[cfg].sum() <= 0.0
                        else "action never observed at this history"
                    )
                    issues.append(PositivityIssue(i, history, a_state, reason))
    return issues


def decomposition_reference(m: DiscreteModel, d: StagedDiagram, s: Strategy, k) -> float:
    """The covariate-marginal bracketing read off the dense strategy joint."""
    lvars = tuple(v for i in range(1, d.n_stages + 1) for v in d.covariate_labels(i))
    sub = marginal(joint(m, d, s), lvars + (d.outcome_label,)).table
    pl = sub.sum(axis=-1)
    weighted = sub @ k.values
    safe = np.where(pl > 0.0, pl, 1.0)
    return float(np.where(pl > 0.0, pl * (weighted / safe), 0.0).sum())


def splice_reference(m: DiscreteModel, d: StagedDiagram, s: Strategy, tol: float):
    """The splice check with both spliced joints built densely for every stage."""

    def spliced(split: int) -> np.ndarray:
        return product_joint_reference(d.labels, m.states, _spliced_factors(m, d, s, split))

    y = d.outcome_label
    entries = []
    for i in range(1, d.n_stages + 1):
        hist = d.actions_before(i + 1) + d.covariates_through(i)
        left, right = (
            marginal(JointTable(d.labels, spliced(j)), hist + (y,)).table for j in (i - 1, i)
        )
        lden, rden = left.sum(axis=-1), right.sum(axis=-1)
        both = (lden > 0.0) & (rden > 0.0)
        dev = 0.0
        if both.any():
            dev = float(np.abs(left[both] / lden[both][:, None] - right[both] / rden[both][:, None]).max())
        note = f"max deviation {dev:.3e}"
        if (~both).sum():
            note += f"; skipped {int((~both).sum())} zero-probability histories"
        query = f"outcome law given {', '.join(hist) or 'nothing'} invariant to stage-{i} splice"
        entries.append(CheckEntry(i, query, dev <= tol, None, note))
    return IdentificationReport(check="splice-agreement", entries=tuple(entries))


def splice_parts(report) -> tuple[list, list[float]]:
    """A splice report split into the parts that must match exactly and the
    printed deviations, whose last digits depend on the summation order."""
    exact: list = [report.check, report.notes]
    deviations = []
    for e in report.entries:
        dev, _, skipped = e.note.partition("; ")
        exact.append((e.index, e.query, e.passed, e.verdict, skipped))
        deviations.append(float(dev.removeprefix("max deviation ")))
    return exact, deviations


def product_joint_reference(labels, states, factors) -> np.ndarray:
    """A float table of ones over ``labels``, times each ``(axes, table)``
    factor in turn, broadcast and multiplied in place."""
    shape = tuple(states[lab] for lab in labels)
    out = np.ones(shape, dtype=float)
    for axes, arr in factors:
        view = [1] * len(shape)
        for ax in axes:
            view[ax] = shape[ax]
        out *= np.transpose(arr, np.argsort(axes)).reshape(view)
    return out


class ZeroProbabilityEvidence(SeqidentError):
    def __init__(self, evidence: dict[str, int]):
        self.evidence = dict(evidence)
        rendered = ", ".join(f"{v}={s}" for v, s in evidence.items())
        super().__init__(f"conditioning event has zero probability: {rendered}")


def regime_mixture_joint(m: DiscreteModel, d: StagedDiagram, s: Strategy) -> JointTable:
    """Joint over the diagram variables plus the regime indicator.

    State 0 of the regime node carries the observational joint with mass
    0.5, state 1 the strategy joint with the rest.
    """
    return JointTable(d.labels + (REGIME,), _regime_mixture(m, d, s, d.labels))


def condition(
    j: JointTable, targets: Iterable[str], evidence: Mapping[str, int]
) -> JointTable:
    """Renormalised slice over the targets given a partial configuration."""
    targets = tuple(targets)
    overlap = set(targets) & set(evidence)
    if overlap:
        raise OverlappingSets(f"targets overlap evidence: {sorted(overlap)}")
    idx: list[object] = [slice(None)] * j.table.ndim
    for var, state in evidence.items():
        ax = j.axis(var)
        if not 0 <= state < j.table.shape[ax]:
            raise ZeroProbabilityEvidence(dict(evidence))
        idx[ax] = state
    sliced = j.table[tuple(idx)]
    kept = tuple(lab for lab in j.labels if lab not in evidence)
    sub = JointTable(labels=kept, table=sliced)
    out = marginal(sub, targets)
    total = out.table.sum()
    if total <= 0.0:
        raise ZeroProbabilityEvidence(dict(evidence))
    return JointTable(labels=out.labels, table=out.table / total)


def ci_holds(
    j: JointTable,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
    tol: float = 1e-9,
) -> bool:
    """Numeric conditional independence: the factorisation gap stays within
    ``tol`` for every conditioning configuration of positive probability."""
    return ci_deviation(j, x, y, z) <= tol


def random_dag(rng: np.random.Generator, max_nodes: int = 7, p_edge: float = 0.5) -> Dag:
    n = int(rng.integers(2, max_nodes + 1))
    labels = [f"v{i}" for i in range(n)]
    edges = [
        (labels[a], labels[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < p_edge
    ]
    return build_dag(labels, edges)


def random_dag_parameterization(
    rng: np.random.Generator,
    dag: Dag,
    state_choices: tuple[int, ...] = (2, 3),
    floor: float = 0.05,
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """States and CPTs for a plain DAG, interior probabilities only."""
    states = {lab: int(rng.choice(state_choices)) for lab in dag.labels}
    cpts = {}
    for nid, lab in enumerate(dag.labels):
        shape = tuple(states[dag.labels[p]] for p in dag.parents[nid]) + (states[lab],)
        raw = rng.uniform(floor, 1.0, size=shape)
        cpts[lab] = raw / raw.sum(axis=-1, keepdims=True)
    return states, cpts


def dag_factors(dag: Dag, cpts: Mapping[str, np.ndarray]) -> list:
    """The ``(axes, table)`` factors of a plain DAG parameterisation: each
    node's CPT over its parents in ascending node-id order, then itself."""
    return [(tuple(dag.parents[nid]) + (nid,), cpts[lab]) for nid, lab in enumerate(dag.labels)]


def from_observational(model: DiscreteModel, d: StagedDiagram, name: str = "obs") -> Strategy:
    """Render the observational policy of a model as a stochastic strategy.

    Only possible when no action has hidden parents.
    """
    mapping = {a: d.pa_o(a) for a in d.actions}
    spec = parent_spec(d, mapping)  # raises if any parent is hidden
    kernels = {a: model.cpts[a] for a in d.actions}
    return make_stochastic(d, model.states, spec, kernels, name)
