"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written in a different style from the
package internals: plain dicts and explicit loops instead of dense arrays,
and an active-path separation test instead of moralisation.
"""

from __future__ import annotations

import itertools
from collections import deque

from seqident import (
    Dag,
    DiscreteModel,
    OptimizationResult,
    StagedDiagram,
    Strategy,
    enumerate_deterministic,
    evaluate_g_recursion,
    kernel,
)


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


def brute_dag_joint(
    g: Dag, states: dict[str, int], cpts
) -> dict[tuple[int, ...], float]:
    out = {}
    for cfg in itertools.product(*[range(states[v]) for v in g.labels]):
        p = 1.0
        for nid, v in enumerate(g.labels):
            idx = tuple(cfg[q] for q in g.parents[nid]) + (cfg[nid],)
            p *= float(cpts[v][idx])
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


def bruteforce_reference(oc, d, k, spec, cap=10**6) -> tuple[OptimizationResult, list[float]]:
    """Brute force one candidate at a time: each enumerated strategy is a
    validated ``Strategy`` evaluated by its own g-recursion, support walk
    included.  Returns the result and every candidate's value in order."""
    values: list[float] = []
    best_value: float | None = None
    argmax: list[Strategy] = []
    for s in enumerate_deterministic(d, oc.states, spec, cap=cap):
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
