"""Optimal strategy search: backward induction and exhaustive enumeration.

Both optimisers consume only the observational conditionals, so their
results are meaningful exactly when the identification checks pass.  The
dynamic program requires a full-history parent spec; the brute-force path
also handles restricted specs and doubles as the correctness oracle for the
dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .diagram import StagedDiagram, StrategyParentSpec, is_full_history
from .errors import InvalidParentSpec, PositivityViolation
from .evaluate import (
    ObservationalConditionals,
    _first_true,
    _history_dict,
    _sum_block,
    check_recursion_support,
)
from .prob import LossFunction, _expand
from .strategy import Strategy, StrategyEnumeration, enumerate_deterministic, make_stochastic

_CHUNK_CELLS = 2**15  # cap on the cells of one strategy-batched table in brute force


@dataclass(eq=False)
class OptimizationResult:
    """Optimal value plus one optimal strategy.

    ``choices``/``choice_values`` hold, per action, the selected state and
    its continuation value for every history; ``unreached`` flags histories
    no strategy can realise (they carry the tie-break action).  ``argmax``
    is the full argmax set when the search enumerated it.
    """

    value: float
    strategy: Strategy
    argmax: tuple[Strategy, ...] | None = None
    choices: dict[str, np.ndarray] | None = None
    choice_values: dict[str, np.ndarray] | None = None
    unreached: dict[str, np.ndarray] | None = None


def _positivity_gap(oc: ObservationalConditionals) -> PositivityViolation | None:
    """The first action state outside the observational support at a supported
    history, or ``None`` under full positivity, where no strategy can step
    outside the support and every candidate's value is defined."""
    for i in range(1, oc.n_stages + 1):
        m_next = oc.masks[i]  # over (past actions, covariates through i, action i)
        prefix = m_next.any(axis=-1)
        bad = prefix[..., None] & ~m_next
        if bad.any():
            cfg = _first_true(bad)
            hist = oc.hist_vars[i - 1] + oc.block_vars[i - 1]
            return PositivityViolation(i, _history_dict(hist, cfg[:-1]), cfg[-1])
    return None


def optimize_backward(
    oc: ObservationalConditionals,
    d: StagedDiagram,
    k: LossFunction,
    spec: StrategyParentSpec,
) -> OptimizationResult:
    """Backward induction over the observational conditionals.

    Works the stages from the last to the first, at each history picking the
    action that maximises the continuation value; ties break toward the
    smallest action state.  The returned deterministic strategy conditions on
    the full observed history, which is what makes per-history argmax
    selection optimal.
    """
    if not is_full_history(d, spec):
        raise InvalidParentSpec("backward induction requires the full-history parent spec")
    gap = _positivity_gap(oc)
    if gap is not None:
        raise gap
    order = oc.observed_order
    shape = tuple(oc.states[v] for v in order)
    f = np.broadcast_to(k.values, shape).astype(float)
    choices: dict[str, np.ndarray] = {}
    choice_values: dict[str, np.ndarray] = {}
    unreached: dict[str, np.ndarray] = {}
    for i in range(oc.n_stages + 1, 0, -1):
        nb = len(oc.block_vars[i - 1])
        f = _sum_block(oc.tables[i - 1], f, nb)
        if i > 1:
            a = oc.action_labels[i - 2]
            # ties: np.argmax returns the first maximiser, i.e. the smallest state
            choice = np.argmax(f, axis=-1)
            f = np.max(f, axis=-1)
            choices[a] = choice
            choice_values[a] = f.copy()
            unreached[a] = ~oc.masks[i - 1].any(axis=-1)
    value = float(f)
    kernels = {}
    for a in d.actions:
        table = np.zeros(choices[a].shape + (oc.states[a],))
        np.put_along_axis(table, choices[a][..., None], 1.0, axis=-1)
        kernels[a] = table
    strategy = make_stochastic(d, oc.states, spec, kernels, name="backward-opt")
    return OptimizationResult(
        value=value,
        strategy=strategy,
        choices=choices,
        choice_values=choice_values,
        unreached=unreached,
    )


def _candidate_values(
    oc: ObservationalConditionals, stream: StrategyEnumeration, k: LossFunction
) -> Iterator[tuple[int, np.ndarray]]:
    """g-recursion values of every enumerated strategy, as ``(first index, values)`` chunks.

    Runs the arithmetic of ``evaluate_g_recursion`` with a leading strategy
    axis.  A deterministic kernel row is an indicator, so averaging over the
    action is a gather of the chosen entry, and each value is bitwise equal
    to evaluating that strategy on its own.  Support is not checked here.
    """
    n = oc.n_stages
    loss = np.broadcast_to(k.values, tuple(oc.states[v] for v in oc.observed_order))
    f_outcome = _sum_block(oc.tables[n], loss.astype(float), len(oc.block_vars[n]))
    # axis of each strategy parent in (strategy, history and block, action) order
    axes = [
        [0] + [1 + (oc.hist_vars[i] + oc.block_vars[i]).index(p) for p in parents]
        for i, parents in enumerate(stream._parent_orders)
    ]
    # the largest batched table is one stage's history-and-block table per strategy
    chunk = max(1, _CHUNK_CELLS // max([t.size for t in oc.tables[:n]], default=1))
    for lo in range(0, stream.count, chunk):
        hi = min(lo + chunk, stream.count)
        choices = stream._choices(np.arange(lo, hi))
        f = f_outcome[None]
        for i in range(n, 0, -1):
            shape = (hi - lo,) + f.shape[1:]
            chosen = _expand(choices[i - 1], axes[i - 1], len(shape), shape)
            f = np.take_along_axis(f, chosen, axis=-1)[..., 0]
            f = _sum_block(oc.tables[i - 1], f, len(oc.block_vars[i - 1]))
        yield lo, f


def optimize_bruteforce(
    oc: ObservationalConditionals,
    d: StagedDiagram,
    k: LossFunction,
    spec: StrategyParentSpec,
    cap: int = 10**6,
) -> OptimizationResult:
    """Evaluate every deterministic strategy for the spec and keep the argmax set.

    The objective is maximised: the value of a strategy is the expected value
    of the table named ``loss``, exactly as ``evaluate_g_recursion`` computes
    it, and ``argmax`` lists every strategy attaining the largest value in
    enumeration order.  Candidates are evaluated in chunks along a strategy
    axis; ``Strategy`` objects are built only for the argmax set.
    """
    stream = enumerate_deterministic(d, oc.states, spec, cap=cap)
    if _positivity_gap(oc) is not None:
        # some candidate may step outside the support: walk each in order so
        # that the first to do so raises
        for s in stream:
            check_recursion_support(oc, s)
    best: float | None = None
    winners: list[np.ndarray] = []
    for lo, values in _candidate_values(oc, stream, k):
        top = values.max()
        if best is None or top > best:
            hits = np.flatnonzero(values == top)
            best, winners = float(values[hits[0]]), [lo + hits]
        elif top == best:
            winners.append(lo + np.flatnonzero(values == top))
    assert best is not None and winners
    argmax = tuple(stream._build(np.concatenate(winners).tolist()))
    return OptimizationResult(value=best, strategy=argmax[0], argmax=argmax)
