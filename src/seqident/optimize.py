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
    _backward,
    _expand_kernel,
    _first_true,
    _loss_table,
    _support_walk,
    check_recursion_support,
)
from .prob import LossFunction
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
            return PositivityViolation(i, dict(zip(hist, cfg[:-1])), cfg[-1])
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
    choices: dict[str, np.ndarray] = {}
    choice_values: dict[str, np.ndarray] = {}
    unreached: dict[str, np.ndarray] = {}

    def act(i: int, f: np.ndarray) -> np.ndarray:
        a = oc.action_labels[i - 1]
        # ties: np.argmax returns the first maximiser, i.e. the smallest state
        choices[a] = np.argmax(f, axis=-1)
        choice_values[a] = f = np.max(f, axis=-1)
        unreached[a] = ~oc.masks[i].any(axis=-1)
        return f

    value = float(_backward(oc, _loss_table(oc, k), act))
    kernels = {a: np.eye(oc.states[a])[choices[a]] for a in d.actions}
    return OptimizationResult(
        value=value,
        strategy=make_stochastic(d, oc.states, spec, kernels, name="backward-opt"),
        choices=choices,
        choice_values=choice_values,
        unreached=unreached,
    )


def _candidate_values(
    oc: ObservationalConditionals, stream: StrategyEnumeration, k: LossFunction
) -> Iterator[tuple[int, np.ndarray]]:
    """g-recursion values of every enumerated strategy, as ``(first index, values)`` chunks.

    The recursion of ``evaluate_g_recursion`` on a leading strategy axis.  An
    indicator kernel row makes the action average a gather of the chosen entry,
    bitwise equal to evaluating each strategy on its own.  Without full
    positivity each chunk first takes the support walk with indicator kernels
    (1.0 or 0.0 entries, so each strategy's flags are those of its own walk),
    and the first flagged strategy is rebuilt to raise.
    """
    loss = _loss_table(oc, k)[None]
    orders = stream._parent_orders
    eyes = None if _positivity_gap(oc) is None else [np.eye(oc.states[a]) for a in oc.action_labels]
    # largest batched table: a stage's history and block (times its action in the walk) per strategy
    chunk = max(1, _CHUNK_CELLS // max([t.size for t in oc.tables[: oc.n_stages]], default=1))
    for lo in range(0, stream.count, chunk):
        choices = stream._choices(np.arange(lo, min(lo + chunk, stream.count)))
        if eyes is not None:
            n = len(choices[0])
            kernel = lambda i: _expand_kernel(oc, i, eyes[i - 1][choices[i - 1]], orders[i - 1])
            cells = [c for _, *both in _support_walk(oc, kernel, (n,)) for c in both]
            flagged = np.flatnonzero(np.any([c.reshape(n, -1).any(axis=1) for c in cells], axis=0))
            if flagged.size:
                check_recursion_support(oc, next(stream._build([lo + int(flagged[0])])))

        def gather(i: int, f: np.ndarray) -> np.ndarray:
            chosen = _expand_kernel(oc, i, choices[i - 1][..., None], orders[i - 1])
            return np.take_along_axis(f, chosen, axis=-1)[..., 0]

        yield lo, _backward(oc, loss, gather)


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
