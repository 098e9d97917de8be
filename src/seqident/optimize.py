"""Optimal strategy search: backward induction and exhaustive enumeration.

Both optimisers consume only the observational conditionals, so their
results are meaningful exactly when the identification checks pass.  The
dynamic program requires a full-history parent spec; the brute-force path
also handles restricted specs and doubles as the correctness oracle for the
dynamic program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .diagram import StagedDiagram, StrategyParentSpec, is_full_history
from .errors import InvalidParentSpec, PositivityViolation
from .evaluate import (
    ObservationalConditionals,
    _backward,
    _expand_kernel,
    _loss_table,
    _sum_block,
    _violation,
    check_recursion_support,
)
from .prob import LossFunction
from .strategy import ENUMERATION_CAP, Strategy, StrategyEnumeration, enumerate_deterministic
from .strategy import _gathered

_CHUNK_CELLS = 2**15  # cap on the cells of one batched table in brute force


@dataclass(eq=False)
class OptimizationResult:
    """Optimal value plus one optimal strategy.

    ``choices``/``choice_values`` hold, per action, the selected state and
    its continuation value for every history; ``unreached`` flags histories
    no strategy can realise (they carry the tie-break action).  ``argmax``
    is the full argmax set, in enumeration order, when the search enumerated
    it: brute force returns it as a sequence that builds its strategies on
    first read, and ``strategy`` is its first element.
    """

    value: float
    strategy: Strategy
    argmax: Sequence[Strategy] | None = None
    choices: dict[str, np.ndarray] | None = None
    choice_values: dict[str, np.ndarray] | None = None
    unreached: dict[str, np.ndarray] | None = None


class _ArgmaxSet(Sequence[Strategy]):
    """The strategies at sorted enumeration indices, built when first read.

    Its size needs no strategy, and element 0 is built on its own; any other
    access builds the rest once, through one ``_build`` batch, and keeps
    them.  Indexing, slicing and iteration behave as on the tuple of them.
    """

    def __init__(self, stream: StrategyEnumeration, idx: list[int]):
        self._stream = stream
        self._idx = idx
        self._first: Strategy | None = None
        self._all: tuple[Strategy, ...] | None = None

    def __len__(self) -> int:
        return len(self._idx)

    def _built(self) -> tuple[Strategy, ...]:
        if self._all is None:
            self._all = (self[0],) + tuple(self._stream._build(self._idx[1:]))
        return self._all

    def __getitem__(self, i):
        if self._all is None and not isinstance(i, slice) and i in (0, -len(self._idx)):
            if self._first is None:
                self._first = next(self._stream._build(self._idx[:1]))
            return self._first
        return self._built()[i]

    def __repr__(self) -> str:
        return repr(self._built())


def _positivity_gap(oc: ObservationalConditionals) -> PositivityViolation | None:
    """The first action state outside the observational support at a supported
    history, or ``None`` under full positivity, where no strategy can step
    outside the support and every candidate's value is defined."""
    for i in range(1, oc.n_stages + 1):
        m_next = oc.masks[i]  # over (past actions, covariates through i, action i)
        prefix = m_next.any(axis=-1)
        bad = prefix[..., None] & ~m_next
        if bad.any():
            return _violation(oc, i, bad)
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
    return OptimizationResult(
        value=value,
        strategy=_gathered(d, oc.states, spec, choices, "backward-opt"),
        choices=choices,
        choice_values=choice_values,
        unreached=unreached,
    )


def _blocks(outer: int, inner: int, rows: int) -> Iterator[tuple[slice, slice]]:
    """Split the outer × inner grid of pairs into blocks of at most ``rows``
    pairs (one at least), in row-major order: whole inner rows while they
    fit, else one outer index and a slice of the inner axis at a time."""
    di = min(inner, rows)
    do = max(1, rows // di)
    for o in range(0, outer, do):
        for i in range(0, inner, di):
            yield slice(o, min(o + do, outer)), slice(i, min(i + di, inner))


def _suffix_values(
    oc: ObservationalConditionals,
    stream: StrategyEnumeration,
    j: int,
    f: np.ndarray,
    pos: np.ndarray,
    flags: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Carry continuation values from action j's stage down to the empty history.

    ``f[r]`` is the value table before action j is reduced, for the r-th
    choice-table suffix (actions j+1..n) whose index is ``pos[r]``.  Viewed as
    (suffix, history × action), f gives every value a choice table picks by
    one flat gather per block: each history's row offset plus its chosen
    state.  Row (r, choice) of the result has the suffix index
    ``choice * S + pos[r]``, S being the number of old suffixes.  Blocks keep
    each table under ``_CHUNK_CELLS`` and go down on their own; yields
    ``(strategy indices, values)`` once j reaches 0.

    With ``flags``, every (history, block, action) cell outside
    ``oc.masks[j]`` adds 1 to f before action j is reduced.  From zeros, a
    candidate's result is then the expected number of unsupported cells its
    forward walk reaches, positive exactly where ``check_recursion_support``
    flags it: the walk and this count multiply the same factors, each at
    most 1, in different orders, so they can disagree only where a reach
    probability is within rounding of the smallest subnormal double.
    """
    if j == 0:
        yield pos, f
        return
    size, span = stream._radices[j - 1], math.prod(stream._radices[j:])
    table, nb = oc.tables[j - 1], len(oc.block_vars[j - 1])
    orders = stream._parent_orders[j - 1]
    n = f.shape[-1]
    rows = np.arange(0, table.size * n, n).reshape(table.shape + (1,))  # each history's row offset
    flat = (f + ~oc.masks[j] if flags else f).reshape(len(f), -1)
    for cs, ss in _blocks(size, len(pos), max(1, _CHUNK_CELLS // table.size)):
        c = np.arange(cs.start, cs.stop)
        chosen = _expand_kernel(oc, j, stream._tables(j - 1, c)[..., None], orders) + rows
        g = np.take(flat[ss], chosen.reshape(len(c), -1), axis=1)  # contiguous, unlike indexing
        del chosen  # as large as the block: freed before the block goes down
        g = _sum_block(table, g.reshape((-1,) + table.shape), nb)
        yield from _suffix_values(oc, stream, j - 1, g, (pos[ss, None] + c * span).ravel(), flags)


def _candidate_values(
    oc: ObservationalConditionals, stream: StrategyEnumeration, k: LossFunction
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """g-recursion values of every enumerated strategy, as ``(indices, values)`` blocks.

    A strategy is one choice table per action, and its index is mixed radix
    over them, the first action most significant.  Stage i of the recursion
    depends only on the choice tables of actions i..n, so the backward pass
    runs once per such suffix (``_suffix_values``): an indicator kernel makes
    the action average a gather of the chosen entry, and every candidate's
    value is the same float operations as evaluating it on its own, bitwise.
    The blocks are not in index order; together they cover every index once.

    Without full positivity the same pass runs first with support flags,
    from zeros, and the smallest flagged strategy is rebuilt so that
    ``check_recursion_support`` raises exactly what evaluating it would.
    Some strategy is always flagged then: the one that takes the gap's
    history actions unconditionally, then the unobserved state, reaches it.
    """
    n, start = oc.n_stages, np.zeros(1, dtype=np.int64)
    if _positivity_gap(oc) is not None:
        flagged = _suffix_values(oc, stream, n, np.zeros((1,) + oc.masks[n].shape), start, True)
        first = min(int(idx[v > 0].min(initial=stream.count)) for idx, v in flagged)
        check_recursion_support(oc, next(stream._build([first])))
    f = _sum_block(oc.tables[n], _loss_table(oc, k), len(oc.block_vars[n]))
    yield from _suffix_values(oc, stream, n, f[None], start)


def optimize_bruteforce(
    oc: ObservationalConditionals,
    d: StagedDiagram,
    k: LossFunction,
    spec: StrategyParentSpec,
    cap: int = ENUMERATION_CAP,
) -> OptimizationResult:
    """Evaluate every deterministic strategy for the spec and keep the argmax set.

    The objective is maximised: the value of a strategy is the expected value
    of the table named ``loss``, exactly as ``evaluate_g_recursion`` computes
    it, and ``argmax`` lists every strategy attaining the largest value in
    enumeration order.  ``_candidate_values`` shares each stage of the
    recursion among all strategies that agree on the later actions' choice
    tables; ``Strategy`` objects are built only for the argmax set, and
    lazily, by ``StrategyEnumeration._build``: indicator rows gathered from
    each winner's choice tables, valid by construction, so no winner is
    checked again.
    """
    stream = enumerate_deterministic(d, oc.states, spec, cap=cap)
    best: float | None = None
    winners: list[np.ndarray] = []
    for idx, values in _candidate_values(oc, stream, k):
        top = float(values.max())
        if best is None or top > best:
            best, winners = top, [idx[values == top]]
        elif top == best:
            winners.append(idx[values == top])
    assert best is not None and winners
    argmax = _ArgmaxSet(stream, np.sort(np.concatenate(winners)).tolist())
    return OptimizationResult(value=best, strategy=argmax[0], argmax=argmax)
