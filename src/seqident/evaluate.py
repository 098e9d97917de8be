"""Strategy value three ways.

``evaluate_oracle`` reads the expectation straight off the strategy-regime
outcome law and needs no identification assumption; it is the ground truth.
``evaluate_g_recursion`` only ever touches the observational covariate
conditionals and the strategy itself, alternating an average over the
strategy kernel with an average over the observational covariate law from
the last stage backwards.  When the identification checks pass the two
agree; when they fail the gap is the point.  ``evaluate_decomposition``
re-brackets the oracle computation through the covariate marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagram import StagedDiagram
from .errors import PositivityViolation
from .prob import (
    DiscreteModel,
    JointTable,
    LossFunction,
    _blocked_marginal,
    _expand,
    _regime_marginal,
    _spliced_factors,
    expectation,
)
from .strategy import Strategy


@dataclass(eq=False)
class ObservationalConditionals:
    """Covariate-block conditionals given the observed past, hidden variables
    marginalised out.  These tables are the only model input the recursion is
    allowed to consult.

    Index i-1 holds stage i; the last block is the outcome.  ``masks[i-1]``
    is true exactly where the conditioning history has positive observational
    probability; conditional rows are zero-filled where it is false.
    """

    n_stages: int
    states: dict[str, int]
    action_labels: tuple[str, ...]
    hist_vars: tuple[tuple[str, ...], ...]
    block_vars: tuple[tuple[str, ...], ...]
    tables: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...]


@dataclass(eq=False)
class EvaluationResult:
    value: float
    method: str


def observational_conditionals(m: DiscreteModel, d: StagedDiagram) -> ObservationalConditionals:
    """Exact per-stage conditionals from the observed law.

    The observed law is the observational product summed over the hidden
    variables block by block (``_blocked_marginal``), bitwise
    ``marginal(joint(m, d), d.observed_labels)`` without the dense joint.
    """
    obs_labels = d.observed_labels
    table = _blocked_marginal(
        d.labels, m.states, _spliced_factors(m, d, None, d.n_stages), obs_labels
    )
    hist_vars: list[tuple[str, ...]] = []
    block_vars: list[tuple[str, ...]] = []
    tables: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    offset = 0
    for i in range(1, d.n_stages + 2):
        block = d.covariate_block(i)
        hist = obs_labels[:offset]
        nb = len(block)
        num = np.asarray(table.sum(axis=tuple(range(offset + nb, table.ndim))))
        den = np.asarray(num.sum(axis=tuple(range(offset, offset + nb))))
        mask = np.asarray(den > 0.0)
        safe = np.where(mask, den, 1.0)
        cond = num / safe.reshape(safe.shape + (1,) * nb)
        cond = np.where(mask.reshape(mask.shape + (1,) * nb), cond, 0.0)
        hist_vars.append(hist)
        block_vars.append(block)
        tables.append(cond)
        masks.append(mask)
        offset += nb + 1  # skip past this stage's action
    return ObservationalConditionals(
        n_stages=d.n_stages,
        states={v: m.states[v] for v in obs_labels},
        action_labels=d.actions,
        hist_vars=tuple(hist_vars),
        block_vars=tuple(block_vars),
        tables=tuple(tables),
        masks=tuple(masks),
    )


def _expand_kernel(
    oc: ObservationalConditionals, i: int, table: np.ndarray, parents: tuple[str, ...]
) -> np.ndarray:
    """Broadcast a table shaped like stage i's kernel (leading axes, one per strategy
    parent, the action last) over the leading axes, stage i's history and block, the action."""
    hist = oc.hist_vars[i - 1] + oc.block_vars[i - 1]
    lead = table.ndim - len(parents) - 1
    axes = [*range(lead), *(lead + hist.index(p) for p in parents), lead + len(hist)]
    shape = table.shape[:lead] + tuple(oc.states[v] for v in hist) + table.shape[-1:]
    return _expand(table, axes, len(shape), shape)


def _strategy_kernel(oc: ObservationalConditionals, s: Strategy, i: int) -> np.ndarray:
    a = oc.action_labels[i - 1]
    return _expand_kernel(oc, i, s.kernel_table(a), s.parents_of(a))


def _sum_block(weights: np.ndarray, f: np.ndarray, nblock: int) -> np.ndarray:
    return np.sum(weights * f, axis=tuple(range(-nblock, 0))) if nblock else weights * f


def _check_loss(k: LossFunction, outcome: str, n_states: int) -> None:
    """Refuse a loss that is not a table over the outcome's states."""
    if k.outcome != outcome:
        raise ValueError(f"loss is over {k.outcome!r}, not the outcome {outcome!r}")
    if k.values.shape != (n_states,):
        raise ValueError(
            f"loss has {k.values.size} entries, outcome {outcome!r} has {n_states} states"
        )


def _loss_table(oc: ObservationalConditionals, k: LossFunction) -> np.ndarray:
    """The loss as a float vector over the outcome's states, the last axis of
    every observed history; the outcome conditionals broadcast against it.
    It may be ``k.values`` itself, so callers must not write into it."""
    y = oc.block_vars[-1][0]  # the last block is the outcome
    _check_loss(k, y, oc.states[y])
    return np.asarray(k.values, dtype=float)


def _backward(
    oc: ObservationalConditionals, f: np.ndarray, act: Callable[[int, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The stage recursion from the outcome back to the empty history: per stage,
    average out the covariate block under the observational law, then reduce the
    stage's action axis (last) with ``act(stage, f)``.  Leading axes of f are kept."""
    for i in range(oc.n_stages + 1, 0, -1):
        f = _sum_block(oc.tables[i - 1], f, len(oc.block_vars[i - 1]))
        if i > 1:
            f = act(i - 1, f)
    return f


def _first_true(mask: np.ndarray) -> tuple[int, ...]:
    flat = int(np.argmax(mask.reshape(-1)))
    return tuple(int(c) for c in np.unravel_index(flat, mask.shape))


def _walk_stage(
    oc: ObservationalConditionals, i: int, w: np.ndarray, kernel: np.ndarray
) -> np.ndarray:
    """Carry strategy weight forward through stage i: w's trailing axes are stage
    i's history, the result's are stage i+1's (history, block, action).  Leading
    axes of w broadcast against those of ``kernel``."""
    w = w.reshape(w.shape + (1,) * len(oc.block_vars[i - 1])) * oc.tables[i - 1]
    return w[..., None] * kernel


def check_recursion_support(oc: ObservationalConditionals, s: Strategy) -> None:
    """Walk the strategy forward through the conditionals and fail fast at the
    first reached (history, action) pair outside the observational support.
    A reached history of zero probability at stage i+1 is such a pair at
    stage i, and the stage-1 history is the empty one, of probability one."""
    w = np.ones(())
    for i in range(1, oc.n_stages + 1):
        w = _walk_stage(oc, i, w, _strategy_kernel(oc, s, i))
        unsupported = (w > 0.0) & ~oc.masks[i]
        if unsupported.any():
            cfg = _first_true(unsupported)
            hist = oc.hist_vars[i - 1] + oc.block_vars[i - 1]
            raise PositivityViolation(i, dict(zip(hist, cfg[:-1])), cfg[-1])


def evaluate_g_recursion(
    oc: ObservationalConditionals, s: Strategy, k: LossFunction
) -> EvaluationResult:
    """Backward recursion over the observational conditionals and the strategy.

    Starts from the loss over the outcome, broadcast against its conditionals, and
    alternates averaging out the stage's covariate block (observational law)
    and the stage's action (strategy kernel) down to the empty history.
    """
    check_recursion_support(oc, s)
    f = _backward(
        oc, _loss_table(oc, k), lambda i, f: np.sum(_strategy_kernel(oc, s, i) * f, axis=-1)
    )
    return EvaluationResult(value=float(f), method="grecursion")


def evaluate_oracle(
    m: DiscreteModel, d: StagedDiagram, s: Strategy, k: LossFunction
) -> EvaluationResult:
    """Ground truth: expectation under the strategy regime.

    The outcome's law is the strategy-regime joint summed down to the outcome,
    computed by eliminating the other variables one at a time.
    """
    y = (d.outcome_label,)
    _check_loss(k, y[0], m.states[y[0]])
    return EvaluationResult(
        value=expectation(JointTable(y, _regime_marginal(m, d, s, y)), k), method="oracle"
    )


def evaluate_decomposition(
    m: DiscreteModel, d: StagedDiagram, s: Strategy, k: LossFunction
) -> EvaluationResult:
    """Covariate-marginal bracketing of the oracle value.

    Only defined for deterministic strategies, which fix the actions as a
    function of the covariate sequence.
    """
    if not s.deterministic:
        raise ValueError("decomposition evaluation requires a deterministic strategy")
    _check_loss(k, d.outcome_label, m.states[d.outcome_label])
    lvars = tuple(v for i in range(1, d.n_stages + 1) for v in d.covariate_labels(i))
    sub = _regime_marginal(m, d, s, lvars + (d.outcome_label,))
    pl = sub.sum(axis=-1)
    weighted = sub @ k.values  # sum_y k(y) p(l, y)
    safe = np.where(pl > 0.0, pl, 1.0)
    contrib = np.where(pl > 0.0, pl * (weighted / safe), 0.0)
    return EvaluationResult(value=float(contrib.sum()), method="decomposition")
