"""Strategy value three ways.

``evaluate_oracle`` reads the expectation straight off the strategy-regime
joint and needs no identification assumption; it is the ground truth.
``evaluate_g_recursion`` only ever touches the observational covariate
conditionals and the strategy itself, alternating an average over the
strategy kernel with an average over the observational covariate law from
the last stage backwards.  When the identification checks pass the two
agree; when they fail the gap is the point.  ``evaluate_decomposition``
re-brackets the oracle computation through the covariate marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import StagedDiagram
from .errors import MaskedHistoryReachable, PositivityViolation
from .prob import DiscreteModel, LossFunction, _expand, expectation, joint, marginal
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

    @property
    def observed_order(self) -> tuple[str, ...]:
        return self.hist_vars[-1] + self.block_vars[-1]


@dataclass(eq=False)
class EvaluationResult:
    value: float
    method: str
    f_tables: tuple[np.ndarray, ...] | None = None


def observational_conditionals(m: DiscreteModel, d: StagedDiagram) -> ObservationalConditionals:
    """Exact per-stage conditionals from the observational joint."""
    obs_labels = d.observed_labels
    table = marginal(joint(m, d), obs_labels).table
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


def _expand_kernel(oc: ObservationalConditionals, s: Strategy, i: int) -> np.ndarray:
    """Broadcast stage i's strategy kernel over its full history axes plus the action axis."""
    a = oc.action_labels[i - 1]
    hist = oc.hist_vars[i - 1] + oc.block_vars[i - 1]
    axes = [hist.index(p) for p in s.parents_of(a)] + [len(hist)]
    shape = [oc.states[v] for v in hist + (a,)]
    return _expand(s.kernel_table(a), axes, len(shape), shape)


def _sum_block(weights: np.ndarray, f: np.ndarray, nblock: int) -> np.ndarray:
    return np.sum(weights * f, axis=tuple(range(-nblock, 0))) if nblock else weights * f


def _first_true(mask: np.ndarray) -> tuple[int, ...]:
    flat = int(np.argmax(mask.reshape(-1)))
    return tuple(int(c) for c in np.unravel_index(flat, mask.shape))


def _history_dict(vars_: tuple[str, ...], cfg: tuple[int, ...]) -> dict[str, int]:
    return {v: c for v, c in zip(vars_, cfg)}


def check_recursion_support(oc: ObservationalConditionals, s: Strategy) -> None:
    """Walk the strategy forward through the conditionals and fail fast where
    it steps outside the observational support."""
    w = np.ones(())
    for i in range(1, oc.n_stages + 1):
        mask = oc.masks[i - 1]
        bad = (w > 0.0) & ~mask
        if bad.any():
            cfg = _first_true(bad)
            raise MaskedHistoryReachable(i, _history_dict(oc.hist_vars[i - 1], cfg))
        nb = len(oc.block_vars[i - 1])
        w = w.reshape(w.shape + (1,) * nb) * oc.tables[i - 1]
        hist = oc.hist_vars[i - 1] + oc.block_vars[i - 1]
        w = w[..., None] * _expand_kernel(oc, s, i)
        bad = (w > 0.0) & ~oc.masks[i]
        if bad.any():
            cfg = _first_true(bad)
            raise PositivityViolation(i, _history_dict(hist, cfg[:-1]), cfg[-1])


def evaluate_g_recursion(
    oc: ObservationalConditionals,
    s: Strategy,
    k: LossFunction,
    retain_tables: bool = False,
) -> EvaluationResult:
    """Backward recursion over the observational conditionals and the strategy.

    Starts from the loss table broadcast over all observed histories and
    alternates averaging out the stage's covariate block (observational law)
    and the stage's action (strategy kernel) down to the empty history.
    """
    check_recursion_support(oc, s)
    order = oc.observed_order
    shape = tuple(oc.states[v] for v in order)
    f = np.broadcast_to(k.values, shape).astype(float)
    retained = [f.copy()] if retain_tables else None
    for i in range(oc.n_stages + 1, 0, -1):
        nb = len(oc.block_vars[i - 1])
        f = _sum_block(oc.tables[i - 1], f, nb)
        if retained is not None:
            retained.append(f.copy())
        if i > 1:
            f = np.sum(_expand_kernel(oc, s, i - 1) * f, axis=-1)
            if retained is not None:
                retained.append(f.copy())
    return EvaluationResult(
        value=float(f),
        method="grecursion",
        f_tables=tuple(retained) if retained is not None else None,
    )


def evaluate_oracle(
    m: DiscreteModel, d: StagedDiagram, s: Strategy, k: LossFunction
) -> EvaluationResult:
    """Ground truth: expectation under the strategy-regime joint."""
    return EvaluationResult(
        value=expectation(joint(m, d, s), k), method="oracle"
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
    jt = joint(m, d, s)
    lvars = tuple(v for i in range(1, d.n_stages + 1) for v in d.covariate_labels(i))
    sub = marginal(jt, lvars + (d.outcome_label,)).table
    pl = sub.sum(axis=-1)
    weighted = sub @ k.values  # sum_y k(y) p(l, y)
    safe = np.where(pl > 0.0, pl, 1.0)
    contrib = np.where(pl > 0.0, pl * (weighted / safe), 0.0)
    return EvaluationResult(value=float(contrib.sum()), method="decomposition")
