"""Exact discrete probability over products of conditional tables.

A distribution is the product of one conditional probability table per
variable over the diagram's total variable order.  Regimes only ever swap the
action factors: the observational regime uses the recorded action kernels, a
strategy regime replaces them with the strategy's decision kernels, and the
spliced distributions switch from one to the other at a given stage.  All
other factors are regime-invariant by construction, which is exactly what
makes the strategy joint the ground truth the identification checks talk
about.

Two ways to sum a product down.  ``_contract`` eliminates the dropped
variables one at a time and multiplies what is left over the kept ones.
The oracle-side queries (``evaluate_oracle``, ``evaluate_decomposition``,
``check_positivity``, ``check_theorem1_numeric`` and ``dsep --numeric``)
keep a few variables.  The one dense builder, ``joint``, keeps every
variable, so its table is the plain product.  ``_blocked_marginal`` gives
the observed law that ``observational_conditionals`` reads, bitwise the
dense joint's marginal without a table over every variable.  It grows the
product factor by factor in a hidden-major layout (the hidden axes lead,
the kept ones follow in reverse position order), so the sum over the
leading hidden axes adds in the dense sum's order; blocks fix the latest
kept axes and share the product of the factors before them.  ``_condition``
turns such a law into conditionals, for the recursion and the splice check.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diagram import StagedDiagram, VarKind
from .errors import (
    OverlappingSets,
    StateSpaceTooLarge,
    UnknownNode,
)
from .graph import MAX_NODES
from .strategy import ROW_SUM_TOL, Strategy

MAX_CELLS = 2**22
# cells of one block of _blocked_marginal's product: 512 KiB of float64
BLOCK_CELLS = 2**16
# _contract names each variable by its position in np.einsum's sublist form,
# which accepts at most 52 distinct labels
assert MAX_NODES <= 52, "_contract needs at most 52 variables per contraction"


@dataclass(eq=False)
class DiscreteModel:
    """State counts plus one observational CPT per variable.

    CPT axes follow the diagram's canonical order: one axis per parent (in
    diagram order) and the variable's own states last.
    """

    states: dict[str, int]
    cpts: dict[str, np.ndarray]


@dataclass(eq=False)
class JointTable:
    """Dense joint distribution; axes follow ``labels``."""

    labels: tuple[str, ...]
    table: np.ndarray

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownNode(f"variable {label!r} not in table") from None

    def total(self) -> float:
        return float(self.table.sum())


@dataclass(eq=False)
class LossFunction:
    """Real-valued table over the outcome's states."""

    values: np.ndarray
    outcome: str


def loss_function(values: Sequence[float], outcome: str) -> LossFunction:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError("loss values must be a finite 1-d table")
    return LossFunction(values=arr, outcome=outcome)


@dataclass(frozen=True)
class ModelIssue:
    # ShapeMismatch | BadProbability | RowNotNormalized | InertParentInfluence | MissingCpt | BadStateCount
    code: str
    var: str
    message: str


def _is_probability(p: object) -> bool:
    """Whether an object-array entry is a real number in [0, inf)."""
    return isinstance(p, numbers.Real) and 0 <= p < math.inf


def validate_model(m: DiscreteModel, d: StagedDiagram) -> tuple[ModelIssue, ...]:
    """Shape, entry-range, normalisation, and inert-parent checks for every CPT."""
    issues: list[ModelIssue] = []
    for v in d.vars:
        lab = v.label
        n = m.states.get(lab)
        if n is None or n < 1:
            issues.append(ModelIssue("BadStateCount", lab, f"state count {n!r} invalid"))
            continue
        cpt = m.cpts.get(lab)
        if cpt is None:
            issues.append(ModelIssue("MissingCpt", lab, "no conditional probability table"))
            continue
        want = tuple(m.states.get(p, 0) for p in d.parents[lab]) + (n,)
        if cpt.shape != want:
            issues.append(
                ModelIssue(
                    "ShapeMismatch",
                    lab,
                    f"cpt shape {cpt.shape} does not match parent layout {want}",
                )
            )
            continue
        # exact (object) tables are checked exactly: no tolerance
        exact = cpt.dtype == object
        tol = 0 if exact else ROW_SUM_TOL
        if exact:
            cell = next((c for c in np.ndindex(cpt.shape) if not _is_probability(cpt[c])), None)
        else:
            bad = np.argwhere(~np.isfinite(cpt) | (cpt < 0.0))
            cell = tuple(int(c) for c in bad[0]) if len(bad) else None
        if cell is not None:
            msg = f"entry {cell} is {cpt[cell] if exact else float(cpt[cell])!r}, not a probability"
            issues.append(ModelIssue("BadProbability", lab, msg))
            continue
        with np.errstate(over="ignore"):  # a row summing to inf is reported below
            sums = np.asarray(cpt.sum(axis=-1))
        off = np.asarray(np.abs(sums - 1))
        if off.size and off.max() > tol:
            row = np.unravel_index(int(off.argmax()), off.shape)
            total = sums[row] if exact else f"{float(sums[row]):.17g}"
            issues.append(
                ModelIssue("RowNotNormalized", lab, f"row {tuple(int(r) for r in row)} sums to {total}")
            )
        inert = d.inert_parents(lab) if v.kind is VarKind.ACTION else frozenset()
        for p in inert:
            ax = d.parents[lab].index(p)
            spread = np.abs(cpt - cpt.take([0], axis=ax)).max()
            if spread > tol:
                issues.append(
                    ModelIssue(
                        "InertParentInfluence",
                        lab,
                        f"inert parent {p} changes the kernel by up to {float(spread):.3e}",
                    )
                )
    return tuple(issues)


def _expand(arr: np.ndarray, axes: Sequence[int], rank: int, shape: Sequence[int]) -> np.ndarray:
    """Place arr's axes at the given positions of a rank-`rank` broadcast shape."""
    order = sorted(range(len(axes)), key=axes.__getitem__)  # np.argsort costs more on a few axes
    arr_t = np.transpose(arr, order)
    new_shape = [1] * rank
    for pos, ax in enumerate(sorted(axes)):
        new_shape[ax] = shape[ax]
    return arr_t.reshape(new_shape)


def _product(factors: list, scope: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
    """The product of ``(table, axes)`` factors over ``scope``, axes in ``scope``
    order: each factor broadcast and multiplied in place, in factor order, so
    the cells do not depend on the scope's order.  The factors' dtype is kept."""
    shape = tuple(sizes[a] for a in scope)
    at = {a: k for k, a in enumerate(scope)}
    # np.einsum gives a 0-d object product as a bare Python object
    out = np.ones(shape, dtype=np.result_type(*(np.asarray(arr) for arr, _ in factors)))
    for arr, axes in factors:
        out *= _expand(arr, [at[a] for a in axes], len(shape), shape)
    return out


def _capped_sizes(labels: Sequence[str], states: Mapping[str, int]) -> list[int]:
    """State counts in ``labels`` order; refuses a product of more than MAX_CELLS cells."""
    sizes = [states[lab] for lab in labels]
    cells = math.prod(sizes)
    if cells > MAX_CELLS:
        raise StateSpaceTooLarge(f"{cells} cells exceed the cap of {MAX_CELLS}")
    return sizes


def _contract(
    labels: Sequence[str],
    states: Mapping[str, int],
    factors: Iterable[tuple[tuple[int, ...], np.ndarray]],
    keep: Sequence[str],
) -> np.ndarray:
    """The product of ``factors`` summed down to ``keep``, axes in ``keep`` order.

    Factor axes index ``labels``, and every variable must appear in some
    factor.  Variables are summed out one at a time (bucket elimination):
    each step takes the dropped variable whose factors span the fewest cells,
    ties to the lower position, multiplies only those factors and sums it
    out; ``_product`` multiplies what is left.  No table over all variables
    is built unless ``keep`` names them all, but the cap is the product of all
    state counts either way.  The factors' dtype is kept.
    """
    sizes = _capped_sizes(labels, states)
    pos = {lab: i for i, lab in enumerate(labels)}
    out = [pos[lab] for lab in keep]
    pending = [(arr, tuple(axes)) for axes, arr in factors]
    drop = set(range(len(sizes))) - set(out)
    while drop:
        scopes: dict[int, set[int]] = {v: set() for v in drop}
        for _, axes in pending:
            for a in axes:
                if a in scopes:
                    scopes[a].update(axes)
        v = min(drop, key=lambda u: (math.prod(sizes[a] for a in scopes[u]), u))
        merged = sorted(scopes[v] - {v})
        used = [f for f in pending if v in f[1]]
        pending = [f for f in pending if v not in f[1]]
        pending.append((np.einsum(*itertools.chain.from_iterable(used), merged), tuple(merged)))
        drop.remove(v)
    return _product(pending, out, sizes)


def _block_plan(
    sizes: Sequence[int], kept: Sequence[int], scopes: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], int] | None:
    """How ``_blocked_marginal`` splits the product over ``sizes``: the kept
    axes each block fixes, latest first, and the number of leading factor
    scopes that touch none of them, whose product every block shares.

    None when nothing is dropped or when the last axis with more than one
    state is not kept: the product is then summed in one piece.
    """
    inner = max((a for a, n in enumerate(sizes) if n > 1), default=-1)
    if len(kept) == len(sizes) or inner not in kept:
        return None
    fixed: list[int] = []
    cells = math.prod(sizes)
    for a in reversed(kept):
        if cells <= BLOCK_CELLS:
            break
        if a < inner and sizes[a] > 1:
            fixed.append(a)
            cells //= sizes[a]
    shared = next((k for k, axes in enumerate(scopes) if set(axes) & set(fixed)), len(scopes))
    return tuple(fixed), shared


def _grow(table: np.ndarray, steps: list, cfg: tuple[int, ...]) -> np.ndarray:
    """``table`` times each step's factor, with the block's fixed states
    ``cfg`` picked out of its leading axes; ``table`` itself is never written."""
    start = table
    for f, pick, shape, widen in steps:
        if pick:
            f = f[(*(cfg[j] for j in pick), ...)]
        if widen is None and table is not start:
            table *= f
        else:
            # a C-order table of its own; numpy would return a 0-d object
            # product as a bare Python object
            table = np.multiply(table.reshape(widen or shape), f, out=np.empty(shape, table.dtype))
    return table


def _blocked_marginal(
    labels: Sequence[str],
    states: Mapping[str, int],
    factors: Iterable[tuple[tuple[int, ...], np.ndarray]],
    keep: Iterable[str],
) -> np.ndarray:
    """The product of ``factors`` summed down to ``keep``, axes in ``labels`` order:
    bitwise ``_product`` over every label summed over the dropped axes,
    without a table of more than about BLOCK_CELLS cells.

    The product grows one factor at a time, in factor order, from
    ``np.ones(())``, so each cell is multiplied in ``_product``'s order.  The
    running table holds the axes seen so far: the dropped ones first in
    position order, then the kept ones in reverse position order, so the
    trailing axes are the earliest kept ones and each factor's broadcast
    runs over long contiguous rows.  A factor that adds an axis widens the
    table into a new C-order array; left to itself numpy would lay the
    product out in its operands' memory order, and the sum below reads the
    table in memory order.  A factor that adds no axis multiplies in place.

    Summing the leading dropped axes then adds the dropped configurations to
    each kept cell in lexicographic order, as numpy's reduction of the dense
    product does while its innermost loop runs over a kept axis.  A loop over
    one kept cell would become numpy's pairwise sum instead, so no block
    fixes the last axis with more than one state, and when that axis is
    dropped the product is ``_product``'s, summed in one piece.

    A block fixes one configuration of the latest kept axes
    (``_block_plan``).  The product of the factors before the first one that
    touches a fixed axis is built once and shared by every block.  The cap is
    the product of all state counts.  The factors' dtype is kept.
    """
    sizes = _capped_sizes(labels, states)
    kept = sorted(labels.index(lab) for lab in set(keep))
    drop = tuple(a for a in range(len(sizes)) if a not in kept)
    pending = [(arr, axes) for axes, arr in factors]
    plan = _block_plan(sizes, kept, [axes for _, axes in pending])
    if plan is None:
        return _product(pending, range(len(sizes)), sizes).sum(axis=drop)
    fixed, shared = plan
    free = [a for a in reversed(kept) if a not in fixed]
    rank = {a: k for k, a in enumerate(drop + tuple(free))}
    # per factor: the factor with its fixed axes leading and the others
    # broadcast over the running table's layout, which of a block's fixed
    # states it picks, the table's shape after it, and the table's shape
    # before it with ones for the axes it adds (None when it adds none)
    steps = []
    seen: list[int] = []
    for arr, axes in pending:
        hold = [a for a in axes if a in fixed]
        new = sorted({*seen, *axes} - {*fixed}, key=rank.__getitem__)
        shape = [sizes[a] for a in new]
        full = [sizes[a] for a in hold] + shape
        at = [hold.index(a) if a in fixed else len(hold) + new.index(a) for a in axes]
        widen = None if len(new) == len(seen) else [n if a in seen else 1 for a, n in zip(new, shape)]
        steps.append((_expand(arr, at, len(full), full), [fixed.index(a) for a in hold], shape, widen))
        seen = new
    dtype = np.result_type(*(np.asarray(arr) for arr, _ in pending))
    lead = tuple(range(len(drop)))
    out = np.empty([sizes[a] for a in kept], dtype=dtype)
    view = out.transpose([kept.index(a) for a in (*fixed, *free)])
    head = _grow(np.ones((), dtype=dtype), steps[:shared], ())
    for cfg in np.ndindex(*(sizes[a] for a in fixed)):
        view[cfg] = _grow(head, steps[shared:], cfg).sum(axis=lead)
    return out


def _spliced_factors(
    m: DiscreteModel, d: StagedDiagram, strategy: Strategy | None, split: int
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    pos = d.position
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    for v in d.vars:
        if v.kind is VarKind.ACTION and v.stage > split:
            assert strategy is not None
            parents = strategy.parents_of(v.label)
            arr = strategy.kernel_table(v.label)
        else:
            parents = d.parents[v.label]
            arr = m.cpts[v.label]
        axes = tuple(pos[p] for p in parents) + (pos[v.label],)
        factors.append((axes, arr))
    return factors


def _regime_marginal(
    m: DiscreteModel, d: StagedDiagram, strategy: Strategy | None, keep: Sequence[str]
) -> np.ndarray:
    """``marginal(joint(m, d, strategy), keep)`` by contraction, axes in ``keep`` order."""
    split = d.n_stages if strategy is None else 0
    return _contract(d.labels, m.states, _spliced_factors(m, d, strategy, split), keep)


def _regime_mixture(
    m: DiscreteModel, d: StagedDiagram, s: Strategy, keep: Sequence[str]
) -> np.ndarray:
    """The law of ``keep`` and the regime node (last axis): state 0 carries the
    observational law and state 1 the strategy's, with mass 0.5 each."""
    obs = _regime_marginal(m, d, None, keep)
    strat = _regime_marginal(m, d, s, keep)
    return np.stack([0.5 * obs, 0.5 * strat], axis=-1)


def joint(m: DiscreteModel, d: StagedDiagram, strategy: Strategy | None = None) -> JointTable:
    """Full joint under the observational regime, or under a strategy regime.

    Under a strategy every action factor is replaced by the strategy kernel;
    covariate, hidden, and outcome factors are kept unchanged.
    """
    return JointTable(d.labels, _regime_marginal(m, d, strategy, d.labels))


def marginal(j: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out everything not in ``keep``; axis order follows the source table."""
    keep_set = set(keep)
    unknown = keep_set - set(j.labels)
    if unknown:
        raise UnknownNode(f"not in table: {sorted(unknown)}")
    drop = tuple(ax for ax, lab in enumerate(j.labels) if lab not in keep_set)
    labels = tuple(lab for lab in j.labels if lab in keep_set)
    return JointTable(labels=labels, table=j.table.sum(axis=drop))


def _condition(table: np.ndarray, lead: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of ``table``'s trailing axes given its first ``lead`` axes,
    zero-filled where the leading configuration has no mass, and the mask of
    the leading configurations that have some."""
    wide = (1,) * (table.ndim - lead)
    den = np.asarray(table.sum(axis=tuple(range(lead, table.ndim))))
    mask = np.asarray(den > 0.0)
    safe = np.where(mask, den, 1.0)
    cond = np.where(mask.reshape(mask.shape + wide), table / safe.reshape(safe.shape + wide), 0.0)
    return cond, mask


def expectation(j: JointTable, k: LossFunction) -> float:
    p = marginal(j, [k.outcome]).table
    if p.shape != k.values.shape:
        raise ValueError(
            f"loss table over {k.values.shape} states, outcome has {p.shape}"
        )
    return float(np.dot(p, k.values))


def ci_deviation(
    j: JointTable,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> float:
    """Worst factorisation gap max |p(x,y|z) - p(x|z) p(y|z)| over the
    conditioning configurations of positive probability."""
    xs, ys, zs = tuple(x), tuple(y), tuple(z)
    if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
        raise OverlappingSets("query sets must be pairwise disjoint")
    sub = marginal(j, xs + ys + zs)
    t = np.transpose(sub.table, [sub.axis(v) for v in xs + ys + zs])
    nx = int(np.prod(t.shape[: len(xs)], initial=1))
    ny = int(np.prod(t.shape[len(xs) : len(xs) + len(ys)], initial=1))
    t = t.reshape(nx, ny, -1)
    pz = t.sum(axis=(0, 1))
    seen = pz > 0.0
    # z leads and y stays innermost, so each sum runs as it does on one z slice
    pxy = np.moveaxis(t, 2, 0)[seen] / pz[seen, None, None]
    px = pxy.sum(axis=2)
    py = pxy.sum(axis=1)
    return float(np.abs(pxy - px[:, :, None] * py[:, None, :]).max(initial=0.0))


@dataclass(frozen=True)
class PositivityIssue:
    stage: int
    history: tuple[tuple[str, int], ...]
    action_state: int
    reason: str


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    issues: tuple[PositivityIssue, ...]


def check_positivity(m: DiscreteModel, d: StagedDiagram, s: Strategy) -> PositivityReport:
    """Support-inclusion check on observed histories.

    Every action the strategy can take at a history reachable under the
    strategy must have positive probability under the observational regime
    given that history.
    """
    observed = d.observed_labels
    po = _regime_marginal(m, d, None, observed)
    ps = _regime_marginal(m, d, s, observed)
    issues: list[PositivityIssue] = []
    for i in range(1, d.n_stages + 1):
        a_lab = d.action_label(i)
        cut = observed.index(a_lab)
        hist_vars = observed[:cut]
        ps_hist = ps.sum(axis=tuple(range(cut, ps.ndim)))
        po_hist_a = po.sum(axis=tuple(range(cut + 1, po.ndim)))
        axes = [hist_vars.index(p) for p in s.parents_of(a_lab)] + [cut]
        taken = _expand(s.kernel_table(a_lab), axes, cut + 1, po_hist_a.shape) > 0.0
        unseen_history = po_hist_a.sum(axis=-1) <= 0.0
        # argwhere walks C order: histories in index order, then action states
        for *cfg, a_state in np.argwhere((ps_hist[..., None] > 0.0) & taken & (po_hist_a <= 0.0)):
            cfg = tuple(int(c) for c in cfg)
            reason = (
                "history never observed"
                if unseen_history[cfg]
                else "action never observed at this history"
            )
            issues.append(PositivityIssue(i, tuple(zip(hist_vars, cfg)), int(a_state), reason))
    return PositivityReport(passed=not issues, issues=tuple(issues))

