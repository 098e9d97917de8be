"""Decision strategies: per-action kernels over observed-history configurations.

A deterministic strategy's kernels are identity rows gathered by one integer
choice table per action, which ``make_deterministic`` fills from choices
that must name exactly the parent configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .diagram import (
    StagedDiagram,
    StrategyParentSpec,
    kernel_parent_order,
    unconditional_spec,
)
from .errors import (
    EnumerationTooLarge,
    MissingConfiguration,
    StateOutOfRange,
    UnknownLabel,
)

ROW_SUM_TOL = 1e-12  # how far a probability row may sum from one


@dataclass(frozen=True, eq=False)
class Strategy:
    """One decision kernel per action.

    ``tables[i]`` has one axis per strategy parent of ``actions[i]`` (diagram
    order) plus the action's own states last; every row is a distribution.
    Deterministic strategies are exactly those whose rows are all indicators.
    """

    name: str
    spec: StrategyParentSpec
    actions: tuple[str, ...]
    parent_orders: tuple[tuple[str, ...], ...]
    tables: tuple[np.ndarray, ...]

    @cached_property
    def _by_action(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    def parents_of(self, action: str) -> tuple[str, ...]:
        return self.parent_orders[self._index(action)]

    def kernel_table(self, action: str) -> np.ndarray:
        return self.tables[self._index(action)]

    def _index(self, action: str) -> int:
        try:
            return self._by_action[action]
        except KeyError:
            raise UnknownLabel(f"strategy has no kernel for {action!r}") from None

    @cached_property
    def deterministic(self) -> bool:
        return all(
            np.all(np.isin(table, (0.0, 1.0))) and np.all(table.max(axis=-1) == 1.0)
            for table in self.tables
        )


def _rows(action: str, kernel: np.ndarray) -> np.ndarray:
    """The kernel as a float table, once every row is checked to be a distribution."""
    table = np.asarray(kernel, dtype=float)
    if not np.isfinite(table).all() or (table < 0.0).any():
        raise ValueError(f"kernel entries for {action} must be finite and non-negative")
    with np.errstate(over="ignore"):  # a row summing to inf is refused below
        sums = table.sum(axis=-1)
    if sums.size and np.abs(sums - 1.0).max() > ROW_SUM_TOL:
        raise ValueError(f"kernel rows for {action} are not normalised")
    return table


def _is_state(v: object) -> bool:
    """An integer state index; ``bool`` is refused, since numpy reads it as a mask."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _gathered(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    choices: Mapping[str, np.ndarray],
    name: str,
    orders: Sequence[tuple[str, ...]] | None = None,
) -> Strategy:
    """The strategy whose action a picks ``choices[a][h]`` at history h: identity
    rows gathered by each integer choice table, indicators by construction.
    Without ``orders`` the parent orders are derived from the spec."""
    if orders is None:
        orders = [kernel_parent_order(d, spec, a) for a in d.actions]
    tables = tuple(np.eye(states[a])[choices[a]] for a in d.actions)
    return Strategy(
        name=name, spec=spec, actions=d.actions, parent_orders=tuple(orders), tables=tables
    )


def make_unconditional(
    d: StagedDiagram,
    states: Mapping[str, int],
    values: Sequence[int],
    name: str = "s",
) -> Strategy:
    """Point-mass kernels with no parents, one fixed state per action."""
    if len(values) != len(d.actions):
        raise MissingConfiguration(
            f"need one value per action, got {len(values)} for {len(d.actions)}"
        )
    choices = {a: {(): val} for a, val in zip(d.actions, values)}
    return make_deterministic(d, states, unconditional_spec(d), choices, name)


def make_deterministic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    choices: Mapping[str, Mapping[tuple[int, ...], int]],
    name: str = "s",
) -> Strategy:
    """Indicator kernels from explicit per-history action choices.

    ``choices[action]`` must name exactly the configurations of the action's
    strategy parents, keyed by state tuples in diagram order, each with an
    integer state (not a ``bool``); ``choices`` names only the diagram's actions.
    """
    tables, orders = {}, []
    for a in d.actions:
        orders.append(kernel_parent_order(d, spec, a))
        pshape = tuple(states[p] for p in orders[-1])
        n = states[a]
        table = np.empty(pshape, dtype=np.int64)
        chosen = choices.get(a, {})
        for cfg in np.ndindex(*pshape):
            if cfg not in chosen:
                raise MissingConfiguration(f"{a}: no choice for history {cfg}")
            val = chosen[cfg]
            if not _is_state(val):
                raise StateOutOfRange(f"{a}: {val!r} at {cfg} is not an integer state")
            if not 0 <= val < n:
                raise StateOutOfRange(f"{a} has {n} states, got {val} at {cfg}")
            table[cfg] = val
        if len(chosen) > table.size:  # every configuration is there, so some key is not one
            cfg = next(c for c in chosen if c not in np.ndindex(*pshape))
            raise MissingConfiguration(f"{a}: choice for history {cfg!r} outside shape {pshape}")
        tables[a] = table
    _no_stray_actions(d, choices, "choices")
    return _gathered(d, states, spec, tables, name, orders)


def _no_stray_actions(d: StagedDiagram, given: Mapping, what: str) -> None:
    stray = [a for a in given if a not in d.actions]
    if stray:
        raise UnknownLabel(f"{what} for {stray[0]!r}, which is not an action of the diagram")


def make_stochastic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    kernels: Mapping[str, np.ndarray],
    name: str = "s",
) -> Strategy:
    """Strategy from one kernel table for each action of the diagram (shape
    checked against the spec, then every row checked to be a distribution)."""
    _no_stray_actions(d, kernels, "kernels")
    orders = []
    for a in d.actions:
        if a not in kernels:
            raise MissingConfiguration(f"{a}: no kernel")
        orders.append(kernel_parent_order(d, spec, a))
        want = tuple(states[p] for p in orders[-1]) + (states[a],)
        got = np.asarray(kernels[a]).shape
        if got != want:
            raise MissingConfiguration(f"{a}: kernel shape {got}, expected {want}")
    tables = tuple(_rows(a, kernels[a]) for a in d.actions)
    return Strategy(
        name=name, spec=spec, actions=d.actions, parent_orders=tuple(orders), tables=tables
    )


def kernel(s: Strategy, action: str, history: Mapping[str, int]) -> np.ndarray:
    """The stored kernel row for one fully specified strategy-parent history."""
    parents = s.parents_of(action)
    idx = []
    table = s.kernel_table(action)
    for ax, p in enumerate(parents):
        if p not in history:
            raise MissingConfiguration(f"history missing {p} for {action}")
        v = history[p]
        if not _is_state(v):
            raise MissingConfiguration(f"{p}={v!r} is not an integer state")
        if not 0 <= v < table.shape[ax]:
            raise MissingConfiguration(f"{p}={v} outside its {table.shape[ax]} states")
        idx.append(v)
    return table[tuple(idx)]


def strategies_equal(a: Strategy, b: Strategy) -> bool:
    return (
        a.actions == b.actions
        and a.parent_orders == b.parent_orders
        and all(np.array_equal(ta, tb) for ta, tb in zip(a.tables, b.tables))
    )


MAX_ENUMERATION = 2**63 - 1  # the largest strategy count whose indices fit in int64
_ITER_CHUNK = 256  # strategies decoded at a time by ``StrategyEnumeration.__iter__``


@dataclass(frozen=True)
class StrategyEnumeration:
    """Sized lazy stream of all deterministic strategies for a parent spec."""

    _d: StagedDiagram
    _states: Mapping[str, int]
    _spec: StrategyParentSpec

    @cached_property
    def _parent_orders(self) -> tuple[tuple[str, ...], ...]:
        return tuple(kernel_parent_order(self._d, self._spec, a) for a in self._d.actions)

    @cached_property
    def _radices(self) -> tuple[int, ...]:
        """Per action, how many choice tables it has: one digit of a strategy index."""
        return tuple(
            self._states[a] ** math.prod(self._states[p] for p in parents)
            for a, parents in zip(self._d.actions, self._parent_orders)
        )

    @cached_property
    def count(self) -> int:
        return math.prod(self._radices)

    @cached_property
    def _places(self) -> tuple[np.ndarray, ...]:
        """Per action, the place value of each history row in a choice-table
        index: the action's state count to the power of the rows after it."""
        out = []
        for a, parents in zip(self._d.actions, self._parent_orders):
            rows = math.prod(self._states[p] for p in parents)
            out.append(self._states[a] ** np.arange(rows - 1, -1, -1, dtype=np.int64))
        return tuple(out)

    def _tables(self, j: int, idx: Sequence[int]) -> np.ndarray:
        """Decode choice-table indices of the j-th action (from 0) into chosen states.

        Returns an integer array of shape ``(len(idx), *parent shape)``.
        Mixed-radix decode with the first history row as the most
        significant digit, so tables come in lexicographic order: one
        broadcast ``//`` and ``%`` against the rows' place values.
        """
        parents = self._parent_orders[j]
        n = self._states[self._d.actions[j]]
        idx = np.asarray(idx, dtype=np.int64)
        digits = idx[:, None] // self._places[j] % n
        return digits.reshape((idx.size,) + tuple(self._states[p] for p in parents))

    def _choices(self, idx: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Decode strategy indices into chosen action states, one ``_tables``
        array per action.  A strategy index is mixed radix over the actions'
        table counts, the first action most significant; this yields
        lexicographic order over the concatenated kernel tables."""
        rem = np.array(idx, dtype=np.int64)
        out = []
        for j in reversed(range(len(self._radices))):
            out.append(self._tables(j, rem % self._radices[j]))
            rem //= self._radices[j]
        return tuple(reversed(out))

    def _build(self, idx: Sequence[int]) -> Iterator[Strategy]:
        """The strategies at the given enumeration indices, named ``s{index}``.

        The choice tables are decoded for the whole batch at once, and each
        strategy is gathered from its own by ``_gathered``, so its rows are
        distributions by construction and are not checked again.
        """
        batch = self._choices(idx)
        for j, i in enumerate(idx):
            choices = {a: c[j] for a, c in zip(self._d.actions, batch)}
            yield _gathered(self._d, self._states, self._spec, choices, f"s{i}", self._parent_orders)

    def __iter__(self) -> Iterator[Strategy]:
        """Every strategy in enumeration order, built ``_ITER_CHUNK`` at a time by ``_build``."""
        for start in range(0, self.count, _ITER_CHUNK):
            yield from self._build(range(start, min(start + _ITER_CHUNK, self.count)))


def enumerate_deterministic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    cap: int = 10**6,
) -> StrategyEnumeration:
    """All deterministic strategies, duplicate-free, in lexicographic table order.

    Strategy indices are int64, so a count above ``MAX_ENUMERATION`` is too
    large whatever ``cap`` is; the error then names that limit as the cap.
    """
    stream = StrategyEnumeration(_d=d, _states=states, _spec=spec)
    cap = min(cap, MAX_ENUMERATION)
    if stream.count > cap:
        raise EnumerationTooLarge(stream.count, cap)
    return stream
