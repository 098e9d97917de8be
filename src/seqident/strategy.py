"""Decision strategies: per-action kernels over observed-history configurations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .diagram import StagedDiagram, StrategyParentSpec, parent_spec, unconditional_spec
from .errors import (
    EnumerationTooLarge,
    MissingConfiguration,
    StateOutOfRange,
    UnknownLabel,
)

KERNEL_TOL = 1e-12


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


def _check_rows(action: str, table: np.ndarray) -> None:
    if not np.isfinite(table).all() or (table < 0.0).any():
        raise ValueError(f"kernel entries for {action} must be finite and non-negative")
    sums = table.sum(axis=-1)
    if sums.size and np.abs(sums - 1.0).max() > KERNEL_TOL:
        raise ValueError(f"kernel rows for {action} are not normalised")


def _make(
    d: StagedDiagram,
    spec: StrategyParentSpec,
    kernels: Mapping[str, np.ndarray],
    name: str,
) -> Strategy:
    actions = d.actions
    orders = []
    tables = []
    for a in actions:
        parents = tuple(sorted(spec.of(a), key=d.position.__getitem__))
        table = np.asarray(kernels[a], dtype=float)
        _check_rows(a, table)
        orders.append(parents)
        tables.append(table)
    return Strategy(
        name=name,
        spec=spec,
        actions=actions,
        parent_orders=tuple(orders),
        tables=tuple(tables),
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
    kernels = {}
    for a, val in zip(d.actions, values):
        n = states[a]
        if not 0 <= val < n:
            raise StateOutOfRange(f"{a} has {n} states, got {val}")
        row = np.zeros(n)
        row[val] = 1.0
        kernels[a] = row
    return _make(d, unconditional_spec(d), kernels, name)


def make_deterministic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    choices: Mapping[str, Mapping[tuple[int, ...], int]],
    name: str = "s",
) -> Strategy:
    """Indicator kernels from explicit per-history action choices.

    ``choices[action]`` must cover every configuration of the action's
    strategy parents, keyed by state tuples in diagram order.
    """
    kernels = {}
    for a in d.actions:
        parents = tuple(sorted(spec.of(a), key=d.position.__getitem__))
        pshape = tuple(states[p] for p in parents)
        n = states[a]
        table = np.zeros(pshape + (n,))
        chosen = choices.get(a, {})
        for cfg in np.ndindex(*pshape):
            if cfg not in chosen:
                raise MissingConfiguration(f"{a}: no choice for history {cfg}")
            val = chosen[cfg]
            if not 0 <= val < n:
                raise StateOutOfRange(f"{a} has {n} states, got {val} at {cfg}")
            table[cfg + (val,)] = 1.0
        kernels[a] = table
    return _make(d, spec, kernels, name)


def make_stochastic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    kernels: Mapping[str, np.ndarray],
    name: str = "s",
) -> Strategy:
    """Strategy from explicit kernel tables (shape checked against the spec)."""
    for a in d.actions:
        parents = tuple(sorted(spec.of(a), key=d.position.__getitem__))
        want = tuple(states[p] for p in parents) + (states[a],)
        got = np.asarray(kernels[a]).shape
        if got != want:
            raise MissingConfiguration(f"{a}: kernel shape {got}, expected {want}")
    return _make(d, spec, kernels, name)


def from_observational(model, d: StagedDiagram, name: str = "obs") -> Strategy:
    """Render the observational policy of a model as a stochastic strategy.

    Only possible when no action has hidden parents.
    """
    mapping = {a: d.pa_o(a) for a in d.actions}
    spec = parent_spec(d, mapping)  # raises if any parent is hidden
    kernels = {a: model.cpts[a] for a in d.actions}
    return make_stochastic(d, model.states, spec, kernels, name)


def kernel(s: Strategy, action: str, history: Mapping[str, int]) -> np.ndarray:
    """The stored kernel row for one fully specified strategy-parent history."""
    parents = s.parents_of(action)
    idx = []
    table = s.kernel_table(action)
    for ax, p in enumerate(parents):
        if p not in history:
            raise MissingConfiguration(f"history missing {p} for {action}")
        v = history[p]
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


_ITER_CHUNK = 256  # strategies decoded at a time by ``StrategyEnumeration.__iter__``


@dataclass(frozen=True)
class StrategyEnumeration:
    """Sized lazy stream of all deterministic strategies for a parent spec."""

    count: int
    _d: StagedDiagram
    _states: Mapping[str, int]
    _spec: StrategyParentSpec

    @cached_property
    def _parent_orders(self) -> tuple[tuple[str, ...], ...]:
        d = self._d
        return tuple(tuple(sorted(self._spec.of(a), key=d.position.__getitem__)) for a in d.actions)

    def _choices(self, idx: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Decode strategy indices into chosen action states.

        Returns one integer array per action, of shape ``(len(idx), *parent
        shape)``.  Mixed-radix decode: the first action is the most
        significant digit, and within an action the first history row is;
        this yields lexicographic order over the concatenated kernel tables.
        """
        rem = np.array(idx, dtype=np.int64)
        out = []
        for a, parents in reversed(list(zip(self._d.actions, self._parent_orders))):
            n = self._states[a]
            pshape = tuple(self._states[p] for p in parents)
            digits = np.empty((rem.size, math.prod(pshape)), dtype=np.int64)
            for row in range(digits.shape[1] - 1, -1, -1):
                digits[:, row] = rem % n
                rem //= n
            out.append(digits.reshape((rem.size,) + pshape))
        return tuple(reversed(out))

    def _build(self, idx: Sequence[int]) -> Iterator[Strategy]:
        """The strategies at the given enumeration indices, named ``s{index}``."""
        choices = self._choices(idx)
        actions = self._d.actions
        eyes = [np.eye(self._states[a]) for a in actions]
        for j, i in enumerate(idx):
            kernels = {a: np.take(eye, c[j], axis=0) for a, eye, c in zip(actions, eyes, choices)}
            yield _make(self._d, self._spec, kernels, f"s{i}")

    def __iter__(self) -> Iterator[Strategy]:
        for start in range(0, self.count, _ITER_CHUNK):
            yield from self._build(range(start, min(start + _ITER_CHUNK, self.count)))


def enumerate_deterministic(
    d: StagedDiagram,
    states: Mapping[str, int],
    spec: StrategyParentSpec,
    cap: int = 10**6,
) -> StrategyEnumeration:
    """All deterministic strategies, duplicate-free, in lexicographic table order."""
    count = 1
    for a in d.actions:
        n_cfg = math.prod(states[p] for p in spec.of(a))
        count *= states[a] ** n_cfg
    if count > cap:
        raise EnumerationTooLarge(count, cap)
    return StrategyEnumeration(count=count, _d=d, _states=states, _spec=spec)
