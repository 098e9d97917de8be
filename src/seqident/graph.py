"""Directed acyclic graphs and separation tests on node-id bitmasks.

Separation is decided by the moralisation criterion: restrict the graph to
the ancestral closure of the query sets, marry co-parents, drop directions,
and look for a path that dodges the conditioning set.  The query sets and
the closure are integer bitmasks over node ids, and the closure comes from
one walk up the cached parent masks.  The moral graph is never built: a
breadth-first search from the second query set asks for the moral
neighbours of each node it reaches (parents, children inside the closure,
and those children's other parents) and stops at the first node of the
first set.  When such a path exists it is returned as a witness.

A graph is its labels and each node's parent bitmask; parent ids, edges,
children and child masks are derived from the masks.  ``build_dag`` checks
label edge lists; the graphs of ``seqident.diagram`` are edits of the
diagram's parent masks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateEdge,
    EmptyQuerySet,
    OverlappingSets,
    TooManyNodes,
    UnknownLabel,
    UnknownNode,
)

# Every downstream computation enumerates state spaces, so graphs beyond
# desk scale are rejected up front.
MAX_NODES = 24


@dataclass(frozen=True)
class Dag:
    """Immutable DAG over labelled nodes; node ids are dense 0..n-1, and bit p
    of ``parent_masks[v]`` is set when p is a parent of v.  There is room for
    the regime node beside a diagram's ``MAX_NODES`` variables.  An edge to a
    higher id, or out of a parentless node, cannot close a cycle; if any edge
    is neither, the depth-first order runs and raises CycleDetected.  Labels
    are distinct, or UnknownLabel is raised; there is one mask per label and
    no bit at or above the node count, or UnknownNode is raised."""

    labels: tuple[str, ...]
    parent_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.labels, MAX_NODES + 1)
        pm = self.parent_masks
        n = len(self.labels)
        if len(set(self.labels)) != n:
            dupes = sorted({lab for lab in self.labels if self.labels.count(lab) > 1})
            raise UnknownLabel(f"duplicate labels: {', '.join(dupes)}")
        if len(pm) != n:
            raise UnknownNode(
                f"{len(pm)} parent masks for {n} nodes"
                + (f"; node {self.labels[len(pm)]!r} has none" if len(pm) < n else "")
            )
        # every mask is checked before the depth-first order reads them all
        cyclic = False
        for v, mask in enumerate(pm):
            late = mask >> v << v  # parents of equal or higher id
            if late:
                if mask >> n:  # a negative mask has every high bit set
                    raise UnknownNode(
                        f"parent mask {mask} of node {self.labels[v]!r} sets a bit outside ids 0..{n - 1}"
                    )
                cyclic = cyclic or any(pm[p] for p in _ids(late))
        if cyclic:
            self.topological_order  # raises CycleDetected

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """Each node's parent ids, ascending."""
        return tuple(tuple(_ids(mask)) for mask in self.parent_masks)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((p, v) for v, ps in enumerate(self.parents) for p in ps)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_ids(mask)) for mask in self.child_masks)

    @cached_property
    def child_masks(self) -> tuple[int, ...]:
        out = [0] * len(self.labels)
        for v, mask in enumerate(self.parent_masks):
            bit = 1 << v
            # the walk of _ids inlined: one call and list per node doubled this
            while mask:
                low = mask & -mask
                out[low.bit_length() - 1] |= bit
                mask ^= low
        return tuple(out)

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Reversed postorder of a depth-first search over children, roots and
        children in index order; the first back edge met raises CycleDetected
        with the cycle it closes."""
        children = self.children
        color = [0] * len(children)  # 0 white, 1 gray, 2 black
        post: list[int] = []
        for root in range(len(children)):
            if color[root]:
                continue
            # an explicit stack of child iterators: a recursive closure would
            # leave a reference cycle behind for every graph built
            color[root] = 1
            path = [root]
            todo = [iter(children[root])]
            while todo:
                for c in todo[-1]:
                    if color[c] == 1:
                        raise CycleDetected(tuple(self.labels[i] for i in path[path.index(c) :]))
                    if color[c] == 0:
                        color[c] = 1
                        path.append(c)
                        todo.append(iter(children[c]))
                        break
                else:
                    todo.pop()
                    n = path.pop()
                    color[n] = 2
                    post.append(n)
        return tuple(reversed(post))

    def parent_labels(self, label: str) -> tuple[str, ...]:
        try:
            i = self.index[label]
        except KeyError:
            raise UnknownNode(f"unknown node {label!r}") from None
        return tuple(self.labels[p] for p in self.parents[i])

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            sorted((self.labels[a], self.labels[b]) for a, b in self.edges)
        )


def _check_size(labels: tuple[str, ...], cap: int = MAX_NODES) -> None:
    if len(labels) > cap:
        raise TooManyNodes(f"{len(labels)} nodes exceed the supported maximum of {cap}")


def _mask(g: Dag, labels: Iterable[str]) -> int:
    index = g.index
    out = 0
    for lab in labels:
        try:
            out |= 1 << index[lab]
        except KeyError:
            raise UnknownNode(f"unknown node {lab!r}") from None
    return out


def build_dag(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> Dag:
    """Validate labels and edges and return their Dag."""
    labels = tuple(labels)
    _check_size(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    masks = [0] * len(labels)
    for a, b in edges:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise UnknownLabel(f"edge endpoint {missing!r} is not a declared node")
        bit = 1 << index[a]
        if masks[index[b]] & bit:
            raise DuplicateEdge(f"duplicate edge {a} -> {b}")
        if a == b:
            raise CycleDetected((a,))
        masks[index[b]] |= bit
    return Dag(labels, tuple(masks))


def _ancestor_mask(parent_masks: Sequence[int], seed: int) -> int:
    """Seed plus every ancestor, as a bitmask over node ids."""
    closure = todo = seed
    while todo:
        low = todo & -todo
        todo ^= low
        new = parent_masks[low.bit_length() - 1] & ~closure
        closure |= new
        todo |= new
    return closure


def ancestors(g: Dag, seed: Iterable[str]) -> frozenset[str]:
    """Seed plus every node with a directed path into the seed."""
    closure = _ancestor_mask(g.parent_masks, _mask(g, seed))
    return frozenset(lab for i, lab in enumerate(g.labels) if closure >> i & 1)


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of one separation query; a witness path exists iff not separated.

    The witness is a path in the ancestral moral graph.  It starts in the
    second query set, ends in the first, and never touches the conditioning
    set."""

    separated: bool
    witness: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        assert self.separated == (self.witness is None)


def d_separated(
    g: Dag,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> SeparationVerdict:
    """Decide whether x and y are separated by z via the moralisation criterion.

    On failure the verdict carries a shortest moral-graph path from y to x
    avoiding z, ties broken toward smaller node indices.
    """
    xs, ys, zs = _mask(g, x), _mask(g, y), _mask(g, z)
    if not xs or not ys:
        raise EmptyQuerySet("both query sets must be nonempty")
    if xs & ys or xs & zs or ys & zs:
        raise OverlappingSets("query and conditioning sets must be pairwise disjoint")

    pm, cm = g.parent_masks, g.child_masks
    closure = _ancestor_mask(pm, xs | ys | zs)

    # Multi-source BFS from y; sources and newly reached nodes are queued in
    # index order, which makes the reported path deterministic.  The first x
    # node queued is the first one a pop-time check would meet.
    prev: dict[int, int] = {}
    seen = ys | zs
    queue = deque(_ids(ys))
    while queue:
        node = queue.popleft()
        kids = cm[node] & closure
        moral = pm[node] | kids
        for c in _ids(kids):
            moral |= pm[c]
        new = moral & ~seen
        seen |= new
        for n in _ids(new):
            prev[n] = node
            if xs >> n & 1:
                path = [n]
                while path[-1] in prev:
                    path.append(prev[path[-1]])
                witness = tuple(g.labels[i] for i in reversed(path))
                return SeparationVerdict(separated=False, witness=witness)
            queue.append(n)
    return SeparationVerdict(separated=True)


def _ids(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
