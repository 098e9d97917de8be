"""Directed acyclic graphs, ancestral moral graphs, and separation tests.

Separation is decided by the moralisation criterion: restrict the graph to
the ancestral closure of the query sets, marry co-parents, drop directions,
and look for a path that dodges the conditioning set.  When such a path
exists it is returned as a witness.
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
    """Immutable DAG over labelled nodes; node ids are dense 0..n-1."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.labels]
        for a, b in self.edges:
            out[b].append(a)
        return tuple(tuple(sorted(ps)) for ps in out)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.labels]
        for a, b in self.edges:
            out[a].append(b)
        return tuple(tuple(sorted(cs)) for cs in out)

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

    def node_ids(self, labels: Iterable[str]) -> frozenset[int]:
        try:
            return frozenset(self.index[lab] for lab in labels)
        except KeyError as exc:
            raise UnknownNode(f"unknown node {exc.args[0]!r}") from None

    def parent_labels(self, label: str) -> tuple[str, ...]:
        ids = self.node_ids([label])
        (i,) = ids
        return tuple(self.labels[p] for p in self.parents[i])

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            sorted((self.labels[a], self.labels[b]) for a, b in self.edges)
        )


def build_dag(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> Dag:
    """Validate labels and edges and return a Dag with a cached topological order."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
        raise UnknownLabel(f"duplicate labels: {', '.join(dupes)}")
    if len(labels) > MAX_NODES:
        raise TooManyNodes(f"{len(labels)} nodes exceed the supported maximum of {MAX_NODES}")
    index = {lab: i for i, lab in enumerate(labels)}
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise UnknownLabel(f"edge endpoint {missing!r} is not a declared node")
        pair = (index[a], index[b])
        if pair in seen:
            raise DuplicateEdge(f"duplicate edge {a} -> {b}")
        if pair[0] == pair[1]:
            raise CycleDetected((a,))
        seen.add(pair)
    dag = Dag(labels=labels, edges=frozenset(seen))
    dag.topological_order  # raises CycleDetected
    return dag


def _ancestor_ids(g: Dag, ids: Iterable[int]) -> set[int]:
    reached = set(ids)
    todo = list(reached)
    while todo:
        for p in g.parents[todo.pop()]:
            if p not in reached:
                reached.add(p)
                todo.append(p)
    return reached


def ancestors(g: Dag, seed: Iterable[str]) -> frozenset[str]:
    """Seed plus every node with a directed path into the seed."""
    return frozenset(g.labels[i] for i in _ancestor_ids(g, g.node_ids(seed)))


@dataclass(frozen=True)
class MoralGraph:
    """Undirected graph on an ancestral closure with co-parents married."""

    labels: tuple[str, ...]  # in the host DAG's index order
    edges: frozenset[tuple[str, str]]  # endpoints ordered by host index

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.labels)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        order = {lab: i for i, lab in enumerate(self.labels)}
        adj: dict[str, set[str]] = {lab: set() for lab in self.labels}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {lab: tuple(sorted(ns, key=order.__getitem__)) for lab, ns in adj.items()}


def _moral_neighbours(g: Dag, ids: Iterable[int]) -> dict[int, set[int]]:
    """Adjacency of the ancestral moral graph of ids.  An ancestral closure
    holds every parent of its nodes, so each node's parents are its
    neighbours and are married to one another.  A node with a co-parent also
    lists itself; both callers skip that entry."""
    nb: dict[int, set[int]] = {i: set() for i in _ancestor_ids(g, ids)}
    for child, ns in nb.items():
        ps = g.parents[child]
        ns.update(ps)
        for p in ps:
            nb[p].add(child)
            nb[p].update(ps)
    return nb


def ancestral_moral_graph(g: Dag, seed: Iterable[str]) -> MoralGraph:
    """Restrict to ancestors(seed), marry parents sharing a child, drop directions."""
    nb = _moral_neighbours(g, g.node_ids(seed))
    lab = g.labels
    return MoralGraph(
        labels=tuple(lab[i] for i in sorted(nb)),
        edges=frozenset((lab[a], lab[b]) for a, ns in nb.items() for b in ns if a < b),
    )


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
    xs, ys, zs = g.node_ids(x), g.node_ids(y), g.node_ids(z)
    if not xs or not ys:
        raise EmptyQuerySet("both query sets must be nonempty")
    if xs & ys or xs & zs or ys & zs:
        raise OverlappingSets("query and conditioning sets must be pairwise disjoint")

    nb = _moral_neighbours(g, xs | ys | zs)

    # Multi-source BFS from y; sources and neighbour expansion in index
    # order make the reported path deterministic.
    prev: dict[int, int | None] = dict.fromkeys(ys)
    queue = deque(sorted(ys))
    while queue:
        node = queue.popleft()
        if node in xs:
            path = [node]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])  # type: ignore[arg-type]
            witness = tuple(g.labels[i] for i in reversed(path))
            return SeparationVerdict(separated=False, witness=witness)
        for n in sorted(nb[node] - zs):
            if n not in prev:
                prev[n] = node
                queue.append(n)
    return SeparationVerdict(separated=True)
