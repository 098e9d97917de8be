from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqident import (
    Dag,
    ancestors,
    augment_with_regime,
    build_dag,
    d_separated,
    dag_joint,
    full_history_spec,
    stability,
)
from seqident.errors import (
    CycleDetected,
    DuplicateEdge,
    EmptyQuerySet,
    OverlappingSets,
    TooManyNodes,
    UnknownLabel,
    UnknownNode,
)
from seqident.fuzz import (
    random_parent_spec,
    random_staged_diagram,
)
from seqident.graph import MAX_NODES

from .oracles import (
    ci_holds,
    first_cycle,
    kahn_order,
    moral_graph_reference,
    path_d_separated,
    random_dag,
    random_dag_parameterization,
    separation_witness_reference,
)


class TestBuildDag:
    def test_single_node(self):
        g = build_dag(["X"], [])
        assert g.labels == ("X",) and not g.edges

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected) as exc:
            build_dag(["A", "B"], [("A", "B"), ("B", "A")])
        assert set(exc.value.cycle) == {"A", "B"}

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            build_dag(["A"], [("A", "A")])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            build_dag(["A"], [("A", "B")])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_dag(["A", "B"], [("A", "B"), ("A", "B")])

    def test_duplicate_labels(self):
        with pytest.raises(UnknownLabel):
            build_dag(["A", "A"], [])

    def test_node_cap(self):
        labels = [f"v{i}" for i in range(25)]
        with pytest.raises(TooManyNodes):
            build_dag(labels, [])

    def test_topological_order_cached(self):
        g = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert list(g.topological_order) == [0, 1, 2]


class TestAncestors:
    def test_chain_sink(self):
        g = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert ancestors(g, ["C"]) == {"A", "B", "C"}

    def test_chain_source(self):
        g = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert ancestors(g, ["A"]) == {"A"}

    def test_fixture_closure(self, fig2a):
        g = augment_with_regime(fig2a)
        assert ancestors(g, ["L2", "sigma", "A1"]) == {"L2", "A1", "U1", "sigma"}

    def test_idempotent(self, fig2a):
        g = fig2a.dag
        first = ancestors(g, ["Y"])
        assert ancestors(g, first) == first

    def test_unknown_node(self, fig2a):
        with pytest.raises(UnknownNode):
            ancestors(fig2a.dag, ["nope"])


def _moral_adjacency(g, seed) -> dict[str, set[str]]:
    labels, edges = moral_graph_reference(g, seed)
    adj: dict[str, set[str]] = {lab: set() for lab in labels}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


class TestMoralGraph:
    """The reference moral graph that separation witnesses are checked
    against."""

    def test_collider_marries_parents(self):
        g = build_dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        _, edges = moral_graph_reference(g, ["A", "B", "C"])
        assert edges == {("A", "C"), ("B", "C"), ("A", "B")}

    def test_collider_dropped_when_not_ancestral(self):
        g = build_dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        labels, edges = moral_graph_reference(g, ["A", "B"])
        assert set(labels) == {"A", "B"} and not edges

    def test_fixture_moral_edges(self, fig2a):
        g = augment_with_regime(fig2a)
        _, edges = moral_graph_reference(g, ["L2", "sigma", "A1"])
        assert edges == {
            ("A1", "sigma"),
            ("U1", "A1"),
            ("U1", "L2"),
            ("A1", "L2"),
            ("U1", "sigma"),
        }

    def test_adjacency_symmetric(self, fig2a):
        adj = _moral_adjacency(fig2a.dag, fig2a.labels)
        for node, nbs in adj.items():
            for nb in nbs:
                assert node in adj[nb]


class TestDSeparated:
    def test_blocked_chain(self):
        g = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert d_separated(g, ["A"], ["C"], ["B"]).separated

    def test_fixture_witness(self, fig2a):
        g = augment_with_regime(fig2a)
        v = d_separated(g, ["L2"], ["sigma"], ["A1"])
        assert not v.separated
        assert v.witness == ("sigma", "U1", "L2")

    def test_fixture_outcome_separated(self, fig2b):
        g = augment_with_regime(fig2b)
        assert d_separated(g, ["Y"], ["sigma"], ["A1", "A2", "L1", "L2"]).separated

    def test_witness_avoids_conditioning_set(self, fig2a):
        g = augment_with_regime(fig2a)
        v = d_separated(g, ["Y"], ["sigma"], ["A1"])
        if not v.separated:
            assert not set(v.witness) & {"A1"}

    def test_overlapping_sets(self, fig2a):
        with pytest.raises(OverlappingSets):
            d_separated(fig2a.dag, ["A1"], ["A1"], [])
        with pytest.raises(OverlappingSets):
            d_separated(fig2a.dag, ["A1"], ["Y"], ["A1"])

    def test_empty_query(self, fig2a):
        with pytest.raises(EmptyQuerySet):
            d_separated(fig2a.dag, [], ["Y"], [])

    def test_unknown_node(self, fig2a):
        with pytest.raises(UnknownNode):
            d_separated(fig2a.dag, ["A1"], ["nope"], [])


@st.composite
def dags_st(draw, max_nodes=7):
    n = draw(st.integers(2, max_nodes))
    n_pairs = n * (n - 1) // 2
    mask = draw(st.integers(0, 2**n_pairs - 1))
    labels = [f"v{i}" for i in range(n)]
    edges = []
    bit = 0
    for a in range(n):
        for b in range(a + 1, n):
            if (mask >> bit) & 1:
                edges.append((labels[a], labels[b]))
            bit += 1
    return build_dag(labels, edges)


@st.composite
def separation_queries(draw):
    g = draw(dags_st())
    n = len(g.labels)
    xi = draw(st.integers(0, n - 1))
    yi = draw(st.integers(0, n - 1).filter(lambda v: v != xi))
    roles = [draw(st.sampled_from(["x", "y", "z", "-"])) for _ in range(n)]
    roles[xi], roles[yi] = "x", "y"
    x = {g.labels[i] for i, r in enumerate(roles) if r == "x"}
    y = {g.labels[i] for i, r in enumerate(roles) if r == "y"}
    z = {g.labels[i] for i, r in enumerate(roles) if r == "z"}
    return g, x, y, z


@settings(max_examples=300, deadline=None)
@given(separation_queries())
def test_symmetry(query):
    g, x, y, z = query
    a = d_separated(g, x, y, z)
    b = d_separated(g, y, x, z)
    assert a.separated == b.separated
    assert (a.witness is None) == (b.witness is None)


@settings(max_examples=300, deadline=None)
@given(separation_queries())
def test_agrees_with_active_path_search(query):
    g, x, y, z = query
    assert d_separated(g, x, y, z).separated == path_d_separated(g, x, y, z)


@settings(max_examples=300, deadline=None)
@given(separation_queries())
def test_witness_is_a_valid_avoiding_moral_path(query):
    g, x, y, z = query
    v = d_separated(g, x, y, z)
    again = d_separated(g, x, y, z)
    assert v.witness == again.witness  # deterministic reports
    if v.separated:
        return
    w = v.witness
    assert w[0] in y and w[-1] in x
    assert not set(w) & z
    moral = _moral_adjacency(g, x | y | z)
    for a, b in zip(w, w[1:]):
        assert b in moral[a]
    assert len(set(w)) == len(w)  # simple path


@settings(max_examples=300, deadline=None)
@given(separation_queries())
def test_witness_is_shortest(query):
    # plain BFS over the moral graph with z removed gives the reference
    # shortest-path length
    g, x, y, z = query
    v = d_separated(g, x, y, z)
    if v.separated:
        return
    moral = _moral_adjacency(g, x | y | z)
    from collections import deque

    dist = {n: 0 for n in y}
    queue = deque(y)
    best = None
    while queue:
        node = queue.popleft()
        if node in x:
            best = dist[node] + 1
            break
        for nb in moral[node]:
            if nb not in dist and nb not in z:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    assert best is not None
    assert len(v.witness) == best


@settings(max_examples=100, deadline=None)
@given(dags_st(), st.integers(0, 2**32 - 1))
def test_ancestors_idempotent_random(g, seed):
    rng = np.random.default_rng(seed)
    seed_nodes = [lab for lab in g.labels if rng.random() < 0.4] or [g.labels[0]]
    closure = ancestors(g, seed_nodes)
    assert ancestors(g, closure) == closure


def _random_query(rng, labels):
    n = len(labels)
    while True:
        roles = rng.integers(0, 4, size=n)  # 0 x, 1 y, 2 z, 3 out
        x = [labels[i] for i in range(n) if roles[i] == 0]
        y = [labels[i] for i in range(n) if roles[i] == 1]
        z = [labels[i] for i in range(n) if roles[i] == 2]
        if x and y:
            return x, y, z


def test_separation_sound_for_random_parameterizations():
    # separated pairs must be conditionally independent in every
    # parameterisation of the graph
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(220):
        g = random_dag(rng)
        x, y, z = _random_query(rng, g.labels)
        states, cpts = random_dag_parameterization(rng, g)
        verdict = d_separated(g, x, y, z)
        if verdict.separated:
            jt = dag_joint(g, states, cpts)
            assert ci_holds(jt, x, y, z, tol=1e-9), (g.edge_labels(), x, y, z)
            checked += 1
    assert checked >= 40  # plenty of separated queries must actually occur


def test_connection_shows_up_numerically():
    # a failed separation should be felt by generic interior
    # parameterisations; allow a few redraws to dodge measure-zero flukes
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(40):
        g = random_dag(rng)
        x, y, z = _random_query(rng, g.labels)
        if d_separated(g, x, y, z).separated:
            continue
        found += 1
        dependent = False
        for _ in range(5):
            states, cpts = random_dag_parameterization(rng, g)
            jt = dag_joint(g, states, cpts)
            if not ci_holds(jt, x, y, z, tol=1e-6):
                dependent = True
                break
        assert dependent, (g.edge_labels(), x, y, z)
    assert found >= 10


def _forward_edges(rng, n: int, p_edge: float):
    """Edges of a random DAG whose topological order is a random permutation
    of the node ids, so index order and edge direction disagree."""
    rank = [int(v) for v in rng.permutation(n)]
    edges = {(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p_edge}
    return edges, rank


def _dag_from_ids(rng, n: int, edges):
    labels = [f"v{i}" for i in range(n)]
    listed = sorted(edges)
    listed = [listed[k] for k in rng.permutation(len(listed))]
    return build_dag(labels, [(labels[a], labels[b]) for a, b in listed])


def test_masks_derive_parents_children_and_edges_on_random_dags():
    # every derived view checked against the edge list alone, up to the 25
    # nodes of a diagram at the node cap with its regime node
    rng = np.random.default_rng(19)
    sizes = Counter()
    for k in range(300):
        n = MAX_NODES + 1 if k % 4 == 0 else int(rng.integers(1, MAX_NODES + 1))
        edges, _ = _forward_edges(rng, n, rng.uniform(0.05, 0.5))
        labels = tuple(f"v{i}" for i in range(n))
        g = Dag(labels, tuple(sum(1 << a for a, b in edges if b == v) for v in range(n)))
        if n <= MAX_NODES:
            assert _dag_from_ids(rng, n, edges) == g
        assert list(g.edge_labels()) == sorted((labels[a], labels[b]) for a, b in edges)
        for v in range(n):
            assert g.parents[v] == tuple(sorted(a for a, b in edges if b == v))
            assert g.children[v] == tuple(c for c in range(n) if v in g.parents[c])
            assert g.child_masks[v] == sum(1 << c for c in g.children[v])
        sizes[n] += 1
    assert sizes[MAX_NODES + 1] == 75 and len(sizes) >= 15


def _matches_references(g, x, y, z):
    v = d_separated(g, x, y, z)
    seed = set(x) | set(y) | set(z)
    assert v.witness == separation_witness_reference(g, set(x), set(y), set(z))
    labels, _ = moral_graph_reference(g, seed)
    assert ancestors(g, seed) == frozenset(labels)
    return v


def test_separation_matches_label_reference_on_random_dags():
    rng = np.random.default_rng(6)
    seen = Counter()
    for _ in range(400):
        n = int(rng.integers(2, 11))
        g = _dag_from_ids(rng, n, _forward_edges(rng, n, rng.uniform(0.15, 0.7))[0])
        seen[_matches_references(g, *_random_query(rng, g.labels)).separated] += 1
    assert min(seen.values()) >= 50


def test_separation_matches_label_reference_on_check_graphs(monkeypatch):
    # every query the stability, general and Pearl-Robins checks pose, on
    # the graphs they build
    seen = Counter()

    def checked(g, x, y, z=()):
        v = _matches_references(g, x, y, z)
        seen[v.separated] += 1
        return v

    monkeypatch.setattr(stability, "d_separated", checked)
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = random_staged_diagram(rng, max_stages=4, max_extra=6)
        for spec in (full_history_spec(d), random_parent_spec(rng, d)):
            stability.check_simple_stability(d)
            stability.check_extended_stability(d)
            stability.check_general(d, spec)
            stability.check_pearl_robins(d, spec)
    assert min(seen.values()) >= 50


def test_cycles_and_orders_match_kahn_reference():
    rng = np.random.default_rng(13)
    seen = Counter()
    for _ in range(400):
        n = int(rng.integers(2, 11))
        edges, rank = _forward_edges(rng, n, rng.uniform(0.1, 0.5))
        for _ in range(int(rng.integers(0, 3))):
            # a forward chain closed by one back edge
            k = int(rng.integers(2, n + 1))
            chain = [rank[p] for p in sorted(rng.choice(n, size=k, replace=False))]
            edges |= set(zip(chain, chain[1:])) | {(chain[-1], chain[0])}
        order = kahn_order(n, edges)
        try:
            g = _dag_from_ids(rng, n, edges)
        except CycleDetected as exc:
            assert len(order) < n
            assert exc.cycle == first_cycle([f"v{i}" for i in range(n)], edges)
            seen["cyclic"] += 1
        else:
            assert len(order) == n
            assert sorted(g.topological_order) == list(range(n))
            pos = {node: k for k, node in enumerate(g.topological_order)}
            assert all(pos[a] < pos[b] for a, b in g.edges)
            seen["acyclic"] += 1
    assert min(seen.values()) >= 100
