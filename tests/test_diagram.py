from __future__ import annotations

import numpy as np
import pytest

from seqident import (
    augment_with_regime,
    build_check_graph,
    build_pearl_robins_graph,
    enumerate_deterministic,
    full_history_spec,
    is_full_history,
    make_deterministic,
    make_stochastic,
    normalize_parents,
    observational_conditionals,
    optimize_bruteforce,
    parent_spec,
    parse_model_file,
    staged_diagram,
    unconditional_spec,
    validate_diagram,
)
from seqident.errors import (
    CycleDetected,
    DuplicateEdge,
    InvalidParentSpec,
    StageOutOfRange,
    TooManyNodes,
    UnknownLabel,
)
from seqident.fuzz import random_parent_spec, random_staged_diagram, random_strategy
from seqident.diagram import StrategyParentSpec, VarKind, kernel_parent_order
from seqident.graph import build_dag, d_separated

from .oracles import (
    STAGE_SCANS,
    NoRegimeNode,
    actions_before_scan,
    check_graph_reference,
    covariate_labels_scan,
    covariates_before_scan,
    hidden_labels_scan,
    hidden_past_scan,
    normalize_parents_reference,
    pearl_robins_graph_reference,
    regime_dag_reference,
    separation_witness_reference,
    stage_action_count_scan,
    strip_regime,
)


class TestConstruction:
    def test_canonical_order(self, fig2a):
        assert fig2a.labels == ("U1", "A1", "L2", "A2", "Y")

    def test_duplicate_label_rejected(self):
        with pytest.raises(UnknownLabel):
            staged_diagram(1, [("A1", "action", 1), ("A1", "hidden", 1), ("Y", "outcome", 2)], [])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownLabel, match="^edge endpoint 'B' is not a declared variable$"):
            staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y"), ("B", "Y")])

    def test_reserved_regime_label(self):
        with pytest.raises(UnknownLabel):
            staged_diagram(1, [("sigma", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)], [])

    def test_regime_graphs_have_room_for_the_regime_node(self):
        from seqident.graph import MAX_NODES

        def wide(n):
            hidden = [(f"U{j}", "hidden", 1) for j in range(1, n - 1)]
            return staged_diagram(1, hidden + [("A1", "action", 1), ("Y", "outcome", 2)], [])

        d = wide(MAX_NODES)
        assert len(d.dag.labels) == MAX_NODES
        assert len(d.regime_dag.labels) == MAX_NODES + 1
        assert len(build_check_graph(d, full_history_spec(d), 1).labels) == MAX_NODES + 1
        d = wide(MAX_NODES + 1)
        for graph in (lambda: d.dag, lambda: d.regime_dag):
            with pytest.raises(TooManyNodes):
                graph()

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            staged_diagram(
                1,
                [("A1", "action", 1), ("Y", "outcome", 2)],
                [("A1", "Y"), ("A1", "Y")],
            )


class TestValidate:
    def test_fixture_is_valid(self, fig2a, fig2b):
        assert validate_diagram(fig2a) == ()
        assert validate_diagram(fig2b) == ()

    def test_backward_edge(self, fig2a):
        d = staged_diagram(
            2,
            [(v.label, v.kind, v.stage) for v in fig2a.vars],
            list(fig2a.edges) + [("Y", "A1")],
        )
        codes = {v.code for v in validate_diagram(d)}
        assert "EdgeAgainstOrder" in codes

    def test_two_outcomes(self):
        d = staged_diagram(
            1,
            [("A1", "action", 1), ("Y", "outcome", 2), ("Z", "outcome", 2)],
            [],
        )
        codes = {v.code for v in validate_diagram(d)}
        assert "MultipleOutcomes" in codes

    def test_hidden_after_outcome(self):
        d = staged_diagram(
            1,
            [("A1", "action", 1), ("U9", "hidden", 2), ("Y", "outcome", 2)],
            [],
        )
        codes = {v.code for v in validate_diagram(d)}
        assert "HiddenAfterOutcome" in codes

    def test_missing_action(self):
        d = staged_diagram(2, [("A1", "action", 1), ("Y", "outcome", 3)], [])
        codes = {v.code for v in validate_diagram(d)}
        assert "BadStageOrder" in codes

    def test_outcome_at_wrong_stage(self):
        d = staged_diagram(2, [("A1", "action", 1), ("A2", "action", 2), ("Y", "outcome", 2)], [])
        codes = {v.code for v in validate_diagram(d)}
        assert "BadStageOrder" in codes


def _outcome(call):
    """A call's value, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


# diagrams that fail validation in the stage layout
_INVALID_LAYOUTS = [
    (2, [("A1", "action", 1), ("B1", "action", 1), ("A2", "action", 2), ("Y", "outcome", 3)]),
    (2, [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 3)]),
    (2, [("A0", "action", 0), ("A1", "action", 1), ("A3", "action", 3), ("Y", "outcome", 3)]),
    (1, [("U0", "hidden", 0), ("L0", "covariate", 0), ("A1", "action", 1),
         ("U2", "hidden", 2), ("L2", "covariate", 2), ("Y", "outcome", 2)]),
    (2, [("U", "hidden", -1), ("A", "action", -2), ("L", "covariate", 5),
         ("A2", "action", 2), ("Y", "outcome", 1), ("Z", "outcome", 4)]),
    (0, [("L1", "covariate", 1), ("A1", "action", 1)]),
]


class TestStageIndex:
    """Each per-stage accessor equals a scan over every variable, on valid
    diagrams and on layouts that fail validation, errors included."""

    def _diagrams(self):
        rng = np.random.default_rng(31)
        out = [random_staged_diagram(rng, max_stages=4, max_extra=6) for _ in range(60)]
        out += [staged_diagram(n, decls, []) for n, decls in _INVALID_LAYOUTS]
        return out

    def test_accessors_match_scans(self):
        for d in self._diagrams():
            assert d.actions == tuple(v.label for v in d.vars if v.kind is VarKind.ACTION)
            assert d.hiddens == tuple(v.label for v in d.vars if v.kind is VarKind.HIDDEN)
            for i in range(-1, d.n_stages + 3):
                for name, scan in STAGE_SCANS.items():
                    got = _outcome(lambda: getattr(d, name)(i))
                    assert got == _outcome(lambda: scan(d, i)), (name, i, d.vars)
                assert d.stage_span(VarKind.HIDDEN, 1, i) == hidden_past_scan(d, i)
                count = len(d.stage_span(VarKind.ACTION, i, i + 1))
                assert count == stage_action_count_scan(d, i)

    def test_stability_queries_match_scans(self, monkeypatch):
        # the blocks and pasts the two stability checks pose, from the scans
        from seqident import stability

        posed = []

        def record(g, x, y, z=()):
            posed.append((tuple(x), tuple(y), tuple(z)))
            return stability.SeparationVerdict(True)

        monkeypatch.setattr(stability, "d_separated", record)
        for d in self._diagrams()[:-1]:  # the last layout has no outcome
            y = next(v.label for v in d.vars if v.kind is VarKind.OUTCOME)
            want = []
            for with_hidden in (False, True):
                n = d.n_stages
                for i in range(1, n + 2):
                    block = (y,) if i == n + 1 else covariate_labels_scan(d, i)
                    past = actions_before_scan(d, i) + covariates_before_scan(d, i)
                    if with_hidden:
                        block = (hidden_labels_scan(d, i) if i <= n else ()) + block
                        past += hidden_past_scan(d, i)
                    if block:
                        want.append((block, ("sigma",), past))
            posed.clear()
            stability.check_simple_stability(d)
            stability.check_extended_stability(d)
            assert posed == want

    def test_invalid_layouts_keep_their_violations(self):
        found = [
            [v.message for v in validate_diagram(staged_diagram(n, decls, []))]
            for n, decls in _INVALID_LAYOUTS
        ]
        assert "stage 1 must hold exactly one action, found 2" in found[0]
        assert "stage 2 must hold exactly one action, found 0" in found[1]
        assert "stage 2 must hold exactly one action, found 0" in found[2]
        assert "need at least one stage, got 0" in found[5]

    def test_outcome_label(self):
        for d in self._diagrams():
            want = next((v.label for v in d.vars if v.kind is VarKind.OUTCOME), None)
            got = _outcome(lambda: d.outcome_label)
            assert got == (want if want is not None else (UnknownLabel, "no outcome variable"))


class TestParentIds:
    """A diagram's graph and its normalisation, built from parent masks, equal
    the graph build_dag makes from its edge list and the rebuild through
    staged_diagram."""

    def test_dag_matches_build_dag(self):
        rng = np.random.default_rng(37)
        for k in range(200):
            d = random_staged_diagram(rng, max_stages=4, max_extra=6)
            if k % 2:
                d = _with_reversed_edges(rng, d)
            assert _built(lambda: d.dag) == _built(lambda: build_dag(d.labels, d.edges))
            if validate_diagram(d) == ():
                assert d.dag == build_dag(d.labels, d.edges)

    def test_normalize_matches_rebuild(self):
        rng = np.random.default_rng(41)
        changed = 0
        for _ in range(150):
            d = random_staged_diagram(rng, max_stages=4, max_extra=6)
            for spec in (full_history_spec(d), unconditional_spec(d), random_parent_spec(rng, d)):
                dn, want = normalize_parents(d, spec), normalize_parents_reference(d, spec)
                assert (dn is d) == (want is d)
                changed += dn is not d
                assert (dn.n_stages, dn.vars, dn.edges, dn.inert) == (
                    want.n_stages, want.vars, want.edges, want.inert
                )
                assert dn.parents == want.parents and dn.dag == want.dag
        assert changed >= 100


class TestRegime:
    def test_augment_adds_one_edge_per_action(self, fig2a):
        g = augment_with_regime(fig2a)
        sigma_edges = [e for e in g.edge_labels() if "sigma" in e]
        assert sorted(sigma_edges) == [("sigma", "A1"), ("sigma", "A2")]
        assert g.parent_labels("sigma") == ()

    def test_single_action_single_edge(self):
        d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y")])
        g = augment_with_regime(d)
        assert [e for e in g.edge_labels() if "sigma" in e] == [("sigma", "A1")]

    def test_augment_built_once_per_diagram(self, fig2a):
        rng = np.random.default_rng(4)
        for d in [fig2a] + [random_staged_diagram(rng, max_stages=4, max_extra=6) for _ in range(30)]:
            g = augment_with_regime(d)
            assert augment_with_regime(d) is g
            want = build_dag(
                d.labels + ("sigma",), list(d.edges) + [("sigma", a) for a in d.actions]
            )
            assert g.labels == want.labels and g.edges == want.edges
            twin = staged_diagram(
                d.n_stages, [(v.label, v.kind, v.stage) for v in d.vars], d.edges
            )
            assert augment_with_regime(twin) is not g and augment_with_regime(twin) == g

    def test_strip_round_trip(self, fig2a):
        assert strip_regime(augment_with_regime(fig2a)) == fig2a.dag

    def test_strip_without_regime(self, fig2a):
        with pytest.raises(NoRegimeNode):
            strip_regime(fig2a.dag)


class TestParentSpec:
    def test_hidden_parent_rejected(self, fig2a):
        with pytest.raises(InvalidParentSpec):
            parent_spec(fig2a, {"A1": ["U1"]})

    def test_future_parent_rejected(self, fig2a):
        with pytest.raises(InvalidParentSpec):
            parent_spec(fig2a, {"A1": ["L2"]})

    def test_outcome_parent_rejected(self, fig2a):
        with pytest.raises(InvalidParentSpec):
            parent_spec(fig2a, {"A2": ["Y"]})

    def test_pa_o_of_a_non_action(self, fig2a):
        with pytest.raises(UnknownLabel, match="^'L2' is not an action variable$"):
            fig2a.pa_o("L2")

    def test_full_history(self, fig2a, fig2b):
        full = full_history_spec(fig2a)
        assert full.of("A1") == frozenset()
        assert full.of("A2") == {"A1", "L2"}
        full_b = full_history_spec(fig2b)
        assert full_b.of("A1") == {"L1"}
        assert full_b.of("A2") == {"L1", "A1", "L2"}
        assert is_full_history(fig2b, full_b)
        assert not is_full_history(fig2b, unconditional_spec(fig2b))


# every function that reads a spec's parents, called on fig2a_bite with the
# spec of fig2b, whose L1 fig2a_bite lacks
_FOREIGN_SPEC_CALLS = {
    "make_deterministic": lambda pf, spec: make_deterministic(pf.diagram, pf.model.states, spec, {}),
    "make_stochastic": lambda pf, spec: make_stochastic(
        pf.diagram, pf.model.states, spec, {"A1": np.full(2, 0.5), "A2": np.full(2, 0.5)}
    ),
    "enumerate_deterministic": lambda pf, spec: enumerate_deterministic(pf.diagram, pf.model.states, spec),
    "optimize_bruteforce": lambda pf, spec: optimize_bruteforce(
        observational_conditionals(pf.model, pf.diagram), pf.diagram, pf.loss, spec
    ),
    "random_strategy": lambda pf, spec: random_strategy(
        np.random.default_rng(0), pf.diagram, spec, pf.model.states
    ),
    "normalize_parents": lambda pf, spec: normalize_parents(pf.diagram, spec),
    "build_check_graph": lambda pf, spec: build_check_graph(pf.diagram, spec, 1),
    "build_pearl_robins_graph": lambda pf, spec: build_pearl_robins_graph(pf.diagram.dag, pf.diagram, spec, 1),
}


@pytest.mark.parametrize("call", sorted(_FOREIGN_SPEC_CALLS))
def test_spec_of_another_diagram_is_refused(models_dir, call):
    # each of these used to end in a bare KeyError, and the Pearl-Robins
    # graph silently dropped the parent
    bite = parse_model_file((models_dir / "fig2a_bite.sid").read_text())
    spec = full_history_spec(parse_model_file((models_dir / "fig2b.sid").read_text()).diagram)
    with pytest.raises(InvalidParentSpec, match="^'L1' is not a variable of the diagram$"):
        _FOREIGN_SPEC_CALLS[call](bite, spec)


@pytest.mark.parametrize(
    "parents, message",
    [
        (["Y", "L2"], "L2 is not realised before A1"),
        (["Y", "L2", "Q", "P"], "'P' is not a variable of the diagram"),
        (["A2", "Y"], "A2 is not realised before A1"),
    ],
)
def test_several_bad_parents_refused_in_a_fixed_order(fig2b, parents, message):
    # labels the diagram lacks first, by name, then the others by position
    with pytest.raises(InvalidParentSpec, match=f"^{message}$"):
        parent_spec(fig2b, {"A1": parents})


def test_several_labels_a_foreign_spec_lacks_are_named_by_the_first(fig2b):
    spec = StrategyParentSpec(parents=(("A1", frozenset({"Q", "P", "L1"})), ("A2", frozenset())))
    with pytest.raises(InvalidParentSpec, match="^'P' is not a variable of the diagram$"):
        kernel_parent_order(fig2b, spec, "A1")


class TestNormalize:
    def test_noop_when_contained(self, fig2b):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        assert normalize_parents(fig2b, spec) is fig2b

    def test_adds_inert_parent(self, fig2a):
        full = full_history_spec(fig2a)
        dn = normalize_parents(fig2a, full)
        assert dn.pa_o("A2") == ("A1", "L2")
        assert dn.inert_parents("A2") == {"A1"}
        assert validate_diagram(dn) == ()


class TestCheckGraph:
    def test_stage_bounds(self, fig2a):
        spec = unconditional_spec(fig2a)
        with pytest.raises(StageOutOfRange):
            build_check_graph(fig2a, spec, 3)
        with pytest.raises(StageOutOfRange):
            build_check_graph(fig2a, spec, -1)
        with pytest.raises(StageOutOfRange):
            build_pearl_robins_graph(fig2a.dag, fig2a, spec, 0)

    def test_pearl_robins_needs_the_diagram_order(self, fig2a):
        # the spec's parents are read as diagram positions, so a graph with
        # the same labels in another order is refused, not misread
        spec = full_history_spec(fig2a)
        assert build_pearl_robins_graph(fig2a.regime_dag, fig2a, spec, 1).labels[-1] == "sigma"
        reordered = build_dag(reversed(fig2a.labels), fig2a.edges)
        with pytest.raises(UnknownLabel, match="not the diagram's variables in order"):
            build_pearl_robins_graph(reordered, fig2a, spec, 1)

    def test_stage_zero_has_no_regime(self, fig2a):
        g = build_check_graph(fig2a, unconditional_spec(fig2a), 0)
        assert "sigma" not in g.labels
        assert g.parent_labels("A1") == () and g.parent_labels("A2") == ()

    def test_parent_regime_law(self):
        # on random diagrams: past actions observational, future strategic,
        # pivot action the union plus the regime node
        rng = np.random.default_rng(5)
        from seqident.fuzz import random_parent_spec

        for _ in range(40):
            d = random_staged_diagram(rng)
            spec = random_parent_spec(rng, d)
            for i in range(1, d.n_stages + 1):
                g = build_check_graph(d, spec, i)
                assert g.parent_labels("sigma") == ()
                sigma_children = [
                    g.labels[b] for a, b in g.edges if g.labels[a] == "sigma"
                ]
                assert sigma_children == [d.action_label(i)]
                for j in range(1, d.n_stages + 1):
                    a = d.action_label(j)
                    got = set(g.parent_labels(a))
                    if j < i:
                        assert got == set(d.pa_o(a))
                    elif j > i:
                        assert got == spec.of(a)
                    else:
                        assert got == set(d.pa_o(a)) | spec.of(a) | {"sigma"}
                for v in d.vars:
                    if v.kind.value != "action":
                        assert set(g.parent_labels(v.label)) == set(d.parents[v.label])

    def test_unconditional_pearl_robins_matches_literal_deletion(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = random_staged_diagram(rng)
            spec = unconditional_spec(d)
            for i in range(1, d.n_stages + 1):
                g = build_pearl_robins_graph(d.dag, d, spec, i)
                a_i = d.action_label(i)
                later = {d.action_label(j) for j in range(i + 1, d.n_stages + 1)}
                want = {
                    e
                    for e in d.dag.edge_labels()
                    if e[0] != a_i and e[1] not in later
                }
                assert set(g.edge_labels()) == want

    def test_last_stage_graph_is_diagram_plus_one_regime_edge_after_normalization(self):
        # once strategy parents are folded into the observational sets, the
        # stage-N check graph is exactly the diagram plus sigma -> A_N
        rng = np.random.default_rng(19)
        from seqident.fuzz import random_parent_spec

        for _ in range(30):
            d = random_staged_diagram(rng)
            spec = random_parent_spec(rng, d)
            dn = normalize_parents(d, spec)
            g = build_check_graph(dn, spec, dn.n_stages)
            want = set(dn.dag.edge_labels()) | {("sigma", dn.action_label(dn.n_stages))}
            assert set(g.edge_labels()) == want

    def test_full_spec_at_last_stage_keeps_observational_shape(self, fig2b):
        # with strategy parents contained in the observational ones, the
        # last-stage check graph is the diagram plus the regime edge
        spec = parent_spec(fig2b, {"A1": ["L1"], "A2": ["L2"]})
        g = build_check_graph(fig2b, spec, 2)
        base = set(fig2b.dag.edge_labels())
        assert set(g.edge_labels()) == base | {("sigma", "A2")}
        assert set(g.parent_labels("A1")) == set(fig2b.pa_o("A1"))


def _built(make):
    """A graph's labels and edges, or the cycle that building it reports."""
    try:
        g = make()
    except CycleDetected as exc:
        return "cycle", exc.cycle
    return g.labels, g.edges


def _with_reversed_edges(rng, d):
    """The diagram with some edges turned against the stage order; such a
    diagram fails validation, and its graphs may be cyclic."""
    edges = [(b, a) if rng.random() < 0.3 else (a, b) for a, b in d.edges]
    return staged_diagram(d.n_stages, [(v.label, v.kind, v.stage) for v in d.vars], edges)


class TestDerivedGraphs:
    """The regime graph and the check graphs, derived from parent ids, equal
    the graphs built from label edge lists through build_dag."""

    def test_cycle_through_a_strategy_parent(self):
        d = staged_diagram(
            1,
            [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)],
            [("A1", "L1"), ("A1", "Y")],
        )
        spec = parent_spec(d, {"A1": ["L1"]})
        assert d.dag.edge_labels() == (("A1", "L1"), ("A1", "Y"))
        with pytest.raises(CycleDetected) as exc:
            build_check_graph(d, spec, 1)
        assert exc.value.cycle == ("L1", "A1")
        assert str(exc.value) == "directed cycle: L1 -> A1 -> L1"

    def test_match_label_references(self):
        rng = np.random.default_rng(23)
        queries = 0
        for k in range(120):
            d = random_staged_diagram(rng, max_stages=4, max_extra=6)
            specs = (full_history_spec(d), unconditional_spec(d), random_parent_spec(rng, d))
            graphs = [(d.regime_dag, regime_dag_reference(d))]
            for spec in specs:
                for i in range(d.n_stages + 1):
                    graphs.append((build_check_graph(d, spec, i), check_graph_reference(d, spec, i)))
                for i in range(1, d.n_stages + 1):
                    graphs.append((
                        build_pearl_robins_graph(d.dag, d, spec, i),
                        pearl_robins_graph_reference(d.dag, d, spec, i),
                    ))
            for g, want in graphs:
                assert (g.labels, g.edges) == (want.labels, want.edges)
                assert g.parents == want.parents
                for _ in range(3):
                    roles = rng.integers(0, 4, size=len(g.labels))  # 0 x, 1 y, 2 z, 3 out
                    x, y, z = ({lab for lab, r in zip(g.labels, roles) if r == j} for j in range(3))
                    if x and y:
                        v = d_separated(g, x, y, z)
                        assert v.witness == separation_witness_reference(g, x, y, z)
                        queries += 1
        assert queries >= 1000

    def test_match_label_references_against_the_stage_order(self):
        # a check graph can be acyclic where the diagram is not, and the
        # other way round
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(200):
            d = _with_reversed_edges(rng, random_staged_diagram(rng, max_stages=3, max_extra=5))
            spec = random_parent_spec(rng, d)
            pairs = [(lambda: d.regime_dag, lambda: regime_dag_reference(d))]
            for i in range(d.n_stages + 1):
                pairs.append((
                    lambda i=i: build_check_graph(d, spec, i),
                    lambda i=i: check_graph_reference(d, spec, i),
                ))
            for i in range(1, d.n_stages + 1):
                pairs.append((
                    lambda i=i: build_pearl_robins_graph(d.dag, d, spec, i),
                    lambda i=i: pearl_robins_graph_reference(d.dag, d, spec, i),
                ))
            outcomes = [_built(make) for make, _ in pairs]
            assert outcomes == [_built(want) for _, want in pairs]
            seen.add(tuple(sorted({got[0] == "cycle" for got in outcomes})))
        assert seen >= {(False,), (True,), (False, True)}
