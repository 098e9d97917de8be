from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import seqident.stability as stability
from seqident import (
    IdentifiabilityVerdict,
    build_check_graph,
    check_assumptions,
    check_extended_stability,
    check_general,
    check_pearl_robins,
    check_simple_stability,
    check_theorem1_numeric,
    decide_identifiability,
    full_history_spec,
    normalize_parents,
    parent_spec,
    staged_diagram,
    unconditional_spec,
)
from seqident.diagram import REGIME
from seqident.errors import CycleDetected, InternalTheorem2Violation, InvalidParentSpec, UnknownLabel
from seqident.fuzz import (
    random_parent_spec,
    random_staged_diagram,
    random_strategy,
)
from seqident.graph import build_dag

from .oracles import (
    action_label_scan,
    actions_before_scan,
    check_graph_reference,
    covariate_labels_scan,
    covariates_before_scan,
    covariates_through_scan,
    hidden_labels_scan,
    hidden_past_scan,
    pearl_robins_graph_reference,
    regime_dag_reference,
    separation_witness_reference,
    splice_parts,
    splice_reference,
)


class TestSimpleStability:
    def test_fails_on_hidden_confounder(self, fig2a):
        r = check_simple_stability(fig2a)
        assert not r.passed
        failed = [e for e in r.entries if not e.passed]
        assert [e.index for e in failed] == [2]
        assert failed[0].verdict.witness == ("sigma", "U1", "L2")
        assert failed[0].query == "L2 _||_ sigma | A1"

    def test_passes_when_confounder_observed(self, fig2b):
        r = check_simple_stability(fig2b)
        assert r.passed
        assert [e.query for e in r.entries] == [
            "L1 _||_ sigma",
            "L2 _||_ sigma | L1, A1",
            "Y _||_ sigma | L1, A1, L2, A2",
        ]

    def test_hidden_free_forward_diagrams_pass(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = random_staged_diagram(rng)
            if d.hiddens:
                continue
            assert check_simple_stability(d).passed


class TestExtendedStability:
    def test_fixtures_pass(self, fig2a, fig2b):
        assert check_extended_stability(fig2a).passed
        assert check_extended_stability(fig2b).passed

    def test_structural_guarantee_fuzz(self):
        # staging alone makes the hidden-augmented blocks regime-invariant
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = random_staged_diagram(rng)
            assert check_extended_stability(d).passed


class TestGeneral:
    def test_unconditional_identified(self, fig2a):
        assert check_general(fig2a, unconditional_spec(fig2a)).passed

    def test_full_history_fails_at_first_stage(self, fig2a):
        r = check_general(fig2a, full_history_spec(fig2a))
        assert not r.passed
        assert [e.passed for e in r.entries] == [False, True]
        assert r.entries[0].query == "Y _||_ sigma | A1"

    def test_full_history_passes_when_observed(self, fig2b):
        assert check_general(fig2b, full_history_spec(fig2b)).passed

    def test_monotone_in_strategy_parents(self):
        # dropping strategy parents only removes edges, so passes are kept
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(200):
            d = random_staged_diagram(rng)
            spec = random_parent_spec(rng, d)
            if not check_general(d, spec).passed:
                continue
            smaller = {
                a: [p for p in spec.of(a) if rng.random() < 0.5] for a in d.actions
            }
            assert check_general(d, parent_spec(d, smaller)).passed
            checked += 1
        assert checked >= 50


class TestPearlRobins:
    def test_unconditional_agrees_with_general_on_fixture(self, fig2a):
        spec = unconditional_spec(fig2a)
        assert check_pearl_robins(fig2a, spec).passed
        assert check_general(fig2a, spec).passed

    def test_conditional_fail_then_pass(self, fig2a):
        r = check_pearl_robins(fig2a, full_history_spec(fig2a))
        assert [e.passed for e in r.entries] == [False, True]
        assert r.entries[0].verdict.witness == ("A1", "U1", "L2", "A2", "Y")
        assert r.entries[1].query == "Y _||_ A2 | A1, L2"

    def test_single_stage_no_hidden(self):
        from seqident import staged_diagram

        d = staged_diagram(
            1,
            [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)],
            [("L1", "A1"), ("L1", "Y"), ("A1", "Y")],
        )
        assert check_pearl_robins(d, unconditional_spec(d)).passed


class TestAssumptions:
    def test_normalized_full_history_passes(self, fig2a):
        full = full_history_spec(fig2a)
        dn = normalize_parents(fig2a, full)
        assert check_assumptions(dn, full).passed

    def test_unconditional_spec_orphans_covariate(self, fig2a):
        r = check_assumptions(fig2a, unconditional_spec(fig2a))
        assert not r.passed
        failed = [e for e in r.entries if not e.passed]
        assert any("L2" in e.query for e in failed)

    def test_childless_covariate_fails(self):
        from seqident import staged_diagram

        d = staged_diagram(
            1,
            [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)],
            [("A1", "Y")],
        )
        r = check_assumptions(d, unconditional_spec(d))
        assert not r.passed


class TestTheorem1Numeric:
    def test_identified_model_passes(self, fig2b, fig2b_model):
        rng = np.random.default_rng(4)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
        assert check_theorem1_numeric(fig2b_model, fig2b, s, tol=1e-9).passed

    def test_confounded_model_fails_at_first_stage(self, fig2a, bite_model):
        full = full_history_spec(fig2a)
        rng = np.random.default_rng(4)
        s = random_strategy(rng, fig2a, full, bite_model.states)
        r = check_theorem1_numeric(bite_model, fig2a, s, tol=1e-6)
        assert not r.entries[0].passed

    def test_observational_strategy_trivially_passes(self, fig2b, fig2b_model):
        from .oracles import from_observational

        s = from_observational(fig2b_model, fig2b)
        assert check_theorem1_numeric(fig2b_model, fig2b, s, tol=1e-12).passed

    def test_zero_probability_histories_skipped(self, fig2b, fig2b_model):
        from seqident import DiscreteModel

        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["L1"] = np.array([1.0, 0.0])
        rng = np.random.default_rng(4)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), m.states)
        r = check_theorem1_numeric(m, fig2b, s)
        assert r.passed
        assert any("skipped" in e.note for e in r.entries)

    def test_each_split_built_once(self, monkeypatch, fig2a, bite_model, fig2b, fig2b_model):
        # each split's factors are built once and contracted for the stages it
        # serves; no dense joint is built (a dense joint is a _contract call
        # that keeps every label, and without hidden variables only the last
        # stage's law spans every label).  The contraction sums in another
        # order than the dense reference, so the printed deviations may differ
        # at rounding level and are compared within 1e-14; everything else is
        # exact.
        from seqident import DiscreteModel
        from seqident import prob
        from seqident.fuzz import random_model

        zeroed = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        zeroed.cpts["L1"] = np.array([1.0, 0.0])
        rng = np.random.default_rng(9)
        cases = [(bite_model, fig2a), (fig2b_model, fig2b), (zeroed, fig2b)]
        while len(cases) < 9:
            d = random_staged_diagram(rng, max_stages=3)
            cases.append((random_model(rng, d, state_choices=(2,)), d))
        splits = []
        orig = stability._spliced_factors

        def counted(m, d, s, i):
            splits.append(i)
            return orig(m, d, s, i)

        contract = prob._contract
        hidden = False

        def no_dense(labels, states, factors, keep):
            if hidden and len(keep) == len(labels):
                raise AssertionError("dense joint built")
            return contract(labels, states, factors, keep)

        skipped = 0
        for m, d in cases:
            s = random_strategy(rng, d, random_parent_spec(rng, d), m.states)
            want = splice_reference(m, d, s, 1e-6)
            splits.clear()
            hidden = len(d.observed_labels) < len(d.labels)
            with monkeypatch.context() as patch:
                patch.setattr(stability, "_spliced_factors", counted)
                patch.setattr(stability, "_contract", no_dense)
                patch.setattr(prob, "_contract", no_dense)
                got = check_theorem1_numeric(m, d, s, tol=1e-6)
            assert splits == list(range(d.n_stages + 1))
            got_exact, got_dev = splice_parts(got)
            want_exact, want_dev = splice_parts(want)
            assert got_exact == want_exact
            assert got_dev == pytest.approx(want_dev, rel=0.0, abs=1e-14)
            skipped += any("skipped" in e.note for e in got.entries)
        assert skipped


class TestDecide:
    def test_three_verdicts(self, fig2a, fig2b):
        assert (
            decide_identifiability(fig2b, full_history_spec(fig2b)).verdict
            is IdentifiabilityVerdict.IDENTIFIED_SIMPLE
        )
        assert (
            decide_identifiability(fig2a, unconditional_spec(fig2a)).verdict
            is IdentifiabilityVerdict.IDENTIFIED_GENERAL
        )
        assert (
            decide_identifiability(fig2a, full_history_spec(fig2a)).verdict
            is IdentifiabilityVerdict.NOT_GUARANTEED
        )

    def test_reports_attached(self, fig2a):
        decision = decide_identifiability(fig2a, full_history_spec(fig2a))
        names = [r.check for r in decision.reports]
        assert names == ["simple-stability", "general-criterion", "assumptions"]

    def test_guard_raises_on_inconsistent_checks(self, fig2b, monkeypatch):
        # force the impossible combination to prove the guard is wired up
        from seqident.stability import IdentificationReport

        def fake_simple(d):
            return IdentificationReport(check="simple-stability", entries=(
                stability.CheckEntry(1, "forced failure", False,
                                     stability.SeparationVerdict(False, ("sigma", "Y"))),
            ))

        monkeypatch.setattr(stability, "check_simple_stability", fake_simple)
        full = full_history_spec(fig2b)
        dn = normalize_parents(fig2b, full)
        with pytest.raises(InternalTheorem2Violation):
            stability.decide_identifiability(dn, full)


def _rebuilt(d):
    """An equal diagram built separately from the same declarations."""
    return staged_diagram(
        d.n_stages, [(v.label, v.kind, v.stage) for v in d.vars], d.edges, d.inert
    )


def _standalone(d, spec):
    return (
        check_simple_stability(d),
        check_extended_stability(d),
        check_general(d, spec),
        check_pearl_robins(d, spec),
        check_assumptions(d, spec),
    )


def _problems(seed: int, count: int):
    """(diagram, spec) pairs as the identify workload poses them, each
    diagram normalised for the full-history spec and for a random one; every
    pair has a diagram object of its own."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = random_staged_diagram(rng, max_stages=4, max_extra=6)
        for spec in (full_history_spec(d), random_parent_spec(rng, d)):
            out.append((_rebuilt(normalize_parents(d, spec)), spec))
    return out


class TestOncePerDiagram:
    """Each graphical check runs once per diagram object and spec."""

    @pytest.fixture
    def queries(self, monkeypatch):
        calls = []
        inner = stability.d_separated

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(stability, "d_separated", counted)
        return calls

    @staticmethod
    def _decided(fig2a, fig2b, queries):
        """(diagram, spec, standalone reports, decision, queries the decision
        posed), each decision made right after the standalone checks, over
        all three verdicts."""
        problems = [
            (fig2a, full_history_spec(fig2a)),  # NotGuaranteed: general runs
            (fig2a, unconditional_spec(fig2a)),  # IdentifiedGeneral
            (fig2b, full_history_spec(fig2b)),  # IdentifiedSimple
        ] + _problems(5, 30)
        out = []
        for d, spec in problems:
            reports = _standalone(d, spec)
            before = len(queries)
            decision = decide_identifiability(d, spec)
            out.append((d, spec, reports, decision, len(queries) - before))
        assert {row[3].verdict for row in out} == set(IdentifiabilityVerdict)
        return out

    def test_decision_runs_no_query_after_the_checks(self, fig2a, fig2b, queries):
        posed = [row[4] for row in self._decided(fig2a, fig2b, queries)]
        assert posed == [0] * len(posed)
        assert queries  # the standalone checks went through the counter

    def test_decision_holds_the_standalone_reports(self, fig2a, fig2b, queries):
        for d, spec, reports, decision, _ in self._decided(fig2a, fig2b, queries):
            simple, _, general, _, assumptions = reports
            assert decision.simple is simple and decision.assumptions is assumptions
            assert decision.general is None or decision.general is general
            assert all(a is b for a, b in zip(_standalone(d, spec), reports))

    def test_equal_diagram_runs_its_own_queries(self, queries):
        for d, spec in _problems(7, 20):
            del queries[:]
            first = decide_identifiability(d, spec)
            ran = len(queries)
            assert ran > 0
            twin = _rebuilt(d)
            assert twin == d and twin is not d
            again = decide_identifiability(twin, spec)
            assert len(queries) == 2 * ran
            assert again == first and again.simple is not first.simple

    def test_store_dies_with_the_diagram(self):
        d = random_staged_diagram(np.random.default_rng(3), max_stages=3)
        ref = weakref.ref(d)
        _standalone(d, full_history_spec(d))
        decide_identifiability(d, full_history_spec(d))
        del d
        gc.collect()
        assert ref() is None

    def test_second_spec_on_same_object(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = random_staged_diagram(rng, max_stages=4, max_extra=6)
            specs = (full_history_spec(d), unconditional_spec(d), random_parent_spec(rng, d))
            for spec in specs:
                _standalone(d, spec)
            for spec in specs:
                fresh = _rebuilt(d)
                for check in (check_general, check_pearl_robins, check_assumptions):
                    assert check(d, spec) == check(fresh, spec)

    def test_a_check_that_raises_raises_again(self, fig2a):
        other = staged_diagram(1, [("B1", "action", 1), ("Y", "outcome", 2)], [("B1", "Y")])
        foreign = unconditional_spec(other)
        for check in (check_general, check_pearl_robins, check_assumptions):
            for _ in range(2):
                with pytest.raises(UnknownLabel):
                    check(fig2a, foreign)
        for _ in range(2):
            with pytest.raises(UnknownLabel):
                decide_identifiability(fig2a, foreign)
        spec = unconditional_spec(fig2a)
        assert check_general(fig2a, spec) == check_general(_rebuilt(fig2a), spec)


    def test_a_spec_from_another_diagram_is_rejected(self, fig2a, fig2b):
        # fig2b's full-history spec lets A1 consult L1, which fig2a lacks
        foreign = full_history_spec(fig2b)
        for check in (check_general, check_pearl_robins, check_assumptions, decide_identifiability):
            with pytest.raises(InvalidParentSpec, match="'L1' is not a variable"):
                check(fig2a, foreign)
        extra = stability.StrategyParentSpec(
            full_history_spec(fig2a).parents + (("B1", frozenset()),)
        )
        with pytest.raises(InvalidParentSpec, match="actions the diagram lacks"):
            check_general(fig2a, extra)


def test_fuzz_general_pass_implies_simple_pass():
    # smaller in-suite version of the acceptance fuzz
    from seqident.fuzz import theorem2_fuzz

    result = theorem2_fuzz(seed=99, iters=200)
    assert result.ok
    assert result.general_passes == 0
    assert result.simple_passes + result.not_guaranteed == 200


def _entry_reference(d, check, i, g, x, y, z):
    """The entry a check stores for one stage, from label-based graphs and the
    breadth-first witness search; x and z are rendered in diagram order."""
    if not x:
        lacks = {"simple-stability": "covariates", "extended-stability": "covariates or hidden variables"}
        return (i, f"stage {i} has no {lacks[check]}", True, None, "vacuous")
    ordered = lambda labels: ", ".join(v.label for v in d.vars if v.label in labels)
    query = f"{ordered(x)} _||_ {y}" + (f" | {ordered(z)}" if z else "")
    witness = separation_witness_reference(g, set(x), {y}, set(z))
    return (i, query, witness is None, witness, "")


def _reports_reference(d, spec):
    """Each check's entries rebuilt from the per-stage scans and the label-based
    reference graphs, by check name."""
    n = d.n_stages
    y = next(v.label for v in d.vars if v.kind.value == "outcome")
    regime = regime_dag_reference(d)
    base = build_dag(d.labels, list(d.edges))
    simple, extended, general, pearl_robins = [], [], [], []
    for i in range(1, n + 2):
        block = covariate_labels_scan(d, i) if i <= n else (y,)
        past = actions_before_scan(d, i) + covariates_before_scan(d, i)
        simple.append(_entry_reference(d, "simple-stability", i, regime, block, REGIME, past))
        hidden = hidden_labels_scan(d, i) if i <= n else ()
        extended.append(_entry_reference(
            d, "extended-stability", i, regime, hidden + block, REGIME, past + hidden_past_scan(d, i)
        ))
    for i in range(1, n + 1):
        history = covariates_through_scan(d, i)
        general.append(_entry_reference(
            d, "general-criterion", i, check_graph_reference(d, spec, i), (y,), REGIME,
            actions_before_scan(d, i + 1) + history,
        ))
        pearl_robins.append(_entry_reference(
            d, "pearl-robins", i, pearl_robins_graph_reference(base, d, spec, i), (y,),
            action_label_scan(d, i), actions_before_scan(d, i) + history,
        ))
    return {
        "simple-stability": simple,
        "extended-stability": extended,
        "general-criterion": general,
        "pearl-robins": pearl_robins,
    }


def test_every_entry_matches_the_label_reference():
    # which sets each check poses per stage, its entry text and its witness,
    # for full-history, unconditional and random specs
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(120):
        d = random_staged_diagram(rng, max_stages=4, max_extra=6)
        for spec in (full_history_spec(d), unconditional_spec(d), random_parent_spec(rng, d)):
            want = _reports_reference(d, spec)
            reports = (
                check_simple_stability(d),
                check_extended_stability(d),
                check_general(d, spec),
                check_pearl_robins(d, spec),
            )
            for r in reports:
                got = [
                    (e.index, e.query, e.passed, e.verdict and e.verdict.witness, e.note)
                    for e in r.entries
                ]
                assert got == want[r.check], r.check
                seen.update((r.check, e.passed, e.note) for e in r.entries)
    # every check both passed and failed somewhere, and both stability checks
    # met a stage with nothing to test
    for check in ("simple-stability", "general-criterion", "pearl-robins"):
        assert {(check, True, ""), (check, False, "")} <= seen
    assert {("simple-stability", True, "vacuous"), ("extended-stability", True, "vacuous")} <= seen


def test_a_stage_graph_that_raises_stops_the_check_at_that_stage(monkeypatch):
    # the stage graphs are built in stage order, each after the earlier
    # stages are asked, and a check that raises stores no report
    calls = []
    inner = stability.d_separated
    monkeypatch.setattr(stability, "d_separated", lambda *a: calls.append(a) or inner(*a))
    rng = np.random.default_rng(37)
    stages = set()
    for _ in range(300):
        d = random_staged_diagram(rng, max_stages=4, max_extra=6)
        edges = [(b, a) if rng.random() < 0.3 else (a, b) for a, b in d.edges]
        d = staged_diagram(d.n_stages, [(v.label, v.kind, v.stage) for v in d.vars], edges)
        spec = random_parent_spec(rng, d)
        for k in range(1, d.n_stages + 1):
            try:
                build_check_graph(d, spec, k)
            except CycleDetected as exc:
                cycle = exc.cycle
                break
        else:
            continue
        calls.clear()
        with pytest.raises(CycleDetected) as exc:
            check_general(d, spec)
        assert exc.value.cycle == cycle
        assert len(calls) == k - 1
        assert d.__dict__.get("_check_reports", {}) == {}
        stages.add(k)
    assert {1, 2} <= stages
