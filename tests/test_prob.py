from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from seqident import (
    DiscreteModel,
    JointTable,
    VarKind,
    check_positivity,
    ci_deviation,
    expectation,
    full_history_spec,
    joint,
    loss_function,
    make_deterministic,
    marginal,
    parent_spec,
    staged_diagram,
    validate_model,
)
from seqident import prob, stability
from seqident.cli import _dsep_gap
from seqident.diagram import REGIME
from seqident.errors import OverlappingSets, StateSpaceTooLarge, UnknownNode
from seqident.evaluate import evaluate_decomposition, evaluate_oracle
from seqident.graph import MAX_NODES
from seqident.modelfile import ParsedModelFile
from seqident.stability import check_theorem1_numeric
from seqident.fuzz import (
    random_loss,
    random_model,
    random_parent_spec,
    random_staged_diagram,
    random_strategy,
)

from .oracles import (
    ZeroProbabilityEvidence,
    brute_conditional,
    brute_expectation,
    brute_joint,
    ci_deviation_reference,
    ci_holds,
    condition,
    dag_factors,
    decomposition_reference,
    from_observational,
    positivity_issues_reference,
    product_joint_reference,
    random_dag,
    random_dag_parameterization,
    regime_mixture_joint,
    splice_parts,
    splice_reference,
)


class TestValidateModel:
    def test_fixture_ok(self, fig2b, fig2b_model):
        assert validate_model(fig2b_model, fig2b) == ()

    def test_row_not_normalized(self, fig2b, fig2b_model):
        fig2b_model.cpts["L1"] = np.array([0.4, 0.5])
        issues = validate_model(fig2b_model, fig2b)
        assert any(i.code == "RowNotNormalized" and i.var == "L1" for i in issues)
        assert any("0.9" in i.message for i in issues)

    def test_overflowing_row_sum(self, fig2b, fig2b_model):
        # the sum overflows to inf, which used to raise numpy's overflow warning
        fig2b_model.cpts["L1"] = np.array([1e308, 1e308])
        issues = validate_model(fig2b_model, fig2b)
        assert [(i.code, i.var, i.message) for i in issues] == [
            ("RowNotNormalized", "L1", "row () sums to inf")
        ]

    @pytest.mark.parametrize("row", [[-0.5, 1.5], [np.nan, 0.6]])
    def test_bad_probability(self, fig2b, fig2b_model, row):
        fig2b_model.cpts["L1"] = np.array(row)
        issues = validate_model(fig2b_model, fig2b)
        assert [(i.code, i.var) for i in issues] == [("BadProbability", "L1")]
        assert "(0,)" in issues[0].message

    @pytest.mark.parametrize("n", [0, None])
    def test_bad_state_count(self, fig2b, fig2b_model, n):
        fig2b_model.states["L1"] = n
        issues = validate_model(fig2b_model, fig2b)
        assert (issues[0].code, issues[0].var, issues[0].message) == (
            "BadStateCount", "L1", f"state count {n!r} invalid"
        )

    def test_shape_mismatch(self, fig2b, fig2b_model):
        fig2b_model.cpts["L2"] = np.array([[0.5, 0.5], [0.5, 0.5]])
        issues = validate_model(fig2b_model, fig2b)
        assert any(i.code == "ShapeMismatch" and i.var == "L2" for i in issues)

    def test_missing_cpt(self, fig2b, fig2b_model):
        del fig2b_model.cpts["A2"]
        issues = validate_model(fig2b_model, fig2b)
        assert any(i.code == "MissingCpt" for i in issues)

    def test_inert_parent_must_not_matter(self, fig2a, bite_model):
        full = full_history_spec(fig2a)
        from seqident import normalize_parents

        dn = normalize_parents(fig2a, full)
        m = DiscreteModel(states=dict(bite_model.states), cpts=dict(bite_model.cpts))
        # A2 now conditions on (A1, L2); tile the kernel so A1 is inert
        m.cpts["A2"] = np.broadcast_to(m.cpts["A2"], (2, 2, 2)).copy()
        assert validate_model(m, dn) == ()
        m.cpts["A2"] = m.cpts["A2"].copy()
        m.cpts["A2"][1, 0] = [0.9, 0.1]
        issues = validate_model(m, dn)
        assert any(i.code == "InertParentInfluence" for i in issues)

    def test_exact_models_pass(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            d = random_staged_diagram(rng, max_stages=2, max_extra=2)
            assert validate_model(_fraction_model(rng, d), d) == ()

    def test_exact_rows_sum_to_exactly_one(self, fig2b):
        rng = np.random.default_rng(107)
        m = _fraction_model(rng, fig2b)
        row = np.array([Fraction(1, 3), Fraction(2, 3) - Fraction(1, 10**18)], dtype=object)
        m.cpts["L1"] = np.broadcast_to(row, m.cpts["L1"].shape).copy()
        issues = validate_model(m, fig2b)
        assert [(i.code, i.var) for i in issues] == [("RowNotNormalized", "L1")]
        assert issues[0].message.endswith(f"sums to {1 - Fraction(1, 10**18)}")

    def test_exact_inert_parent_must_not_matter_at_all(self, fig2a):
        from seqident import normalize_parents

        dn = normalize_parents(fig2a, full_history_spec(fig2a))
        m = _fraction_model(np.random.default_rng(113), dn)
        # A2 conditions on (A1, L2) with A1 inert: one kernel for every A1 state
        kernel = np.broadcast_to(m.cpts["A2"][:1], m.cpts["A2"].shape).copy()
        m.cpts["A2"] = kernel
        assert validate_model(m, dn) == ()
        kernel[1, 0, :2] += [Fraction(1, 10**15), -Fraction(1, 10**15)]
        issues = validate_model(m, dn)
        assert [(i.code, i.var) for i in issues] == [("InertParentInfluence", "A2")]

    @pytest.mark.parametrize("entry", [Fraction(-1, 2), "half", None, float("nan")])
    def test_exact_bad_probability(self, fig2b, entry):
        m = _fraction_model(np.random.default_rng(109), fig2b)
        cpt = m.cpts["L2"].copy()
        cpt[(0,) * (cpt.ndim - 1) + (1,)] = entry
        m.cpts["L2"] = cpt
        issues = validate_model(m, fig2b)
        assert [(i.code, i.var) for i in issues] == [("BadProbability", "L2")]
        assert f"is {entry!r}, not a probability" in issues[0].message


class TestJoint:
    def test_single_node_joint_is_its_cpt(self):
        d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [])
        m = DiscreteModel(
            states={"A1": 2, "Y": 1},
            cpts={"A1": np.array([0.3, 0.7]), "Y": np.array([1.0])},
        )
        jt = joint(m, d)
        assert np.array_equal(marginal(jt, ["A1"]).table, [0.3, 0.7])

    def test_degenerate_state_encodes_empty_block(self):
        # a 1-state covariate behaves like no covariate at all
        d = staged_diagram(
            1,
            [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)],
            [("A1", "Y")],
        )
        m = DiscreteModel(
            states={"L1": 1, "A1": 2, "Y": 2},
            cpts={
                "L1": np.array([1.0]),
                "A1": np.array([0.5, 0.5]),
                "Y": np.array([[0.8, 0.2], [0.3, 0.7]]),
            },
        )
        assert validate_model(m, d) == ()
        jt = joint(m, d)
        assert jt.total() == pytest.approx(1.0, abs=1e-12)
        assert marginal(jt, ["Y"]).table[1] == pytest.approx(0.45, abs=1e-12)

    def test_single_binary_node(self):
        d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y")])
        m = DiscreteModel(
            states={"A1": 2, "Y": 2},
            cpts={"A1": np.array([0.3, 0.7]), "Y": np.array([[0.5, 0.5], [0.1, 0.9]])},
        )
        jt = joint(m, d)
        assert jt.table.shape == (2, 2)
        assert np.allclose(jt.table.sum(axis=1), [0.3, 0.7])

    def test_matches_enumeration(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        bj = brute_joint(fig2b, fig2b_model)
        for cfg, p in bj.items():
            assert jt.table[cfg] == pytest.approx(p, abs=1e-15)
        assert jt.total() == pytest.approx(1.0, abs=1e-12)

    def test_observational_policy_reproduces_observational_joint(self, fig2b, fig2b_model):
        # hidden-free: the strategy regime swaps in the very same factor
        # arrays, so the product is bit-identical
        s = from_observational(fig2b_model, fig2b)
        assert np.array_equal(joint(fig2b_model, fig2b, s).table, joint(fig2b_model, fig2b).table)

    def test_strategy_joint_matches_enumeration(self, fig2b, fig2b_model):
        full = full_history_spec(fig2b)
        s = make_deterministic(
            fig2b,
            fig2b_model.states,
            full,
            {
                "A1": {(l1,): 0 for l1 in range(2)},
                "A2": {(l1, a1, l2): l2 for l1 in range(2) for a1 in range(2) for l2 in range(2)},
            },
        )
        jt = joint(fig2b_model, fig2b, s)
        bj = brute_joint(fig2b, fig2b_model, s)
        for cfg, p in bj.items():
            assert jt.table[cfg] == pytest.approx(p, abs=1e-15)

    def test_state_space_cap(self):
        n = 12
        variables = [("Y", "outcome", n + 1)]
        for i in range(1, n + 1):
            variables += [(f"A{i}", "action", i), (f"L{i}", "covariate", i)]
        d = staged_diagram(n, variables, [])
        states = {v.label: 4 for v in d.vars}
        cpts = {v.label: np.full((4,), 0.25) for v in d.vars}
        with pytest.raises(StateSpaceTooLarge):
            joint(DiscreteModel(states, cpts), d)


def _spliced_table(m, d, s, split):
    """The dense spliced product: observational factors through the split, strategy after."""
    return product_joint_reference(d.labels, m.states, prob._spliced_factors(m, d, s, split))


class TestMixedJoint:
    def test_endpoints_bitwise(self, fig2b, fig2b_model):
        rng = np.random.default_rng(0)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
        p0 = _spliced_table(fig2b_model, fig2b, s, 0)
        pn = _spliced_table(fig2b_model, fig2b, s, fig2b.n_stages)
        assert np.array_equal(p0, joint(fig2b_model, fig2b, s).table)
        assert np.array_equal(pn, joint(fig2b_model, fig2b).table)

    def test_interior_splice_matches_hand_product(self, fig2a, bite_model):
        full = full_history_spec(fig2a)
        s = make_deterministic(
            fig2a,
            bite_model.states,
            full,
            {"A1": {(): 0}, "A2": {(a1, l2): l2 for a1 in range(2) for l2 in range(2)}},
        )
        p1 = _spliced_table(bite_model, fig2a, s, 1)
        # stage-1 action observational, stage-2 strategic
        for u1 in range(2):
            for a1 in range(2):
                for l2 in range(2):
                    for a2 in range(2):
                        for y in range(2):
                            want = (
                                bite_model.cpts["U1"][u1]
                                * bite_model.cpts["A1"][u1, a1]
                                * bite_model.cpts["L2"][u1, a1, l2]
                                * (1.0 if a2 == l2 else 0.0)
                                * bite_model.cpts["Y"][a1, a2, y]
                            )
                            assert p1[u1, a1, l2, a2, y] == pytest.approx(want, abs=1e-15)


class TestCondition:
    def test_full_history_conditioning(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        out = condition(jt, ["Y"], {"L1": 0, "A1": 1, "L2": 1, "A2": 0})
        assert out.table.shape == (2,)
        assert out.table.sum() == pytest.approx(1.0, abs=1e-12)
        want = fig2b_model.cpts["Y"][1, 0]
        assert np.allclose(out.table, want, atol=1e-12)

    def test_empty_evidence_is_marginal(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        out = condition(jt, ["L2"], {})
        assert np.allclose(out.table, marginal(jt, ["L2"]).table)

    def test_matches_enumeration(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        got = condition(jt, ["L2"], {"A1": 0}).table
        bj = brute_joint(fig2b, fig2b_model)
        want = brute_conditional(bj, fig2b.labels, "L2", 2, {"A1": 0})
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_probability_evidence(self, fig2a, bite_model):
        m = DiscreteModel(states=dict(bite_model.states), cpts=dict(bite_model.cpts))
        m.cpts["U1"] = np.array([1.0, 0.0])
        jt = joint(m, fig2a)
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            condition(jt, ["Y"], {"U1": 1})
        assert exc.value.evidence == {"U1": 1}

    def test_condition_then_marginalize_consistent(self, fig2b, fig2b_model):
        rng = np.random.default_rng(3)
        jt = joint(fig2b_model, fig2b)
        for _ in range(20):
            labels = list(fig2b.labels)
            rng.shuffle(labels)
            ev_var, keep1, keep2 = labels[0], labels[1], labels[2]
            ev = {ev_var: int(rng.integers(2))}
            big = condition(jt, [keep1, keep2], ev)
            small = condition(jt, [keep1], ev)
            assert np.allclose(marginal(big, [keep1]).table, small.table, atol=1e-12)


class TestExpectation:
    def test_constant_loss(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        assert expectation(jt, loss_function([2.5, 2.5], "Y")) == pytest.approx(2.5)

    def test_indicator_is_marginal(self, fig2b, fig2b_model):
        jt = joint(fig2b_model, fig2b)
        got = expectation(jt, loss_function([0.0, 1.0], "Y"))
        assert got == pytest.approx(marginal(jt, ["Y"]).table[1])

    def test_matches_enumeration(self, fig2b, fig2b_model, unit_loss):
        full = full_history_spec(fig2b)
        rng = np.random.default_rng(9)
        s = random_strategy(rng, fig2b, full, fig2b_model.states)
        jt = joint(fig2b_model, fig2b, s)
        bj = brute_joint(fig2b, fig2b_model, s)
        want = brute_expectation(bj, fig2b.labels, "Y", unit_loss.values)
        assert expectation(jt, unit_loss) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "query, error, message",
    [
        (lambda jt: jt.axis("Z"), UnknownNode, "variable 'Z' not in table"),
        (lambda jt: marginal(jt, ["Y", "Z"]), UnknownNode, "not in table: ['Z']"),
        (
            lambda jt: expectation(jt, loss_function([0, 1, 2], "Y")),
            ValueError,
            "loss table over (3,) states, outcome has (2,)",
        ),
        (lambda jt: ci_deviation(jt, ["L1"], ["Y"], ["L1"]), OverlappingSets, "query sets must be pairwise disjoint"),
    ],
)
def test_bad_table_query_is_refused(fig2b, fig2b_model, query, error, message):
    with pytest.raises(error) as exc:
        query(joint(fig2b_model, fig2b))
    assert str(exc.value) == message


class TestCiHolds:
    def test_independent_product(self):
        from seqident import JointTable

        t = np.outer([0.3, 0.7], [0.6, 0.4])
        assert ci_holds(JointTable(("a", "b"), t), ["a"], ["b"], [])

    def test_perfect_correlation(self):
        from seqident import JointTable

        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert not ci_holds(JointTable(("a", "b"), t), ["a"], ["b"], [], tol=1e-9)

    def test_regime_mixture_feels_the_witness(self, fig2a, bite_model):
        # the covariate fails to be separated from the regime given the first
        # action, and a generic mixture shows it numerically
        rng = np.random.default_rng(21)
        s = random_strategy(rng, fig2a, full_history_spec(fig2a), bite_model.states)
        jt = regime_mixture_joint(bite_model, fig2a, s)
        assert not ci_holds(jt, ["L2"], ["sigma"], ["A1"], tol=1e-6)
        # and the separated triple is independent
        assert ci_holds(jt, ["Y"], ["sigma"], ["A1", "A2", "L2"], tol=1e-9)


class TestPositivity:
    def test_interior_model_passes(self, fig2b, fig2b_model):
        rng = np.random.default_rng(2)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
        assert check_positivity(fig2b_model, fig2b, s).passed

    def test_constructed_zero_fails(self, fig2b, fig2b_model):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["A2"] = np.array([[0.55, 0.45], [1.0, 0.0]])  # A2=1 never seen at L2=1
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_deterministic(
            fig2b,
            m.states,
            spec,
            {"A1": {(): 0}, "A2": {(0,): 0, (1,): 1}},
        )
        report = check_positivity(m, fig2b, s)
        assert not report.passed
        assert any(
            i.stage == 2 and i.action_state == 1 and ("L2", 1) in i.history
            for i in report.issues
        )

    def test_observational_policy_always_positive(self, fig2b, fig2b_model):
        s = from_observational(fig2b_model, fig2b)
        assert check_positivity(fig2b_model, fig2b, s).passed


def _zero_columns(rng, m: DiscreteModel, d) -> DiscreteModel:
    """Zero one state of some action and covariate CPT rows, renormalised, so
    that histories and action states go unobserved."""
    cpts = dict(m.cpts)
    for v in d.vars:
        if v.kind not in (VarKind.ACTION, VarKind.COVARIATE) or rng.random() < 0.4:
            continue
        table = cpts[v.label].copy()
        rows = table.reshape(-1, table.shape[-1])
        rows[rng.random(len(rows)) < 0.6, rng.integers(table.shape[-1])] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        cpts[v.label] = table
    return DiscreteModel(states=m.states, cpts=cpts)


def _random_query(rng, labels):
    """Disjoint nonempty x and y and a possibly empty z, in random order."""
    perm = [str(v) for v in rng.permutation(labels)]
    a = int(rng.integers(1, len(perm) - 1))
    b = int(rng.integers(a + 1, len(perm)))
    k = int(rng.integers(b, len(perm) + 1))
    return perm[:a], perm[a:b], perm[b:k]


def test_array_cross_checks_match_loop_references():
    # the one-mask positivity check and the one-expression factorisation gap
    # reproduce the per-configuration loops exactly, issue order included
    rng = np.random.default_rng(43)
    issues = gaps = 0
    for _ in range(60):
        d = random_staged_diagram(rng)
        m = _zero_columns(rng, random_model(rng, d), d)
        s = random_strategy(
            rng, d, random_parent_spec(rng, d), m.states, deterministic=bool(rng.random() < 0.5)
        )
        want = positivity_issues_reference(m, d, s)
        report = check_positivity(m, d, s)
        assert repr(report.issues) == repr(tuple(want)) and report.passed == (not want)
        issues += len(want)
        jt = regime_mixture_joint(m, d, s)
        for _ in range(4):
            x, y, z = _random_query(rng, jt.labels)
            gap = ci_deviation(jt, x, y, z)
            assert gap == ci_deviation_reference(jt, x, y, z), (x, y, z)
            gaps += gap > 0.0
    assert issues > 50 and gaps > 50


def test_gap_matches_loop_reference_on_wide_tables():
    # with eight or more y states numpy sums a contiguous row in another order
    # than a strided one, so the array form must lay out each z slice as the
    # loop did; near-independent tables make the gap pure rounding and show it
    rng = np.random.default_rng(47)
    labels = ("a", "b", "c", "e")
    for _ in range(40):
        table = np.einsum("ace,bce->abce", rng.random((3, 4, 5)), rng.random((10, 4, 5)))
        table[..., rng.permutation(5)[:2]] = 0.0
        jt = JointTable(labels, table / table.sum())
        for x, y, z in [(["a"], ["b"], ["c", "e"]), _random_query(rng, labels)]:
            assert ci_deviation(jt, x, y, z) == ci_deviation_reference(jt, x, y, z), (x, y, z)


def test_regime_invariance_of_covariate_conditionals():
    # the conditional law of each covariate block given the full past is the
    # same under the observational and any strategy regime on shared support
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = random_staged_diagram(rng)
        m = random_model(rng, d)
        spec = random_parent_spec(rng, d)
        s = random_strategy(rng, d, spec, m.states)
        jo = joint(m, d)
        js = joint(m, d, s)
        for i in range(1, d.n_stages + 2):
            block = d.covariate_block(i)
            if not block:
                continue
            past = [
                v.label
                for v in d.vars
                if d.position[v.label] < min(d.position[b] for b in block)
            ]
            for cfg in np.ndindex(*[m.states[v] for v in past]):
                ev = dict(zip(past, (int(c) for c in cfg)))
                po = marginal(js, past).table[cfg] if past else 1.0
                if po <= 1e-12:
                    continue
                co = condition(jo, block, ev)
                cs = condition(js, block, ev)
                assert np.allclose(co.table, cs.table, atol=1e-9)


def test_contraction_matches_dense_path():
    # every query that sums variables out one at a time agrees with the same
    # query read off the dense joint: values to rounding, positivity issues
    # exactly, splice reports exactly but for the printed deviation
    rng = np.random.default_rng(53)
    issues = skipped = regime_queries = 0
    for _ in range(30):
        d = random_staged_diagram(rng)
        base = random_model(rng, d)
        for m in (base, _zero_columns(rng, base, d)):
            deterministic = bool(rng.random() < 0.5)
            s = random_strategy(rng, d, random_parent_spec(rng, d), m.states, deterministic)
            k = random_loss(rng, m.states, d.outcome_label)
            assert evaluate_oracle(m, d, s, k).value == pytest.approx(
                expectation(joint(m, d, s), k), rel=0.0, abs=1e-12
            )
            if deterministic:
                assert evaluate_decomposition(m, d, s, k).value == pytest.approx(
                    decomposition_reference(m, d, s, k), rel=0.0, abs=1e-12
                )
            want = positivity_issues_reference(m, d, s)
            assert repr(check_positivity(m, d, s).issues) == repr(tuple(want))
            issues += len(want)
            got_exact, got_dev = splice_parts(check_theorem1_numeric(m, d, s, tol=1e-6))
            want_exact, want_dev = splice_parts(splice_reference(m, d, s, 1e-6))
            assert got_exact == want_exact
            assert got_dev == pytest.approx(want_dev, rel=0.0, abs=1e-14)
            skipped += any(part[-1] for part in got_exact[2:])
            pf = ParsedModelFile(diagram=d, model=m, strategies=(s,), loss=k)
            for _ in range(3):
                x, y, z = _random_query(rng, d.labels + (REGIME,))
                dense = regime_mixture_joint(m, d, s) if REGIME in x + y + z else joint(m, d)
                assert _dsep_gap(pf, x, y, z) == pytest.approx(
                    ci_deviation(dense, x, y, z), rel=0.0, abs=1e-12
                ), (x, y, z)
                regime_queries += REGIME in x + y + z
    assert issues > 20 and skipped > 5 and regime_queries > 20


def _chain_model(over: bool) -> tuple:
    """One stage with MAX_NODES variables, a chain of hidden ones: exactly
    MAX_CELLS cells (22 binary variables and two unary ones), or three times
    as many with the first variable ternary."""
    hidden = [f"U{j}" for j in range(1, MAX_NODES - 2)]
    variables = [(u, "hidden", 1) for u in hidden]
    variables += [("L1", "covariate", 1), ("A1", "action", 1), ("Y", "outcome", 2)]
    edges = list(zip(hidden, hidden[1:])) + [(hidden[-1], "L1"), ("L1", "A1"), ("A1", "Y")]
    edges.append((hidden[-1], "Y"))
    d = staged_diagram(1, variables, edges)
    states = {v.label: 2 for v in d.vars}
    states["U1"], states["U2"] = (3 if over else 1), 1
    rng = np.random.default_rng(5)
    cpts = {}
    for v in d.vars:
        rows = rng.uniform(0.1, 1.0, size=[states[p] for p in d.parents[v.label]] + [states[v.label]])
        cpts[v.label] = rows / rows.sum(axis=-1, keepdims=True)
    s = random_strategy(rng, d, full_history_spec(d), states)
    return DiscreteModel(states, cpts), d, s, loss_function([0.0, 1.0], "Y")


def _fraction_model(rng, d):
    """Random CPTs as exact fractions in object arrays."""
    states = {v.label: int(rng.choice((2, 3))) for v in d.vars}
    cpts = {}
    for v in d.vars:
        shape = tuple(states[p] for p in d.parents[v.label]) + (states[v.label],)
        weights = rng.integers(1, 10, size=shape)
        table = np.empty(shape, dtype=object)
        for cfg in np.ndindex(*shape):
            table[cfg] = Fraction(int(weights[cfg]), int(weights[cfg[:-1]].sum()))
        cpts[v.label] = table
    return DiscreteModel(states, cpts)


class TestContract:
    def test_cap_as_dense_joint(self):
        # also the largest diagram: np.einsum's sublist form takes at most 52 labels
        m, d, s, k = _chain_model(over=False)
        assert len(d.vars) == MAX_NODES and np.prod(list(m.states.values())) == prob.MAX_CELLS
        assert 0.0 <= evaluate_oracle(m, d, s, k).value <= 1.0
        assert check_positivity(m, d, s).passed
        assert len(check_theorem1_numeric(m, d, s).entries) == 1
        m, d, s, k = _chain_model(over=True)
        assert np.prod(list(m.states.values())) > prob.MAX_CELLS
        for query in (evaluate_oracle, check_positivity, check_theorem1_numeric):
            with pytest.raises(StateSpaceTooLarge):
                query(m, d, s, *([k] if query is evaluate_oracle else []))

    def test_keep_everything_or_nothing(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            d = random_staged_diagram(rng)
            m = random_model(rng, d)
            s = random_strategy(rng, d, random_parent_spec(rng, d), m.states)
            for strategy in (None, s):
                dense = joint(m, d, strategy)
                assert np.allclose(
                    prob._regime_marginal(m, d, strategy, d.labels), dense.table, rtol=0.0, atol=1e-15
                )
                keep = [str(v) for v in rng.permutation(d.labels)]
                assert np.allclose(
                    prob._regime_marginal(m, d, strategy, keep),
                    np.transpose(dense.table, [dense.axis(v) for v in keep]),
                    rtol=0.0,
                    atol=1e-15,
                )
                assert prob._regime_marginal(m, d, strategy, ()) == pytest.approx(1.0, abs=1e-12)

    def test_exact_on_fractions(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            d = random_staged_diagram(rng, max_stages=2, max_extra=2)
            m = _fraction_model(rng, d)
            keep = [str(v) for v in rng.permutation(d.labels)[: int(rng.integers(0, 4))]]
            want: dict = {}
            for cfg in itertools.product(*(range(m.states[v]) for v in d.labels)):
                env = dict(zip(d.labels, cfg))
                p = Fraction(1)
                for v in d.labels:
                    p *= m.cpts[v][tuple(env[q] for q in d.parents[v]) + (env[v],)]
                key = tuple(env[v] for v in keep)
                want[key] = want.get(key, Fraction(0)) + p
            got = np.asarray(prob._regime_marginal(m, d, None, keep))
            assert got.dtype == object
            assert {cfg: got[cfg] for cfg in np.ndindex(*got.shape)} == want
            assert all(type(p) is Fraction for p in got.flat)

    def test_no_dense_joint(self, monkeypatch, fig2a, bite_model):
        # a dense joint is a _contract call that keeps every label
        contract = prob._contract

        def no_dense(labels, states, factors, keep):
            if len(keep) == len(labels):
                raise AssertionError("dense joint built")
            return contract(labels, states, factors, keep)

        rng = np.random.default_rng(71)
        s = random_strategy(rng, fig2a, full_history_spec(fig2a), bite_model.states, True)
        k = loss_function([0.0, 1.0], "Y")
        pf = ParsedModelFile(diagram=fig2a, model=bite_model, strategies=(s,), loss=k)
        monkeypatch.setattr(prob, "_contract", no_dense)
        monkeypatch.setattr(stability, "_contract", no_dense)
        evaluate_oracle(bite_model, fig2a, s, k)
        evaluate_decomposition(bite_model, fig2a, s, k)
        check_positivity(bite_model, fig2a, s)
        check_theorem1_numeric(bite_model, fig2a, s)
        _dsep_gap(pf, ["L2"], [REGIME], ["A1"])
        with pytest.raises(AssertionError, match="dense joint built"):
            joint(bite_model, fig2a, s)


def _bitwise(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dense_builders_match_reference_product():
    # every dense table is the old float product bit for bit: both regimes,
    # the contraction kept to every variable at every split and on plain
    # DAG factors, and the regime mixture
    rng = np.random.default_rng(79)
    for _ in range(40):
        d = random_staged_diagram(rng)
        base = random_model(rng, d)
        for m in (base, _zero_columns(rng, base, d)):
            deterministic = bool(rng.random() < 0.5)
            s = random_strategy(rng, d, random_parent_spec(rng, d), m.states, deterministic)
            want = [
                product_joint_reference(d.labels, m.states, prob._spliced_factors(m, d, s, i))
                for i in range(d.n_stages + 1)
            ]
            assert _bitwise(joint(m, d).table, want[-1])
            assert _bitwise(joint(m, d, s).table, want[0])
            for i in range(d.n_stages + 1):
                contracted = prob._contract(d.labels, m.states, prob._spliced_factors(m, d, s, i), d.labels)
                assert _bitwise(contracted, want[i])
            mixture = np.stack([0.5 * want[-1], 0.5 * want[0]], axis=-1)
            assert _bitwise(regime_mixture_joint(m, d, s).table, mixture)
        g = random_dag(rng)
        states, cpts = random_dag_parameterization(rng, g)
        factors = dag_factors(g, cpts)
        contracted = prob._contract(g.labels, states, factors, g.labels)
        assert _bitwise(contracted, product_joint_reference(g.labels, states, factors))


def _fractions(table: np.ndarray) -> np.ndarray:
    return np.array([Fraction(x) for x in table.flat], dtype=object).reshape(table.shape)


def test_dense_builders_exact_on_fractions():
    # Fraction CPTs and kernels give object arrays of Fractions equal to
    # explicit enumeration of the spliced factors
    rng = np.random.default_rng(83)
    for _ in range(10):
        d = random_staged_diagram(rng, max_stages=2, max_extra=2)
        m = _fraction_model(rng, d)
        s = random_strategy(rng, d, random_parent_spec(rng, d), m.states, bool(rng.random() < 0.5))
        s = replace(s, tables=tuple(_fractions(t) for t in s.tables))
        # (split, table): observational factors through the split, strategy after
        built = [
            (i, prob._contract(d.labels, m.states, prob._spliced_factors(m, d, s, i), d.labels))
            for i in range(d.n_stages + 1)
        ]
        built.append((d.n_stages, joint(m, d).table))
        built.append((0, joint(m, d, s).table))
        built.append((d.n_stages, prob._contract(d.labels, m.states, dag_factors(d.dag, m.cpts), d.labels)))
        for split, table in built:
            assert table.dtype == object and all(type(p) is Fraction for p in table.flat)
            for cfg in itertools.product(*(range(m.states[v]) for v in d.labels)):
                env = dict(zip(d.labels, cfg))
                want = Fraction(1)
                for v in d.vars:
                    if v.kind is VarKind.ACTION and v.stage > split:
                        parents, kernel = s.parents_of(v.label), s.kernel_table(v.label)
                    else:
                        parents, kernel = d.parents[v.label], m.cpts[v.label]
                    want *= kernel[tuple(env[q] for q in parents) + (env[v.label],)]
                assert table[cfg] == want, (split, cfg)


def _layered_diagram(rng):
    """1-3 stages, each with 0-2 hidden variables, 0-2 covariates and an action,
    random edges forward in the canonical order."""
    n = int(rng.integers(1, 4))
    variables = []
    for i in range(1, n + 1):
        variables += [(f"U{i}{j}", "hidden", i) for j in range(int(rng.integers(0, 3)))]
        variables += [(f"L{i}{j}", "covariate", i) for j in range(int(rng.integers(0, 3)))]
        variables.append((f"A{i}", "action", i))
    variables.append(("Y", "outcome", n + 1))
    labels = staged_diagram(n, variables, []).labels
    edges = [(a, b) for k, a in enumerate(labels) for b in labels[k + 1 :] if rng.random() < 0.5]
    return staged_diagram(n, variables, edges)


def _observed_law(m: DiscreteModel, d) -> np.ndarray:
    factors = prob._spliced_factors(m, d, None, d.n_stages)
    return prob._blocked_marginal(d.labels, m.states, factors, d.observed_labels)


BLOCK_SIZES = (1, 3, 17, 256, 2**30)


def test_blocked_observed_law_is_the_dense_marginal(monkeypatch):
    # the observed law summed block by block is the dense joint's marginal bit
    # for bit, from one-cell blocks to a single block; one-state variables
    # included, so the last axis with more than one state is sometimes hidden
    rng = np.random.default_rng(89)
    hidden_last = 0
    for _ in range(400):
        d = _layered_diagram(rng)
        m = random_model(rng, d, state_choices=(1, 2, 3))
        if min(m.states.values()) > 1 and rng.random() < 0.5:
            m = _zero_columns(rng, m, d)
        want = marginal(joint(m, d), d.observed_labels).table
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(prob, "BLOCK_CELLS", cells)
            assert _bitwise(_observed_law(m, d), want), (cells, d.labels, m.states)
        last = max((v for v in d.labels if m.states[v] > 1), key=d.position.get, default=None)
        hidden_last += last is not None and last not in d.observed_labels
    assert hidden_last > 5


def test_blocked_observed_law_exact_on_fractions(monkeypatch):
    rng = np.random.default_rng(97)
    for _ in range(20):
        d = random_staged_diagram(rng, max_stages=2, max_extra=2)
        m = _fraction_model(rng, d)
        want = marginal(joint(m, d), d.observed_labels).table
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(prob, "BLOCK_CELLS", cells)
            got = _observed_law(m, d)
            assert got.dtype == object and all(type(p) is Fraction for p in got.flat)
            assert got.shape == want.shape and got.tolist() == want.tolist()


def test_blocked_observed_law_keeps_the_cap():
    m, d, _, _ = _chain_model(over=True)
    with pytest.raises(StateSpaceTooLarge, match=f"cells exceed the cap of {prob.MAX_CELLS}"):
        _observed_law(m, d)


def _model_with_states(rng, d, states: dict[str, int]) -> DiscreteModel:
    cpts = {}
    for v in d.vars:
        raw = rng.uniform(0.05, 1.0, size=tuple(states[p] for p in d.parents[v.label]) + (states[v.label],))
        cpts[v.label] = raw / raw.sum(axis=-1, keepdims=True)
    return DiscreteModel(dict(states), cpts)


def _plan(m: DiscreteModel, d):
    sizes = [m.states[lab] for lab in d.labels]
    kept = sorted(d.position[lab] for lab in d.observed_labels)
    scopes = [axes for axes, _ in prob._spliced_factors(m, d, None, d.n_stages)]
    return prob._block_plan(sizes, kept, scopes)


def test_blocked_observed_law_at_real_size():
    # four stages of a hidden variable, covariate and action plus the outcome,
    # 3**12 to 3**13 cells, under the default block size: many blocks share a
    # product of the leading factors; hidden variables drive actions in half
    rng = np.random.default_rng(113)
    variables = [("Y", "outcome", 5)]
    for i in range(1, 5):
        variables += [(f"U{i}", "hidden", i), (f"L{i}", "covariate", i), (f"A{i}", "action", i)]
    labels = staged_diagram(4, variables, []).labels
    for confounded in (True, False, True, False):
        edges = []
        for k, b in enumerate(labels):
            parents = [
                a for a in labels[:k]
                if rng.random() < 0.4 and (confounded or not (a[0] == "U" and b[0] == "A"))
            ]
            edges += [(a, b) for a in rng.permutation(parents)[:4]]
        assert any(a[0] == "U" and b[0] == "A" for a, b in edges) == confounded
        d = staged_diagram(4, variables, edges)
        binary = rng.choice([*labels, None])
        m = _model_with_states(rng, d, {lab: 2 if lab == binary else 3 for lab in labels})
        fixed, shared = _plan(m, d)
        assert math.prod(m.states[d.labels[a]] for a in fixed) > 1 and shared > 0
        want = marginal(joint(m, d), d.observed_labels).table
        assert _bitwise(_observed_law(m, d), want), (confounded, d.edges, m.states)


def test_blocked_observed_law_single_product_paths(monkeypatch):
    # nothing dropped, or the last variable with more than one state hidden:
    # one dense product at every block size, bitwise the dense marginal
    rng = np.random.default_rng(127)
    for hidden_last in (False, True) * 10:
        n = int(rng.integers(1, 4))
        variables = [("Y", "outcome", n + 1)]
        for i in range(1, n + 1):
            variables += [(f"L{i}", "covariate", i), (f"A{i}", "action", i)]
            variables += [(f"U{i}", "hidden", i)] if hidden_last else []
        labels = staged_diagram(n, variables, []).labels
        edges = [(a, b) for k, a in enumerate(labels) for b in labels[k + 1 :] if rng.random() < 0.5]
        d = staged_diagram(n, variables, edges)
        states = {lab: int(rng.choice((2, 3))) for lab in labels}
        if hidden_last:
            # U_n is followed by L_n, A_n and Y only
            states.update({f"L{n}": 1, f"A{n}": 1, "Y": 1})
        m = _model_with_states(rng, d, states)
        assert _plan(m, d) is None
        want = marginal(joint(m, d), d.observed_labels).table
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(prob, "BLOCK_CELLS", cells)
            assert _bitwise(_observed_law(m, d), want), (cells, d.labels, m.states)
