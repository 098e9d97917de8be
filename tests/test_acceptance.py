"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line with its runtime (run with ``pytest -s`` to see them).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from seqident import (
    check_general,
    check_pearl_robins,
    check_simple_stability,
    d_separated,
    decide_identifiability,
    enumerate_deterministic,
    evaluate_decomposition,
    evaluate_g_recursion,
    evaluate_oracle,
    full_history_spec,
    joint,
    loss_function,
    make_deterministic,
    normalize_parents,
    observational_conditionals,
    optimize_backward,
    optimize_bruteforce,
    strategies_equal,
    unconditional_spec,
)
from seqident.fuzz import (
    random_model,
    random_parent_spec,
    random_staged_diagram,
    random_strategy,
    theorem2_fuzz,
)
from seqident.prob import JointTable, _spliced_factors, check_positivity

from .oracles import (
    ci_holds,
    dag_factors,
    path_d_separated,
    product_joint_reference,
    random_dag,
    random_dag_parameterization,
)


def _report(name: str, detail: str, t0: float) -> None:
    print(f"PASS {name}: {detail} in {time.perf_counter() - t0:.2f}s")


def test_criterion_1_figure_verdict_suite(fig2a, fig2b):
    t0 = time.perf_counter()
    full2a = full_history_spec(fig2a)
    uncond2a = unconditional_spec(fig2a)

    # (a) covariate block not regime-invariant given the first action
    simple_a = check_simple_stability(fig2a)
    assert [e.passed for e in simple_a.entries] == [True, False, True]
    assert simple_a.entries[1].verdict.witness == ("sigma", "U1", "L2")
    # (b) all three observable-block invariances hold when stage 1 is observed
    simple_b = check_simple_stability(fig2b)
    assert [e.passed for e in simple_b.entries] == [True, True, True]
    # (c) hybrid-regime checks pass for the unconditional second action
    general_u = check_general(fig2a, uncond2a)
    assert [e.passed for e in general_u.entries] == [True, True]
    assert [e.query for e in general_u.entries] == [
        "Y _||_ sigma | A1",
        "Y _||_ sigma | A1, L2, A2",
    ]
    # (d) the same first-stage check fails for the covariate-reactive action
    general_f = check_general(fig2a, full2a)
    assert [e.passed for e in general_f.entries] == [False, True]
    # (e) edge-deleted checks: first stage fails, second passes
    pr = check_pearl_robins(fig2a, full2a)
    assert [e.passed for e in pr.entries] == [False, True]
    assert pr.entries[0].verdict.witness == ("A1", "U1", "L2", "A2", "Y")

    verdicts = 3 + 3 + 2 + 2 + 2
    assert time.perf_counter() - t0 < 1.0
    _report("criterion 1 (figure verdicts)", f"{verdicts} quoted separations boolean-exact", t0)


def test_criterion_2_recursion_matches_oracle_when_identified():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    done = attempts = 0
    worst = 0.0
    while done < 300:
        attempts += 1
        assert attempts < 5000, "generator failed to produce identified instances"
        d = random_staged_diagram(rng)
        spec = unconditional_spec(d) if rng.random() < 0.3 else random_parent_spec(rng, d)
        if not check_general(d, spec).passed:
            continue
        m = random_model(rng, d)  # interior probabilities: positivity holds
        s = random_strategy(rng, d, spec, m.states, deterministic=bool(rng.integers(2)))
        k = loss_function(rng.uniform(-1, 1, m.states[d.outcome_label]), d.outcome_label)
        if done % 25 == 0:
            assert check_positivity(m, d, s).passed
        oc = observational_conditionals(m, d)
        g = evaluate_g_recursion(oc, s, k).value
        o = evaluate_oracle(m, d, s, k).value
        gap = abs(g - o)
        assert gap <= 1e-9, (d.labels, tuple(d.edges), gap)
        worst = max(worst, gap)
        done += 1
    assert time.perf_counter() - t0 < 60.0
    _report("criterion 2 (recursion = oracle)", f"300 identified instances, worst gap {worst:.2e}", t0)


def test_criterion_3_nonidentifiability_bite(fig2a, bite_model, unit_loss):
    t0 = time.perf_counter()
    assert not check_general(fig2a, full_history_spec(fig2a)).passed
    s = make_deterministic(
        fig2a,
        bite_model.states,
        full_history_spec(fig2a),
        {"A1": {(): 0}, "A2": {(a1, l2): l2 for a1 in range(2) for l2 in range(2)}},
    )
    oc = observational_conditionals(bite_model, fig2a)
    g = evaluate_g_recursion(oc, s, unit_loss).value
    o = evaluate_oracle(bite_model, fig2a, s, unit_loss).value
    assert g == pytest.approx(0.212, abs=1e-12)
    assert o == pytest.approx(0.5, abs=1e-12)
    assert abs(g - o) > 1e-3
    _report("criterion 3 (non-identifiability bite)", f"pinned gap {abs(g - o):.3f} > 1e-3", t0)


def test_criterion_4_optimality_reduction_fuzz():
    t0 = time.perf_counter()
    result = theorem2_fuzz(seed=20240817, iters=1000)
    assert result.ok, result.violations
    assert result.general_passes == 0
    assert result.simple_passes + result.not_guaranteed == 1000
    assert time.perf_counter() - t0 < 120.0
    _report(
        "criterion 4 (general pass implies simple pass)",
        f"1000 diagrams, {result.simple_passes} simple / {result.not_guaranteed} not guaranteed, 0 counterexamples",
        t0,
    )


def test_criterion_5_dp_correctness(dominance, unit_loss):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    done = attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 3000
        d = random_staged_diagram(rng, max_stages=2)
        full = full_history_spec(d)
        dn = normalize_parents(d, full)
        if decide_identifiability(dn, full).verdict.value == "NotGuaranteed":
            continue
        m = random_model(rng, dn, state_choices=(2,))
        if enumerate_deterministic(dn, m.states, full, cap=10**6).count > 4096:
            continue
        k = loss_function(rng.uniform(-1, 1, 2), "Y")
        oc = observational_conditionals(m, dn)
        dp = optimize_backward(oc, dn, k, full)
        bf = optimize_bruteforce(oc, dn, k, full)
        assert dp.value == bf.value  # exact: same arithmetic
        assert any(strategies_equal(dp.strategy, s) for s in bf.argmax)
        done += 1

    d, m = dominance
    oc = observational_conditionals(m, d)
    best_cond = optimize_backward(oc, d, unit_loss, full_history_spec(d))
    best_uncond = optimize_bruteforce(oc, d, unit_loss, unconditional_spec(d))
    margin = best_cond.value - best_uncond.value
    assert margin >= 0.05
    assert time.perf_counter() - t0 < 60.0
    _report(
        "criterion 5 (backward induction)",
        f"100 instances exact-equal to enumeration; conditional beats unconditional by {margin:.3f}",
        t0,
    )


def test_criterion_6_separation_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    separated = 0
    for _ in range(200):
        g = random_dag(rng)
        labels = g.labels
        while True:
            roles = rng.integers(0, 4, size=len(labels))
            x = [labels[i] for i in range(len(labels)) if roles[i] == 0]
            y = [labels[i] for i in range(len(labels)) if roles[i] == 1]
            z = [labels[i] for i in range(len(labels)) if roles[i] == 2]
            if x and y:
                break
        verdict = d_separated(g, x, y, z)
        assert verdict.separated == path_d_separated(g, set(x), set(y), set(z))
        if verdict.separated:
            states, cpts = random_dag_parameterization(rng, g)
            jt = JointTable(g.labels, product_joint_reference(g.labels, states, dag_factors(g, cpts)))
            assert ci_holds(jt, x, y, z, tol=1e-9)
            separated += 1
    assert separated >= 40
    assert time.perf_counter() - t0 < 30.0
    _report(
        "criterion 6 (separation soundness)",
        f"200 triples, {separated} separated all conditionally independent; path search agrees on all",
        t0,
    )


def test_criterion_7_decomposition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        d = random_staged_diagram(rng)
        spec = random_parent_spec(rng, d)
        m = random_model(rng, d)
        s = random_strategy(rng, d, spec, m.states, deterministic=True)
        k = loss_function(rng.uniform(-1, 1, m.states[d.outcome_label]), d.outcome_label)
        dec = evaluate_decomposition(m, d, s, k).value
        o = evaluate_oracle(m, d, s, k).value
        gap = abs(dec - o)
        assert gap <= 1e-12
        worst = max(worst, gap)
    assert time.perf_counter() - t0 < 10.0
    _report("criterion 7 (decomposition identity)", f"100 deterministic instances, worst gap {worst:.2e}", t0)


def test_criterion_8_splice_endpoints_bitwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(100):
        d = random_staged_diagram(rng)
        spec = random_parent_spec(rng, d)
        m = random_model(rng, d)
        s = random_strategy(rng, d, spec, m.states, deterministic=bool(rng.integers(2)))
        spliced = [
            product_joint_reference(d.labels, m.states, _spliced_factors(m, d, s, split))
            for split in (0, d.n_stages)
        ]
        assert np.array_equal(spliced[0], joint(m, d, s).table)
        assert np.array_equal(spliced[1], joint(m, d).table)
    _report("criterion 8 (splice endpoints)", "100 instances bitwise-equal at both ends", t0)
