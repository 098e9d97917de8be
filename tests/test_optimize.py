from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from seqident import (
    DiscreteModel,
    IdentifiabilityVerdict,
    decide_identifiability,
    enumerate_deterministic,
    evaluate_g_recursion,
    evaluate_oracle,
    full_history_spec,
    loss_function,
    normalize_parents,
    observational_conditionals,
    optimize_backward,
    optimize_bruteforce,
    parent_spec,
    staged_diagram,
    strategies_equal,
    unconditional_spec,
)
from seqident.errors import (
    EnumerationTooLarge,
    InvalidParentSpec,
    PositivityViolation,
    SeqidentError,
)
from seqident.fuzz import random_model, random_parent_spec, random_staged_diagram
from seqident.optimize import _candidate_values

from .oracles import bruteforce_reference


def _one_step():
    d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y")])
    m = DiscreteModel(
        states={"A1": 2, "Y": 2},
        cpts={"A1": np.array([0.5, 0.5]), "Y": np.array([[0.8, 0.2], [0.3, 0.7]])},
    )
    return d, m


class TestBackward:
    def test_one_step_argmax(self, unit_loss):
        d, m = _one_step()
        oc = observational_conditionals(m, d)
        r = optimize_backward(oc, d, unit_loss, full_history_spec(d))
        assert r.value == pytest.approx(0.7, abs=1e-12)
        assert int(r.choices["A1"][()]) == 1

    def test_constant_loss_tie_break(self, fig2b):
        # dyadic probabilities keep every sum exact, so the constant loss
        # produces genuine ties and the tie-break must pick action 0
        m = DiscreteModel(
            states={"L1": 2, "A1": 2, "L2": 2, "A2": 2, "Y": 2},
            cpts={
                "L1": np.array([0.5, 0.5]),
                "A1": np.array([[0.75, 0.25], [0.25, 0.75]]),
                "L2": np.array([[[0.5, 0.5], [0.25, 0.75]], [[0.75, 0.25], [0.5, 0.5]]]),
                "A2": np.array([[0.5, 0.5], [0.25, 0.75]]),
                "Y": np.array([[[0.75, 0.25], [0.5, 0.5]], [[0.25, 0.75], [0.5, 0.5]]]),
            },
        )
        oc = observational_conditionals(m, fig2b)
        k = loss_function([1.5, 1.5], "Y")
        r = optimize_backward(oc, fig2b, k, full_history_spec(fig2b))
        assert r.value == 1.5
        assert int(r.choices["A1"].max()) == 0
        assert int(r.choices["A2"].max()) == 0
        bf = optimize_bruteforce(oc, fig2b, k, full_history_spec(fig2b))
        assert bf.value == 1.5
        assert len(bf.argmax) == bf_count(fig2b, m)
        # reported strategy is the first enumerated: all-smallest-action
        assert np.argmax(bf.strategy.kernel_table("A1"), axis=-1).max() == 0
        assert np.argmax(bf.strategy.kernel_table("A2"), axis=-1).max() == 0

    def test_requires_full_history(self, fig2b, fig2b_model, unit_loss):
        oc = observational_conditionals(fig2b_model, fig2b)
        with pytest.raises(InvalidParentSpec):
            optimize_backward(oc, fig2b, unit_loss, unconditional_spec(fig2b))

    def test_fixture_value_and_rule(self, fig2b, fig2b_model, unit_loss):
        # brute-force enumeration pinned these before the dynamic program ran:
        # best action pair is (1, 1) worth 0.8 regardless of covariates
        oc = observational_conditionals(fig2b_model, fig2b)
        r = optimize_backward(oc, fig2b, unit_loss, full_history_spec(fig2b))
        assert r.value == pytest.approx(0.8, abs=1e-9)
        assert np.all(r.choices["A1"] == 1)
        # at histories on the optimal path (A1=1) the rule picks A2=1
        assert np.all(r.choices["A2"][:, 1, :] == 1)

    def test_positivity_error(self, fig2b, fig2b_model, unit_loss):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["A2"] = np.array([[0.55, 0.45], [1.0, 0.0]])
        oc = observational_conditionals(m, fig2b)
        with pytest.raises(PositivityViolation):
            optimize_backward(oc, fig2b, unit_loss, full_history_spec(fig2b))

    def test_unreached_histories_flagged(self, fig2b, fig2b_model, unit_loss):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["L1"] = np.array([1.0, 0.0])
        # support vanishes beyond L1=0; all actions still observed there
        oc = observational_conditionals(m, fig2b)
        r = optimize_backward(oc, fig2b, unit_loss, full_history_spec(fig2b))
        assert r.unreached["A1"][1]
        assert not r.unreached["A1"][0]
        assert int(r.choices["A1"][1]) == 0  # tie-break action on dead branches


def bf_count(d, m):
    return enumerate_deterministic(d, m.states, full_history_spec(d)).count


class TestBruteForce:
    def test_one_step_matches_dp(self, unit_loss):
        d, m = _one_step()
        oc = observational_conditionals(m, d)
        dp = optimize_backward(oc, d, unit_loss, full_history_spec(d))
        bf = optimize_bruteforce(oc, d, unit_loss, full_history_spec(d))
        assert dp.value == bf.value
        assert any(strategies_equal(dp.strategy, s) for s in bf.argmax)

    def test_restricted_spec_never_beats_full_history(self, fig2b, fig2b_model, unit_loss):
        oc = observational_conditionals(fig2b_model, fig2b)
        full = optimize_backward(oc, fig2b, unit_loss, full_history_spec(fig2b))
        restricted = optimize_bruteforce(
            oc, fig2b, unit_loss, parent_spec(fig2b, {"A2": ["L2"]})
        )
        assert restricted.value <= full.value

    def test_eight_strategy_argmax_contains_dp(self, fig2b, fig2b_model, unit_loss):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        oc = observational_conditionals(fig2b_model, fig2b)
        bf = optimize_bruteforce(oc, fig2b, unit_loss, spec)
        assert len(bf.argmax) >= 1
        dp = optimize_backward(oc, fig2b, unit_loss, full_history_spec(fig2b))
        assert bf.value <= dp.value


class TestDominance:
    def test_conditional_beats_unconditional_by_margin(self, dominance, unit_loss):
        d, m = dominance
        oc = observational_conditionals(m, d)
        full = optimize_backward(oc, d, unit_loss, full_history_spec(d))
        uncond = optimize_bruteforce(oc, d, unit_loss, unconditional_spec(d))
        assert full.value == pytest.approx(0.89, abs=1e-12)
        assert uncond.value == pytest.approx(0.645, abs=1e-12)
        assert full.value - uncond.value >= 0.05

    def test_identified_so_dp_reaches_true_optimum(self, dominance, unit_loss):
        d, m = dominance
        assert (
            decide_identifiability(d, full_history_spec(d)).verdict
            is IdentifiabilityVerdict.IDENTIFIED_SIMPLE
        )
        oc = observational_conditionals(m, d)
        dp = optimize_backward(oc, d, unit_loss, full_history_spec(d))
        best_true = max(
            evaluate_oracle(m, d, s, unit_loss).value
            for s in enumerate_deterministic(d, m.states, full_history_spec(d))
        )
        assert dp.value == pytest.approx(best_true, abs=1e-9)


def test_dp_matches_bruteforce_on_random_identified_instances():
    rng = np.random.default_rng(77)
    done = 0
    while done < 30:
        d = random_staged_diagram(rng, max_stages=2)
        full = full_history_spec(d)
        dn = normalize_parents(d, full)
        if decide_identifiability(dn, full).verdict is IdentifiabilityVerdict.NOT_GUARANTEED:
            continue
        m = random_model(rng, dn, state_choices=(2,))
        k = loss_function(rng.uniform(-1, 1, 2), "Y")
        oc = observational_conditionals(m, dn)
        dp = optimize_backward(oc, dn, k, full)
        bf = optimize_bruteforce(oc, dn, k, full)
        assert dp.value == bf.value  # identical arithmetic, no tolerance
        assert any(strategies_equal(dp.strategy, s) for s in bf.argmax)
        assert dp.value == evaluate_g_recursion(oc, dp.strategy, k).value
        done += 1


def test_more_information_never_hurts():
    rng = np.random.default_rng(78)
    done = 0
    while done < 20:
        d = random_staged_diagram(rng, max_stages=2)
        full = full_history_spec(d)
        dn = normalize_parents(d, full)
        if decide_identifiability(dn, full).verdict is IdentifiabilityVerdict.NOT_GUARANTEED:
            continue
        m = random_model(rng, dn, state_choices=(2,))
        k = loss_function(rng.uniform(-1, 1, 2), "Y")
        oc = observational_conditionals(m, dn)
        dp = optimize_backward(oc, dn, k, full)
        from seqident.fuzz import random_parent_spec

        sub = random_parent_spec(rng, dn, p_keep=0.4)
        bf = optimize_bruteforce(oc, dn, k, sub)
        assert bf.value <= dp.value + 1e-12
        done += 1


def _block_diagram(rng, n_stages):
    # up to three covariates per stage, so covariate blocks span several variables
    variables = []
    for i in range(1, n_stages + 1):
        if rng.random() < 0.3:
            variables.append((f"U{i}", "hidden", i))
        variables.extend((f"L{i}_{j}", "covariate", i) for j in range(int(rng.integers(0, 4))))
        variables.append((f"A{i}", "action", i))
    variables.append(("Y", "outcome", n_stages + 1))
    labels = [v[0] for v in variables]
    edges = [
        (labels[a], labels[b])
        for a in range(len(labels))
        for b in range(a + 1, len(labels))
        if rng.random() < 0.5
    ]
    return staged_diagram(n_stages, variables, edges)


def _zero_column(m, action, state):
    t = m.cpts[action].copy()
    t[..., state] = 0.0
    cpts = dict(m.cpts, **{action: t / t.sum(axis=-1, keepdims=True)})
    return DiscreteModel(states=dict(m.states), cpts=cpts)


def _assert_matches_reference(oc, d, k, spec):
    ref, values = bruteforce_reference(oc, d, k, spec)
    stream = enumerate_deterministic(d, oc.states, spec)
    batched = np.concatenate([v for _, v in _candidate_values(oc, stream, k)])
    assert batched.tobytes() == np.array(values).tobytes()  # no tolerance
    bf = optimize_bruteforce(oc, d, k, spec)
    assert repr(bf.value) == repr(ref.value)
    assert [s.name for s in bf.argmax] == [s.name for s in ref.argmax]
    assert all(strategies_equal(a, b) for a, b in zip(bf.argmax, ref.argmax, strict=True))
    assert bf.strategy is bf.argmax[0]


def _assert_same_error(oc, d, k, spec):
    with pytest.raises(SeqidentError) as want:
        bruteforce_reference(oc, d, k, spec)
    with pytest.raises(type(want.value)) as got:
        optimize_bruteforce(oc, d, k, spec)
    assert str(got.value) == str(want.value)


class TestBatchedBruteForce:
    """The chunked search against the one-strategy-at-a-time reference."""

    @pytest.mark.parametrize(
        "spec, cells",
        [
            ("full", None),
            ("full", 40),
            ("none", 1),
            ("A2:L2", 1),
            ("A2:A1,L2", None),
            ("A2:A1,L2", 1),
        ],
    )
    @pytest.mark.parametrize("loss", [(0.25, -1.5), (1.5, 1.5)])
    def test_fig2b_matches_reference(self, fig2b, fig2b_model, monkeypatch, spec, loss, cells):
        # small cell budgets split the search into many chunks, down to one
        # strategy each; the constant loss makes near-ties across chunks
        import seqident.optimize

        if cells is not None:
            monkeypatch.setattr(seqident.optimize, "_CHUNK_CELLS", cells)
        oc = observational_conditionals(fig2b_model, fig2b)
        _assert_matches_reference(oc, fig2b, loss_function(list(loss), "Y"), _spec(fig2b, spec))

    @pytest.mark.parametrize("spec", ["full", "none"])
    def test_dominance_matches_reference(self, dominance, unit_loss, spec):
        d, m = dominance
        _assert_matches_reference(observational_conditionals(m, d), d, unit_loss, _spec(d, spec))

    def test_random_block_diagrams_match_reference(self):
        rng = np.random.default_rng(303)
        done = 0
        while done < 36:
            d = _block_diagram(rng, int(rng.integers(2, 4)))
            m = random_model(rng, d, state_choices=((2,), (3,), (2, 3))[done % 3])
            spec = random_parent_spec(rng, d, p_keep=0.3)
            if not _small(d, m, spec):
                continue
            k = loss_function(rng.uniform(-1, 1, m.states["Y"]), "Y")
            _assert_matches_reference(observational_conditionals(m, d), d, k, spec)
            done += 1

    @pytest.mark.parametrize("action, state", [("A1", 0), ("A1", 1), ("A2", 0), ("A2", 1)])
    @pytest.mark.parametrize("spec", ["full", "none", "A2:L2"])
    def test_fig2b_zeroed_column_raises_like_reference(
        self, fig2b, fig2b_model, unit_loss, action, state, spec
    ):
        oc = observational_conditionals(_zero_column(fig2b_model, action, state), fig2b)
        _assert_same_error(oc, fig2b, unit_loss, _spec(fig2b, spec))

    def test_random_zeroed_columns_raise_like_reference(self):
        rng = np.random.default_rng(304)
        done = 0
        while done < 30:
            d = _block_diagram(rng, int(rng.integers(2, 4)))
            m = random_model(rng, d, state_choices=(2, 3))
            spec = random_parent_spec(rng, d, p_keep=0.3)
            if not _small(d, m, spec):
                continue
            a = d.actions[int(rng.integers(len(d.actions)))]
            m = _zero_column(m, a, int(rng.integers(m.states[a])))
            k = loss_function(rng.uniform(-1, 1, m.states["Y"]), "Y")
            _assert_same_error(observational_conditionals(m, d), d, k, spec)
            done += 1

    def test_no_per_candidate_recursion_or_strategy(self, fig2b, fig2b_model, monkeypatch):
        import seqident.evaluate
        import seqident.optimize
        import seqident.strategy

        calls = Counter()

        def counted(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(seqident.evaluate, "evaluate_g_recursion")
        counted(seqident.evaluate, "check_recursion_support")
        counted(seqident.optimize, "check_recursion_support")
        counted(seqident.strategy, "_make")
        oc = observational_conditionals(fig2b_model, fig2b)
        full = full_history_spec(fig2b)
        bf = optimize_bruteforce(oc, fig2b, loss_function([0.0, 1.0], "Y"), full)
        assert enumerate_deterministic(fig2b, oc.states, full).count == 1024
        assert calls["evaluate_g_recursion"] == calls["check_recursion_support"] == 0
        assert 1 <= calls["_make"] <= len(bf.argmax)


def _small(d, m, spec):
    try:
        enumerate_deterministic(d, m.states, spec, cap=300)
    except EnumerationTooLarge:
        return False
    return True


def _spec(d, text):
    if text == "full":
        return full_history_spec(d)
    if text == "none":
        return unconditional_spec(d)
    action, parents = text.split(":")
    return parent_spec(d, {action: parents.split(",")})
