from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqident import (
    DiscreteModel,
    check_general,
    evaluate_decomposition,
    evaluate_g_recursion,
    evaluate_oracle,
    full_history_spec,
    joint,
    loss_function,
    make_deterministic,
    make_unconditional,
    marginal,
    observational_conditionals,
    optimize_backward,
    optimize_bruteforce,
    parse_model_file,
    staged_diagram,
)
from seqident import prob
from seqident.errors import PositivityViolation, SeqidentError
from seqident.fuzz import (
    random_model,
    random_parent_spec,
    random_staged_diagram,
    random_strategy,
)

from .oracles import brute_conditional, brute_joint, from_observational


class TestObservationalConditionals:
    def test_hidden_free_matches_cpts(self, fig2b, fig2b_model):
        oc = observational_conditionals(fig2b_model, fig2b)
        assert np.allclose(oc.tables[0], fig2b_model.cpts["L1"])
        assert all(m.all() for m in oc.masks)

    def test_hidden_mixture(self, fig2a, bite_model):
        # p(L2 | A1) must mix the hidden variable by its posterior given A1
        oc = observational_conditionals(bite_model, fig2a)
        bj = brute_joint(fig2a, bite_model)
        want0 = brute_conditional(bj, fig2a.labels, "L2", 2, {"A1": 0})
        want1 = brute_conditional(bj, fig2a.labels, "L2", 2, {"A1": 1})
        assert np.allclose(oc.tables[1][0], want0, atol=1e-12)
        assert np.allclose(oc.tables[1][1], want1, atol=1e-12)
        # hand mixture: p(u | a1=0) = (0.95, 0.05), p(l2=1|u,a1=0) = (0.1, 0.9)
        assert oc.tables[1][0][1] == pytest.approx(0.95 * 0.1 + 0.05 * 0.9, abs=1e-12)

    def test_masked_rows(self, fig2b, fig2b_model):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["L1"] = np.array([1.0, 0.0])
        oc = observational_conditionals(m, fig2b)
        # histories with L1=1 never happen
        assert not oc.masks[1][1].any()
        assert oc.masks[1][0].all()
        assert np.all(oc.tables[1][1] == 0.0)


class TestGRecursion:
    def test_constant_loss(self, fig2b, fig2b_model):
        oc = observational_conditionals(fig2b_model, fig2b)
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
            r = evaluate_g_recursion(oc, s, loss_function([3.25, 3.25], "Y"))
            assert r.value == pytest.approx(3.25, abs=1e-12)

    def test_observational_policy_reduction(self, fig2b, fig2b_model, unit_loss):
        # hidden-free model: following the observational policy must give the
        # plain observational expectation
        oc = observational_conditionals(fig2b_model, fig2b)
        s = from_observational(fig2b_model, fig2b)
        want = marginal(joint(fig2b_model, fig2b), ["Y"]).table[1]
        got = evaluate_g_recursion(oc, s, unit_loss).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_identified_equals_oracle(self, fig2b, fig2b_model, unit_loss):
        oc = observational_conditionals(fig2b_model, fig2b)
        s = make_deterministic(
            fig2b,
            fig2b_model.states,
            full_history_spec(fig2b),
            {
                "A1": {(l1,): 0 for l1 in range(2)},
                "A2": {(l1, a1, l2): l2 for l1 in range(2) for a1 in range(2) for l2 in range(2)},
            },
        )
        g = evaluate_g_recursion(oc, s, unit_loss).value
        o = evaluate_oracle(fig2b_model, fig2b, s, unit_loss).value
        assert g == pytest.approx(o, abs=1e-12)

    def test_linear_in_loss(self, fig2b, fig2b_model):
        oc = observational_conditionals(fig2b_model, fig2b)
        rng = np.random.default_rng(8)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
        k1 = rng.uniform(-1, 1, 2)
        k2 = rng.uniform(-1, 1, 2)
        alpha = float(rng.uniform(-2, 2))
        v1 = evaluate_g_recursion(oc, s, loss_function(k1, "Y")).value
        v2 = evaluate_g_recursion(oc, s, loss_function(k2, "Y")).value
        v12 = evaluate_g_recursion(oc, s, loss_function(alpha * k1 + k2, "Y")).value
        assert v12 == pytest.approx(alpha * v1 + v2, abs=1e-9)

    def test_nonidentified_gap(self, fig2a, bite_model, unit_loss):
        oc = observational_conditionals(bite_model, fig2a)
        s = make_deterministic(
            fig2a,
            bite_model.states,
            full_history_spec(fig2a),
            {"A1": {(): 0}, "A2": {(a1, l2): l2 for a1 in range(2) for l2 in range(2)}},
        )
        g = evaluate_g_recursion(oc, s, unit_loss).value
        o = evaluate_oracle(bite_model, fig2a, s, unit_loss).value
        assert o == pytest.approx(0.5, abs=1e-12)
        assert g == pytest.approx(0.212, abs=1e-12)
        assert abs(g - o) > 1e-3

    def test_positivity_violation_detected(self, fig2b, fig2b_model, unit_loss):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["A2"] = np.array([[0.55, 0.45], [1.0, 0.0]])  # A2=1 unseen at L2=1
        oc = observational_conditionals(m, fig2b)
        s = make_unconditional(fig2b, m.states, [0, 1])
        with pytest.raises(PositivityViolation) as exc:
            evaluate_g_recursion(oc, s, unit_loss)
        assert exc.value.stage == 2
        assert exc.value.action_state == 1
        assert exc.value.history.get("L2") == 1

    def test_masked_history_raises_when_reachable(self, fig2b, fig2b_model, unit_loss):
        # an oc built from a different support than the strategy walks
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["L1"] = np.array([1.0, 0.0])
        oc = observational_conditionals(m, fig2b)
        # doctor the mask so the L1=1 branch looks reachable but undefined
        s = from_observational(fig2b_model, fig2b)
        oc.masks[0][()] = True  # stage-1 mask over the empty history
        oc.tables[0][:] = np.array([0.5, 0.5])  # pretend L1 can be 1
        with pytest.raises(PositivityViolation):
            evaluate_g_recursion(oc, s, unit_loss)

    def test_unreachable_branches_are_skipped(self, fig2b, fig2b_model, unit_loss):
        # strategy never plays A1=1, so missing observational support there
        # must not matter as long as the strategy stays inside the support
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        oc = observational_conditionals(m, fig2b)
        s = make_deterministic(
            fig2b,
            m.states,
            full_history_spec(fig2b),
            {
                "A1": {(l1,): 0 for l1 in range(2)},
                "A2": {(l1, a1, l2): 0 for l1 in range(2) for a1 in range(2) for l2 in range(2)},
            },
        )
        got = evaluate_g_recursion(oc, s, unit_loss).value
        want = evaluate_oracle(m, fig2b, s, unit_loss).value
        assert got == pytest.approx(want, abs=1e-12)


_ENTRY_POINTS = {
    "grecursion": lambda m, d, s, k: evaluate_g_recursion(observational_conditionals(m, d), s, k),
    "oracle": evaluate_oracle,
    "decomposition": evaluate_decomposition,
    "backward": lambda m, d, s, k: optimize_backward(
        observational_conditionals(m, d), d, k, full_history_spec(d)
    ),
    "bruteforce": lambda m, d, s, k: optimize_bruteforce(
        observational_conditionals(m, d), d, k, full_history_spec(d)
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "values, outcome, message",
    [([0, 1], "L1", "loss is over 'L1', not the outcome 'Y'"),
     ([0, 1, 2], "Y", "loss has 3 entries, outcome 'Y' has 2 states")],
)
def test_mismatched_loss_is_refused(fig2b, fig2b_model, entry, values, outcome, message):
    s = make_unconditional(fig2b, fig2b_model.states, [1, 0])
    with pytest.raises(ValueError) as exc:
        _ENTRY_POINTS[entry](fig2b_model, fig2b, s, loss_function(values, outcome))
    assert str(exc.value) == message


class TestDecomposition:
    def test_single_step_point_mass(self):
        d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y")])
        m = DiscreteModel(
            states={"A1": 2, "Y": 2},
            cpts={"A1": np.array([0.5, 0.5]), "Y": np.array([[0.8, 0.2], [0.3, 0.7]])},
        )
        s = make_unconditional(d, m.states, [1])
        k = loss_function([0, 1], "Y")
        assert evaluate_decomposition(m, d, s, k).value == pytest.approx(0.7, abs=1e-12)

    def test_equals_oracle_on_fixture(self, fig2b, fig2b_model, unit_loss):
        s = make_deterministic(
            fig2b,
            fig2b_model.states,
            full_history_spec(fig2b),
            {
                "A1": {(l1,): l1 for l1 in range(2)},
                "A2": {(l1, a1, l2): l2 for l1 in range(2) for a1 in range(2) for l2 in range(2)},
            },
        )
        dec = evaluate_decomposition(fig2b_model, fig2b, s, unit_loss).value
        o = evaluate_oracle(fig2b_model, fig2b, s, unit_loss).value
        assert dec == pytest.approx(o, abs=1e-12)

    def test_rejects_stochastic(self, fig2b, fig2b_model, unit_loss):
        rng = np.random.default_rng(5)
        s = random_strategy(rng, fig2b, full_history_spec(fig2b), fig2b_model.states)
        with pytest.raises(ValueError):
            evaluate_decomposition(fig2b_model, fig2b, s, unit_loss)

    def test_unreachable_covariate_term_skipped(self, fig2b, fig2b_model, unit_loss):
        m = DiscreteModel(states=dict(fig2b_model.states), cpts=dict(fig2b_model.cpts))
        m.cpts["L1"] = np.array([1.0, 0.0])
        s = make_deterministic(
            fig2b,
            m.states,
            full_history_spec(fig2b),
            {
                "A1": {(l1,): 0 for l1 in range(2)},
                "A2": {(l1, a1, l2): l2 for l1 in range(2) for a1 in range(2) for l2 in range(2)},
            },
        )
        dec = evaluate_decomposition(m, fig2b, s, unit_loss).value
        o = evaluate_oracle(m, fig2b, s, unit_loss).value
        assert dec == pytest.approx(o, abs=1e-12)


def test_recursion_matches_dict_based_recursion():
    # same backward computation written over dict histories instead of dense
    # arrays; must agree whether or not the instance is identified
    from .oracles import brute_g_recursion

    rng = np.random.default_rng(62)
    for _ in range(20):
        d = random_staged_diagram(rng, max_stages=2)
        spec = random_parent_spec(rng, d)
        m = random_model(rng, d, state_choices=(2,))
        s = random_strategy(rng, d, spec, m.states, deterministic=bool(rng.integers(2)))
        k = loss_function(rng.uniform(-1, 1, m.states[d.outcome_label]), d.outcome_label)
        oc = observational_conditionals(m, d)
        got = evaluate_g_recursion(oc, s, k).value
        want = brute_g_recursion(d, m, s, k.values)
        assert got == pytest.approx(want, abs=1e-10)


def test_identified_random_instances_agree_with_oracle():
    # in-suite version of the central numeric property
    rng = np.random.default_rng(61)
    agree = 0
    for _ in range(60):
        d = random_staged_diagram(rng)
        spec = random_parent_spec(rng, d)
        if not check_general(d, spec).passed:
            continue
        m = random_model(rng, d)
        s = random_strategy(rng, d, spec, m.states, deterministic=bool(rng.integers(2)))
        k = loss_function(rng.uniform(-1, 1, m.states[d.outcome_label]), d.outcome_label)
        oc = observational_conditionals(m, d)
        g = evaluate_g_recursion(oc, s, k).value
        o = evaluate_oracle(m, d, s, k).value
        assert abs(g - o) <= 1e-9, (d.labels, d.edges)
        agree += 1
    assert agree >= 20


RECURSION_DUMP = Path(__file__).resolve().parent / "recursion_dump.json"


def _float_table(arr) -> dict:
    arr = np.asarray(arr)
    return {"shape": list(arr.shape), "hex": [float(x).hex() for x in arr.ravel()]}


def _outcome(compute) -> object:
    try:
        return compute()
    except SeqidentError as exc:
        return f"{type(exc).__name__}: {exc}"


def _backward_record(oc, d, k) -> dict:
    r = optimize_backward(oc, d, k, full_history_spec(d))
    return {
        "value": r.value.hex(),
        "choices": {a: {"dtype": str(t.dtype), **_float_table(t)} for a, t in r.choices.items()},
        "choice_values": {a: _float_table(t) for a, t in r.choice_values.items()},
        "unreached": {a: t.astype(int).tolist() for a, t in r.unreached.items()},
    }


def _recursion_records(text: str) -> dict:
    """g-recursion values and backward-induction results on one model file:
    the file's strategies plus seeded random ones, two losses, the model as
    written and with each action's first state never observed."""
    pf = parse_model_file(text)
    d, m = pf.diagram, pf.model
    y = d.outcome_label
    rng = np.random.default_rng(2012)
    full = full_history_spec(d)
    strategies = list(pf.strategies or ())
    strategies += [random_strategy(rng, d, full, m.states, deterministic=det) for det in (False, True)]
    strategies += [random_strategy(rng, d, random_parent_spec(rng, d), m.states) for _ in range(2)]
    losses = [pf.loss, loss_function(np.linspace(-1.25, 2.0, m.states[y]), y)]
    models = {"as-written": m}
    for a in d.actions:
        t = m.cpts[a].copy()
        t[..., 0] = 0.0
        t = t / t.sum(axis=-1, keepdims=True)
        models[f"no-{a}=0"] = DiscreteModel(states=dict(m.states), cpts=dict(m.cpts, **{a: t}))
    out: dict = {}
    for mname, mm in models.items():
        oc = observational_conditionals(mm, d)
        for ki, k in enumerate(losses):
            for si, s in enumerate(strategies):
                out[f"{mname}/loss{ki}/g/{si}"] = _outcome(
                    lambda: evaluate_g_recursion(oc, s, k).value.hex()
                )
            out[f"{mname}/loss{ki}/backward"] = _outcome(lambda: _backward_record(oc, d, k))
    return out


def test_recursion_outputs_match_stored_dump(models_dir):
    # recursion_dump.json was written by _recursion_records on the code
    # before the three backward recursions shared one pass; every value,
    # choice and error message must be reproduced bit for bit
    want = json.loads(RECURSION_DUMP.read_text())
    got = {
        p.name: _recursion_records(p.read_text())
        for p in sorted(models_dir.glob("*.sid"))
        if "cpt " in p.read_text()
    }
    assert sorted(got) == sorted(want)
    for name in got:
        assert got[name] == want[name], name


def test_recursion_dump_with_one_cell_blocks(models_dir, monkeypatch):
    # the observed law summed one observed configuration at a time keeps every bit
    monkeypatch.setattr(prob, "BLOCK_CELLS", 1)
    test_recursion_outputs_match_stored_dump(models_dir)


def test_observational_conditionals_memory_ceiling():
    # four stages of a ternary hidden variable, covariate and action, and a
    # ternary outcome: 3**13 = 1.59M cells, whose dense joint is 12.2 MiB
    rng = np.random.default_rng(101)
    variables = [("Y", "outcome", 5)]
    for i in range(1, 5):
        variables += [(f"U{i}", "hidden", i), (f"L{i}", "covariate", i), (f"A{i}", "action", i)]
    labels = staged_diagram(4, variables, []).labels
    edges = []
    for k, b in enumerate(labels[1:], start=1):
        for j in rng.choice(k, size=min(k, 3), replace=False):
            edges.append((labels[int(j)], b))
    d = staged_diagram(4, variables, edges)
    m = random_model(rng, d, state_choices=(3,))
    assert np.prod(list(m.states.values())) == 3**13
    tracemalloc.start()
    try:
        oc = observational_conditionals(m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"
    assert oc.tables[-1].shape == (3,) * 9
