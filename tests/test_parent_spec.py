"""One rule for strategy parent specs: ``parent_spec`` checks each spec once
per diagram object, and every consumer reads the masks it stored."""

from __future__ import annotations

import numpy as np
import pytest

import seqident.diagram as diagram_module
import seqident.fuzz as fuzz_module
import seqident.stability as stability_module
import seqident.strategy as strategy_module
from seqident import (
    build_check_graph,
    build_pearl_robins_graph,
    check_assumptions,
    check_extended_stability,
    check_general,
    check_pearl_robins,
    check_simple_stability,
    decide_identifiability,
    enumerate_deterministic,
    full_history_spec,
    make_deterministic,
    make_stochastic,
    normalize_parents,
    observational_conditionals,
    optimize_bruteforce,
    parent_spec,
    parse_model_file,
    unconditional_spec,
)
from seqident.diagram import StrategyParentSpec, kernel_parent_order
from seqident.errors import InvalidParentSpec, UnknownLabel
from seqident.fuzz import random_strategy

# hand-built specs on fig2a_bite whose parent the diagram does not allow
_BAD_SPECS = {
    "hidden": (("A1", {"U1"}), ("A2", set()), "strategy for A1 may not consult hidden U1"),
    "outcome": (("A1", set()), ("A2", {"Y"}), "strategy for A2 may not consult the outcome Y"),
    "not realised": (("A1", {"L2"}), ("A2", set()), "L2 is not realised before A1"),
}

# every consumer of a spec, called on fig2a_bite
_SPEC_CALLS = {
    "kernel_parent_order": lambda pf, spec: kernel_parent_order(pf.diagram, spec, "A1"),
    "make_stochastic": lambda pf, spec: make_stochastic(
        pf.diagram, pf.model.states, spec, {"A1": np.full(2, 0.5), "A2": np.full(2, 0.5)}
    ),
    "make_deterministic": lambda pf, spec: make_deterministic(pf.diagram, pf.model.states, spec, {}),
    "enumerate_deterministic": lambda pf, spec: enumerate_deterministic(pf.diagram, pf.model.states, spec),
    "optimize_bruteforce": lambda pf, spec: optimize_bruteforce(
        observational_conditionals(pf.model, pf.diagram), pf.diagram, pf.loss, spec
    ),
    "random_strategy": lambda pf, spec: random_strategy(
        np.random.default_rng(0), pf.diagram, spec, pf.model.states
    ),
    "normalize_parents": lambda pf, spec: normalize_parents(pf.diagram, spec),
    "build_check_graph": lambda pf, spec: build_check_graph(pf.diagram, spec, 2),
    "build_pearl_robins_graph": lambda pf, spec: build_pearl_robins_graph(pf.diagram.dag, pf.diagram, spec, 2),
    "check_general": lambda pf, spec: check_general(pf.diagram, spec),
    "decide_identifiability": lambda pf, spec: decide_identifiability(pf.diagram, spec),
}


@pytest.mark.parametrize("call", sorted(_SPEC_CALLS))
@pytest.mark.parametrize("bad", sorted(_BAD_SPECS))
def test_hand_built_spec_refused_as_parent_spec_refuses_it(models_dir, bad, call):
    # the hidden-parent spec used to pass make_stochastic, after which the
    # g-recursion raised a bare ValueError and the oracle valued a strategy
    # that reads U1
    bite = parse_model_file((models_dir / "fig2a_bite.sid").read_text())
    *parents, message = _BAD_SPECS[bad]
    spec = StrategyParentSpec(parents=tuple((a, frozenset(ps)) for a, ps in parents))
    with pytest.raises(InvalidParentSpec, match=f"^{message}$"):
        parent_spec(bite.diagram, dict(spec.parents))
    with pytest.raises(InvalidParentSpec, match=f"^{message}$"):
        _SPEC_CALLS[call](bite, spec)


def _count_parent_spec(monkeypatch) -> list:
    """The diagram of every ``parent_spec`` call, wherever a module binds the name."""
    calls = []
    original = diagram_module.parent_spec

    def counted(d, mapping):
        calls.append(d)
        return original(d, mapping)

    for module in (diagram_module, stability_module):
        if hasattr(module, "parent_spec"):
            monkeypatch.setattr(module, "parent_spec", counted)
    return calls


def _consume(d, states, spec) -> None:
    """Every check, every stage's check graphs and a strategy, for one spec."""
    check_simple_stability(d)
    check_extended_stability(d)
    for check in (check_general, check_pearl_robins, check_assumptions):
        check(d, spec)
    decide_identifiability(d, spec)
    for i in range(d.n_stages + 1):
        build_check_graph(d, spec, i)
    for i in range(1, d.n_stages + 1):
        build_pearl_robins_graph(d.dag, d, spec, i)
    kernels = {
        a: np.full(tuple(states[p] for p in kernel_parent_order(d, spec, a)) + (states[a],), 0.5)
        for a in d.actions
    }
    make_stochastic(d, states, spec, kernels)


def test_one_check_per_diagram_object_and_spec(fig2a, monkeypatch):
    states = dict.fromkeys(fig2a.labels, 2)
    unconditional, full = unconditional_spec(fig2a), full_history_spec(fig2a)
    calls = _count_parent_spec(monkeypatch)
    # the unconditional spec passes the general criterion, so the verdict
    # also asks whether the spec is the full history
    for spec in (unconditional, full):
        _consume(fig2a, states, spec)
    assert calls == []
    dn = normalize_parents(fig2a, full)
    assert dn is not fig2a and calls == []
    _consume(dn, states, full)
    assert calls == [dn]


def test_random_deterministic_strategy_derives_each_parent_order_once(fig2b, fig2b_model, monkeypatch):
    calls = []

    def counted(d, spec, action):
        calls.append(action)
        return kernel_parent_order(d, spec, action)

    for module in (fuzz_module, strategy_module):
        monkeypatch.setattr(module, "kernel_parent_order", counted)
    s = random_strategy(
        np.random.default_rng(0), fig2b, full_history_spec(fig2b), fig2b_model.states, deterministic=True
    )
    assert calls == list(fig2b.actions)
    assert s.deterministic and s.parent_orders == (("L1",), ("L1", "A1", "L2"))


# hand-built specs on fig2b that list only its own actions, and what is wrong
_MISLISTED = {
    "out of order": ((("A2", {"L2"}), ("A1", set())), "the parent spec lists A2 out of stage order"),
    "twice": ((("A1", set()), ("A2", {"L2"}), ("A1", set())), "the parent spec lists A1 out of stage order"),
}


@pytest.mark.parametrize("call", ["kernel_parent_order", "check_general", "enumerate_deterministic"])
@pytest.mark.parametrize("case", sorted(_MISLISTED))
def test_a_misordered_spec_names_the_first_action_out_of_place(models_dir, case, call):
    # both used to be refused as listing actions the diagram lacks, which it does not
    pf = parse_model_file((models_dir / "fig2b.sid").read_text())
    parents, message = _MISLISTED[case]
    spec = StrategyParentSpec(parents=tuple((a, frozenset(ps)) for a, ps in parents))
    calls = {
        "kernel_parent_order": lambda: kernel_parent_order(pf.diagram, spec, "A1"),
        "check_general": lambda: check_general(pf.diagram, spec),
        "enumerate_deterministic": lambda: enumerate_deterministic(pf.diagram, pf.model.states, spec),
    }
    with pytest.raises(InvalidParentSpec, match=f"^{message}$"):
        calls[call]()


def test_a_spec_with_parent_tuples_is_refused_for_them(fig2b):
    spec = StrategyParentSpec(parents=(("A1", ()), ("A2", ("L2",))))
    with pytest.raises(InvalidParentSpec, match="^the parent spec's parent sets are not frozensets$"):
        kernel_parent_order(fig2b, spec, "A2")


def test_kernel_parent_order_of_a_non_action_names_it(fig2b):
    with pytest.raises(UnknownLabel, match="^no parent set for action 'L1'$"):
        kernel_parent_order(fig2b, full_history_spec(fig2b), "L1")
