from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from seqident import (
    enumerate_deterministic,
    evaluate_oracle,
    full_history_spec,
    kernel,
    make_deterministic,
    make_stochastic,
    make_unconditional,
    parent_spec,
    staged_diagram,
    strategies_equal,
    unconditional_spec,
)
from seqident.errors import (
    EnumerationTooLarge,
    MissingConfiguration,
    StateOutOfRange,
    UnknownLabel,
)
from seqident.diagram import kernel_parent_order
from seqident.fuzz import random_model, random_parent_spec, random_staged_diagram
import seqident.strategy as strategy_module
from seqident.strategy import MAX_ENUMERATION

from .oracles import assert_same_strategy, choice_tables_reference, deterministic_candidates


class TestConstructors:
    def test_unconditional_point_masses(self, fig2a, bite_model):
        s = make_unconditional(fig2a, bite_model.states, [1, 0])
        assert s.deterministic
        assert np.array_equal(s.kernel_table("A1"), [0.0, 1.0])
        assert np.array_equal(s.kernel_table("A2"), [1.0, 0.0])
        assert s.parents_of("A1") == () and s.parents_of("A2") == ()

    def test_unconditional_out_of_range(self, fig2a, bite_model):
        with pytest.raises(StateOutOfRange):
            make_unconditional(fig2a, bite_model.states, [2, 0])

    def test_deterministic_shape(self, fig2b, fig2b_model):
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
        assert s.kernel_table("A2").shape == (2, 2, 2, 2)
        assert s.deterministic

    def test_deterministic_missing_history(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        with pytest.raises(MissingConfiguration):
            make_deterministic(
                fig2b,
                fig2b_model.states,
                spec,
                {"A1": {(): 0}, "A2": {(0,): 1}},  # missing L2=1
            )

    def test_threshold_rule_rows(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_deterministic(
            fig2b,
            fig2b_model.states,
            spec,
            {"A1": {(): 0}, "A2": {(0,): 0, (1,): 1}},
        )
        table = s.kernel_table("A2")
        assert table[0, 0] == 1.0 and table[1, 1] == 1.0

    @pytest.mark.parametrize("val", [1.0, np.float64(1.0), 0.5, True, np.bool_(False), "1", None])
    def test_deterministic_rejects_non_integer_choice(self, fig2b, fig2b_model, val):
        # 1.0 used to end in a raw IndexError, and True was read as a mask
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        with pytest.raises(StateOutOfRange, match=r"^A2: .* at \(1,\) is not an integer state$"):
            make_deterministic(
                fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": {(0,): 1, (1,): val}}
            )

    def test_unconditional_needs_one_value_per_action(self, fig2b, fig2b_model):
        with pytest.raises(MissingConfiguration, match=r"^need one value per action, got 1 for 2$"):
            make_unconditional(fig2b, fig2b_model.states, [0])

    @pytest.mark.parametrize(("values", "a"), [([1.5, 0], "A1"), ([0, True], "A2")])
    def test_unconditional_rejects_non_integer_value(self, fig2b, fig2b_model, values, a):
        with pytest.raises(StateOutOfRange, match=rf"^{a}: .* at \(\) is not an integer state$"):
            make_unconditional(fig2b, fig2b_model.states, values)

    def test_deterministic_accepts_numpy_integers(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_deterministic(
            fig2b,
            fig2b_model.states,
            spec,
            {"A1": {(): np.int64(1)}, "A2": {(np.int8(0),): np.uint8(1), (1,): 0}},
        )
        assert np.array_equal(s.kernel_table("A1"), [0.0, 1.0])
        assert np.array_equal(s.kernel_table("A2"), [[0.0, 1.0], [1.0, 0.0]])

    def test_deterministic_out_of_range_names_history(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        with pytest.raises(StateOutOfRange, match=r"^A2 has 2 states, got -1 at \(0,\)$"):
            make_deterministic(
                fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": {(0,): -1, (1,): 0}}
            )

    @pytest.mark.parametrize("stray", [(7,), (0, 0), ()])
    def test_deterministic_rejects_stray_history(self, fig2b, fig2b_model, stray):
        # a choice for a history outside the parent configurations used to be ignored
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        chosen = {(0,): 0, (1,): 1, stray: 0}
        want = rf"^A2: choice for history {re.escape(repr(stray))} outside shape \(2,\)$"
        with pytest.raises(MissingConfiguration, match=want):
            make_deterministic(fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": chosen})

    def test_deterministic_missing_before_stray(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        with pytest.raises(MissingConfiguration, match=r"^A2: no choice for history \(1,\)$"):
            make_deterministic(
                fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": {(0,): 0, (7,): 1}}
            )

    def test_deterministic_rejects_unknown_action(self, fig2b, fig2b_model):
        # choices for an action the diagram lacks used to be ignored
        with pytest.raises(UnknownLabel, match="'A3'"):
            make_deterministic(
                fig2b,
                fig2b_model.states,
                unconditional_spec(fig2b),
                {"A1": {(): 0}, "A2": {(): 1}, "A3": {(): 0}},
            )

    def test_stochastic_row_round_trip(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_stochastic(
            fig2b,
            fig2b_model.states,
            spec,
            {"A1": np.array([0.25, 0.75]), "A2": np.array([[0.6, 0.4], [0.1, 0.9]])},
        )
        assert not s.deterministic
        row = kernel(s, "A1", {})
        assert np.array_equal(row, [0.25, 0.75])

    def test_unnormalised_rows_rejected(self, fig2b, fig2b_model):
        with pytest.raises(ValueError):
            make_stochastic(
                fig2b,
                fig2b_model.states,
                unconditional_spec(fig2b),
                {"A1": np.array([0.5, 0.4]), "A2": np.array([0.5, 0.5])},
            )

    @pytest.mark.parametrize(
        ("kernels", "error", "match"),
        [
            # a missing action used to end in a raw KeyError, and an unknown one was ignored
            ({"A1": [0.5, 0.5]}, MissingConfiguration, r"^A2: no kernel$"),
            ({"A1": [0.5, 0.5], "A2": [0.5, 0.5], "A9": [1.0]}, UnknownLabel, "'A9'"),
            (
                {"A1": [[0.5, 0.5]], "A2": [0.5, 0.5]},
                MissingConfiguration,
                r"^A1: kernel shape \(1, 2\), expected \(2,\)$",
            ),
        ],
    )
    def test_stochastic_needs_one_kernel_per_action(self, fig2b, fig2b_model, kernels, error, match):
        with pytest.raises(error, match=match):
            make_stochastic(fig2b, fig2b_model.states, unconditional_spec(fig2b), kernels)

    def test_overflowing_row_sum_rejected(self, fig2b, fig2b_model):
        # the sum overflows to inf, which used to raise numpy's overflow warning
        with pytest.raises(ValueError, match="^kernel rows for A1 are not normalised$"):
            make_stochastic(
                fig2b,
                fig2b_model.states,
                unconditional_spec(fig2b),
                {"A1": np.array([1e308, 1e308]), "A2": np.array([0.5, 0.5])},
            )

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 1.0], [-0.5, 1.5]])
    def test_bad_entries_rejected(self, fig2b, fig2b_model, row):
        # a NaN row sum used to pass the normalisation test, and a negative
        # entry can sum to one
        with pytest.raises(ValueError, match="finite and non-negative"):
            make_stochastic(
                fig2b,
                fig2b_model.states,
                unconditional_spec(fig2b),
                {"A1": np.array(row), "A2": np.array([0.5, 0.5])},
            )

    @pytest.mark.parametrize("build", ["make_stochastic", "make_deterministic"])
    def test_each_parent_order_derived_once(self, fig2b, fig2b_model, monkeypatch, build):
        # the shape check and the finished strategy used to derive it apart
        full = full_history_spec(fig2b)
        states = fig2b_model.states
        shapes = {a: tuple(states[p] for p in kernel_parent_order(fig2b, full, a)) for a in fig2b.actions}
        calls = []

        def counted(d, spec, action):
            calls.append(action)
            return kernel_parent_order(d, spec, action)

        monkeypatch.setattr(strategy_module, "kernel_parent_order", counted)
        if build == "make_stochastic":
            kernels = {a: np.full(shape + (2,), 0.5) for a, shape in shapes.items()}
            s = make_stochastic(fig2b, states, full, kernels)
        else:
            choices = {a: dict.fromkeys(np.ndindex(*shape), 0) for a, shape in shapes.items()}
            s = make_deterministic(fig2b, states, full, choices)
        assert calls == list(fig2b.actions)
        assert s.parent_orders == (("L1",), ("L1", "A1", "L2"))


class TestKernelLookup:
    def test_unconditional_same_row_everywhere(self, fig2a, bite_model):
        s = make_unconditional(fig2a, bite_model.states, [0, 1])
        assert np.array_equal(kernel(s, "A2", {}), kernel(s, "A2", {"A1": 1}))

    def test_missing_history_var(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_deterministic(
            fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": {(0,): 0, (1,): 1}}
        )
        with pytest.raises(MissingConfiguration):
            kernel(s, "A2", {"A1": 0})

    def test_unknown_action(self, fig2b, fig2b_model):
        s = make_unconditional(fig2b, fig2b_model.states, [0, 1])
        with pytest.raises(UnknownLabel, match="^strategy has no kernel for 'L1'$"):
            kernel(s, "L1", {})

    @pytest.mark.parametrize("state", [True, False, 1.0, np.float64(0.0), "1", None])
    def test_non_integer_state(self, fig2b, fig2b_model, state):
        # numpy reads True as a mask and 1.0 as a bad index
        s = make_stochastic(
            fig2b,
            fig2b_model.states,
            full_history_spec(fig2b),
            {"A1": np.full((2, 2), 0.5), "A2": np.full((2, 2, 2, 2), 0.5)},
        )
        assert kernel(s, "A2", {"L1": 0, "A1": np.int64(1), "L2": 1}).shape == (2,)
        with pytest.raises(MissingConfiguration, match="not an integer state"):
            kernel(s, "A2", {"L1": 0, "A1": 1, "L2": state})

    @pytest.mark.parametrize("state", [2, -1])
    def test_state_out_of_range(self, fig2b, fig2b_model, state):
        s = make_deterministic(
            fig2b, fig2b_model.states, parent_spec(fig2b, {"A2": ["L2"]}), {"A1": {(): 0}, "A2": {(0,): 0, (1,): 1}}
        )
        with pytest.raises(MissingConfiguration, match=rf"^L2={state} outside its 2 states$"):
            kernel(s, "A2", {"L2": state})

    def test_point_mass(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        s = make_deterministic(
            fig2b, fig2b_model.states, spec, {"A1": {(): 0}, "A2": {(0,): 0, (1,): 1}}
        )
        assert np.array_equal(kernel(s, "A2", {"L2": 1}), [0.0, 1.0])


class TestEnumeration:
    def test_single_binary_action(self):
        from seqident import staged_diagram

        d = staged_diagram(1, [("A1", "action", 1), ("Y", "outcome", 2)], [("A1", "Y")])
        enum = enumerate_deterministic(d, {"A1": 2, "Y": 2}, unconditional_spec(d))
        assert enum.count == 2
        assert sum(1 for _ in enum) == 2

    def test_count_law_example(self, fig2b, fig2b_model):
        spec = parent_spec(fig2b, {"A2": ["L2"]})
        enum = enumerate_deterministic(fig2b, fig2b_model.states, spec)
        assert enum.count == 2 * 2**2

    def test_full_history_count(self, fig2b, fig2b_model):
        enum = enumerate_deterministic(fig2b, fig2b_model.states, full_history_spec(fig2b))
        assert enum.count == 2**2 * 2**8 == 1024
        assert sum(1 for _ in enum) == 1024

    def test_lexicographic_order_and_names(self, fig2b):
        # mixed radix: A1 has three states and two rows, A2 two states and two rows
        states = {"L1": 2, "A1": 3, "L2": 2, "A2": 2, "Y": 2}
        spec = parent_spec(fig2b, {"A1": ["L1"], "A2": ["L2"]})
        got = [
            (s.name, tuple(int(c) for t in s.tables for c in np.argmax(t, axis=-1).ravel()))
            for s in enumerate_deterministic(fig2b, states, spec)
        ]
        rows = itertools.product(range(3), range(3), range(2), range(2))
        assert got == [(f"s{i}", r) for i, r in enumerate(rows)]

    def test_cap(self, fig2b, fig2b_model):
        with pytest.raises(EnumerationTooLarge) as exc:
            enumerate_deterministic(
                fig2b, fig2b_model.states, full_history_spec(fig2b), cap=100
            )
        assert exc.value.count == 1024
        assert str(exc.value) == "1024 strategies exceed the enumeration cap of 100"

    def test_cap_message_for_a_huge_count(self):
        # A1 sees 14 binary covariates: 2**(2**14) strategies, a 4933-digit count
        covs = [(f"L{j}", "covariate", 1) for j in range(14)]
        d = staged_diagram(
            1, covs + [("A1", "action", 1), ("Y", "outcome", 2)], [(c, "A1") for c, *_ in covs]
        )
        states = {v.label: 2 for v in d.vars}
        with pytest.raises(EnumerationTooLarge) as exc:
            enumerate_deterministic(d, states, full_history_spec(d))
        assert exc.value.count == 2 ** 2**14
        assert str(exc.value) == "over 10**4932 strategies exceed the enumeration cap of 1000000"

    @pytest.mark.parametrize("parents, count", [((2, 32), 2**64), ((7, 9), 2**63)])
    def test_count_beyond_int64_rejected_whatever_the_cap(self, parents, count):
        # A1 has 64 or 63 parent rows, so 2**64 or 2**63 strategies: past the last int64 index
        d, states = _one_action(parents, 2)
        with pytest.raises(EnumerationTooLarge) as exc:
            enumerate_deterministic(d, states, full_history_spec(d), cap=2**70)
        assert exc.value.count == count and exc.value.cap == MAX_ENUMERATION == 2**63 - 1
        assert str(exc.value) == f"{count} strategies exceed the enumeration cap of {2**63 - 1}"

    def test_stream_is_duplicate_free_and_valid(self):
        rng = np.random.default_rng(13)
        from seqident.fuzz import random_parent_spec

        for _ in range(10):
            d = random_staged_diagram(rng, max_stages=2)
            m = random_model(rng, d, state_choices=(2,))
            spec = random_parent_spec(rng, d, p_keep=0.3)
            enum = enumerate_deterministic(d, m.states, spec, cap=200)
            seen = []
            n = 0
            for s in enum:
                n += 1
                assert s.deterministic
                for a in d.actions:
                    rows = s.kernel_table(a).reshape(-1, m.states[a])
                    assert np.allclose(rows.sum(axis=1), 1.0)
                assert not any(strategies_equal(s, t) for t in seen)
                seen.append(s)
            assert n == enum.count

    def test_build_matches_independent_decoding(self):
        # batches out of order and with repeats, on random diagrams, specs and state counts
        rng = np.random.default_rng(41)
        from seqident.fuzz import random_parent_spec

        done = 0
        while done < 20:
            d = random_staged_diagram(rng, max_stages=3)
            m = random_model(rng, d, state_choices=((2,), (3,), (2, 3))[done % 3])
            spec = random_parent_spec(rng, d, p_keep=0.7)
            try:
                stream = enumerate_deterministic(d, m.states, spec, cap=2000)
            except EnumerationTooLarge:
                continue
            want = list(deterministic_candidates(d, m.states, spec))
            assert len(want) == stream.count
            idx = rng.integers(stream.count, size=int(rng.integers(1, 12))).tolist()
            for i, got in zip(idx, stream._build(idx), strict=True):
                assert_same_strategy(got, want[i])
            done += 1

    def test_built_strategies_own_their_tables(self, fig2b, fig2b_model):
        stream = enumerate_deterministic(fig2b, fig2b_model.states, full_history_spec(fig2b))
        built = list(stream._build([5, 5, 6]))
        # a view into the batch would keep every winner's rows alive with any one
        assert all(t.flags.owndata for s in built for t in s.tables)
        for s, t in itertools.combinations(built, 2):
            assert not any(np.shares_memory(a, b) for a in s.tables for b in t.tables)
        built[0].tables[1][...] = 0.0
        for s, fresh in zip(built[1:], stream._build([5, 6])):
            assert_same_strategy(s, fresh)

    def test_tables_match_row_by_row_reference(self):
        # random diagrams, parent sets and state counts; per action the first,
        # second and last choice table and random ones
        rng = np.random.default_rng(43)
        done = 0
        while done < 40:
            d = random_staged_diagram(rng, max_stages=3)
            states = {v.label: int(rng.integers(2, 5)) for v in d.vars}
            spec = random_parent_spec(rng, d, p_keep=float(rng.uniform(0.2, 1.0)))
            try:
                stream = enumerate_deterministic(d, states, spec, cap=MAX_ENUMERATION)
            except EnumerationTooLarge:
                continue
            for j, a in enumerate(d.actions):
                radix = stream._radices[j]
                idx = [0, 1, radix - 1] + rng.integers(radix, size=8).tolist()
                pshape = tuple(states[p] for p in kernel_parent_order(d, spec, a))
                got = stream._tables(j, idx)
                want = choice_tables_reference(states[a], pshape, idx)
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape == (len(idx),) + pshape
                assert np.array_equal(got, want)
            done += 1

    @pytest.mark.parametrize("parents, n, radix", [((2, 31), 2, 2**62), ((3, 13), 3, 3**39)])
    def test_tables_near_the_int64_limit(self, parents, n, radix):
        d, states = _one_action(parents, n)
        stream = enumerate_deterministic(d, states, full_history_spec(d), cap=2**70)
        assert stream._radices == (radix,) and stream.count == radix > 2**61
        rng = np.random.default_rng(44)
        idx = [0, 1, radix - 1, radix - 2, radix // 2] + rng.integers(radix, size=20).tolist()
        got = stream._tables(0, idx)
        assert np.array_equal(got, choice_tables_reference(n, parents, idx))
        assert (got[0] == 0).all() and (got[2] == n - 1).all()
        assert got[1].ravel()[-1] == 1 and (got[1].ravel()[:-1] == 0).all()

    def test_count_law_random(self):
        rng = np.random.default_rng(40)
        from seqident.fuzz import random_parent_spec
        import math

        for _ in range(10):
            d = random_staged_diagram(rng, max_stages=2)
            m = random_model(rng, d, state_choices=(2, 3))
            spec = random_parent_spec(rng, d, p_keep=0.3)
            want = 1
            for a in d.actions:
                n_cfg = math.prod(m.states[p] for p in spec.of(a))
                want *= m.states[a] ** n_cfg
            if want > 3000:
                continue
            enum = enumerate_deterministic(d, m.states, spec, cap=3000)
            assert enum.count == want == sum(1 for _ in enum)

    def test_unconditional_composes_with_oracle(self, fig2a, bite_model, unit_loss):
        # the two-row enumeration for each action reproduces every atomic plan
        values = {}
        for s in enumerate_deterministic(fig2a, bite_model.states, unconditional_spec(fig2a)):
            a1 = int(np.argmax(s.kernel_table("A1")))
            a2 = int(np.argmax(s.kernel_table("A2")))
            values[(a1, a2)] = evaluate_oracle(bite_model, fig2a, s, unit_loss).value
        for (a1, a2), got in values.items():
            fixed = make_unconditional(fig2a, bite_model.states, [a1, a2])
            assert got == evaluate_oracle(bite_model, fig2a, fixed, unit_loss).value
        assert len(values) == 4


def _one_action(parents: tuple[int, ...], n: int):
    """One stage whose action A1 has n states and one covariate parent per
    given state count."""
    variables = [(f"L{j}", "covariate", 1) for j in range(len(parents))]
    d = staged_diagram(
        1,
        variables + [("A1", "action", 1), ("Y", "outcome", 2)],
        [(v, "A1") for v, *_ in variables] + [("A1", "Y")],
    )
    states = {f"L{j}": k for j, k in enumerate(parents)} | {"A1": n, "Y": 2}
    return d, states
