from __future__ import annotations

import itertools

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
    strategies_equal,
    unconditional_spec,
)
from seqident.errors import (
    EnumerationTooLarge,
    MissingConfiguration,
    StateOutOfRange,
)
from seqident.fuzz import random_model, random_staged_diagram


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
