from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqident import (
    DiscreteModel,
    loss_function,
    make_stochastic,
    parent_spec,
    staged_diagram,
    validate_model,
)
from seqident.modelfile import (
    ModelFileError,
    ParsedModelFile,
    parse_model_file,
    serialize_model_file,
)

GRAPH_ONLY = """\
stages 1
var L1 covariate stage=1
var A1 action stage=1
var Y outcome stage=2
edge L1 -> A1
edge A1 -> Y
"""

FULL = """\
stages 1
var L1 covariate stage=1
var A1 action stage=1
var Y outcome stage=2
edge L1 -> A1
edge L1 -> Y
edge A1 -> Y

cpt L1 | - : 0.3 0.7
cpt A1 | L1 : 0.6 0.4
cpt A1 | L1 : 0.2 0.8
cpt Y | L1 A1 : 0.9 0.1
cpt Y | L1 A1 : 0.4 0.6
cpt Y | L1 A1 : 0.7 0.3
cpt Y | L1 A1 : 0.1 0.9

strategy go A1 | L1 : 1 0
strategy go A1 | L1 : 0 1

loss : 0 1
"""


class TestParse:
    def test_graph_only(self):
        pf = parse_model_file(GRAPH_ONLY)
        assert pf.model is None and pf.loss is None and pf.strategies is None
        assert pf.diagram.labels == ("L1", "A1", "Y")

    def test_full_file(self):
        pf = parse_model_file(FULL)
        assert pf.model is not None and pf.loss is not None
        assert validate_model(pf.model, pf.diagram) == ()
        assert pf.model.states == {"L1": 2, "A1": 2, "Y": 2}
        (s,) = pf.strategies
        assert s.name == "go"
        assert np.array_equal(s.kernel_table("A1"), [[1.0, 0.0], [0.0, 1.0]])
        assert pf.strategy_specs["go"].of("A1") == {"L1"}
        assert np.array_equal(pf.loss.values, [0.0, 1.0])

    def test_misspelled_kind_is_positioned(self):
        text = GRAPH_ONLY.replace("var L1 covariate", "var L1 covarite")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        issue = next(i for i in exc.value.issues if "covarite" in i.message)
        assert issue.line == 2
        assert issue.col == 8

    def test_reserved_regime_name(self):
        text = GRAPH_ONLY + "var sigma covariate stage=1\n"
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert any("reserved" in i.message for i in exc.value.issues)

    def test_undeclared_edge_endpoint(self):
        text = GRAPH_ONLY + "edge A1 -> Z9\n"
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert any("Z9" in i.message for i in exc.value.issues)

    def test_bad_number(self):
        text = FULL.replace("cpt L1 | - : 0.3 0.7", "cpt L1 | - : 0.3 seven")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert any("seven" in i.message for i in exc.value.issues)

    def test_wrong_row_count(self):
        text = FULL.replace("cpt A1 | L1 : 0.2 0.8\n", "")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert any("rows" in i.message for i in exc.value.issues)

    def test_incomplete_cpt_section(self):
        text = GRAPH_ONLY + "cpt L1 | - : 0.5 0.5\n"
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert any("incomplete" in i.message for i in exc.value.issues)

    def test_missing_stages(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model_file("var A1 action stage=1\n")
        assert any("stages" in i.message for i in exc.value.issues)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_loss_is_positioned(self, value):
        text = FULL.replace("loss : 0 1", f"loss : {value} 1")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        (issue,) = exc.value.issues
        assert (issue.line, issue.col) == (text.splitlines().index(f"loss : {value} 1") + 1, 1)
        assert "finite" in issue.message

    @pytest.mark.parametrize("row", ["nan 1", "-0.5 1.5"])
    def test_bad_strategy_entries_are_positioned(self, row):
        text = FULL.replace("strategy go A1 | L1 : 1 0", f"strategy go A1 | L1 : {row}")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        (issue,) = exc.value.issues
        line = text.splitlines().index(f"strategy go A1 | L1 : {row}") + 1
        assert (issue.line, issue.col) == (line, 1)
        assert "finite and non-negative" in issue.message

    def test_stage_count_over_node_cap(self):
        from seqident.graph import MAX_NODES

        assert parse_model_file(GRAPH_ONLY.replace("stages 1", f"stages {MAX_NODES - 1}"))
        text = GRAPH_ONLY.replace("stages 1", "stages 99999999")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        (issue,) = exc.value.issues
        assert (issue.line, issue.col) == (1, 8)
        assert str(MAX_NODES) in issue.message

    @pytest.mark.parametrize("count", ["\u00b2", "\u2167", "1.5", "-1", "x"])
    def test_stage_count_must_be_decimal_digits(self, count):
        # str.isdigit accepts a superscript two, which int() then rejects
        text = GRAPH_ONLY.replace("stages 1", f"stages {count}")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert str(exc.value.issues[0]) == "line 1, col 1: expected 'stages <N>'"

    def test_loss_without_outcome_is_located(self, models_dir):
        text = (models_dir / "fig2b.sid").read_text()
        text = text.replace("var Y outcome stage=3", "var Y covariate stage=3")
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert [str(i) for i in exc.value.issues] == [
            "line 49, col 1: loss needs an outcome variable"
        ]

    def test_multiple_errors_collected(self):
        text = "stages 1\nvar A1 act stage=1\nvar A1 action stage=x\n"
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        assert len(exc.value.issues) >= 2

    @pytest.mark.parametrize(
        "old, new, col, message",
        [
            ("cpt L1 | - : 0.3 0.7", "cpt L1 A1 | - : 0.3 0.7", 8, "'A1' before '|'"),
            ("strategy go A1 | L1 : 1 0", "strategy go A1 L1 | L1 : 1 0", 16, "'L1' before '|'"),
            ("loss : 0 1", "loss junk : 0 1", 6, "'junk' before ':'"),
        ],
    )
    def test_stray_token_is_located(self, old, new, col, message):
        text = FULL.replace(old, new, 1)
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        line = text.splitlines().index(new) + 1
        assert [str(i) for i in exc.value.issues] == [
            f"line {line}, col {col}: unexpected token {message}"
        ]

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_lines_break_only_at_newlines(self, brk):
        # U+0085, a break for str.splitlines, stays inside the comment
        text = "stages 1\n# \x85 note\nvar A1 actoin stage=1\n".replace("\n", brk)
        with pytest.raises(ModelFileError) as exc:
            parse_model_file(text)
        (issue,) = exc.value.issues
        assert str(issue).startswith("line 3, col 8: unknown kind 'actoin'")
        assert parse_model_file(FULL.replace("\n", brk)).loss is not None

    def test_strategy_without_model_keeps_spec(self):
        text = GRAPH_ONLY + "strategy go A1 | L1 : 1 0\nstrategy go A1 | L1 : 0 1\n"
        pf = parse_model_file(text)
        assert pf.strategies is None
        assert pf.strategy_specs["go"].of("A1") == {"L1"}


class TestRoundTrip:
    def test_full_file_round_trip(self):
        pf = parse_model_file(FULL)
        text = serialize_model_file(pf)
        pf2 = parse_model_file(text)
        assert pf2.diagram == pf.diagram
        assert pf2.model.states == pf.model.states
        for v in pf.diagram.labels:
            assert np.array_equal(pf2.model.cpts[v], pf.model.cpts[v])
        assert np.array_equal(pf2.loss.values, pf.loss.values)
        (s1,), (s2,) = pf.strategies, pf2.strategies
        assert np.array_equal(s1.kernel_table("A1"), s2.kernel_table("A1"))
        assert serialize_model_file(pf2) == text

    def test_shipped_fixtures_round_trip(self, models_dir):
        for name in ("fig2a", "fig2b", "fig2a_bite", "dominance"):
            text = (models_dir / f"{name}.sid").read_text()
            pf = parse_model_file(text)
            again = parse_model_file(serialize_model_file(pf))
            assert again.diagram == pf.diagram
            if pf.model is not None:
                for v in pf.diagram.labels:
                    assert np.array_equal(again.model.cpts[v], pf.model.cpts[v])

    def test_noncanonical_parent_order_normalises(self):
        # same rows, parents listed backwards: configs follow the written
        # order, content must land identically after canonicalisation
        reordered = FULL.replace(
            """cpt Y | L1 A1 : 0.9 0.1
cpt Y | L1 A1 : 0.4 0.6
cpt Y | L1 A1 : 0.7 0.3
cpt Y | L1 A1 : 0.1 0.9""",
            """cpt Y | A1 L1 : 0.9 0.1
cpt Y | A1 L1 : 0.7 0.3
cpt Y | A1 L1 : 0.4 0.6
cpt Y | A1 L1 : 0.1 0.9""",
        )
        a = parse_model_file(FULL)
        b = parse_model_file(reordered)
        assert np.array_equal(a.model.cpts["Y"], b.model.cpts["Y"])


def test_random_models_round_trip():
    # serialize/parse over randomly generated diagrams, models, strategies,
    # and losses; content must survive exactly (repr round-trips floats)
    from seqident.fuzz import (
        random_loss,
        random_model,
        random_parent_spec,
        random_staged_diagram,
        random_strategy,
    )
    from seqident.modelfile import ParsedModelFile

    rng = np.random.default_rng(424)
    for _ in range(25):
        d = random_staged_diagram(rng)
        m = random_model(rng, d)
        spec = random_parent_spec(rng, d)
        strategies = (
            random_strategy(rng, d, spec, m.states, deterministic=bool(rng.integers(2)), name="s0"),
        )
        loss = random_loss(rng, m.states, d.outcome_label)
        pf = ParsedModelFile(
            diagram=d,
            model=m,
            strategies=strategies,
            loss=loss,
            strategy_specs={"s0": spec},
        )
        text = serialize_model_file(pf)
        back = parse_model_file(text)
        assert back.diagram == d
        assert back.model.states == m.states
        for v in d.labels:
            assert np.array_equal(back.model.cpts[v], m.cpts[v]), v
        (s,) = back.strategies
        for a in d.actions:
            assert np.array_equal(s.kernel_table(a), strategies[0].kernel_table(a))
            assert s.parents_of(a) == strategies[0].parents_of(a)
        assert np.array_equal(back.loss.values, loss.values)
        assert serialize_model_file(back) == text


class TestFixtureFilesMatchCode:
    def test_fig2a_file_matches_fixture(self, models_dir, fig2a):
        pf = parse_model_file((models_dir / "fig2a.sid").read_text())
        assert pf.diagram == fig2a

    def test_fig2b_file_matches_fixture(self, models_dir, fig2b, fig2b_model):
        pf = parse_model_file((models_dir / "fig2b.sid").read_text())
        assert pf.diagram == fig2b
        for v in fig2b.labels:
            assert np.array_equal(pf.model.cpts[v], fig2b_model.cpts[v])

    def test_bite_file_matches_fixture(self, models_dir, fig2a, bite_model):
        pf = parse_model_file((models_dir / "fig2a_bite.sid").read_text())
        assert pf.diagram == fig2a
        for v in fig2a.labels:
            assert np.array_equal(pf.model.cpts[v], bite_model.cpts[v])

    def test_dominance_file_matches_fixture(self, models_dir, dominance):
        d, m = dominance
        pf = parse_model_file((models_dir / "dominance.sid").read_text())
        assert pf.diagram == d
        for v in d.labels:
            assert np.array_equal(pf.model.cpts[v], m.cpts[v])


@st.composite
def _parsed_files(draw):
    n = draw(st.integers(1, 3))
    variables = []
    for i in range(1, n + 1):
        if draw(st.booleans()):
            variables.append((f"U{i}", "hidden", i))
        variables.extend((f"L{i}_{j}", "covariate", i) for j in range(draw(st.integers(0, 2))))
        variables.append((f"A{i}", "action", i))
    variables.append(("Y", "outcome", n + 1))
    labels = [v[0] for v in variables]

    def subset(pool):
        return draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []

    edges = [(p, child) for j, child in enumerate(labels) for p in subset(labels[:j])]
    d = staged_diagram(n, variables, edges)
    states = {v: draw(st.integers(2, 3)) for v in labels}

    def rows(shape):
        size = int(np.prod(shape))
        arr = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        arr = arr.reshape(shape)
        arr[arr.sum(axis=-1) == 0.0] = 1.0
        return arr / arr.sum(axis=-1, keepdims=True)

    cpts = {v: rows(tuple(states[p] for p in d.parents[v]) + (states[v],)) for v in labels}
    mapping = {
        a: subset(d.actions_before(i) + d.covariates_through(i))
        for i, a in enumerate(d.actions, start=1)
    }
    spec = parent_spec(d, mapping)
    kernels = {}
    for a in d.actions:
        parents = sorted(spec.of(a), key=d.position.__getitem__)
        kernels[a] = rows(tuple(states[p] for p in parents) + (states[a],))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    loss = draw(st.lists(finite, min_size=states["Y"], max_size=states["Y"]))
    return ParsedModelFile(
        diagram=d,
        model=DiscreteModel(states=states, cpts=cpts),
        strategies=(make_stochastic(d, states, spec, kernels, "s0"),),
        loss=loss_function(loss, "Y"),
        strategy_specs={"s0": spec},
    )


@settings(max_examples=40, deadline=None)
@given(_parsed_files())
def test_generated_files_round_trip(pf):
    text = serialize_model_file(pf)
    back = parse_model_file(text)
    assert back.diagram == pf.diagram
    assert back.model.states == pf.model.states
    for v in pf.diagram.labels:
        assert np.array_equal(back.model.cpts[v], pf.model.cpts[v]), v
    (s,), (t,) = back.strategies, pf.strategies
    assert s.name == t.name and s.parent_orders == t.parent_orders
    assert all(np.array_equal(a, b) for a, b in zip(s.tables, t.tables, strict=True))
    assert back.strategy_specs == pf.strategy_specs
    assert np.array_equal(back.loss.values, pf.loss.values)
    assert serialize_model_file(back) == text
