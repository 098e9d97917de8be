from __future__ import annotations

import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqident.cli import main

from .conftest import MODELS_DIR


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, models_dir):
        code, out, _ = run(capsys, "validate", str(models_dir / "fig2b.sid"))
        assert code == 0 and "ok" in out

    def test_violations_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.sid"
        p.write_text(
            "stages 1\nvar A1 action stage=1\nvar Y outcome stage=2\n"
            "var Z outcome stage=2\n"
        )
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and "MultipleOutcomes" in out

    def test_bad_probability_exit_one(self, capsys, tmp_path, models_dir):
        text = (models_dir / "fig2b.sid").read_text().replace(
            "cpt A2 | L2 : 0.35 0.65", "cpt A2 | L2 : nan 0.6"
        )
        p = tmp_path / "nan.sid"
        p.write_text(text)
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and "BadProbability [A2]" in out

    def test_parse_error_exit_two(self, capsys, tmp_path):
        p = tmp_path / "broken.sid"
        p.write_text("stages 1\nvar A1 actoin stage=1\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "actoin" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.sid")
        assert code == 2

    def test_directory_exit_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path))
        assert code == 2 and out == ""
        assert "Is a directory" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "argv", [("validate",), ("check", "--all"), ("evaluate", "--strategy", "threshold")]
    )
    def test_loss_without_outcome_exit_two(self, capsys, models_dir, tmp_path, argv):
        p = tmp_path / "no-outcome.sid"
        text = (models_dir / "fig2b.sid").read_text()
        p.write_text(text.replace("var Y outcome stage=3", "var Y covariate stage=3"))
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 2 and out == ""
        assert err == "line 49, col 1: loss needs an outcome variable\n"

    def test_invalid_utf8_column_counts_characters(self, capsys, tmp_path):
        p = tmp_path / "latin1.sid"
        p.write_bytes("stages 1\n# \u00dc comment ".encode() + b"\xff\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and out == ""
        assert err == "line 2, col 13: not UTF-8 text\n"

    @pytest.mark.parametrize("brk", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_line_counts_as_the_parser(self, capsys, tmp_path, brk):
        # U+0085 breaks a line for str.splitlines, not for the parser
        p = tmp_path / "latin1.sid"
        p.write_bytes(brk.join([b"stages 1", "# \u0085 note".encode(), b"var \xff"]))
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and out == ""
        assert err == "line 3, col 5: not UTF-8 text\n"

    def test_superscript_stage_count_is_located(self, capsys, tmp_path):
        p = tmp_path / "superscript.sid"
        p.write_text("stages \u00b2\nvar A1 action stage=1\nvar Y outcome stage=2\n")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and out == ""
        assert err.startswith("line 1, col 1: expected 'stages <N>'\n")


def _wide_file(tmp_path, n_vars: int) -> Path:
    # one stage: hidden variables, then the action and the outcome
    lines = ["stages 1"] + [f"var U{j} hidden stage=1" for j in range(1, n_vars - 1)]
    lines += ["var A1 action stage=1", "var Y outcome stage=2", "edge U1 -> Y", "edge A1 -> Y"]
    p = tmp_path / f"wide{n_vars}.sid"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestNodeCap:
    """``validate`` and ``check`` agree on the variable cap: the regime node
    comes on top of the diagram's variables."""

    def test_at_the_cap_validates_and_checks(self, capsys, tmp_path):
        from seqident.graph import MAX_NODES

        p = _wide_file(tmp_path, MAX_NODES)
        assert run(capsys, "validate", str(p)) == (0, "ok\n", "")
        code, out, err = run(capsys, "check", "--all", str(p))
        assert code == 0 and err == ""
        assert "verdict: IdentifiedSimple" in out
        code, out, err = run(capsys, "dsep", str(p), "Y", "/", "sigma", "/", "A1")
        assert code == 0 and "separated" in out

    @pytest.mark.parametrize("command", [["validate"], ["check", "--all"], ["report"]])
    def test_over_the_cap_is_a_located_usage_error(self, capsys, tmp_path, command):
        from seqident.graph import MAX_NODES

        p = _wide_file(tmp_path, MAX_NODES + 1)
        code, out, err = run(capsys, *command, str(p))
        assert code == 2 and out == ""
        assert err == f"line 26, col 5: 'Y' is variable 25; the maximum is {MAX_NODES}\n"


class TestDsep:
    def test_separated_exit_zero(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "dsep", str(models_dir / "fig2a.sid"), "Y", "/", "sigma", "/", "A1", "A2", "L2"
        )
        assert code == 0 and "separated" in out

    def test_witness_line(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "dsep", str(models_dir / "fig2a.sid"), "L2", "/", "sigma", "/", "A1"
        )
        assert code == 1
        assert "sigma - U1 - L2" in out

    def test_repeated_label_counts_once(self, capsys, models_dir):
        # a query set names each label once, so a repeat changes no line
        f = str(models_dir / "fig2b.sid")
        for x, y, z in [("L2", "Y", "A1 A2"), ("L2", "sigma", "A1")]:
            once = run(capsys, "dsep", f, x, "/", y, "/", *z.split(), "--numeric")
            twice = run(capsys, "dsep", f, x, x, "/", y, y, "/", *z.split() * 2, "--numeric")
            assert twice == once and "numeric:" in once[1]

    def test_unknown_node_usage_error(self, capsys, models_dir):
        code, _, err = run(capsys, "dsep", str(models_dir / "fig2a.sid"), "Q", "/", "Y", "/")
        assert code == 2

    def test_query_without_two_slashes_usage_error(self, capsys, models_dir):
        code, out, err = run(capsys, "dsep", str(models_dir / "fig2a.sid"), "L2", "/", "sigma")
        assert code == 2 and out == ""
        assert err == "query must be '<x..> / <y..> / <z..>'\n"

    @pytest.mark.parametrize(
        "tol, line",
        [
            ("1e-9", "numeric: independent (gap 1.110e-16 <= tol 1.0e-09)"),
            ("1e-300", "numeric: dependence above --tol (gap 1.110e-16 > tol 1.0e-300)"),
        ],
    )
    def test_numeric_gap_compared_with_tol(self, capsys, models_dir, tol, line):
        # the graph verdict keeps the exit code whatever the numeric gap
        f = str(models_dir / "fig2b.sid")
        code, out, _ = run(capsys, "dsep", f, "L2", "/", "Y", "/", "A1", "A2", "--numeric", "--tol", tol)
        assert code == 0
        assert out.splitlines() == [line, "separated"]


class TestCheck:
    def test_simple_pass(self, capsys, models_dir):
        code, out, _ = run(capsys, "check", "--simple", str(models_dir / "fig2b.sid"))
        assert code == 0 and "[simple-stability] PASS" in out

    def test_simple_fail_with_witness(self, capsys, models_dir):
        code, out, _ = run(capsys, "check", "--simple", str(models_dir / "fig2a.sid"))
        assert code == 1
        assert "sigma - U1 - L2" in out

    def test_general_with_spec_none(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "check", "--general", "--spec", "none", str(models_dir / "fig2a.sid")
        )
        assert code == 0

    def test_all_verdict_line(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "check", "--all", "--spec", "none", str(models_dir / "fig2a.sid")
        )
        assert code == 0 and "verdict: IdentifiedGeneral" in out

    def test_all_not_guaranteed(self, capsys, models_dir):
        code, out, _ = run(capsys, "check", "--all", str(models_dir / "fig2a.sid"))
        assert code == 1 and "verdict: NotGuaranteed" in out

    def test_extended_alone(self, capsys, models_dir):
        code, out, err = run(capsys, "check", "--extended", str(models_dir / "fig2b.sid"))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "[extended-stability] PASS"

    def test_pearl_robins_alone(self, capsys, models_dir):
        code, out, err = run(capsys, "check", "--pearl-robins", str(models_dir / "fig2a.sid"))
        assert code == 1 and err == ""
        assert out.splitlines()[:3] == [
            "[pearl-robins] FAIL",
            "  i=1: Y _||_ A1 : FAIL",
            "    witness: A1 - U1 - L2 - A2 - Y",
        ]

    def test_spec_file_without_strategy_exit_two(self, capsys, models_dir, tmp_path):
        spec = _without_sections(models_dir, tmp_path, {"strategy"})
        code, out, err = run(
            capsys, "check", "--general", "--spec", str(spec), str(models_dir / "fig2b.sid")
        )
        assert code == 2 and out == ""
        assert err == f"spec file {str(spec)!r} declares no strategy\n"

    def test_spec_from_file(self, capsys, models_dir):
        # the bite file's 'match' strategy conditions on (A1, L2)
        code, out, _ = run(
            capsys,
            "check",
            "--general",
            "--spec",
            str(models_dir / "fig2a_bite.sid"),
            str(models_dir / "fig2a.sid"),
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["check", "optimize"])
    def test_spec_from_other_diagram_exit_two(self, capsys, models_dir, command):
        # fig2b's strategies consult L1, which the bite diagram does not have
        f, spec = str(models_dir / "fig2a_bite.sid"), str(models_dir / "fig2b.sid")
        code, out, err = run(capsys, command, f, "--spec", spec)
        assert code == 2 and out == ""
        assert err == "'L1' is not a variable of the diagram\n"


class TestEvaluate:
    def test_three_methods(self, capsys, models_dir):
        f = str(models_dir / "fig2a_bite.sid")
        code, out, _ = run(capsys, "evaluate", f, "--strategy", "match")
        assert code == 0 and "value 0.212" in out
        code, out, _ = run(capsys, "evaluate", f, "--strategy", "match", "--method", "oracle")
        assert code == 0 and "value 0.5" in out

    def test_decomposition(self, capsys, models_dir):
        f = str(models_dir / "fig2b.sid")
        code, out, _ = run(
            capsys, "evaluate", f, "--strategy", "threshold", "--method", "decomposition"
        )
        assert code == 0 and "value" in out

    def test_second_strategy_in_file(self, capsys, models_dir):
        f = str(models_dir / "fig2b.sid")
        code, out, _ = run(capsys, "evaluate", f, "--strategy", "both-high", "--method", "oracle")
        assert code == 0
        assert float(out.split()[-1]) == pytest.approx(0.8, abs=1e-12)

    def test_decomposition_needs_deterministic(self, capsys, models_dir, tmp_path):
        text = (models_dir / "fig2b.sid").read_text().replace(
            "strategy both-high A1 | - : 0 1", "strategy both-high A1 | - : 0.4 0.6"
        )
        p = tmp_path / "stoch.sid"
        p.write_text(text)
        code, _, err = run(
            capsys, "evaluate", str(p), "--strategy", "both-high", "--method", "decomposition"
        )
        assert code == 2 and "deterministic" in err

    def test_unknown_strategy(self, capsys, models_dir):
        code, _, err = run(
            capsys, "evaluate", str(models_dir / "fig2b.sid"), "--strategy", "nope"
        )
        assert code == 2 and "no strategy named 'nope' in file" in err

    def test_non_finite_loss_exit_two(self, capsys, models_dir, tmp_path):
        p = tmp_path / "inf.sid"
        p.write_text((models_dir / "fig2b.sid").read_text().replace("loss : 0 1", "loss : inf 1"))
        code, out, err = run(capsys, "evaluate", str(p), "--strategy", "threshold")
        assert code == 2 and out == ""
        assert "line 49, col 1" in err and "finite" in err

    @pytest.mark.parametrize("row", ["nan 1", "-0.5 1.5"])
    @pytest.mark.parametrize("command", [("validate",), ("evaluate", "--strategy", "both-high")])
    def test_bad_strategy_entries_exit_two(self, capsys, models_dir, tmp_path, row, command):
        p = tmp_path / "bad.sid"
        p.write_text(
            (models_dir / "fig2b.sid").read_text().replace(
                "strategy both-high A1 | - : 0 1", f"strategy both-high A1 | - : {row}"
            )
        )
        code, out, err = run(capsys, command[0], str(p), *command[1:])
        assert code == 2 and out == ""
        assert "line 46, col 1" in err and "finite and non-negative" in err

    def test_graph_only_is_usage_error(self, capsys, models_dir):
        code, _, err = run(
            capsys, "evaluate", str(models_dir / "fig2a.sid"), "--strategy", "x"
        )
        assert code == 2


class TestPositivity:
    def test_interior_model(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "positivity", str(models_dir / "fig2b.sid"), "--strategy", "threshold"
        )
        assert code == 0 and "positivity holds" in out

    def test_constructed_zero(self, capsys, tmp_path, models_dir):
        text = (models_dir / "fig2b.sid").read_text().replace(
            "cpt A2 | L2 : 0.35 0.65", "cpt A2 | L2 : 1 0"
        )
        p = tmp_path / "zeroed.sid"
        p.write_text(text)
        code, out, _ = run(capsys, "positivity", str(p), "--strategy", "threshold")
        assert code == 1 and "stage 2" in out


class TestOptimize:
    def test_full_history_table(self, capsys, models_dir):
        code, out, _ = run(capsys, "optimize", str(models_dir / "dominance.sid"))
        assert code == 0
        assert "value 0.89" in out
        assert "A2(L1=0, A1=0, L2=1) = 1" in out

    def test_restricted_spec_bruteforce(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "optimize", str(models_dir / "dominance.sid"), "--spec", "none"
        )
        assert code == 0 and "value 0.645" in out


class TestFuzz:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--theorem2", "--seed", "5", "--iters", "25")
        assert code == 0 and "iterations 25" in out

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQIDENT_SEED", "12")
        code, out, _ = run(capsys, "fuzz", "--theorem2", "--iters", "5")
        assert code == 0

    def test_bad_seed_env_fails_fuzz_only(self, capsys, models_dir, monkeypatch):
        monkeypatch.setenv("SEQIDENT_SEED", "abc")
        code, out, err = run(capsys, "fuzz", "--theorem2", "--iters", "5")
        assert code == 2 and out == "" and "argument --seed: invalid int value: 'abc'" in err
        code, out, _ = run(capsys, "validate", str(models_dir / "fig2b.sid"))
        assert code == 0 and out == "ok\n"

    def test_requires_property_flag(self, capsys):
        code, _, err = run(capsys, "fuzz")
        assert code == 2


class TestReport:
    @pytest.mark.parametrize("name, full_value", [("fig2b", "0.8"), ("dominance", "0.89")])
    def test_optimum_for_the_given_spec(self, capsys, models_dir, name, full_value):
        # under a restricted spec the optimum is brute force's, as `optimize`
        # prints it; on dominance it is below the full-history optimum
        f = str(models_dir / f"{name}.sid")
        code, out, _ = run(capsys, "optimize", f, "--spec", "none")
        assert code == 0
        value, size = out.splitlines()
        assert value.startswith("value ") and size.startswith("argmax set size ")
        code, text, _ = run(capsys, "report", f, "--spec", "none")
        assert code == 0
        assert text.splitlines()[-2:] == ["optimal " + value, size]
        code, out, _ = run(capsys, "report", f, "--spec", "none", "--format", "json")
        assert code == 0
        table = json.loads(out)["strategy_table"]
        assert table == {"value": float(value.split()[1]), "argmax_size": int(size.split()[-1])}
        code, full, _ = run(capsys, "report", f)
        assert code == 0 and full.splitlines()[-1] == f"optimal value {full_value}"

    def test_json_shape(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "report",
            str(models_dir / "fig2b.sid"),
            "--format",
            "json",
            "--strategy",
            "threshold",
        )
        assert code == 0
        doc = json.loads(out)
        checks = [r["check"] for r in doc["reports"]]
        assert checks == [
            "simple-stability",
            "extended-stability",
            "general-criterion",
            "pearl-robins",
            "assumptions",
            "splice-agreement",
        ]
        assert doc["verdict"] == "IdentifiedSimple"
        assert doc["value"] == pytest.approx(0.228)
        assert doc["strategy_table"]["value"] == pytest.approx(0.8)
        entry = doc["reports"][0]["entries"][0]
        assert set(entry) == {"index", "query", "separated", "witness", "passed", "note"}

    def test_byte_identical_runs(self, capsys, models_dir):
        _, out1, _ = run(capsys, "report", str(models_dir / "fig2b.sid"), "--format", "json")
        _, out2, _ = run(capsys, "report", str(models_dir / "fig2b.sid"), "--format", "json")
        assert out1 == out2

    def test_not_guaranteed_exit(self, capsys, models_dir):
        code, out, _ = run(capsys, "report", str(models_dir / "fig2a.sid"))
        assert code == 1 and "NotGuaranteed" in out

    @pytest.mark.parametrize("name", ["fig2a", "fig2b"])
    def test_text_report_renders_check_all(self, capsys, models_dir, name):
        f = str(models_dir / f"{name}.sid")
        _, checked, _ = run(capsys, "check", "--all", f)
        _, reported, _ = run(capsys, "report", f, "--format", "text")
        assert "  note: " in checked
        assert reported.startswith(checked)

    @pytest.mark.parametrize("name", ["fig2a", "fig2b"])
    def test_each_check_runs_once(self, capsys, models_dir, monkeypatch, name):
        import seqident.cli as cli
        import seqident.stability as stability

        checks = (
            "check_simple_stability",
            "check_extended_stability",
            "check_general",
            "check_pearl_robins",
            "check_assumptions",
        )
        calls: Counter = Counter()

        def counting(check, fn):
            def wrapper(*args, **kwargs):
                calls[check] += 1
                return fn(*args, **kwargs)

            return wrapper

        for check in checks:
            wrapped = counting(check, getattr(stability, check))
            monkeypatch.setattr(stability, check, wrapped)
            if hasattr(cli, check):
                monkeypatch.setattr(cli, check, wrapped)
        f = str(models_dir / f"{name}.sid")
        for argv in (["check", "--all", f], ["report", f]):
            calls.clear()
            run(capsys, *argv)
            assert calls == Counter(checks), argv

    @pytest.mark.parametrize("strategy", [None, "low"])
    def test_over_cap_keeps_verdict(self, capsys, tmp_path, strategy):
        # one stage with 15 ternary covariates is identified by the graph
        # alone, but its 3**15 * 4 cells exceed the cap of every numeric step
        lines = ["stages 1", "var A1 action stage=1", "var Y outcome stage=2", "edge A1 -> Y"]
        for k in range(1, 16):
            lines += [f"var L{k} covariate stage=1", f"cpt L{k} | - : 0.2 0.3 0.5"]
        lines += ["cpt A1 | - : 0.5 0.5", "cpt Y | A1 : 0.9 0.1", "cpt Y | A1 : 0.2 0.8"]
        lines += ["strategy low A1 | - : 1 0", "loss : 0 1"]
        p = tmp_path / "wide.sid"
        p.write_text("\n".join(lines) + "\n")
        extra = [] if strategy is None else ["--strategy", strategy]
        error = {"error": "57395628 cells exceed the cap of 4194304"}
        code, out, err = run(capsys, "report", str(p), *extra)
        assert code == 1 and err == ""
        want = ["verdict: IdentifiedSimple"]
        want += [] if strategy is None else [f"evaluate: {error['error']}"]
        want += [f"optimize: {error['error']}"]
        assert out.splitlines()[-len(want):] == want
        code, out, err = run(capsys, "report", str(p), "--format", "json", *extra)
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["verdict"] == "IdentifiedSimple"
        assert doc["strategy_table"] == error
        assert doc["value"] == (None if strategy is None else error)

    @staticmethod
    def _first_action_never_one(models_dir, tmp_path) -> Path:
        # the observational first action is always 0; both-high takes 1
        text = (models_dir / "fig2b.sid").read_text()
        for row in ("0.7 0.3", "0.4 0.6"):
            text = text.replace(f"cpt A1 | L1 : {row}", "cpt A1 | L1 : 1 0")
        p = tmp_path / "never.sid"
        p.write_text(text)
        return p

    _NEVER_ONE = "stage 1: action state 1 has zero observational probability at reachable history L1=0"

    def test_positivity_violation_keeps_verdict(self, capsys, models_dir, tmp_path):
        p = self._first_action_never_one(models_dir, tmp_path)
        message = self._NEVER_ONE
        code, out, err = run(capsys, "report", str(p), "--strategy", "both-high")
        assert code == 1 and err == ""
        assert "[splice-agreement] PASS" in out
        assert out.splitlines()[-3:-1] == ["verdict: IdentifiedSimple", f"evaluate: {message}"]
        code, out, err = run(capsys, "report", str(p), "--strategy", "both-high", "--format", "json")
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["verdict"] == "IdentifiedSimple"
        assert doc["reports"][-1]["check"] == "splice-agreement"
        assert doc["value"] == {"error": message}

    def test_failed_optimal_search_alone_exits_one(self, capsys, models_dir, tmp_path):
        # no --strategy: the verdict is identified and only the optimal
        # strategy search fails
        p = self._first_action_never_one(models_dir, tmp_path)
        code, out, err = run(capsys, "report", str(p))
        assert code == 1 and err == ""
        assert out.splitlines()[-2:] == ["verdict: IdentifiedSimple", f"optimize: {self._NEVER_ONE}"]
        code, out, err = run(capsys, "report", str(p), "--format", "json")
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["verdict"] == "IdentifiedSimple" and doc["value"] is None
        assert doc["strategy_table"] == {"error": self._NEVER_ONE}


# fig2b.sid's one-row cpt of L1 replaced, and what validate says of it
_FLAGGED_ROWS = {
    "nan": ("nan 0.6", "BadProbability [L1]: entry (0,) is nan, not a probability"),
    "negative": ("-0.4 1.4", "BadProbability [L1]: entry (0,) is -0.4, not a probability"),
    "unnormalised": ("1.4 0.6", "RowNotNormalized [L1]: row () sums to 2"),
}


def _flagged_fig2b(models_dir, tmp_path, row: str, y_row: str = "0.9 0.1") -> Path:
    text = (models_dir / "fig2b.sid").read_text()
    text = text.replace("cpt L1 | - : 0.4 0.6", f"cpt L1 | - : {row}")
    text = text.replace("cpt Y | A1 A2 : 0.9 0.1", f"cpt Y | A1 A2 : {y_row}")
    p = tmp_path / "flagged.sid"
    p.write_text(text)
    return p


class TestFlaggedModel:
    """A model that validate flags is not read by the numeric commands: they
    exit 2 with validate's lines on stderr, and report puts the first line
    in its numeric fields and exits 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("positivity", "--strategy", "threshold"),
            ("evaluate", "--strategy", "threshold"),
            ("evaluate", "--strategy", "threshold", "--method", "oracle"),
            ("evaluate", "--strategy", "threshold", "--method", "decomposition"),
            ("optimize",),
            ("optimize", "--spec", "none"),
            ("dsep", "L2", "/", "Y", "/", "A1", "A2", "--numeric"),
            ("dsep", "Y", "/", "sigma", "/", "A1", "A2", "L2", "--numeric"),
        ],
    )
    @pytest.mark.parametrize("kind", sorted(_FLAGGED_ROWS))
    def test_numeric_commands_exit_two(self, capsys, models_dir, tmp_path, argv, kind):
        row, message = _FLAGGED_ROWS[kind]
        p = _flagged_fig2b(models_dir, tmp_path, row)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 2 and out == "" and err == message + "\n"

    @pytest.mark.parametrize("kind", sorted(_FLAGGED_ROWS))
    def test_validate_lists_it(self, capsys, models_dir, tmp_path, kind):
        row, message = _FLAGGED_ROWS[kind]
        code, out, err = run(capsys, "validate", str(_flagged_fig2b(models_dir, tmp_path, row)))
        assert code == 1 and err == "" and out == message + "\n"

    @pytest.mark.parametrize("strategy", [None, "threshold"])
    @pytest.mark.parametrize("kind", sorted(_FLAGGED_ROWS))
    def test_report_puts_the_first_issue_in_numeric_fields(
        self, capsys, models_dir, tmp_path, kind, strategy
    ):
        row, message = _FLAGGED_ROWS[kind]
        p = _flagged_fig2b(models_dir, tmp_path, row)
        extra = [] if strategy is None else ["--strategy", strategy]
        code, out, err = run(capsys, "report", str(p), *extra)
        assert code == 1 and err == ""
        want = ["verdict: IdentifiedSimple"] + ([] if strategy is None else [f"evaluate: {message}"])
        assert out.splitlines()[-len(want) - 1:] == want + [f"optimize: {message}"]
        assert "splice-agreement" not in out
        code, out, err = run(capsys, "report", str(p), "--format", "json", *extra)
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["verdict"] == "IdentifiedSimple"
        assert doc["strategy_table"] == {"error": message}
        assert doc["value"] == (None if strategy is None else {"error": message})

    def test_every_issue_goes_to_stderr(self, capsys, models_dir, tmp_path):
        p = _flagged_fig2b(models_dir, tmp_path, "nan 0.6", y_row="0.9 0.9")
        code, out, _ = run(capsys, "validate", str(p))
        lines = out.splitlines()
        assert code == 1 and len(lines) == 2 and lines[1].startswith("RowNotNormalized [Y]")
        code, out, err = run(capsys, "evaluate", str(p), "--strategy", "threshold")
        assert code == 2 and out == "" and err.splitlines() == lines
        code, out, _ = run(capsys, "report", str(p), "--format", "json")
        assert code == 1 and json.loads(out)["strategy_table"] == {"error": lines[0]}


# one valid command line per subcommand, and the flags each one reads
_BASE_ARGV = {
    "validate": ("validate", "fig2b.sid"),
    "dsep": ("dsep", "fig2b.sid", "L2", "/", "Y", "/", "A1", "A2"),
    "check": ("check", "fig2b.sid", "--all"),
    "positivity": ("positivity", "fig2b.sid", "--strategy", "threshold"),
    "evaluate": ("evaluate", "fig2b.sid", "--strategy", "threshold"),
    "optimize": ("optimize", "fig2b.sid"),
    "fuzz": ("fuzz", "--theorem2", "--iters", "1"),
    "report": ("report", "fig2b.sid"),
}
_READ_FLAGS = {("dsep", "--tol"), ("dsep", "--dep-tol"), ("optimize", "--max-enum"),
               ("report", "--tol")}


def _without_sections(models_dir, tmp_path, drop) -> Path:
    """fig2b.sid without the lines of the given section keywords."""
    lines = (models_dir / "fig2b.sid").read_text().splitlines()
    p = tmp_path / "partial.sid"
    p.write_text("\n".join(ln for ln in lines if ln.split(" ", 1)[0] not in drop) + "\n")
    return p


def _outcome_one_stage_late(models_dir, tmp_path) -> Path:
    """fig2b.sid with the outcome declared at stage 4 of a two-stage diagram."""
    p = tmp_path / "late-outcome.sid"
    text = (models_dir / "fig2b.sid").read_text()
    p.write_text(text.replace("var Y outcome stage=3", "var Y outcome stage=4"))
    return p


class TestInvalidDiagram:
    LINE = "BadStageOrder: outcome Y must sit at stage 3, found stage 4"

    @pytest.mark.parametrize(
        "argv",
        [
            ("dsep", "L2", "/", "Y", "/", "A1"),
            ("check", "--simple"),
            ("positivity", "--strategy", "threshold"),
            ("evaluate", "--strategy", "threshold"),
            ("optimize",),
        ],
    )
    def test_commands_exit_one_on_stderr(self, capsys, models_dir, tmp_path, argv):
        p = _outcome_one_stage_late(models_dir, tmp_path)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 1 and out == ""
        assert err == self.LINE + "\n"

    def test_report_prints_validation(self, capsys, models_dir, tmp_path):
        p = str(_outcome_one_stage_late(models_dir, tmp_path))
        code, out, err = run(capsys, "report", p)
        assert code == 1 and err == ""
        assert out == self.LINE + "\n"
        code, out, err = run(capsys, "report", p, "--format", "json")
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "file": p,
            "validation": [
                {"code": "BadStageOrder", "message": self.LINE.split(": ", 1)[1]}
            ],
        }


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["positivity", "report"])
    def test_unknown_strategy_exit_two(self, capsys, models_dir, command):
        code, out, err = run(capsys, command, str(models_dir / "fig2b.sid"), "--strategy", "nope")
        assert code == 2 and out == ""
        assert err == "no strategy named 'nope' in file\n"

    def test_empty_query_set_exit_two(self, capsys, models_dir):
        code, out, err = run(capsys, "dsep", str(models_dir / "fig2b.sid"), "/", "Y", "/", "A1")
        assert code == 2 and out == ""
        assert err == "both query sets must be nonempty\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("report", "fig2b.sid", "--strategy", "threshold", "--tol", "nan"), "--tol"),
            (("report", "fig2b.sid", "--strategy", "threshold", "--tol", "-1"), "--tol"),
            (("dsep", "fig2b.sid", "L2", "/", "Y", "/", "A1", "A2", "--numeric", "--tol", "nan"),
             "--tol"),
            (("dsep", "fig2b.sid", "L2", "/", "Y", "/", "--numeric", "--dep-tol", "inf"),
             "--dep-tol"),
            (("dsep", "fig2b.sid", "L2", "/", "Y", "/", "--numeric", "--dep-tol", "-0.5"),
             "--dep-tol"),
            (("fuzz", "--theorem2", "--iters", "-5"), "--iters"),
            (("fuzz", "--theorem2", "--seed", "-1"), "--seed"),
            (("optimize", "fig2b.sid", "--spec", "none", "--max-enum", "-1"), "--max-enum"),
            (("optimize", "fig2b.sid", "--spec", "none", "--max-enum", "0"), "--max-enum"),
            (("optimize", "fig2b.sid", "--max-enum", "1.5"), "--max-enum"),
            (("optimize", "fig2b.sid", "--spec", "none", "--max-enum", "1" + "0" * 400),
             "--max-enum"),
        ],
    )
    def test_bad_numeric_flag_exit_two(self, capsys, models_dir, argv, flag):
        argv = [str(models_dir / a) if a.endswith(".sid") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("fuzz", "--theorem2", "--iters", "0"), "iterations 0: simple 0, general-only 0, "
             "not-guaranteed 0"),
            (("dsep", "fig2b.sid", "L2", "/", "Y", "/", "A1", "A2", "--numeric", "--tol", "0"),
             "numeric: dependence above --tol (gap 1.110e-16 > tol 0.0e+00)"),
            (("optimize", "dominance.sid", "--spec", "none", "--max-enum", "16"), "value 0.645"),
            (("optimize", "dominance.sid", "--spec", "none", "--max-enum", str(2**63 - 1)),
             "value 0.645"),
        ],
    )
    def test_numeric_flag_bounds_accepted(self, capsys, models_dir, argv, line):
        argv = [str(models_dir / a) if a.endswith(".sid") else a for a in argv]
        _, out, err = run(capsys, *argv)
        assert err == "" and out.splitlines()[0] == line

    def test_max_enum_beyond_int64_message(self, capsys, models_dir):
        code, out, err = run(capsys, "optimize", str(models_dir / "fig2b.sid"), "--spec", "none",
                             "--max-enum", str(2**63))
        assert code == 2 and out == ""
        assert err.endswith(
            "error: argument --max-enum: must be at most 9223372036854775807, "
            "got '9223372036854775808'\n"
        )

    @pytest.mark.parametrize("flag", ["--tol", "--dep-tol", "--max-enum"])
    @pytest.mark.parametrize("command", sorted(_BASE_ARGV))
    def test_flag_only_where_read(self, capsys, models_dir, command, flag):
        argv = [str(models_dir / a) if a.endswith(".sid") else a for a in _BASE_ARGV[command]]
        code, out, err = run(capsys, *argv, flag, "1")
        if (command, flag) in _READ_FLAGS:
            assert "unrecognized" not in err and code != 2
        else:
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {flag} 1" in err

    def test_report_strategy_needs_cpt_and_loss(self, capsys, models_dir, tmp_path):
        # fig2a.sid is graph only; the other file has cpt but no loss section
        for p in (models_dir / "fig2a.sid", _without_sections(models_dir, tmp_path, ("loss",))):
            code, out, err = run(capsys, "report", str(p), "--strategy", "nope")
            assert code == 2 and out == ""
            assert err == "report --strategy needs cpt and loss sections\n"

    @pytest.mark.parametrize(
        "argv, drop, message",
        [
            (("positivity", "--strategy", "threshold"), ("cpt", "strategy"),
             "positivity needs a cpt section"),
            (("evaluate", "--strategy", "threshold"), ("loss",),
             "evaluate needs cpt and loss sections"),
            (("optimize",), ("loss",), "optimize needs cpt and loss sections"),
            (("optimize",), ("cpt", "strategy"), "optimize needs cpt and loss sections"),
            (("dsep", "L2", "/", "Y", "/", "A1", "A2", "--numeric"), ("cpt", "strategy"),
             "dsep --numeric needs a cpt section"),
            (("dsep", "Y", "/", "sigma", "/", "A1", "A2", "L2", "--numeric"), ("strategy",),
             "dsep --numeric needs cpt and strategy sections"),
        ],
    )
    def test_missing_section_exit_two(self, capsys, models_dir, tmp_path, argv, drop, message):
        p = _without_sections(models_dir, tmp_path, drop)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 2 and out == "" and err == message + "\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_internal_violation_exits_three(self, capsys, models_dir, monkeypatch):
        import seqident.cli as cli
        from seqident.errors import InternalTheorem2Violation

        def explode(d, spec):
            raise InternalTheorem2Violation("forced")

        monkeypatch.setattr(cli, "decide_identifiability", explode)
        code, _, err = run(capsys, "check", "--all", str(models_dir / "fig2b.sid"))
        assert code == 3 and "internal invariant" in err


_FIG2B_LINES = (MODELS_DIR / "fig2b.sid").read_text().splitlines()
_WORDS = st.sampled_from(
    [
        "stages", "var", "edge", "cpt", "strategy", "loss", "|", ":", "->", "-", "#",
        "L1", "A1", "L2", "A2", "Y", "U1", "threshold", "action", "covariate", "hidden",
        "outcome", "stage=1", "stage=2", "stage=3", "stage=0", "0", "1", "2", "0.5", "-0.5",
        "1e308", "nan", "inf", "99999999",
    ]
)


@st.composite
def _mutated_fig2b(draw):
    # grammar words spliced into the shipped file reach far past the tokenizer
    lines = list(_FIG2B_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        new = " ".join(draw(st.lists(_WORDS, max_size=8)))
        if i < len(lines) and draw(st.booleans()):
            lines[i] = new
        else:
            lines.insert(i, new)
    return "\n".join(lines).encode()


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.binary(), st.text().map(str.encode), _mutated_fig2b()))
def test_validate_any_input_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.sid"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
