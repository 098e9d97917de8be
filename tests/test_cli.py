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

    def test_unknown_node_usage_error(self, capsys, models_dir):
        code, _, err = run(capsys, "dsep", str(models_dir / "fig2a.sid"), "Q", "/", "Y", "/")
        assert code == 2


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
        assert code == 1

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

    def test_requires_property_flag(self, capsys):
        code, _, err = run(capsys, "fuzz")
        assert code == 2


class TestReport:
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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

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
