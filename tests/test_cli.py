"""Command-line interface: subcommands, exit codes, deterministic output."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from atlplus import cli
from atlplus.cgm import CGM
from atlplus.cli import main
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import MAX_NESTING_DEPTH, to_text

SAT_INPUT = "<<1>>(p U q | G q) & [[2]](F p & G ~q)"
UNSAT_INPUT = "<<1>>(p U q | G q) & <<2>>(F p & G ~q)"


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# check


def test_check_sat_exits_zero(capsys):
    code = run_cli("check", SAT_INPUT)
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: SAT" in out
    assert "pretableau: 8 states, 5 prestates" in out
    assert "final tableau: 8 states" in out
    assert "agents: 1,2" in out
    assert "normal form: <<1>>(G q | p U q) & [[2]](G ~q & true U p)" in out


def test_check_unsat_exits_one(capsys):
    code = run_cli("check", UNSAT_INPUT)
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: UNSAT" in out
    assert "pretableau: 11 states, 7 prestates" in out
    assert "final tableau: 6 states" in out


def test_check_trace_lists_elimination_rounds(capsys):
    code = run_cli("check", UNSAT_INPUT, "--trace")
    out = capsys.readouterr().out
    assert code == 1
    assert "round 1: unrealized D1 D2 D5 D6 D10; stuck -" in out


def test_check_rejects_malformed_formulas(capsys):
    code = run_cli("check", "<<1>>(p U")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_check_reports_a_crash_as_internal_error_not_unsat(capsys, monkeypatch):
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "decide", crash)
    code = run_cli("check", SAT_INPUT)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: RecursionError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "~" * 3000 + "p",
        "(" * 2000 + "p" + ")" * 2000,
        "<<1>>F (" * 400 + "p" + ")" * 400,
    ],
    ids=["negations", "parentheses", "quantifiers"],
)
def test_check_rejects_too_deep_nesting_as_input_error(capsys, text):
    code = run_cli("check", text)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: formula nested deeper than {MAX_NESTING_DEPTH} levels (line 1, column ")


@pytest.mark.parametrize(
    "text",
    [
        "~" * MAX_NESTING_DEPTH + "p",
        "(" * MAX_NESTING_DEPTH + "p" + ")" * MAX_NESTING_DEPTH,
        "<<1>>X " * (MAX_NESTING_DEPTH // 2) + "p",
        "[[1]]X ~" * (MAX_NESTING_DEPTH // 3 - 1) + "<<1>>X ~~p",
    ],
    ids=["negations", "parentheses", "quantifiers", "alternating"],
)
def test_nesting_at_the_depth_limit_runs_check_and_synth(capsys, text):
    for command in ("check", "synth"):
        assert run_cli(command, text) == 0
        assert "error" not in capsys.readouterr().err


def test_check_honors_the_closure_budget(capsys):
    code = run_cli("check", SAT_INPUT, "--max-closure", "4")
    err = capsys.readouterr().err
    assert code == 2
    assert "closure" in err


def test_check_reads_formula_from_file(tmp_path, capsys):
    path = tmp_path / "input.atl"
    path.write_text(SAT_INPUT + "\n", encoding="utf-8")
    code = run_cli("check", f"@{path}")
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: SAT" in out


def test_check_missing_formula_file(capsys):
    code = run_cli("check", "@/nonexistent/formula.atl")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_extra_agents_widen_the_universe(capsys):
    code = run_cli("check", "<<1>>G p", "--extra-agents", "2")
    out = capsys.readouterr().out
    assert code == 0
    assert "agents: 1,2,3" in out
    # The widened game gives each fresh agent trivial ability.
    assert "<<2>>X true" in out and "<<3>>X true" in out


# ---------------------------------------------------------------------------
# synth


def test_synth_emits_certified_model_json(capsys):
    code = run_cli("synth", SAT_INPUT)
    captured = capsys.readouterr()
    assert code == 0
    model = CGM.from_json(captured.out)
    assert model.n_states == 7
    assert sorted(",".join(sorted(p)) for p in model.props) == [
        "", "", "p", "p", "p,q", "p,q", "q",
    ]
    assert "verdict: SAT" in captured.err
    assert "model: 7 states, 2 agents" in captured.err
    assert "hintikka: pass (H1-H6)" in captured.err
    assert "oracle:" in captured.err and "holds at state" in captured.err


def test_synth_writes_model_file(tmp_path, capsys):
    target = tmp_path / "model.json"
    code = run_cli("synth", SAT_INPUT, "--json-model", str(target))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert f"model written to {target}" in captured.err
    model = CGM.from_json(target.read_text(encoding="utf-8"))
    model.validate()
    assert model.hintikka is not None


def test_synth_unsat_produces_no_model(capsys):
    code = run_cli("synth", UNSAT_INPUT)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "UNSAT" in captured.err
    assert "nothing to synthesize" in captured.err


# ---------------------------------------------------------------------------
# export


@pytest.mark.parametrize("phase", ["pretableau", "initial", "final"])
def test_export_emits_dot(phase, capsys):
    code = run_cli("export", SAT_INPUT, "--dot", phase)
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = {
    "four_step": "<<1>>X a & <<1,2>>X b & [[2]]X c & [[1]]X d",
    "open": SAT_INPUT,
}


@pytest.mark.parametrize("phase", ["pretableau", "initial", "final"])
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_export_dot_matches_golden(name, phase, capsys):
    code = run_cli("export", GOLDEN_INPUTS[name], "--dot", phase)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}_{phase}.dot").read_text(encoding="utf-8")


SYNTH_DIGESTS = json.loads(
    (GOLDEN / "synth_sha256.json").read_text(encoding="utf-8")
)


def _synth_digests(texts, capsys):
    """sha256 of ``synth`` stdout for every input that is SAT."""
    digests = {}
    for text in texts:
        code = run_cli("synth", text)
        out = capsys.readouterr().out
        assert code in (0, 1), text
        if code == 0:
            digests[text] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


def test_synth_matches_golden_digests_on_the_corpus(capsys):
    # The first 100 corpus formulas reach every close-off branch of
    # assembly: redirect and graft, with and without deferred rows.
    corpus = random_corpus(7, 100, GenConfig(props=("p", "q")))
    texts = [to_text(f) for f in corpus]
    assert _synth_digests(texts, capsys) == SYNTH_DIGESTS["corpus"]


def test_synth_matches_golden_digests_on_family_formulas(capsys):
    # 291 and 111 model states: several agents, rows and grafted components.
    texts = list(SYNTH_DIGESTS["family"])
    assert _synth_digests(texts, capsys) == SYNTH_DIGESTS["family"]


def test_export_final_omits_eliminated_states(capsys):
    run_cli("export", UNSAT_INPUT, "--dot", "pretableau")
    pre = capsys.readouterr().out
    run_cli("export", UNSAT_INPUT, "--dot", "final")
    fin = capsys.readouterr().out
    assert len(fin) < len(pre)


# ---------------------------------------------------------------------------
# verify


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    assert run_cli("synth", SAT_INPUT, "--json-model", str(path)) == 0
    return path


def test_verify_accepts_a_synthesized_model(model_file, capsys):
    capsys.readouterr()
    code = run_cli("verify", str(model_file))
    out = capsys.readouterr().out
    assert code == 0
    assert "model: 7 states, 2 agents" in out
    assert "hintikka: pass (H1-H6)" in out


def test_verify_checks_a_formula_against_the_model(model_file, capsys):
    capsys.readouterr()
    code = run_cli("verify", str(model_file), SAT_INPUT)
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle:" in out and "holds at state" in out


def test_verify_fails_a_formula_the_model_violates(model_file, capsys):
    capsys.readouterr()
    code = run_cli("verify", str(model_file), "<<1,2>>G (p & q)")
    out = capsys.readouterr().out
    assert code == 1
    assert "fails at state" in out


def test_verify_reports_saturation_violations(model_file, tmp_path, capsys):
    capsys.readouterr()
    data = json.loads(model_file.read_text(encoding="utf-8"))
    data["hintikka"]["2"].extend(["p", "~p"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = run_cli("verify", str(bad))
    out = capsys.readouterr().out
    assert code == 1
    assert "H1 violated at state 2" in out


def test_verify_skips_saturation_without_annotations(model_file, tmp_path, capsys):
    capsys.readouterr()
    data = json.loads(model_file.read_text(encoding="utf-8"))
    data.pop("hintikka")
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data), encoding="utf-8")
    code = run_cli("verify", str(plain))
    out = capsys.readouterr().out
    assert code == 0
    assert "no annotations; structural checks skipped" in out


def test_verify_rejects_formulas_with_too_many_agents(model_file, capsys):
    capsys.readouterr()
    code = run_cli("verify", str(model_file), "<<3>>X p")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_malformed_model_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": 1}', encoding="utf-8")
    code = run_cli("verify", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code = run_cli("selftest")
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest: 10/10 checks passed" in out
    assert "FAIL" not in out


def test_selftest_with_seed_adds_a_random_round(capsys):
    code = run_cli("selftest", "--seed", "7")
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest: 11/11 checks passed" in out
    assert "random round (seed 7)" in out


# ---------------------------------------------------------------------------
# Determinism across processes


def _run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "atlplus", *argv],
        capture_output=True,
        timeout=120,
    )


def test_check_output_is_byte_identical_across_runs():
    first = _run_subprocess("check", SAT_INPUT, "--trace")
    second = _run_subprocess("check", SAT_INPUT, "--trace")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


def test_synth_output_is_byte_identical_across_runs():
    first = _run_subprocess("synth", UNSAT_INPUT.replace("<<2>>", "[[2]]"))
    second = _run_subprocess("synth", UNSAT_INPUT.replace("<<2>>", "[[2]]"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    CGM.from_json(first.stdout.decode("utf-8"))
