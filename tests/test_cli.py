"""Command-line interface: subcommands, exit codes, deterministic output."""

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import cli, synthesis
from atlplus.cgm import CGM
from atlplus.cli import main, prepare
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import MAX_NESTING_DEPTH, to_text
from atlplus.tableau import decide

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


@pytest.mark.parametrize("where", ["assemble", "move_cells"])
def test_synth_reports_a_synthesis_fault_as_internal_error(capsys, monkeypatch, where):
    # A broken synthesis invariant is the program's fault, not the input's.
    def fault(*args):
        raise synthesis.SynthesisError("node 1 does not cover the action box of D1")

    monkeypatch.setattr(cli if where == "assemble" else synthesis, where, fault)
    code = run_cli("synth", SAT_INPUT)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("internal error: SynthesisError: node 1 ")
    assert captured.out == ""


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


def test_check_decides_a_thousand_conjunct_chain():
    assert run_cli("check", " & ".join(f"p{i}" for i in range(1000))) == 0


AND_CHAIN = " & ".join(f"p{i}" for i in range(2000))
OR_CHAIN = " | ".join(f"p{i}" for i in range(2000))


@pytest.mark.parametrize(
    "text",
    [AND_CHAIN, OR_CHAIN, f"<<1>>G ({AND_CHAIN})", f"<<1>>(q U ({OR_CHAIN}))"],
    ids=["and", "or", "always", "until"],
)
def test_check_decides_long_flat_chains(capsys, text):
    # A flat chain is not nesting: it is one join node, whatever its length.
    assert run_cli("check", text) == 0
    assert capsys.readouterr().out.endswith("verdict: SAT\n")


def _chain(n, op=" & ", template="p{}"):
    return op.join(template.format(i) for i in range(n))


@pytest.mark.parametrize(
    "text, code",
    [
        (_chain(10_000), 0),
        (_chain(10_000, " | "), 0),
        (f"<<1>>({_chain(10_000, template='X p{}')})", 0),
        (f"<<1>>({_chain(10_000, template='X p{}')} & X ~p0)", 1),
    ],
    ids=["and", "or", "path", "path-unsat"],
)
def test_check_decides_ten_thousand_conjunct_state_and_path_chains(capsys, text, code):
    assert run_cli("check", text) == code
    verdict = "SAT" if code == 0 else "UNSAT"
    assert capsys.readouterr().out.endswith(f"verdict: {verdict}\n")


def test_synth_and_verify_a_thousand_conjunct_path_chain(tmp_path, capsys):
    text = f"<<1>>({_chain(1_000, template='X p{}')})"
    model = tmp_path / "chain.json"
    assert run_cli("synth", text, "--json-model", str(model)) == 0
    assert "oracle:" in capsys.readouterr().err
    assert run_cli("verify", str(model), text) == 0
    out = capsys.readouterr().out
    assert "hintikka: pass (H1-H6)" in out and "holds at state" in out


# Every token of the grammar, over at most two agents.
FUZZ_TOKENS = (
    "<<", ">>", "[[", "]]", ",", "1", "2", "(", ")", "~", "&", "|", "->",
    "X", "G", "F", "U", "R", "p", "q", "true", "false",
)
# (opener, closer, nesting levels per opener) for inputs around the limit.
NESTERS = (
    ("~", "", 1),
    ("(", ")", 1),
    ("p -> ", "", 1),
    ("<<1>>X ", "", 2),
    ("<<1,2>>X (", ")", 3),
    ("[[2]]X ~", "", 3),
)
token_texts = hst.lists(hst.sampled_from(FUZZ_TOKENS), max_size=14).map(" ".join)


@hst.composite
def chain_texts(draw):
    """A state chain of ``&`` or ``|``, or a path chain of ``&`` under a
    quantifier, of up to 10,000 conjuncts, at times with a clashing one."""
    n = draw(hst.integers(2, 10_000))
    op, template = draw(hst.sampled_from([(" & ", "p{}"), (" | ", "p{}"), (" & ", "X p{}")]))
    text = _chain(n, op, template)
    if draw(hst.booleans()):
        text += op + template.format(draw(hst.integers(0, n - 1))).replace("p", "~p")
    return f"<<1>>({text})" if template.startswith("X") else text


@hst.composite
def nested_texts(draw):
    opener, closer, levels = draw(hst.sampled_from(NESTERS))
    n = MAX_NESTING_DEPTH // levels + draw(hst.integers(-2, 1))
    core = draw(hst.sampled_from(["p", "~q", "<<1>>F p"]) | token_texts)
    return opener * n + core + closer * n


@settings(max_examples=150, deadline=None)
@given(hst.sampled_from(["check", "synth"]), token_texts | nested_texts() | chain_texts())
def test_exit_code_contract_holds_for_any_text(command, text):
    """Exit 0, 1 or 2 only, and 1 only for an unsatisfiable formula."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, text])
        except SystemExit as exc:  # argparse refuses text that reads as an option
            code = exc.code
    assert code in (0, 1, 2), (text, err.getvalue())
    if code == 1:
        prepared = prepare(text)
        assert decide(prepared.normal, prepared.universe).sat is False


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


def test_extra_agents_refuses_a_negative_count(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("check", "<<1>>F p", "--extra-agents", "-3")
    assert exc.value.code == 2
    assert "--extra-agents: must not be negative: -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, message",
    [
        ("-5", "must be positive: -5"),
        ("0", "must be positive: 0"),
        ("x", "invalid positive value: 'x'"),
    ],
)
def test_max_closure_refuses_anything_but_a_positive_count(value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("check", "p", "--max-closure", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--max-closure: {message}" in err
    assert "exceeded" not in err


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
    # The first 100 corpus formulas reach every branch of assembly's graft:
    # a link in the row pass (<<1>>(G [[]]G p | X ~p) and two more), a
    # link to the nearest deferred row (<<1>>(X <<>>q U p & p U p)), a
    # link to the oldest row present, and a new component with deferred
    # rows (<<1,2>>X [[1]]q U ~q) and without them.
    corpus = random_corpus(7, 100, GenConfig(props=("p", "q")))
    texts = [to_text(f) for f in corpus]
    assert _synth_digests(texts, capsys) == SYNTH_DIGESTS["corpus"]


def test_synth_matches_golden_digests_on_family_formulas(capsys):
    # 41 and 33 model states: several agents, rows and linked components.
    texts = list(SYNTH_DIGESTS["family"])
    assert _synth_digests(texts, capsys) == SYNTH_DIGESTS["family"]


def test_export_final_omits_eliminated_states(capsys):
    run_cli("export", UNSAT_INPUT, "--dot", "pretableau")
    pre = capsys.readouterr().out
    run_cli("export", UNSAT_INPUT, "--dot", "final")
    fin = capsys.readouterr().out
    assert len(fin) < len(pre)


@pytest.mark.parametrize(
    "argv",
    [("check", "@{}"), ("synth", "@{}"), ("export", "@{}"), ("verify", "{}")],
    ids=["check", "synth", "export", "verify"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("<<1>>F p & \u00e9".encode("latin-1"))
    command, arg = argv
    code = run_cli(command, arg.format(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err


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


@pytest.mark.parametrize("with_formula", [False, True], ids=["alone", "formula"])
def test_verify_names_a_models_agents_after_its_annotations(
    tmp_path, capsys, with_formula
):
    # synth plays agent 2 of this one-agent input at action position 0, so
    # verify must read the model's one agent as agent 2, not as agent 1.
    text = "<<2>>X p & [[2]]G q"
    path = tmp_path / "model.json"
    assert run_cli("synth", text, "--json-model", str(path)) == 0
    capsys.readouterr()
    code = run_cli("verify", str(path), *([text] if with_formula else []))
    out = capsys.readouterr().out
    assert code == 0, out
    assert "hintikka: pass (H1-H6)" in out
    assert not with_formula or "holds at state 0 (agents [2])" in out


def test_verify_accepts_every_synthesized_model(tmp_path, capsys):
    # Agent subsets such as {2} or {1, 3} are common in the random corpus.
    path = tmp_path / "model.json"
    sat = 0
    for raw in random_corpus(8, 400, GenConfig(agents=(1, 2, 3))):
        text = to_text(raw)
        code = run_cli("synth", text, "--json-model", str(path))
        assert code in (0, 1), text
        if code == 1:
            continue
        assert run_cli("verify", str(path)) == 0, text
        assert run_cli("verify", str(path), text) == 0, text
        sat += 1
        if sat == 100:
            break
    capsys.readouterr()
    assert sat == 100


def test_verify_rejects_malformed_model_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": 1}', encoding="utf-8")
    code = run_cli("verify", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# Each edit spells lists as strings of the same characters ("pq" for
# ["p", "q"], "22" for [2, 2]), which the loader used to accept, or puts
# something other than an object where one belongs.


def _set_props(data):
    data["states"][0]["props"] = "pq"


def _set_actions(data):
    for key, counts in data["actions"].items():
        data["actions"][key] = "".join(map(str, counts))


def _set_profile(data):
    for entry in data["transitions"]:
        entry["profile"] = "".join(map(str, entry["profile"]))


def _set_state_entry(data):
    data["states"][0] = "s0"


def _set_hintikka_list(data):
    data["hintikka"] = ["p"]


def _set_hintikka_string(data):
    data["hintikka"] = "p"


def _set_hintikka_null(data):
    data["hintikka"] = None


@pytest.mark.parametrize(
    "edit",
    [
        _set_props,
        _set_actions,
        _set_profile,
        _set_state_entry,
        _set_hintikka_list,
        _set_hintikka_string,
        _set_hintikka_null,
    ],
)
def test_verify_rejects_strings_where_lists_or_objects_belong(
    model_file, tmp_path, capsys, edit
):
    data = json.loads(model_file.read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("verify", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# Each edit breaks the link between annotations and states: the keys of
# "hintikka" must be exactly the state ids as text, and ids must differ as
# text, since "actions" and "hintikka" are keyed by it.


def _drop_annotation(data):
    del data["hintikka"]["3"]


def _orphan_annotation(data):
    data["hintikka"]["7"] = ["p"]


def _ids_same_as_text(data):
    # State 5 becomes "3", beside state 3.  Both have the box [1, 1] and the
    # same label, so the shared "actions" and "hintikka" entries fit both.
    data["states"][5]["id"] = "3"
    for entry in data["transitions"]:
        for end in ("from", "to"):
            if entry[end] == 5:
                entry[end] = "3"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_annotation, "state 3 has no label annotation"),
        (_orphan_annotation, "annotation for unknown state '7'"),
        (_ids_same_as_text, "state ids must differ as text"),
    ],
    ids=["missing-key", "orphan-key", "ids-same-as-text"],
)
def test_verify_refuses_annotations_that_do_not_name_the_states(
    model_file, tmp_path, capsys, edit, message
):
    data = json.loads(model_file.read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("verify", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


# Each edit breaks the action box: every state must list exactly one
# transition per joint profile of its box, into a state of the model.


def _drop_transition(data):
    data["transitions"].pop()


def _profile_outside_box(data):
    data["transitions"][0]["profile"] = [2, 0]


def _profile_of_wrong_length(data):
    data["transitions"][0]["profile"] = [0, 0, 0]


def _zero_action_count(data):
    data["actions"]["1"] = [0, 1]


def _actions_for_wrong_agent_count(data):
    data["actions"]["1"] = [1]


def _target_not_a_state(data):
    data["transitions"][0]["to"] = 99


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_transition, "missing [(6, (0, 0))]"),
        (_profile_outside_box, "unexpected [(0, (2, 0))]"),
        (_profile_of_wrong_length, "unexpected [(0, (0, 0, 0))]"),
        (_zero_action_count, "state 1 must give every agent at least one action"),
        (_actions_for_wrong_agent_count, "state 1 must give every agent"),
        (_target_not_a_state, "malformed model description"),
    ],
    ids=[
        "dropped-transition",
        "profile-outside-box",
        "profile-wrong-length",
        "zero-action-count",
        "actions-wrong-agent-count",
        "target-not-a-state",
    ],
)
def test_verify_refuses_models_that_break_the_action_box(
    model_file, tmp_path, capsys, edit, message
):
    data = json.loads(model_file.read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("verify", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert message in err


# Each edit puts a value of the wrong JSON type where a number or a name
# belongs.  The loader used to coerce them with int() and str(), so each of
# these files verified, and a null proposition became one named "None".


def _map_counts(fn):
    def edit(data):
        for key, counts in data["actions"].items():
            data["actions"][key] = [fn(c) for c in counts]

    return edit


def _map_profiles(fn):
    def edit(data):
        for entry in data["transitions"]:
            entry["profile"] = [fn(a) for a in entry["profile"]]

    return edit


def _fractional_agents(data):
    data["agents"] += 0.7


def _string_agents(data):
    data["agents"] = str(data["agents"])


def _null_prop(data):
    data["states"][0]["props"] = [None]


def _number_annotation(data):
    data["hintikka"]["0"][0] = 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (_fractional_agents, "agent count must be an integer, got 2.7"),
        (_string_agents, "agent count must be an integer, got '2'"),
        (_map_counts(lambda c: c + 0.9), "must be an integer, got 2.9"),
        (_map_counts(lambda c: c == 1 or c), "must be an integer, got True"),
        (_map_counts(str), "must be an integer, got '2'"),
        (_map_profiles(lambda a: a + 0.5), "must be an integer, got 0.5"),
        (_map_profiles(bool), "must be an integer, got False"),
        (_map_profiles(str), "must be an integer, got '0'"),
        (_null_prop, "proposition of state 0 must be a string, got None"),
        (_number_annotation, "annotation of state '0' must be a string, got 1"),
    ],
    ids=[
        "fractional-agents",
        "string-agents",
        "fractional-action-count",
        "bool-action-count",
        "string-action-count",
        "fractional-profile-entry",
        "bool-profile-entry",
        "string-profile-entry",
        "null-proposition",
        "number-annotation",
    ],
)
def test_verify_refuses_numbers_and_names_of_the_wrong_type(
    model_file, tmp_path, capsys, edit, message
):
    data = json.loads(model_file.read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("verify", str(path), "None")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert message in err


def test_verify_refuses_a_huge_action_box_without_listing_it(tmp_path):
    # 36 million promised profiles against one transition.  The child runs
    # under a 1 GB address-space cap, so a loader that materializes the
    # box fails this test instead of the machine.
    model = {
        "agents": 2,
        "initial": 0,
        "states": [{"id": 0, "props": []}],
        "actions": {"0": [6000, 6000]},
        "transitions": [{"from": 0, "profile": [0, 0], "to": 0}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    cap = 1 << 30
    result = subprocess.run(
        [sys.executable, "-m", "atlplus", "verify", str(path)],
        capture_output=True,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert result.returncode == 2
    assert b"missing [(0, (0, 1)), (0, (0, 2)), (0, (0, 3))]" in result.stderr


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
