"""Acceptance gate: nine frozen criteria, one verdict line each.

Each test prints ``An PASS: ...`` or ``An FAIL: ...`` straight to the
terminal (bypassing capture) so a plain pytest run shows one line per
criterion in order.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from atlplus.cgm import CGM
from atlplus.checker import ModelChecker, check_model
from atlplus.decomposition import closure, dec, gamma_components
from atlplus.enumeration import enumerate_cgms, find_bounded_model, sample_cgm
from atlplus.randgen import GenConfig, random_corpus
from atlplus.synthesis import assemble, extract_cgm, validate_hintikka
from atlplus.syntax import (
    default_universe,
    disj,
    formula_size,
    is_gamma,
    mentioned_agents,
    mentioned_props,
    negate,
    parse,
    to_nnf,
    to_text,
)
from atlplus.tableau import build_pretableau, decide

CLOSED = "<<1>>(p U q | G q) & <<2>>(F p & G ~q)"
OPEN = "<<1>>(p U q | G q) & [[2]](F p & G ~q)"
ANTECEDENT = "<<1>>F (p & <<1>>F q)"
CONSEQUENT = "<<1>>(F p & F q)"
FOUR_STEP = "<<1>>X a & <<1,2>>X b & [[2]]X c & [[1]]X d"


@contextmanager
def verdict(capsys, name, summary):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{name} FAIL: {summary}", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"{name} PASS: {summary}", flush=True)


def _decide(text, universe=None):
    f = parse(text)
    universe = universe or default_universe(f)
    return decide(to_nnf(f, universe), universe), universe


def test_a1_closed_golden_run(capsys):
    with verdict(
        capsys,
        "A1",
        "closed golden input: UNSAT, 11-state/7-prestate pretableau, "
        "frozen elimination batch, 6-state final tableau, under 1s",
    ):
        start = time.perf_counter()
        d, _ = _decide(CLOSED, (1, 2))
        elapsed = time.perf_counter() - start
        assert not d.sat
        assert d.pretableau_state_count == 11
        assert d.pretableau_prestate_count == 7
        assert d.final_state_count == 6
        trace = d.tableau.elimination_trace
        assert len(trace) == 1
        assert set(trace[0]["unrealized"]) == {1, 2, 5, 6, 10}
        assert trace[0]["stuck"] == []
        assert elapsed < 1.0


def test_a2_open_golden_run(capsys):
    with verdict(
        capsys,
        "A2",
        "open golden input: SAT, final tableau equals the initial "
        "(8 states), synthesized 7-state model has the frozen label "
        "multiset and is oracle-certified, under 1s",
    ):
        start = time.perf_counter()
        d, universe = _decide(OPEN, (1, 2))
        assert d.sat
        assert d.pretableau_state_count == 8
        assert d.final_state_count == 8
        assert d.tableau.elimination_trace == []
        model = extract_cgm(assemble(d.tableau))
        elapsed = time.perf_counter() - start
        labels = sorted(",".join(sorted(p)) for p in model.props)
        assert labels == ["", "", "p", "p", "p,q", "p,q", "q"]
        assert validate_hintikka(model, universe) == []
        assert check_model(model, d.tableau.input, universe).holds
        assert elapsed < 1.0


def test_a3_decomposition_goldens(capsys):
    with verdict(
        capsys,
        "A3",
        "path decomposition of the golden operands: 4 and 2 frozen pairs",
    ):
        f = to_nnf(parse(OPEN), (1, 2))
        left = dec(f.lhs.path)
        right = dec(f.rhs.path)

        def pair_text(p):
            later = "DONE" if p.later.key == "true" else p.later.key
            return (p.now.key, later)

        assert [pair_text(p) for p in left] == [
            ("q", "(G q)"),
            ("p", "(p U q)"),
            ("q", "DONE"),
            ("(p & q)", "((G q) | (p U q))"),
        ]
        assert [pair_text(p) for p in right] == [
            ("~q", "((G ~q) & (true U p))"),
            ("(p & ~q)", "(G ~q)"),
        ]


def test_a4_next_rule_table(capsys):
    with verdict(
        capsys,
        "A4",
        "successor-prestate rule: frozen 16-row payload table for two "
        "enforceable and two unavoidable steps",
    ):
        f = to_nnf(parse(FOUR_STEP), (1, 2))
        tab = build_pretableau(f, (1, 2))
        d1 = tab.states[0]
        assert [to_text(g) for g in d1.enf_steps] == ["<<1>>X a", "<<1,2>>X b"]
        assert [to_text(g) for g in d1.unav_steps] == ["[[2]]X c", "[[1]]X d"]
        expected = {
            (0, 0): {"a"}, (0, 1): {"a"}, (0, 2): {"a"}, (0, 3): {"a", "d"},
            (1, 0): {"true"}, (1, 1): {"b"}, (1, 2): {"true"}, (1, 3): {"d"},
            (2, 0): {"c"}, (2, 1): {"c"}, (2, 2): {"c"}, (2, 3): {"d"},
            (3, 0): {"true"}, (3, 1): {"true"}, (3, 2): {"d"}, (3, 3): {"c"},
        }
        moves = {
            sigma: cell.target for cell in d1.successors for sigma in cell.sigmas
        }
        assert set(moves) == set(expected)
        for sigma, want in expected.items():
            got = {to_text(g) for g in moves[sigma].label}
            assert got == want, f"profile {sigma}"


def test_a5_perfect_recall_validity(capsys):
    with verdict(
        capsys,
        "A5",
        "negated ability-distribution implication is UNSAT; antecedent "
        "and consequent both certified on the three-state demo model",
    ):
        negated = f"~(({ANTECEDENT}) -> ({CONSEQUENT}))"
        d, _ = _decide(negated)
        assert not d.sat
        demo = CGM.from_json_dict(
            {
                "agents": 1,
                "initial": "s0",
                "states": [
                    {"id": "s0", "props": []},
                    {"id": "s1", "props": ["p"]},
                    {"id": "s2", "props": ["q"]},
                ],
                "actions": {"s0": [2], "s1": [2], "s2": [1]},
                "transitions": [
                    {"from": "s0", "profile": [0], "to": "s0"},
                    {"from": "s0", "profile": [1], "to": "s1"},
                    {"from": "s1", "profile": [0], "to": "s1"},
                    {"from": "s1", "profile": [1], "to": "s2"},
                    {"from": "s2", "profile": [0], "to": "s2"},
                ],
            }
        )
        assert check_model(demo, to_nnf(parse(ANTECEDENT), (1,)), (1,)).holds
        assert check_model(demo, to_nnf(parse(CONSEQUENT), (1,)), (1,)).holds


def test_a6_closure_growth(capsys):
    with verdict(
        capsys,
        "A6",
        "four conjoined untils give exactly 2^4 components; closure stays "
        "under 2^(n^2) across a 200-formula corpus (sizes >= 2)",
    ):
        phi = "p1 U q1"
        for k in range(2, 5):
            phi = f"p{k} U q{k} & ({phi})"
        g = to_nnf(parse(f"<<1>>({phi})"), (1,))
        assert len(gamma_components(g)) == 2 ** 4

        checked = 0
        for raw in random_corpus(2024, 200, GenConfig(max_size=12)):
            f = to_nnf(raw, default_universe(raw))
            n = formula_size(f)
            if n < 2:
                # A single atom closes to {atom, true, false}: three
                # entries against a bound of 2^1. The quadratic-exponent
                # bound only separates from size two upward.
                continue
            assert len(closure(f)) < 2 ** (n * n)
            checked += 1
        assert checked >= 190


def test_a7_end_to_end_differential_sweep(capsys):
    with verdict(
        capsys,
        "A7",
        "500 random formulas: every SAT verdict yields a certified model, "
        "every UNSAT verdict survives exhaustive small-model search, "
        "under 10 minutes",
    ):
        start = time.perf_counter()
        sat_count = unsat_count = 0
        for raw in random_corpus(7, 500, GenConfig()):
            universe = default_universe(raw)
            f = to_nnf(raw, universe)
            d = decide(f, universe)
            if d.sat:
                sat_count += 1
                model = extract_cgm(assemble(d.tableau))
                assert validate_hintikka(model, universe) == []
                assert check_model(model, f, universe).holds
            else:
                unsat_count += 1
                props = tuple(sorted(mentioned_props(f)))
                assert (
                    find_bounded_model(
                        f, universe, props, max_states=2, max_actions=2
                    )
                    is None
                ), to_text(raw)
        elapsed = time.perf_counter() - start
        assert sat_count + unsat_count == 500
        assert sat_count > 0 and unsat_count > 0
        assert elapsed < 600.0


FLAT_CORPUS = [
    "<<1>>X p", "<<1>>G p", "<<1>>F p", "<<1>>(p U q)",
    "<<2>>X ~q", "<<2>>G ~p", "<<2>>F q", "<<2>>(q U p)",
    "<<1,2>>X q", "<<1,2>>G p", "<<1,2>>F q", "<<1,2>>(p U q)",
    "<<>>X p", "<<>>G p", "<<>>F q", "<<>>(p U q)",
    "[[1]]X p", "[[1]]G p", "[[1]]F q", "[[1]](p U q)",
    "[[2]]X q", "[[2]]G ~q", "[[2]]F p", "[[2]](q U p)",
    "[[]]G p", "[[]]F q",
    "<<1>>(G p & F q)", "<<1>>(G p | F q)",
    "[[2]](F p & F q)", "<<1,2>>(p U q | G ~p)",
]

FIXPOINT_LAWS = [
    ("{q}G p", "p & {q}X {q}G p"),
    ("{q}(p U r)", "r | (p & {q}X {q}(p U r))"),
    ("{q}F p", "p | {q}X {q}F p"),
]


def _a8_models():
    models = []
    models += enumerate_cgms(1, ("p", "q"), 2, 2)
    models += enumerate_cgms(1, ("p", "q"), 3, 1)
    models += enumerate_cgms(2, ("p", "q"), 1, 2)
    rng = random.Random(99)
    models += [sample_cgm(rng, 1, ("p", "q", "r"), 3, 2) for _ in range(60)]
    models += [sample_cgm(rng, 2, ("p", "q", "r"), 3, 2) for _ in range(60)]
    return models


def test_a8_semantic_invariants(capsys):
    with verdict(
        capsys,
        "A8",
        "decomposition equivalence, fixed-point laws, and the "
        "quantifier-duality partition hold on every checked model "
        "(exhaustive small families plus seeded 3-state samples)",
    ):
        assert len(FLAT_CORPUS) == 30
        models = _a8_models()
        checks = 0
        for m in models:
            universe = tuple(range(1, m.agents + 1))
            checker = ModelChecker(m, universe)

            for text in FLAT_CORPUS:
                raw = parse(text)
                if set(mentioned_agents(raw)) - set(universe):
                    continue
                f = to_nnf(raw, universe)
                # Duality: a formula and its negation split the states.
                pos = checker.states_where(f)
                neg = checker.states_where(negate(f, universe))
                assert pos & neg == frozenset(), text
                assert pos | neg == checker.all_states, text
                checks += 1
                # Decomposition equivalence: a quantified formula equals
                # the disjunction of its rendered components.
                if is_gamma(f):
                    equiv = None
                    for c in gamma_components(f):
                        equiv = (
                            c.rendered
                            if equiv is None
                            else disj(equiv, c.rendered)
                        )
                    assert checker.states_where(f) == checker.states_where(
                        equiv
                    ), text
                    checks += 1

            coalitions = ["<<>>", "<<1>>", "[[1]]"]
            if m.agents == 2:
                coalitions += ["<<2>>", "<<1,2>>", "[[2]]", "[[1,2]]"]
            for quant in coalitions:
                for lhs, rhs in FIXPOINT_LAWS:
                    fl = to_nnf(parse(lhs.replace("{q}", quant)), universe)
                    fr = to_nnf(parse(rhs.replace("{q}", quant)), universe)
                    assert checker.states_where(fl) == checker.states_where(
                        fr
                    ), (quant, lhs)
                    checks += 1
        assert checks > 10_000


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "atlplus", *argv],
        capture_output=True,
        timeout=120,
    )


def test_a9_deterministic_cli_output(capsys):
    with verdict(
        capsys,
        "A9",
        "check and synth produce byte-identical stdout and stderr on "
        "repeated runs over every golden input",
    ):
        golden_inputs = [
            CLOSED,
            OPEN,
            f"~(({ANTECEDENT}) -> ({CONSEQUENT}))",
            FOUR_STEP,
        ]
        for text in golden_inputs:
            for command in ("check", "synth"):
                first = _run_cli(command, text)
                second = _run_cli(command, text)
                assert first.returncode == second.returncode, (command, text)
                assert first.stdout == second.stdout, (command, text)
                assert first.stderr == second.stderr, (command, text)
