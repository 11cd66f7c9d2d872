"""Model-checking oracle: demo models, semantic laws, error guards."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import checker
from atlplus.cgm import CGM
from atlplus.checker import CheckError, ModelChecker, check_model
from atlplus.enumeration import enumerate_cgms, sample_cgm
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import default_universe, negate, parse, to_nnf


def _model(agents, counts, transitions, props, initial=0):
    return CGM(
        agents=agents,
        ids=list(range(len(counts))),
        props=[frozenset(p) for p in props],
        action_counts=[tuple(c) for c in counts],
        transitions={(s, tuple(a)): t for (s, a), t in transitions.items()},
        initial=initial,
    )


def test_check_model_evaluates_long_flat_chains():
    # One state holding p0..p1999: the oracle loops down a chain's spine.
    model = _model(
        agents=1,
        counts=[(1,)],
        transitions={(0, (0,)): 0},
        props=[{f"p{i}" for i in range(2000)}],
    )
    conjuncts = [f"p{i}" for i in range(2000)]
    assert check_model(model, parse(" & ".join(conjuncts))).holds
    assert not check_model(model, parse(" & ".join(conjuncts + ["q"]))).holds
    disjuncts = [f"q{i}" for i in range(2000)]
    assert not check_model(model, parse(" | ".join(disjuncts))).holds
    assert check_model(model, parse(" | ".join(disjuncts + ["p7"]))).holds


# State 0 holds p and may stay (action 0) or move (action 1) to the q sink.
TOGGLE = _model(
    agents=1,
    counts=[(2,), (1,)],
    transitions={(0, (0,)): 0, (0, (1,)): 1, (1, (0,)): 1},
    props=[{"p"}, {"q"}],
)

# Two agents; the play reaches the win state exactly when actions match.
MATCHING = _model(
    agents=2,
    counts=[(2, 2), (1, 1), (1, 1)],
    transitions={
        (0, (0, 0)): 1,
        (0, (1, 1)): 1,
        (0, (0, 1)): 2,
        (0, (1, 0)): 2,
        (1, (0, 0)): 1,
        (2, (0, 0)): 2,
    },
    props=[set(), {"win"}, set()],
)

# One irreversible choice between a p sink and a q sink.
CHOICE = _model(
    agents=1,
    counts=[(2,), (1,), (1,)],
    transitions={(0, (0,)): 1, (0, (1,)): 2, (1, (0,)): 1, (2, (0,)): 2},
    props=[set(), {"p"}, {"q"}],
)

# Deterministic chain p, p, then the q sink.
CHAIN = _model(
    agents=1,
    counts=[(1,), (1,), (1,)],
    transitions={(0, (0,)): 1, (1, (0,)): 2, (2, (0,)): 2},
    props=[{"p"}, {"p"}, {"q"}],
)


def holds(model, text, universe=None):
    f = parse(text)
    return check_model(model, f, universe).holds


# ---------------------------------------------------------------------------
# Demo-model verdicts


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", True),
        ("q", False),
        ("<<1>>X p", True),
        ("<<1>>X q", True),
        ("[[1]]X q", False),  # staying put avoids q
        ("<<1>>G p", True),
        ("<<1>>F q", True),
        ("<<1>>(G p | F q)", True),
        ("<<1>>(G p & F q)", False),  # one strategy cannot do both
        ("<<1>>G p & <<1>>F q", True),  # but separate strategies can
        ("[[1]]G p", False),
        ("[[1]]F q", False),
        ("<<>>G (p | q)", True),
        ("<<>>F q", False),
        ("<<1>>(p U q)", True),
        ("[[1]](p U q)", False),
    ],
)
def test_toggle_model(text, expected):
    assert holds(TOGGLE, text, (1,)) is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("<<1>>X win", False),
        ("<<2>>X win", False),
        ("<<1,2>>X win", True),
        ("<<>>X win", False),
        ("[[1]]X win", True),  # whatever agent 1 fixes, agent 2 can match
        ("[[2]]X win", True),
        ("[[1,2]]X win", False),  # together they can mismatch forever
        ("<<1,2>>F win", True),
        ("<<1,2>>G ~win", True),
        ("[[1]]F win", True),
    ],
)
def test_matching_model(text, expected):
    assert holds(MATCHING, text, (1, 2)) is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("<<1>>F p", True),
        ("<<1>>F q", True),
        ("<<1>>(F p & F q)", False),  # the choice is irreversible
        ("<<1>>(F p | F q)", True),
        ("<<1>>F p & <<1>>F q", True),
        ("[[1]]F (p | q)", True),  # every play lands in one of the sinks
        ("[[1]](F p & F q)", False),
        ("<<1>>X ~p & <<1>>X ~q", True),
        ("<<1>>X (p | q)", True),
    ],
)
def test_choice_model(text, expected):
    assert holds(CHOICE, text, (1,)) is expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("<<1>>(p U q)", True),
        ("[[1]](p U q)", True),  # no choices at all: one play, and it works
        ("<<1>>G p", False),
        ("<<1>>F q", True),
        ("<<1>>(q R p)", False),  # q arrives, but p has left by then
        ("<<1>>(false R p)", False),
        ("<<1>>X X q", False),  # nesting X inside a path formula is rejected
    ],
)
def test_chain_model(text, expected):
    if text == "<<1>>X X q":
        from atlplus.syntax import ParseError

        with pytest.raises(ParseError):
            parse(text)
        return
    assert holds(CHAIN, text, (1,)) is expected


def test_checking_at_non_initial_states():
    f = parse("<<1>>(p U q)")
    assert check_model(CHAIN, f, (1,), state=2).holds
    assert not check_model(CHAIN, parse("p"), (1,), state=2).holds


def test_release_agrees_with_its_normal_form():
    for m in (TOGGLE, CHAIN, CHOICE):
        for text in ("<<1>>(q R p)", "[[1]](p R q)", "<<1>>(false R (p | q))"):
            f = parse(text)
            nf = to_nnf(f, (1,))
            assert check_model(m, f, (1,)).holds == check_model(m, nf, (1,)).holds


def test_report_summary_mentions_verdict_and_state():
    rep = check_model(TOGGLE, parse("<<1>>F q"), (1,))
    assert rep.holds
    assert "holds at state 0" in rep.summary()
    rep2 = check_model(TOGGLE, parse("<<>>F q"), (1,))
    assert "fails at state 0" in rep2.summary()


# ---------------------------------------------------------------------------
# Binding and guards


def test_default_universe_binds_agents_one_based():
    # Only the second position's action matters, so agent 2 can enforce X p
    # and agent 1 cannot.
    m = _model(
        agents=2,
        counts=[(1, 2), (1, 1)],
        transitions={(0, (0, 0)): 0, (0, (0, 1)): 1, (1, (0, 0)): 1},
        props=[set(), {"p"}],
    )
    assert check_model(m, parse("<<2>>X p")).holds
    assert not check_model(m, parse("<<1>>X p")).holds


def test_formula_mentioning_agents_beyond_the_model_is_rejected():
    with pytest.raises(CheckError):
        check_model(TOGGLE, parse("<<2>>X p"))


def test_explicit_universe_must_match_model_positions():
    with pytest.raises(CheckError):
        ModelChecker(MATCHING, (1,))
    with pytest.raises(CheckError):
        check_model(TOGGLE, parse("<<1>>X p"), (1, 2))


def test_coalition_outside_universe_is_rejected():
    checker = ModelChecker(TOGGLE, (1,))
    with pytest.raises(CheckError):
        checker.states_where(parse("<<3>>X p"))


def test_malformed_model_is_rejected():
    broken = _model(
        agents=1,
        counts=[(2,)],
        transitions={(0, (0,)): 0},  # profile (1,) has no target
        props=[{"p"}],
    )
    with pytest.raises(Exception):
        ModelChecker(broken, (1,))


# ---------------------------------------------------------------------------
# Semantic laws on enumerated and sampled models


FIXPOINTS_1AGENT = [
    ("<<1>>G p", "p & <<1>>X <<1>>G p"),
    ("<<1>>(p U q)", "q | (p & <<1>>X <<1>>(p U q))"),
    ("<<1>>F p", "p | <<1>>X <<1>>F p"),
    ("[[1]]G p", "p & [[1]]X [[1]]G p"),
    ("[[1]](p U q)", "q | (p & [[1]]X [[1]](p U q))"),
    ("[[1]]F p", "p | [[1]]X [[1]]F p"),
]

DUALITIES_1AGENT = [
    ("<<1>>G p", "~[[1]]F ~p"),
    ("<<1>>F p", "~[[1]]G ~p"),
    ("<<1>>X p", "~[[1]]X ~p"),
    ("<<1>>(p U q)", "~[[1]](~p R ~q)"),
    ("<<>>G p", "~[[]]F ~p"),
]


@pytest.mark.parametrize("lhs,rhs", FIXPOINTS_1AGENT)
def test_fixpoint_laws_on_all_small_one_agent_models(lhs, rhs):
    fl, fr = parse(lhs), parse(rhs)
    for m in enumerate_cgms(1, ("p", "q"), 2, 2):
        checker = ModelChecker(m, (1,))
        assert checker.states_where(fl) == checker.states_where(fr)


@pytest.mark.parametrize("lhs,rhs", DUALITIES_1AGENT)
def test_duality_laws_on_all_small_one_agent_models(lhs, rhs):
    fl, fr = parse(lhs), parse(rhs)
    for m in enumerate_cgms(1, ("p", "q"), 2, 2):
        checker = ModelChecker(m, (1,))
        assert checker.states_where(fl) == checker.states_where(fr)


def test_two_agent_dualities_on_small_models():
    pairs = [
        ("<<1>>G p", "~[[1]]F ~p"),
        ("<<1,2>>X p", "~[[1,2]]X ~p"),
        ("<<2>>(p U q)", "~[[2]](~p R ~q)"),
    ]
    models = enumerate_cgms(2, ("p", "q"), 1, 2) + enumerate_cgms(
        2, ("p",), 2, 2
    )
    for lhs, rhs in pairs:
        fl, fr = parse(lhs), parse(rhs)
        for m in models:
            checker = ModelChecker(m, (1, 2))
            assert checker.states_where(fl) == checker.states_where(fr)


def test_conjunction_inside_one_quantifier_is_stronger():
    # <<A>>(φ & ψ) demands a single strategy for both goals, so it implies
    # each single-goal ability; the disjunctive dual is the mirror image.
    both = parse("<<1>>(G p & F q)")
    gp, fq = parse("<<1>>G p"), parse("<<1>>F q")
    either = parse("<<1>>(G p | F q)")
    for m in enumerate_cgms(1, ("p", "q"), 2, 2):
        checker = ModelChecker(m, (1,))
        s_both = checker.states_where(both)
        assert s_both <= checker.states_where(gp)
        assert s_both <= checker.states_where(fq)
        assert (
            checker.states_where(gp) | checker.states_where(fq)
        ) <= checker.states_where(either)


@settings(max_examples=80, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_exactly_one_of_formula_and_negation_holds(seed):
    rng = random.Random(seed)
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=8))
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    m = sample_cgm(rng, len(universe), ("p", "q", "r"), 3, 2)
    checker = ModelChecker(m, universe)
    pos = checker.states_where(f)
    neg = checker.states_where(negate(f, universe))
    assert pos & neg == frozenset()
    assert pos | neg == checker.all_states


@settings(max_examples=40, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_checker_agrees_with_normalization(seed):
    rng = random.Random(seed ^ 0x5EED)
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=8))
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    m = sample_cgm(rng, len(universe), ("p", "q", "r"), 3, 2)
    checker = ModelChecker(m, universe)
    assert checker.states_where(raw) == checker.states_where(f)


def _disjoint_union(a, b):
    shift = a.n_states
    moved = {(s + shift, prof): t + shift for (s, prof), t in b.transitions.items()}
    return CGM(
        agents=a.agents,
        ids=list(range(shift + b.n_states)),
        props=a.props + b.props,
        action_counts=a.action_counts + b.action_counts,
        transitions={**a.transitions, **moved},
        initial=0,
    )


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_disjoint_union_is_checked_component_by_component(seed):
    # Winning sets are fixpoints of a one-step operator, so no component of
    # a disjoint union affects another's states.
    rng = random.Random(seed ^ 0xD15)
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=8))
    universe = default_universe(raw)
    a = sample_cgm(rng, len(universe), ("p", "q", "r"), 3, 2)
    b = sample_cgm(rng, len(universe), ("p", "q", "r"), 3, 2)
    left = ModelChecker(a, universe).states_where(raw)
    right = ModelChecker(b, universe).states_where(raw)
    expected = left | {s + a.n_states for s in right}
    assert ModelChecker(_disjoint_union(a, b), universe).states_where(raw) == expected
    assert ModelChecker.disjoint_union([a, b], universe).states_where(raw) == expected


def test_one_checker_answers_a_sequence_like_fresh_checkers():
    formulas = random_corpus(3, 60, GenConfig(max_size=10))
    for seed in range(5):
        m = sample_cgm(random.Random(seed), 2, ("p", "q", "r"), 3, 2)
        shared = ModelChecker(m, (1, 2))
        for f in formulas + formulas:
            assert shared.states_where(f) == ModelChecker(m, (1, 2)).states_where(f)


def test_checker_imports_only_cgm_syntax_and_the_stdlib():
    # The oracle certifies models independently of the tableau: it may
    # read models and formulas, and nothing else of the package.
    tree = ast.parse(Path(checker.__file__).read_text(encoding="utf-8"))
    local, external = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            external.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            external.update(alias.name.split(".")[0] for alias in node.names)
    assert local == {"cgm", "syntax"}
    assert external <= sys.stdlib_module_names
