"""Parser, printer, normal form, and classification tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import (
    FALSE,
    TRUE,
    And,
    Enf,
    FormulaClass,
    MAX_NESTING_DEPTH,
    FormulaError,
    Lit,
    Not,
    Or,
    ParseError,
    PAnd,
    St,
    Unav,
    Until,
    always,
    boolean_depth,
    classify,
    conj,
    default_universe,
    disj,
    enf,
    formula_size,
    is_gamma,
    is_nnf,
    is_successor_formula,
    lit,
    lnot,
    mentioned_agents,
    mentioned_props,
    parse,
    pnext,
    st,
    successor_payload,
    to_nnf,
    to_text,
    unav,
    until,
)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_atoms_and_constants():
    assert parse("p") is lit("p")
    assert parse("~p") is lit("p", positive=False) or isinstance(parse("~p"), Not)
    assert parse("true") is TRUE
    assert parse("false") is FALSE


def test_parse_boolean_precedence():
    f = parse("p & q | r")
    assert isinstance(f, Or)
    g = parse("p -> q & r")
    assert g is parse("p -> (q & r)")


def test_parse_coalitions():
    f = parse("<<1,2>>X p")
    assert isinstance(f, Enf)
    assert f.coalition == (1, 2)
    g = parse("[[]]G p")
    assert isinstance(g, Unav)
    assert g.coalition == ()


def test_coalition_order_and_duplicates_normalize():
    assert parse("<<2,1>>X p") is parse("<<1,2>>X p")
    assert parse("<<1,1>>X p") is parse("<<1>>X p")


def test_quantifier_takes_maximal_right_scope():
    f = parse("<<1>>p U q")
    assert f is parse("<<1>>(p U q)")
    assert isinstance(f.path, Until)


def test_parse_boolean_path_combinations():
    f = parse("<<1>>(p U q | G q)")
    assert isinstance(f, Enf)
    g = parse("<<1>>(F p & G ~q)")
    assert isinstance(g.path, PAnd)


def test_nested_temporal_operators_rejected():
    with pytest.raises(FormulaError):
        parse("<<1>>G F p")
    with pytest.raises(FormulaError):
        parse("<<1>>(p U (q U r))")


def test_parse_errors():
    for bad in ["", "p &", "<<1>", "p U q", "((p)", "p q", "<<a>>X p"]:
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize(
    "opener, closer, levels, offset",
    [
        ("~", "", 1, 0),
        ("(", ")", 1, 0),
        ("<<1>>X ", "", 2, 0),
        ("[[1]](", ")", 2, 0),
        ("p -> ", "", 1, 2),
    ],
)
def test_nesting_depth_limit(opener, closer, levels, offset):
    # Each opener nests ``levels`` deeper; the error points at the operator
    # ``offset`` characters into the first opener past the limit.
    ok = MAX_NESTING_DEPTH // levels
    parse(opener * ok + "p" + closer * ok)
    with pytest.raises(ParseError) as info:
        parse(opener * (ok + 1) + "p" + closer * (ok + 1))
    assert "nested deeper than" in str(info.value)
    assert (info.value.line, info.value.col) == (1, len(opener) * ok + offset + 1)


def test_temporal_operator_needs_quantifier():
    # A bare path formula is not a state formula.
    with pytest.raises(ParseError):
        parse("G p")


def test_interning_equality_is_identity():
    assert parse("p & q") is parse("q & p")
    assert parse("p | q") is parse("q | p")
    assert parse("<<1>>(p U q)") is parse("<<1>>(p U q)")


# ---------------------------------------------------------------------------
# Printing and round-trips


def test_to_text_round_trip_simple():
    for text in [
        "p",
        "~p",
        "p & q",
        "p | q & r",
        "<<1>>X p",
        "[[1,2]]G ~q",
        "<<>>F p",
        "<<1>>(p U q | G q) & [[2]](F p & G ~q)",
    ]:
        assert parse(to_text(parse(text))) is parse(text)


def test_printer_guards_quantifier_before_until():
    # A quantified formula printed to the left of U/R must keep its
    # parentheses, or re-parsing would absorb the operator into its scope.
    f = parse("<<2>>(([[1]](X p | X ~p)) U p)")
    text = to_text(f)
    assert "(" in text.split(" U ")[0]
    assert parse(text) is f


def test_printer_guard_cases():
    cases = [
        until(parse("[[1]]X p"), lit("p")),
        until(lnot(parse("<<1>>X p")), lit("q")),
    ]
    for path in cases:
        f = enf((1,), path)
        assert parse(to_text(f)) is f


@settings(max_examples=200, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_round_trip_random(seed):
    (f,) = random_corpus(seed, 1)
    assert parse(to_text(f)) is f


def test_round_trip_seeded_corpus():
    for f in random_corpus(2024, 200):
        assert parse(to_text(f)) is f


# ---------------------------------------------------------------------------
# Negation normal form


def test_nnf_pushes_negation_to_literals():
    f = to_nnf(parse("~(p & q)"), (1,))
    assert f is parse("~p | ~q")
    g = to_nnf(parse("~(p | q)"), (1,))
    assert g is parse("~p & ~q")


def test_nnf_implication():
    assert to_nnf(parse("p -> q"), (1,)) is parse("~p | q")


def test_nnf_temporal_dualities():
    # Negated enforceable becomes unavoidable of the negated objective.
    f = to_nnf(parse("~<<1>>G p"), (1, 2))
    assert isinstance(f, Unav)
    g = to_nnf(parse("~[[1]]X p"), (1, 2))
    assert isinstance(g, Enf)
    assert g.path.state is parse("~p")


def test_nnf_eliminates_sometime_and_release():
    f = to_nnf(parse("<<1>>F p"), (1,))
    assert isinstance(f.path, Until)
    assert f.path.lhs is TRUE
    g = to_nnf(parse("<<1>>(p R q)"), (1,))
    assert is_nnf(g)
    assert "R" not in to_text(g)
    assert "F" not in to_text(g)


def test_nnf_full_coalition_unavoidable_becomes_empty_enforceable():
    # Over the universe {1}, [[1]] quantifies over no adversaries, which is
    # the same as quantifying over all plays.
    f = to_nnf(parse("[[1]]G p"), (1,))
    assert isinstance(f, Enf)
    assert f.coalition == ()
    g = to_nnf(parse("[[1]]G p"), (1, 2))
    assert isinstance(g, Unav)


def test_nnf_proper_coalitions_after_rewrite():
    for text in ["[[1,2]]G p", "~<<1,2>>F q", "[[2]]X p & [[1]]X q"]:
        f = to_nnf(parse(text), (1, 2))
        for g in _walk_unav(f):
            assert set(g.coalition) < {1, 2}


def _walk_unav(f):
    from atlplus.syntax import iter_state_subformulas

    return [g for g in iter_state_subformulas(f) if isinstance(g, Unav)]


def test_nnf_idempotent_on_corpus():
    for f in random_corpus(7, 100):
        universe = default_universe(f)
        n = to_nnf(f, universe)
        assert is_nnf(n)
        assert to_nnf(n, universe) is n


# ---------------------------------------------------------------------------
# Universe and mention helpers


def test_mentioned_agents_and_props():
    f = parse("<<1>>(p U q) & [[3]]X r")
    assert mentioned_agents(f) == frozenset({1, 3})
    assert mentioned_props(f) == frozenset({"p", "q", "r"})


def test_default_universe_is_mentioned_agents_at_least_one():
    assert default_universe(parse("<<1>>X p")) == (1,)
    assert default_universe(parse("<<2,5>>X p")) == (2, 5)
    assert default_universe(parse("p & q")) == (1,)
    assert default_universe(parse("<<>>X p")) == (1,)


# ---------------------------------------------------------------------------
# Classification


def test_classify_all_classes():
    universe = (1, 2)
    assert classify(lit("p")) is FormulaClass.PRIMITIVE
    assert classify(TRUE) is FormulaClass.PRIMITIVE
    assert classify(parse("p & q")) is FormulaClass.ALPHA
    assert classify(parse("p | q")) is FormulaClass.BETA
    assert classify(to_nnf(parse("<<1>>(p U q)"), universe)) is FormulaClass.GAMMA
    # Successor formulas are their own kind, handled by the next-state rule.
    step = to_nnf(parse("<<1>>X p"), universe)
    assert is_successor_formula(step)
    assert successor_payload(step) is lit("p")


def test_is_gamma_excludes_next():
    assert is_gamma(parse("<<1>>G p"))
    assert is_gamma(parse("[[1]](p U q)"))
    assert not is_gamma(parse("<<1>>X p"))
    assert not is_gamma(parse("p & q"))


# ---------------------------------------------------------------------------
# Size and depth


def test_formula_size_counts_coalitions_as_bit_vectors():
    # One symbol per connective/atom, plus one bit per universe agent for
    # each coalition.
    assert formula_size(lit("p"), (1,)) == 1
    assert formula_size(parse("~p"), (1,)) == 2
    assert formula_size(parse("p & q"), (1,)) == 3
    assert formula_size(parse("<<1>>X p"), (1,)) == 4  # quant+1 bit, X, p
    assert formula_size(parse("<<1>>X p"), (1, 2)) == 5


def test_boolean_depth():
    assert boolean_depth(parse("<<1>>G p")) == 0
    assert boolean_depth(parse("<<1>>(p U q & G p)")) == 1
    assert boolean_depth(parse("<<1>>((p U q & G p) | G q)")) == 2
    assert boolean_depth(parse("p & q")) == 0


# ---------------------------------------------------------------------------
# Constructor canonicalization


def test_conj_canonical_order_and_units():
    assert conj(lit("q"), lit("p")) is conj(lit("p"), lit("q"))
    assert conj(TRUE, lit("p")) is lit("p")
    assert conj(FALSE, lit("p")) is FALSE
    assert disj(FALSE, lit("p")) is lit("p")
    assert disj(TRUE, lit("p")) is TRUE
    assert conj(lit("p"), lit("p")) is lit("p")


def test_negate_literal_helpers():
    assert lnot(lit("p")) is lit("p", positive=False)
    assert lnot(lit("p", positive=False)) is lit("p")
    assert lnot(TRUE) is FALSE
