"""Parser, printer, normal form, and classification tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus.decomposition import closure
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import (
    FALSE,
    TRUE,
    Always,
    And,
    Enf,
    FalseConst,
    FormulaClass,
    MAX_NESTING_DEPTH,
    FormulaError,
    Lit,
    Next,
    Not,
    Or,
    POr,
    ParseError,
    PAnd,
    StateFormula,
    TrueConst,
    Unav,
    Until,
    always,
    boolean_depth,
    conj,
    default_universe,
    disj,
    enf,
    formula_size,
    implies,
    is_nnf,
    iter_subformulas,
    lit,
    lnot,
    mentioned_agents,
    mentioned_props,
    negate,
    pand,
    parse,
    pnext,
    por,
    to_nnf,
    to_text,
    unav,
    until,
    _superficial_depth,
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
    return [g for g in iter_subformulas(f) if isinstance(g, Unav)]


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


def _recursive_subformulas(g, out):
    """Pre-order by recursion: the walk ``iter_subformulas`` must match."""
    out.append(g)
    for name in ("sub", "path", "state", "lhs", "rhs"):
        if hasattr(g, name):
            _recursive_subformulas(getattr(g, name), out)
    for h in getattr(g, "operands", ()):
        _recursive_subformulas(h, out)
    return out


def test_iter_subformulas_yields_the_recursive_pre_order():
    texts = ["<<1>>(p & X q) & [[2]](G q | p)", "~(p -> <<1,2>>(p R ~q & F p))"]
    corpus = [parse(t) for t in texts] + random_corpus(3, 300)
    corpus += [to_nnf(f, default_universe(f)) for f in corpus]
    for f in corpus:
        expected = _recursive_subformulas(f, [])
        assert list(iter_subformulas(f)) == expected, to_text(f)


def test_normal_form_and_printer_loop_down_long_flat_chains():
    names = [f"p{i}" for i in range(2000)]
    text = " & ".join(names)
    f = parse(text)
    assert is_nnf(f) and to_nnf(f, (1,)) is f
    assert to_text(f) == " & ".join(sorted(names))
    g = negate(f, (1,))
    assert to_text(g) == " | ".join(sorted(f"~{name}" for name in names))
    assert negate(g, (1,)) is f
    assert parse(to_text(g)) is g
    h = parse(f"<<1>>G ({text}) | <<1>>(q U ({to_text(g)}))")
    assert to_nnf(h, (1,)) is h and parse(to_text(h)) is h
    assert boolean_depth(h) == 0


def test_mention_helpers_walk_long_flat_chains():
    # An explicit stack: 2,000 conjuncts do not reach the recursion limit.
    f = parse(" & ".join(f"p{i}" for i in range(2000)))
    assert default_universe(f) == (1,)
    assert len(mentioned_props(f)) == 2000
    g = parse(" & ".join(f"<<{i % 3 + 1}>>(q U p{i})" for i in range(2000)))
    assert default_universe(g) == (1, 2, 3)
    assert mentioned_props(g) == {"q"} | {f"p{i}" for i in range(2000)}


# ---------------------------------------------------------------------------
# Classification


def test_kinds_of_all_classes():
    universe = (1, 2)
    assert lit("p").kind is FormulaClass.PRIMITIVE
    assert TRUE.kind is FormulaClass.PRIMITIVE
    assert parse("p & q").kind is FormulaClass.ALPHA
    assert parse("p | q").kind is FormulaClass.BETA
    assert to_nnf(parse("<<1>>(p U q)"), universe).kind is FormulaClass.GAMMA
    # Successor formulas are their own kind, handled by the next-state rule.
    step = to_nnf(parse("<<1>>X p"), universe)
    assert step.kind is FormulaClass.SUCCESSOR
    assert step.path.state is lit("p")


def test_gamma_kind_excludes_next():
    assert parse("<<1>>G p").kind is FormulaClass.GAMMA
    assert parse("[[1]](p U q)").kind is FormulaClass.GAMMA
    assert parse("<<1>>X p").kind is FormulaClass.SUCCESSOR
    assert parse("p & q").kind is FormulaClass.ALPHA


def _reference_kind(f):
    """The isinstance chain that gave a formula's class before each node
    carried its kind: the reference the interned kinds are checked against."""
    if isinstance(f, (TrueConst, FalseConst, Lit)):
        return FormulaClass.PRIMITIVE
    if isinstance(f, And):
        return FormulaClass.ALPHA
    if isinstance(f, Or):
        return FormulaClass.BETA
    if isinstance(f, (Enf, Unav)):
        if isinstance(f.path, Next):
            return FormulaClass.SUCCESSOR
        return FormulaClass.GAMMA
    raise FormulaError(f"not a normal-form state formula: {f!r}")


def _roadmap_families():
    """Small members of the four ROADMAP families: F&G k, dis k, u n and
    fconj n."""
    for k in (2, 3):
        agents = range(1, k + 1)
        yield " & ".join(f"<<{i}>>(F p{i} & G r)" for i in agents)
        yield " & ".join(f"<<{i}>>(F p{i} | G q)" for i in agents) + " & [[1]]F ~q"
    for n in (2, 4):
        yield "<<1>>(" + " & ".join(f"p{i} U q{i}" for i in range(n)) + ")"
    for n in (2, 5):
        yield " & ".join(f"<<1>>F p{i}" for i in range(n))


def test_interned_kinds_match_the_isinstance_reference():
    config = GenConfig(bool_depth=2, allow_constants=True)
    formulas = list(random_corpus(16, 150, config))
    formulas += [parse(text) for text in _roadmap_families()]
    checked = 0
    for raw in formulas:
        for f in closure(to_nnf(raw, default_universe(raw))):
            assert f.kind is _reference_kind(f), f
            if isinstance(f, Lit):
                assert f.complement is lit(f.name, not f.positive)
                assert f.complement.complement is f
            else:
                assert f.complement is None
            checked += 1
    assert checked > 1000


def test_kinds_outside_the_normal_form_state_fragment():
    p, q = lit("p"), lit("q")
    for surface in (lnot(conj(p, q)), implies(p, q)):
        with pytest.raises(FormulaError):
            _reference_kind(surface)
        assert surface.kind is None
    for path in (pnext(p), always(p), until(p, q), pand(always(p), until(p, q))):
        with pytest.raises(FormulaError):
            _reference_kind(path)
        assert path.kind is None


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


def _recursive_boolean_depth(f):
    """The recursive definition ``boolean_depth`` had before it read the
    node walk: the reference it is checked against on normal forms."""

    def depth_state(g):
        if isinstance(g, (And, Or)):
            return max(map(depth_state, g.operands))
        if isinstance(g, (Enf, Unav)):
            return max(_superficial_depth(g.path), depth_path_states(g.path))
        return 0

    def depth_path_states(p):
        if isinstance(p, StateFormula):
            return depth_state(p)
        if isinstance(p, (Next, Always)):
            return depth_state(p.state)
        if isinstance(p, Until):
            return max(depth_state(p.lhs), depth_state(p.rhs))
        if isinstance(p, (PAnd, POr)):
            return max(map(depth_path_states, p.operands))
        raise FormulaError(f"not a normal-form path formula: {p!r}")

    return depth_state(f)


def test_boolean_depth_matches_the_recursive_reference():
    corpus = random_corpus(3, 1000, GenConfig(bool_depth=3, max_size=20))
    corpus += random_corpus(4, 1000, GenConfig(agents=(1, 2, 3)))
    depths = set()
    for raw in corpus:
        f = to_nnf(raw, default_universe(raw))
        depths.add(boolean_depth(f))
        assert boolean_depth(f) == _recursive_boolean_depth(f), to_text(f)
    assert depths >= {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Constructor canonicalization


def test_conj_canonical_order_and_units():
    assert conj(lit("q"), lit("p")) is conj(lit("p"), lit("q"))
    assert conj(TRUE, lit("p")) is lit("p")
    assert conj(FALSE, lit("p")) is FALSE
    assert disj(FALSE, lit("p")) is lit("p")
    assert disj(TRUE, lit("p")) is TRUE
    assert conj(lit("p"), lit("p")) is lit("p")


_LEAVES = hst.sampled_from([lit("p"), lit("q"), lit("r"), lit("p", False), lit("q", False)])
_COALITIONS = hst.sampled_from([(), (1,), (2,)])


def _path_formulas(states, max_leaves):
    temporal = (
        hst.builds(pnext, states) | hst.builds(always, states) | hst.builds(until, states, states)
    )
    return hst.recursive(
        states | temporal,
        lambda sub: hst.builds(pand, sub, sub) | hst.builds(por, sub, sub),
        max_leaves=max_leaves,
    )


_QUANTIFIED = hst.builds(enf, _COALITIONS, _path_formulas(_LEAVES, 4)) | hst.builds(
    unav, _COALITIONS, _path_formulas(_LEAVES, 4)
)
_STATE_FORMULAS = hst.recursive(
    _LEAVES | _QUANTIFIED,
    lambda sub: hst.builds(conj, sub, sub) | hst.builds(disj, sub, sub),
    max_leaves=6,
)
_PATH_FORMULAS = _path_formulas(_STATE_FORMULAS, 5)
# join -> (unit, absorber, operands it joins)
_JOIN_LAWS = {
    conj: (TRUE, FALSE, _STATE_FORMULAS),
    disj: (FALSE, TRUE, _STATE_FORMULAS),
    pand: (TRUE, FALSE, _PATH_FORMULAS),
    por: (FALSE, TRUE, _PATH_FORMULAS),
}


def _assert_joins_well_formed(f):
    for g in iter_subformulas(f):
        t = type(g)
        if t in (And, Or, PAnd, POr):
            keys = [h.key for h in g.operands]
            assert len(keys) >= 2 and keys == sorted(set(keys)), g
            assert all(type(h) is not t for h in g.operands), g
            if t in (PAnd, POr):
                assert sum(isinstance(h, StateFormula) for h in g.operands) <= 1, g


@pytest.mark.parametrize("mk", list(_JOIN_LAWS), ids=lambda mk: mk.__name__)
@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_joins_obey_the_laws_of_their_connective(mk, data):
    unit, absorber, operands = _JOIN_LAWS[mk]
    a, b, c = (data.draw(operands) for _ in range(3))
    joined = mk(a, b, c)
    assert mk(a, mk(b, c)) is joined and mk(mk(a, b), c) is joined
    assert mk(a, b) is mk(b, a)
    assert mk(a, a) is a
    assert mk(a, unit) is a and mk(unit, a) is a and mk(a) is a and mk() is unit
    assert mk(a, absorber) is absorber and mk(absorber, b, c) is absorber
    for f in (a, b, joined, mk(a, b)):
        _assert_joins_well_formed(f)
        state = f if isinstance(f, StateFormula) else enf((1,), f)
        assert parse(to_text(state)) is state


def test_negate_literal_helpers():
    assert lnot(lit("p")) is lit("p", positive=False)
    assert lnot(lit("p", positive=False)) is lit("p")
    assert lnot(TRUE) is FALSE
