"""Now/later decomposition, gamma components, closure, and expansions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import decomposition
from atlplus.decomposition import (
    ClosureLimitError,
    _canon_state,
    _flatten,
    _pair,
    closure,
    dec,
    full_expansions,
    gamma_components,
    gamma_links,
    holds_locally,
    realized_now,
)
from atlplus.randgen import GenConfig, random_corpus
from atlplus.tableau import build_pretableau
from atlplus.syntax import (
    FALSE,
    TRUE,
    Always,
    And,
    FormulaClass,
    Lit,
    Next,
    Or,
    PAnd,
    POr,
    StateFormula,
    Until,
    always,
    conj,
    disj,
    default_universe,
    formula_size,
    lit,
    pand,
    parse,
    pnext,
    por,
    to_nnf,
    to_text,
    until,
)

P, Q, R_ = lit("p"), lit("q"), lit("r")
NQ = lit("q", positive=False)


def nnf(text, universe=None):
    f = parse(text)
    return to_nnf(f, universe or default_universe(f))


# ---------------------------------------------------------------------------
# dec: the now/later split


def test_dec_until_golden():
    """The left golden operand splits four ways, in a frozen order."""
    g = nnf("<<1>>(p U q | G q)", (1, 2))
    pairs = dec(g.path)
    assert len(pairs) == 4
    assert [(x.now.key, "DONE" if x.later is TRUE else x.later.key)
            for x in pairs] == [
        ("q", "(G q)"),
        ("p", "(p U q)"),
        ("q", "DONE"),
        ("(p & q)", "((G q) | (p U q))"),
    ]


def test_dec_conjunction_golden():
    """The right golden operand splits two ways, in a frozen order."""
    g = nnf("[[2]](F p & G ~q)", (1, 2))
    pairs = dec(g.path)
    assert len(pairs) == 2
    assert [(x.now.key, x.later.key) for x in pairs] == [
        ("~q", "((G ~q) & (true U p))"),
        ("(p & ~q)", "(G ~q)"),
    ]


def test_dec_primitive_path_is_done():
    g = nnf("<<1>>(p U q)", (1,))
    done = [x for x in dec(g.path) if x.later is TRUE]
    assert [x.now for x in done] == [Q]


def test_dec_next():
    g = nnf("<<1>>X p", (1,))
    from atlplus.syntax import pnext

    pairs = dec(pnext(P))
    assert len(pairs) == 1
    assert pairs[0].now is TRUE
    assert pairs[0].later is P


def test_dec_always():
    g = nnf("<<1>>G p", (1,))
    pairs = dec(g.path)
    assert len(pairs) == 1
    assert pairs[0].now is P
    assert pairs[0].later is g.path


def test_dec_conjunction_combines_pairwise():
    # (F p) x (G q): two pairs times one pair.
    g = nnf("<<1>>(F p & G q)", (1,))
    assert len(dec(g.path)) == 2


def test_dec_disjunction_unions_and_joins():
    # Two deferring pairs join pairwise on top of the union.
    g = nnf("<<1>>(G p | G q)", (1,))
    pairs = dec(g.path)
    assert len(pairs) == 3  # G p alone, G q alone, both still possible


def test_dec_deduplicates_identical_conjuncts():
    # Merging "next p-and-q" with "next p" must not duplicate p.
    g = nnf("<<>>(X (p & q) & X p)", (1,))
    pairs = dec(g.path)
    assert len(pairs) == 1
    assert pairs[0].later is parse("p & q")


def test_state_formulas_sit_in_path_positions_directly():
    f = parse("<<1>>(p & X q)")
    assert isinstance(f.path, PAnd) and f.path.rhs is P
    assert to_text(f) == "<<1>>(X q & p)"
    assert pand(P, Q) is conj(P, Q) and por(P, Q) is disj(P, Q)
    s = parse("p | <<1>>G q")
    assert dec(pnext(s))[0].later is s
    assert dec(P) == ((P, TRUE),)
    assert dec(until(P, Q))[1] == (Q, TRUE)


def test_dec_cached_and_deterministic():
    g = nnf("<<1>>(p U q | G q)", (1, 2))
    assert dec(g.path) is dec(g.path)


# ---------------------------------------------------------------------------
# Gamma components


def test_gamma_components_golden_rendered_forms():
    g = nnf("<<1>>(p U q | G q)", (1, 2))
    comps = gamma_components(g)
    assert [to_text(c.rendered) for c in comps] == [
        "<<1>>X <<1>>G q & q",
        "<<1>>X <<1>>p U q & p",
        "q",
        "p & q & <<1>>X <<1>>(G q | p U q)",
    ]
    h = nnf("[[2]](F p & G ~q)", (1, 2))
    assert [to_text(c.rendered) for c in gamma_components(h)] == [
        "[[2]]X [[2]](G ~q & true U p) & ~q",
        "p & ~q & [[2]]X [[2]]G ~q",
    ]


def test_gamma_component_structure():
    g = nnf("<<1>>(p U q)", (1,))
    comps = gamma_components(g)
    # Deferring components carry a one-step successor formula re-quantifying
    # the remainder; done components carry only their now-part.
    deferring = [c for c in comps if c.step is not None]
    done = [c for c in comps if c.step is None]
    assert len(deferring) == 1 and len(done) == 1
    c = deferring[0]
    assert c.step.kind is FormulaClass.SUCCESSOR
    assert c.step.path.state is c.next_ev
    assert c.rendered is conj(c.now, c.step)
    assert done[0].rendered is done[0].now


def test_gamma_components_count_doubles_per_nested_until():
    """Nesting conjunctions of untils doubles the component count each time."""
    phi = "p1 U q1"
    for k in range(2, 5):
        phi = f"p{k} U q{k} & ({phi})"
    g = nnf(f"<<1>>({phi})", (1,))
    assert len(gamma_components(g)) == 2 ** 4


def test_gamma_components_rejects_non_gamma():
    from atlplus.syntax import FormulaError

    with pytest.raises(FormulaError):
        gamma_components(parse("p & q"))
    with pytest.raises(FormulaError):
        gamma_components(parse("<<1>>X p"))


# ---------------------------------------------------------------------------
# Local discharge


def test_holds_locally_membership_and_structure():
    label = frozenset({P, Q})
    assert holds_locally(P, label)
    assert holds_locally(TRUE, label)
    assert not holds_locally(FALSE, label)
    assert holds_locally(parse("p & q"), label)
    assert holds_locally(parse("p | r"), label)
    assert not holds_locally(parse("p & r"), label)
    assert not holds_locally(R_, label)


def test_holds_locally_modulo_tree_shape():
    # The exact conjunction node need not be present when its conjuncts are.
    label = frozenset({P, Q, R_})
    assert holds_locally(conj(conj(P, Q), R_), label)
    assert holds_locally(conj(P, conj(Q, R_)), label)


def _recursive_holds_locally(g, label):
    """The recursive definition the spine loop of ``holds_locally`` keeps."""
    if g is TRUE or g in label:
        return True
    if g.kind is FormulaClass.ALPHA:
        return _recursive_holds_locally(g.lhs, label) and _recursive_holds_locally(
            g.rhs, label
        )
    if g.kind is FormulaClass.BETA:
        return _recursive_holds_locally(g.lhs, label) or _recursive_holds_locally(
            g.rhs, label
        )
    return False


def test_holds_locally_loops_down_long_chains():
    ps = [lit(f"p{i}") for i in range(2000)]
    conjunction = parse(" & ".join(map(to_text, ps)))
    disjunction = parse(" | ".join(map(to_text, ps)))
    label = frozenset(ps)
    assert holds_locally(conjunction, label)
    assert not holds_locally(conjunction, label - {ps[0]})
    assert not holds_locally(conjunction, label - {ps[-1]})
    assert holds_locally(disjunction, frozenset({ps[0]}))
    assert holds_locally(disjunction, frozenset({ps[-1]}))
    assert not holds_locally(disjunction, frozenset({P}))
    # A spine node that is itself in the label holds, whatever lies below.
    prefix = conjunction.lhs.lhs
    assert holds_locally(conjunction, frozenset({prefix, ps[-2], ps[-1]}))
    assert not holds_locally(conjunction, frozenset({prefix, ps[-1]}))


def test_holds_locally_matches_the_recursive_definition():
    rng = random.Random(5)
    checked = 0
    for raw in random_corpus(12, 200, GenConfig(bool_depth=3, max_size=16)):
        cl = sorted(closure(to_nnf(raw, default_universe(raw))))
        for g in cl:
            if g.kind is FormulaClass.ALPHA or g.kind is FormulaClass.BETA:
                for _ in range(3):
                    label = frozenset(h for h in cl if rng.random() < 0.4)
                    assert holds_locally(g, label) == _recursive_holds_locally(
                        g, label
                    ), to_text(g)
                    checked += 1
    assert checked > 1000


def test_realized_now_cases():
    g = nnf("<<1>>(p U q)", (1,))
    assert realized_now(g.path, frozenset({Q}))
    assert not realized_now(g.path, frozenset({P}))
    h = nnf("<<1>>G p", (1,))
    assert realized_now(h.path, frozenset({P}))
    assert not realized_now(h.path, frozenset())
    x = nnf("<<1>>X p", (1,))
    assert not realized_now(x.path, frozenset({P}))


def test_realized_now_constant_true_payload():
    g = nnf("<<1>>G true", (1,))
    assert realized_now(g.path, frozenset())
    h = nnf("<<1>>(p U true)", (1,))
    assert realized_now(h.path, frozenset())


def test_realized_now_boolean_combinations():
    g = nnf("<<1>>(p U q & G p)", (1,))
    assert realized_now(g.path, frozenset({P, Q}))
    assert not realized_now(g.path, frozenset({Q}))
    h = nnf("<<1>>(p U q | G p)", (1,))
    assert realized_now(h.path, frozenset({P}))
    assert realized_now(h.path, frozenset({Q}))
    assert not realized_now(h.path, frozenset({R_}))


# ---------------------------------------------------------------------------
# Closure


def test_closure_of_literal():
    assert set(closure(P)) == {P, TRUE, FALSE}


def test_closure_contains_seed_constants_and_components():
    f = nnf("<<1>>(p U q | G q) & [[2]](F p & G ~q)", (1, 2))
    cl = set(closure(f))
    assert {f, TRUE, FALSE} <= cl
    for text in ["<<1>>(G q | p U q)", "[[2]](G ~q & true U p)",
                 "q", "p", "~q", "<<1>>p U q", "<<1>>G q", "[[2]]G ~q"]:
        assert nnf(text, (1, 2)) in cl


def test_closure_is_closed_under_components():
    for raw in random_corpus(11, 40):
        universe = default_universe(raw)
        f = to_nnf(raw, universe)
        cl = set(closure(f))
        for g in cl:
            kind = g.kind
            if kind in (FormulaClass.ALPHA, FormulaClass.BETA):
                assert g.lhs in cl and g.rhs in cl
            elif kind is FormulaClass.GAMMA:
                for c in gamma_components(g):
                    assert c.rendered in cl
            elif kind is FormulaClass.SUCCESSOR:
                assert g.path.state in cl


def test_closure_bound_on_corpus():
    # The quadratic-exponent cap applies from size two upward; a bare
    # literal's closure (three formulas) already exceeds 2^1.
    for raw in random_corpus(2024, 200):
        universe = default_universe(raw)
        f = to_nnf(raw, universe)
        n = formula_size(f, universe)
        if n >= 2:
            assert len(closure(f)) < 2 ** (n * n)


def test_closure_limit_error():
    f = nnf("<<1>>(p U q | G q) & [[2]](F p & G ~q)", (1, 2))
    with pytest.raises(ClosureLimitError):
        closure(f, limit=3)


# ---------------------------------------------------------------------------
# Full expansions


def test_full_expansions_simple_alpha():
    exps = full_expansions([parse("p & q")])
    assert len(exps) == 1
    assert isinstance(exps[0], frozenset)
    assert {P, Q, parse("p & q")} <= exps[0]


def test_full_expansions_beta_branches():
    labels = full_expansions([parse("p | q")])
    assert any(P in l and Q not in l for l in labels)
    assert any(Q in l and P not in l for l in labels)


def test_full_expansions_drop_clashes():
    exps = full_expansions([parse("p & ~p")])
    assert exps == ()
    exps2 = full_expansions([P, parse("~p | q")])
    assert len(exps2) == 1
    assert Q in exps2[0]


def test_full_expansions_gamma_linking():
    g = nnf("<<1>>(p U q)", (1,))
    exps = full_expansions([g])
    assert len(exps) >= 2
    for e in exps:
        assert g in e
        assert gamma_links(e)[g].rendered in e
    states = [s for s in build_pretableau(g, (1,)).states if g in s.label]
    assert len(states) >= 2
    for s in states:
        assert s.linked[g].rendered in s.label


def test_full_expansions_keep_non_minimal_labels():
    # Seeding the until together with its deferring component keeps both the
    # minimal expansion and the non-minimal one that adds the q-witness on
    # top of the deferral.
    g = nnf("<<1>>(p U q)", (1,))
    deferring = gamma_components(g)[0].rendered
    labels = full_expansions([g, deferring])
    assert len(labels) == 2
    small, large = sorted(labels, key=len)
    assert small < large
    assert Q in large and Q not in small


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_full_expansions_are_saturated(seed):
    """Every expansion is alpha/beta/gamma-saturated and clash-free."""
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=8))
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    for label in full_expansions([f]):
        assert FALSE not in label
        for g in label:
            kind = g.kind
            if kind is FormulaClass.ALPHA:
                assert g.lhs in label and g.rhs in label
            elif kind is FormulaClass.BETA:
                assert g.lhs in label or g.rhs in label
            elif kind is FormulaClass.GAMMA:
                assert any(c.rendered in label for c in gamma_components(g))
        for g in label:
            if isinstance(g, Lit):
                neg = lit(g.name, positive=not g.positive)
                assert neg not in label


# ---------------------------------------------------------------------------
# Canonicalization against the recursive reference


def _reference_canon_state(parts, node_cls, unit, absorber, mk):
    """The recursive canonicalizer the flatten-and-fold one replaced."""
    flat = {}

    def add(g):
        if isinstance(g, node_cls):
            add(g.lhs)
            add(g.rhs)
        elif g is not unit:
            flat[g] = None

    for part in parts:
        add(part)
    if absorber in flat:
        return absorber
    out = unit
    for g in sorted(flat, key=lambda x: x.key):
        out = mk(out, g)
    return out


def _reference_canon_path(parts, node_cls, unit, absorber, mk, state_ops):
    def flatten(p):
        if isinstance(p, node_cls):
            yield from flatten(p.lhs)
            yield from flatten(p.rhs)
        else:
            yield p

    temporal = {}
    state_atoms = []
    for part in parts:
        for atom in flatten(part):
            if isinstance(atom, StateFormula):
                state_atoms.append(atom)
            else:
                temporal[atom] = None
    state_part = _reference_canon_state(state_atoms, *state_ops)
    if state_part is absorber:
        return absorber
    out = state_part
    for p in sorted(temporal, key=lambda x: x.key):
        out = mk(out, p)
    return out


def test_canonicalizers_return_the_reference_object_on_every_call(monkeypatch):
    canon_state = decomposition._canon_state
    conj_join = decomposition._conj_join
    join = decomposition._join
    calls = {And: 0, PAnd: 0, POr: 0}
    refs = {
        pand: (PAnd, (PAnd, TRUE, FALSE, pand, (And, TRUE, FALSE, conj))),
        por: (POr, (POr, FALSE, TRUE, por, (Or, FALSE, TRUE, disj))),
    }

    def checked_state(parts):
        parts = list(parts)
        got = canon_state(parts)
        assert got is _reference_canon_state(parts, And, TRUE, FALSE, conj)
        calls[And] += 1
        return got

    def checked_conj_join(left, right):
        got = conj_join(left, right)
        assert got is _reference_canon_state([left, right], And, TRUE, FALSE, conj)
        calls[And] += 1
        return got

    def checked_join(mk, unit, left, right):
        got = join(mk, unit, left, right)
        node_cls, ref = refs[mk]
        assert got is _reference_canon_path([left[0], right[0]], *ref)
        calls[node_cls] += 1
        return got

    monkeypatch.setattr(decomposition, "_canon_state", checked_state)
    monkeypatch.setattr(decomposition, "_conj_join", checked_conj_join)
    monkeypatch.setattr(decomposition, "_join", checked_join)
    monkeypatch.setattr(decomposition, "_DEC_CACHE", {})
    monkeypatch.setattr(decomposition, "_GAMMA_CACHE", {})
    agents4_sat = (
        "[[1]]F ~q & <<1>>(F p1 | G q) & <<4>>(F p4 | G q)"
        " & <<2>>(F p2 | G q) & <<3>>(F p3 | G q)"
    )
    formulas = [parse("<<1>>(p U q | G q) & [[2]](F p & G ~q)"), parse(agents4_sat)]
    formulas += random_corpus(7, 300, GenConfig(props=("p", "q")))
    for raw in formulas:
        closure(to_nnf(raw, default_universe(raw)))
    # Now-parts and both kinds of path remainders are canonicalized.
    assert min(calls.values()) > 0, calls


def _reference_per_pair_path(parts, node_cls):
    """The flatten-and-fold canonicalizer ``dec`` ran on every combination
    before it merged pre-sorted atoms."""

    def fold(mk, start, atoms):
        for g in sorted(atoms, key=lambda x: x.key):
            start = mk(start, g)
        return start

    unit, mk, inner = (TRUE, pand, And) if node_cls is PAnd else (FALSE, por, Or)
    atoms = _flatten(parts, node_cls, unit)
    states = [a for a in atoms if isinstance(a, StateFormula)]
    state_part = fold(mk, unit, _flatten(states, inner, unit))
    return fold(mk, state_part, [a for a in atoms if not isinstance(a, StateFormula)])


def _reference_dec(p):
    """``dec`` of a ``PAnd`` or ``POr`` with each combination re-flattened
    and re-folded from its two operand pairs."""
    left, right = dec(p.lhs), dec(p.rhs)
    cls = type(p)
    combined = [
        _pair([a.now, b.now], _reference_per_pair_path([a.later, b.later], cls))
        for a in left
        for b in right
        if cls is PAnd or (a.later is not TRUE and b.later is not TRUE)
    ]
    out = combined if cls is PAnd else list(left) + list(right) + combined
    return tuple(dict.fromkeys(out))


def _assert_dec_matches_reference(p):
    stack = [p]
    while stack:
        q = stack.pop()
        if not isinstance(q, (PAnd, POr)):
            continue
        stack += [q.lhs, q.rhs]
        got, ref = dec(q), _reference_dec(q)
        assert len(got) == len(ref), q
        for g, r in zip(got, ref):
            assert g.now is r.now and g.later is r.later, (q, g, r)


_STATES = hst.recursive(
    hst.sampled_from([TRUE, FALSE, P, Q, R_, NQ]),
    lambda sub: hst.builds(conj, sub, sub) | hst.builds(disj, sub, sub),
    max_leaves=4,
)
_PATHS = hst.recursive(
    _STATES
    | hst.builds(pnext, _STATES)
    | hst.builds(always, _STATES)
    | hst.builds(until, _STATES, _STATES),
    lambda sub: hst.builds(pand, sub, sub) | hst.builds(por, sub, sub),
    max_leaves=7,
)


def _count_prefix_folds(monkeypatch):
    """Count the now-part joins that fold onto a proper prefix of the left
    now-part, read off its spine.  The caches start empty, so every ``dec``
    runs."""
    counts = {"prefix folds": 0}
    conj_prefix = decomposition._conj_prefix

    def counted_conj_prefix(node, first):
        got = conj_prefix(node, first)
        if got is not None and got[1] and got[0] is not TRUE:
            counts["prefix folds"] += 1
        return got

    monkeypatch.setattr(decomposition, "_conj_prefix", counted_conj_prefix)
    monkeypatch.setattr(decomposition, "_DEC_CACHE", {})
    monkeypatch.setattr(decomposition, "_GAMMA_CACHE", {})
    return counts


def test_dec_merge_matches_the_per_pair_reference(monkeypatch):
    """Units, duplicate atoms and ``X`` payloads of any shape included."""
    counts = _count_prefix_folds(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(_PATHS)
    def check(p):
        _assert_dec_matches_reference(p)

    check()
    assert counts["prefix folds"] > 0


@pytest.mark.parametrize("n", range(2, 8))
def test_dec_merge_matches_the_reference_on_shuffled_untils(n, monkeypatch):
    counts = _count_prefix_folds(monkeypatch)
    goals = [f"p{i} U q{i}" for i in range(n)]
    rng = random.Random(n)
    for _ in range(3):
        rng.shuffle(goals)
        f = nnf("<<1>>(" + " & ".join(goals) + ")")
        _assert_dec_matches_reference(f.path)
        assert len(dec(f.path)) == 2**n
    # Two untils always merge their now-parts at an end; from three on,
    # some merge inside.
    assert counts["prefix folds"] > 0 or n < 3


def _reference_realized_now(p, label):
    """The recursive definition of ``realized_now``: the reference for the
    flattened test it reads."""
    t = type(p)
    if t is PAnd:
        return _reference_realized_now(p.lhs, label) and _reference_realized_now(
            p.rhs, label
        )
    if t is POr:
        return _reference_realized_now(p.lhs, label) or _reference_realized_now(
            p.rhs, label
        )
    if t is Until:
        return holds_locally(p.rhs, label)
    if t is Always:
        return holds_locally(p.state, label)
    if t is Next:
        return False
    return holds_locally(p, label)


@settings(max_examples=300, deadline=None)
@given(_PATHS, hst.sets(_STATES, max_size=4))
def test_realized_now_matches_the_recursive_reference(p, label):
    label = frozenset(label)
    assert realized_now(p, label) is _reference_realized_now(p, label)


def test_canonicalization_flattens_a_deep_chain():
    literals = [lit(f"p{i}") for i in range(1500)]
    chain = literals[0]
    for g in literals[1:]:
        chain = conj(chain, g)
    canon = _canon_state([chain])
    assert _flatten([canon], And, TRUE) == set(literals)
