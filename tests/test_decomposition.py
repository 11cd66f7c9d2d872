"""Now/later decomposition, gamma components, closure, and expansions."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import decomposition
from atlplus.decomposition import (
    ClosureLimitError,
    DecPair,
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
    assert isinstance(f.path, PAnd) and f.path.operands == (pnext(Q), P)
    assert to_text(f) == "<<1>>(X q & p)"
    assert pand(P, Q) is conj(P, Q) and por(P, Q) is disj(P, Q)
    s = parse("p | <<1>>G q")
    assert dec(pnext(s))[0].later is s
    assert dec(P) == (((P,), TRUE),)
    assert dec(until(P, Q))[1] == ((Q,), TRUE)


def test_dec_deterministic():
    g = nnf("<<1>>(p U q | G q)", (1, 2))
    assert dec(g.path) == dec(g.path)


# ---------------------------------------------------------------------------
# Gamma components


def test_gamma_components_golden_rendered_forms():
    g = nnf("<<1>>(p U q | G q)", (1, 2))
    comps = gamma_components(g)
    assert [to_text(c.rendered) for c in comps] == [
        "<<1>>X <<1>>G q & q",
        "<<1>>X <<1>>p U q & p",
        "q",
        "<<1>>X <<1>>(G q | p U q) & p & q",
    ]
    h = nnf("[[2]](F p & G ~q)", (1, 2))
    assert [to_text(c.rendered) for c in gamma_components(h)] == [
        "[[2]]X [[2]](G ~q & true U p) & ~q",
        "[[2]]X [[2]]G ~q & p & ~q",
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
    pairs = dec(g.path)
    assert c.rendered is conj(pairs[comps.index(c)].now, c.step)
    assert done[0].rendered is pairs[comps.index(done[0])].now


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
    """The recursive definition of ``holds_locally``, by ``all``/``any``."""
    if g is TRUE or g in label:
        return True
    if g.kind is FormulaClass.ALPHA:
        return all(_recursive_holds_locally(h, label) for h in g.operands)
    if g.kind is FormulaClass.BETA:
        return any(_recursive_holds_locally(h, label) for h in g.operands)
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
    # A chain is one node: in the label, it holds whatever its conjuncts.
    assert holds_locally(conjunction, frozenset({conjunction}))
    assert holds_locally(conj(disjunction, Q), frozenset({ps[-1], Q}))


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
                assert set(g.operands) <= cl
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


# Run in a fresh interpreter, so that every node the closure interns is new
# to the intern table.  Each until formula has propositions of its own.
_INTERNED_BY_CLOSURE = """
import sys
from atlplus import syntax
from atlplus.decomposition import closure
from atlplus.syntax import iter_subformulas, parse, to_nnf
from atlplus.tableau import decide

for n in map(int, sys.argv[1:]):
    goals = " & ".join(f"a{n}x{i} U b{n}x{i}" for i in range(n))
    f = to_nnf(parse(f"<<1>>({goals})"), (1,))
    before = set(syntax._TABLE)
    held = {g for h in closure(f) for g in iter_subformulas(h)}
    added = [node for key, node in syntax._TABLE.items() if key not in before]
    orphans = [node.key for node in added if node not in held]
    decide(f, (1,))
    print(n, len(added), len(orphans), len(syntax._TABLE), orphans[:3])
"""


def test_closure_interns_only_subformulas_of_closure_formulas():
    """No node the closure interns is left outside every label formula,
    such as a now-part joined apart from its step; a cold decide of the
    9-until formula leaves at most 22,000 nodes in the table."""
    src = str(Path(decomposition.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _INTERNED_BY_CLOSURE, "9", "6"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split(maxsplit=4) for line in result.stdout.splitlines()]
    assert [row[0] for row in rows] == ["9", "6"]
    for n, added, orphans, _, first in rows:
        assert int(added) > 3**int(n) and orphans == "0", (n, orphans, first)
    assert int(rows[0][3]) <= 22_000


def test_closure_keeps_no_decomposition_pair_alive():
    gc.collect()
    closure(nnf("<<1>>(p U q & G r | X p) & [[2]](F p & G ~q)", (1, 2)))
    assert not [o for o in gc.get_objects() if type(o) is DecPair]


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
                assert label.issuperset(g.operands)
            elif kind is FormulaClass.BETA:
                assert not label.isdisjoint(g.operands)
            elif kind is FormulaClass.GAMMA:
                assert any(c.rendered in label for c in gamma_components(g))
        for g in label:
            if isinstance(g, Lit):
                neg = lit(g.name, positive=not g.positive)
                assert neg not in label


# ---------------------------------------------------------------------------
# dec against the per-pair reference


def _reference_canon_state(parts, node_cls, unit, absorber, mk):
    """The recursive canonicalizer of a state join: flatten, drop the unit,
    absorb, deduplicate, and fold by ``mk`` in key order."""
    flat = {}

    def add(g):
        if isinstance(g, node_cls):
            for h in g.operands:
                add(h)
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


def _reference_per_pair_path(parts, node_cls):
    """The flatten-and-fold canonicalizer ``dec`` ran on every combination
    before it merged pre-sorted atoms: the state atoms folded into one
    state part, then the temporal atoms folded onto it in key order."""

    def flatten(p):
        if isinstance(p, node_cls):
            for q in p.operands:
                yield from flatten(q)
        else:
            yield p

    def fold(mk, start, atoms):
        for g in sorted(atoms, key=lambda x: x.key):
            start = mk(start, g)
        return start

    unit, absorber, mk, inner, state_mk = (
        (TRUE, FALSE, pand, And, conj) if node_cls is PAnd else (FALSE, TRUE, por, Or, disj)
    )
    atoms = {a: None for part in parts for a in flatten(part)}
    states = [a for a in atoms if isinstance(a, StateFormula)]
    state_part = _reference_canon_state(states, inner, unit, absorber, state_mk)
    if state_part is absorber:
        return absorber
    return fold(mk, state_part, [a for a in atoms if not isinstance(a, StateFormula)])


def _reference_dec(p):
    """``dec`` of a ``PAnd`` or ``POr``: its operands' pairs folded left to
    right by the binary rule, each combination re-flattened and re-folded
    from its two pairs.  Each pair holds its now-part as one node, so pairs
    are equal exactly when their now-parts and remainders are."""
    cls = type(p)
    out = None
    for q in p.operands:
        right = [DecPair((r.now,), r.later) for r in dec(q)]
        if out is None:
            out = list(right)
            continue
        combined = [
            DecPair(
                (_reference_canon_state([a.now, b.now], And, TRUE, FALSE, conj),),
                _reference_per_pair_path([a.later, b.later], cls),
            )
            for a in out
            for b in right
            if cls is PAnd or (a.later is not TRUE and b.later is not TRUE)
        ]
        out = list(dict.fromkeys(combined if cls is PAnd else out + list(right) + combined))
    return tuple(out)


def _assert_dec_matches_reference(p):
    stack = [p]
    while stack:
        q = stack.pop()
        if not isinstance(q, (PAnd, POr)):
            continue
        stack += q.operands
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


def test_dec_merge_matches_the_per_pair_reference():
    """Units, duplicate atoms and ``X`` payloads of any shape included."""

    @settings(max_examples=300, deadline=None)
    @given(_PATHS)
    def check(p):
        _assert_dec_matches_reference(p)

    check()
    # Five combinations each, of which two give one pair: one with a
    # remainder that three combinations share, one with none.
    for text in ("<<1>>(G p & p U q | G p)", "<<1>>((p & q) U r | p U r)"):
        f = nnf(text)
        _assert_dec_matches_reference(f.path)
        assert len(dec(f.path)) == 4, text


@pytest.mark.parametrize("n", range(2, 8))
def test_dec_merge_matches_the_reference_on_shuffled_untils(n):
    goals = [f"p{i} U q{i}" for i in range(n)]
    rng = random.Random(n)
    for _ in range(3):
        rng.shuffle(goals)
        f = nnf("<<1>>(" + " & ".join(goals) + ")")
        _assert_dec_matches_reference(f.path)
        assert len(dec(f.path)) == 2**n


def _reference_realized_now(p, label):
    """The recursive definition of ``realized_now``: the reference for the
    flattened test it reads."""
    t = type(p)
    if t is PAnd:
        return all(_reference_realized_now(q, label) for q in p.operands)
    if t is POr:
        return any(_reference_realized_now(q, label) for q in p.operands)
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
