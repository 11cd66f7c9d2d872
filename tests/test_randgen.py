"""Seeded formula generator: determinism, bounds, and shape guarantees."""

import random

from atlplus.randgen import GenConfig, random_corpus, random_formula
from atlplus.syntax import (
    FALSE,
    TRUE,
    And,
    Enf,
    Lit,
    Not,
    Or,
    Release,
    Sometime,
    Unav,
    default_universe,
    formula_size,
    mentioned_agents,
    mentioned_props,
    parse,
    to_nnf,
    to_text,
)


def test_same_seed_same_corpus():
    a = random_corpus(2024, 50)
    b = random_corpus(2024, 50)
    assert a == b  # interning makes equal formulas identical


def test_different_seeds_differ_somewhere():
    a = random_corpus(1, 50)
    b = random_corpus(2, 50)
    assert a != b


def test_sizes_respect_the_budget():
    cfg = GenConfig(max_size=9)
    for f in random_corpus(5, 200, cfg):
        assert formula_size(f) <= 9


def test_generated_formulas_round_trip_through_the_parser():
    for f in random_corpus(11, 200):
        assert parse(to_text(f)) is f


def test_normalization_is_idempotent_on_generated_formulas():
    # Formulas come out negation-free, but a full-coalition avoidance
    # quantifier still rewrites to the empty-coalition form relative to
    # the universe, so normalization is idempotent rather than identity.
    for f in random_corpus(17, 200):
        u = default_universe(f)
        once = to_nnf(f, u)
        assert to_nnf(once, u) is once


def test_agents_and_props_stay_in_the_configured_pools():
    cfg = GenConfig(agents=(1, 2), props=("p", "q"), max_size=10)
    for f in random_corpus(23, 200, cfg):
        assert set(mentioned_agents(f)) <= {1, 2}
        assert set(mentioned_props(f)) <= {"p", "q"}


def _connectives(f):
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        seen.add(type(g))
        for attr in ("lhs", "rhs", "sub", "state", "path"):
            child = getattr(g, attr, None)
            if child is not None:
                stack.append(child)
        stack.extend(getattr(g, "operands", ()))
    return seen


def test_every_connective_appears_across_a_large_corpus():
    seen = set()
    for f in random_corpus(31, 400):
        seen |= _connectives(f)
    for cls in (Lit, And, Or, Enf, Unav):
        assert cls in seen, cls


def test_normal_form_excludes_eliminated_connectives():
    for f in random_corpus(37, 300):
        seen = _connectives(f)
        assert Not not in seen
        assert Sometime not in seen
        assert Release not in seen


def test_constants_only_when_enabled():
    plain = random_corpus(41, 300)
    assert all(TRUE not in _walk_states(f) for f in plain)
    assert all(FALSE not in _walk_states(f) for f in plain)
    rng = random.Random(43)
    cfg = GenConfig(allow_constants=True, max_size=8)
    loose = [random_formula(rng, cfg) for _ in range(500)]
    assert any(
        TRUE in _walk_states(f) or FALSE in _walk_states(f) for f in loose
    )


def _walk_states(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        out.add(g)
        for attr in ("lhs", "rhs", "sub", "state", "path"):
            child = getattr(g, attr, None)
            if child is not None:
                stack.append(child)
        stack.extend(getattr(g, "operands", ()))
    return out


def test_distribution_exercises_coalition_shapes():
    cfg = GenConfig(agents=(1, 2), max_size=12)
    coalitions = set()
    for f in random_corpus(47, 400, cfg):
        for g in _walk_states(f):
            if isinstance(g, (Enf, Unav)):
                coalitions.add(g.coalition)
    assert () in coalitions
    assert (1,) in coalitions
    assert (2,) in coalitions
    assert (1, 2) in coalitions
