"""Bounded model enumeration and the differential search helper."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from atlplus.checker import ModelChecker
from atlplus.enumeration import (
    enumerate_cgms,
    find_bounded_model,
    sample_cgm,
)
from atlplus.syntax import parse, to_nnf


def test_single_state_no_props_single_action_is_unique():
    ms = enumerate_cgms(1, (), 1, 1)
    assert len(ms) == 1
    (m,) = ms
    assert m.n_states == 1
    assert m.transitions == {(0, (0,)): 0}


def test_one_state_models_split_by_label_and_action_count():
    # One state forces the self-loop, so the isomorphism classes are
    # exactly labelings x action counts (action renaming never merges
    # models with different counts).
    ms = enumerate_cgms(1, ("p",), 1, 2)
    keys = {(m.action_counts[0], tuple(sorted(m.props[0]))) for m in ms}
    assert keys == {
        ((1,), ()),
        ((1,), ("p",)),
        ((2,), ()),
        ((2,), ("p",)),
    }


def test_enumeration_is_deterministic_and_cached():
    first = enumerate_cgms(1, ("p",), 2, 2)
    second = enumerate_cgms(1, ("p",), 2, 2)
    assert first is second  # cached
    assert [m.to_json_dict() for m in first] == [
        m.to_json_dict() for m in second
    ]


def test_enumerated_models_validate_and_respect_bounds():
    for m in enumerate_cgms(2, ("p",), 2, 2):
        m.validate()
        assert 1 <= m.n_states <= 2
        assert all(
            1 <= c <= 2 for counts in m.action_counts for c in counts
        )
        assert all(p <= {"p"} for p in m.props)


def test_no_two_enumerated_models_are_isomorphic():
    # Spot check: permuting the two states of any two-state model never
    # produces another listed model.
    ms = [m for m in enumerate_cgms(1, ("p",), 2, 1) if m.n_states == 2]
    seen = set()
    for m in ms:
        key = (
            tuple(sorted(m.props[s] for s in range(2))),
        )
        swapped = {
            (1 - s, prof): 1 - t for (s, prof), t in m.transitions.items()
        }
        sig = (
            tuple(tuple(sorted(p)) for p in m.props),
            tuple(sorted(m.transitions.items())),
        )
        sig_swapped = (
            tuple(tuple(sorted(p)) for p in reversed(m.props)),
            tuple(sorted(swapped.items())),
        )
        assert sig_swapped not in seen
        seen.add(sig)


GOLDEN = Path(__file__).parent / "golden" / "enumeration_sha256.json"


@pytest.mark.parametrize(
    "entry",
    json.loads(GOLDEN.read_text(encoding="utf-8")),
    ids=lambda e: f"{e['agents']}-{''.join(e['props'])}-{e['max_states']}-{e['max_actions']}",
)
def test_enumeration_matches_golden_digests(entry):
    # The digests pin the class list and its order, representatives
    # included; find_bounded_model returns the first hit in that order.
    ms = enumerate_cgms(
        entry["agents"], tuple(entry["props"]), entry["max_states"], entry["max_actions"]
    )
    assert len(ms) == entry["classes"]
    text = json.dumps([m.to_json_dict() for m in ms])
    assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]


def test_find_bounded_model_hits_a_satisfiable_formula():
    f = to_nnf(parse("<<1>>G p"), (1,))
    found = find_bounded_model(f, (1,), ("p",), max_states=2, max_actions=2)
    assert found is not None
    model, state = found
    checker = ModelChecker(model, (1,))
    assert state in checker.states_where(f)


def test_find_bounded_model_misses_an_unsatisfiable_formula():
    f = to_nnf(parse("<<1>>G p & <<2>>F ~p"), (1, 2))
    assert (
        find_bounded_model(f, (1, 2), ("p",), max_states=2, max_actions=2)
        is None
    )


def test_find_bounded_model_needs_enough_states():
    # Forcing three pairwise-distinguishable observations needs 3 states.
    f = to_nnf(
        parse("p & ~q & <<1>>X (q & ~p) & <<1>>X <<1>>X (~p & ~q)"), (1,)
    )
    assert find_bounded_model(f, (1,), ("p", "q"), max_states=2) is None
    found = find_bounded_model(f, (1,), ("p", "q"), max_states=3)
    assert found is not None


def test_sample_cgm_is_seeded_and_in_bounds():
    m1 = sample_cgm(random.Random(7), 2, ("p", "q"), 3, 2)
    m2 = sample_cgm(random.Random(7), 2, ("p", "q"), 3, 2)
    assert m1.to_json_dict() == m2.to_json_dict()
    m1.validate()
    assert 1 <= m1.n_states <= 3
    assert all(1 <= c <= 2 for counts in m1.action_counts for c in counts)
    # Transitions cover the whole action box of every state.
    for s in range(m1.n_states):
        profiles = list(
            itertools.product(*(range(c) for c in m1.action_counts[s]))
        )
        assert sorted(p for (st, p) in m1.transitions if st == s) == sorted(
            profiles
        )
