"""Concurrent game models: the JSON writer against its spec, and loading."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus.cgm import CGM
from atlplus.enumeration import sample_cgm


def _assert_spec_and_round_trip(model: CGM) -> None:
    model.validate()
    text = model.to_json()
    assert text == json.dumps(model.to_json_dict(), indent=2) + "\n"
    reloaded = CGM.from_json(text)
    assert reloaded == model
    assert reloaded.to_json() == text


@settings(max_examples=100, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=10**6),
    agents=hst.integers(min_value=1, max_value=3),
    annotate=hst.booleans(),
    texts=hst.lists(hst.text(max_size=6), max_size=4),
)
def test_writer_matches_its_spec_on_sampled_models(seed, agents, annotate, texts):
    rng = random.Random(seed)
    model = sample_cgm(rng, agents, ("p", "q"), max_states=4, max_actions=3)
    if annotate:
        # Keys in shuffled order: the writer must sort them.
        keys = [str(sid) for sid in model.ids]
        rng.shuffle(keys)
        model.hintikka = {
            key: rng.sample(texts, rng.randint(0, len(texts))) for key in keys
        }
    _assert_spec_and_round_trip(model)


def _two_state_model(**fields) -> CGM:
    spec = dict(
        agents=1,
        ids=["s0", "s1"],
        props=[frozenset({"p"}), frozenset({"q", "p"})],
        action_counts=[(2,), (1,)],
        transitions={(0, (0,)): 1, (0, (1,)): 0, (1, (0,)): 1},
        initial=1,
        hintikka=None,
    )
    spec.update(fields)
    return CGM(**spec)


def test_writer_handles_string_ids():
    _assert_spec_and_round_trip(_two_state_model())


def test_writer_prints_an_empty_props_list():
    model = _two_state_model(props=[frozenset(), frozenset({"p"})])
    assert '"props": []' in model.to_json()
    _assert_spec_and_round_trip(model)


def test_writer_escapes_a_non_ascii_proposition_loaded_from_json():
    model = CGM.from_json_dict(
        {
            "agents": 1,
            "initial": 0,
            "states": [{"id": 0, "props": ["été"]}],
            "actions": {"0": [1]},
            "transitions": [{"from": 0, "profile": [0], "to": 0}],
        }
    )
    assert '"\\u00e9t\\u00e9"' in model.to_json()
    _assert_spec_and_round_trip(model)


def test_writer_prints_an_empty_annotation_list():
    model = _two_state_model(hintikka={"s0": ["p"], "s1": []})
    assert '"s1": []' in model.to_json()
    _assert_spec_and_round_trip(model)


def test_writer_prints_an_empty_annotation_object():
    model = _two_state_model(hintikka={})
    assert model.to_json().endswith('"hintikka": {}\n}\n')
    _assert_spec_and_round_trip(model)
