"""Concurrent game models: the structures the solver emits and checks.

A model has ``k`` agent positions; each state offers every agent a finite
palette of actions, and one joint action profile picks exactly one
successor.  States carry proposition labels.  The JSON form is the
interchange format of the command-line tools; profiles must be exhaustive
-- every state lists one transition per joint profile.

``CGM.to_json`` writes ``json.dumps(to_json_dict(), indent=2)`` byte for
byte: keys in the order ``agents``, ``initial``, ``states``, ``actions``,
``transitions``, then ``hintikka`` sorted by key.  That layout is the stable
output of ``synth`` and is pinned by ``tests/golden/synth_sha256.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass


class ModelFormatError(Exception):
    """Structurally invalid model description."""


StateId = int | str


@dataclass
class CGM:
    agents: int
    ids: list[StateId]
    props: list[frozenset[str]]
    action_counts: list[tuple[int, ...]]
    transitions: dict[tuple[int, tuple[int, ...]], int]
    initial: int
    hintikka: dict[str, list[str]] | None = None

    @property
    def n_states(self) -> int:
        return len(self.ids)

    def profiles(self, state: int) -> list[tuple[int, ...]]:
        return list(
            itertools.product(*(range(c) for c in self.action_counts[state]))
        )

    def validate(self) -> None:
        if self.agents < 1:
            raise ModelFormatError("a model needs at least one agent")
        if not self.ids:
            raise ModelFormatError("a model needs at least one state")
        if len(set(self.ids)) != len(self.ids):
            raise ModelFormatError("duplicate state ids")
        if len(set(map(str, self.ids))) != len(self.ids):
            # JSON keys "actions" and "hintikka" by the id's text
            raise ModelFormatError("state ids must differ as text")
        if not 0 <= self.initial < self.n_states:
            raise ModelFormatError("initial state out of range")
        if len(self.props) != self.n_states or len(self.action_counts) != self.n_states:
            raise ModelFormatError("per-state data does not cover every state")
        for s, counts in enumerate(self.action_counts):
            if len(counts) != self.agents or any(c < 1 for c in counts):
                raise ModelFormatError(
                    f"state {self.ids[s]!r} must give every agent at least one action"
                )
        # Listed profiles are distinct dict keys: when each lies in its
        # state's box and they are as many as the boxes hold, they cover the
        # boxes exactly.  Otherwise find the first missing ones lazily, never
        # every promised profile.
        boxes, n = self.action_counts, self.n_states
        extra = [
            (s, profile)
            for s, profile in self.transitions
            if not (
                0 <= s < n
                and len(profile) == len(boxes[s])
                and min(profile) >= 0
                and all(map(operator.lt, profile, boxes[s]))
            )
        ]
        if extra or len(self.transitions) != sum(map(math.prod, boxes)):
            missing = itertools.islice(
                (
                    (s, profile)
                    for s, counts in enumerate(boxes)
                    for profile in itertools.product(*map(range, counts))
                    if (s, profile) not in self.transitions
                ),
                3,
            )
            raise _cover_error(missing, extra)
        targets = self.transitions.values()
        if min(targets) < 0 or max(targets) >= n:
            raise ModelFormatError("transition target out of range")

    # ------------------------------------------------------------------
    # JSON interchange

    def to_json_dict(self) -> dict:
        out: dict = {
            "agents": self.agents,
            "initial": self.ids[self.initial],
            "states": [
                {"id": sid, "props": sorted(self.props[i])}
                for i, sid in enumerate(self.ids)
            ],
            "actions": {
                str(sid): list(self.action_counts[i])
                for i, sid in enumerate(self.ids)
            },
            "transitions": [
                {
                    "from": self.ids[s],
                    "profile": list(profile),
                    "to": self.ids[self.transitions[(s, profile)]],
                }
                for s in range(self.n_states)
                for profile in self.profiles(s)
            ],
        }
        if self.hintikka is not None:
            out["hintikka"] = {
                key: list(value) for key, value in sorted(self.hintikka.items())
            }
        return out

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)`` plus a newline.

        The indent-2 layout is written directly.  Leaves go through
        ``json.dumps``, which encodes scalars and strings in C; each state
        id, proposition set, action box and annotation text is encoded once
        per call, not once per occurrence.
        """
        dumps = json.dumps
        ids = [dumps(sid) for sid in self.ids]
        # action box -> (its counts as text, [(profile, profile as text)]);
        # profile entries come from range(), so str() is their JSON.
        boxes: dict[tuple[int, ...], tuple[str, list[tuple[tuple[int, ...], str]]]] = {}
        for counts in self.action_counts:
            if counts not in boxes:
                boxes[counts] = (
                    _list_text([dumps(c) for c in counts], "    "),
                    [
                        (profile, _list_text([str(a) for a in profile], "      "))
                        for profile in itertools.product(*(range(c) for c in counts))
                    ],
                )
        props_text: dict[frozenset[str], str] = {}
        states = []
        for sid, props in zip(ids, self.props):
            text = props_text.get(props)
            if text is None:
                text = props_text[props] = _list_text(
                    [dumps(p) for p in sorted(props)], "      "
                )
            states.append(f'{{\n      "id": {sid},\n      "props": {text}\n    }}')
        # Keyed like to_json_dict's dict, so keys that collide as strings
        # keep the same place and value.
        actions = {
            str(sid): boxes[counts][0]
            for sid, counts in zip(self.ids, self.action_counts)
        }
        transitions = []
        for s, counts in enumerate(self.action_counts):
            head = f'{{\n      "from": {ids[s]},\n      "profile": '
            for profile, text in boxes[counts][1]:
                target = ids[self.transitions[(s, profile)]]
                transitions.append(f'{head}{text},\n      "to": {target}\n    }}')
        parts = [
            f'{{\n  "agents": {dumps(self.agents)},\n  "initial": {ids[self.initial]}',
            f',\n  "states": {_list_text(states, "  ")}',
            f',\n  "actions": {_object_text(actions, "  ")}',
            f',\n  "transitions": {_list_text(transitions, "  ")}',
        ]
        if self.hintikka is not None:
            leaves: dict[str, str] = {}
            hintikka = {}
            for key, texts in sorted(self.hintikka.items()):
                encoded = []
                for t in texts:
                    leaf = leaves.get(t)
                    if leaf is None:
                        leaf = leaves[t] = dumps(t)
                    encoded.append(leaf)
                hintikka[str(key)] = _list_text(encoded, "    ")
            parts.append(f',\n  "hintikka": {_object_text(hintikka, "  ")}')
        parts.append("\n}\n")
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CGM":
        try:
            agents = _int(data["agents"], "agent count")
            ids = []
            props = []
            for entry in data["states"]:
                if not isinstance(entry, dict):
                    raise ModelFormatError(f"state entry {entry!r} is not an object")
                sid = entry["id"]
                ids.append(sid)
                names = _list(entry["props"], "props of state", sid)
                props.append(
                    frozenset(_str(n, f"proposition of state {sid!r}") for n in names)
                )
            actions_raw = data["actions"]
            action_counts = [
                tuple(
                    _int(c, f"action count of state {sid!r}")
                    for c in _list(actions_raw[str(sid)], "actions of state", sid)
                )
                for sid in ids
            ]
            index = {sid: i for i, sid in enumerate(ids)}
            transitions: dict[tuple[int, tuple[int, ...]], int] = {}
            for entry in data["transitions"]:
                source = index[entry["from"]]
                moves = _list(entry["profile"], "profile from state", entry["from"])
                profile = tuple(
                    _int(a, f"profile entry from state {entry['from']!r}")
                    for a in moves
                )
                target = index[entry["to"]]
                if (source, profile) in transitions:
                    raise ModelFormatError(
                        f"duplicate transition from {entry['from']!r} on {profile}"
                    )
                transitions[(source, profile)] = target
            initial = index[data["initial"]]
            hintikka = None
            if "hintikka" in data:
                notes = data["hintikka"]
                if not isinstance(notes, dict):
                    raise ModelFormatError(f"hintikka must be an object, got {notes!r}")
                hintikka = {
                    str(key): [
                        _str(v, f"annotation of state {key!r}")
                        for v in _list(value, "annotation of state", key)
                    ]
                    for key, value in notes.items()
                }
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model description: {exc}") from exc
        model = cls(
            agents=agents,
            ids=ids,
            props=props,
            action_counts=action_counts,
            transitions=transitions,
            initial=initial,
            hintikka=hintikka,
        )
        model.validate()
        return model

    @classmethod
    def from_json(cls, text: str) -> "CGM":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ModelFormatError("model JSON must be an object")
        return cls.from_json_dict(data)


def _list(value, what: str, sid) -> list:
    """``value`` when it is a JSON array.  Anything else is refused, a string
    above all, whose characters would otherwise be read as the items."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} {sid!r} must be a list, got {value!r}")
    return value


def _int(value, what: str) -> int:
    """``value`` when it is a JSON integer.  ``1.7``, ``"1"`` and ``true``
    are refused, not coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _str(value, what: str) -> str:
    """``value`` when it is a JSON string; ``null`` is no name."""
    if not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a string, got {value!r}")
    return value


def _cover_error(missing, extra) -> ModelFormatError:
    """The refusal of transitions that do not match the action boxes."""
    missing, extra = sorted(missing)[:3], sorted(extra)[:3]
    detail = []
    if missing:
        detail.append(f"missing {missing}")
    if extra:
        detail.append(f"unexpected {extra}")
    return ModelFormatError(
        "transitions must cover every joint action profile exactly once: "
        + "; ".join(detail)
    )


def _list_text(items: list[str], indent: str) -> str:
    """Indent-2 JSON layout of a list of encoded items at depth ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _object_text(entries: dict[str, str], indent: str) -> str:
    """Indent-2 JSON layout of an object whose values are already encoded."""
    if not entries:
        return "{}"
    inner = "\n" + indent + "  "
    dumps = json.dumps
    body = ("," + inner).join(f"{dumps(k)}: {v}" for k, v in entries.items())
    return "{" + inner + body + "\n" + indent + "}"
