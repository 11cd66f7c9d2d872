"""Concurrent game models: the structures the solver emits and checks.

A model has ``k`` agent positions; each state offers every agent a finite
palette of actions, and one joint action profile picks exactly one
successor.  States carry proposition labels.  The JSON form is the
interchange format of the command-line tools; profiles must be exhaustive
-- every state lists one transition per joint profile.
"""

from __future__ import annotations

import itertools
import json
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

    def successor(self, state: int, profile: tuple[int, ...]) -> int:
        return self.transitions[(state, profile)]

    def validate(self) -> None:
        if self.agents < 1:
            raise ModelFormatError("a model needs at least one agent")
        if not self.ids:
            raise ModelFormatError("a model needs at least one state")
        if len(set(self.ids)) != len(self.ids):
            raise ModelFormatError("duplicate state ids")
        if not 0 <= self.initial < self.n_states:
            raise ModelFormatError("initial state out of range")
        if len(self.props) != self.n_states or len(self.action_counts) != self.n_states:
            raise ModelFormatError("per-state data does not cover every state")
        expected = set()
        for s in range(self.n_states):
            counts = self.action_counts[s]
            if len(counts) != self.agents or any(c < 1 for c in counts):
                raise ModelFormatError(
                    f"state {self.ids[s]!r} must give every agent at least one action"
                )
            for profile in self.profiles(s):
                expected.add((s, profile))
        given = set(self.transitions)
        if given != expected:
            missing = expected - given
            extra = given - expected
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)[:3]}")
            if extra:
                detail.append(f"unexpected {sorted(extra)[:3]}")
            raise ModelFormatError(
                "transitions must cover every joint action profile exactly once: "
                + "; ".join(detail)
            )
        for (_, _), target in self.transitions.items():
            if not 0 <= target < self.n_states:
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
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CGM":
        try:
            agents = int(data["agents"])
            states = data["states"]
            ids = [entry["id"] for entry in states]
            props = [frozenset(map(str, entry["props"])) for entry in states]
            actions_raw = data["actions"]
            action_counts = [
                tuple(int(c) for c in actions_raw[str(sid)]) for sid in ids
            ]
            index = {sid: i for i, sid in enumerate(ids)}
            transitions: dict[tuple[int, tuple[int, ...]], int] = {}
            for entry in data["transitions"]:
                source = index[entry["from"]]
                profile = tuple(int(a) for a in entry["profile"])
                target = index[entry["to"]]
                if (source, profile) in transitions:
                    raise ModelFormatError(
                        f"duplicate transition from {entry['from']!r} on {profile}"
                    )
                transitions[(source, profile)] = target
            initial = index[data["initial"]]
            hintikka = None
            if "hintikka" in data:
                hintikka = {
                    str(key): [str(v) for v in value]
                    for key, value in data["hintikka"].items()
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
