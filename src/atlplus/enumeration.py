"""Bounded enumeration and sampling of small concurrent game models.

The exhaustive enumerator feeds the differential check for unsatisfiable
verdicts: a formula declared unsatisfiable must have no model among all
concurrent game models up to the requested size.  Models are deduplicated
up to isomorphism (state renaming plus per-state per-agent action renaming,
both satisfaction-preserving); labels and propositions are never permuted.
"""
from __future__ import annotations

import itertools
import random

from .cgm import CGM
from .checker import ModelChecker
from .syntax import StateFormula

__all__ = [
    "enumerate_cgms",
    "find_bounded_model",
    "sample_cgm",
]

_CACHE: dict[tuple, list[CGM]] = {}


def _canonical_key(
    n: int,
    agents: int,
    counts: tuple[tuple[int, ...], ...],
    transitions: dict[tuple[int, tuple[int, ...]], int],
    labels: tuple[frozenset[str], ...],
) -> tuple:
    """Minimal serialization over state and per-state action renamings."""
    best = None
    for order in itertools.permutations(range(n)):
        # order[i] = old state placed at new position i
        inverse = {old: new for new, old in enumerate(order)}
        axes_choices = []
        for old in order:
            axes_choices.append(
                list(
                    itertools.product(
                        *(
                            itertools.permutations(range(c))
                            for c in counts[old]
                        )
                    )
                )
            )
        for combo in itertools.product(*axes_choices):
            # combo[new][agent] maps new action -> old action
            key_counts = tuple(counts[old] for old in order)
            key_labels = tuple(tuple(sorted(labels[old])) for old in order)
            rows = []
            for new, old in enumerate(order):
                maps = combo[new]
                for profile in itertools.product(
                    *(range(c) for c in counts[old])
                ):
                    old_profile = tuple(
                        maps[a][profile[a]] for a in range(agents)
                    )
                    rows.append(inverse[transitions[(old, old_profile)]])
            key = (key_counts, key_labels, tuple(rows))
            if best is None or key < best:
                best = key
    return best


def enumerate_cgms(
    agents: int,
    props: tuple[str, ...],
    max_states: int,
    max_actions: int,
) -> list[CGM]:
    """All models up to the given bounds, one per isomorphism class.

    States carry every subset of ``props``; per-state per-agent action
    counts range over 1..max_actions; the transition function ranges over
    all total maps.  The result is cached per argument tuple and returned
    in a deterministic order.
    """
    cache_key = (agents, tuple(props), max_states, max_actions)
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    label_options = [
        frozenset(sub)
        for r in range(len(props) + 1)
        for sub in itertools.combinations(sorted(props), r)
    ]
    models: list[CGM] = []
    seen: set[tuple] = set()
    for n in range(1, max_states + 1):
        count_space = list(
            itertools.product(range(1, max_actions + 1), repeat=agents)
        )
        for counts in itertools.product(count_space, repeat=n):
            profile_lists = [
                list(itertools.product(*(range(c) for c in counts[s])))
                for s in range(n)
            ]
            slots = [(s, p) for s in range(n) for p in profile_lists[s]]
            for targets in itertools.product(range(n), repeat=len(slots)):
                transitions = {
                    slot: target for slot, target in zip(slots, targets)
                }
                for labels in itertools.product(label_options, repeat=n):
                    key = _canonical_key(n, agents, counts, transitions, labels)
                    if key in seen:
                        continue
                    seen.add(key)
                    models.append(
                        CGM(
                            agents=agents,
                            ids=list(range(n)),
                            props=list(labels),
                            action_counts=list(counts),
                            transitions=dict(transitions),
                            initial=0,
                        )
                    )
    _CACHE[cache_key] = models
    return models


def find_bounded_model(
    formula: StateFormula,
    universe: tuple[int, ...],
    props: tuple[str, ...],
    max_states: int = 2,
    max_actions: int = 2,
) -> tuple[CGM, int] | None:
    """Search all bounded models for one satisfying the formula somewhere.

    Returns (model, state index) for the first hit in enumeration order, or
    None when no bounded model satisfies the formula at any state.
    """
    for model in enumerate_cgms(len(universe), tuple(props), max_states, max_actions):
        checker = ModelChecker(model, universe)
        hits = checker.states_where(formula)
        if hits:
            return model, min(hits)
    return None


def sample_cgm(
    rng: random.Random,
    agents: int,
    props: tuple[str, ...],
    max_states: int,
    max_actions: int,
) -> CGM:
    """One random model within the bounds (used by seeded property suites)."""
    n = rng.randint(1, max_states)
    counts = [
        tuple(rng.randint(1, max_actions) for _ in range(agents))
        for _ in range(n)
    ]
    transitions = {}
    for s in range(n):
        for profile in itertools.product(*(range(c) for c in counts[s])):
            transitions[(s, profile)] = rng.randrange(n)
    labels = [
        frozenset(p for p in props if rng.random() < 0.5) for _ in range(n)
    ]
    return CGM(
        agents=agents,
        ids=list(range(n)),
        props=labels,
        action_counts=counts,
        transitions=transitions,
        initial=0,
    )
