"""Bounded enumeration and sampling of small concurrent game models.

The exhaustive enumerator feeds the differential check for unsatisfiable
verdicts: a formula declared unsatisfiable must have no model among all
concurrent game models up to the requested size.  Models are deduplicated
up to isomorphism (state renaming plus per-state per-agent action renaming,
both satisfaction-preserving); labels and propositions are never permuted.

Deduplication is by orbit marking, the classical method of isomorph-free
exhaustive generation (Read 1978; McKay, J. Algorithms 1998).  Raw models
are scanned in a fixed order (states, action counts, targets, labels); the
first unmarked one is kept as its class representative and every image of
it under the renaming group is marked, so each later raw model costs one
set lookup.  Marks are bucketed by (action counts, targets): an image never
precedes its representative in the scan, so a bucket is dropped as soon as
the scan has visited its labelings and marks are kept only for raw models
the scan has yet to reach.

The search for a satisfying class is one model-checking query on the
disjoint union of all classes, laid out in enumeration order.  Winning
sets are fixpoints of a one-step controllable-predecessor operator, and
one step never leaves a component of the union, so the union's winning
set is the union of each class's own (Alur, Henzinger and Kupferman, JACM
2002).  The smallest hit therefore lies in the first class with a hit, at
that class's smallest hit.  The union's checker is built once per
(bounds, universe) and kept beside the class list; it keeps no winning
sets between queries.
"""
from __future__ import annotations

import bisect
import itertools
import random

from .cgm import CGM
from .checker import ModelChecker
from .syntax import StateFormula

_CACHE: dict[tuple, list[CGM]] = {}
# (cache key, sorted universe) -> union checker and class offsets
_CHECKERS: dict[tuple, tuple[ModelChecker, list[int]]] = {}


def _slots(counts: tuple[tuple[int, ...], ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(state, profile) pairs in scan order: by state, then by profile."""
    return [(s, p) for s, c in enumerate(counts) for p in itertools.product(*map(range, c))]


def _renamings(counts: tuple[tuple[int, ...], ...]) -> list[tuple]:
    """Every state and per-state action renaming of models with ``counts``.

    Each entry is (image counts, source, rename, order): slot j of the image
    takes the target of old slot ``source[j]`` renamed by ``rename``, and new
    state i carries the label of old state ``order[i]``.
    """
    index = {slot: j for j, slot in enumerate(_slots(counts))}
    result = []
    for order in itertools.permutations(range(len(counts))):
        rename = tuple(order.index(old) for old in range(len(counts)))
        image = tuple(counts[old] for old in order)
        per_state = [
            itertools.product(*(itertools.permutations(range(c)) for c in counts[old]))
            for old in order
        ]
        for combo in itertools.product(*per_state):
            # combo[new][agent] maps new action -> old action
            source = tuple(
                index[(order[new], tuple(m[a] for m, a in zip(combo[new], profile)))]
                for new, profile in _slots(image)
            )
            result.append((image, source, rename, order))
    return result


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
    count_space = list(itertools.product(range(1, max_actions + 1), repeat=agents))
    models: list[CGM] = []
    for n in range(1, max_states + 1):
        # (counts, targets) -> marked label-index tuples
        marked: dict[tuple, set[tuple]] = {}
        for counts in itertools.product(count_space, repeat=n):
            slots = _slots(counts)
            renamings = _renamings(counts)
            for targets in itertools.product(range(n), repeat=len(slots)):
                bucket = marked.setdefault((counts, targets), set())
                for labels in itertools.product(range(len(label_options)), repeat=n):
                    if labels in bucket:
                        continue
                    for image, source, rename, order in renamings:
                        key = (image, tuple([rename[targets[j]] for j in source]))
                        marked.setdefault(key, set()).add(tuple([labels[s] for s in order]))
                    models.append(
                        CGM(
                            agents=agents,
                            ids=list(range(n)),
                            props=[label_options[i] for i in labels],
                            action_counts=list(counts),
                            transitions=dict(zip(slots, targets)),
                            initial=0,
                        )
                    )
                del marked[(counts, targets)]  # no later raw model has these
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
    None when no bounded model satisfies the formula at any state.  It
    asks one query of a checker on the disjoint union of all classes,
    which is sound because every fixpoint stays within each component.
    """
    key = (len(universe), tuple(props), max_states, max_actions)
    models = enumerate_cgms(*key)
    if not models:
        return None
    universe = tuple(sorted(universe))
    if (key, universe) not in _CHECKERS:
        offsets = list(itertools.accumulate((m.n_states for m in models[:-1]), initial=0))
        _CHECKERS[key, universe] = ModelChecker.disjoint_union(models, universe), offsets
    checker, offsets = _CHECKERS[key, universe]
    hits = checker.states_where(formula)
    if not hits:
        return None
    first = min(hits)
    i = bisect.bisect_right(offsets, first) - 1
    return models[i], first - offsets[i]


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
