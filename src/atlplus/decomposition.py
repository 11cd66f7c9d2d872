"""Path-formula decomposition and saturation of state labels.

A path formula with at most one temporal operator per branch can be split
into *now/later* pairs: each pair says what must hold at the first state
(a state formula) and what the remaining suffix play must satisfy (a path
formula, which is ``TRUE`` when nothing remains).  Boolean path
connectives combine the pairs of their operands, one from each operand
of a conjunction and one or more of a disjunction's.

For a quantified path formula (a gamma formula) every pair turns into one
*component*: a state formula that is either the now-part alone (when
nothing remains) or the conjunction of the now-part with a single-step
quantified successor formula.  Choosing one component per gamma formula,
one disjunct per disjunction and every conjunct of every conjunction
saturates a label into its *full expansions* -- the downward-closed,
clash-free supersets that become tableau states.  Expansions are bare
labels: the component a gamma formula is linked to is derived from the
label alone by :func:`gamma_links`, once per tableau state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

from .syntax import (
    ALPHA,
    BETA,
    FALSE,
    GAMMA,
    SUCCESSOR,
    TRUE,
    Always,
    Formula,
    FormulaError,
    Next,
    PAnd,
    POr,
    StateFormula,
    Until,
    conj,
    pand,
    pnext,
    por,
    requantify,
)


class ClosureLimitError(FormulaError):
    """The closure of the input grew past the configured cap."""


class DecPair(NamedTuple):
    """One way to satisfy a path formula: ``now`` holds at the first state
    and the suffix play satisfies ``later``, which is ``TRUE`` when nothing
    remains."""

    now: StateFormula
    later: Formula


def _key(g) -> str:
    return g.key


# ---------------------------------------------------------------------------
# Decomposition proper


class _Scratch:
    """Memos of one :func:`closure` call, dropped when it returns.

    Decomposing the paths of many gamma formulas meets the same remainders
    over and over.  ``joins`` maps a path join and the remainders it joins
    to their join, and ``steps`` a quantifier, coalition and remainder to
    the re-quantified remainder and its successor formula.  They hold an
    entry per distinct remainder, not per pair.
    """

    __slots__ = ("joins", "steps")

    def __init__(self) -> None:
        self.joins: dict[tuple, Formula] = {}
        self.steps: dict[tuple, tuple[StateFormula, StateFormula]] = {}


_DEC_CACHE: dict[Formula, tuple[DecPair, ...]] = {}


def dec(p: Formula, scratch: _Scratch | None = None) -> tuple[DecPair, ...]:
    """All now/later pairs of a normal-form path formula, in a fixed order:
    base operators contribute their defining pairs; a conjunction combines
    every pair of pairs; a disjunction keeps both operands' pairs and adds
    the joint pairs whose obligations overlap on a real suffix.

    A join folds its operands' pairs left to right by that rule, keeping
    each combination as the tuple of the operand pairs it combines.  Each
    combination then becomes one pair: the ``conj`` of its now-parts and
    the join of its remainders by the connective itself, made once per
    ``scratch``, which the call makes when the caller gives none.
    """
    cached = _DEC_CACHE.get(p)
    if cached is not None:
        return cached
    t = type(p)
    if p.kind is not None:
        out = [DecPair(p, TRUE)]
    elif t is Next:
        out = [DecPair(TRUE, p.state)]
    elif t is Always:
        out = [DecPair(p.state, p)]
    elif t is Until:
        out = [DecPair(p.lhs, p), DecPair(p.rhs, TRUE)]
    elif t is PAnd or t is POr:
        if scratch is None:
            scratch = _Scratch()
        operand_pairs = [dec(q, scratch) for q in p.operands]
        if t is PAnd:
            combos = product(*operand_pairs)
            mk = pand
        else:
            combos = []
            for pairs in operand_pairs:
                # Only pairs that leave a real suffix combine; every pair of
                # a joint combination does, so its last one tells.
                deferring = [b for b in pairs if b.later is not TRUE]
                combos += [(b,) for b in pairs] + [
                    a + (b,) for a in combos if a[-1].later is not TRUE
                    for b in deferring
                ]
            mk = por
        joins = scratch.joins
        out = []
        for combo in combos:
            laters = tuple([c.later for c in combo])
            later = joins.get((mk, laters))
            if later is None:
                later = joins[mk, laters] = mk(*laters)
            out.append(DecPair(conj(*[c.now for c in combo]), later))
    else:
        raise FormulaError(f"cannot decompose {p!r}")
    result = tuple(dict.fromkeys(out))
    _DEC_CACHE[p] = result
    return result


@dataclass(frozen=True, slots=True)
class GammaComponent:
    """One way to start satisfying a quantified path formula.

    ``rendered`` is the state formula the component contributes to a label:
    the now-part alone when the pair has no remainder, otherwise the
    conjunction of the now-part with ``step``, the single-step successor
    formula whose payload ``next_ev`` re-quantifies the remainder.
    """

    now: StateFormula
    next_ev: StateFormula | None
    step: StateFormula | None
    rendered: StateFormula


_GAMMA_CACHE: dict[StateFormula, tuple[GammaComponent, ...]] = {}


def gamma_components(
    f: StateFormula, scratch: _Scratch | None = None
) -> tuple[GammaComponent, ...]:
    """The components of a gamma formula, one per ``dec`` pair of its path.

    Gamma formulas of one quantifier and coalition share remainders, so
    each remainder's ``next_ev`` and ``step`` are derived once per
    ``scratch``, which the call makes when the caller gives none.
    """
    cached = _GAMMA_CACHE.get(f)
    if cached is not None:
        return cached
    if f.kind is not GAMMA:
        raise FormulaError(f"not a gamma formula: {f!r}")
    if scratch is None:
        scratch = _Scratch()
    steps = scratch.steps
    cls, coalition = type(f), f.coalition
    components = []
    for now, later in dec(f.path, scratch):
        if later is TRUE:
            components.append(GammaComponent(now, None, None, now))
            continue
        derived = steps.get((cls, coalition, later))
        if derived is None:
            next_ev = requantify(f, later)
            derived = next_ev, requantify(f, pnext(next_ev))
            steps[(cls, coalition, later)] = derived
        next_ev, step = derived
        components.append(GammaComponent(now, next_ev, step, conj(now, step)))
    result = tuple(components)
    _GAMMA_CACHE[f] = result
    return result


def holds_locally(g: StateFormula, label: frozenset[StateFormula]) -> bool:
    """Whether the label forces the state formula by Boolean structure alone:
    a member holds, a conjunction holds when every conjunct does and a
    disjunction when some disjunct does, so a conjunction whose conjuncts
    are all present counts as present even when the node itself is not."""
    if g is TRUE or g in label:
        return True
    kind = g.kind
    if kind is not ALPHA and kind is not BETA:
        return False
    conjunctive = kind is ALPHA
    for h in g.operands:
        if holds_locally(h, label) is not conjunctive:
            return not conjunctive
    return conjunctive


def realized_now(p: Formula, label: frozenset[StateFormula]) -> bool:
    """Whether the path formula is already discharged by the label alone:
    no outstanding suffix obligation beyond invariants that may simply
    continue.  ``X`` is never discharged locally; a state formula must hold
    now; ``G p`` counts as locally consistent when ``p`` is present;
    ``l U r`` needs ``r`` now.  The test is read from the path's
    :func:`_realization`."""
    return _realized(_realization(p), label)


def _realized(test: tuple, label: frozenset[StateFormula]) -> bool:
    """Whether ``label`` passes a test made by :func:`_realization`."""
    conjunctive, parts = test
    for g in parts:
        held = _realized(g, label) if type(g) is tuple else holds_locally(g, label)
        if held is not conjunctive:
            return held
    return conjunctive


# The test of ``X``: an empty disjunction, which no label realizes.
_NEVER = (False, ())


@lru_cache(maxsize=4096)
def _realization(p: Formula) -> tuple:
    """What :func:`realized_now` tests of ``p``: ``(conjunctive, parts)``,
    where each part is a state formula the label must force, or a nested
    test of the same shape.  A ``PAnd`` (``POr``) is a conjunctive
    (disjunctive) test of its operands, any other path a conjunctive test
    of itself, and ``X`` becomes the empty disjunction.  Derived once per
    path formula; the cache is bounded."""
    t = type(p)
    if t is PAnd or t is POr:
        return t is PAnd, tuple(map(_realization_part, p.operands))
    return True, (_realization_part(p),)


def _realization_part(g: Formula):
    """One part of a :func:`_realization` test."""
    t = type(g)
    if t is PAnd or t is POr:
        return _realization(g)
    if t is Until:
        return g.rhs
    if t is Always:
        return g.state
    if t is Next:
        return _NEVER
    if g.kind is None:
        raise FormulaError(f"cannot evaluate {g!r}")
    return g


# ---------------------------------------------------------------------------
# Full expansions


@dataclass(slots=True)
class _Branch:
    members: set[StateFormula]
    queue: deque[StateFormula]
    dead: bool = False

    def clone(self) -> "_Branch":
        return _Branch(set(self.members), deque(self.queue))

    def add(self, f: StateFormula) -> None:
        if self.dead or f in self.members:
            return
        if f is FALSE:
            self.dead = True
            return
        if f.complement in self.members:  # None unless ``f`` is a literal
            self.dead = True
            return
        self.members.add(f)
        self.queue.append(f)


def full_expansions(
    label: Iterable[StateFormula],
) -> tuple[frozenset[StateFormula], ...]:
    """All full expansions of a set of normal-form state formulas, as bare
    labels.

    Conjunctions contribute every conjunct; disjunctions and gamma
    formulas branch (one disjunct / one rendered component); branches that
    acquire ``false`` or a clashing literal pair are dropped.  Expansions
    are produced in branch order and deduplicated, keeping the first
    occurrence.  Which component each gamma formula is linked to is a
    function of the label alone: see :func:`gamma_links`.
    """
    start = _Branch(set(), deque())
    for f in sorted(set(label), key=_key):
        start.add(f)
    results: dict[frozenset[StateFormula], None] = {}
    stack: list[_Branch] = [start]
    while stack:
        branch = stack.pop()
        while not branch.dead and branch.queue:
            f = branch.queue.popleft()
            kind = f.kind
            if kind is ALPHA:
                # Last conjunct first: the state numbering that follows
                # gives dis4 an assembled model of 187 states, against 211
                # in key order.
                for g in reversed(f.operands):
                    branch.add(g)
                continue
            if kind is BETA:
                alternatives: tuple[StateFormula, ...] = f.operands
            elif kind is GAMMA:
                alternatives = tuple(c.rendered for c in gamma_components(f))
            else:  # primitive or successor
                continue
            for alt in reversed(alternatives[1:]):
                sibling = branch.clone()
                sibling.add(alt)
                stack.append(sibling)
            branch.add(alternatives[0])
        if not branch.dead:
            results.setdefault(frozenset(branch.members))
    return tuple(results)


def gamma_links(label: frozenset[StateFormula]) -> dict[StateFormula, GammaComponent]:
    """Each gamma formula of a full expansion, in key order, linked to the
    first of its components whose rendered formula is in the label.

    The tableau calls this once per new state, on the expansion's label
    before the successor rule adds the unconditional step.
    """
    linked: dict[StateFormula, GammaComponent] = {}
    gammas = [f for f in label if f.kind is GAMMA]
    for f in sorted(gammas, key=_key):
        for component in gamma_components(f):
            if component.rendered in label:
                linked[f] = component
                break
        else:  # pragma: no cover - saturation guarantees a component
            raise FormulaError(f"no component of {f!r} rendered in a full expansion")
    return linked


# ---------------------------------------------------------------------------
# Closure


DEFAULT_CLOSURE_LIMIT = 2**20


def closure(
    f: StateFormula, limit: int = DEFAULT_CLOSURE_LIMIT
) -> tuple[StateFormula, ...]:
    """Every state formula that can ever enter a label while deciding ``f``
    (with the two constants always included), in first-reached order.

    Raises :class:`ClosureLimitError` past ``limit`` distinct formulas.
    The components of every gamma formula reached are derived here, with
    one scratch for all of them, and cached for the rest of the pipeline.
    """
    seen: dict[StateFormula, None] = {TRUE: None, FALSE: None}
    queue: deque[StateFormula] = deque()
    scratch = _Scratch()

    def add(g: StateFormula) -> None:
        if g in seen:
            return
        if len(seen) >= limit:
            raise ClosureLimitError(
                f"closure exceeded the cap of {limit} distinct formulas"
            )
        seen[g] = None
        queue.append(g)

    add(f)
    while queue:
        g = queue.popleft()
        kind = g.kind
        if kind is ALPHA or kind is BETA:
            for h in g.operands:
                add(h)
        elif kind is GAMMA:
            for component in gamma_components(g, scratch):
                add(component.rendered)
        elif kind is SUCCESSOR:
            add(g.path.state)
    return tuple(seen)
