"""Path-formula decomposition and saturation of state labels.

A path formula with at most one temporal operator per branch can be split
into *now/later* pairs: each pair says what must hold at the first state
(a state formula) and what the remaining suffix play must satisfy (a path
formula, which is ``TRUE`` when nothing remains).  Boolean path
connectives combine the pairs of their operands pairwise.

For a quantified path formula (a gamma formula) every pair turns into one
*component*: a state formula that is either the now-part alone (when
nothing remains) or the conjunction of the now-part with a single-step
quantified successor formula.  Choosing one component per gamma formula,
one disjunct per disjunction and both conjuncts of every conjunction
saturates a label into its *full expansions* -- the downward-closed,
clash-free supersets that become tableau states.  Expansions are bare
labels: the component a gamma formula is linked to is derived from the
label alone by :func:`gamma_links`, once per tableau state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .syntax import (
    ALPHA,
    BETA,
    FALSE,
    GAMMA,
    SUCCESSOR,
    TRUE,
    Always,
    And,
    Formula,
    FormulaError,
    Next,
    Or,
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


# ---------------------------------------------------------------------------
# Slot canonicalization: flatten, drop units, dedup, sort, fold.
#
# A canonical join is a left fold of its atoms in *fold order*: for a
# conjunction of state formulas, key order; for a ``PAnd`` or ``POr`` of
# path formulas, the state atoms (with their own ``And`` (``Or``) nodes
# flattened too) in key order, then the temporal atoms in key order.
# ``pand`` and ``por`` join two state atoms into one state formula, so the
# state atoms fold into a single state part first.  Decomposition sees only
# normal-form input, where a state formula is one whose ``kind`` is set.


def _key(g) -> str:
    return g.key


def _path_order(g: Formula) -> tuple[bool, str]:
    return g.kind is None, g.key


def _flatten(parts: Iterable, node_cls: type, unit) -> set:
    """The operands of the nested ``node_cls`` nodes of ``parts``, without
    ``unit``.  Iterative, so a chain of any depth flattens."""
    atoms = set()
    stack = list(parts)
    while stack:
        g = stack.pop()
        if type(g) is node_cls:
            stack.append(g.lhs)
            stack.append(g.rhs)
        elif g is not unit:
            atoms.add(g)
    return atoms


def _fold(mk: Callable, start, atoms: Iterable):
    """``start`` joined by ``mk`` with each of ``atoms`` in turn."""
    out = start
    for g in atoms:
        out = mk(out, g)
    return out


def _state_atoms(parts: Iterable[StateFormula]) -> list[StateFormula]:
    """The conjuncts of ``parts`` in fold order: flattened, without
    ``true``, deduplicated and sorted by key."""
    return sorted(_flatten(parts, And, TRUE), key=_key)


def _path_atoms(p: Formula, node_cls: type) -> list[Formula]:
    """The atoms of ``p`` as a ``PAnd`` or ``POr`` join, in fold order."""
    unit, inner = (TRUE, And) if node_cls is PAnd else (FALSE, Or)
    atoms = _flatten([p], node_cls, unit)
    states = _flatten([a for a in atoms if a.kind is not None], inner, unit)
    temporal = [a for a in atoms if a.kind is None]
    return sorted(states, key=_key) + sorted(temporal, key=_key)


def _canon_state(parts: Iterable[StateFormula]) -> StateFormula:
    """The canonical conjunction of ``parts`` (``conj`` folds in ``false``)."""
    return _fold(conj, TRUE, _state_atoms(parts))


def _join(mk: Callable, unit, left: tuple, right: tuple):
    """The canonical ``mk``-join (``pand`` or ``por``) of two canonical
    path nodes, each given as ``(node, atoms in fold order)``.

    When every right atom follows every left one, the join's fold passes
    through the left node, so only the right atoms are folded onto it.
    Otherwise the two sorted atom lists are merged and folded from ``unit``.
    """
    node, atoms = left
    other, more = right
    if not more:
        return node
    if not atoms:
        return other
    if _path_order(atoms[-1]) < _path_order(more[0]):
        return _fold(mk, node, more)
    return _fold(mk, unit, sorted({*atoms, *more}, key=_path_order))


def _conj_join(left: StateFormula, right: StateFormula) -> StateFormula:
    """The canonical conjunction of two canonical conjunctions.

    The join's fold passes through the fold of the conjuncts of ``left``
    that sort before every conjunct of ``right``, found by
    :func:`_conj_prefix`, so only the conjuncts from there on are folded.
    """
    if right is TRUE:
        return left
    if left is TRUE:
        return right
    more = _spine(right)
    split = _conj_prefix(left, more[0].key)
    if split is None:
        return _canon_state([left, right])
    prefix, moved = split
    if not moved:
        return _fold(conj, left, more)
    return _fold(conj, prefix, sorted({*moved, *more}, key=_key))


def _conj_prefix(node: StateFormula, first: str):
    """``(prefix, moved)``: the fold of the conjuncts of the canonical
    conjunction ``node`` whose keys sort before ``first``, and the others,
    greatest first; ``None`` where the lhs spine is not such a fold.

    Each fold step joins the fold so far with a conjunct that sorts after
    every earlier one, and ``conj`` puts the smaller key on the left.  As
    keys are spelled, the fold so far sorts before that conjunct too, so
    the conjunct lands on the right and the spine lists the conjuncts,
    greatest first.  A swapped step would show an ``And`` on the right;
    the walk checks every step for one, since the argument rests on the
    spelling of keys.
    """
    moved = []
    while type(node) is And:
        atom = node.rhs
        if type(atom) is And:
            return None
        if atom.key < first:
            return node, moved
        moved.append(atom)
        node = node.lhs
    if node.key < first:
        return node, moved
    moved.append(node)
    return TRUE, moved


def _spine(g: StateFormula) -> list[StateFormula]:
    """The conjuncts of a canonical conjunction other than ``true``, in fold
    order, read off its lhs spine (see :func:`_conj_prefix`), or flattened
    where a step is swapped."""
    atoms = []
    while type(g) is And:
        if type(g.rhs) is And:
            return _state_atoms([g])
        atoms.append(g.rhs)
        g = g.lhs
    atoms.append(g)
    atoms.reverse()
    return atoms


def _pair(now_parts: Iterable[StateFormula], later: Formula) -> DecPair:
    return DecPair(_canon_state(now_parts), later)


# ---------------------------------------------------------------------------
# Decomposition proper


class _Scratch:
    """Memos of one :func:`closure` call, dropped when it returns.

    Decomposing the paths of many gamma formulas meets the same remainders
    over and over.  ``sides`` maps a remainder and a connective (``PAnd``
    or ``POr``) to its canonical node and atoms as an operand of that
    connective, and ``joins`` two remainders and a connective to their
    canonical join.  ``steps`` maps a quantifier, coalition and remainder
    to the re-quantified remainder and its successor formula.  They hold
    an entry per distinct remainder, not per pair.
    """

    __slots__ = ("sides", "joins", "steps")

    def __init__(self) -> None:
        self.sides: dict[tuple[Formula, type], tuple[Formula, list]] = {}
        self.joins: dict[tuple[Formula, Formula, type], Formula] = {}
        self.steps: dict[tuple, tuple[StateFormula, StateFormula]] = {}


def _later_join(a: Formula, b: Formula, node_cls: type, scratch: _Scratch) -> Formula:
    """The canonical ``node_cls`` join of two remainders."""
    key = (a, b, node_cls)
    joined = scratch.joins.get(key)
    if joined is None:
        mk, unit = (pand, TRUE) if node_cls is PAnd else (por, FALSE)
        joined = _join(
            mk,
            unit,
            _later_side(a, node_cls, mk, unit, scratch),
            _later_side(b, node_cls, mk, unit, scratch),
        )
        scratch.joins[key] = joined
    return joined


def _later_side(
    later: Formula, node_cls: type, mk: Callable, unit, scratch: _Scratch
) -> tuple[Formula, list]:
    """A remainder as ``(canonical node, atoms in fold order)`` for a
    ``node_cls`` join.  Remainders that ``dec`` joins are canonical, and so
    is a single temporal atom; only a remainder that is a state formula,
    the payload of an ``X`` of any shape, is folded."""
    side = scratch.sides.get((later, node_cls))
    if side is None:
        atoms = _path_atoms(later, node_cls)
        node = later if later.kind is None else _fold(mk, unit, atoms)
        side = scratch.sides[(later, node_cls)] = (node, atoms)
    return side


_DEC_CACHE: dict[Formula, tuple[DecPair, ...]] = {}


def dec(p: Formula, scratch: _Scratch | None = None) -> tuple[DecPair, ...]:
    """All now/later pairs of a normal-form path formula, in a fixed order:
    base operators contribute their defining pairs; a conjunction combines
    every pair of pairs; a disjunction keeps both operands' pairs and adds
    the joint pairs whose obligations overlap on a real suffix.

    A combined pair joins the two now-parts by conjunction and the two
    remainders by the connective itself.  Now-parts are joined by
    :func:`_conj_join`, and remainders once per ``scratch``, which the
    call makes when the caller gives none.
    """
    cached = _DEC_CACHE.get(p)
    if cached is not None:
        return cached
    if scratch is None:
        scratch = _Scratch()
    out: list[DecPair]
    if p.kind is not None:
        out = [_pair([p], TRUE)]
    elif isinstance(p, Next):
        out = [_pair([], p.state)]
    elif isinstance(p, Always):
        out = [_pair([p.state], p)]
    elif isinstance(p, Until):
        out = [_pair([p.lhs], p), _pair([p.rhs], TRUE)]
    elif isinstance(p, (PAnd, POr)):
        left = dec(p.lhs, scratch)
        right = dec(p.rhs, scratch)
        node_cls = type(p)
        if node_cls is PAnd:
            out = []
        else:
            out = list(left) + list(right)
            # Only pairs that leave a real suffix combine.
            left = [a for a in left if a.later is not TRUE]
            right = [b for b in right if b.later is not TRUE]
        for now_a, later_a in left:
            for now_b, later_b in right:
                out.append(
                    DecPair(
                        _conj_join(now_a, now_b),
                        _later_join(later_a, later_b, node_cls, scratch),
                    )
                )
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
    """Whether the label forces the state formula by Boolean structure alone.

    Membership is tested modulo conjunction/disjunction shape: labels store
    the flattened canonical form of composite now-parts, so a nested
    conjunction whose conjuncts are all present counts as present even when
    the exact node is not.  A chain of one connective is read down its left
    spine, testing membership at every spine node: a conjunction fails at
    its first right operand that fails, a disjunction holds at its first
    right operand that holds."""
    if g is TRUE or g in label:
        return True
    kind = g.kind
    if kind is not ALPHA and kind is not BETA:
        return False
    conjunctive = kind is ALPHA
    while holds_locally(g.rhs, label) is conjunctive:
        g = g.lhs
        if g.kind is not kind:
            return holds_locally(g, label)
        if g in label:
            return True
    return not conjunctive


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
    test of the same shape.  A chain of ``PAnd`` (``POr``) flattens into
    one conjunctive (disjunctive) test, and ``X`` becomes the empty
    disjunction.  Derived once per path formula; the cache is bounded."""
    node_cls = type(p)
    conjunctive = node_cls is not POr
    parts = []
    stack = [p]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is node_cls and (t is PAnd or t is POr):
            stack += (g.rhs, g.lhs)
        elif t is PAnd or t is POr:
            parts.append(_realization(g))
        elif t is Until:
            parts.append(g.rhs)
        elif t is Always:
            parts.append(g.state)
        elif t is Next:
            parts.append(_NEVER)
        elif g.kind is None:
            raise FormulaError(f"cannot evaluate {g!r}")
        else:
            parts.append(g)
    return conjunctive, tuple(parts)


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

    Conjunctions contribute both conjuncts; disjunctions and gamma
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
                branch.add(f.lhs)
                branch.add(f.rhs)
                continue
            if kind is BETA:
                alternatives: list[StateFormula] = [f.lhs, f.rhs]
            elif kind is GAMMA:
                alternatives = [c.rendered for c in gamma_components(f)]
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
            add(g.lhs)
            add(g.rhs)
        elif kind is GAMMA:
            for component in gamma_components(g, scratch):
                add(component.rendered)
        elif kind is SUCCESSOR:
            add(g.path.state)
    return tuple(seen)
