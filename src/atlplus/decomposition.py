"""Path-formula decomposition and saturation of state labels.

A path formula with at most one temporal operator per branch can be split
into *now/later* pairs: each pair says what must hold at the first state
(a state formula) and what the remaining suffix play must satisfy (a path
formula, ``true`` when nothing remains).  Boolean path connectives combine
the pairs of their operands pairwise.

For a quantified path formula (a gamma formula) every pair turns into one
*component*: a state formula that is either the now-part alone (when
nothing remains) or the conjunction of the now-part with a single-step
quantified successor formula.  Choosing one component per gamma formula,
one disjunct per disjunction and both conjuncts of every conjunction
saturates a label into its *full expansions* -- the downward-closed,
clash-free supersets that become tableau states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from .syntax import (
    FALSE,
    ST_FALSE,
    ST_TRUE,
    TRUE,
    Always,
    And,
    Enf,
    FormulaClass,
    FormulaError,
    Lit,
    Next,
    Or,
    PAnd,
    PathFormula,
    POr,
    St,
    StateFormula,
    Unav,
    Until,
    classify,
    conj,
    disj,
    enf,
    is_gamma,
    is_successor_formula,
    lit,
    pand,
    pnext,
    por,
    st,
    successor_payload,
    unav,
)


class ClosureLimitError(FormulaError):
    """The closure of the input grew past the configured cap."""


class DecPair(NamedTuple):
    """One way to satisfy a path formula: ``now`` holds at the first state
    and the suffix play satisfies ``later`` (``true`` when nothing remains)."""

    now: StateFormula
    later: PathFormula


# ---------------------------------------------------------------------------
# Slot canonicalization: flatten, drop units, dedup, sort, fold.


def _canon_state(
    parts: Iterable[StateFormula],
    node_cls: type,
    unit: StateFormula,
    absorber: StateFormula,
    mk: Callable[[StateFormula, StateFormula], StateFormula],
) -> StateFormula:
    """Flatten ``node_cls`` nodes, drop ``unit``, dedup, sort and fold with
    ``mk``; any ``absorber`` operand absorbs the whole."""
    flat: dict[StateFormula, None] = {}

    def add(g: StateFormula) -> None:
        if isinstance(g, node_cls):
            add(g.lhs)
            add(g.rhs)
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


_CONJ = (And, TRUE, FALSE, conj)
_DISJ = (Or, FALSE, TRUE, disj)


def _flatten_path(p: PathFormula, node_cls: type) -> Iterator[PathFormula]:
    if isinstance(p, node_cls):
        yield from _flatten_path(p.lhs, node_cls)
        yield from _flatten_path(p.rhs, node_cls)
    else:
        yield p


def _canon_path(
    parts: Iterable[PathFormula],
    node_cls: type,
    unit: St,
    absorber: St,
    mk: Callable[[PathFormula, PathFormula], PathFormula],
    state_ops: tuple,
) -> PathFormula:
    """Flatten ``node_cls`` nodes; the state atoms fold into one state part
    canonicalized by ``state_ops``, then the sorted temporal atoms join it
    by ``mk``.  ``unit`` and ``absorber`` wrap the state-level ones."""
    temporal: dict[PathFormula, None] = {}
    state_atoms: list[StateFormula] = []
    for part in parts:
        for atom in _flatten_path(part, node_cls):
            if isinstance(atom, St):
                state_atoms.append(atom.state)
            else:
                temporal[atom] = None
    state_part = _canon_state(state_atoms, *state_ops)
    if state_part is absorber.state:
        return absorber
    out = unit if state_part is unit.state else st(state_part)
    for p in sorted(temporal, key=lambda x: x.key):
        out = mk(out, p)
    return out


_PAND = (PAnd, ST_TRUE, ST_FALSE, pand, _CONJ)
_POR = (POr, ST_FALSE, ST_TRUE, por, _DISJ)


def _pair(now_parts: Iterable[StateFormula], later: PathFormula) -> DecPair:
    return DecPair(_canon_state(now_parts, *_CONJ), later)


# ---------------------------------------------------------------------------
# Decomposition proper


_DEC_CACHE: dict[PathFormula, tuple[DecPair, ...]] = {}


def dec(p: PathFormula) -> tuple[DecPair, ...]:
    """All now/later pairs of a normal-form path formula, in a fixed order:
    base operators contribute their defining pairs; a conjunction combines
    every pair of pairs; a disjunction keeps both operands' pairs and adds
    the joint pairs whose obligations overlap on a real suffix."""
    cached = _DEC_CACHE.get(p)
    if cached is not None:
        return cached
    out: list[DecPair]
    if isinstance(p, St):
        out = [_pair([p.state], ST_TRUE)]
    elif isinstance(p, Next):
        out = [_pair([], st(p.state))]
    elif isinstance(p, Always):
        out = [_pair([p.state], p)]
    elif isinstance(p, Until):
        out = [_pair([p.lhs], p), _pair([p.rhs], ST_TRUE)]
    elif isinstance(p, PAnd):
        left = dec(p.lhs)
        right = dec(p.rhs)
        out = [
            DecPair(
                _canon_state([a.now, b.now], *_CONJ),
                _canon_path([a.later, b.later], *_PAND),
            )
            for a in left
            for b in right
        ]
    elif isinstance(p, POr):
        left = dec(p.lhs)
        right = dec(p.rhs)
        out = list(left) + list(right)
        for a in left:
            for b in right:
                if a.later is ST_TRUE or b.later is ST_TRUE:
                    continue
                out.append(
                    DecPair(
                        _canon_state([a.now, b.now], *_CONJ),
                        _canon_path([a.later, b.later], *_POR),
                    )
                )
    else:
        raise FormulaError(f"cannot decompose {p!r}")
    deduped: dict[DecPair, None] = {}
    for pair in out:
        deduped[pair] = None
    result = tuple(deduped)
    _DEC_CACHE[p] = result
    return result


@dataclass(frozen=True)
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


def gamma_components(f: StateFormula) -> tuple[GammaComponent, ...]:
    cached = _GAMMA_CACHE.get(f)
    if cached is not None:
        return cached
    if not is_gamma(f):
        raise FormulaError(f"not a gamma formula: {f!r}")
    quantify = enf if isinstance(f, Enf) else unav
    components = []
    for now, later in dec(f.path):
        if later is ST_TRUE:
            components.append(GammaComponent(now, None, None, now))
        else:
            next_ev = quantify(f.coalition, later)
            step = quantify(f.coalition, pnext(next_ev))
            components.append(GammaComponent(now, next_ev, step, conj(now, step)))
    result = tuple(components)
    _GAMMA_CACHE[f] = result
    return result


def holds_locally(g: StateFormula, label: frozenset[StateFormula]) -> bool:
    """Whether the label forces the state formula by Boolean structure alone.

    Membership is tested modulo conjunction/disjunction shape: labels store
    the flattened canonical form of composite now-parts, so a nested
    conjunction whose conjuncts are all present counts as present even when
    the exact node is not."""
    if g is TRUE or g in label:
        return True
    if isinstance(g, And):
        return holds_locally(g.lhs, label) and holds_locally(g.rhs, label)
    if isinstance(g, Or):
        return holds_locally(g.lhs, label) or holds_locally(g.rhs, label)
    return False


def realized_now(p: PathFormula, label: frozenset[StateFormula]) -> bool:
    """Whether the path formula is already discharged by the label alone:
    no outstanding suffix obligation beyond invariants that may simply
    continue.  ``X`` is never discharged locally; ``G p`` counts as locally
    consistent when ``p`` is present; ``l U r`` needs ``r`` now."""
    if isinstance(p, St):
        return holds_locally(p.state, label)
    if isinstance(p, Next):
        return False
    if isinstance(p, Always):
        return holds_locally(p.state, label)
    if isinstance(p, Until):
        return holds_locally(p.rhs, label)
    if isinstance(p, PAnd):
        return realized_now(p.lhs, label) and realized_now(p.rhs, label)
    if isinstance(p, POr):
        return realized_now(p.lhs, label) or realized_now(p.rhs, label)
    raise FormulaError(f"cannot evaluate {p!r}")


# ---------------------------------------------------------------------------
# Full expansions


@dataclass(frozen=True)
class Expansion:
    """A saturated, clash-free label together with the component each
    gamma formula in it is linked to (the first of its components whose
    rendered formula made it into the label)."""

    label: frozenset[StateFormula]
    linked: dict[StateFormula, GammaComponent] = field(compare=False)


@dataclass
class _Branch:
    order: list[StateFormula]
    members: set[StateFormula]
    queue: deque[StateFormula]
    dead: bool = False

    def clone(self) -> "_Branch":
        return _Branch(list(self.order), set(self.members), deque(self.queue))

    def add(self, f: StateFormula) -> None:
        if self.dead or f in self.members:
            return
        if f is FALSE:
            self.dead = True
            return
        if isinstance(f, Lit) and lit(f.name, not f.positive) in self.members:
            self.dead = True
            return
        self.order.append(f)
        self.members.add(f)
        self.queue.append(f)


def full_expansions(label: Iterable[StateFormula]) -> tuple[Expansion, ...]:
    """All full expansions of a set of normal-form state formulas.

    Conjunctions contribute both conjuncts; disjunctions and gamma
    formulas branch (one disjunct / one rendered component); branches that
    acquire ``false`` or a clashing literal pair are dropped.  Expansions
    are produced in branch order and deduplicated by label, keeping the
    first occurrence.
    """
    start = _Branch([], set(), deque())
    for f in sorted(set(label), key=lambda g: g.key):
        start.add(f)
    results: list[Expansion] = []
    seen: set[frozenset[StateFormula]] = set()
    stack: list[_Branch] = [start]
    while stack:
        branch = stack.pop()
        while not branch.dead and branch.queue:
            f = branch.queue.popleft()
            cls = classify(f)
            if cls is FormulaClass.PRIMITIVE:
                continue
            if cls is FormulaClass.ALPHA:
                branch.add(f.lhs)
                branch.add(f.rhs)
                continue
            if cls is FormulaClass.BETA:
                alternatives: list[StateFormula] = [f.lhs, f.rhs]
            else:  # gamma
                alternatives = [c.rendered for c in gamma_components(f)]
            for alt in reversed(alternatives[1:]):
                sibling = branch.clone()
                sibling.add(alt)
                stack.append(sibling)
            branch.add(alternatives[0])
        if branch.dead:
            continue
        final = frozenset(branch.members)
        if final in seen:
            continue
        seen.add(final)
        linked: dict[StateFormula, GammaComponent] = {}
        for f in branch.order:
            if is_gamma(f):
                for component in gamma_components(f):
                    if component.rendered in final:
                        linked[f] = component
                        break
                else:  # pragma: no cover - saturation guarantees a component
                    raise FormulaError(
                        f"no component of {f!r} rendered in a full expansion"
                    )
        results.append(Expansion(final, linked))
    return tuple(results)


# ---------------------------------------------------------------------------
# Closure


DEFAULT_CLOSURE_LIMIT = 2**20


def closure(
    f: StateFormula, limit: int = DEFAULT_CLOSURE_LIMIT
) -> tuple[StateFormula, ...]:
    """Every state formula that can ever enter a label while deciding ``f``
    (with the two constants always included), in first-reached order.

    Raises :class:`ClosureLimitError` past ``limit`` distinct formulas.
    """
    seen: dict[StateFormula, None] = {TRUE: None, FALSE: None}
    queue: deque[StateFormula] = deque()

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
        cls = classify(g)
        if cls in (FormulaClass.ALPHA, FormulaClass.BETA):
            add(g.lhs)
            add(g.rhs)
        elif cls is FormulaClass.GAMMA:
            for component in gamma_components(g):
                add(component.rendered)
        elif is_successor_formula(g):
            add(successor_payload(g))
    return tuple(seen)
