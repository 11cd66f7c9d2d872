"""Formula core for the strategic temporal logic.

State formulas describe configurations of a multi-agent system; path
formulas constrain individual plays and occur only under the two strategic
quantifiers (``<<A>>`` -- coalition A can enforce; ``[[A]]`` -- coalition A
cannot avoid).  Path formulas carry at most one temporal operator per
branch: temporal operators apply to state formulas only, and Boolean
connectives combine path formulas.  A state formula is itself a path
formula, which holds on a play when it holds at the play's first state;
it sits in a path position as it is, with no wrapper node.

Surface connectives (general negation, implication, ``F``, ``R``) are
eliminated by :func:`to_nnf`, which pushes negation to the literals and
normalizes full-universe avoidance quantifiers into empty-coalition
enforceability.  Everything downstream operates on the normal-form core.

Formulas are hash-consed: building the same shape twice returns the same
object, so equality is identity and formula sets are cheap.  Each formula
carries a canonical ``key`` string that serves as a stable total order.
The one intern table, which holds every node, is this module's only
shared mutable state (guarded by the GIL); all operations are otherwise
pure functions of their inputs.  Other modules keep process-wide caches
of their own: ``decomposition._DEC_CACHE`` and ``_GAMMA_CACHE``, keyed by
interned formulas, and ``enumeration._CACHE`` and ``_CHECKERS``, keyed by
the enumeration bounds.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Iterator


class FormulaError(Exception):
    """Malformed formula or misuse of the formula API."""


class ParseError(FormulaError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST nodes


class FormulaClass(Enum):
    """The tableau class of a normal-form state formula (see :func:`classify`).

    ``SUCCESSOR`` is only ever a formula's ``kind``: it tells the
    single-step quantified formulas apart from the other primitives, and
    :func:`classify` reports it as ``PRIMITIVE``.
    """

    PRIMITIVE = "primitive"
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    SUCCESSOR = "successor"


# The kinds as plain names: a member lookup on the enum class costs several
# times a module global in the loops that test a formula's kind.
PRIMITIVE = FormulaClass.PRIMITIVE
ALPHA = FormulaClass.ALPHA
BETA = FormulaClass.BETA
GAMMA = FormulaClass.GAMMA
SUCCESSOR = FormulaClass.SUCCESSOR


class Formula:
    """Base class of all formula nodes; interned, compared by identity.

    ``kind`` is fixed when a node is interned: a class attribute of the
    connectives and constants, a slot of the quantifiers, and ``None`` for
    ``PathFormula`` nodes and the surface-only connectives.  ``complement``
    is the opposite literal of a ``Lit`` and ``None`` for every other node.
    """

    __slots__ = ("key",)
    kind: FormulaClass | None = None
    complement: "Lit | None" = None

    def __repr__(self) -> str:
        return self.key

    def __lt__(self, other: "Formula") -> bool:
        return self.key < other.key


class StateFormula(Formula):
    __slots__ = ()


class PathFormula(Formula):
    """A path formula that is not a state formula: a temporal operator, or
    a Boolean combination with one among its operands."""

    __slots__ = ()


class TrueConst(StateFormula):
    __slots__ = ()
    kind = PRIMITIVE


class FalseConst(StateFormula):
    __slots__ = ()
    kind = PRIMITIVE


class Lit(StateFormula):
    __slots__ = ("name", "positive", "complement")
    kind = PRIMITIVE


class And(StateFormula):
    __slots__ = ("lhs", "rhs")
    kind = ALPHA


class Or(StateFormula):
    __slots__ = ("lhs", "rhs")
    kind = BETA


class Enf(StateFormula):
    """``<<A>>P`` -- coalition A has a strategy making every play satisfy P."""

    __slots__ = ("coalition", "path", "kind")


class Unav(StateFormula):
    """``[[A]]P`` -- coalition A cannot avoid P (an A-co-strategy exists)."""

    __slots__ = ("coalition", "path", "kind")


class Not(StateFormula):
    """Surface-only general negation; removed by :func:`to_nnf`."""

    __slots__ = ("sub",)


class Implies(StateFormula):
    """Surface-only implication; removed by :func:`to_nnf`."""

    __slots__ = ("lhs", "rhs")


class Next(PathFormula):
    __slots__ = ("state",)


class Always(PathFormula):
    __slots__ = ("state",)


class Until(PathFormula):
    __slots__ = ("lhs", "rhs")


class Sometime(PathFormula):
    """Surface-only ``F p``; expanded to ``true U p`` by :func:`to_nnf`."""

    __slots__ = ("state",)


class Release(PathFormula):
    """Surface-only ``l R r``; expanded to ``G r | r U (r & l)`` by to_nnf."""

    __slots__ = ("lhs", "rhs")


class PAnd(PathFormula):
    __slots__ = ("lhs", "rhs")


class POr(PathFormula):
    __slots__ = ("lhs", "rhs")


# ---------------------------------------------------------------------------
# Interning


_TABLE: dict[str, Formula] = {}


def _mk(cls: type, key: str, *values) -> Formula:
    """The interned ``cls`` node of ``key``; on a miss, a new node whose
    slots take ``values`` in the order of ``cls.__slots__``."""
    node = _TABLE.get(key)
    if node is None:
        node = cls.__new__(cls)
        node.key = key
        for name, value in zip(cls.__slots__, values):
            setattr(node, name, value)
        _TABLE[key] = node
    elif type(node) is not cls:  # pragma: no cover - defensive
        raise FormulaError(f"intern-key collision for {key!r}")
    return node


TRUE: TrueConst = _mk(TrueConst, "true")
FALSE: FalseConst = _mk(FalseConst, "false")


def lit(name: str, positive: bool = True) -> Lit:
    """The literal ``name`` or ``~name``; both are interned together, each
    the other's ``complement``."""
    node = _TABLE.get(name if positive else "~" + name)
    if node is None:
        pos = _mk(Lit, name, name, True)
        neg = _mk(Lit, "~" + name, name, False)
        pos.complement = neg
        neg.complement = pos
        node = pos if positive else neg
    elif type(node) is not Lit:  # pragma: no cover - defensive
        raise FormulaError(f"intern-key collision for {node.key!r}")
    return node


def conj(a: StateFormula, b: StateFormula) -> StateFormula:
    """Binary conjunction with unit/absorber folding and sorted operands."""
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE or b is FALSE:
        return FALSE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(And, f"({a.key} & {b.key})", a, b)


def disj(a: StateFormula, b: StateFormula) -> StateFormula:
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE or b is TRUE:
        return TRUE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(Or, f"({a.key} | {b.key})", a, b)


def lnot(a: StateFormula) -> StateFormula:
    """Surface negation; literals and constants fold immediately."""
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if isinstance(a, Lit):
        return a.complement
    if isinstance(a, Not):
        return a.sub
    return _mk(Not, f"~({a.key})", a)


def implies(a: StateFormula, b: StateFormula) -> StateFormula:
    return _mk(Implies, f"({a.key} -> {b.key})", a, b)


def _coalition(agents: Iterable[int]) -> tuple[int, ...]:
    coal = tuple(sorted(set(agents)))
    for a in coal:
        if not isinstance(a, int) or a < 1:
            raise FormulaError(f"agents must be positive integers, got {a!r}")
    return coal


def coalition_text(coal: tuple[int, ...]) -> str:
    return ",".join(map(str, coal))


def _quantified(
    cls: type, coal: tuple[int, ...], prefix: str, path: Formula
) -> StateFormula:
    """``cls`` (``Enf`` or ``Unav``) over a canonical coalition, whose key
    starts with ``prefix`` (``<<A>>`` or ``[[A]]``): a successor formula
    when ``path`` is a ``Next``, a gamma formula otherwise."""
    kind = SUCCESSOR if type(path) is Next else GAMMA
    key = prefix + path.key
    return _mk(cls, key, coal, path, kind)


def enf(agents: Iterable[int], path: Formula) -> Enf:
    coal = _coalition(agents)
    return _quantified(Enf, coal, f"<<{coalition_text(coal)}>>", path)


def unav(agents: Iterable[int], path: Formula) -> Unav:
    coal = _coalition(agents)
    return _quantified(Unav, coal, f"[[{coalition_text(coal)}]]", path)


def requantify(f: StateFormula, path: Formula) -> StateFormula:
    """``f``'s quantifier and coalition over ``path``.  ``f`` is an ``Enf``
    or ``Unav``: its coalition is canonical already, and its key starts
    with the quantifier prefix, which is reused as it is."""
    prefix = f.key[: len(f.key) - len(f.path.key)]
    return _quantified(type(f), f.coalition, prefix, path)


def pnext(state: StateFormula) -> Next:
    return _mk(Next, f"(X {state.key})", state)


def always(state: StateFormula) -> Always:
    return _mk(Always, f"(G {state.key})", state)


def until(lhs: StateFormula, rhs: StateFormula) -> Until:
    return _mk(Until, f"({lhs.key} U {rhs.key})", lhs, rhs)


def sometime(state: StateFormula) -> Sometime:
    return _mk(Sometime, f"(F {state.key})", state)


def release(lhs: StateFormula, rhs: StateFormula) -> Release:
    return _mk(Release, f"({lhs.key} R {rhs.key})", lhs, rhs)


def pand(a: Formula, b: Formula) -> Formula:
    """Path conjunction: the ``conj`` of two state formulas, otherwise a
    ``PAnd`` with the same folding and operand order as ``conj``."""
    if isinstance(a, StateFormula) and isinstance(b, StateFormula):
        return conj(a, b)
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE or b is FALSE:
        return FALSE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(PAnd, f"({a.key} & {b.key})", a, b)


def por(a: Formula, b: Formula) -> Formula:
    """Path disjunction: the ``disj`` of two state formulas, otherwise a
    ``POr`` with the same folding and operand order as ``disj``."""
    if isinstance(a, StateFormula) and isinstance(b, StateFormula):
        return disj(a, b)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE or b is TRUE:
        return TRUE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(POr, f"({a.key} | {b.key})", a, b)


# ---------------------------------------------------------------------------
# Agent universe


def mentioned_agents(f: StateFormula) -> frozenset[int]:
    """All agents occurring in coalitions anywhere in ``f``."""
    return frozenset(
        a
        for g in iter_state_subformulas(f)
        if isinstance(g, (Enf, Unav))
        for a in g.coalition
    )


def default_universe(f: StateFormula) -> tuple[int, ...]:
    """The agent universe of ``f``: the mentioned agents, or {1} if none."""
    mentioned = mentioned_agents(f)
    return tuple(sorted(mentioned)) if mentioned else (1,)


def mentioned_props(f: StateFormula) -> frozenset[str]:
    """All propositions occurring anywhere in ``f``."""
    return frozenset(g.name for g in iter_state_subformulas(f) if isinstance(g, Lit))


# ---------------------------------------------------------------------------
# Negation normal form


def to_nnf(f: StateFormula, universe: tuple[int, ...] | None = None) -> StateFormula:
    """Eliminate surface connectives and push negation to the literals.

    ``F p`` becomes ``true U p``; ``l R r`` becomes ``G r | r U (r & l)``;
    a negated quantifier dualizes; an avoidance quantifier over the full
    universe collapses to ``<<>>`` (the empty-coalition enforceability).
    """
    return _normal_form(f, universe, False)


def negate(f: StateFormula, universe: tuple[int, ...]) -> StateFormula:
    """Normal form of the negation of ``f``: ``to_nnf``'s walk started
    under one negation, so ``negate(f, u) is to_nnf(lnot(f), u)``."""
    return _normal_form(f, universe, True)


def _normal_form(
    f: StateFormula, universe: tuple[int, ...] | None, negated: bool
) -> StateFormula:
    if universe is None:
        universe = default_universe(f)
    uset = frozenset(universe)

    def ns(g: StateFormula, neg: bool) -> StateFormula:
        if g is TRUE:
            return FALSE if neg else TRUE
        if g is FALSE:
            return TRUE if neg else FALSE
        if isinstance(g, Lit):
            return g.complement if neg else g
        if isinstance(g, Not):
            return ns(g.sub, not neg)
        if isinstance(g, Implies):
            if neg:
                return conj(ns(g.lhs, False), ns(g.rhs, True))
            return disj(ns(g.lhs, True), ns(g.rhs, False))
        if isinstance(g, And):
            mk = disj if neg else conj
            return mk(ns(g.lhs, neg), ns(g.rhs, neg))
        if isinstance(g, Or):
            mk = conj if neg else disj
            return mk(ns(g.lhs, neg), ns(g.rhs, neg))
        if isinstance(g, (Enf, Unav)):
            if not set(g.coalition) <= uset:
                extra = sorted(set(g.coalition) - uset)
                raise FormulaError(
                    f"agent(s) {extra} lie outside the agent universe {list(universe)}"
                )
            path = np(g.path, neg)
            want_enf = isinstance(g, Enf) != neg
            if want_enf:
                return enf(g.coalition, path)
            if frozenset(g.coalition) == uset:
                return enf((), path)
            return unav(g.coalition, path)
        raise FormulaError(f"not a state formula: {g!r}")

    def np(p: Formula, neg: bool) -> Formula:
        if isinstance(p, StateFormula):
            return ns(p, neg)
        if isinstance(p, Next):
            return pnext(ns(p.state, neg))
        if isinstance(p, Always):
            if neg:
                return until(TRUE, ns(p.state, True))
            return always(ns(p.state, False))
        if isinstance(p, Sometime):
            if neg:
                return always(ns(p.state, True))
            return until(TRUE, ns(p.state, False))
        if isinstance(p, Until):
            if not neg:
                return until(ns(p.lhs, False), ns(p.rhs, False))
            nl = ns(p.lhs, True)
            nr = ns(p.rhs, True)
            return por(always(nr), until(nr, conj(nr, nl)))
        if isinstance(p, Release):
            if not neg:
                ll = ns(p.lhs, False)
                rr = ns(p.rhs, False)
                return por(always(rr), until(rr, conj(rr, ll)))
            return until(ns(p.lhs, True), ns(p.rhs, True))
        if isinstance(p, PAnd):
            mk = por if neg else pand
            return mk(np(p.lhs, neg), np(p.rhs, neg))
        if isinstance(p, POr):
            mk = pand if neg else por
            return mk(np(p.lhs, neg), np(p.rhs, neg))
        raise FormulaError(f"not a path formula: {p!r}")

    return ns(f, negated)


def is_nnf(f: Formula) -> bool:
    """True when ``f`` contains no surface-only connectives."""
    if isinstance(f, (TrueConst, FalseConst, Lit)):
        return True
    if isinstance(f, (And, Or, Until, PAnd, POr)):
        return is_nnf(f.lhs) and is_nnf(f.rhs)
    if isinstance(f, (Enf, Unav)):
        return is_nnf(f.path)
    if isinstance(f, (Next, Always)):
        return is_nnf(f.state)
    return False


# ---------------------------------------------------------------------------
# Classification


def classify(f: StateFormula) -> FormulaClass:
    """Total, mutually exclusive classification of normal-form formulas:
    ``f.kind``, with successor formulas reported as primitive."""
    kind = f.kind
    if kind is SUCCESSOR:
        return PRIMITIVE
    if kind is None:
        raise FormulaError(f"classify expects a normal-form state formula: {f!r}")
    return kind


def is_successor_formula(f: Formula) -> bool:
    """Quantified single-step formulas ``<<A>>X p`` / ``[[A]]X p``."""
    return f.kind is SUCCESSOR


def is_gamma(f: Formula) -> bool:
    return f.kind is GAMMA


# ---------------------------------------------------------------------------
# Size and Boolean depth


def formula_size(f: StateFormula, universe: tuple[int, ...] | None = None) -> int:
    """Symbol count; each coalition costs one bit per universe agent."""
    if universe is None:
        universe = default_universe(f)
    k = len(universe)

    def size(g: Formula) -> int:
        if isinstance(g, (TrueConst, FalseConst)):
            return 1
        if isinstance(g, Lit):
            return 1 if g.positive else 2
        if isinstance(g, Not):
            return 1 + size(g.sub)
        if isinstance(g, (Next, Always, Sometime)):
            return 1 + size(g.state)
        if isinstance(g, (And, Or, Implies, Until, Release, PAnd, POr)):
            return 1 + size(g.lhs) + size(g.rhs)
        if isinstance(g, (Enf, Unav)):
            return 1 + k + size(g.path)
        raise FormulaError(f"not a formula: {g!r}")

    return size(f)


def boolean_depth(f: StateFormula) -> int:
    """Maximum Boolean nesting inside any path formula of ``f``.

    State formulas embedded in path positions contribute depth 0 (their own
    Boolean structure is reachable without crossing a temporal operator
    boundary only through another quantifier, which restarts the count).
    """

    def depth_state(g: StateFormula) -> int:
        if isinstance(g, (And, Or)):
            return max(depth_state(g.lhs), depth_state(g.rhs))
        if isinstance(g, (Enf, Unav)):
            return max(_superficial_depth(g.path), depth_path_states(g.path))
        return 0

    def depth_path_states(p: Formula) -> int:
        if isinstance(p, StateFormula):
            return depth_state(p)
        if isinstance(p, (Next, Always)):
            return depth_state(p.state)
        if isinstance(p, Until):
            return max(depth_state(p.lhs), depth_state(p.rhs))
        if isinstance(p, (PAnd, POr)):
            return max(depth_path_states(p.lhs), depth_path_states(p.rhs))
        raise FormulaError(f"not a normal-form path formula: {p!r}")

    return depth_state(f)


def _superficial_depth(p: Formula) -> int:
    if isinstance(p, (PAnd, POr)):
        return 1 + max(_superficial_depth(p.lhs), _superficial_depth(p.rhs))
    return 0


# ---------------------------------------------------------------------------
# Parser


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<enfopen><<)"
    r"|(?P<enfclose>>>)"
    r"|(?P<unavopen>\[\[)"
    r"|(?P<unavclose>\]\])"
    r"|(?P<arrow>->)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<amp>&)"
    r"|(?P<pipe>\|)"
    r"|(?P<tilde>~)"
    r"|(?P<comma>,)"
    r"|(?P<nat>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)

_KEYWORDS = {"true", "false", "U", "R", "X", "G", "F"}

# Deepest nesting of '~', 'X'/'G'/'F', quantifier operands, parentheses and
# right-nested '->' the parser accepts.  Later stages walk formulas
# recursively, so deeper input is refused up front.  Flat '&'/'|' chains
# are built iteratively and not counted: a long one still overflows the
# interpreter stack in those walks.
MAX_NESTING_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ``ParseError`` at offset ``pos`` of ``text``, as line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "ws":
            continue
        if kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {tok!r}")
        if kind == "ident" and tok in _KEYWORDS:
            kind = tok
        tokens.append(_Token(kind, tok, m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok: _Token) -> ParseError:
        return _error_at(self.text, tok.pos, message)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}", tok)
        return self.take()

    def descend(self, tok: _Token) -> None:
        """Open the nesting level of the operand that ``tok`` starts."""
        if self.depth == MAX_NESTING_DEPTH:
            raise self.error(
                f"formula nested deeper than {MAX_NESTING_DEPTH} levels", tok
            )
        self.depth += 1

    # precedence: ~  >  U,R  >  &  >  |  >  ->

    def parse_implication(self) -> Formula:
        lhs = self.parse_or()
        if self.peek().kind == "arrow":
            tok = self.take()
            self.descend(tok)
            rhs = self.parse_implication()
            self.depth -= 1
            if isinstance(lhs, PathFormula) or isinstance(rhs, PathFormula):
                raise self.error("'->' connects state formulas, not path formulas", tok)
            return implies(lhs, rhs)
        return lhs

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().kind == "pipe":
            self.take()
            node = por(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_until()
        while self.peek().kind == "amp":
            self.take()
            node = pand(node, self.parse_until())
        return node

    def parse_until(self) -> Formula:
        node = self.parse_unary()
        kind = self.peek().kind
        if kind in ("U", "R"):
            tok = self.take()
            rhs = self.parse_unary()
            if isinstance(node, PathFormula) or isinstance(rhs, PathFormula):
                raise self.error(
                    f"temporal operator '{tok.text}' needs state-formula operands"
                    " -- nested temporal operators are not in the logic",
                    tok,
                )
            mk = until if kind == "U" else release
            return mk(node, rhs)
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "tilde":
            self.take()
            self.descend(tok)
            sub = self.parse_unary()
            self.depth -= 1
            if isinstance(sub, PathFormula):
                raise self.error("'~' negates state formulas, not path formulas", tok)
            return lnot(sub)
        if tok.kind in ("X", "G", "F"):
            self.take()
            self.descend(tok)
            sub = self.parse_unary()
            self.depth -= 1
            if isinstance(sub, PathFormula):
                raise self.error(
                    f"temporal operator '{tok.text}' applies to a state formula"
                    " -- nested temporal operators are not in the logic",
                    tok,
                )
            mk = {"X": pnext, "G": always, "F": sometime}[tok.kind]
            return mk(sub)
        if tok.kind in ("enfopen", "unavopen"):
            self.take()
            agents = self._parse_agents()
            close = "enfclose" if tok.kind == "enfopen" else "unavclose"
            self.expect(close, "'>>'" if close == "enfclose" else "']]'")
            self.descend(tok)
            path = self.parse_until()
            self.depth -= 1
            mk = enf if tok.kind == "enfopen" else unav
            return mk(agents, path)
        if tok.kind == "lparen":
            self.take()
            self.descend(tok)
            node = self.parse_implication()
            self.depth -= 1
            self.expect("rparen", "')'")
            return node
        if tok.kind == "true":
            self.take()
            return TRUE
        if tok.kind == "false":
            self.take()
            return FALSE
        if tok.kind == "ident":
            self.take()
            return lit(tok.text)
        raise self.error(
            "expected a formula" if tok.kind == "eof" else f"unexpected {tok.text!r}", tok
        )

    def _parse_agents(self) -> tuple[int, ...]:
        agents: list[int] = []
        if self.peek().kind == "nat":
            agents.append(int(self.take().text))
            while self.peek().kind == "comma":
                self.take()
                agents.append(int(self.expect("nat", "an agent number").text))
        return tuple(agents)


def parse(text: str) -> StateFormula:
    """Parse a state formula from its ASCII surface syntax."""
    parser = _Parser(text)
    first = parser.peek()
    if first.kind == "eof":
        raise ParseError("empty input", 1, 1)
    node = parser.parse_implication()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"unexpected trailing {tok.text!r}", tok)
    if isinstance(node, PathFormula):
        raise parser.error(
            "input must be a state formula -- a bare path formula like this one"
            " is only meaningful under a strategic quantifier",
            first,
        )
    return node


# ---------------------------------------------------------------------------
# Printer (canonical; parse(to_text(f)) rebuilds f)


_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def to_text(f: StateFormula) -> str:
    return _print_state(f, _PREC_IMP)


def _wrap(text: str, prec: int, parent: int) -> str:
    return f"({text})" if prec < parent else text


def _print_state(f: StateFormula, parent: int, guard: bool = False) -> str:
    # ``guard`` marks positions where a 'U'/'R' token follows immediately in
    # the output (the left operand of a temporal binary).  A bare quantifier
    # there would greedily absorb that token on re-parse, so it needs parens.
    if f is TRUE:
        return "true"
    if f is FALSE:
        return "false"
    if isinstance(f, Lit):
        return f.name if f.positive else "~" + f.name
    if isinstance(f, Not):
        return "~" + _print_state(f.sub, _PREC_UNARY, guard)
    if isinstance(f, And):
        text = f"{_print_state(f.lhs, _PREC_AND)} & {_print_state(f.rhs, _PREC_AND + 1)}"
        return _wrap(text, _PREC_AND, parent)
    if isinstance(f, Or):
        text = f"{_print_state(f.lhs, _PREC_OR)} | {_print_state(f.rhs, _PREC_OR + 1)}"
        return _wrap(text, _PREC_OR, parent)
    if isinstance(f, Implies):
        text = f"{_print_state(f.lhs, _PREC_IMP + 1)} -> {_print_state(f.rhs, _PREC_IMP)}"
        return _wrap(text, _PREC_IMP, parent)
    if isinstance(f, Enf):
        text = f"<<{coalition_text(f.coalition)}>>{_print_quant_operand(f.path)}"
        return f"({text})" if guard else text
    if isinstance(f, Unav):
        text = f"[[{coalition_text(f.coalition)}]]{_print_quant_operand(f.path)}"
        return f"({text})" if guard else text
    raise FormulaError(f"not a printable state formula: {f!r}")


def _print_quant_operand(p: Formula) -> str:
    # A quantifier binds one unary/Until-level path expression; anything
    # looser (path-level & or |) needs explicit parentheses.
    if isinstance(p, (PAnd, POr)):
        return f"({_print_path(p, _PREC_OR)})"
    return _print_path(p, _PREC_UNARY)


def _print_path(p: Formula, parent: int) -> str:
    if isinstance(p, StateFormula):
        return _print_state(p, parent)
    if isinstance(p, Next):
        return "X " + _print_state(p.state, _PREC_UNARY)
    if isinstance(p, Always):
        return "G " + _print_state(p.state, _PREC_UNARY)
    if isinstance(p, Sometime):
        return "F " + _print_state(p.state, _PREC_UNARY)
    if isinstance(p, Until):
        lhs = _print_state(p.lhs, _PREC_UNARY, guard=True)
        text = f"{lhs} U {_print_state(p.rhs, _PREC_UNARY)}"
        return _wrap(text, _PREC_AND + 1, parent) if parent > _PREC_AND else text
    if isinstance(p, Release):
        lhs = _print_state(p.lhs, _PREC_UNARY, guard=True)
        text = f"{lhs} R {_print_state(p.rhs, _PREC_UNARY)}"
        return _wrap(text, _PREC_AND + 1, parent) if parent > _PREC_AND else text
    if isinstance(p, PAnd):
        text = f"{_print_path(p.lhs, _PREC_AND)} & {_print_path(p.rhs, _PREC_AND + 1)}"
        return _wrap(text, _PREC_AND, parent)
    if isinstance(p, POr):
        text = f"{_print_path(p.lhs, _PREC_OR)} | {_print_path(p.rhs, _PREC_OR + 1)}"
        return _wrap(text, _PREC_OR, parent)
    raise FormulaError(f"not a printable path formula: {p!r}")


# ---------------------------------------------------------------------------
# Iteration helpers


def iter_state_subformulas(f: StateFormula) -> Iterator[StateFormula]:
    """Yield ``f`` and every state formula nested anywhere inside it, in
    pre-order; an explicit stack keeps deep nesting off the call stack."""
    stack: list[Formula] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, StateFormula):
            yield g
            if isinstance(g, (Enf, Unav)):
                stack.append(g.path)
            elif isinstance(g, Not):
                stack.append(g.sub)
            elif isinstance(g, (And, Or, Implies)):
                stack += (g.rhs, g.lhs)
        elif isinstance(g, (Next, Always, Sometime)):
            stack.append(g.state)
        elif isinstance(g, (Until, Release, PAnd, POr)):
            stack += (g.rhs, g.lhs)
