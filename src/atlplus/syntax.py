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
carries a canonical ``key`` string that serves as a stable total order, and
each state formula of the normal form its tableau class as ``kind``.  One
rule builds every binary Boolean join, and one explicit-stack walk,
:func:`iter_subformulas`, visits every node for the helpers that read a
whole formula.  The walkers that recurse loop instead down the left spine
of a long ``&``/``|`` chain, which the parser builds flat.
The one intern table, which holds every node, is this module's only
shared mutable state (guarded by the GIL); all operations are otherwise
pure functions of their inputs.  The process-wide tables of the package:

- ``syntax._TABLE``, the intern table, unbounded;
- ``decomposition._DEC_CACHE`` and ``_GAMMA_CACHE``, a path formula's
  now/later pairs and a gamma formula's components, unbounded;
- ``decomposition._realization``, what ``realized_now`` tests of a path
  formula, an LRU cache of at most 4,096 entries;
- ``enumeration._CACHE`` and ``_CHECKERS``, keyed by the enumeration
  bounds.

The formula-keyed ones key by interned node, so by identity.  No code
iterates one of them, so none decides an order that reaches an output.
Memos that serve one formula, such as ``decomposition._Scratch``, live
for one call.
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
    """The tableau class of a normal-form state formula, read as its ``kind``.

    ``SUCCESSOR`` marks the single-step quantified formulas ``<<A>>X p`` and
    ``[[A]]X p``, which the next-state rule handles; ``GAMMA`` marks every
    other quantified formula.
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
    or ``Unav``: its coalition is canonical already, and its quantifier
    prefix is reused as it is."""
    return _quantified(type(f), f.coalition, _quantifier_prefix(f), path)


def _quantifier_prefix(f: StateFormula) -> str:
    """The ``<<A>>`` or ``[[A]]`` that the key of a quantifier starts with."""
    return f.key[: len(f.key) - len(f.path.key)]


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


def _join(name: str, op: str, unit: Formula, absorber: Formula,
          state_cls: type, path_cls: type | None, doc: str):
    """The canonical binary join, the one rule behind ``conj``, ``disj``,
    ``pand`` and ``por``: the unit folds away, the absorber absorbs, equal
    operands merge and the operands sit in key order.  A path join
    (``path_cls`` set) of two state formulas is their state join."""

    def join(a, b):
        if a is unit:
            return b
        if b is unit:
            return a
        if a is absorber or b is absorber:
            return absorber
        if a is b:
            return a
        if b.key < a.key:
            a, b = b, a
        key = f"({a.key}{op}{b.key})"
        node = _TABLE.get(key)
        if node is None:
            cls = state_cls
            if path_cls is not None and not (
                isinstance(a, StateFormula) and isinstance(b, StateFormula)
            ):
                cls = path_cls
            node = _mk(cls, key, a, b)
        return node

    join.__name__ = join.__qualname__ = name
    join.__doc__ = doc
    return join


conj = _join("conj", " & ", TRUE, FALSE, And, None,
             "Binary conjunction with unit/absorber folding and sorted operands.")
disj = _join("disj", " | ", FALSE, TRUE, Or, None,
             "Binary disjunction with unit/absorber folding and sorted operands.")
pand = _join("pand", " & ", TRUE, FALSE, And, PAnd,
             "Path conjunction: the ``conj`` of two state formulas, otherwise a"
             " ``PAnd`` with the same folding and operand order as ``conj``.")
por = _join("por", " | ", FALSE, TRUE, Or, POr,
            "Path disjunction: the ``disj`` of two state formulas, otherwise a"
            " ``POr`` with the same folding and operand order as ``disj``.")


# ---------------------------------------------------------------------------
# Agent universe


def mentioned_agents(f: StateFormula) -> frozenset[int]:
    """All agents occurring in coalitions anywhere in ``f``."""
    return frozenset(
        a
        for g in iter_subformulas(f)
        if isinstance(g, (Enf, Unav))
        for a in g.coalition
    )


def default_universe(f: StateFormula) -> tuple[int, ...]:
    """The agent universe of ``f``: the mentioned agents, or {1} if none."""
    mentioned = mentioned_agents(f)
    return tuple(sorted(mentioned)) if mentioned else (1,)


def mentioned_props(f: StateFormula) -> frozenset[str]:
    """All propositions occurring anywhere in ``f``."""
    return frozenset(g.name for g in iter_subformulas(f) if isinstance(g, Lit))


_BINARY = frozenset({And, Or, Implies, Until, Release, PAnd, POr})
_UNARY = frozenset({Next, Always, Sometime})


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every node nested anywhere inside it, state and path,
    in pre-order; one explicit stack keeps deep nesting and long chains off
    the call stack."""
    stack: list[Formula] = [f]
    while stack:
        g = stack.pop()
        yield g
        t = type(g)
        if t in _BINARY:
            stack += (g.rhs, g.lhs)
        elif t in _UNARY:
            stack.append(g.state)
        elif t is Enf or t is Unav:
            stack.append(g.path)
        elif t is Not:
            stack.append(g.sub)


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
        t = type(g)
        if t is Lit:
            return g.complement if neg else g
        if t is TrueConst or t is FalseConst:
            return lnot(g) if neg else g
        if t is Not:
            return ns(g.sub, not neg)
        if t is Implies:
            if neg:
                return conj(ns(g.lhs, False), ns(g.rhs, True))
            return disj(ns(g.lhs, True), ns(g.rhs, False))
        if t is And or t is Or:
            # Down the left spine of a chain of one connective, then back up:
            # the joins recursion would make, in its order, without its depth.
            mk = conj if (t is And) != neg else disj
            rights = []
            while type(g) is t:
                rights.append(g.rhs)
                g = g.lhs
            out = ns(g, neg)
            for rhs in reversed(rights):
                out = mk(out, ns(rhs, neg))
            return out
        if t is Enf or t is Unav:
            if not set(g.coalition) <= uset:
                extra = sorted(set(g.coalition) - uset)
                raise FormulaError(
                    f"agent(s) {extra} lie outside the agent universe {list(universe)}"
                )
            path = np(g.path, neg)
            if (t is Enf) != neg:
                return enf(g.coalition, path)
            if frozenset(g.coalition) == uset:
                return enf((), path)
            return unav(g.coalition, path)
        raise FormulaError(f"not a state formula: {g!r}")

    def np(p: Formula, neg: bool) -> Formula:
        if isinstance(p, StateFormula):
            return ns(p, neg)
        t = type(p)
        if t is Next:
            return pnext(ns(p.state, neg))
        if t is Always or t is Sometime:
            sub = ns(p.state, neg)
            return always(sub) if (t is Always) != neg else until(TRUE, sub)
        if t is Until or t is Release:
            lhs = ns(p.lhs, neg)
            rhs = ns(p.rhs, neg)
            if (t is Until) != neg:
                return until(lhs, rhs)
            return por(always(rhs), until(rhs, conj(rhs, lhs)))
        if t is PAnd or t is POr:
            mk = pand if (t is PAnd) != neg else por
            return mk(np(p.lhs, neg), np(p.rhs, neg))
        raise FormulaError(f"not a path formula: {p!r}")

    return ns(f, negated)


_SURFACE = frozenset({Not, Implies, Sometime, Release})


def is_nnf(f: Formula) -> bool:
    """True when ``f`` contains no surface-only connectives."""
    return not any(type(g) in _SURFACE for g in iter_subformulas(f))


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
    """Maximum Boolean nesting of the path formula under any quantifier of
    ``f``, or 0 when there is none.  Defined on normal form: a state formula
    in a path position adds no depth, since its own Boolean structure is
    counted again only under its own quantifiers."""
    return max(
        (
            _superficial_depth(g.path)
            for g in iter_subformulas(f)
            if isinstance(g, (Enf, Unav))
        ),
        default=0,
    )


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
# right-nested '->' the parser accepts.  Later stages walk that nesting
# recursively, so deeper input is refused up front.  A flat '&'/'|' chain is
# not nesting: the parser builds it iteratively and is not limited by it.
# The node walk, normal form, the printer, ``holds_locally`` and the oracle
# loop down a chain's left spine, so long state chains are decided.
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
        if tok.kind in ("tilde", "X", "G", "F"):
            self.take()
            self.descend(tok)
            sub = self.parse_unary()
            self.depth -= 1
            if isinstance(sub, PathFormula):
                raise self.error(
                    "'~' negates state formulas, not path formulas"
                    if tok.kind == "tilde"
                    else f"temporal operator '{tok.text}' applies to a state formula"
                    " -- nested temporal operators are not in the logic",
                    tok,
                )
            mk = {"tilde": lnot, "X": pnext, "G": always, "F": sometime}[tok.kind]
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
    t = type(f)
    if t is Lit:
        return f.name if f.positive else "~" + f.name
    if t is Not:
        return "~" + _print_state(f.sub, _PREC_UNARY, guard)
    if t is And or t is Or:
        return _print_join(f, parent, _print_state)
    if t is Implies:
        text = f"{_print_state(f.lhs, _PREC_IMP + 1)} -> {_print_state(f.rhs, _PREC_IMP)}"
        return _wrap(text, _PREC_IMP, parent)
    if t is Enf or t is Unav:
        # A quantifier binds one unary/Until-level path expression; anything
        # looser (path-level & or |) gets parentheses from its precedence.
        text = _quantifier_prefix(f) + _print_path(f.path, _PREC_UNARY)
        return f"({text})" if guard else text
    raise FormulaError(f"not a printable state formula: {f!r}")


# Binary Boolean connectives -> (infix text, precedence); temporal operators
# -> their text, a prefix of the unary ones and an infix of 'U' and 'R'.
_JOINS = {And: (" & ", _PREC_AND), PAnd: (" & ", _PREC_AND),
          Or: (" | ", _PREC_OR), POr: (" | ", _PREC_OR)}
_TEMPORAL = {Next: "X ", Always: "G ", Sometime: "F ", Until: " U ", Release: " R "}


def _print_join(f: Formula, parent: int, operand) -> str:
    """A chain of one Boolean connective, printed down its left spine: the
    left operand at the connective's own level needs no parentheses."""
    t = type(f)
    op, prec = _JOINS[t]
    parts = []
    while type(f) is t:
        parts.append(operand(f.rhs, prec + 1))
        f = f.lhs
    parts.append(operand(f, prec))
    return _wrap(op.join(reversed(parts)), prec, parent)


def _print_path(p: Formula, parent: int) -> str:
    if isinstance(p, StateFormula):
        return _print_state(p, parent)
    t = type(p)
    if t is PAnd or t is POr:
        return _print_join(p, parent, _print_path)
    op = _TEMPORAL.get(t)
    if op is None:
        raise FormulaError(f"not a printable path formula: {p!r}")
    if t is Until or t is Release:
        lhs = _print_state(p.lhs, _PREC_UNARY, guard=True)
        return lhs + op + _print_state(p.rhs, _PREC_UNARY)
    return op + _print_state(p.state, _PREC_UNARY)
