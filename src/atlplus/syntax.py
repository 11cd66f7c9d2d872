"""Formula core for the strategic temporal logic.

State formulas describe configurations of a multi-agent system; path
formulas constrain individual plays and occur only under the two strategic
quantifiers (``<<A>>`` -- coalition A can enforce; ``[[A]]`` -- coalition A
cannot avoid).  Path formulas carry at most one temporal operator per
branch: temporal operators apply to state formulas only, and Boolean
connectives combine path formulas.

Surface connectives (general negation, implication, ``F``, ``R``) are
eliminated by :func:`to_nnf`, which pushes negation to the literals and
normalizes full-universe avoidance quantifiers into empty-coalition
enforceability.  Everything downstream operates on the normal-form core.

Formulas are hash-consed: building the same shape twice returns the same
object, so equality is identity and formula sets are cheap.  Each formula
carries a canonical ``key`` string that serves as a stable total order.
The intern table is the only shared mutable state (guarded by the GIL);
all operations are otherwise pure functions of their inputs.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Iterable, Iterator


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


class Formula:
    """Base class of all formula nodes; interned, compared by identity."""

    __slots__ = ("key",)

    def __repr__(self) -> str:
        return self.key

    def __lt__(self, other: "Formula") -> bool:
        return self.key < other.key


class StateFormula(Formula):
    __slots__ = ()


class PathFormula(Formula):
    __slots__ = ()


class TrueConst(StateFormula):
    __slots__ = ()


class FalseConst(StateFormula):
    __slots__ = ()


class Lit(StateFormula):
    __slots__ = ("name", "positive")


class And(StateFormula):
    __slots__ = ("lhs", "rhs")


class Or(StateFormula):
    __slots__ = ("lhs", "rhs")


class Enf(StateFormula):
    """``<<A>>P`` -- coalition A has a strategy making every play satisfy P."""

    __slots__ = ("coalition", "path")


class Unav(StateFormula):
    """``[[A]]P`` -- coalition A cannot avoid P (an A-co-strategy exists)."""

    __slots__ = ("coalition", "path")


class Not(StateFormula):
    """Surface-only general negation; removed by :func:`to_nnf`."""

    __slots__ = ("sub",)


class Implies(StateFormula):
    """Surface-only implication; removed by :func:`to_nnf`."""

    __slots__ = ("lhs", "rhs")


class St(PathFormula):
    """A state formula used as a path formula (evaluated at the first state)."""

    __slots__ = ("state",)


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


_STATE_TABLE: dict[str, StateFormula] = {}
_PATH_TABLE: dict[str, PathFormula] = {}


def _mk(table: dict, cls: type, key: str, **fields) -> Formula:
    node = table.get(key)
    if node is None:
        node = cls.__new__(cls)
        node.key = key
        for name, value in fields.items():
            setattr(node, name, value)
        table[key] = node
    elif type(node) is not cls:  # pragma: no cover - defensive
        raise FormulaError(f"intern-key collision for {key!r}")
    return node


TRUE: TrueConst = _mk(_STATE_TABLE, TrueConst, "true")
FALSE: FalseConst = _mk(_STATE_TABLE, FalseConst, "false")


def lit(name: str, positive: bool = True) -> Lit:
    key = name if positive else "~" + name
    return _mk(_STATE_TABLE, Lit, key, name=name, positive=positive)


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
    return _mk(_STATE_TABLE, And, f"({a.key} & {b.key})", lhs=a, rhs=b)


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
    return _mk(_STATE_TABLE, Or, f"({a.key} | {b.key})", lhs=a, rhs=b)


def lnot(a: StateFormula) -> StateFormula:
    """Surface negation; literals and constants fold immediately."""
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if isinstance(a, Lit):
        return lit(a.name, not a.positive)
    if isinstance(a, Not):
        return a.sub
    return _mk(_STATE_TABLE, Not, f"~({a.key})", sub=a)


def implies(a: StateFormula, b: StateFormula) -> StateFormula:
    return _mk(_STATE_TABLE, Implies, f"({a.key} -> {b.key})", lhs=a, rhs=b)


def _coalition(agents: Iterable[int]) -> tuple[int, ...]:
    coal = tuple(sorted(set(agents)))
    for a in coal:
        if not isinstance(a, int) or a < 1:
            raise FormulaError(f"agents must be positive integers, got {a!r}")
    return coal


def coalition_text(coal: tuple[int, ...]) -> str:
    return ",".join(str(a) for a in coal)


def enf(agents: Iterable[int], path: PathFormula) -> Enf:
    coal = _coalition(agents)
    key = f"<<{coalition_text(coal)}>>{path.key}"
    return _mk(_STATE_TABLE, Enf, key, coalition=coal, path=path)


def unav(agents: Iterable[int], path: PathFormula) -> Unav:
    coal = _coalition(agents)
    key = f"[[{coalition_text(coal)}]]{path.key}"
    return _mk(_STATE_TABLE, Unav, key, coalition=coal, path=path)


def st(state: StateFormula) -> St:
    return _mk(_PATH_TABLE, St, state.key, state=state)


ST_TRUE: St = st(TRUE)
ST_FALSE: St = st(FALSE)


def pnext(state: StateFormula) -> Next:
    return _mk(_PATH_TABLE, Next, f"(X {state.key})", state=state)


def always(state: StateFormula) -> Always:
    return _mk(_PATH_TABLE, Always, f"(G {state.key})", state=state)


def until(lhs: StateFormula, rhs: StateFormula) -> Until:
    return _mk(_PATH_TABLE, Until, f"({lhs.key} U {rhs.key})", lhs=lhs, rhs=rhs)


def sometime(state: StateFormula) -> Sometime:
    return _mk(_PATH_TABLE, Sometime, f"(F {state.key})", state=state)


def release(lhs: StateFormula, rhs: StateFormula) -> Release:
    return _mk(_PATH_TABLE, Release, f"({lhs.key} R {rhs.key})", lhs=lhs, rhs=rhs)


def pand(a: PathFormula, b: PathFormula) -> PathFormula:
    if isinstance(a, St) and isinstance(b, St):
        return st(conj(a.state, b.state))
    if a is ST_TRUE:
        return b
    if b is ST_TRUE:
        return a
    if a is ST_FALSE or b is ST_FALSE:
        return ST_FALSE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(_PATH_TABLE, PAnd, f"({a.key} & {b.key})", lhs=a, rhs=b)


def por(a: PathFormula, b: PathFormula) -> PathFormula:
    if isinstance(a, St) and isinstance(b, St):
        return st(disj(a.state, b.state))
    if a is ST_FALSE:
        return b
    if b is ST_FALSE:
        return a
    if a is ST_TRUE or b is ST_TRUE:
        return ST_TRUE
    if a is b:
        return a
    if b.key < a.key:
        a, b = b, a
    return _mk(_PATH_TABLE, POr, f"({a.key} | {b.key})", lhs=a, rhs=b)


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
    if universe is None:
        universe = default_universe(f)
    uset = frozenset(universe)

    def ns(g: StateFormula, neg: bool) -> StateFormula:
        if g is TRUE:
            return FALSE if neg else TRUE
        if g is FALSE:
            return TRUE if neg else FALSE
        if isinstance(g, Lit):
            return lit(g.name, g.positive != neg)
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

    def np(p: PathFormula, neg: bool) -> PathFormula:
        if isinstance(p, St):
            return st(ns(p.state, neg))
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

    return ns(f, False)


def negate(f: StateFormula, universe: tuple[int, ...]) -> StateFormula:
    """Normal-form negation of a normal-form state formula."""
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Lit):
        return lit(f.name, not f.positive)
    if isinstance(f, And):
        return disj(negate(f.lhs, universe), negate(f.rhs, universe))
    if isinstance(f, Or):
        return conj(negate(f.lhs, universe), negate(f.rhs, universe))
    if isinstance(f, Enf):
        path = _pnegate(f.path, universe)
        if frozenset(f.coalition) == frozenset(universe):
            return enf((), path)
        return unav(f.coalition, path)
    if isinstance(f, Unav):
        return enf(f.coalition, _pnegate(f.path, universe))
    raise FormulaError(f"negate expects a normal-form state formula: {f!r}")


def _pnegate(p: PathFormula, universe: tuple[int, ...]) -> PathFormula:
    if isinstance(p, St):
        return st(negate(p.state, universe))
    if isinstance(p, Next):
        return pnext(negate(p.state, universe))
    if isinstance(p, Always):
        return until(TRUE, negate(p.state, universe))
    if isinstance(p, Until):
        nl = negate(p.lhs, universe)
        nr = negate(p.rhs, universe)
        return por(always(nr), until(nr, conj(nr, nl)))
    if isinstance(p, PAnd):
        return por(_pnegate(p.lhs, universe), _pnegate(p.rhs, universe))
    if isinstance(p, POr):
        return pand(_pnegate(p.lhs, universe), _pnegate(p.rhs, universe))
    raise FormulaError(f"not a normal-form path formula: {p!r}")


def is_nnf(f: StateFormula) -> bool:
    """True when ``f`` contains no surface-only connectives."""
    if isinstance(f, (TrueConst, FalseConst, Lit)):
        return True
    if isinstance(f, (And, Or)):
        return is_nnf(f.lhs) and is_nnf(f.rhs)
    if isinstance(f, (Enf, Unav)):
        return _path_is_nnf(f.path)
    return False


def _path_is_nnf(p: PathFormula) -> bool:
    if isinstance(p, (St, Next, Always)):
        return is_nnf(p.state)
    if isinstance(p, Until):
        return is_nnf(p.lhs) and is_nnf(p.rhs)
    if isinstance(p, (PAnd, POr)):
        return _path_is_nnf(p.lhs) and _path_is_nnf(p.rhs)
    return False


# ---------------------------------------------------------------------------
# Classification


class FormulaClass(Enum):
    PRIMITIVE = "primitive"
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"


def classify(f: StateFormula) -> FormulaClass:
    """Total, mutually exclusive classification of normal-form formulas."""
    if isinstance(f, (TrueConst, FalseConst, Lit)):
        return FormulaClass.PRIMITIVE
    if isinstance(f, And):
        return FormulaClass.ALPHA
    if isinstance(f, Or):
        return FormulaClass.BETA
    if isinstance(f, (Enf, Unav)):
        if isinstance(f.path, Next):
            return FormulaClass.PRIMITIVE
        return FormulaClass.GAMMA
    raise FormulaError(f"classify expects a normal-form state formula: {f!r}")


def is_successor_formula(f: StateFormula) -> bool:
    """Quantified single-step formulas ``<<A>>X p`` / ``[[A]]X p``."""
    return isinstance(f, (Enf, Unav)) and isinstance(f.path, Next)


def successor_payload(f: StateFormula) -> StateFormula:
    if not is_successor_formula(f):
        raise FormulaError(f"not a successor formula: {f!r}")
    return f.path.state


def is_gamma(f: StateFormula) -> bool:
    return isinstance(f, (Enf, Unav)) and not isinstance(f.path, Next)


# ---------------------------------------------------------------------------
# Size and Boolean depth


def formula_size(f: StateFormula, universe: tuple[int, ...] | None = None) -> int:
    """Symbol count; each coalition costs one bit per universe agent."""
    if universe is None:
        universe = default_universe(f)
    k = len(universe)

    def size_state(g: StateFormula) -> int:
        if isinstance(g, (TrueConst, FalseConst)):
            return 1
        if isinstance(g, Lit):
            return 1 if g.positive else 2
        if isinstance(g, Not):
            return 1 + size_state(g.sub)
        if isinstance(g, (And, Or, Implies)):
            return 1 + size_state(g.lhs) + size_state(g.rhs)
        if isinstance(g, (Enf, Unav)):
            return 1 + k + size_path(g.path)
        raise FormulaError(f"not a state formula: {g!r}")

    def size_path(p: PathFormula) -> int:
        if isinstance(p, St):
            return size_state(p.state)
        if isinstance(p, (Next, Always, Sometime)):
            return 1 + size_state(p.state)
        if isinstance(p, (Until, Release)):
            return 1 + size_state(p.lhs) + size_state(p.rhs)
        if isinstance(p, (PAnd, POr)):
            return 1 + size_path(p.lhs) + size_path(p.rhs)
        raise FormulaError(f"not a path formula: {p!r}")

    return size_state(f)


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

    def depth_path_states(p: PathFormula) -> int:
        if isinstance(p, (St, Next, Always)):
            return depth_state(p.state)
        if isinstance(p, Until):
            return max(depth_state(p.lhs), depth_state(p.rhs))
        if isinstance(p, (PAnd, POr)):
            return max(depth_path_states(p.lhs), depth_path_states(p.rhs))
        raise FormulaError(f"not a normal-form path formula: {p!r}")

    return depth_state(f)


def _superficial_depth(p: PathFormula) -> int:
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
)

_KEYWORDS = {"true", "false", "U", "R", "X", "G", "F"}

# Deepest nesting of '~', 'X'/'G'/'F', quantifier operands, parentheses and
# right-nested '->' the parser accepts.  Every later stage walks formulas
# recursively, so deeper input is refused up front instead of overflowing
# the interpreter stack.
MAX_NESTING_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        tok = m.group()
        if kind == "ident" and tok in _KEYWORDS:
            kind = tok
        if kind != "ws":
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.take()

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def descend(self, tok: _Token) -> None:
        """Open the nesting level of the operand that ``tok`` starts."""
        if self.depth == MAX_NESTING_DEPTH:
            raise ParseError(
                f"formula nested deeper than {MAX_NESTING_DEPTH} levels", tok.line, tok.col
            )
        self.depth += 1

    # precedence: ~  >  U,R  >  &  >  |  >  ->

    def parse_implication(self) -> PathFormula:
        lhs = self.parse_or()
        if self.peek().kind == "arrow":
            tok = self.take()
            self.descend(tok)
            rhs = self.parse_implication()
            self.depth -= 1
            if not isinstance(lhs, St) or not isinstance(rhs, St):
                raise ParseError(
                    "'->' connects state formulas, not path formulas", tok.line, tok.col
                )
            return st(implies(lhs.state, rhs.state))
        return lhs

    def parse_or(self) -> PathFormula:
        node = self.parse_and()
        while self.peek().kind == "pipe":
            self.take()
            node = por(node, self.parse_and())
        return node

    def parse_and(self) -> PathFormula:
        node = self.parse_until()
        while self.peek().kind == "amp":
            self.take()
            node = pand(node, self.parse_until())
        return node

    def parse_until(self) -> PathFormula:
        node = self.parse_unary()
        kind = self.peek().kind
        if kind in ("U", "R"):
            tok = self.take()
            rhs = self.parse_unary()
            if not isinstance(node, St) or not isinstance(rhs, St):
                raise ParseError(
                    f"temporal operator '{tok.text}' needs state-formula operands"
                    " -- nested temporal operators are not in the logic",
                    tok.line,
                    tok.col,
                )
            mk = until if kind == "U" else release
            return mk(node.state, rhs.state)
        return node

    def parse_unary(self) -> PathFormula:
        tok = self.peek()
        if tok.kind == "tilde":
            self.take()
            self.descend(tok)
            sub = self.parse_unary()
            self.depth -= 1
            if not isinstance(sub, St):
                raise ParseError(
                    "'~' negates state formulas, not path formulas", tok.line, tok.col
                )
            return st(lnot(sub.state))
        if tok.kind in ("X", "G", "F"):
            self.take()
            self.descend(tok)
            sub = self.parse_unary()
            self.depth -= 1
            if not isinstance(sub, St):
                raise ParseError(
                    f"temporal operator '{tok.text}' applies to a state formula"
                    " -- nested temporal operators are not in the logic",
                    tok.line,
                    tok.col,
                )
            mk = {"X": pnext, "G": always, "F": sometime}[tok.kind]
            return mk(sub.state)
        if tok.kind in ("enfopen", "unavopen"):
            self.take()
            agents = self._parse_agents()
            close = "enfclose" if tok.kind == "enfopen" else "unavclose"
            self.expect(close, "'>>'" if close == "enfclose" else "']]'")
            self.descend(tok)
            path = self.parse_until()
            self.depth -= 1
            mk = enf if tok.kind == "enfopen" else unav
            return st(mk(agents, path))
        if tok.kind == "lparen":
            self.take()
            self.descend(tok)
            node = self.parse_implication()
            self.depth -= 1
            self.expect("rparen", "')'")
            return node
        if tok.kind == "true":
            self.take()
            return ST_TRUE
        if tok.kind == "false":
            self.take()
            return ST_FALSE
        if tok.kind == "ident":
            self.take()
            return st(lit(tok.text))
        self.fail("expected a formula" if tok.kind == "eof" else f"unexpected {tok.text!r}")
        raise AssertionError  # unreachable

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
    tokens = _tokenize(text)
    if tokens[0].kind == "eof":
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens)
    node = parser.parse_implication()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
    if not isinstance(node, St):
        raise ParseError(
            "input must be a state formula -- a bare path formula like this one"
            " is only meaningful under a strategic quantifier",
            tokens[0].line,
            tokens[0].col,
        )
    return node.state


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


def _print_quant_operand(p: PathFormula) -> str:
    # A quantifier binds one unary/Until-level path expression; anything
    # looser (path-level & or |) needs explicit parentheses.
    if isinstance(p, (PAnd, POr)):
        return f"({_print_path(p, _PREC_OR)})"
    return _print_path(p, _PREC_UNARY)


def _print_path(p: PathFormula, parent: int) -> str:
    if isinstance(p, St):
        return _print_state(p.state, parent)
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
    """Yield ``f`` and every state formula nested anywhere inside it."""
    yield f
    if isinstance(f, (And, Or, Implies)):
        yield from iter_state_subformulas(f.lhs)
        yield from iter_state_subformulas(f.rhs)
    elif isinstance(f, Not):
        yield from iter_state_subformulas(f.sub)
    elif isinstance(f, (Enf, Unav)):
        yield from _iter_path_states(f.path)


def _iter_path_states(p: PathFormula) -> Iterator[StateFormula]:
    if isinstance(p, (St, Next, Always, Sometime)):
        yield from iter_state_subformulas(p.state)
    elif isinstance(p, (Until, Release)):
        yield from iter_state_subformulas(p.lhs)
        yield from iter_state_subformulas(p.rhs)
    elif isinstance(p, (PAnd, POr)):
        yield from _iter_path_states(p.lhs)
        yield from _iter_path_states(p.rhs)
