"""Independent bounded model checking on concurrent game models.

Strategic quantifiers are solved on a product of the model with a status
vector that tracks, per temporal atom of the path formula, whether the
atom is already true, already false, or still pending.  Statuses only
ever move from pending to resolved, so the product decomposes into
strata; each stratum is solved by one reachability or safety fixpoint
(depending on whether the play staying in the stratum forever satisfies
the path formula) with a one-step controllable-predecessor operator in
which the coalition commits its actions first and the rest respond.

The status vector is exactly the memory a strategy may need, so the
construction decides the perfect-recall semantics; no part of it shares
code with the tableau machinery.

A checker holds the model's tables, built once: per state its label,
action counts and successor row, with profile lists and coalition groups
shared by all states of one action-count tuple.  Each top-level query has
its own memo of winning sets, dropped when it returns, so one checker can
answer many queries, as the bounded search does, without growing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .cgm import CGM
from .syntax import (
    FALSE,
    TRUE,
    Always,
    And,
    Enf,
    Formula,
    Implies,
    Lit,
    Next,
    Not,
    Or,
    PAnd,
    POr,
    Release,
    Sometime,
    StateFormula,
    Unav,
    Until,
    default_universe,
    to_text,
)


class CheckError(Exception):
    """The oracle could not evaluate the query."""


_PENDING, _TRUE, _FALSE = 0, 1, 2

_ATOM_TYPES = (StateFormula, Next, Always, Until, Sometime, Release)


def _collect_atoms(path: Formula) -> tuple[Formula, ...]:
    atoms: dict[Formula, None] = {}

    def walk(p: Formula) -> None:
        if isinstance(p, (PAnd, POr)):
            for q in p.operands:
                walk(q)
        elif isinstance(p, _ATOM_TYPES):
            atoms[p] = None
        else:
            raise CheckError(f"cannot evaluate path formula {p!r}")

    walk(path)
    return tuple(atoms)


class ModelChecker:
    """Evaluates state formulas over one model, one memo per query.

    Agents mentioned in formulas are mapped to the model's agent positions
    in sorted order: the smallest agent of the universe plays position 0.
    A successor row lists one target per joint profile, in lexicographic
    profile order.
    """

    def __init__(self, model: CGM, universe: tuple[int, ...]):
        self._load((model,), universe)

    @classmethod
    def disjoint_union(
        cls, models: Sequence[CGM], universe: tuple[int, ...]
    ) -> ModelChecker:
        """A checker on the disjoint union of ``models``, laid out in order.

        State ``s`` of a model is state ``offset + s`` of the union, where
        ``offset`` counts the states of the models before it.  Each model is
        validated on its own, since a target out of its own range could
        land in another model's states.
        """
        checker = cls.__new__(cls)
        checker._load(models, universe)
        return checker

    def _load(self, models: Sequence[CGM], universe: tuple[int, ...]) -> None:
        for model in models:
            model.validate()
            if len(universe) != model.agents:
                raise CheckError(
                    f"the universe has {len(universe)} agents but the model has "
                    f"{model.agents} positions"
                )
        self.universe = tuple(sorted(universe))
        self.position = {agent: i for i, agent in enumerate(self.universe)}
        states = tuple(range(sum(model.n_states for model in models)))
        self.n = len(states)
        self.initial = models[0].initial
        self.all_states = frozenset(states)
        self._states = states
        self._labels: list[frozenset[str]] = []
        self._counts: list[tuple[int, ...]] = []
        self._succ: list[tuple[int, ...]] = []
        self._profiles: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for model in models:
            offset = len(self._labels)
            self._labels += model.props
            self._counts += model.action_counts
            for s, counts in enumerate(model.action_counts):
                if counts not in self._profiles:
                    self._profiles[counts] = model.profiles(s)
                self._succ.append(tuple([
                    states[offset + model.transitions[s, p]]
                    for p in self._profiles[counts]
                ]))
        self._groups: dict[tuple, tuple[itemgetter, ...] | None] = {}

    # ------------------------------------------------------------------
    # State formulas

    def states_where(self, f: StateFormula) -> frozenset[int]:
        """The states where ``f`` holds."""
        return self._eval(f, {})

    def holds(self, f: StateFormula, state: int | None = None) -> bool:
        idx = self.initial if state is None else state
        return idx in self.states_where(f)

    def _eval(
        self, f: StateFormula, memo: dict[StateFormula, frozenset[int]]
    ) -> frozenset[int]:
        cached = memo.get(f)
        if cached is not None:
            return cached
        if f is TRUE:
            out = self.all_states
        elif f is FALSE:
            out = frozenset()
        elif isinstance(f, Lit):
            holding = frozenset(
                s for s, label in zip(self._states, self._labels) if f.name in label
            )
            out = holding if f.positive else self.all_states - holding
        elif isinstance(f, Not):
            out = self.all_states - self._eval(f.sub, memo)
        elif isinstance(f, (And, Or)):
            parts = [self._eval(g, memo) for g in f.operands]
            join = frozenset.intersection if isinstance(f, And) else frozenset.union
            out = join(*parts)
        elif isinstance(f, Implies):
            out = (self.all_states - self._eval(f.lhs, memo)) | self._eval(
                f.rhs, memo
            )
        elif isinstance(f, (Enf, Unav)):
            out = self._strategic(isinstance(f, Enf), f.coalition, f.path, memo)
        else:
            raise CheckError(f"cannot evaluate {f!r}")
        memo[f] = out
        return out

    # ------------------------------------------------------------------
    # Strategic quantifiers via the status-vector product

    def _strategic(
        self,
        enforce: bool,
        coalition: tuple[int, ...],
        path: Formula,
        memo: dict[StateFormula, frozenset[int]],
    ) -> frozenset[int]:
        for agent in coalition:
            if agent not in self.position:
                raise CheckError(
                    f"agent {agent} is outside the universe {list(self.universe)}"
                )
        cpos = tuple(sorted(self.position[a] for a in coalition))
        atoms = _collect_atoms(path)
        index = {atom: i for i, atom in enumerate(atoms)}
        limit_true = tuple(isinstance(atom, (Always, Release)) for atom in atoms)

        # A state's column: the status each pending atom takes when the play
        # enters it.  States with equal columns move every vector alike.
        members: dict[tuple[int, ...], list[int]] = {}
        columns = zip(*(self._statuses(a, memo) for a in atoms))
        for s, column in zip(self._states, columns):
            members.setdefault(column, []).append(s)
        rows, counts_of = self._succ, self._counts
        choices_of = {counts: self._choices(counts, cpos) for counts in self._profiles}

        def path_value(v: tuple[int, ...]) -> bool:
            def ev(p: Formula) -> bool:
                if isinstance(p, PAnd):
                    return all(map(ev, p.operands))
                if isinstance(p, POr):
                    return any(map(ev, p.operands))
                status = v[index[p]]
                if status == _PENDING:
                    return limit_true[index[p]]
                return status == _TRUE

            return ev(path)

        def wins(s: int, good: set[int]) -> bool:
            row = rows[s]
            choices = choices_of[counts_of[s]]
            if choices is None:
                return not good.isdisjoint(row) if enforce else good.issuperset(row)
            if enforce:
                return any(good.issuperset(targets(row)) for targets in choices)
            return all(not good.isdisjoint(targets(row)) for targets in choices)

        solve_memo: dict[tuple[int, ...], frozenset[int]] = {}

        def solve(v: tuple[int, ...]) -> frozenset[int]:
            cached = solve_memo.get(v)
            if cached is not None:
                return cached
            if _PENDING not in v:
                result = self.all_states if path_value(v) else frozenset()
                solve_memo[v] = result
                return result
            # Targets that keep the play in v's stratum, and targets won by
            # leaving it.
            stay: set[int] = set()
            exit_won: set[int] = set()
            for column, states in members.items():
                v_next = tuple(
                    c if x == _PENDING else x for x, c in zip(v, column)
                )
                if v_next == v:
                    stay.update(states)
                else:
                    exit_won.update(solve(v_next).intersection(states))
            # cpre is monotone, so the iterates only grow from the empty set
            # (reachability) or only shrink from every state (safety): each
            # round revisits only the states not yet decided.
            if path_value(v):
                z = set(self._states)
                while True:
                    good = exit_won | (stay & z)
                    lost = [s for s in z if not wins(s, good)]
                    if not lost:
                        break
                    z.difference_update(lost)
            else:
                z = set()
                while True:
                    good = exit_won | (stay & z)
                    won = [s for s in self._states if s not in z and wins(s, good)]
                    if not won:
                        break
                    z.update(won)
            result = frozenset(z)
            solve_memo[v] = result
            return result

        out: set[int] = set()
        for column, states in members.items():
            start = tuple(
                _PENDING if isinstance(atom, Next) else c
                for atom, c in zip(atoms, column)
            )
            out.update(solve(start).intersection(states))
        return frozenset(out)

    def _statuses(
        self, atom: Formula, memo: dict[StateFormula, frozenset[int]]
    ) -> list[int]:
        """The status ``atom`` takes, while pending, on entering each state."""
        states = range(self.n)
        if isinstance(atom, (StateFormula, Next)):
            now = self._eval(atom.state if type(atom) is Next else atom, memo)
            return [_TRUE if s in now else _FALSE for s in states]
        if isinstance(atom, Always):
            now = self._eval(atom.state, memo)
            return [_PENDING if s in now else _FALSE for s in states]
        if isinstance(atom, Sometime):
            now = self._eval(atom.state, memo)
            return [_TRUE if s in now else _PENDING for s in states]
        lhs = self._eval(atom.lhs, memo)
        rhs = self._eval(atom.rhs, memo)
        if isinstance(atom, Until):
            return [
                _TRUE if s in rhs else _PENDING if s in lhs else _FALSE
                for s in states
            ]
        # Release(l, r): r must hold now; l closes it out
        return [
            _FALSE if s not in rhs else _TRUE if s in lhs else _PENDING
            for s in states
        ]

    def _choices(
        self, counts: tuple[int, ...], cpos: tuple[int, ...]
    ) -> tuple[itemgetter, ...] | None:
        """Per coalition choice, a getter of its targets from a successor row.

        A choice fixes the coalition's part of the profile and leaves the
        rest to the others, so every choice has the same number of profiles.
        None when that number is one: each target is a choice of its own.
        """
        key = (counts, cpos)
        if key in self._groups:
            return self._groups[key]
        groups: dict[tuple[int, ...], list[int]] = {}
        for pi, profile in enumerate(self._profiles[counts]):
            groups.setdefault(tuple(profile[i] for i in cpos), []).append(pi)
        result = None
        if len(groups) < len(self._profiles[counts]):
            result = tuple(itemgetter(*group) for group in groups.values())
        self._groups[key] = result
        return result


# ---------------------------------------------------------------------------
# Reports


@dataclass
class CheckReport:
    holds: bool
    formula_text: str
    state_id: object
    agents: int
    universe: tuple[int, ...]

    def summary(self) -> str:
        verdict = "holds" if self.holds else "fails"
        return (
            f"{self.formula_text} {verdict} at state {self.state_id} "
            f"(agents {list(self.universe)})"
        )


def check_model(
    model: CGM,
    formula: StateFormula,
    universe: tuple[int, ...] | None = None,
    state: int | None = None,
) -> CheckReport:
    """Certify a formula at a state of a model (the initial one by default).

    Without an explicit universe, agent names in the formula index the
    model's agent positions one-based: agent i plays position i.
    """
    if universe is None:
        universe = tuple(range(1, model.agents + 1))
        mentioned = default_universe(formula)
        if not set(mentioned) <= set(universe):
            raise CheckError(
                f"formula mentions agents {sorted(set(mentioned) - set(universe))} "
                f"but the model has only {model.agents}"
            )
    checker = ModelChecker(model, universe)
    idx = model.initial if state is None else state
    return CheckReport(
        holds=checker.holds(formula, idx),
        formula_text=to_text(formula),
        state_id=model.ids[idx],
        agents=model.agents,
        universe=tuple(sorted(universe)),
    )
