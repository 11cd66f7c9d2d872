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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cgm import CGM
from .syntax import (
    FALSE,
    TRUE,
    Always,
    And,
    Enf,
    Implies,
    Lit,
    Next,
    Not,
    Or,
    PAnd,
    PathFormula,
    POr,
    Release,
    Sometime,
    St,
    StateFormula,
    Unav,
    Until,
    default_universe,
    to_text,
)


class CheckError(Exception):
    """The oracle could not evaluate the query."""


_PENDING, _TRUE, _FALSE = 0, 1, 2

_ATOM_TYPES = (St, Next, Always, Until, Sometime, Release)


def _collect_atoms(path: PathFormula) -> tuple[PathFormula, ...]:
    atoms: dict[PathFormula, None] = {}

    def walk(p: PathFormula) -> None:
        if isinstance(p, (PAnd, POr)):
            walk(p.lhs)
            walk(p.rhs)
        elif isinstance(p, _ATOM_TYPES):
            atoms[p] = None
        else:
            raise CheckError(f"cannot evaluate path formula {p!r}")

    walk(path)
    return tuple(atoms)


class ModelChecker:
    """Evaluates state formulas over one model, memoizing winning sets.

    Agents mentioned in formulas are mapped to the model's agent positions
    in sorted order: the smallest agent of the universe plays position 0.
    """

    def __init__(self, model: CGM, universe: tuple[int, ...]):
        model.validate()
        if len(universe) != model.agents:
            raise CheckError(
                f"the universe has {len(universe)} agents but the model has "
                f"{model.agents} positions"
            )
        self.model = model
        self.universe = tuple(sorted(universe))
        self.position = {agent: i for i, agent in enumerate(self.universe)}
        self.n = model.n_states
        self.all_states = frozenset(range(self.n))
        self._profiles = [model.profiles(s) for s in range(self.n)]
        self._succ = [
            [model.transitions[(s, prof)] for prof in self._profiles[s]]
            for s in range(self.n)
        ]
        self._state_memo: dict[StateFormula, frozenset[int]] = {}
        self._group_memo: dict[
            tuple[int, tuple[int, ...]], list[list[int]]
        ] = {}

    # ------------------------------------------------------------------
    # State formulas

    def states_where(self, f: StateFormula) -> frozenset[int]:
        cached = self._state_memo.get(f)
        if cached is not None:
            return cached
        if f is TRUE:
            out = self.all_states
        elif f is FALSE:
            out = frozenset()
        elif isinstance(f, Lit):
            holding = frozenset(
                s for s in range(self.n) if f.name in self.model.props[s]
            )
            out = holding if f.positive else self.all_states - holding
        elif isinstance(f, Not):
            out = self.all_states - self.states_where(f.sub)
        elif isinstance(f, And):
            out = self.states_where(f.lhs) & self.states_where(f.rhs)
        elif isinstance(f, Or):
            out = self.states_where(f.lhs) | self.states_where(f.rhs)
        elif isinstance(f, Implies):
            out = (self.all_states - self.states_where(f.lhs)) | self.states_where(
                f.rhs
            )
        elif isinstance(f, (Enf, Unav)):
            out = self.solve_strategic(
                isinstance(f, Enf), f.coalition, f.path
            )
        else:
            raise CheckError(f"cannot evaluate {f!r}")
        self._state_memo[f] = out
        return out

    def holds(self, f: StateFormula, state: int | None = None) -> bool:
        idx = self.model.initial if state is None else state
        return idx in self.states_where(f)

    # ------------------------------------------------------------------
    # Strategic quantifiers via the status-vector product

    def solve_strategic(
        self, enforce: bool, coalition: tuple[int, ...], path: PathFormula
    ) -> frozenset[int]:
        for agent in coalition:
            if agent not in self.position:
                raise CheckError(
                    f"agent {agent} is outside the universe {list(self.universe)}"
                )
        cpos = tuple(sorted(self.position[a] for a in coalition))
        atoms = _collect_atoms(path)
        index = {atom: i for i, atom in enumerate(atoms)}

        payload_sets: list[tuple[frozenset[int], ...]] = []
        for atom in atoms:
            if isinstance(atom, (St, Next, Always, Sometime)):
                payload_sets.append((self.states_where(atom.state),))
            else:
                payload_sets.append(
                    (self.states_where(atom.lhs), self.states_where(atom.rhs))
                )

        limit_true = tuple(
            isinstance(atom, (Always, Release)) for atom in atoms
        )

        def resolve(i: int, s: int) -> int:
            atom = atoms[i]
            sets = payload_sets[i]
            if isinstance(atom, (St, Next)):
                return _TRUE if s in sets[0] else _FALSE
            if isinstance(atom, Always):
                return _PENDING if s in sets[0] else _FALSE
            if isinstance(atom, Sometime):
                return _TRUE if s in sets[0] else _PENDING
            if isinstance(atom, Until):
                if s in sets[1]:
                    return _TRUE
                return _PENDING if s in sets[0] else _FALSE
            # Release(l, r): r must hold now; l closes it out
            if s not in sets[1]:
                return _FALSE
            return _TRUE if s in sets[0] else _PENDING

        def init_vector(s: int) -> tuple[int, ...]:
            return tuple(
                _PENDING if isinstance(atoms[i], Next) else resolve(i, s)
                for i in range(len(atoms))
            )

        def upd(v: tuple[int, ...], t: int) -> tuple[int, ...]:
            return tuple(
                resolve(i, t) if v[i] == _PENDING else v[i]
                for i in range(len(atoms))
            )

        def path_value(v: tuple[int, ...]) -> bool:
            def ev(p: PathFormula) -> bool:
                if isinstance(p, PAnd):
                    return ev(p.lhs) and ev(p.rhs)
                if isinstance(p, POr):
                    return ev(p.lhs) or ev(p.rhs)
                status = v[index[p]]
                if status == _PENDING:
                    return limit_true[index[p]]
                return status == _TRUE

            return ev(path)

        solve_memo: dict[tuple[int, ...], frozenset[int]] = {}

        def solve(v: tuple[int, ...]) -> frozenset[int]:
            cached = solve_memo.get(v)
            if cached is not None:
                return cached
            if _PENDING not in v:
                result = self.all_states if path_value(v) else frozenset()
                solve_memo[v] = result
                return result
            stays: list[bool] = []
            exit_win: list[bool] = []
            for t in range(self.n):
                v_next = upd(v, t)
                if v_next == v:
                    stays.append(True)
                    exit_win.append(False)
                else:
                    stays.append(False)
                    exit_win.append(t in solve(v_next))
            stay_value = path_value(v)

            def cpre(z: frozenset[int]) -> frozenset[int]:
                out = set()
                for s in range(self.n):
                    groups = self._coalition_groups(s, cpos)
                    succ = self._succ[s]

                    def good(pi: int) -> bool:
                        t = succ[pi]
                        return t in z if stays[t] else exit_win[t]

                    if enforce:
                        win = any(
                            all(good(pi) for pi in group) for group in groups
                        )
                    else:
                        win = all(
                            any(good(pi) for pi in group) for group in groups
                        )
                    if win:
                        out.add(s)
                return frozenset(out)

            z = self.all_states if stay_value else frozenset()
            while True:
                z_next = cpre(z)
                if z_next == z:
                    break
                z = z_next
            solve_memo[v] = z
            return z

        return frozenset(s for s in range(self.n) if s in solve(init_vector(s)))

    def _coalition_groups(
        self, state: int, cpos: tuple[int, ...]
    ) -> list[list[int]]:
        """Profile indices grouped by the coalition's part of the profile."""
        key = (state, cpos)
        cached = self._group_memo.get(key)
        if cached is not None:
            return cached
        groups: dict[tuple[int, ...], list[int]] = {}
        for pi, profile in enumerate(self._profiles[state]):
            part = tuple(profile[i] for i in cpos)
            groups.setdefault(part, []).append(pi)
        result = list(groups.values())
        self._group_memo[key] = result
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
