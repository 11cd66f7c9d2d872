"""Tableau construction, realization analysis, and elimination.

The pretableau alternates two node kinds.  A *prestate* is a bare set of
state formulas awaiting saturation; applying the saturation rule turns it
into its full expansions, the *states*.  Applying the successor rule to a
state reads off its single-step quantified formulas; each joint choice of
the agents, a move vector, leads to the prestate of the payloads it commits
to.  The vectors are computed once per coalition signature (the ordered
coalitions of the steps) and shared, read-only, by the states that have it.

Each state stores its move vectors grouped into cells, one per set of
successor formulas the vectors commit to; a move leads to the states of
its cell's target prestate.  These cells are the only record of a state's
moves: elimination, synthesis and the DOT export all read them.  Elimination repeatedly removes states that
either lost all successors for some cell or contain a quantified path
formula whose eventualities can no longer be realized.  The input is
satisfiable exactly when a state containing it survives.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .decomposition import (
    DEFAULT_CLOSURE_LIMIT,
    GammaComponent,
    closure,
    full_expansions,
    realized_now,
)
from .syntax import (
    TRUE,
    Enf,
    Next,
    StateFormula,
    Unav,
    enf,
    is_gamma,
    is_successor_formula,
    pnext,
    to_text,
)


@dataclass
class Prestate:
    index: int
    label: frozenset[StateFormula]
    states: list["TState"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"G{self.index}"

    def alive_states(self) -> list["TState"]:
        return [s for s in self.states if s.alive]


@dataclass
class Cell:
    """The move vectors of one state that commit to exactly ``steps``.

    ``steps`` is the set of the state's successor formulas the vectors
    commit to, and ``target`` the prestate of their payloads.  Distinct
    step sets may share a target.  A synthesis ``MoveCell`` is coarser:
    it merges cells whose targets have the same surviving states, and
    carries the union of their ``steps``.
    ``sigmas`` is shared by the states of one coalition signature: read-only.
    """

    target: Prestate
    steps: frozenset[StateFormula]
    sigmas: tuple[tuple[int, ...], ...]


@dataclass(eq=False)
class TState:
    """A saturated node; ``successors`` holds its move vectors as cells.

    The cells appear in order of their first move vector, and each lists
    its vectors in lexicographic order.  A tableau keeps one state per
    label, so states compare by identity.
    """

    index: int
    label: frozenset[StateFormula]
    linked: dict[StateFormula, GammaComponent]
    enf_steps: list[StateFormula] = field(default_factory=list)
    unav_steps: list[StateFormula] = field(default_factory=list)
    successors: list[Cell] = field(default_factory=list)
    alive: bool = True

    @property
    def name(self) -> str:
        return f"D{self.index}"

    def __post_init__(self) -> None:
        self._gammas = tuple(sorted(filter(is_gamma, self.label), key=lambda g: g.key))

    def gamma_formulas(self) -> tuple[StateFormula, ...]:
        return self._gammas

    def cells(self) -> list[tuple[Prestate, list[tuple[int, ...]]]]:
        """Move vectors grouped by target prestate, in first-vector order.

        The solver never reads this grouping; it reads ``successors``.  It
        stays because the benchmark's ``tableau.edges`` counter counts it.
        """
        grouped: dict[int, tuple[Prestate, list[tuple[int, ...]]]] = {}
        for cell in self.successors:
            pre = cell.target
            grouped.setdefault(pre.index, (pre, []))[1].extend(cell.sigmas)
        return list(grouped.values())


@dataclass
class Tableau:
    input: StateFormula
    universe: tuple[int, ...]
    prestates: list[Prestate] = field(default_factory=list)
    states: list[TState] = field(default_factory=list)
    phase: str = "pretableau"
    realization: dict[tuple[int, StateFormula], int] = field(default_factory=dict)
    elimination_trace: list[dict[str, list[int]]] = field(default_factory=list)

    def alive_states(self) -> list[TState]:
        return [s for s in self.states if s.alive]

    def satisfying_states(self) -> list[TState]:
        return [s for s in self.alive_states() if self.input in s.label]


def _unconditional_step(universe: tuple[int, ...]) -> StateFormula:
    return enf(universe, pnext(TRUE))


def build_pretableau(f: StateFormula, universe: tuple[int, ...]) -> Tableau:
    """Alternate saturation and successor rules from ``{f}`` to a fixpoint."""
    tab = Tableau(input=f, universe=universe)
    prestate_by_label: dict[frozenset[StateFormula], Prestate] = {}
    state_by_label: dict[frozenset[StateFormula], TState] = {}
    pending: deque[Prestate] = deque()
    layouts: dict[tuple, list] = {}

    def get_prestate(label: frozenset[StateFormula]) -> Prestate:
        pre = prestate_by_label.get(label)
        if pre is None:
            pre = Prestate(index=len(tab.prestates), label=label)
            tab.prestates.append(pre)
            prestate_by_label[label] = pre
            pending.append(pre)
        return pre

    get_prestate(frozenset({f}))
    while pending:
        pre = pending.popleft()
        for expansion in full_expansions(pre.label):
            label = expansion.label
            if not any(is_successor_formula(g) for g in label):
                label = label | {_unconditional_step(universe)}
            state = state_by_label.get(label)
            if state is None:
                state = TState(
                    index=len(tab.states) + 1,
                    label=label,
                    linked=dict(expansion.linked),
                )
                tab.states.append(state)
                state_by_label[label] = state
                _apply_next(tab, state, get_prestate, layouts)
            if state not in pre.states:
                pre.states.append(state)
    return tab


def _next_layout(k: int, enf_positions: tuple, unav_outside: tuple) -> list:
    """The move vectors of one coalition signature, grouped by commit bitmask.

    Bit ``p`` is the ``p``-th step, enforceable steps first.  A vector
    commits to an enforceable step when its whole coalition picks that
    step's index, and to the unavoidable step selected by the co-sum of the
    responders' choices when every agent outside its coalition responds.
    Groups come in first-vector order, vectors in lexicographic order.
    """
    m, l = len(enf_positions), len(unav_outside)
    all_positions = frozenset(range(k))
    cells: dict[int, list[tuple[int, ...]]] = {}
    for sigma in itertools.product(range(m + l), repeat=k):
        key = 0
        for p, positions in enumerate(enf_positions):
            if all(sigma[i] == p for i in positions):
                key |= 1 << p
        if l:
            responders = {i for i in all_positions if sigma[i] >= m}
            co = sum(sigma[i] - m for i in responders) % l
            if unav_outside[co] <= responders:
                key |= 1 << (m + co)
        cells.setdefault(key, []).append(sigma)
    return [(key, tuple(sigmas)) for key, sigmas in cells.items()]


def _apply_next(tab: Tableau, state: TState, get_prestate, layouts: dict) -> None:
    """Group the joint agent choices into cells by the steps they commit to.

    States with equal coalition signatures share one ``_next_layout``.
    """
    pos = {a: i for i, a in enumerate(tab.universe)}
    state.enf_steps = sorted(
        (g for g in state.label if isinstance(g, Enf) and isinstance(g.path, Next)),
        key=lambda g: (g.path.state.key, g.key),
    )
    state.unav_steps = sorted(
        (g for g in state.label if isinstance(g, Unav) and isinstance(g.path, Next)),
        key=lambda g: (g.path.state.key, g.key),
    )
    steps = state.enf_steps + state.unav_steps
    all_positions = frozenset(pos.values())
    enf = tuple(frozenset(pos[a] for a in g.coalition) for g in state.enf_steps)
    unav = tuple(all_positions - {pos[a] for a in g.coalition} for g in state.unav_steps)
    signature = (len(pos), enf, unav)
    layout = layouts.get(signature)
    if layout is None:
        layout = layouts[signature] = _next_layout(*signature)
    for key, sigmas in layout:
        committed = [g for b, g in enumerate(steps) if key >> b & 1]
        payloads = frozenset([g.path.state for g in committed]) or frozenset({TRUE})
        target = get_prestate(payloads)
        state.successors.append(Cell(target, frozenset(committed), sigmas))


def realization_fixpoint(tab: Tableau) -> dict[tuple[int, StateFormula], int]:
    """Breadth-first ranks for (state, quantified-path-formula) pairs.

    Rank 0 pairs are discharged by the label alone.  A pair earns a finite
    rank when every cell committed to its linked successor formula reaches
    some surviving state where the re-quantified remainder has a strictly
    smaller rank.  Pairs that never earn a rank are unrealizable.
    """
    alive = tab.alive_states()
    pairs: list[tuple[TState, StateFormula]] = [
        (s, g) for s in alive for g in s.gamma_formulas()
    ]
    rank: dict[tuple[int, StateFormula], int] = {}
    for s, g in pairs:
        if realized_now(g.path, s.label):
            rank[(s.index, g)] = 0
    level = 0
    changed = True
    while changed:
        level += 1
        changed = False
        for s, g in pairs:
            if (s.index, g) in rank:
                continue
            component = s.linked[g]
            if component.step is None:
                continue  # dischargeable only locally, and the label said no
            ev1 = component.next_ev
            if all(
                any(
                    rank.get((t.index, ev1), level) < level
                    for t in cell.target.states if t.alive
                )
                for cell in s.successors
                if component.step in cell.steps
            ):
                rank[(s.index, g)] = level
                changed = True
    return rank


def eliminate_states(tab: Tableau) -> list[dict[str, list[int]]]:
    """Alternate the two elimination rules in batched rounds to a fixpoint.

    Each round recomputes realization ranks on the current survivors, then
    removes every state with an unrealizable pair, then every state left
    with a cell whose target prestate has no live state.  The trace records
    the removals per round.
    """
    trace: list[dict[str, list[int]]] = []
    while True:
        rank = realization_fixpoint(tab)
        tab.realization = rank
        removed_unrealized = [
            s
            for s in tab.alive_states()
            if any((s.index, g) not in rank for g in s.gamma_formulas())
        ]
        for s in removed_unrealized:
            s.alive = False
        removed_stuck = [
            s
            for s in tab.alive_states()
            if any(not any(t.alive for t in c.target.states) for c in s.successors)
        ]
        for s in removed_stuck:
            s.alive = False
        if not removed_unrealized and not removed_stuck:
            break
        trace.append(
            {
                "unrealized": [s.index for s in removed_unrealized],
                "stuck": [s.index for s in removed_stuck],
            }
        )
    tab.phase = "final"
    tab.elimination_trace = trace
    return trace


@dataclass
class Decision:
    formula: StateFormula
    universe: tuple[int, ...]
    tableau: Tableau
    sat: bool
    pretableau_state_count: int
    pretableau_prestate_count: int
    final_state_count: int


def decide(
    f: StateFormula,
    universe: tuple[int, ...],
    max_closure: int = DEFAULT_CLOSURE_LIMIT,
) -> Decision:
    """Run the full pipeline on a normal-form state formula."""
    closure(f, max_closure)
    tab = build_pretableau(f, universe)
    n_states = len(tab.states)
    n_prestates = len(tab.prestates)
    eliminate_states(tab)
    sat = bool(tab.satisfying_states())
    return Decision(
        formula=f,
        universe=universe,
        tableau=tab,
        sat=sat,
        pretableau_state_count=n_states,
        pretableau_prestate_count=n_prestates,
        final_state_count=len(tab.alive_states()),
    )


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _formula_lines(label: frozenset[StateFormula]) -> str:
    return "\\n".join(_dot_escape(to_text(g)) for g in sorted(label))


def _sigma_text(sigma: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in sigma)


def _moves(state: TState) -> list[tuple[tuple[int, ...], Prestate]]:
    """Each move vector of the state with its target prestate, by vector."""
    return sorted(
        ((sigma, cell.target) for cell in state.successors for sigma in cell.sigmas),
        key=lambda move: move[0],
    )


def tableau_dot(tab: Tableau, phase: str) -> str:
    """Graphviz rendering of one construction phase.

    ``pretableau`` shows dashed prestate boxes, solid state boxes, doubled
    saturation edges, and move-vector-labeled successor edges.  ``initial``
    dissolves the prestates; ``final`` keeps only the surviving states.
    """
    if phase not in ("pretableau", "initial", "final"):
        raise ValueError(f"unknown phase {phase!r}")
    lines = [f"digraph {phase} {{", "  rankdir=TB;", "  node [shape=box];"]
    if phase == "pretableau":
        for pre in tab.prestates:
            lines.append(
                f'  {pre.name} [style=dashed label="{pre.name}\\n'
                f'{_formula_lines(pre.label)}"];'
            )
        for state in tab.states:
            lines.append(
                f'  {state.name} [style=solid label="{state.name}\\n'
                f'{_formula_lines(state.label)}"];'
            )
        for pre in tab.prestates:
            for state in pre.states:
                lines.append(f'  {pre.name} -> {state.name} [color="black:black"];')
        for state in tab.states:
            for sigma, pre in _moves(state):
                lines.append(
                    f"  {state.name} -> {pre.name} "
                    f'[label="{_sigma_text(sigma)}"];'
                )
    else:
        keep = tab.states if phase == "initial" else tab.alive_states()
        kept = {s.index for s in keep}
        for state in keep:
            lines.append(
                f'  {state.name} [style=solid label="{state.name}\\n'
                f'{_formula_lines(state.label)}"];'
            )
        for state in keep:
            for sigma, pre in _moves(state):
                for target in pre.states:
                    if target.index in kept:
                        lines.append(
                            f"  {state.name} -> {target.name} "
                            f'[label="{_sigma_text(sigma)}"];'
                        )
    lines.append("}")
    return "\n".join(lines) + "\n"
