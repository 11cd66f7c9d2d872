"""Tableau construction, realization analysis, and elimination.

The pretableau alternates two node kinds.  A *prestate* is a bare set of
state formulas awaiting saturation; applying the saturation rule turns it
into its full expansions, the *states*.  Applying the successor rule to a
state reads off its single-step quantified formulas; each joint choice of
the agents, a move vector, leads to the prestate of the payloads it commits
to.  The vectors are computed once per coalition signature (the ordered
coalitions of the steps) and shared, read-only, by the states that have it;
the cells are computed once per step set (the state's successor formulas),
and states with one step set share one read-only ``successors`` list.

Each state stores its move vectors grouped into cells, one per set of
successor formulas the vectors commit to; a move leads to the states of
its cell's target prestate.  These cells are the only record of a state's
moves: elimination, synthesis and the DOT export all read them.
Elimination repeatedly removes states that either lost all successors for
some cell or contain a quantified path formula whose eventualities can no
longer be realized.  It tests each (state, gamma formula) pair against the
label once, then each round ranks only the pairs the labels leave open.
Ranking reads, per successor formula, the distinct target prestates of the
cells committed to it, derived once per step set, and the stuck rule is
decided once per step set.  The input is satisfiable exactly when a state
containing it survives.
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
    gamma_links,
    realized_now,
)
from .syntax import (
    SUCCESSOR,
    TRUE,
    Enf,
    StateFormula,
    Unav,
    enf,
    pnext,
    to_text,
)


@dataclass(slots=True)
class Prestate:
    index: int
    label: frozenset[StateFormula]
    states: list["TState"] = field(default_factory=list, repr=False)

    @property
    def name(self) -> str:
        return f"G{self.index}"

    def alive_states(self) -> list["TState"]:
        return [s for s in self.states if s.alive]


@dataclass(slots=True)
class Cell:
    """The move vectors of one state that commit to exactly ``steps``.

    ``steps`` is the set of the state's successor formulas the vectors
    commit to, and ``target`` the prestate of their payloads.  Distinct
    step sets may share a target.  A synthesis ``MoveCell`` holds the cells
    whose targets have the same surviving states; synthesis reads ``sigmas``
    only where it writes the model.  ``sigmas`` is shared by the states of
    one coalition signature, and the cell itself by the states of one step
    set: both are read-only.
    """

    target: Prestate = field(repr=False)
    steps: frozenset[StateFormula]
    sigmas: tuple[tuple[int, ...], ...]


@dataclass(eq=False, slots=True)
class TState:
    """A saturated node; ``successors`` holds its move vectors as cells.

    The cells appear in order of their first move vector, and each lists
    its vectors in lexicographic order.  States with one step set share
    one read-only ``successors`` list, and their ``enf_steps`` and
    ``unav_steps``.  ``linked`` maps each gamma formula of the label, in
    key order, to its linked component; ``build_pretableau`` fills it with
    :func:`~atlplus.decomposition.gamma_links` when it creates the state.
    A tableau keeps one state per label, so states compare by identity.
    """

    index: int
    label: frozenset[StateFormula]
    linked: dict[StateFormula, GammaComponent]
    enf_steps: list[StateFormula]
    unav_steps: list[StateFormula]
    successors: list[Cell] = field(repr=False)
    alive: bool = True

    @property
    def name(self) -> str:
        return f"D{self.index}"

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
    # The moves depend on the successor formulas alone: the first state
    # with a step set computes them, and later ones share its lists.
    moves_by_steps: dict[frozenset[StateFormula], tuple] = {}

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
        members: set[int] = set()  # indices of ``pre.states``
        for expansion in full_expansions(pre.label):
            label = expansion
            steps = frozenset([g for g in label if g.kind is SUCCESSOR])
            if not steps:
                steps = frozenset({_unconditional_step(universe)})
                label = label | steps
            state = state_by_label.get(label)
            if state is None:
                moves = moves_by_steps.get(steps)
                if moves is None:
                    moves = _apply_next(universe, steps, get_prestate, layouts)
                    moves_by_steps[steps] = moves
                # Links are read off the expansion itself: the unconditional
                # step may render a component the expansion did not choose.
                linked = gamma_links(expansion)
                state = TState(len(tab.states) + 1, label, linked, *moves)
                tab.states.append(state)
                state_by_label[label] = state
            if state.index not in members:
                members.add(state.index)
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


def _apply_next(universe: tuple[int, ...], steps, get_prestate, layouts: dict) -> tuple:
    """The ``enf_steps``, ``unav_steps`` and ``successors`` of a state whose
    successor formulas are ``steps``: the joint agent choices grouped into
    cells by the steps they commit to.

    States with equal coalition signatures share one ``_next_layout``.
    Agents take action positions in sorted order, as in the oracle: the
    smallest agent of the universe plays position 0.
    """
    pos = {a: i for i, a in enumerate(sorted(universe))}
    order = sorted(steps, key=lambda g: (g.path.state.key, g.key))
    enf_steps = [g for g in order if isinstance(g, Enf)]
    unav_steps = [g for g in order if isinstance(g, Unav)]
    all_positions = frozenset(pos.values())
    enf = tuple(frozenset(pos[a] for a in g.coalition) for g in enf_steps)
    unav = tuple(all_positions - {pos[a] for a in g.coalition} for g in unav_steps)
    signature = (len(pos), enf, unav)
    layout = layouts.get(signature)
    if layout is None:
        layout = layouts[signature] = _next_layout(*signature)
    ordered = enf_steps + unav_steps
    successors = []
    for key, sigmas in layout:
        committed = [g for b, g in enumerate(ordered) if key >> b & 1]
        payloads = frozenset([g.path.state for g in committed]) or frozenset({TRUE})
        successors.append(Cell(get_prestate(payloads), frozenset(committed), sigmas))
    return enf_steps, unav_steps, successors


def _targets_by_step(successors: list[Cell]) -> dict[StateFormula, list[Prestate]]:
    """Each successor formula of a step set, with the distinct target
    prestates of the cells that commit to it."""
    by_step: dict[StateFormula, dict[int, Prestate]] = {}
    for cell in successors:
        for g in cell.steps:
            by_step.setdefault(g, {})[cell.target.index] = cell.target
    return {g: list(targets.values()) for g, targets in by_step.items()}


def _open_pairs(
    opened: list[tuple[TState, StateFormula]],
    step_targets: dict[int, dict[StateFormula, list[Prestate]]],
):
    """(pair key, remainder, targets of the linked step) for each open pair
    of a live state that a successor could realize."""
    for s, g in opened:
        component = s.linked[g]
        if not s.alive or component.step is None:
            continue  # dead, or only its label could have realized it
        targets = step_targets.get(id(s.successors))
        if targets is None:
            targets = step_targets[id(s.successors)] = _targets_by_step(s.successors)
        yield (s.index, g), component.next_ev, targets.get(component.step, ())


def _rank_open_pairs(
    rank: dict[tuple[int, StateFormula], int],
    opened: list[tuple[TState, StateFormula]],
    step_targets: dict[int, dict[StateFormula, list[Prestate]]],
) -> None:
    """Give the open pairs of live states their breadth-first ranks.

    ``rank`` holds the rank-0 pairs of the live states, those their labels
    realize, and ``opened`` the other (state, gamma formula) pairs.  An
    open pair earns rank ``level`` when every target prestate of the cells
    committed to its linked step has a live state where the re-quantified
    remainder ranks below ``level``.  Pairs that never earn a rank are
    unrealizable.  ``step_targets`` caches each step set's targets per
    step, by ``id`` of the shared ``successors`` list.
    """
    # (prestate index, remainder) pairs where some live state ranks the
    # remainder below the current level; a hit stays a hit at later levels.
    reached: set[tuple[int, StateFormula]] = set()
    pending = _open_pairs(opened, step_targets)
    level = 0
    while True:
        level += 1
        # Ranks assigned during a level equal ``level`` and never pass the
        # test, so a miss holds for the whole level.
        missed: set[tuple[int, StateFormula]] = set()
        waiting = []
        ranked = False
        for entry in pending:
            key, ev1, pres = entry
            for pre in pres:
                hit = (pre.index, ev1)
                if hit in reached:
                    continue
                if hit in missed or not any(
                    rank.get((t.index, ev1), level) < level
                    for t in pre.states
                    if t.alive
                ):
                    missed.add(hit)
                    waiting.append(entry)
                    break
                reached.add(hit)
            else:
                rank[key] = level
                ranked = True
        if not (ranked and waiting):
            return
        pending = waiting


def eliminate_states(tab: Tableau) -> list[dict[str, list[int]]]:
    """Alternate the two elimination rules in batched rounds to a fixpoint.

    Whether a label alone realizes a gamma formula never changes, so each
    (state, gamma formula) pair is tested once, before the first round:
    it ranks 0 for good, or it is open.  Each round ranks the open pairs
    of the current survivors, reading per step the distinct target
    prestates of each step set, derived once per shared ``successors``
    list.  It removes every state with an unrealizable pair, then every
    state left with a cell whose target prestate has no live state, a
    verdict reached once per step set.  The trace records the removals per
    round, and ``tab.realization`` holds the last round's ranks, those of
    the survivors.
    """
    # Between rounds, ``rank`` holds just the rank-0 pairs of the survivors.
    rank: dict[tuple[int, StateFormula], int] = {}
    opened: list[tuple[TState, StateFormula]] = []
    for s in tab.alive_states():
        for g in s.linked:
            if realized_now(g.path, s.label):
                rank[(s.index, g)] = 0
            else:
                opened.append((s, g))
    step_targets: dict[int, dict[StateFormula, list[Prestate]]] = {}
    trace: list[dict[str, list[int]]] = []
    while True:
        _rank_open_pairs(rank, opened, step_targets)
        removed_unrealized = list(
            dict.fromkeys(s for s, g in opened if s.alive and (s.index, g) not in rank)
        )
        for s in removed_unrealized:
            s.alive = False
        live = [any(t.alive for t in pre.states) for pre in tab.prestates]
        stuck: dict[int, bool] = {}  # id(successors) -> some target has no live state
        removed_stuck = []
        for s in tab.alive_states():
            verdict = stuck.get(id(s.successors))
            if verdict is None:
                verdict = stuck[id(s.successors)] = not all(
                    live[c.target.index] for c in s.successors
                )
            if verdict:
                removed_stuck.append(s)
        for s in removed_stuck:
            s.alive = False
        if not removed_unrealized and not removed_stuck:
            break
        # Back to the rank-0 pairs of the survivors.
        for s, g in opened:
            rank.pop((s.index, g), None)
        for s in removed_unrealized + removed_stuck:
            for g in s.linked:
                rank.pop((s.index, g), None)
        trace.append(
            {
                "unrealized": [s.index for s in removed_unrealized],
                "stuck": [s.index for s in removed_stuck],
            }
        )
    tab.realization = rank
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
