"""Model synthesis from an open final tableau.

Surviving tableau states are grown into components, one child per move cell
(tableau cells sharing a successor-state set), built directly into a finite
deterministic structure that realizes every eventuality; the structure is then
projected to a concurrent game model, the only step that lists action
profiles.  Each state's move cells are read off its tableau cells once per
synthesis call.  A realizing component follows the realization ranks
elimination stored on the tableau: a move cell committed to an eventuality's
linked step leads to a successor of minimal rank, every other move cell to a
leaf.  Each (eventuality row, state) pair gets at most one component: a later
dead end of that state in that row links to it instead of growing a copy.
Dead ends left after the row pass are closed off in one forward pass in node
order.  The saturated formula labels travel along as annotations so the result
can be re-validated independently of the tableau that produced it.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from .cgm import CGM, ModelFormatError
from .decomposition import gamma_components, realized_now
from .syntax import (
    ALPHA,
    BETA,
    FALSE,
    GAMMA,
    SUCCESSOR,
    TRUE,
    Enf,
    Lit,
    StateFormula,
    mentioned_props,
    negate,
    parse,
    to_nnf,
    to_text,
)
from .tableau import Cell, Tableau, TState, _unconditional_step


class SynthesisError(Exception):
    """Raised when synthesis is attempted under broken preconditions."""


# ---------------------------------------------------------------------------
# Move partition


@dataclass(frozen=True)
class MoveCell:
    """The tableau cells of a state that lead to the same set of live states.

    ``cells`` are the merged tableau cells, whose target prestates keep the
    same surviving states; ``steps`` is the union of their ``Cell.steps``.
    Each tableau cell falls wholly inside one block, so a profile commits
    to a step exactly when its block's ``steps`` holds that step.
    """

    cells: tuple[Cell, ...]
    targets: tuple[TState, ...]
    steps: frozenset[StateFormula]


def move_cells(state: TState) -> list[MoveCell]:
    """Partition the action box of ``state`` by surviving successor-state set.

    Blocks appear in order of their first tableau cell and list their
    tableau cells in the state's order; the targets of each block are
    listed in creation order.  No action profile is read.
    """
    blocks: dict[frozenset[int], tuple[tuple[TState, ...], list, set]] = {}
    for cell in state.successors:
        targets = tuple(cell.target.alive_states())
        if not targets:
            raise SynthesisError(
                f"{state.name} has a move with no surviving successor"
            )
        key = frozenset(t.index for t in targets)
        _, cells, steps = blocks.setdefault(key, (targets, [], set()))
        cells.append(cell)
        steps.update(cell.steps)
    return [
        MoveCell(tuple(cells), targets, frozenset(steps))
        for targets, cells, steps in blocks.values()
    ]


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class HNode:
    """Occurrence of a tableau state inside the assembled structure: one child
    per move cell of the state, in ``move_cells`` order; ``slot`` is the
    node's index among its parent's children."""

    nid: int
    state: TState
    children: list[HNode] = field(default_factory=list, repr=False)
    parent: HNode | None = field(default=None, repr=False)
    slot: int = 0
    alive: bool = True
    row: int = 0

    def is_dead_end(self) -> bool:
        return not self.children


@dataclass
class HintikkaStructure:
    """Finite deterministic structure with saturated formula labels."""

    tableau: Tableau
    rows: list[StateFormula]
    nodes: list[HNode]
    root: HNode
    partitions: dict[int, list[MoveCell]]  # state index -> its move cells

    def alive_nodes(self) -> list[HNode]:
        return [n for n in self.nodes if n.alive]


def eventuality_rows(tab: Tableau) -> list[StateFormula]:
    """Eventualities of the surviving states, in order of first appearance."""
    return list(
        dict.fromkeys(
            ev for state in tab.alive_states() for ev in state.linked
        )
    )


def pending_rows(
    rows: list[StateFormula],
    state: TState,
    ranks: dict[tuple[int, StateFormula], int],
) -> list[int]:
    """Row indices whose eventuality the state carries but defers.

    An eventuality realized by the state's own label imposes no obligation
    on the onward structure; only the deferred ones require that a play
    eventually pass through their realizing component.  Elimination ranked
    every gamma formula of a surviving state, with rank 0 exactly for those
    its label realizes, so ``ranks`` is the final tableau's ``realization``.
    """
    return [
        i
        for i, ev in enumerate(rows)
        if ev in state.label and ranks[(state.index, ev)] > 0
    ]


def assemble(tab: Tableau) -> HintikkaStructure:
    """Grow components into a finite structure realizing every eventuality.

    ``graft`` builds at most one component per (eventuality row, state) and
    links every later dead end of that state and row to it, so there are at
    most rows x states components.  A component is the realizing one when
    the state carries the row's eventuality and the simple one (a leaf per
    move cell) otherwise.  The root is the oldest surviving state containing
    the input, grafted with the input's own row when the input is an
    eventuality and with the first row otherwise.  One pass over the other
    rows, in cyclic order, grafts every dead end with the current row; it
    reads only the nodes made since the previous pass began, since a pass
    leaves none of its own dead ends open.  The dead ends left are closed
    off in one forward pass in node order, which also visits the nodes that
    grafting appends: each is grafted with the nearest row after its own
    that its state defers, so every play keeps meeting the realizing
    component of every obligation it carries; failing that, with the oldest
    row its state already has, else the next row.  The final tableau no
    longer changes, so each state's move partition and pending rows are
    computed once per call.
    """
    if tab.phase != "final":
        raise SynthesisError("synthesis requires a fully eliminated tableau")
    # Elimination's last round ranked exactly the survivors, so these are final.
    ranks = tab.realization
    candidates = tab.satisfying_states()
    if not candidates:
        raise SynthesisError("input is unsatisfiable; nothing to synthesize")
    rows = eventuality_rows(tab)
    n_rows = len(rows)

    eta = tab.input
    start = rows.index(eta) if eta.kind is GAMMA and eta in rows else 0

    nodes: list[HNode] = []
    # The nodes made since the last row pass began, in node order: the only
    # nodes that can still be open dead ends.
    fresh: list[HNode] = []
    # state index -> its move partition, computed once per call
    partitions: dict[int, list[MoveCell]] = {}
    # state index -> its pending rows, computed once per call
    deferred_rows: dict[int, list[int]] = {}
    # state index -> {row: the root of that (row, state) component}
    component_roots: dict[int, dict[int, HNode]] = {}

    def cells(state: TState) -> list[MoveCell]:
        found = partitions.get(state.index)
        if found is None:
            found = partitions[state.index] = move_cells(state)
        return found

    def new_node(state: TState) -> HNode:
        node = HNode(nid=len(nodes) + 1, state=state)
        nodes.append(node)
        fresh.append(node)
        return node

    def grow(node: HNode, ev: StateFormula | None) -> None:
        """Give ``node`` one child per move cell, realizing ``ev`` below it.

        While ``ev`` has a positive rank at the node's state, a cell whose
        ``steps`` hold the linked step leads to its best-ranked realizer of
        the re-quantified remainder (ties to the oldest state), grown in
        turn while its own rank is positive.  Every other cell leads to a
        leaf colored with its oldest target.
        """
        state = node.state
        step = next_ev = None
        if ev is not None:
            rank = ranks.get((state.index, ev))
            if rank is None:
                raise SynthesisError(f"{ev!r} is not realized at {state.name}")
            if rank:
                component = state.linked[ev]
                step, next_ev = component.step, component.next_ev
        for slot, cell in enumerate(cells(state)):
            target = cell.targets[0]
            realizing = step in cell.steps
            if realizing:
                ranked = [t for t in cell.targets if (t.index, next_ev) in ranks]
                if not ranked:
                    raise SynthesisError(f"no successor realizes {next_ev!r}")
                target = min(ranked, key=lambda t: (ranks[(t.index, next_ev)], t.index))
            child = new_node(target)
            child.parent, child.slot, child.row = node, slot, node.row
            node.children.append(child)
            if realizing and ranks[(target.index, next_ev)]:
                grow(child, next_ev)

    def graft(node: HNode, row_index: int) -> None:
        """Link ``node`` to its state's component for the row, or grow it."""
        present = component_roots.setdefault(node.state.index, {})
        match = present.get(row_index)
        if match is not None:
            node.parent.children[node.slot] = match
            node.alive = False
            return
        present[row_index] = node
        node.row = row_index
        ev = rows[row_index] if rows else None
        grow(node, ev if ev in node.state.label else None)

    root = new_node(min(candidates, key=lambda s: s.index))
    graft(root, start)
    # Children are never removed and dead nodes never revive, so a pass
    # leaves no node it grafts open: the next pass needs only the new ones.
    for offset in range(1, n_rows):
        row_index = (start + offset) % n_rows
        batch = [n for n in fresh if n.alive and n.is_dead_end()]
        fresh.clear()
        for node in batch:
            graft(node, row_index)

    # Grafting only appends, so the node reached here is always the oldest
    # open dead end.
    for node in fresh:
        if not node.alive or not node.is_dead_end():
            continue
        index = node.state.index
        present = component_roots.get(index, {})
        deferred = deferred_rows.get(index)
        if deferred is None:
            deferred = deferred_rows[index] = pending_rows(rows, node.state, ranks)
        if deferred:
            row_index = min(deferred, key=lambda i: (i - node.row - 1) % n_rows)
        elif present:
            row_index = min(present)
        else:
            row_index = (node.row + 1) % n_rows if n_rows else 0
        graft(node, row_index)

    return HintikkaStructure(tab, rows, nodes, root, partitions)


# ---------------------------------------------------------------------------
# Projection to a concurrent game model


def extract_cgm(structure: HintikkaStructure) -> CGM:
    """Project the structure to a model by keeping only atomic propositions.

    The one fully unconstrained sink (label consisting of the truth constant
    and the unconditional successor step alone) is decorated with every
    proposition of the input so the decoration is visible in exported models;
    no formula constrains that state, and the certifying oracle re-checks the
    result.  A node's i-th child takes every profile of its i-th move cell.
    """
    tab = structure.tableau
    alive = structure.alive_nodes()
    index = {node.nid: i for i, node in enumerate(alive)}
    k = len(tab.universe)
    input_props = frozenset(mentioned_props(tab.input))
    sink_label = frozenset({TRUE, _unconditional_step(tab.universe)})

    props: list[frozenset[str]] = []
    action_counts: list[tuple[int, ...]] = []
    transitions: dict[tuple[int, tuple[int, ...]], int] = {}
    hintikka: dict[str, list[str]] = {}
    # Each distinct label formula is printed once.
    texts: dict[StateFormula, str] = {}
    for i, node in enumerate(alive):
        label = node.state.label
        if label == sink_label:
            props.append(input_props)
        else:
            props.append(
                frozenset(
                    f.name for f in label if isinstance(f, Lit) and f.positive
                )
            )
        fanout = len(node.state.enf_steps) + len(node.state.unav_steps)
        action_counts.append((fanout,) * k)
        found = structure.partitions.get(node.state.index, ())
        if not found or len(found) != len(node.children):
            raise SynthesisError(
                f"node {node.nid} does not cover the action box of {node.state.name}"
            )
        for move, child in zip(found, node.children):
            target = index[child.nid]
            for cell in move.cells:
                for sigma in cell.sigmas:
                    transitions[(i, sigma)] = target
        entry = []
        for f in sorted(label):
            text = texts.get(f)
            if text is None:
                text = texts[f] = to_text(f)
            entry.append(text)
        hintikka[str(i)] = entry

    model = CGM(
        agents=k,
        ids=list(range(len(alive))),
        props=props,
        action_counts=action_counts,
        transitions=transitions,
        initial=index[structure.root.nid],
        hintikka=hintikka,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Validation of saturated labels


def hintikka_labels(
    model: CGM, universe: tuple[int, ...]
) -> list[frozenset[StateFormula]]:
    """Parse the model's label annotations back into formula sets.

    The annotation keys must be exactly the string forms of the state ids;
    a missing or an unknown key is a ``ModelFormatError``.
    """
    notes = model.hintikka
    if notes is None:
        raise SynthesisError("model carries no saturated-label annotations")
    known = set(map(str, model.ids))
    for key in notes:
        if key not in known:
            raise ModelFormatError(f"annotation for unknown state {key!r}")
    parsed: dict[str, StateFormula] = {}
    labels = []
    for sid in model.ids:
        texts = notes.get(str(sid))
        if texts is None:
            raise ModelFormatError(f"state {sid!r} has no label annotation")
        for t in texts:
            if t not in parsed:
                parsed[t] = to_nnf(parse(t), universe)
        labels.append(frozenset(parsed[t] for t in texts))
    return labels


def _choice_grid(
    box: tuple[int, ...], positions: tuple[int, ...]
) -> list[list[tuple[int, ...]]]:
    """For each choice of the agents at ``positions``, in lexicographic
    order, the profiles of ``box`` that complete it."""
    grid = []
    for choice in itertools.product(*(range(box[p]) for p in positions)):
        fixed = dict(zip(positions, choice))
        axes = [
            (fixed[p],) if p in fixed else range(box[p]) for p in range(len(box))
        ]
        grid.append(list(itertools.product(*axes)))
    return grid


def validate_hintikka(model: CGM, universe: tuple[int, ...]) -> list[str]:
    """Check the saturation conditions H1..H6 on an annotated model.

    Returns a list of human-readable violations ("H1 violated at state ...");
    an empty list means the annotations form a coherent structure.  H5 and
    H6 share one test, ``forces``: the coalition of ``<<A>>X`` can force, and
    that of ``[[A]]X`` cannot avoid, a good successor -- one whose label holds
    the payload (H5), or where the remainder is already realized (H6).  Each
    distinct formula is negated once and each (action box, coalition) grid
    of choices is built once per call; nothing is kept between calls.
    Agents take action positions in sorted order, as in the oracle: the
    smallest agent of ``universe`` plays position 0.
    """
    if len(universe) != model.agents:
        raise SynthesisError(
            f"universe has {len(universe)} agents, model has {model.agents}"
        )
    labels = hintikka_labels(model, universe)
    ordered = [sorted(label) for label in labels]
    position = {agent: i for i, agent in enumerate(sorted(universe))}
    n = model.n_states
    violations: list[str] = []
    negations: dict[StateFormula, StateFormula] = {}
    # (action box, coalition) -> its grid of choices
    grids: dict[tuple, list[list[tuple[int, ...]]]] = {}
    # state -> its successors keyed by action profile
    moves: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
    for (s, sigma), target in model.transitions.items():
        moves[s][sigma] = target

    def forces(state: int, step: StateFormula, good: set[int]) -> bool:
        key = (model.action_counts[state], step.coalition)
        grid = grids.get(key)
        if grid is None:
            positions = tuple(position[a] for a in step.coalition)
            grid = grids[key] = _choice_grid(key[0], positions)
        successor = moves[state].__getitem__
        if isinstance(step, Enf):
            return any(good.issuperset(map(successor, row)) for row in grid)
        return not any(good.isdisjoint(map(successor, row)) for row in grid)

    # formula -> the states whose label holds it
    holders: defaultdict[StateFormula, set[int]] = defaultdict(set)
    for s, label in enumerate(labels):
        for f in label:
            holders[f].add(s)

    for s in range(n):
        sid = model.ids[s]
        label = labels[s]
        if FALSE in label:
            violations.append(f"H1 violated at state {sid}: false in label")
        for f in ordered[s]:
            neg = negations.get(f)
            if neg is None:
                neg = negations[f] = negate(f, universe)
            if neg in label and to_text(f) <= to_text(neg):
                violations.append(
                    f"H1 violated at state {sid}: both {to_text(f)} and"
                    f" {to_text(neg)} present"
                )
        for f in ordered[s]:
            kind = f.kind
            if kind is ALPHA:
                for part in f.operands:
                    if part not in label:
                        violations.append(
                            f"H2 violated at state {sid}: {to_text(f)} lacks"
                            f" conjunct {to_text(part)}"
                        )
            elif kind is BETA:
                if label.isdisjoint(f.operands):
                    violations.append(
                        f"H3 violated at state {sid}: no disjunct of"
                        f" {to_text(f)} present"
                    )
            elif kind is GAMMA:
                if not any(
                    c.rendered in label for c in gamma_components(f)
                ):
                    violations.append(
                        f"H4 violated at state {sid}: no component of"
                        f" {to_text(f)} present"
                    )
        for f in ordered[s]:
            if f.kind is not SUCCESSOR:
                continue
            if not forces(s, f, holders[f.path.state]):
                witness = (
                    "action witness" if isinstance(f, Enf) else "co-action response"
                )
                violations.append(
                    f"H5 violated at state {sid}: no {witness} for {to_text(f)}"
                )

    pairs = [(s, f) for s in range(n) for f in ordered[s] if f.kind is GAMMA]
    # eventuality -> the states where it is realized
    realized: defaultdict[StateFormula, set[int]] = defaultdict(set)
    for s, f in pairs:
        if realized_now(f.path, labels[s]):
            realized[f].add(s)
    # unrealized (state, eventuality) -> (step, next_ev) of each component
    # in the state's label, in gamma_components order
    candidates = {
        (s, f): [
            (c.step, c.next_ev)
            for c in gamma_components(f)
            if c.step is not None and c.rendered in labels[s]
        ]
        for s, f in pairs
        if s not in realized[f]
    }
    changed = True
    while changed:
        changed = False
        for (s, f), found in candidates.items():
            if s not in realized[f] and any(
                forces(s, step, realized[next_ev]) for step, next_ev in found
            ):
                realized[f].add(s)
                changed = True
    for s, f in pairs:
        if s not in realized[f]:
            violations.append(
                f"H6 violated at state {model.ids[s]}: {to_text(f)} is never"
                " realized"
            )
    return violations
