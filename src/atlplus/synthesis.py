"""Model synthesis from an open final tableau.

Surviving tableau states are grown into components, one child per group of
action profiles sharing a successor-state set, built directly into a finite
deterministic structure that realizes every eventuality; the structure is
then projected to a concurrent game model.  Each state's groups are read
off its tableau cells once per synthesis call.  A realizing component follows
the realization ranks elimination stored on the tableau: profiles committed
to an eventuality's linked step lead to a successor of minimal rank, every
other profile group to a leaf.  Dead ends left after gluing are closed off
in one forward pass in node order.  The saturated formula labels travel
along as annotations so the result can be re-validated independently of
the tableau that produced it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cgm import CGM
from .decomposition import gamma_components, realized_now
from .syntax import (
    FALSE,
    TRUE,
    And,
    Enf,
    FormulaClass,
    Lit,
    Or,
    StateFormula,
    Unav,
    classify,
    is_gamma,
    is_successor_formula,
    mentioned_props,
    negate,
    parse,
    successor_payload,
    to_nnf,
    to_text,
)
from .tableau import Tableau, TState, _unconditional_step

__all__ = [
    "SynthesisError",
    "MoveCell",
    "HNode",
    "HintikkaStructure",
    "move_cells",
    "assemble",
    "extract_cgm",
    "hintikka_labels",
    "validate_hintikka",
]


class SynthesisError(Exception):
    """Raised when synthesis is attempted under broken preconditions."""


# ---------------------------------------------------------------------------
# Move partition


@dataclass(frozen=True)
class MoveCell:
    """A block of action profiles that lead to the same set of live states.

    It merges the tableau cells of a state whose target prestates keep the
    same surviving states; ``steps`` is the union of their ``Cell.steps``.
    Each tableau cell falls wholly inside one block, so a profile commits
    to a step exactly when its block's ``steps`` holds that step.
    """

    sigmas: tuple[tuple[int, ...], ...]
    targets: tuple[TState, ...]
    steps: frozenset[StateFormula]


def move_cells(state: TState) -> list[MoveCell]:
    """Partition the action box of ``state`` by surviving successor-state set.

    Cells appear in order of their lexicographically first profile and list
    their profiles in lexicographic order; the targets of each cell are
    listed in creation order.
    """
    blocks: dict[frozenset[int], tuple[tuple[TState, ...], list, set]] = {}
    for cell in state.successors:
        targets = tuple(cell.target.alive_states())
        if not targets:
            raise SynthesisError(
                f"{state.name} has a move with no surviving successor"
            )
        key = frozenset(t.index for t in targets)
        _, sigmas, steps = blocks.setdefault(key, (targets, [], set()))
        sigmas.extend(cell.sigmas)
        steps.update(cell.steps)
    return [
        MoveCell(tuple(sorted(sigmas)), targets, frozenset(steps))
        for targets, sigmas, steps in blocks.values()
    ]


# ---------------------------------------------------------------------------
# Assembly


def _final_ranks(tab: Tableau) -> dict[tuple[int, StateFormula], int]:
    """Realization ranks of the surviving states.

    Elimination's last round computed them on exactly the survivors and
    then removed nothing, so they are final.
    """
    if tab.phase != "final":
        raise SynthesisError("synthesis requires a fully eliminated tableau")
    return tab.realization


@dataclass
class HNode:
    """Occurrence of a tableau state inside the assembled structure."""

    nid: int
    state: TState
    edges: dict[tuple[int, ...], "HNode"] = field(default_factory=dict)
    parent: "HNode | None" = None
    parent_sigmas: tuple[tuple[int, ...], ...] = ()
    alive: bool = True
    row: int = 0

    def is_dead_end(self) -> bool:
        return not self.edges


@dataclass
class HintikkaStructure:
    """Finite deterministic structure with saturated formula labels."""

    tableau: Tableau
    rows: list[StateFormula]
    nodes: list[HNode]
    root: HNode

    def alive_nodes(self) -> list[HNode]:
        return [n for n in self.nodes if n.alive]


def eventuality_rows(tab: Tableau) -> list[StateFormula]:
    """Eventualities of the surviving states, in order of first appearance."""
    return list(
        dict.fromkeys(
            ev for state in tab.alive_states() for ev in state.gamma_formulas()
        )
    )


def pending_rows(rows: list[StateFormula], state: TState) -> list[int]:
    """Row indices whose eventuality the state carries but defers.

    An eventuality realized by the state's own label imposes no obligation
    on the onward structure; only the deferred ones require that a play
    eventually pass through their realizing component.
    """
    return [
        i
        for i, ev in enumerate(rows)
        if ev in state.label and not realized_now(ev.path, state.label)
    ]


def assemble(tab: Tableau) -> HintikkaStructure:
    """Grow components into a finite structure realizing every eventuality.

    The queue of eventualities starts at the input formula's own row when
    the input is itself an eventuality and at the first row otherwise; the
    root is the oldest surviving state containing the input.  One pass over
    the queue grows every dead end, in place, into the current row's
    component for the dead end's state: the realizing component when the
    state carries the row's eventuality, the simple one (a leaf per move
    cell) otherwise.  Remaining dead ends are then closed off in one
    forward pass in node order, which also visits the nodes that grafting
    appends.  A dead end whose state still defers some eventuality continues
    the row cycle restricted to the deferred rows: it reuses that exact
    (row, state) component when one already occurs and grafts it otherwise,
    so every play keeps meeting the realizing component of every obligation
    it carries.  A dead end with no deferred obligation reroutes to the
    oldest-row component of its state already present, grafting the next
    row's component when none exists yet.  The final tableau no longer
    changes, so each state's move partition is computed once per call.
    """
    ranks = _final_ranks(tab)
    candidates = tab.satisfying_states()
    if not candidates:
        raise SynthesisError("input is unsatisfiable; nothing to synthesize")
    rows = eventuality_rows(tab)
    n_rows = len(rows)

    eta = tab.input
    start = rows.index(eta) if is_gamma(eta) and eta in rows else 0

    nodes: list[HNode] = []
    # state index -> its move partition, computed once per call
    partitions: dict[int, list[MoveCell]] = {}
    # state index -> {row: the first component grafted for that row}
    component_roots: dict[int, dict[int, HNode]] = {}

    def cells(state: TState) -> list[MoveCell]:
        found = partitions.get(state.index)
        if found is None:
            found = partitions[state.index] = move_cells(state)
        return found

    def new_node(state: TState) -> HNode:
        node = HNode(nid=len(nodes) + 1, state=state)
        nodes.append(node)
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
        for cell in cells(state):
            target = cell.targets[0]
            realizing = step in cell.steps
            if realizing:
                ranked = [t for t in cell.targets if (t.index, next_ev) in ranks]
                if not ranked:
                    raise SynthesisError(f"no successor realizes {next_ev!r}")
                target = min(ranked, key=lambda t: (ranks[(t.index, next_ev)], t.index))
            child = new_node(target)
            child.parent = node
            child.parent_sigmas = cell.sigmas
            child.row = node.row
            for sigma in cell.sigmas:
                node.edges[sigma] = child
            if realizing and ranks[(target.index, next_ev)]:
                grow(child, next_ev)

    def graft(node: HNode, row_index: int, ev: StateFormula | None) -> None:
        node.row = row_index
        component_roots.setdefault(node.state.index, {}).setdefault(
            row_index, node
        )
        grow(node, ev if ev in node.state.label else None)

    def redirect(node: HNode, target: HNode) -> None:
        source = node.parent
        for sigma in node.parent_sigmas:
            source.edges[sigma] = target
        node.alive = False

    root = new_node(min(candidates, key=lambda s: s.index))
    graft(root, start, rows[start] if rows else None)
    for offset in range(1, n_rows):
        row_index = (start + offset) % n_rows
        for node in [n for n in nodes if n.alive and n.is_dead_end()]:
            graft(node, row_index, rows[row_index])

    # Edges are never removed, dead nodes never revive and grafting only
    # appends, so the node reached here is always the oldest open dead end.
    for node in nodes:
        if not node.alive or not node.is_dead_end():
            continue
        present = component_roots.get(node.state.index, {})
        deferred = pending_rows(rows, node.state)
        if deferred:
            row_index = min(deferred, key=lambda i: (i - node.row - 1) % n_rows)
            match = present.get(row_index)
            if match is not None:
                redirect(node, match)
            else:
                graft(node, row_index, rows[row_index])
        elif present:
            redirect(node, present[min(present)])
        else:
            row_index = (node.row + 1) % n_rows if n_rows else 0
            graft(node, row_index, rows[row_index] if rows else None)

    structure = HintikkaStructure(tab, rows, nodes, root)
    boxes = {
        index: {sigma for cell in found for sigma in cell.sigmas}
        for index, found in partitions.items()
    }
    for node in structure.alive_nodes():
        if node.edges.keys() != boxes.get(node.state.index):
            raise SynthesisError(
                f"node {node.nid} does not cover the action box of"
                f" {node.state.name}"
            )
    return structure


# ---------------------------------------------------------------------------
# Projection to a concurrent game model


def extract_cgm(structure: HintikkaStructure) -> CGM:
    """Project the structure to a model by keeping only atomic propositions.

    The one fully unconstrained sink (label consisting of the truth constant
    and the unconditional successor step alone) is decorated with every
    proposition of the input so the decoration is visible in exported models;
    no formula constrains that state, and the certifying oracle re-checks the
    result.
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
        for sigma, child in node.edges.items():
            transitions[(i, sigma)] = index[child.nid]
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
    """Parse the model's label annotations back into formula sets."""
    if model.hintikka is None:
        raise SynthesisError("model carries no saturated-label annotations")
    parsed: dict[str, StateFormula] = {}
    labels = []
    for sid in model.ids:
        texts = model.hintikka.get(str(sid))
        if texts is None:
            raise SynthesisError(f"state {sid} has no label annotation")
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


def validate_hintikka(
    model: CGM, universe: tuple[int, ...] | None = None
) -> list[str]:
    """Check the saturation conditions H1..H6 on an annotated model.

    Returns a list of human-readable violations ("H1 violated at state ...");
    an empty list means the annotations form a coherent structure.  Each
    distinct formula is negated once and each (action box, coalition) grid
    of choices is built once per call; nothing is kept between calls.
    """
    if universe is None:
        universe = tuple(range(1, model.agents + 1))
    if len(universe) != model.agents:
        raise SynthesisError(
            f"universe has {len(universe)} agents, model has {model.agents}"
        )
    labels = hintikka_labels(model, universe)
    ordered = [sorted(label) for label in labels]
    position = {agent: i for i, agent in enumerate(universe)}
    n = model.n_states
    transitions = model.transitions
    violations: list[str] = []
    negations: dict[StateFormula, StateFormula] = {}
    grids: dict[
        tuple[tuple[int, ...], tuple[int, ...]], list[list[tuple[int, ...]]]
    ] = {}

    def choices(state: int, coalition: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
        key = (model.action_counts[state], coalition)
        grid = grids.get(key)
        if grid is None:
            positions = tuple(position[a] for a in coalition)
            grid = grids[key] = _choice_grid(key[0], positions)
        return grid

    def enf_witness(state: int, coalition, payload) -> bool:
        return any(
            all(payload in labels[transitions[(state, sigma)]] for sigma in completions)
            for completions in choices(state, coalition)
        )

    def unav_witness(state: int, coalition, payload) -> bool:
        return all(
            any(payload in labels[transitions[(state, sigma)]] for sigma in completions)
            for completions in choices(state, coalition)
        )

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
            kind = classify(f)
            if kind is FormulaClass.ALPHA:
                assert isinstance(f, And)
                for part in (f.lhs, f.rhs):
                    if part not in label:
                        violations.append(
                            f"H2 violated at state {sid}: {to_text(f)} lacks"
                            f" conjunct {to_text(part)}"
                        )
            elif kind is FormulaClass.BETA:
                assert isinstance(f, Or)
                if f.lhs not in label and f.rhs not in label:
                    violations.append(
                        f"H3 violated at state {sid}: no disjunct of"
                        f" {to_text(f)} present"
                    )
            elif kind is FormulaClass.GAMMA:
                if not any(
                    c.rendered in label for c in gamma_components(f)
                ):
                    violations.append(
                        f"H4 violated at state {sid}: no component of"
                        f" {to_text(f)} present"
                    )
        for f in ordered[s]:
            if not is_successor_formula(f):
                continue
            payload = successor_payload(f)
            if isinstance(f, Enf):
                if not enf_witness(s, f.coalition, payload):
                    violations.append(
                        f"H5 violated at state {sid}: no action witness for"
                        f" {to_text(f)}"
                    )
            else:
                assert isinstance(f, Unav)
                if not unav_witness(s, f.coalition, payload):
                    violations.append(
                        f"H5 violated at state {sid}: no co-action response"
                        f" for {to_text(f)}"
                    )

    pairs = [(s, f) for s in range(n) for f in ordered[s] if is_gamma(f)]
    realized: set[tuple[int, StateFormula]] = {
        (s, f) for s, f in pairs if realized_now(f.path, labels[s])
    }
    changed = True
    while changed:
        changed = False
        for s, f in pairs:
            if (s, f) in realized:
                continue
            for component in gamma_components(f):
                if component.step is None:
                    continue
                if component.rendered not in labels[s]:
                    continue
                step = component.step
                ev1 = component.next_ev
                grid = choices(s, step.coalition)
                if isinstance(step, Enf):
                    ok = any(
                        all(
                            (transitions[(s, sigma)], ev1) in realized
                            for sigma in completions
                        )
                        for completions in grid
                    )
                else:
                    ok = all(
                        any(
                            (transitions[(s, sigma)], ev1) in realized
                            for sigma in completions
                        )
                        for completions in grid
                    )
                if ok:
                    realized.add((s, f))
                    changed = True
                    break
    for s, f in pairs:
        if (s, f) not in realized:
            violations.append(
                f"H6 violated at state {model.ids[s]}: {to_text(f)} is never"
                " realized"
            )
    return violations
