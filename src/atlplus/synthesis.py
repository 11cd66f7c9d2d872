"""Model synthesis from an open final tableau.

Surviving tableau states are arranged into move-partition trees (one child
per group of action profiles sharing a successor-state set), the trees are
glued into a finite deterministic structure that realizes every eventuality,
and the structure is projected to a concurrent game model.  A realizing
tree is an eventuality's witness tree, routed by the realization ranks
elimination stored on the tableau, completed to full arity.  Dead ends left
after gluing are closed off in one forward pass in node order.  The saturated
formula labels travel along as annotations so the result can be re-validated
independently of the tableau that produced it.
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
    "TreeNode",
    "HNode",
    "HintikkaStructure",
    "move_cells",
    "simple_tree",
    "witness_tree",
    "realizing_tree",
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
    same surviving states.
    """

    sigmas: tuple[tuple[int, ...], ...]
    targets: tuple[TState, ...]


def move_cells(state: TState) -> list[MoveCell]:
    """Partition the action box of ``state`` by surviving successor-state set.

    Cells appear in order of their lexicographically first profile and list
    their profiles in lexicographic order; the targets of each cell are
    listed in creation order.
    """
    blocks: dict[frozenset[int], tuple[tuple[TState, ...], list[tuple[int, ...]]]] = {}
    for cell in state.successors:
        targets = tuple(cell.target.alive_states())
        if not targets:
            raise SynthesisError(
                f"{state.name} has a move with no surviving successor"
            )
        key = frozenset(t.index for t in targets)
        blocks.setdefault(key, (targets, []))[1].extend(cell.sigmas)
    return [
        MoveCell(tuple(sorted(sigmas)), targets) for targets, sigmas in blocks.values()
    ]


# ---------------------------------------------------------------------------
# Trees over tableau states


@dataclass
class TreeNode:
    """Node of a synthesis tree.

    ``eventuality`` carries the formula whose realization this node is
    tracking (``None`` on completion branches), and ``children`` pairs each
    group of action profiles with the subtree it leads to.
    """

    state: TState
    eventuality: StateFormula | None
    children: list[tuple[tuple[tuple[int, ...], ...], "TreeNode"]]

    def edge_labels(self) -> list[tuple[tuple[int, ...], ...]]:
        return [sigmas for sigmas, _ in self.children]


def _final_ranks(tab: Tableau) -> dict[tuple[int, StateFormula], int]:
    """Realization ranks of the surviving states.

    Elimination's last round computed them on exactly the survivors and
    then removed nothing, so they are final.
    """
    if tab.phase != "final":
        raise SynthesisError("synthesis requires a fully eliminated tableau")
    return tab.realization


def witness_tree(tab: Tableau, ev: StateFormula, state: TState) -> TreeNode:
    """Minimal tree certifying that ``ev`` is realized starting at ``state``.

    Rank zero yields a single node.  Otherwise every profile committed to the
    linked successor formula is routed to a surviving successor of minimal
    rank (ties to the oldest state) for the re-quantified remainder, and the
    construction recurses with strictly decreasing rank.  Children appear in
    order of their first profile and list their profiles in lexicographic
    order.
    """
    ranks = _final_ranks(tab)

    def build(ev: StateFormula, state: TState) -> TreeNode:
        rank = ranks.get((state.index, ev))
        if rank is None:
            raise SynthesisError(f"{ev!r} is not realized at {state.name}")
        if rank == 0:
            return TreeNode(state, ev, [])
        component = state.linked[ev]
        ev1 = component.next_ev
        grouped: dict[int, tuple[TState, list[tuple[int, ...]]]] = {}
        for cell in state.successors:
            if component.step not in cell.steps:
                continue
            ranked = [t for t in cell.target.alive_states() if (t.index, ev1) in ranks]
            if not ranked:
                raise SynthesisError(f"no successor realizes {ev1!r}")
            best = min(ranked, key=lambda t: (ranks[(t.index, ev1)], t.index))
            grouped.setdefault(best.index, (best, []))[1].extend(cell.sigmas)
        groups = sorted((sorted(sigmas), target) for target, sigmas in grouped.values())
        return TreeNode(
            state,
            ev,
            [(tuple(sigmas), build(ev1, target)) for sigmas, target in groups],
        )

    return build(ev, state)


def _complete(node: TreeNode) -> TreeNode:
    """Give ``node`` and its interior descendants one child per move cell.

    A cell holding a profile of one of the node's children keeps that child,
    completed in turn; every other cell gets a leaf colored with its oldest
    target.  All profiles of one cell reach the same surviving states, so a
    cell holds the profiles of at most one child.
    """
    by_sigma = {sigma: child for sigmas, child in node.children for sigma in sigmas}
    children: list[tuple[tuple[tuple[int, ...], ...], TreeNode]] = []
    for cell in move_cells(node.state):
        child = next((by_sigma[s] for s in cell.sigmas if s in by_sigma), None)
        if child is None:
            child = TreeNode(cell.targets[0], None, [])
        elif child.children:
            child = _complete(child)
        children.append((cell.sigmas, child))
    return TreeNode(node.state, node.eventuality, children)


def simple_tree(state: TState) -> TreeNode:
    """Depth-1 tree: one leaf per move cell, colored with its first target."""
    return _complete(TreeNode(state, None, []))


def realizing_tree(tab: Tableau, ev: StateFormula, state: TState) -> TreeNode:
    """The witness tree completed to full arity.

    Every interior node (and the root) gets exactly one child per move cell:
    cells holding committed profiles keep the witness subtree, the remaining
    cells get a leaf colored with their oldest target.
    """
    return _complete(witness_tree(tab, ev, state))


# ---------------------------------------------------------------------------
# Assembly


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
    """Glue grid trees into a finite structure realizing every eventuality.

    The queue of eventualities starts at the input formula's own row when
    the input is itself an eventuality and at the first row otherwise; the
    root is the oldest surviving state containing the input.  One pass over
    the queue expands every dead end with the current row's tree for the
    dead end's state.  Remaining dead ends are then closed off in one
    forward pass in node order, which also visits the nodes that grafting
    appends.  A dead end whose state still defers some eventuality continues
    the row cycle restricted to the deferred rows: it reuses that exact
    (row, state) component when one already occurs and grafts it otherwise,
    so every play keeps meeting the realizing component of every obligation
    it carries.  A dead end with no deferred obligation reroutes to the
    oldest-row component of its state already present, grafting the next
    row's component when none exists yet.
    """
    _final_ranks(tab)
    candidates = tab.satisfying_states()
    if not candidates:
        raise SynthesisError("input is unsatisfiable; nothing to synthesize")
    rows = eventuality_rows(tab)
    n_rows = len(rows)

    def tree_for(ev: StateFormula | None, state: TState) -> TreeNode:
        if ev is not None and ev in state.label:
            return realizing_tree(tab, ev, state)
        return simple_tree(state)

    eta = tab.input
    start = rows.index(eta) if is_gamma(eta) and eta in rows else 0

    nodes: list[HNode] = []
    # state index -> {row: the first component grafted for that row}
    component_roots: dict[int, dict[int, HNode]] = {}

    def new_node(state: TState) -> HNode:
        node = HNode(nid=len(nodes) + 1, state=state)
        nodes.append(node)
        return node

    def graft_children(node: HNode, tree: TreeNode, row_index: int) -> None:
        for sigmas, subtree in tree.children:
            child = new_node(subtree.state)
            child.parent = node
            child.parent_sigmas = sigmas
            child.row = row_index
            for sigma in sigmas:
                node.edges[sigma] = child
            graft_children(child, subtree, row_index)

    def graft(node: HNode, row_index: int, ev: StateFormula | None) -> None:
        node.row = row_index
        component_roots.setdefault(node.state.index, {}).setdefault(
            row_index, node
        )
        graft_children(node, tree_for(ev, node.state), row_index)

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
    for node in structure.alive_nodes():
        if node.edges.keys() != node.state.moves.keys():
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
        hintikka[str(i)] = [to_text(f) for f in sorted(label)]

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


def _subprofiles(
    box: tuple[int, ...], positions: tuple[int, ...]
) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(box[p]) for p in positions)))


def _completions(
    box: tuple[int, ...], positions: tuple[int, ...], choice: tuple[int, ...]
) -> list[tuple[int, ...]]:
    fixed = dict(zip(positions, choice))
    axes = [
        [fixed[p]] if p in fixed else list(range(box[p]))
        for p in range(len(box))
    ]
    return [tuple(v) for v in itertools.product(*axes)]


def validate_hintikka(
    model: CGM, universe: tuple[int, ...] | None = None
) -> list[str]:
    """Check the saturation conditions H1..H6 on an annotated model.

    Returns a list of human-readable violations ("H1 violated at state ...");
    an empty list means the annotations form a coherent structure.
    """
    if universe is None:
        universe = tuple(range(1, model.agents + 1))
    if len(universe) != model.agents:
        raise SynthesisError(
            f"universe has {len(universe)} agents, model has {model.agents}"
        )
    labels = hintikka_labels(model, universe)
    position = {agent: i for i, agent in enumerate(universe)}
    n = model.n_states
    violations: list[str] = []

    def succ(state: int, sigma: tuple[int, ...]) -> int:
        return model.successor(state, sigma)

    def enf_witness(state: int, coalition, payload) -> bool:
        box = model.action_counts[state]
        positions = tuple(position[a] for a in coalition)
        for choice in _subprofiles(box, positions):
            if all(
                payload in labels[succ(state, sigma)]
                for sigma in _completions(box, positions, choice)
            ):
                return True
        return False

    def unav_witness(state: int, coalition, payload) -> bool:
        box = model.action_counts[state]
        positions = tuple(position[a] for a in coalition)
        for choice in _subprofiles(box, positions):
            if not any(
                payload in labels[succ(state, sigma)]
                for sigma in _completions(box, positions, choice)
            ):
                return False
        return True

    for s in range(n):
        sid = model.ids[s]
        label = labels[s]
        if FALSE in label:
            violations.append(f"H1 violated at state {sid}: false in label")
        for f in sorted(label):
            neg = negate(f, universe)
            if neg in label and to_text(f) <= to_text(neg):
                violations.append(
                    f"H1 violated at state {sid}: both {to_text(f)} and"
                    f" {to_text(neg)} present"
                )
        for f in sorted(label):
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
        for f in sorted(label):
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

    pairs = [
        (s, f)
        for s in range(n)
        for f in sorted(labels[s])
        if is_gamma(f)
    ]
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

                def passed(sigma: tuple[int, ...]) -> bool:
                    return (succ(s, sigma), ev1) in realized

                box = model.action_counts[s]
                if isinstance(step, Enf):
                    positions = tuple(position[a] for a in step.coalition)
                    ok = any(
                        all(
                            passed(sigma)
                            for sigma in _completions(box, positions, choice)
                        )
                        for choice in _subprofiles(box, positions)
                    )
                else:
                    positions = tuple(position[a] for a in step.coalition)
                    ok = all(
                        any(
                            passed(sigma)
                            for sigma in _completions(box, positions, choice)
                        )
                        for choice in _subprofiles(box, positions)
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
