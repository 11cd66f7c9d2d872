"""Model synthesis: component growth, assembly, extraction, saturation checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import synthesis
from atlplus.cgm import CGM
from atlplus.checker import check_model
from atlplus.decomposition import closure, gamma_components
from atlplus.enumeration import find_bounded_model
from atlplus.randgen import GenConfig, random_corpus
from atlplus.synthesis import (
    HNode,
    SynthesisError,
    assemble,
    eventuality_rows,
    extract_cgm,
    hintikka_labels,
    move_cells,
    pending_rows,
    validate_hintikka,
)
from atlplus.syntax import (
    GAMMA,
    always,
    conj,
    default_universe,
    disj,
    enf,
    implies,
    lit,
    lnot,
    mentioned_props,
    parse,
    pand,
    pnext,
    por,
    release,
    sometime,
    to_nnf,
    to_text,
    unav,
    until,
)
from atlplus.tableau import decide

OPEN = "<<1>>(p U q | G q) & [[2]](F p & G ~q)"
UNIVERSE = (1, 2)


@pytest.fixture(scope="module")
def open_tableau():
    f = to_nnf(parse(OPEN), UNIVERSE)
    return f, decide(f, UNIVERSE).tableau


# ---------------------------------------------------------------------------
# Eventuality bookkeeping


def test_eventuality_rows_in_first_appearance_order(open_tableau):
    _, tab = open_tableau
    rows = eventuality_rows(tab)
    assert [to_text(r) for r in rows] == [
        "<<1>>(G q | p U q)",
        "[[2]](G ~q & true U p)",
        "<<1>>p U q",
        "[[2]]G ~q",
    ]


def test_pending_rows_exclude_locally_realized(open_tableau):
    _, tab = open_tableau
    rows = eventuality_rows(tab)
    got = {s.index: pending_rows(rows, s, tab.realization) for s in tab.alive_states()}
    assert got == {1: [0], 2: [0], 3: [2], 4: [], 5: [1], 6: [], 7: [], 8: []}


# ---------------------------------------------------------------------------
# Assembly


def _profiles(move):
    """Every action profile of a move cell, in lexicographic order."""
    return tuple(sorted(sigma for cell in move.cells for sigma in cell.sigmas))


def _profile_map(hs, node):
    """Action profile -> child of ``node``, read off its move cells."""
    return {
        sigma: child
        for move, child in zip(hs.partitions[node.state.index], node.children)
        for sigma in _profiles(move)
    }


def test_assemble_golden_structure(open_tableau):
    _, tab = open_tableau
    hs = assemble(tab)
    assert hs.root.nid == 1
    assert [(n.nid, n.state.index, n.row) for n in hs.alive_nodes()] == [
        (1, 1, 0),
        (2, 4, 1),
        (3, 5, 1),
        (4, 8, 2),
        (5, 6, 2),
        (6, 8, 3),
        (7, 7, 3),
    ]
    edges = {
        n.nid: {sig: c.nid for sig, c in sorted(_profile_map(hs, n).items())}
        for n in hs.alive_nodes()
    }
    assert edges == {
        1: {(0, 0): 2, (0, 1): 2, (1, 0): 3, (1, 1): 3},
        2: {(0, 0): 4},
        3: {(0, 0): 5},
        4: {(0, 0): 6},
        5: {(0, 0): 7},
        6: {(0, 0): 4},  # loops back into row 2's component
        7: {(0, 0): 7},  # self-loop closes the obligation-free dead end
    }


def test_assemble_routes_committed_profiles_to_the_best_realizer(open_tableau):
    _, tab = open_tableau
    d1 = tab.states[0]
    ev = next(iter(d1.linked))
    assert to_text(ev) == "<<1>>(G q | p U q)"
    assert tab.realization[(1, ev)] == 1
    committed, filler = move_cells(d1)
    assert [t.index for t in committed.targets] == [3, 4]
    assert [t.index for t in filler.targets] == [5, 6]
    hs = assemble(tab)
    assert hs.root.state is d1 and hs.rows[hs.root.row] is ev
    children = [n for n in hs.nodes if n.parent is hs.root]
    assert hs.root.children == children
    # The committed profiles reach D4, where the re-quantified rest
    # <<1>>p U q has rank 0, not the older D3 where it has rank 1; the
    # other cell gets a leaf colored with its oldest target.
    cells = [committed, filler]
    got = [(c.nid, c.slot, _profiles(cells[c.slot]), c.state.index) for c in children]
    assert got == [
        (2, 0, ((0, 0), (0, 1)), 4),
        (3, 1, ((1, 0), (1, 1)), 5),
    ]
    next_ev = d1.linked[ev].next_ev
    assert to_text(next_ev) == "<<1>>p U q"
    assert tab.realization[(3, next_ev)] == 1
    assert tab.realization[(4, next_ev)] == 0
    # Consecutive nids: the rank-0 realizer is left as a leaf, so both
    # children were dead ends when the row pass grafted row 1 onto them.
    assert [c.row for c in children] == [1, 1]


def test_assemble_grows_a_simple_component_without_the_rows_eventuality(
    open_tableau,
):
    _, tab = open_tableau
    hs = assemble(tab)
    node = hs.nodes[1]
    assert node.state.index == 4 and node.row == 1
    assert hs.rows[1] not in node.state.label
    children = [n for n in hs.nodes if n.parent is node]
    assert [(c.slot, c.state) for c in children] == [
        (slot, cell.targets[0]) for slot, cell in enumerate(move_cells(node.state))
    ]


def test_assemble_partitions_each_state_once(monkeypatch):
    # The final tableau no longer changes, so one call partitions each
    # state's moves once, however many nodes of that state it grows.
    calls = []

    def counted(state):
        calls.append(state.index)
        return move_cells(state)

    monkeypatch.setattr(synthesis, "move_cells", counted)
    raw = parse(" & ".join(f"<<{i}>>(F p{i} & G r)" for i in (1, 2, 3)))
    universe = default_universe(raw)
    hs = assemble(decide(to_nnf(raw, universe), universe).tableau)
    n_nodes = len(hs.nodes)
    n_states = len({n.state.index for n in hs.nodes})
    n_calls = len(calls)
    assert n_calls == n_states == 25 < n_nodes


@pytest.mark.parametrize(
    "synthesize",
    [lambda tab, ev, state: assemble(tab)],
    ids=["assemble"],
)
def test_assemble_requires_a_final_tableau(synthesize, open_tableau):
    # A pretableau has no realization ranks yet; every reader of them
    # refuses it rather than grow components from an empty rank table.
    from atlplus.tableau import build_pretableau

    f, _ = open_tableau
    pre = build_pretableau(f, UNIVERSE)
    d1 = pre.states[0]
    with pytest.raises(SynthesisError, match="fully eliminated"):
        synthesize(pre, next(iter(d1.linked)), d1)


def test_assemble_rejects_unsat_tableaus():
    f = to_nnf(parse("p & ~p"), (1,))
    tab = decide(f, (1,)).tableau
    with pytest.raises(SynthesisError):
        assemble(tab)


def test_assemble_handles_deferred_obligations_at_dead_ends():
    # The second state defers the outer always-until conjunction: closing
    # its dead end must keep cycling through that row's realizing
    # component rather than shortcut to the oldest row.
    text = "[[]]X [[2]](G q & r U p)"
    f = parse(text)
    uni = default_universe(f)
    fn = to_nnf(f, uni)
    tab = decide(fn, uni).tableau
    rows = eventuality_rows(tab)
    assert [to_text(r) for r in rows] == ["<<>>(G q & r U p)", "<<>>G q"]
    assert {
        s.index: pending_rows(rows, s, tab.realization) for s in tab.alive_states()
    } == {
        1: [],
        2: [0],
        3: [],
        4: [],
    }
    hs = assemble(tab)
    assert [(n.nid, n.state.index, n.row) for n in hs.alive_nodes()] == [
        (1, 1, 0),
        (2, 2, 1),
        (3, 2, 0),
        (4, 3, 1),
        (5, 4, 0),
    ]
    m = extract_cgm(hs)
    assert [",".join(sorted(p)) for p in m.props] == ["", "q,r", "q,r", "p,q", "q"]
    assert dict(sorted(m.transitions.items())) == {
        (0, (0,)): 1,
        (1, (0,)): 2,
        (2, (0,)): 3,
        (3, (0,)): 4,
        (4, (0,)): 4,
    }
    assert check_model(m, fn, uni).holds
    assert validate_hintikka(m, uni) == []


FAMILIES = {
    "F&G 3": " & ".join(f"<<{i}>>(F p{i} & G r)" for i in (1, 2, 3)),
    "F&G 4": " & ".join(f"<<{i}>>(F p{i} & G r)" for i in (1, 2, 3, 4)),
    "dis4": " & ".join(f"<<{i}>>(F p{i} | G q)" for i in (1, 2, 3, 4))
    + " & [[1]]F ~q",
    "F&G 5": " & ".join(f"<<{i}>>(F p{i} & G r)" for i in (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize(
    "name, n_states",
    [("F&G 3", 41), ("F&G 4", 113), ("dis4", 187), ("F&G 5", 289)],
)
def test_assemble_links_dead_ends_to_existing_components(name, n_states):
    # One component per (row, state): copying one under every dead end
    # gave 291, 5,524, 38,988 and 134,965 states.  The count follows state
    # numbering: while joins were binary, dis4 gave 187, 195 or 211 states
    # by conjunct order; it gives 187 in every order.
    raw = parse(FAMILIES[name])
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    m = extract_cgm(assemble(decide(f, universe).tableau))
    assert m.n_states == n_states
    assert validate_hintikka(m, universe) == []
    assert check_model(m, f, universe).holds


def test_remainders_never_return_to_an_earlier_eventuality():
    # Linking is sound because a remainder (next_ev) either repeats its
    # eventuality or moves to one it never comes back from: a cycle of
    # the structure then tracks one fixed eventuality, and the rows the
    # cycle passes through reach that eventuality's realizing component.
    texts = list(FAMILIES.values()) + [OPEN, "[[]]X [[2]](G q & r U p)"]
    formulas = [parse(t) for t in texts]
    formulas += random_corpus(5, 300, GenConfig(props=("p", "q")))
    formulas += random_corpus(5, 300, GenConfig(bool_depth=2, max_size=16))
    later = {}
    for raw in formulas:
        for g in closure(to_nnf(raw, default_universe(raw))):
            if g.kind is GAMMA:
                later[g] = {c.next_ev for c in gamma_components(g)} - {None, g}
    assert len(later) > 500
    # Peeling the eventualities whose remainders are all peeled empties
    # the graph exactly when its only cycles are self-loops.
    while later:
        peeled = [g for g, rest in later.items() if not rest & later.keys()]
        assert peeled, sorted(to_text(g) for g in later)[:5]
        for g in peeled:
            del later[g]


def test_reprs_stay_short(open_tableau):
    # Linked structures share nodes: a repr must not follow the links.
    _, tab = open_tableau
    root = assemble(tab).root
    for obj in (root, root.state, tab.prestates[0]):
        assert len(repr(obj)) < 2000


# Reference assembly through explicit trees: each component is built as a
# (state, [(sigmas, subtree)]) tree -- a witness tree routed by the ranks,
# then completed to one child per move cell -- and copied node by node into
# the structure.  Growing components in place must give the same nodes.


def _witness_tree(tab, ev, state):
    ranks = tab.realization
    if ranks[(state.index, ev)] == 0:
        return state, []
    component = state.linked[ev]
    ev1 = component.next_ev
    grouped = {}
    for cell in state.successors:
        if component.step not in cell.steps:
            continue
        ranked = [t for t in cell.target.alive_states() if (t.index, ev1) in ranks]
        best = min(ranked, key=lambda t: (ranks[(t.index, ev1)], t.index))
        grouped.setdefault(best.index, (best, []))[1].extend(cell.sigmas)
    groups = sorted((sorted(sigmas), target) for target, sigmas in grouped.values())
    return state, [(tuple(sigmas), _witness_tree(tab, ev1, t)) for sigmas, t in groups]


def _complete(tree):
    state, children = tree
    by_sigma = {sigma: child for sigmas, child in children for sigma in sigmas}
    completed = []
    for cell in move_cells(state):
        child = next((by_sigma[s] for s in _profiles(cell) if s in by_sigma), None)
        if child is None:
            child = (cell.targets[0], [])
        elif child[1]:
            child = _complete(child)
        completed.append((_profiles(cell), child))
    return state, completed


def _tree_based_assemble(tab):
    rows = eventuality_rows(tab)
    n_rows = len(rows)
    eta = tab.input
    start = rows.index(eta) if eta.kind is GAMMA and eta in rows else 0
    nodes = []
    component_roots = {}

    def new_node(state):
        nodes.append(HNode(nid=len(nodes) + 1, state=state))
        return nodes[-1]

    def graft_children(node, tree, row_index):
        # The completed tree lists one subtree per move cell, in order.
        for slot, (_, subtree) in enumerate(tree[1]):
            child = new_node(subtree[0])
            child.parent = node
            child.slot = slot
            child.row = row_index
            node.children.append(child)
            graft_children(child, subtree, row_index)

    def graft(node, row_index):
        # One component per (row, state): a later dead end links to it.
        present = component_roots.setdefault(node.state.index, {})
        if row_index in present:
            node.parent.children[node.slot] = present[row_index]
            node.alive = False
            return
        present[row_index] = node
        node.row = row_index
        tree = (node.state, [])
        ev = rows[row_index] if rows else None
        if ev is not None and ev in node.state.label:
            tree = _witness_tree(tab, ev, node.state)
        graft_children(node, _complete(tree), row_index)

    root = new_node(min(tab.satisfying_states(), key=lambda s: s.index))
    graft(root, start)
    for offset in range(1, n_rows):
        row_index = (start + offset) % n_rows
        for node in [n for n in nodes if n.alive and n.is_dead_end()]:
            graft(node, row_index)
    for node in nodes:
        if not node.alive or not node.is_dead_end():
            continue
        present = component_roots.get(node.state.index, {})
        deferred = pending_rows(rows, node.state, tab.realization)
        if deferred:
            row_index = min(deferred, key=lambda i: (i - node.row - 1) % n_rows)
        elif present:
            row_index = min(present)
        else:
            row_index = (node.row + 1) % n_rows if n_rows else 0
        graft(node, row_index)
    return nodes


def _node_fields(nodes):
    return [
        (
            n.nid,
            n.state.index,
            n.row,
            n.alive,
            n.parent.nid if n.parent else None,
            n.slot,
            [child.nid for child in n.children],
        )
        for n in nodes
    ]


def test_assemble_matches_the_tree_based_reference():
    texts = [
        " & ".join(f"<<{i}>>(F p{i} & G r)" for i in (1, 2, 3)),
        "[[]]X [[2]](G q & r U p)",
        OPEN,
    ]
    corpus = [parse(t) for t in texts] + random_corpus(
        5, 300, GenConfig(props=("p", "q"))
    )
    compared = 0
    for raw in corpus:
        universe = default_universe(raw)
        d = decide(to_nnf(raw, universe), universe)
        if not d.sat:
            continue
        got = _node_fields(assemble(d.tableau).nodes)
        expected = _node_fields(_tree_based_assemble(d.tableau))
        # Report the first differing node: a diff of whole structures is slow.
        first = next((pair for pair in zip(got, expected) if pair[0] != pair[1]), None)
        assert first is None and len(got) == len(expected), (to_text(raw), first)
        compared += 1
    assert compared > 200


# ---------------------------------------------------------------------------
# Extraction


def test_extract_cgm_gives_a_merged_move_cell_every_profile_of_its_cells():
    # At the root of <<1>>G <<2>>G p, the tableau cells of (0, 0) and (0, 1)
    # commit to different steps but reach the same live state, so one move
    # cell holds both: its one child must receive both profiles.
    raw = parse("<<1>>G <<2>>G p")
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    hs = assemble(decide(f, universe).tableau)
    root = hs.root
    merged = hs.partitions[root.state.index][0]
    assert [cell.sigmas for cell in merged.cells] == [((0, 0),), ((0, 1),)]
    assert merged.cells[0].steps != merged.cells[1].steps
    m = extract_cgm(hs)
    index = {n.nid: i for i, n in enumerate(hs.alive_nodes())}
    child = index[root.children[0].nid]
    assert m.transitions[(index[root.nid], (0, 0))] == child
    assert m.transitions[(index[root.nid], (0, 1))] == child
    assert validate_hintikka(m, universe) == []
    assert check_model(m, f, universe).holds


def test_extract_cgm_refuses_a_node_missing_a_child(open_tableau):
    # A node with fewer children than move cells would drop the profiles of
    # the last cells from the model: a program fault, not a malformed file.
    _, tab = open_tableau
    hs = assemble(tab)
    hs.root.children.pop()
    with pytest.raises(SynthesisError, match="node 1 does not cover the action box of D1"):
        extract_cgm(hs)


def test_extract_cgm_golden(open_tableau):
    f, tab = open_tableau
    m = extract_cgm(assemble(tab))
    assert m.agents == 2
    assert m.n_states == 7
    assert m.ids == [0, 1, 2, 3, 4, 5, 6]
    assert m.initial == 0
    assert [",".join(sorted(p)) for p in m.props] == [
        "p", "q", "", "p,q", "p", "p,q", "",
    ]
    assert m.action_counts == [
        (2, 2), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1),
    ]
    assert dict(sorted(m.transitions.items())) == {
        (0, (0, 0)): 1,
        (0, (0, 1)): 1,
        (0, (1, 0)): 2,
        (0, (1, 1)): 2,
        (1, (0, 0)): 3,
        (2, (0, 0)): 4,
        (3, (0, 0)): 5,
        (4, (0, 0)): 6,
        (5, (0, 0)): 3,
        (6, (0, 0)): 6,
    }
    m.validate()
    assert check_model(m, f, UNIVERSE).holds


def test_extract_cgm_annotates_saturated_labels(open_tableau):
    f, tab = open_tableau
    m = extract_cgm(assemble(tab))
    assert m.hintikka is not None
    assert sorted(m.hintikka) == [str(i) for i in range(7)]
    labels = hintikka_labels(m, UNIVERSE)
    assert f in labels[0]
    assert sorted(m.hintikka["6"]) == [
        "[[2]]G ~q",
        "[[2]]X [[2]]G ~q",
        "[[2]]X [[2]]G ~q & ~q",
        "~q",
    ]


def test_extracted_model_round_trips_through_json(open_tableau):
    f, tab = open_tableau
    m = extract_cgm(assemble(tab))
    m2 = CGM.from_json(m.to_json())
    assert m2.to_json_dict() == m.to_json_dict()
    assert check_model(m2, f, UNIVERSE).holds
    assert validate_hintikka(m2, UNIVERSE) == []


# ---------------------------------------------------------------------------
# Saturation validation on corrupted annotations


def _golden_model():
    f = to_nnf(parse(OPEN), UNIVERSE)
    tab = decide(f, UNIVERSE).tableau
    return extract_cgm(assemble(tab))


def _mutated(edit):
    data = _golden_model().to_json_dict()
    edit(data)
    return CGM.from_json_dict(data)


def test_validate_hintikka_accepts_the_golden_model():
    assert validate_hintikka(_golden_model(), UNIVERSE) == []


def test_h1_violation_on_injected_contradiction():
    m = _mutated(lambda d: d["hintikka"]["2"].extend(["p", "~p"]))
    errs = validate_hintikka(m, UNIVERSE)
    assert any(e.startswith("H1 violated at state 2") for e in errs)


def test_h1_violation_on_injected_false():
    m = _mutated(lambda d: d["hintikka"]["2"].append("false"))
    errs = validate_hintikka(m, UNIVERSE)
    assert any("false in label" in e for e in errs)


def test_h2_violation_on_conjunction_without_conjunct():
    m = _mutated(lambda d: d["hintikka"]["2"].append("p & r"))
    errs = validate_hintikka(m, UNIVERSE)
    assert any(e.startswith("H2 violated at state 2") for e in errs)


def test_h3_violation_on_disjunction_without_disjunct():
    m = _mutated(lambda d: d["hintikka"]["2"].append("r | s"))
    errs = validate_hintikka(m, UNIVERSE)
    assert any(e.startswith("H3 violated at state 2") for e in errs)


def test_h4_violation_on_gamma_without_component():
    m = _mutated(lambda d: d["hintikka"]["2"].append("<<1>>(r U s)"))
    errs = validate_hintikka(m, UNIVERSE)
    assert any(e.startswith("H4 violated at state 2") for e in errs)


def test_h5_violation_on_unwitnessed_successor_formula():
    m = _mutated(lambda d: d["hintikka"]["2"].append("<<1>>X r"))
    errs = validate_hintikka(m, UNIVERSE)
    assert any(
        e.startswith("H5 violated at state 2") and "<<1>>X r" in e
        for e in errs
    )


def test_h5_violation_on_avoidable_successor_formula():
    # At state 0 agent 1 picks the successor: its action 0 leads to q (state
    # 1), its action 1 to state 2.  So agent 1 can avoid q, and [[1]]X q
    # fails; agent 2 cannot, since agent 1 may answer any of its actions
    # with 0, and [[2]]X q holds.
    m = _mutated(lambda d: d["hintikka"]["0"].extend(["[[1]]X q", "[[2]]X q"]))
    assert validate_hintikka(m, UNIVERSE) == [
        "H5 violated at state 0: no co-action response for [[1]]X q",
    ]


def _until_behind_unav(reach_q):
    """s0 defers [[1]](p U q) through a [[1]] step; s1 realizes it.

    From s0 the profile (a1, a2) leads to s1 when ``reach_q(a1, a2)``, and
    back to s0 otherwise.  The eventuality is realized at s0 exactly when
    every action of agent 1 has a response of agent 2 that reaches s1.
    """
    return CGM(
        agents=2,
        ids=["s0", "s1"],
        props=[frozenset({"p"}), frozenset({"q"})],
        action_counts=[(2, 2), (1, 1)],
        transitions={
            **{
                (0, (a1, a2)): 1 if reach_q(a1, a2) else 0
                for a1 in (0, 1)
                for a2 in (0, 1)
            },
            (1, (0, 0)): 1,
        },
        initial=0,
        hintikka={
            "s0": [
                "p",
                "[[1]]p U q",
                "[[1]]X [[1]]p U q & p",
                "[[1]]X [[1]]p U q",
            ],
            "s1": ["q", "[[1]]p U q"],
        },
    )


def test_h6_realized_through_a_cannot_avoid_step():
    # Agent 2 reaches q by matching agent 1's action.
    m = _until_behind_unav(lambda a1, a2: a1 == a2)
    assert validate_hintikka(m, UNIVERSE) == []


def test_h6_violation_when_the_cannot_avoid_step_is_avoidable():
    # Only (0, 0) reaches q, so agent 1 avoids it by playing 1 forever.
    m = _until_behind_unav(lambda a1, a2: (a1, a2) == (0, 0))
    assert validate_hintikka(m, UNIVERSE) == [
        "H6 violated at state s0: [[1]]p U q is never realized",
    ]


def test_validator_memos_keep_states_apart():
    # States 2 and 5 have the same action box, so they share one grid of
    # choices.  <<1>>X p holds at 2 (its successor carries p) and fails at 5.
    def edit(d):
        for sid in ("2", "5"):
            d["hintikka"][sid].extend(["p", "~p", "<<1>>X r", "<<1>>X p"])

    m = _mutated(edit)
    assert m.action_counts[2] == m.action_counts[5]
    assert validate_hintikka(m, UNIVERSE) == [
        "H1 violated at state 2: both p and ~p present",
        "H5 violated at state 2: no action witness for <<1>>X r",
        "H1 violated at state 5: both p and ~p present",
        "H5 violated at state 5: no action witness for <<1>>X p",
        "H5 violated at state 5: no action witness for <<1>>X r",
    ]


def test_h6_violation_on_forever_deferred_eventuality():
    # A self-loop that always defers p U q and never reaches q.
    m = CGM(
        agents=1,
        ids=["s"],
        props=[frozenset({"p"})],
        action_counts=[(1,)],
        transitions={(0, (0,)): 0},
        initial=0,
        hintikka={
            "s": ["p", "<<1>>p U q", "<<1>>X <<1>>p U q & p", "<<1>>X <<1>>p U q"]
        },
    )
    errs = validate_hintikka(m, (1,))
    assert any(e.startswith("H6") and "<<1>>p U q" in e for e in errs)
    # The same loop with q realized locally is coherent on H6.
    m_ok = CGM(
        agents=1,
        ids=["s"],
        props=[frozenset({"q"})],
        action_counts=[(1,)],
        transitions={(0, (0,)): 0},
        initial=0,
        hintikka={"s": ["q", "<<1>>p U q", "<<1>>X true"]},
    )
    errs_ok = validate_hintikka(m_ok, (1,))
    assert not any(e.startswith("H6") for e in errs_ok)


def test_validate_hintikka_requires_annotations():
    data = _golden_model().to_json_dict()
    data.pop("hintikka")
    m = CGM.from_json_dict(data)
    with pytest.raises(SynthesisError):
        validate_hintikka(m, UNIVERSE)


def test_validate_hintikka_checks_universe_size():
    with pytest.raises(SynthesisError):
        validate_hintikka(_golden_model(), (1, 2, 3))


# ---------------------------------------------------------------------------
# End-to-end property: every satisfiable formula yields a certified model


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_synthesized_models_are_certified(seed):
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=10))
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    d = decide(f, universe)
    if not d.sat:
        return
    m = extract_cgm(assemble(d.tableau))
    m.validate()
    assert check_model(m, f, universe).holds
    assert validate_hintikka(m, universe) == []


@pytest.mark.parametrize(
    "text",
    [
        "<<2>>X ~p & <<2>>p U p",
        "<<2>>G [[2]]p U ~p",
        "[[2]](<<1>>X r) U q",
        "[[1]]G <<>>q U ~p | p",
    ],
)
def test_unsorted_universe_maps_agents_in_sorted_order(text):
    # The tableau, the validator and the oracle all give the smallest agent
    # position 0, so the order the universe lists its agents in is immaterial.
    models = []
    for universe in [(1, 2), (2, 1)]:
        f = to_nnf(parse(text), universe)
        d = decide(f, universe)
        assert d.sat
        m = extract_cgm(assemble(d.tableau))
        assert validate_hintikka(m, universe) == []
        assert check_model(m, f, universe).holds
        models.append(m.to_json())
    assert models[0] == models[1]


def _mixed_state(rng, depth):
    """A raw state formula over p and q; quantified objectives mix bare state
    formulas with temporal atoms, and surface connectives occur throughout."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return lit(rng.choice("pq"), rng.random() < 0.6)
    if roll < 0.4:
        return lnot(_mixed_state(rng, depth - 1))
    if roll < 0.55:
        mk = rng.choice([conj, disj, implies])
        return mk(_mixed_state(rng, depth - 1), _mixed_state(rng, depth - 1))
    quant = rng.choice([enf, unav])
    return quant(rng.choice([(), (1,), (2,), (1, 2)]), _mixed_path(rng, depth - 1))


def _mixed_path(rng, depth):
    def state():
        return _mixed_state(rng, min(depth, 1))

    def temporal():
        kind = rng.choice("XGFUR")
        if kind in "UR":
            return (until if kind == "U" else release)(state(), state())
        return {"X": pnext, "G": always, "F": sometime}[kind](state())

    parts = [state(), temporal()] + [rng.choice([state, temporal])()]
    out = parts[0]
    for part in rng.sample(parts[1:], rng.randint(1, 2)):
        out = rng.choice([pand, por])(out, part)
    return out


def test_mixed_path_objectives_are_certified():
    # Objectives such as <<1>>(p & X q): a state formula in a path position
    # next to temporal atoms, which the random corpus never generates.
    rng = random.Random(17)
    universe = (1, 2)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        quant = rng.choice([enf, unav])
        raw = quant(rng.choice([(1,), (2,), (1, 2)]), _mixed_path(rng, 2))
        if rng.random() < 0.3:
            raw = rng.choice([conj, disj])(raw, _mixed_state(rng, 2))
        f = to_nnf(raw, universe)
        d = decide(f, universe)
        verdicts[d.sat] += 1
        if d.sat:
            m = extract_cgm(assemble(d.tableau))
            assert validate_hintikka(m, universe) == [], to_text(raw)
            assert check_model(m, f, universe).holds, to_text(raw)
            assert check_model(m, raw, universe).holds, to_text(raw)
        else:
            props = tuple(sorted(mentioned_props(f)))
            found = find_bounded_model(f, universe, props, max_states=2)
            assert found is None, to_text(raw)
    assert min(verdicts.values()) >= 20, verdicts
