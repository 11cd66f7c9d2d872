"""Model synthesis: component growth, assembly, extraction, saturation checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus import synthesis
from atlplus.cgm import CGM
from atlplus.checker import check_model
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
from atlplus.syntax import default_universe, is_gamma, parse, to_nnf, to_text
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
    got = {s.index: pending_rows(rows, s) for s in tab.alive_states()}
    assert got == {1: [0], 2: [0], 3: [2], 4: [], 5: [1], 6: [], 7: [], 8: []}


# ---------------------------------------------------------------------------
# Assembly


def test_assemble_golden_structure(open_tableau):
    _, tab = open_tableau
    st = assemble(tab)
    assert st.root.nid == 1
    assert [(n.nid, n.state.index, n.row) for n in st.alive_nodes()] == [
        (1, 1, 0),
        (2, 4, 1),
        (3, 5, 1),
        (4, 8, 2),
        (5, 6, 2),
        (6, 8, 3),
        (7, 7, 3),
    ]
    edges = {
        n.nid: {sig: c.nid for sig, c in sorted(n.edges.items())}
        for n in st.alive_nodes()
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
    ev = d1.gamma_formulas()[0]
    assert to_text(ev) == "<<1>>(G q | p U q)"
    assert tab.realization[(1, ev)] == 1
    committed, filler = move_cells(d1)
    assert [t.index for t in committed.targets] == [3, 4]
    assert [t.index for t in filler.targets] == [5, 6]
    st = assemble(tab)
    assert st.root.state is d1 and st.rows[st.root.row] is ev
    children = [n for n in st.nodes if n.parent is st.root]
    # The committed profiles reach D4, where the re-quantified rest
    # <<1>>p U q has rank 0, not the older D3 where it has rank 1; the
    # other cell gets a leaf colored with its oldest target.
    assert [(c.nid, c.parent_sigmas, c.state.index) for c in children] == [
        (2, ((0, 0), (0, 1)), 4),
        (3, ((1, 0), (1, 1)), 5),
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
    st = assemble(tab)
    node = st.nodes[1]
    assert node.state.index == 4 and node.row == 1
    assert st.rows[1] not in node.state.label
    children = [n for n in st.nodes if n.parent is node]
    assert [(c.parent_sigmas, c.state) for c in children] == [
        (cell.sigmas, cell.targets[0]) for cell in move_cells(node.state)
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
    st = assemble(decide(to_nnf(raw, universe), universe).tableau)
    # Compare plain counts: the default repr of a node walks the structure.
    n_nodes = len(st.nodes)
    n_states = len({n.state.index for n in st.nodes})
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
        synthesize(pre, d1.gamma_formulas()[0], d1)


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
    assert {s.index: pending_rows(rows, s) for s in tab.alive_states()} == {
        1: [],
        2: [0],
        3: [],
        4: [],
    }
    st = assemble(tab)
    assert [(n.nid, n.state.index, n.row) for n in st.alive_nodes()] == [
        (1, 1, 0),
        (2, 2, 1),
        (3, 2, 0),
        (4, 3, 1),
        (5, 4, 0),
    ]
    m = extract_cgm(st)
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
        child = next((by_sigma[s] for s in cell.sigmas if s in by_sigma), None)
        if child is None:
            child = (cell.targets[0], [])
        elif child[1]:
            child = _complete(child)
        completed.append((cell.sigmas, child))
    return state, completed


def _tree_based_assemble(tab):
    rows = eventuality_rows(tab)
    n_rows = len(rows)
    eta = tab.input
    start = rows.index(eta) if is_gamma(eta) and eta in rows else 0
    nodes = []
    component_roots = {}

    def new_node(state):
        nodes.append(HNode(nid=len(nodes) + 1, state=state))
        return nodes[-1]

    def graft_children(node, tree, row_index):
        for sigmas, subtree in tree[1]:
            child = new_node(subtree[0])
            child.parent = node
            child.parent_sigmas = sigmas
            child.row = row_index
            for sigma in sigmas:
                node.edges[sigma] = child
            graft_children(child, subtree, row_index)

    def graft(node, row_index, ev):
        node.row = row_index
        component_roots.setdefault(node.state.index, {}).setdefault(row_index, node)
        tree = (node.state, [])
        if ev is not None and ev in node.state.label:
            tree = _witness_tree(tab, ev, node.state)
        graft_children(node, _complete(tree), row_index)

    def redirect(node, target):
        for sigma in node.parent_sigmas:
            node.parent.edges[sigma] = target
        node.alive = False

    root = new_node(min(tab.satisfying_states(), key=lambda s: s.index))
    graft(root, start, rows[start] if rows else None)
    for offset in range(1, n_rows):
        row_index = (start + offset) % n_rows
        for node in [n for n in nodes if n.alive and n.is_dead_end()]:
            graft(node, row_index, rows[row_index])
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
    return nodes


def _node_fields(nodes):
    return [
        (
            n.nid,
            n.state.index,
            n.row,
            n.alive,
            n.parent.nid if n.parent else None,
            n.parent_sigmas,
            [(sigma, child.nid) for sigma, child in n.edges.items()],
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
