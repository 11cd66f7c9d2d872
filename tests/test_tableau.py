"""Pretableau construction, elimination, and satisfiability verdicts."""

import gc
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from atlplus.decomposition import ClosureLimitError, closure, realized_now
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import (
    SUCCESSOR,
    default_universe,
    parse,
    to_nnf,
    to_text,
)
from atlplus.tableau import _next_layout, build_pretableau, decide, eliminate_states

CLOSED = "<<1>>(p U q | G q) & <<2>>(F p & G ~q)"
OPEN = "<<1>>(p U q | G q) & [[2]](F p & G ~q)"
UNIVERSE = (1, 2)


def run(text, universe=None):
    f = parse(text)
    universe = universe or default_universe(f)
    return decide(to_nnf(f, universe), universe)


# ---------------------------------------------------------------------------
# Golden runs


def test_closed_golden_is_unsat_with_frozen_counts():
    d = run(CLOSED, UNIVERSE)
    assert not d.sat
    assert d.pretableau_state_count == 11
    assert d.pretableau_prestate_count == 7
    assert d.final_state_count == 6


def test_closed_golden_elimination_set():
    d = run(CLOSED, UNIVERSE)
    tab = d.tableau
    dead = {s.index for s in tab.states if not s.alive}
    assert dead == {1, 2, 5, 6, 10}
    assert {s.index for s in tab.alive_states()} == {3, 4, 7, 8, 9, 11}
    # All five fall in one round, all to the unrealized-eventuality rule.
    assert tab.elimination_trace == [{"unrealized": [1, 2, 5, 6, 10], "stuck": []}]


def test_closed_golden_sample_labels():
    d = run(CLOSED, UNIVERSE)
    by_index = {s.index: s for s in d.tableau.states}
    assert sorted(to_text(g) for g in by_index[4].label) == [
        "<<1,2>>X true",
        "<<1>>p U q",
        "q",
    ]
    assert sorted(to_text(g) for g in by_index[7].label) == [
        "<<1,2>>X true",
        "true",
    ]


def test_open_golden_is_sat_with_no_elimination():
    d = run(OPEN, UNIVERSE)
    assert d.sat
    assert d.pretableau_state_count == 8
    assert d.final_state_count == 8
    assert d.tableau.elimination_trace == []


def test_open_golden_realization_ranks():
    d = run(OPEN, UNIVERSE)
    ranks = {
        (si, to_text(g)): r for (si, g), r in d.tableau.realization.items()
    }
    assert ranks == {
        (1, "<<1>>(G q | p U q)"): 1,
        (1, "[[2]](G ~q & true U p)"): 0,
        (2, "<<1>>(G q | p U q)"): 1,
        (2, "[[2]](G ~q & true U p)"): 0,
        (3, "<<1>>p U q"): 1,
        (4, "<<1>>p U q"): 0,
        (5, "[[2]](G ~q & true U p)"): 1,
        (6, "[[2]](G ~q & true U p)"): 0,
        (7, "[[2]]G ~q"): 0,
    }


def test_satisfying_states_contain_the_input():
    d = run(OPEN, UNIVERSE)
    sats = d.tableau.satisfying_states()
    assert [s.index for s in sats] == [1, 2]
    for s in sats:
        assert d.tableau.input in s.label


# ---------------------------------------------------------------------------
# The successor-prestate table for mixed enforceable/unavoidable steps


def test_next_rule_sixteen_row_table():
    """Every action profile routes payloads per the commit/co-commit rule."""
    f = to_nnf(parse("<<1>>X a & <<1,2>>X b & [[2]]X c & [[1]]X d"), (1, 2))
    tab = build_pretableau(f, (1, 2))
    d1 = tab.states[0]
    assert [to_text(g) for g in d1.enf_steps] == ["<<1>>X a", "<<1,2>>X b"]
    assert [to_text(g) for g in d1.unav_steps] == ["[[2]]X c", "[[1]]X d"]
    expected = {
        (0, 0): {"a"},
        (0, 1): {"a"},
        (0, 2): {"a"},
        (0, 3): {"a", "d"},
        (1, 0): {"true"},
        (1, 1): {"b"},
        (1, 2): {"true"},
        (1, 3): {"d"},
        (2, 0): {"c"},
        (2, 1): {"c"},
        (2, 2): {"c"},
        (2, 3): {"d"},
        (3, 0): {"true"},
        (3, 1): {"true"},
        (3, 2): {"d"},
        (3, 3): {"c"},
    }
    moves = {sigma: cell.target for cell in d1.successors for sigma in cell.sigmas}
    assert set(moves) == set(expected)
    for sigma, want in expected.items():
        got = {to_text(g) for g in moves[sigma].label}
        assert got == want, f"profile {sigma}: {got} != {want}"


@pytest.mark.parametrize(
    "text, committed, cells",
    [
        (
            "<<1>>X a & <<1,2>>X b & [[2]]X c & [[1]]X d",
            {
                "<<1>>X a": [(0, 0), (0, 1), (0, 2), (0, 3)],
                "<<1,2>>X b": [(1, 1)],
                "[[2]]X c": [(2, 0), (2, 1), (2, 2), (3, 3)],
                "[[1]]X d": [(0, 3), (1, 3), (2, 3), (3, 2)],
            },
            None,
        ),
        (
            # Both steps share the payload p, so the vectors committed to
            # either one still lead to the single prestate {p}.
            "<<1>>X p & [[2]]X p",
            {
                "<<1>>X p": [(0, 0), (0, 1)],
                "[[2]]X p": [(1, 0), (1, 1)],
            },
            [({"p"}, [(0, 0), (0, 1), (1, 0), (1, 1)])],
        ),
    ],
    ids=["four_step", "shared_payload"],
)
def test_move_vectors_for_successor_formulas(text, committed, cells):
    f = to_nnf(parse(text), (1, 2))
    tab = build_pretableau(f, (1, 2))
    d1 = tab.states[0]
    steps = d1.enf_steps + d1.unav_steps
    assert {
        to_text(g): sorted(
            sigma for cell in d1.successors if g in cell.steps for sigma in cell.sigmas
        )
        for g in steps
    } == committed
    if cells is not None:
        assert [
            ({to_text(g) for g in pre.label}, sorted(sigmas))
            for pre, sigmas in d1.cells()
        ] == cells


def test_steps_sharing_a_payload_are_ordered_by_formula():
    # Formulas hash by identity, so the label set iterates in an order that
    # varies between processes; a payload tie must not fall back to it.
    f = to_nnf(parse("<<1>>X p & <<1,2>>X p"), (1, 2))
    d1 = build_pretableau(f, (1, 2)).states[0]
    assert [to_text(g) for g in d1.enf_steps] == ["<<1,2>>X p", "<<1>>X p"]


# The 4-agent family formulas (as the benchmark's seed 7 orders them) and the
# 5-agent F&G family: pretableau states, prestates, final states, cells and
# move vectors, summed over all states.
AGENTS4_SAT = (
    "[[1]]F ~q & <<1>>(F p1 | G q) & <<4>>(F p4 | G q)"
    " & <<2>>(F p2 | G q) & <<3>>(F p3 | G q)"
)
AGENTS4_UNSAT = (
    "<<3>>(F p3 & G r) & <<4>>(F p4 & G r) & <<2>>(F p2 & G r)"
    " & [[1]]F ~r & <<1>>(F p1 & G r)"
)
AGENTS5_FG = " & ".join(f"<<{i}>>(F p{i} & G r)" for i in range(1, 6))


def _reference_layout(k, enf_positions, unav_outside):
    """The successor rule run vector by vector: the reference for layouts."""
    m = len(enf_positions)
    l = len(unav_outside)
    all_positions = frozenset(range(k))
    cells = {}
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
        if key not in cells:
            cells[key] = []
        cells[key].append(sigma)
    return list(cells.items())


def _random_coalition(rng, k):
    # The empty and the grand coalition are drawn often on purpose.
    kind = rng.randrange(4)
    if kind == 0:
        return frozenset()
    if kind == 1:
        return frozenset(range(k))
    return frozenset(i for i in range(k) if rng.random() < 0.5)


def test_layout_matches_the_per_vector_successor_rule():
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 4)
        l = rng.randint(0, 3)
        m = rng.randint(1 if l == 0 else 0, 4 - l)
        enf_positions = tuple(_random_coalition(rng, k) for _ in range(m))
        unav_outside = tuple(
            frozenset(range(k)) - _random_coalition(rng, k) for _ in range(l)
        )
        seen.add((k, m, l))
        got = _next_layout(k, enf_positions, unav_outside)
        want = _reference_layout(k, enf_positions, unav_outside)
        assert [(key, list(sigmas)) for key, sigmas in got] == want
        for _, sigmas in got:
            assert list(sigmas) == sorted(sigmas)
    assert len(seen) > 30


def test_states_with_one_coalition_signature_share_their_vectors():
    d = run(AGENTS4_UNSAT)
    by_signature = {}
    for s in d.tableau.states:
        signature = (
            tuple(g.coalition for g in s.enf_steps),
            tuple(g.coalition for g in s.unav_steps),
        )
        by_signature.setdefault(signature, []).append(s)
    assert max(len(group) for group in by_signature.values()) > 1
    for first, *rest in by_signature.values():
        for s in rest:
            assert len(s.successors) == len(first.successors)
            for cell, shared in zip(s.successors, first.successors):
                assert cell.sigmas is shared.sigmas
    distinct = {id(c.sigmas) for s in d.tableau.states for c in s.successors}
    per_signature = sum(len(g[0].successors) for g in by_signature.values())
    assert len(distinct) == per_signature


def test_states_with_one_step_set_share_their_moves():
    d = run(AGENTS4_SAT)
    first_by_steps = {}
    for s in d.tableau.states:
        steps = frozenset(g for g in s.label if g.kind is SUCCESSOR)
        first = first_by_steps.setdefault(steps, s)
        assert s.successors is first.successors
        assert s.enf_steps is first.enf_steps
        assert s.unav_steps is first.unav_steps
    assert len(d.tableau.states) == 4381
    assert len(first_by_steps) == 512
    assert len({id(s.successors) for s in d.tableau.states}) == 512


@pytest.mark.parametrize(
    "text, sat, counts",
    [
        (AGENTS4_SAT, True, (4381, 261, 4315, 30_974, 387_330)),
        (AGENTS4_UNSAT, False, (277, 85, 258, 2_691, 40_411)),
        (AGENTS5_FG, True, (1056, 244, 1056, 17_816, 1_342_601)),
    ],
    ids=["agents4-sat", "agents4-unsat", "agents5-fg"],
)
def test_multi_agent_family_golden_counts(text, sat, counts):
    d = run(text)
    cells = [c for s in d.tableau.states for c in s.successors]
    assert d.sat is sat
    assert (
        d.pretableau_state_count,
        d.pretableau_prestate_count,
        d.final_state_count,
        len(cells),
        sum(len(c.sigmas) for c in cells),
    ) == counts


# ---------------------------------------------------------------------------
# Elimination against the per-pair reference


def _reference_realization(tab):
    """Ranks found by testing every cell's target states for every pair."""
    pairs = [(s, g) for s in tab.alive_states() for g in s.linked]
    rank = {}
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
                continue
            ev1 = component.next_ev
            if all(
                any(
                    rank.get((t.index, ev1), level) < level
                    for t in cell.target.states
                    if t.alive
                )
                for cell in s.successors
                if component.step in cell.steps
            ):
                rank[(s.index, g)] = level
                changed = True
    return rank


def _reference_eliminate(tab):
    """Elimination whose stuck rule scans each cell's target states."""
    trace = []
    while True:
        rank = _reference_realization(tab)
        tab.realization = rank
        unrealized = [
            s
            for s in tab.alive_states()
            if any((s.index, g) not in rank for g in s.linked)
        ]
        for s in unrealized:
            s.alive = False
        stuck = [
            s
            for s in tab.alive_states()
            if any(not any(t.alive for t in c.target.states) for c in s.successors)
        ]
        for s in stuck:
            s.alive = False
        if not unrealized and not stuck:
            break
        trace.append(
            {
                "unrealized": [s.index for s in unrealized],
                "stuck": [s.index for s in stuck],
            }
        )
    tab.elimination_trace = trace


# The k = 3 families: many states share each step set.
FG3 = " & ".join(f"<<{i}>>(F p{i} & G r)" for i in range(1, 4))
DIS3 = " & ".join(f"<<{i}>>(F p{i} | G q)" for i in range(1, 4)) + " & [[1]]F ~q"
UNSAT3 = FG3 + " & [[1,2,3]]F ~r"


def test_elimination_matches_the_per_pair_reference():
    texts = [AGENTS4_SAT, AGENTS4_UNSAT, OPEN, FG3, DIS3, UNSAT3]
    formulas = [parse(t) for t in texts]
    formulas += random_corpus(5, 300, GenConfig(props=("p", "q")))
    deep_ranks = multi_round = stuck = 0
    for raw in formulas:
        universe = default_universe(raw)
        f = to_nnf(raw, universe)
        got = build_pretableau(f, universe)
        eliminate_states(got)
        want = build_pretableau(f, universe)
        _reference_eliminate(want)
        assert got.realization == want.realization, to_text(raw)
        assert got.elimination_trace == want.elimination_trace, to_text(raw)
        assert [s.alive for s in got.states] == [s.alive for s in want.states]
        deep_ranks += max(got.realization.values(), default=0) > 1
        multi_round += len(got.elimination_trace) >= 2
        stuck += any(batch["stuck"] for batch in got.elimination_trace)
    # Deeper ranks exercise the per-level reset of the misses; later rounds
    # rank again after removals; stuck removals read the step-set verdicts.
    assert deep_ranks > 0
    assert multi_round > 0
    assert stuck > 0


def test_elimination_tests_each_pair_against_its_label_once(monkeypatch):
    # One removal round, so ranking runs twice; the label test runs once.
    calls = []

    def counted(path, label):
        calls.append(path)
        return realized_now(path, label)

    raw = parse(AGENTS4_SAT)
    universe = default_universe(raw)
    tab = build_pretableau(to_nnf(raw, universe), universe)
    monkeypatch.setattr("atlplus.tableau.realized_now", counted)
    eliminate_states(tab)
    assert len(tab.elimination_trace) == 1
    assert len(calls) == sum(len(s.linked) for s in tab.states) == 15_720


# ---------------------------------------------------------------------------
# Every tableau, pinned

TABLEAU_GOLDEN = Path(__file__).parent / "golden" / "tableau_sha256.json"


def _tableau_digest(raw):
    """sha256 over everything ``decide`` leaves in the tableau.

    Prestates with their states; each state's label, alive flag, links
    (gamma formula -> rendered component, by key), steps and cells (target,
    steps, vectors); the ranks, the elimination trace and the verdict.
    """
    universe = default_universe(raw)
    d = decide(to_nnf(raw, universe), universe)
    tab = d.tableau

    def keys(formulas):
        return sorted(g.key for g in formulas)

    h = hashlib.sha256()
    for pre in tab.prestates:
        h.update(repr((pre.index, keys(pre.label), [s.index for s in pre.states])).encode())
    cells_text = {}
    for s in tab.states:
        shared = id(s.successors)
        if shared not in cells_text:
            cells_text[shared] = repr(
                [(c.target.index, keys(c.steps), c.sigmas) for c in s.successors]
            )
        links = sorted((g.key, c.rendered.key) for g, c in s.linked.items())
        steps = ([g.key for g in s.enf_steps], [g.key for g in s.unav_steps])
        h.update(repr((s.index, keys(s.label), s.alive, links, steps)).encode())
        h.update(cells_text[shared].encode())
    ranks = sorted((i, g.key, r) for (i, g), r in tab.realization.items())
    h.update(repr((ranks, tab.elimination_trace, d.sat)).encode())
    return h.hexdigest()


def _golden_tableau_inputs():
    """OPEN, CLOSED, the 4-agent family formulas and two seeded corpora."""
    formulas = [parse(t) for t in (OPEN, CLOSED, AGENTS4_SAT, AGENTS4_UNSAT)]
    formulas += random_corpus(7, 300, GenConfig(props=("p", "q")))
    formulas += random_corpus(5, 100, GenConfig(bool_depth=2, max_size=16))
    return formulas


def tableau_digests():
    """Input text -> tableau digest; ``tableau_sha256.json`` holds its output."""
    return {to_text(raw): _tableau_digest(raw) for raw in _golden_tableau_inputs()}


def test_every_tableau_matches_golden_digests():
    golden = json.loads(TABLEAU_GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 382
    assert tableau_digests() == golden


# ---------------------------------------------------------------------------
# Structural rules


def test_trivial_step_added_when_no_successor_formula():
    d = run("p & q", (1,))
    s = d.tableau.states[0]
    steps = [g for g in s.label if g.kind is SUCCESSOR]
    assert [to_text(g) for g in steps] == ["<<1>>X true"]


def test_links_are_read_off_the_expansion_before_the_unconditional_step():
    # D4's expansion renders the until's q-component.  The unconditional
    # step added after it renders <<1>>X true, an earlier component, which
    # must not take over the link.
    d = run("<<1>>(G p | (<<1>>X true) | p U q)")
    d4 = d.tableau.states[3]
    assert sorted(to_text(g) for g in d4.label) == [
        "<<1>>(G p | <<1>>X true | p U q)",
        "<<1>>X true",
        "q",
    ]
    assert {to_text(g): to_text(c.rendered) for g, c in d4.linked.items()} == {
        "<<1>>(G p | <<1>>X true | p U q)": "q"
    }


def test_states_deduplicate_by_label_across_prestates():
    # Both disjuncts lead to the same successor state set; the pretableau
    # shares states globally by label.
    d = run(OPEN, UNIVERSE)
    labels = [frozenset(s.label) for s in d.tableau.states]
    assert len(labels) == len(set(labels))


def test_stuck_state_elimination():
    # An enforceable step into an inconsistent payload leaves the move
    # vector with no surviving target, so the state falls to the
    # dead-move-vector rule.
    d = run("<<1>>X (p & ~p)", (1,))
    assert not d.sat
    assert d.tableau.elimination_trace == [{"unrealized": [], "stuck": [1]}]


def test_inconsistent_input_has_no_states():
    d = run("p & ~p", (1,))
    assert not d.sat
    assert d.pretableau_state_count == 0


# ---------------------------------------------------------------------------
# Verdict regressions


SAT_CASES = [
    "p",
    "<<1>>X p",
    "<<1>>G p",
    "<<1>>(p U q)",
    "<<1>>(p U true)",
    "[[1]](p U true)",
    "<<1>>(p U (q & r))",
    "<<1>>(F (p & q) & G true)",
    "<<>>(X (p & q) & X p)",
    "<<1>>(X (p & q) & X q)",
    "<<1>>(G (p & q) & F p)",
    "<<2>>(X p & X (q | p))",
    "<<1>>F (p & q & r)",
    "[[2]](X (<<2>>X p & p) & X p)",
    "[[]]X [[2]](G q & r U p)",
    "<<1>>G p & <<1>>F ~p",  # different strategies may witness each conjunct
    OPEN,
]

UNSAT_CASES = [
    "p & ~p",
    "false",
    "<<1>>X (p & ~p)",
    "<<1>>G p & <<2>>F ~p",
    "<<>>G p & <<>>F ~p",
    CLOSED,
]


@pytest.mark.parametrize("text", SAT_CASES)
def test_satisfiable_cases(text):
    assert run(text).sat


@pytest.mark.parametrize("text", UNSAT_CASES)
def test_unsatisfiable_cases(text):
    assert not run(text).sat


def test_negation_flips_golden_verdicts():
    # The open golden is satisfiable and not valid; its negation is too.
    f = parse(OPEN)
    universe = default_universe(f)
    from atlplus.syntax import negate

    neg = negate(to_nnf(f, universe), universe)
    assert decide(neg, universe).sat


# ---------------------------------------------------------------------------
# Invariants on random inputs


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_cells_partition_the_action_box(seed):
    """Per state, the move cells partition its action profiles."""
    (raw,) = random_corpus(seed, 1, GenConfig(max_size=10))
    universe = default_universe(raw)
    d = decide(to_nnf(raw, universe), universe)
    for s in d.tableau.alive_states():
        seen = []
        for _, sigmas in s.cells():
            seen.extend(sigmas)
        n_actions = len(s.enf_steps) + len(s.unav_steps)
        box = itertools.product(range(n_actions), repeat=len(universe))
        assert sorted(seen) == list(box)
        assert len(seen) == len(set(seen))


@settings(max_examples=60, deadline=None)
@given(hst.integers(min_value=0, max_value=10_000))
def test_labels_are_subsets_of_the_closure(seed):
    # Labels live in the input's closure, except for the trivial successor
    # formula patched into successor-free states.
    from atlplus.tableau import _unconditional_step

    (raw,) = random_corpus(seed, 1, GenConfig(max_size=10))
    universe = default_universe(raw)
    f = to_nnf(raw, universe)
    d = decide(f, universe)
    allowed = set(closure(f)) | {_unconditional_step(universe)}
    for s in d.tableau.states:
        assert set(s.label) <= allowed


def test_decide_is_deterministic():
    d1 = run(OPEN, UNIVERSE)
    d2 = run(OPEN, UNIVERSE)
    assert [sorted(g.key for g in s.label) for s in d1.tableau.states] == [
        sorted(g.key for g in s.label) for s in d2.tableau.states
    ]
    assert d1.tableau.elimination_trace == d2.tableau.elimination_trace


@pytest.mark.parametrize("enabled", [True, False])
def test_decide_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    during = []

    def recording_closure(f, limit):
        during.append(gc.isenabled())
        return closure(f, limit)

    monkeypatch.setattr("atlplus.tableau.closure", recording_closure)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(OPEN, UNIVERSE).sat
        assert gc.isenabled() is enabled
        f = to_nnf(parse(OPEN), UNIVERSE)
        with pytest.raises(ClosureLimitError):
            decide(f, UNIVERSE, max_closure=4)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
