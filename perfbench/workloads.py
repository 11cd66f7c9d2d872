"""The benchmark's workloads: which formulas each one runs and why.

This module imports nothing from ``atlplus``, so ``run.py`` can list the
workloads without loading the solver. The seed changes the inputs without
changing what they mean: it permutes the conjuncts of each family formula
(a user may write them in any order) and draws the random corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CORPUS_SIZE = 2000
# Two propositions, not the generator's default three. The bounded search
# enumerates every model class once per (agents, propositions) key and
# caches it; every seed's corpus has UNSAT formulas for each of the six
# keys over p and q, but a 2-agent UNSAT formula over three propositions
# (a fresh 13 s enumeration of 7,292 classes) turns up for about one seed
# in twelve, which would make the corpus time bimodal between seeds.
CORPUS_PROPS = ("p", "q")
# Bounded search for the corpus UNSAT cross-check: at most two states and
# two actions per agent, the bound the acceptance suite uses.
CROSSCHECK_STATES = 2
CROSSCHECK_ACTIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Synthesize and certify a model for every SAT verdict.
    synth: bool
    # Search bounded models for every UNSAT verdict.
    crosscheck: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check-agents4",
            "4-agent decide only: move-vector enumeration and elimination"
            " dominate and synthesis never runs, so a synthesis change must"
            " read no change here",
            synth=False,
            crosscheck=False,
        ),
        Workload(
            "synth",
            "full synth of two opposite shapes: 4 agents (small tableau,"
            " 5.5k-state model, assembly and certification dominate) and 9"
            " untils (1 agent, big closure and tableau, small model)",
            synth=True,
            crosscheck=False,
        ),
        Workload(
            "corpus",
            "2,000 small random formulas: per-formula overhead, the only"
            " enumeration-layer load (UNSAT cross-check), and the"
            " correctness sweep",
            synth=True,
            crosscheck=True,
        ),
    )
}


def _conjoin(rng: random.Random, conjuncts: list[str]) -> str:
    order = list(conjuncts)
    rng.shuffle(order)
    return " & ".join(order)


def family_inputs(name: str, seed: int) -> list[tuple[str, bool]]:
    """(formula text, hand-derived expected verdict) for a family workload.

    The verdicts come from reading the formulas, not from the solver:

    - ``&_i <<i>>(F p_i | G q) & [[1]]F ~q`` (i=1..4) is SAT: it holds in a
      single looping state where every ``p_i`` is true and ``q`` false.
    - ``&_i <<i>>(F p_i & G r) & [[1]]F ~r`` is UNSAT: the first conjunct
      gives ``<<1>>G r``, and ``[[1]]F ~r`` is its negation.
    - ``&_i <<i>>(F p_i & G r)`` is SAT: a single looping state where every
      ``p_i`` and ``r`` are true.
    - ``<<1>>(p0 U q0 & ... & p8 U q8)`` is SAT: a single state where every
      ``q_i`` is true.
    """
    rng = random.Random(seed)
    agents = range(1, 5)
    if name == "check-agents4":
        return [
            (
                _conjoin(
                    rng,
                    [f"<<{i}>>(F p{i} | G q)" for i in agents] + ["[[1]]F ~q"],
                ),
                True,
            ),
            (
                _conjoin(
                    rng,
                    [f"<<{i}>>(F p{i} & G r)" for i in agents] + ["[[1]]F ~r"],
                ),
                False,
            ),
        ]
    if name == "synth":
        goals = _conjoin(rng, [f"p{i} U q{i}" for i in range(9)])
        return [
            (_conjoin(rng, [f"<<{i}>>(F p{i} & G r)" for i in agents]), True),
            (f"<<1>>({goals})", True),
        ]
    raise ValueError(f"{name!r} is not a family workload")
