"""Seeded random generation of normal-form formulas for property suites.

Formulas are generated directly in negation normal form: negation only on
atoms, strategic quantifiers over single-step path objectives or shallow
Boolean combinations of them.  The generator biases toward few distinct
propositions, which keeps the bounded-model search space small while still
exercising every connective.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (
    FALSE,
    TRUE,
    PathFormula,
    StateFormula,
    always,
    conj,
    disj,
    enf,
    formula_size,
    lit,
    pand,
    pnext,
    por,
    unav,
    until,
)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random formula generator."""

    agents: tuple[int, ...] = (1, 2)
    props: tuple[str, ...] = ("p", "q", "r")
    max_size: int = 12
    bool_depth: int = 1
    allow_constants: bool = False


def _pick_props(rng: random.Random, cfg: GenConfig) -> tuple[str, ...]:
    width = rng.choice([1, 1, 2, 2, len(cfg.props)])
    width = min(width, len(cfg.props))
    return tuple(cfg.props[:width])


def _literal(rng: random.Random, pool: tuple[str, ...]) -> StateFormula:
    return lit(rng.choice(pool), positive=rng.random() < 0.6)


def _coalition(rng: random.Random, cfg: GenConfig) -> tuple[int, ...]:
    options: list[tuple[int, ...]] = [()]
    for a in cfg.agents:
        options.append((a,))
    if len(cfg.agents) > 1:
        options.append(tuple(cfg.agents))
    return rng.choice(options)


def _temporal(
    rng: random.Random, cfg: GenConfig, pool: tuple[str, ...], budget: int
) -> PathFormula:
    kind = rng.choice(["next", "always", "until", "until"])
    if kind == "next" or budget <= 2:
        return pnext(_state(rng, cfg, pool, max(1, budget - 1), 0))
    if kind == "always":
        return always(_state(rng, cfg, pool, max(1, budget - 1), 0))
    left = _state(rng, cfg, pool, max(1, (budget - 1) // 2), 0)
    right = _state(rng, cfg, pool, max(1, (budget - 1) // 2), 0)
    return until(left, right)


def _path(
    rng: random.Random, cfg: GenConfig, pool: tuple[str, ...], budget: int, depth: int
) -> PathFormula:
    if depth < cfg.bool_depth and budget >= 4 and rng.random() < 0.55:
        combine = pand if rng.random() < 0.5 else por
        left = _path(rng, cfg, pool, budget // 2, depth + 1)
        right = _path(rng, cfg, pool, budget // 2, depth + 1)
        return combine(left, right)
    return _temporal(rng, cfg, pool, budget)


def _state(
    rng: random.Random,
    cfg: GenConfig,
    pool: tuple[str, ...],
    budget: int,
    nesting: int,
    top: bool = False,
) -> StateFormula:
    if cfg.allow_constants and rng.random() < 0.03:
        return TRUE if rng.random() < 0.5 else FALSE
    if budget <= 1:
        return _literal(rng, pool)
    roll = rng.random()
    # The root draw always builds structure; literals only fill leaves.
    if roll < (0.6 if top else 0.5) and nesting < 2:
        coalition = _coalition(rng, cfg)
        body = _path(rng, cfg, pool, budget - max(1, len(coalition)), 0)
        quant = enf if rng.random() < 0.5 else unav
        return quant(coalition, body)
    if (top or roll < 0.85) and budget >= 4:
        combine = conj if rng.random() < 0.5 else disj
        left = _state(rng, cfg, pool, budget // 2, nesting)
        right = _state(rng, cfg, pool, budget // 2, nesting)
        return combine(left, right)
    return _literal(rng, pool)


def random_formula(rng: random.Random, cfg: GenConfig | None = None) -> StateFormula:
    """One random normal-form state formula within the configured bounds.

    Draws are rejected until the canonical size measure fits the budget, so
    callers can rely on ``formula_size(f) <= cfg.max_size``.
    """
    cfg = cfg or GenConfig()
    while True:
        pool = _pick_props(rng, cfg)
        candidate = _state(rng, cfg, pool, cfg.max_size, 0, top=True)
        if formula_size(candidate) <= cfg.max_size:
            return candidate


def random_corpus(
    seed: int, count: int, cfg: GenConfig | None = None
) -> list[StateFormula]:
    """A reproducible list of random formulas."""
    rng = random.Random(seed)
    return [random_formula(rng, cfg) for _ in range(count)]
