#!/usr/bin/env python3
"""Measure label-closure growth on a seeded random corpus.

For each generated formula the script computes the set of state formulas
that can ever enter a tableau label and compares its size against the
theoretical cap 2^(n^2), where n is the symbol size of the normalized
formula (coalitions cost one bit per universe agent).  The cap is
meaningful from n = 2 upward: a bare literal already has the three-element
closure {itself, true, false}, above 2^1.  The bound is far from tight in
practice; the table shows how far.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from atlplus.decomposition import closure
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import default_universe, formula_size, to_nnf, to_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-size", type=int, default=12)
    parser.add_argument(
        "--show-worst", type=int, default=3, metavar="N",
        help="print the N formulas with the largest closures",
    )
    args = parser.parse_args()

    cfg = GenConfig(max_size=args.max_size)
    corpus = random_corpus(args.seed, args.count, cfg)

    by_size: dict[int, list[int]] = defaultdict(list)
    worst: list[tuple[int, int, str]] = []
    violations = 0
    for raw in corpus:
        universe = default_universe(raw)
        normal = to_nnf(raw, universe)
        n = formula_size(normal, universe)
        c = len(closure(normal))
        by_size[n].append(c)
        worst.append((c, n, to_text(raw)))
        if n >= 2 and c >= 2 ** (n * n):
            violations += 1
            print(f"BOUND VIOLATED: size {n}, closure {c}: {to_text(raw)}")

    print(f"corpus: {args.count} formulas, seed {args.seed}, "
          f"max size {args.max_size}")
    print(f"{'size n':>6}  {'count':>5}  {'closure min':>11}  "
          f"{'mean':>7}  {'max':>5}  {'bound 2^(n^2)':>14}")
    for n in sorted(by_size):
        sizes = by_size[n]
        bound = 2 ** (n * n)
        bound_text = str(bound) if bound < 10**9 else f"~10^{len(str(bound)) - 1}"
        print(f"{n:>6}  {len(sizes):>5}  {min(sizes):>11}  "
              f"{sum(sizes) / len(sizes):>7.1f}  {max(sizes):>5}  "
              f"{bound_text:>14}")

    worst.sort(reverse=True)
    for c, n, text in worst[: args.show_worst]:
        print(f"largest closure {c} (size {n}): {text}")
    print(f"bound violations (size >= 2): {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
