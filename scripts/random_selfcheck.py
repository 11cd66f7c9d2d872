#!/usr/bin/env python3
"""End-to-end differential check on a seeded random corpus.

Every formula is decided; satisfiable ones are synthesized into a model
that must pass structural validation and the independent bounded
model-checking oracle, and that must read back from its JSON form
unchanged and with the same validation result.  Unsatisfiable ones are
cross-checked by exhaustive search over all small models (up to the
--cross-check bound on states, two actions per agent), where no model may
satisfy the formula.  Any discrepancy is printed and makes the script
exit non-zero.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from atlplus.cgm import CGM
from atlplus.checker import check_model
from atlplus.cli import prepare
from atlplus.decomposition import ClosureLimitError
from atlplus.enumeration import find_bounded_model
from atlplus.randgen import GenConfig, random_corpus
from atlplus.syntax import mentioned_props, to_text
from atlplus.synthesis import assemble, extract_cgm, validate_hintikka
from atlplus.tableau import decide


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-size", type=int, default=12)
    parser.add_argument("--agents", type=int, default=2,
                        help="agent pool for the generator")
    parser.add_argument("--cross-check", type=int, default=2, metavar="STATES",
                        help="exhaustive UNSAT search bound (0 disables)")
    args = parser.parse_args()

    cfg = GenConfig(agents=tuple(range(1, args.agents + 1)),
                    max_size=args.max_size)
    corpus = random_corpus(args.seed, args.count, cfg)

    t0 = time.perf_counter()
    sat = unsat = bad = skipped = searches = 0
    search_s = 0.0
    sizes: list[int] = []
    for i, raw in enumerate(corpus, 1):
        text = to_text(raw)
        try:
            prepared = prepare(text)
            decision = decide(prepared.normal, prepared.universe)
        except ClosureLimitError:
            skipped += 1
            continue
        if decision.sat:
            sat += 1
            model = extract_cgm(assemble(decision.tableau))
            sizes.append(model.n_states)
            violations = validate_hintikka(model, prepared.universe)
            report = check_model(model, prepared.normal, prepared.universe)
            if violations or not report.holds:
                bad += 1
                print(f"[{i}] SAT but uncertified: {text}")
                for v in violations[:5]:
                    print(f"       {v}")
                if not report.holds:
                    print("       oracle refutes the synthesized model")
            # The emitted artifact, read back as `atlplus verify` reads it.
            reloaded = CGM.from_json(model.to_json())
            if (reloaded != model
                    or validate_hintikka(reloaded, prepared.universe) != violations):
                bad += 1
                print(f"[{i}] model changes through its JSON form: {text}")
        else:
            unsat += 1
            if args.cross_check:
                t_search = time.perf_counter()
                found = find_bounded_model(
                    prepared.normal, prepared.universe,
                    tuple(sorted(mentioned_props(prepared.normal))),
                    max_states=args.cross_check, max_actions=2,
                )
                searches += 1
                search_s += time.perf_counter() - t_search
                if found is not None:
                    model, where = found
                    bad += 1
                    print(f"[{i}] UNSAT but a {model.n_states}-state model "
                          f"satisfies it at state {where}: {text}")
        if i % 100 == 0:
            print(f"... {i}/{args.count} "
                  f"({sat} sat, {unsat} unsat, {bad} bad)")

    elapsed = time.perf_counter() - t0
    print(f"done in {elapsed:.1f}s: {sat} sat, {unsat} unsat, "
          f"{bad} discrepancies, {skipped} closure-skipped, "
          f"cross-check {searches} searches in {search_s:.2f}s")
    if sizes:
        print(f"synthesized model sizes: min {min(sizes)}, "
              f"mean {sum(sizes) / len(sizes):.1f}, max {max(sizes)}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
