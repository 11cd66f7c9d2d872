"""The atlplus benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It starts ``perfbench/rep.py`` once per
repetition, one process at a time, each a fresh single-threaded interpreter,
so every repetition pays the cold cost a command-line user pays on every
call: the formula caches (``_DEC_CACHE``, ``_GAMMA_CACHE``, ``_STATE_TABLE``)
start empty. It keeps starting repetitions while the next one is predicted
to be half done within S seconds, and does at least ``MIN_REPS``.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions. With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus the
tracing overhead (traced minus untraced ``wall_s``); spans go to
``.perfbench/``. Either way it checks every outcome: family verdicts
against hand-derived ones, every SAT model by H1-H6 and the oracle, every
corpus UNSAT verdict by bounded search, and size counters for equality
between repetitions and between the trace and the solver's own ``Decision``
counts. It prints one metric per line, then the result as one JSON line,
and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
# A run must end within 180 s; no repetition may start past this.
RUN_LIMIT_S = 170.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_rep(workload: str, seed: int, traced: bool, index: int, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [sys.executable, str(ROOT / "perfbench" / "rep.py"), workload, str(seed)]
    args.append("1" if traced else "0")
    spans = ROOT / ".perfbench" / f"{workload}-seed{seed}-rep{index}.json"
    if traced:
        spans.parent.mkdir(exist_ok=True)
    args += [str(time.monotonic_ns()), str(spans)]
    try:
        proc = subprocess.run(
            args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"repetition {index} exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crash": f"repetition {index} exited {proc.returncode}: {tail[0]}"}
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over untraced repetitions of every end-to-end metric."""

    def med(values) -> float:
        return statistics.median(list(values))

    return {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        "verdict_s": (med(r["verdict_s"] for r in reps), "s"),
        "wall_s": (med(r["wall_s"] for r in reps), "s"),
        "formula_p50_ms": (med(statistics.median(r["formula_ms"]) for r in reps), "ms"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
    }


def consistency(reps: list[dict]) -> list[str]:
    """Counters must repeat exactly, traced or not, and match ``Decision``."""
    problems = []
    first = reps[0]["records"]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["records"] != first:
            problems.append(f"repetition {i}: size counters differ from repetition 0")
    for i, rep in enumerate(reps):
        if "layers" not in rep:
            continue
        layers = {k: v[0] for k, v in rep["layers"].items()}
        for metric, field in (
            ("tableau.states", "states"),
            ("tableau.prestates", "prestates"),
            ("tableau.final_states", "final"),
            ("cgm.states", "model_states"),
        ):
            expected = sum(r.get(field, 0) for r in rep["records"])
            if layers[metric] != expected:
                problems.append(
                    f"repetition {i}: trace {metric} = {layers[metric]},"
                    f" Decision/model total {expected}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "atlplus" / "__init__.py").is_file():
        print(f"error: no atlplus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reps: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(args.workload, args.seed, traced, len(reps), RUN_LIMIT_S - elapsed)
        if "crash" in rep:
            print(f"error: {rep['crash']}", file=sys.stderr)
            return 1
        reps.append(rep)
        elapsed = time.monotonic() - start
        mean = elapsed / len(reps)
        # Runs last S seconds on average: the next repetition starts if it
        # is predicted to be half done by then.
        if len(reps) >= MIN_REPS and (
            elapsed + mean / 2 > args.seconds or elapsed + mean > RUN_LIMIT_S
        ):
            break

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failures = [f for r in reps for f in r["failures"]] + consistency(reps)
    attempted = sum(len(r["records"]) for r in reps)
    failed = min(attempted, len(failures))
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for i, rep in enumerate(reps):
        print(
            f"repetition {i}{' traced' if rep['traced'] else ''}:"
            f" setup {rep['setup_s']:.4f} s, verdict {rep['verdict_s']:.4f} s,"
            f" wall {rep['wall_s']:.4f} s"
        )

    formulas = len(plain[0]["records"])
    metrics = end_to_end(plain)
    model_s = statistics.median(r["model_s"] for r in plain)
    print(f"workload {args.workload}  seed {args.seed}  formulas {formulas}")
    print(f"repetitions {len(plain)} untraced, {len(traced)} traced, fresh interpreter each")
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:.6g} {unit}")
    wl = WORKLOADS[args.workload]
    print(f"{'model_s':<26} " + (f"{model_s:.6g} s" if wl.synth else "n/a"))
    print(
        f"{'formulas_per_s':<26} "
        + (f"{formulas / metrics['wall_s'][0]:.6g} 1/s" if wl.crosscheck else "n/a")
    )
    p99 = statistics.median(percentile(r["formula_ms"], 0.99) for r in plain)
    print(
        f"{'formula_p99_ms':<26} "
        + (f"{p99:.6g} ms ({formulas} formulas a repetition)" if formulas >= 1000 else "n/a")
    )
    model_states = sum(r.get("model_states", 0) for r in plain[0]["records"])
    print(f"{'model_states':<26} " + (f"{model_states} count" if wl.synth else "n/a"))
    print(f"{'failed_ratio':<26} {failed / attempted:.6g} ({failed}/{attempted})")

    if args.trace:
        layers = {
            name: (statistics.median(r["layers"][name][0] for r in traced), unit)
            for name, (_, unit) in traced[0]["layers"].items()
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - metrics["wall_s"][0]
        layers["trace.overhead_s"] = (overhead, "s")
        for name, (value, unit) in layers.items():
            print(f"{name:<26} {value:.6g} {unit}")
        metrics = layers

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
