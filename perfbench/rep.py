"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED TRACE SPAWN_NS [SPANS_PATH]

``run.py`` starts this script once per repetition with ``src`` on
``PYTHONPATH``, so every repetition pays the cold costs a command-line user
pays: interpreter start, imports, and empty formula caches. ``SPAWN_NS`` is
the parent's ``time.monotonic_ns()`` just before the start, which makes
set-up time include the interpreter's own start. With ``TRACE`` 1 the
layers are wrapped by a :class:`Tracer` and the spans are written to
``SPANS_PATH``. The last line on stdout is the repetition's JSON record.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads
from atlplus import cgm, checker, cli, enumeration, randgen, syntax, synthesis, tableau
from tracer import Tracer

# Per-layer metrics read off span self times: metric -> span name.
SPAN_METRICS = {
    "syntax.parse_nnf_s": "syntax.prepare",
    "decomposition.closure_s": "decomposition.closure",
    "decomposition.expansions_s": "decomposition.full_expansions",
    "tableau.build_s": "tableau.build_pretableau",
    "tableau.elim_s": "tableau.eliminate_states",
    "synthesis.assemble_s": "synthesis.assemble",
    "synthesis.extract_s": "synthesis.extract_cgm",
    "synthesis.hintikka_s": "synthesis.validate_hintikka",
    "cgm.to_json_s": "cgm.to_json",
    "checker.oracle_s": "checker.check_model",
    "enumeration.crosscheck_s": "enumeration.find_bounded_model",
    "randgen.generate_s": "randgen.random_corpus",
}
# Layers whose self time is reported besides their functions' own.
SELF_LAYERS = ("decomposition", "tableau", "synthesis")
COUNTERS = {
    "decomposition.closure_size": "count",
    "decomposition.expansion_calls": "count",
    "tableau.states": "count",
    "tableau.prestates": "count",
    "tableau.move_vectors": "count",
    "tableau.edges": "count",
    "tableau.elim_rounds": "count",
    "tableau.final_states": "count",
    "tableau.max_rank": "count",
    "synthesis.nodes_created": "count",
    "synthesis.nodes_kept": "count",
    "cgm.states": "count",
    "cgm.transitions": "count",
    "cgm.json_bytes": "bytes",
    "enumeration.searches": "count",
    "enumeration.classes": "count",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the pipeline crosses.

    ``decide`` looks up ``closure``, ``full_expansions``,
    ``build_pretableau`` and ``eliminate_states`` in ``atlplus.tableau``, so
    those are wrapped where ``atlplus.tableau`` binds them.
    """
    def count_closure(c, args, result):
        c["decomposition.closure_size"] += len(result)

    def count_expansion(c, args, result):
        c["decomposition.expansion_calls"] += 1

    def count_build(c, args, tab):
        cells = [state.cells() for state in tab.states]
        c["tableau.states"] += len(tab.states)
        c["tableau.prestates"] += len(tab.prestates)
        c["tableau.edges"] += sum(len(cs) for cs in cells)
        c["tableau.move_vectors"] += sum(len(sigmas) for cs in cells for _, sigmas in cs)

    def count_elim(c, args, trace):
        tab = args[0]
        c["tableau.elim_rounds"] += len(trace)
        c["tableau.final_states"] += len(tab.alive_states())
        c["tableau.max_rank"] = max(
            c["tableau.max_rank"], max(tab.realization.values(), default=0)
        )

    def count_assemble(c, args, structure):
        c["synthesis.nodes_created"] += len(structure.nodes)
        c["synthesis.nodes_kept"] += len(structure.alive_nodes())

    def count_extract(c, args, model):
        c["cgm.states"] += model.n_states
        c["cgm.transitions"] += len(model.transitions)

    def count_json(c, args, text):
        c["cgm.json_bytes"] += len(text.encode())

    def count_search(c, args, result):
        formula, universe, props, max_states, max_actions = args
        c["enumeration.searches"] += 1
        models = enumeration.enumerate_cgms(
            len(universe), tuple(props), max_states, max_actions
        )
        c["enumeration.classes"] += len(models)

    tracer.wrap(cli, "prepare", "syntax.prepare")
    tracer.wrap(tableau, "decide", "tableau.decide")
    tracer.wrap(tableau, "closure", "decomposition.closure", count_closure)
    tracer.wrap(
        tableau, "full_expansions", "decomposition.full_expansions", count_expansion
    )
    tracer.wrap(tableau, "build_pretableau", "tableau.build_pretableau", count_build)
    tracer.wrap(tableau, "eliminate_states", "tableau.eliminate_states", count_elim)
    tracer.wrap(synthesis, "assemble", "synthesis.assemble", count_assemble)
    tracer.wrap(synthesis, "extract_cgm", "synthesis.extract_cgm", count_extract)
    tracer.wrap(synthesis, "validate_hintikka", "synthesis.validate_hintikka")
    tracer.wrap(checker, "check_model", "checker.check_model")
    tracer.wrap(cgm.CGM, "to_json", "cgm.to_json", count_json)
    tracer.wrap(
        enumeration,
        "find_bounded_model",
        "enumeration.find_bounded_model",
        count_search,
    )
    tracer.wrap(randgen, "random_corpus", "randgen.random_corpus")


def layer_metrics(tracer: Tracer) -> dict[str, list]:
    """Per-layer metrics of one traced repetition, as name -> [value, unit]."""
    by_span = tracer.self_seconds()
    out: dict[str, list] = {
        metric: [by_span.get(span, 0.0), "s"] for metric, span in SPAN_METRICS.items()
    }
    for layer in SELF_LAYERS:
        total = sum(v for k, v in by_span.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = [total, "s"]
    counters = tracer.counters
    for name, unit in COUNTERS.items():
        out[name] = [int(counters[name]), unit]
    vectors = counters["tableau.move_vectors"]
    created = counters["synthesis.nodes_created"]
    out["tableau.edges_per_vector"] = [
        counters["tableau.edges"] / vectors if vectors else 0.0,
        "ratio",
    ]
    out["synthesis.kept_ratio"] = [
        counters["synthesis.nodes_kept"] / created if created else 0.0,
        "ratio",
    ]
    out["trace.spans"] = [len(tracer.spans), "count"]
    return out


def make_inputs(workload: workloads.Workload, seed: int) -> list[tuple[str, bool | None]]:
    """Formula texts with expected verdicts (None: certified per formula)."""
    if workload.name != "corpus":
        return workloads.family_inputs(workload.name, seed)
    config = randgen.GenConfig(props=workloads.CORPUS_PROPS)
    corpus = randgen.random_corpus(seed, workloads.CORPUS_SIZE, config)
    return [(syntax.to_text(f), None) for f in corpus]


def solve(
    workload: workloads.Workload,
    text: str,
    expected: bool | None,
    failures: list[str],
) -> tuple[dict, float, float]:
    """Take one formula to a certified outcome, as ``atlplus synth`` does.

    Returns the formula's size counters and its verdict and model seconds.
    Correctness problems are appended to ``failures``.
    """
    t0 = time.perf_counter()
    prepared = cli.prepare(text)
    decision = tableau.decide(prepared.normal, prepared.universe)
    t1 = time.perf_counter()
    record = {
        "sat": decision.sat,
        "states": decision.pretableau_state_count,
        "prestates": decision.pretableau_prestate_count,
        "final": decision.final_state_count,
        "model_states": 0,
    }
    model_s = 0.0
    if expected is not None and decision.sat != expected:
        failures.append(f"verdict {decision.sat}, expected {expected}: {text}")
    elif decision.sat and workload.synth:
        model = synthesis.extract_cgm(synthesis.assemble(decision.tableau))
        violations = synthesis.validate_hintikka(model, prepared.universe)
        report = checker.check_model(model, prepared.normal, prepared.universe)
        if violations or not report.holds:
            failures.append(f"model failed certification: {text}")
        else:
            model.to_json()
        record["model_states"] = model.n_states
        model_s = time.perf_counter() - t1
    elif not decision.sat and workload.crosscheck:
        props = tuple(sorted(syntax.mentioned_props(prepared.normal)))
        found = enumeration.find_bounded_model(
            prepared.normal,
            prepared.universe,
            props,
            workloads.CROSSCHECK_STATES,
            workloads.CROSSCHECK_ACTIONS,
        )
        if found is not None:
            failures.append(f"UNSAT refuted by a bounded model: {text}")
    return record, t1 - t0, model_s


def main(argv: list[str]) -> int:
    name, seed, trace, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    workload = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    inputs = make_inputs(workload, seed)
    ready_ns = time.monotonic_ns()

    failures: list[str] = []
    records: list[dict] = []
    formula_ms: list[float] = []
    verdict_s = model_s = 0.0
    start = time.perf_counter()
    for formula_id, (text, expected) in enumerate(inputs):
        if tracer is not None:
            tracer.formula = formula_id
        t0 = time.perf_counter()
        try:
            record, v, m = solve(workload, text, expected, failures)
        except Exception as exc:  # a crash is a failed formula, not an abort
            failures.append(f"{type(exc).__name__}: {exc}: {text}")
            record, v, m = {"error": type(exc).__name__}, 0.0, 0.0
        formula_ms.append((time.perf_counter() - t0) * 1e3)
        records.append(record)
        verdict_s += v
        model_s += m
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": (ready_ns - spawn_ns) / 1e9,
        "wall_s": wall_s,
        "verdict_s": verdict_s,
        "model_s": model_s,
        "formula_ms": formula_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
