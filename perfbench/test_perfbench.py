"""The benchmark's own test: it pins counters, never times.

    python3 -m pytest perfbench/test_perfbench.py

Each repetition runs in a fresh interpreter, as in a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECISION_FIELDS = ("states", "prestates", "final")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def reps(request):
    """Two untraced repetitions and one traced one of a workload."""
    name = request.param
    return [run.run_rep(name, 5, traced, i, 170) for i, traced in enumerate((False, False, True))]


def test_counters_repeat_and_match_decision(reps):
    for rep in reps:
        assert "crash" not in rep and rep["failures"] == []
    first, second, traced = reps
    assert first["records"] == second["records"]
    assert traced["records"] == first["records"]
    assert all(r["prestates"] > 0 for r in first["records"])
    layers = {name: value for name, (value, _) in traced["layers"].items()}
    totals = {f: sum(r[f] for r in first["records"]) for f in DECISION_FIELDS}
    assert layers["tableau.states"] == totals["states"]
    assert layers["tableau.prestates"] == totals["prestates"]
    assert layers["tableau.final_states"] == totals["final"]
    assert layers["cgm.states"] == sum(r["model_states"] for r in first["records"])
    assert run.consistency(reps) == []


def test_metric_names_match_benchmark_json(reps):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    untraced = run.end_to_end(reps[:2])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in untraced.items()
    ]
    layers = [(name, unit) for name, (_, unit) in reps[2]["layers"].items()]
    layers.append(("trace.overhead_s", "s"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(value > 0 for value, _ in untraced.values())


def test_consistency_reports_differing_counters():
    record = {"sat": True, "states": 3, "prestates": 2, "final": 3, "model_states": 2}
    reps = [{"records": [record]}, {"records": [dict(record, states=4)]}]
    assert run.consistency(reps) == [
        "repetition 1: size counters differ from repetition 0"
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
