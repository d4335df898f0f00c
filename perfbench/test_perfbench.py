"""Self-check of the benchmark harness at tiny mesh sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fplm  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name, trace, seed=1):
    return harness.measure(fplm, name, seed, 0.05, trace, tiny=True)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace):
    detail, result = _measure(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    assert detail["seed"] == 1 and detail["failed_ratio"] == 0.0
    assert json.loads(json.dumps(detail)) == detail


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    for group, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[group]} == table


def test_folded_drawing_fails_a_gate_that_expects_certified(monkeypatch):
    certified = harness.WORKLOADS["open-surface"].expect
    inp = harness.build_input(fplm, harness.WORKLOADS["folded-foreign"], 1, True)
    rep = harness.run_pipeline(fplm, inp)
    assert harness.gate(certified, rep.outcome, 1e-10)

    monkeypatch.setattr(harness.Workload, "expect_at", lambda self, tiny: certified)
    _, result = _measure("folded-foreign", False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_relabelling_changes_ids_but_not_outcomes(name):
    workload = harness.WORKLOADS[name]
    inputs = [harness.build_input(fplm, workload, seed, True) for seed in (1, 2)]
    assert inputs[0].mesh_json != inputs[1].mesh_json
    outcomes = [harness.run_pipeline(fplm, inp).outcome for inp in inputs]
    for outcome in outcomes:
        assert harness.gate(workload.expect_at(True), outcome, 1e-10) == []
    assert harness.invariant(outcomes[0]) == harness.invariant(outcomes[1])


def test_traced_repetition_matches_untraced_and_restores_every_attribute():
    workload = harness.WORKLOADS["open-surface"]
    inp = harness.build_input(fplm, workload, 1, True)
    wrapped = [
        (fplm.mapping, "solve_spd"),
        (fplm.validity, "orient2d"),
        (fplm.geometry, "orient2d"),
        (fplm.simplicial, "mesh_faces"),
        (fplm, "run_fplm"),
        (fplm.geometry, "Fraction"),
    ]
    originals = [getattr(mod, attr) for mod, attr in wrapped]
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(getattr(m, a) is not o for (m, a), o in zip(wrapped, originals))
        traced = harness.run_pipeline(fplm, inp)
    assert all(getattr(m, a) is o for (m, a), o in zip(wrapped, originals))
    untraced = harness.run_pipeline(fplm, inp)
    assert traced.outcome == untraced.outcome

    metrics = harness.layer_metrics(tracer, spans.Tracer(), 1.0)
    assert metrics["mapping.rounds_run"] == 2
    assert metrics["solver.n_free.round1"] == inp.n_vertices - 3
    assert 0 < metrics["geometry.orient2d_exact_calls"] < metrics["geometry.orient2d_calls"]
    assert metrics["simplicial.mesh_faces_calls"] >= 1
    parents = {s.name: s.parent for s in tracer.spans}
    assert tracer.spans[parents["solver.solve_spd"]].name == "mapping.run_fplm"
    assert all(t >= 0.0 for t in tracer.self_times())


def test_each_sample_is_scaled_by_the_loop_passes_around_it(monkeypatch):
    passes = iter([0.010, 0.030, 0.020, 0.040])
    monkeypatch.setattr(harness, "reference_loop", lambda: next(passes))
    results, scales, loops = harness._paced(lambda: "x", count=3)
    assert results == ["x"] * 3
    assert loops == [0.010, 0.030, 0.020, 0.040]
    ref = harness.REFERENCE_LOOP_S
    assert scales == pytest.approx([ref / 0.020, ref / 0.025, ref / 0.030])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open-surface",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
