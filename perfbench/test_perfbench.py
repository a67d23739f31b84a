"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run  # sets up the import path of anglemerge
import anglemerge
import checker
import workloads
from anglemerge import engine, pipeline
from tracing import Tracer


@pytest.fixture(scope="module")
def valid_outcome():
    data = anglemerge.gen_subspace_normal(anglemerge.SubspaceSpec(n=30, r=4, L=3, N=90, seed=3))
    case = workloads.Case(data=data, seed=3)
    outcome, _ = workloads.observe(workloads.WORKLOADS["seeded-normal-4000"], case,
                                   anglemerge.cluster_dataset(data, seed=3))
    assert outcome.crossed and outcome.l_hat > 1
    return outcome


def test_checker_accepts_a_real_result(valid_outcome):
    assert checker.problems(valid_outcome) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: dataclasses.replace(o, labels=o.labels[:-1]),
    lambda o: dataclasses.replace(o, labels=o.labels.astype(np.float64)),
    lambda o: dataclasses.replace(o, l_hat=o.l_hat + 1),
    lambda o: dataclasses.replace(o, trace_k=o.trace_k[::-1]),
    lambda o: dataclasses.replace(o, crossed=False),
    lambda o: dataclasses.replace(o, labels=np.where(o.labels == 0, 1, o.labels)),
    lambda o: dataclasses.replace(o, exit_code=checker.EXIT_NO_CROSSING),
], ids=["label-count", "label-dtype", "l_hat-vs-trace", "trace-order", "crossed-flag",
        "distinct-labels", "exit-code"])
def test_checker_rejects_a_corrupted_result(valid_outcome, corrupt):
    assert checker.problems(corrupt(valid_outcome))


def test_checker_rejects_an_unexpected_initial_k(valid_outcome):
    assert checker.problems(valid_outcome, expected_initial_k=valid_outcome.initial_k + 1)


def test_checker_accepts_a_no_crossing_result(valid_outcome):
    never = dataclasses.replace(
        valid_outcome, zeta=[np.inf] * len(valid_outcome.zeta), crossed=False, l_hat=1,
        labels=np.zeros_like(valid_outcome.labels), exit_code=checker.EXIT_NO_CROSSING)
    assert checker.problems(never) == []
    assert checker.problems(dataclasses.replace(never, labels=valid_outcome.labels))


def test_fingerprint_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.FINGERPRINTS.read_text())
    recorded["cli-dependent-600"] = "0" * 64
    tampered = tmp_path / "fingerprints.json"
    tampered.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "FINGERPRINTS", tampered)
    code = run.main(["--workload", "cli-dependent-600", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "fingerprints.json" in captured.err


def test_recorded_fingerprints_match_the_generators():
    recorded = json.loads(run.FINGERPRINTS.read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        assert run.check_fingerprint(w) == recorded[w.name]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(monkeypatch, capsys, trace, section):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SWEEP_N", (60, 120, 240))
    code = run.main(["--workload", "cli-dependent-600", "--seed", "2", "--seconds", "0.5",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["geometry.reads_during_merge"]["value"] == 0


def test_tracer_restores_the_program_and_self_times_add_up():
    data = anglemerge.gen_subspace_normal(anglemerge.SubspaceSpec(n=30, r=4, L=3, N=90, seed=5))
    original = pipeline.cluster_dataset
    original_merge = engine.Clustering.__dict__["merge"]
    tracer = Tracer()
    tracer.call = "one"
    with tracer.installed():
        assert anglemerge.cluster_dataset is not original
        anglemerge.cluster_dataset(data, seed=5)
    assert anglemerge.cluster_dataset is original and pipeline.cluster_dataset is original
    assert engine.Clustering.__dict__["merge"] is original_merge
    root = next(s for s in tracer.spans if s.name == "pipeline.cluster_dataset")
    assert {s.name for s in tracer.spans} >= {
        "geometry.compute_angles", "engine.initial_clustering", "geometry.grouped_sums",
        "engine.run_merging", "engine.merge", "engine.select_clustering"}
    assert sum(s.self_seconds for s in tracer.spans) == pytest.approx(root.seconds, rel=1e-9)
    assert tracer.counts["one"]["geometry.reads_during_merge"] == 0


def test_tail_is_the_highest_percentile_with_ten_calls_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, level = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and level == 75.0
