"""Tests of the benchmark itself.

    python3 -m pytest perfbench/check_bench.py -q

The file name keeps these out of the package's own test collection: they
run every workload twice (about two minutes on two cores).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run as bench

bench.use_checkout()

import inputs  # noqa: E402
import spans  # noqa: E402

SEED = 7
os.makedirs(bench.OUT, exist_ok=True)
with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=bench.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _run(w, t) for w in bench.WORKLOADS for t in (0, 1)}


def _files(corpus):
    out = {}
    for name, path in corpus.files.items():
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("make", [inputs.plan_translate, inputs.plan_retrieve, inputs.eval_pairs])
def test_inputs_are_a_function_of_the_seed(make):
    dirs = [tempfile.mkdtemp(dir=bench.OUT) for _ in range(3)]
    try:
        first, again, other = make(1, dirs[0]), make(1, dirs[1]), make(2, dirs[2])
        assert _files(first) == _files(again)
        assert (first.tasks, first.props) == (again.tasks, again.props)
        assert _files(first) != _files(other)
    finally:
        for d in dirs:
            shutil.rmtree(d)


def test_workload_list_matches_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(runs, workload, trace):
    code, _, result = runs[(workload, trace)]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_output_digest_is_stable_across_runs(runs, workload):
    digests = [
        [line for line in runs[(workload, t)][1] if line.startswith("digest ")] for t in (0, 1)
    ]
    assert len(digests[0]) == 1 and digests[0] == digests[1]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_p90_has_ten_samples_beyond_it(runs, workload):
    line = next(l for l in runs[(workload, 0)][1] if "_latency_p90_ms" in l)
    assert int(line.split("(")[1].split()[0]) >= 10


def _layers(runs, workload):
    return {k: v["value"] for k, v in runs[(workload, 1)][2]["metrics"].items()}


def test_translation_dominates_plan_translate(runs):
    m = _layers(runs, "plan-translate")
    assert m["trace.translate_share"] > 0.5
    assert m["verbalize.lines"] >= 10


def test_plan_translate_measures_the_cli_round(runs):
    m = _layers(runs, "plan-translate")
    assert m["cli.plan_cmd_s"] > 0 and m["cli.eval_cmd_s"] > 0
    assert 0 < m["cli.worker_busy_ratio"] <= 1.0
    assert any(line.startswith("gate: cli round") for line in runs[("plan-translate", 0)][1])


def test_translation_is_a_few_percent_of_plan_retrieve(runs):
    m = _layers(runs, "plan-retrieve")
    assert 0 < m["trace.translate_share"] < 0.05
    assert m["planner.termination.BelowThreshold"] > 0.5
    assert m["kg.ingest_duplicates"] > 1000 and m["kg.ingest_dropped"] > 0
    assert m["kg.subgraph_triplets"] > 300  # three hubs past the fanout cap of 100


def test_eval_pairs_is_all_metrics(runs):
    m = _layers(runs, "eval-pairs")
    assert m["trace.metrics_share"] > 0.5
    assert m["admissible.translate_calls"] == 0 and m["trace.translate_share"] == 0
    assert 0 < m["metrics.wmd_short_circuit_ratio"] < 0.2


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    from nsplan import metrics

    monkeypatch.setattr(metrics, "rouge1_f1", lambda pred, ref: 1.5)
    assert bench.main(["--workload", "eval-pairs", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_a_source_tree():
    bare = tempfile.mkdtemp(dir=bench.OUT)
    try:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "eval-pairs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)
