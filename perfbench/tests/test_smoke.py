"""Smoke test of the benchmark on a tiny config (32 cells, 32 steps, 40 queries).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import hiermor.rb  # noqa: E402
import spans  # noqa: E402
from hiermor.config import parse_config, sample_parameters  # noqa: E402

TINY = """
[mesh]
n_cells = 32
[time]
n_steps = 32
[hierarchy]
retrain_every = 5
trust_threshold = 30
[sweep]
n_queries = 40
seed = 42
"""


@pytest.fixture(scope="module")
def tiny():
    config = parse_config(TINY)
    return config, [
        sample_parameters(dataclasses.replace(config.sweep, seed=seed), config.box)
        for seed in (42, 43, 44, 45)
    ]


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_untraced_run_prints_every_end_to_end_metric(tiny, declared):
    config, lists = tiny
    result, report = harness.run_workload("tiny", 42, 0.0, False, config, lists)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert report["sweeps"] > len(lists)
    assert result["attempted"] == 40 * report["sweeps"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(declared["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["end_to_end"]) == set(harness.END_TO_END)
    assert report["end_to_end"]["bound_violations"]["value"] == 0
    assert report["fingerprint"]["reproduced_in_every_sweep"]
    assert report["truth"]["checked"] == 40
    assert set(report["metadata"]["blas_threads"]) == set(harness.BLAS_THREAD_VARS)
    table = harness.format_table(report)
    for name in harness.END_TO_END:
        assert name in table
    json.dumps(report)


def test_traced_run_reports_every_layer_and_self_times_add_up(tiny, declared):
    config, lists = tiny
    result, report = harness.run_workload("tiny", 42, 0.0, True, config, lists)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(declared["per_layer"])
    assert report["absent_layers"] == []
    traced = report["traced_sweep"]
    assert traced["adds_up"]
    assert traced["self_time_sum_s"] == pytest.approx(traced["wall_s"],
                                                      rel=harness.SPAN_GAP_SHARE)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    answers = sum(metrics[f"hierarchy.answers.{t}"] for t in harness.TIERS)
    assert answers == 40
    assert metrics["fem.solve_fom.calls"] == metrics["hierarchy.answers.FOM"] > 0
    assert metrics["rb.enrich.calls"] == metrics["fem.solve_fom.calls"]


def test_span_check_fails_on_uncovered_time_or_overlong_child():
    tracer = spans.Tracer()
    with tracer.span("sweep"):
        with tracer.span("child"):
            pass
    own = spans.self_times(tracer.spans)
    wall = tracer.spans[0].duration
    assert harness.spans_add_up(own, wall)
    assert not harness.spans_add_up(own, 2 * wall)
    tracer.spans[1].end = tracer.spans[0].end + wall  # child outlasts its parent
    assert not harness.spans_add_up(spans.self_times(tracer.spans), wall)


def test_missing_layer_is_absent_not_zero(tiny, monkeypatch):
    config, lists = tiny
    monkeypatch.delattr(hiermor.rb, "hapod")  # 33 snapshots never reach HAPOD
    result, report = harness.run_workload("tiny", 42, 0.0, True, config, lists)
    assert result["correct"]
    assert report["absent_layers"] == ["pod.hapod"]
    assert not any(name.startswith("pod.hapod.") for name in result["metrics"])
    assert "pod.pod.calls" in result["metrics"]


def test_traced_restores_the_package(tiny):
    original = hiermor.rb.project
    with spans.traced(spans.Tracer()):
        assert hiermor.rb.project is not original
    assert hiermor.rb.project is original


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "desk", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
