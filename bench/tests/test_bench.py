"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    result = _result(_bench("--workload", "apps_cli", "--seed", "0",
                            "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_every_per_layer_metric_has_a_source(tmp_path):
    """Each declared per-layer metric is computed by a workload or the runner."""
    sources = {f"{layer}.self_s" for layer in run.LAYERS}
    sources |= {"run.cpu_s", "run.raw_wall_s", "run.speed_factor",
                "trace.overhead_ratio", "fail_ratio"}
    for workload in workloads.make_workloads(ROOT).values():
        state, setup_layers = workload.setup(0, tmp_path, 1, {})
        sources |= set(setup_layers) | set(workload.layer_metrics([], state))
    assert sources == {m["name"] for m in SPEC["per_layer"]}


def _one_pass(workload, seed, fixtures, workdir):
    state, _ = workload.setup(seed, workdir, 1, fixtures)
    return workload.run_pass(state, tracing.NullTracer())


def test_corrupted_fixture_copy_counts_as_failure(tmp_path):
    copy = tmp_path / "apps_cli.json"
    shutil.copy(BENCH / "fixtures" / "apps_cli.json", copy)
    fixtures = json.loads(copy.read_text())
    fixtures["0"]["repr"]["stdout_sha256"] = "0" * 64
    copy.write_text(json.dumps(fixtures))
    apps = workloads.make_workloads(ROOT)["apps_cli"]
    outcomes = _one_pass(apps, 0, json.loads(copy.read_text()), tmp_path)
    failed = {out.task for out in outcomes if out.failed}
    assert failed == {"repr"}
    by_task = {out.task: out.checks for out in outcomes}
    assert by_task["repr"]["stdout_fixture"] == workloads.FAIL
    assert by_task["beck"]["stdout_fixture"] == workloads.PASS


def test_seed_without_fixture_is_unchecked_not_passed(tmp_path):
    apps = workloads.make_workloads(ROOT)["apps_cli"]
    fixtures = json.loads((BENCH / "fixtures" / "apps_cli.json").read_text())
    outcomes = _one_pass(apps, 10**9, fixtures, tmp_path)
    assert not any(out.failed for out in outcomes)
    assert {out.checks["stdout_fixture"] for out in outcomes} == {
        workloads.UNCHECKED}
    both = next(out for out in outcomes if out.task == "rich-enum-both")
    assert both.checks["pivot_equals_brute"] == workloads.PASS


def _span(sid, parent, start, end, name="pivot.x", pass_index=0):
    sp = tracing.Span(sid, parent, name, start, "run", pass_index, {})
    sp.end = end
    return sp


def test_self_time_from_synthetic_spans():
    spans = [
        _span(0, None, 0.0, 10.0, "bench.task"),
        _span(1, 0, 1.0, 4.0, "cli.main"),
        _span(2, 1, 2.0, 3.0, "io.load_points"),
        # overlaps its sibling and runs past its parent's end
        _span(3, 0, 3.0, 12.0, "pivot.check_reduction"),
        _span(4, None, 20.0, 21.5, "bench.task", pass_index=1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 1.0, 1: 2.0, 2: 1.0, 3: 9.0, 4: 1.5})
    assert tracing.layer_self_times(spans) == pytest.approx(
        {"bench": 2.5, "cli": 2.0, "io": 1.0, "pivot": 9.0})
    assert tracing.per_pass_top_level(spans) == pytest.approx([10.0, 1.5])


def test_jobs_above_cpu_count_is_refused():
    proc = _bench("--workload", "reduction_exhaustive", "--seed", "0",
                  "--seconds", "1", "--jobs", str((os.cpu_count() or 1) + 1))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--jobs" in proc.stderr


def test_benchmark_alone_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "apps_cli", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
