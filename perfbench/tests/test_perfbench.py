"""Smoke and self-checks of the benchmark (tiny system sizes).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers.PER_LAYER_METRICS
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    self_metrics = set(layers.SELF_TIME_METRIC.values())
    assert self_metrics <= {name for name, _unit in layers.PER_LAYER_METRICS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "4", "--trace", "0", "--tiny")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for name, unit in run.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0
        assert re.search(rf"^# {re.escape(name)} \S+ {re.escape(unit)}$", proc.stdout, re.M)
    assert set(metrics) == {name for name, _unit in run.END_TO_END}
    assert "# failed_frac 0.000000 1" in proc.stdout
    assert re.search(r"^# first_record_s \S+ s ", proc.stdout, re.M)
    assert re.search(r"^# set-up measured \d+ times", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_adds_up(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny")
    result = result_of(proc)
    assert result["correct"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER_METRICS}
    for name, unit in layers.PER_LAYER_METRICS:
        assert result["metrics"][name]["unit"] == unit
        assert re.search(rf"^# {re.escape(name)} \S+ {re.escape(unit)}$", proc.stdout, re.M)
    self_metrics = set(layers.SELF_TIME_METRIC.values())
    self_total = sum(metrics[name] for name in self_metrics)
    assert self_total + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    # no second is counted twice: every part of the sum is non-negative
    assert all(metrics[name] >= 0 for name in self_metrics)
    assert metrics["unattributed_s"] >= -1e-3
    assert metrics["trace.overhead_s"] == pytest.approx(
        metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    )
    assert "tracing overhead" in proc.stdout


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    from workloads import KernelMixed, Outcome

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    digests = reference["workloads"]["kernel_mixed"]["tiny"]
    key = sorted(digests)[0]
    digests[key]["messages"] += 1
    workload = KernelMixed(seed=run.DEFAULT_SEED, tiny=True, work_dir=str(tmp_path))
    workload.setup()
    outcome = Outcome(reference=digests)
    workload.run(outcome)
    workload.close()
    assert outcome.attempted == 3 and outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0  # failed_frac
    assert any(key in error for error in outcome.errors)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "vec_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_in_process_path_matches_the_protocol_adapter(tmp_path):
    """The benchmark's direct run_aer calls give the records execute_spec gives."""
    from repro.experiments.sweep import execute_spec
    from workloads import KernelMixed, Outcome, VecAdversaries

    for cls in (KernelMixed, VecAdversaries):
        workload = cls(seed=3, tiny=True, work_dir=str(tmp_path))
        workload.setup()
        outcome = Outcome(reference=None)
        workload.run(outcome)
        assert outcome.failed == 0
        for spec in workload.specs():
            record = execute_spec(spec)
            digest = outcome.digests[spec.key]
            assert (digest["messages"], digest["bits"], digest["rounds"]) == (
                record.total_messages, record.total_bits, record.rounds
            )


def test_tracer_self_times_add_up_across_nesting_generators_and_threads():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def items():
        for _ in range(3):
            leaf_wrapped()
            yield 1

    def outer():
        assert sum(items_wrapped()) == 3
        worker = threading.Thread(target=leaf_wrapped)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        time.sleep(0.01)

    leaf_wrapped = tracer.wrap("leaf", leaf)
    items_wrapped = tracer.wrap("items", items)
    outer_wrapped = tracer.wrap("outer", outer)
    start = time.perf_counter()
    outer_wrapped()
    wall = time.perf_counter() - start

    leaf_layer, outer_layer = tracer.layers["leaf"], tracer.layers["outer"]
    assert leaf_layer.calls == 4 and leaf_layer.self_s >= 0.04
    assert tracer.layers["items"].self_s < leaf_layer.self_s
    assert outer_layer.calls == 1 and 0.01 <= outer_layer.self_s < 0.03
    assert tracer.self_seconds() == pytest.approx(outer_layer.total_s, abs=1e-9)
    assert tracer.self_seconds() <= wall


def test_tracer_never_counts_concurrent_thread_spans_twice():
    """Two threads' spans overlap each other and the main thread's span: the
    layers get at most the main span's time, and no self time is negative."""
    tracer = Tracer()
    leaf_wrapped = tracer.wrap("leaf", lambda: time.sleep(0.05))

    def outer():
        workers = [threading.Thread(target=leaf_wrapped) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=5)

    outer_wrapped = tracer.wrap("outer", outer)
    tracer.reset()
    start = time.perf_counter()
    outer_wrapped()
    leaf_wrapped()  # a main-thread call of the same layer
    wall = time.perf_counter() - start

    leaf_layer, outer_layer = tracer.layers["leaf"], tracer.layers["outer"]
    assert leaf_layer.calls == 3
    assert outer_layer.self_s >= 0
    assert 0.1 <= leaf_layer.self_s <= outer_layer.total_s + 0.06
    assert tracer.self_seconds() == pytest.approx(
        outer_layer.total_s + 0.05, abs=0.02
    )
    assert tracer.self_seconds() <= wall
