"""Self-check of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Runs every workload once untraced and once traced with a one-second
budget (one round each, about two minutes in all) and asserts that every
metric the benchmark names is printed with a unit, that the closing JSON
line carries exactly the metrics BENCHMARK.json lists, and that the
command refuses to run without the ddakit sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COMMON_END_TO_END = [
    "setup_s",
    "episodes_per_s",
    "sim_ticks_per_s",
    "peak_rss_mb",
    "failed_ratio",
]
WORKLOAD_END_TO_END = {
    "arena-grid": ["wave_break_ms_p50", "wave_break_ms_tail"],
    "duel-ladder": ["trace_save_s", "report_s"],
    "batch-calibrate": ["calibrate_s", "experiment_s"],
}
COMMON_PER_LAYER = [
    "sim.arena.self_s",
    "sim.arena.ticks",
    "sim.arena.records",
    "engine.on_tick.calls",
    "engine.on_tick.windows",
    "engine.on_tick.useful_ratio",
    "engine.on_tick.self_s",
    "telemetry.sample_permanent.calls",
    "telemetry.sample_permanent.accepted_ratio",
    "telemetry.sample_permanent.s",
    "telemetry.record_event.calls",
    "telemetry.record_event.s",
    "telemetry.close_window.s",
    "assessment.evaluate.calls",
    "assessment.evaluate.s",
    "models.metrics.on_report.s",
    "models.dscript.next_script.s",
    "models.dscript.on_encounter.s",
    "adjustment.drain.calls",
    "adjustment.drain.gated",
    "adjustment.drain.applied",
    "adjustment.drain.dropped",
    "adjustment.enqueue.replaced",
    "adjustment.drain.s",
    "trace_overhead",
]
WORKLOAD_PER_LAYER = {
    "arena-grid": [
        "models.probabilistic.on_zone.s",
        "models.probabilistic.previews_enumerated",
        "models.probabilistic.previews_monte_carlo",
        "models.probabilistic.outcomes_walked",
    ],
    "duel-ladder": [
        "sim.trace.dumps.s",
        "sim.trace.bytes",
        "sim.trace.load.s",
        "report.build_rows.s",
    ],
    "batch-calibrate": [
        "reference.calibrate.self_s",
        "experiment.run_experiment.self_s",
    ],
}
LINE = re.compile(r"^\s+(\S+)\s+(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s+(\S+)")


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_a_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    if trace == "0":
        named = COMMON_END_TO_END + WORKLOAD_END_TO_END[workload]
        listed = SPEC["end_to_end"]
    else:
        named = COMMON_PER_LAYER + WORKLOAD_PER_LAYER[workload]
        listed = SPEC["per_layer"]
    missing = [name for name in named if name not in printed]
    assert not missing, f"not printed with a value and unit: {missing}"

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for name, metric in result["metrics"].items():
        assert printed[name] == metric["unit"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "arena-grid", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
