"""Tests of the repository benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.child import WORKLOADS, Ops, compare
from perfbench.layers import layer_metrics
from perfbench.spans import Recorder, self_time_by_name, self_times, total_time_by_name

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- self-time arithmetic ----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],  # overlaps b: the union is covered once
        ["late", 9.0, 12.0, 0],  # outlives its parent: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2, 1, 1, 1.5, 3])
    by_name = self_time_by_name(spans + [["a", 7.0, 8.0, 0]])
    assert by_name["a"] == pytest.approx(3.0)
    assert by_name["root"] == pytest.approx(3.0)


def test_inclusive_time_counts_only_the_outermost_span_of_a_name():
    spans = [["gen", 0.0, 4.0, -1], ["gen", 1.0, 3.0, 0], ["gen", 5.0, 6.0, -1]]
    assert total_time_by_name(spans) == {"gen": pytest.approx(5.0)}
    assert sum(self_times(spans)) == pytest.approx(5.0)


def test_recorder_nests_and_counts(tmp_path):
    rec = Recorder()
    with rec.span("outer"):
        assert rec.inside("outer")
        with rec.span("inner"):
            rec.count("things", 2)
    assert not rec.inside("outer")
    assert [s[0] for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] == -1
    rec.dump(tmp_path / "spans.json")
    assert json.loads((tmp_path / "spans.json").read_text())["counts"] == {"things": 2}


# -- checks ---------------------------------------------------------------------------


def test_compare_flags_drift_beyond_tolerance():
    want = {"p99": 0.01, "batches": {"orin": 5}}
    assert compare({"p99": 0.01 * (1 + 1e-12), "batches": {"orin": 5}}, want) == []
    assert compare({"p99": 0.0101, "batches": {"orin": 5}}, want)
    assert compare({"p99": 0.01, "batches": {"orin": 6}}, want)
    assert compare({"p99": 0.01}, want)


def test_ops_count_raises_and_failed_checks_once_per_operation():
    ops = Ops()
    ops.run("a", lambda: 1)
    ops.check("a", ["wrong", "also wrong"])
    with pytest.raises(ZeroDivisionError):
        ops.run("b", lambda: 1 / 0)
    assert ops.attempted == 2 and ops.failed == {"a", "b"}


# -- the contract of BENCHMARK.json ---------------------------------------------------


def test_benchmark_json_matches_what_the_benchmark_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    reported = set(layer_metrics([], {})) | {"tracing.overhead_s", "tracing.overhead_ratio"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


# -- every workload end to end, tiny ------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_with_its_checks(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload,nonzero", [
    ("characterize", ["trace.captures", "trace.store.disk_hits", "trace.store.put_s",
                      "hw.engine.sweeps", "profiling.training_s"]),
    ("mix_faults", ["serving.simulator.batches", "serving.faults.plan_s",
                    "serving.costmodel.curves", "lint.hook_calls"]),
])
def test_traced_run_reports_every_layer(workload, nonzero):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_line(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in nonzero:
        assert metrics[name]["value"] > 0, name
    if workload == "mix_faults":
        assert metrics["serving.costmodel.gets_per_trace"]["value"] >= 1
        assert metrics["serving.fleet.batches"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fleet_slo", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout
