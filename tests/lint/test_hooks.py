"""Pre-run lint hooks: profile_stored, simulate_mixed and get_or_ingest
refuse artifacts with lint errors unless the caller opts out."""

from __future__ import annotations

import json

import pytest

from repro.lint import LintFailure
from repro.profiling.profiler import MMBenchProfiler
from repro.serving.faults import DeviceRecover, FaultPlan
from repro.serving.policies import FixedBatchPolicy
from repro.serving.simulator import TenantSpec, simulate_mixed
from repro.trace.store import TraceStore

# A graph that ingests fine (all descriptors valid) but whose explicit
# pass annotations interleave: the optimizer step precedes the backward
# kernel, an MMB201 lint *error* on the resulting trace.
INTERLEAVED = {
    "schema": "mmbench-eg/1",
    "name": "interleaved",
    "batch_size": 4,
    "nodes": [
        {"id": 1, "name": "matmul", "parents": [], "pass": "forward",
         "input_shapes": [[4, 8], [8, 4]], "output_shapes": [[4, 4]]},
        {"id": 2, "name": "sgd_step", "parents": [1], "pass": "optimizer"},
        {"id": 3, "name": "matmul_backward", "parents": [1],
         "pass": "backward",
         "input_shapes": [[4, 4]], "output_shapes": [[4, 8]]},
    ],
}


@pytest.fixture
def bad_graph(tmp_path):
    path = tmp_path / "interleaved.json"
    path.write_text(json.dumps(INTERLEAVED))
    return path


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "cache")


class TestGetOrIngestHook:
    def test_cold_ingest_refuses_lint_errors(self, store, bad_graph):
        with pytest.raises(LintFailure, match="MMB201"):
            store.get_or_ingest(bad_graph)

    def test_refused_entry_is_not_cached(self, store, bad_graph):
        with pytest.raises(LintFailure):
            store.get_or_ingest(bad_graph)
        assert store.entries() == []

    def test_opt_out_ingests_and_caches(self, store, bad_graph):
        stored = store.get_or_ingest(bad_graph, lint=False)
        assert stored.model_name == "interleaved"
        # Warm hits trust the cache: no re-lint, no raise.
        again = store.get_or_ingest(bad_graph)
        assert again.model_name == "interleaved"

    def test_clean_graph_ingests_with_lint_on(self, store, tmp_path):
        clean = dict(INTERLEAVED, name="clean",
                     nodes=[n for n in INTERLEAVED["nodes"]
                            if n["pass"] != "optimizer"])
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean))
        assert store.get_or_ingest(path).model_name == "clean"


class TestProfileStoredHook:
    def test_refuses_bad_stored_trace(self, store, bad_graph):
        stored = store.get_or_ingest(bad_graph, lint=False)
        profiler = MMBenchProfiler("2080ti")
        with pytest.raises(LintFailure, match="stored trace 'interleaved'"):
            profiler.profile_stored(stored, batch_size=4)
        # The opt-out prices the known-bad trace anyway.
        result = profiler.profile_stored(stored, batch_size=4, lint=False)
        assert result.report.total_time > 0


class TestSimulateMixedHook:
    @staticmethod
    def _tenants():
        return [TenantSpec(name="avmnist", cost=lambda k: 0.001 * k,
                           policy=FixedBatchPolicy(4))]

    def test_refuses_unreachable_recover(self):
        plan = FaultPlan(events=(DeviceRecover("2080ti", 0.5),))
        with pytest.raises(LintFailure, match="MMB401"):
            simulate_mixed(self._tenants(), n_requests=50,
                           arrival_rate=1000.0, faults=plan)

    def test_opt_out_defers_to_runtime_checks(self):
        # With the pre-run lint skipped, the same broken plan still fails —
        # but later, inside the simulation, as the runtime's own error.
        from repro.serving.faults import FaultPlanError

        plan = FaultPlan(events=(DeviceRecover("2080ti", 0.5),))
        with pytest.raises(FaultPlanError, match="recover without"):
            simulate_mixed(self._tenants(), n_requests=50,
                           arrival_rate=1000.0, faults=plan, lint=False)

    def test_empty_plan_lints_clean(self):
        report = simulate_mixed(self._tenants(), n_requests=50,
                                arrival_rate=1000.0, faults=FaultPlan())
        assert report.n_requests == 50


class TestSuiteLint:
    def test_suite_lints_workload_by_name(self, monkeypatch, tmp_path):
        from repro.core.suite import BenchmarkSuite
        from repro.trace.store import set_default_store

        monkeypatch.setenv("MMBENCH_CACHE_DIR", str(tmp_path))
        prev = set_default_store(None)
        try:
            report = BenchmarkSuite().lint("avmnist")
            assert report.ok
            assert report.sources == ["workload:avmnist"]
        finally:
            set_default_store(prev)

    def test_suite_lints_arbitrary_artifacts(self):
        from repro.core.suite import BenchmarkSuite

        plan = FaultPlan(events=(DeviceRecover("nano", 0.1),))
        report = BenchmarkSuite().lint(plan)
        assert "MMB401" in report.codes()

    def test_suite_lints_pool_reports_and_refuses_fleet_reports(self):
        from repro.core.suite import BenchmarkSuite
        from repro.serving.fleet import simulate_fleet

        suite = BenchmarkSuite()
        pool = simulate_mixed(TestSimulateMixedHook._tenants(), devices=("2080ti", "nano"),
                              n_requests=200, arrival_rate=1000.0)
        assert suite.lint(pool).ok
        fleet = simulate_fleet(TestSimulateMixedHook._tenants(), "2080ti:2,nano:1",
                               n_requests=200, arrival_rate=1000.0)
        with pytest.raises(ValueError, match="simulate/simulate_mixed report"):
            suite.lint(fleet)
