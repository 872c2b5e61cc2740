"""SLO batch selection and the policy study on the serving subsystem."""

import pytest

from repro.core.analysis.serving import (
    ServingResult,
    best_batch_for_slo,
    policy_study,
    serving_result_from_report,
)
from repro.serving import FixedBatchPolicy, simulate


def result(batch_size: int, p99: float) -> ServingResult:
    return ServingResult(
        batch_size=batch_size, n_tasks=100, makespan=1.0, throughput=100.0,
        mean_latency=p99 / 2, p50_latency=p99 / 2, p99_latency=p99,
        server_utilization=1.0,
    )


def affine(k: int) -> float:
    return 50e-6 + 10e-6 * k


class TestServingResultFromReport:
    def test_copies_the_single_server_summary(self):
        report = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                          n_requests=200, arrival_rate=20_000.0, seed=1)
        out = serving_result_from_report(report, 8)
        assert out == ServingResult(
            batch_size=8, n_tasks=200, makespan=report.makespan,
            throughput=report.throughput, mean_latency=report.mean_latency,
            p50_latency=report.p50_latency, p99_latency=report.p99_latency,
            server_utilization=report.total_utilization,
        )

    def test_closed_batch_hand_count(self):
        report = simulate(affine, FixedBatchPolicy(10), devices=("d",),
                          n_requests=100)
        out = serving_result_from_report(report, 10)
        # 10 batches of 10: each 50us + 100us = 150us, back to back.
        assert out.makespan == pytest.approx(10 * 150e-6)
        assert out.throughput == pytest.approx(100 / (10 * 150e-6))
        assert out.server_utilization == pytest.approx(1.0)
        assert 0 < out.p50_latency <= out.p99_latency <= out.makespan

    def test_empty_run_is_all_zero(self):
        report = simulate(affine, FixedBatchPolicy(4), devices=("d",),
                          n_requests=0)
        out = serving_result_from_report(report, 4)
        assert out.n_tasks == 0
        assert out.makespan == out.throughput == out.p99_latency == 0.0
        assert out.server_utilization == 0.0


class TestBestBatchForSLO:
    def test_no_feasible_batch_returns_none(self):
        results = {1: result(1, 0.5), 8: result(8, 0.9)}
        assert best_batch_for_slo(results, p99_slo=0.1) is None

    def test_single_feasible_batch(self):
        results = {1: result(1, 0.05), 8: result(8, 0.9), 40: result(40, 2.0)}
        assert best_batch_for_slo(results, p99_slo=0.1) == 1

    def test_boundary_is_inclusive(self):
        results = {4: result(4, 0.1)}
        assert best_batch_for_slo(results, p99_slo=0.1) == 4

    def test_picks_largest_of_many(self):
        results = {b: result(b, 0.01 * b) for b in (1, 2, 4, 8)}
        assert best_batch_for_slo(results, p99_slo=0.05) == 4

    def test_empty_results(self):
        assert best_batch_for_slo({}, p99_slo=1.0) is None


class TestPolicyStudy:
    def test_same_stream_all_policies(self):
        reports = policy_study(
            workload="avmnist", policies=("fixed", "adaptive"),
            devices=("2080ti",), n_requests=500, arrival_rate=500.0,
            slo=0.05, seed=0,
        )
        assert set(reports) == {"fixed", "adaptive"}
        arrivals = {label: [r.arrival for r in rep.requests[:10]]
                    for label, rep in reports.items()}
        assert arrivals["fixed"] == arrivals["adaptive"]

    def test_rejects_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            policy_study(policies=("belady",), n_requests=10)
