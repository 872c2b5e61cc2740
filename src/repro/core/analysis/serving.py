"""Serving analyses: batch-size sweeps and dynamic-batching policy studies.

Extends the Sec. 5.1 batch-size case study from a closed 10,000-task batch
run into open-loop serving analyses on the :mod:`repro.serving` engine:
given an arrival rate, what *fixed* batch size minimizes tail latency
while sustaining the load (:func:`serving_sweep` /
:func:`best_batch_for_slo`) — and how much better does a *dynamic*
batching policy do under the same stream (:func:`policy_study`)?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving import (
    BatchingPolicy,
    FixedBatchPolicy,
    ProfiledCostModel,
    ServingReport,
    make_policy,
    simulate,
)


@dataclass(frozen=True)
class ServingResult:
    """Statistics of one fixed-batch serving run on a single device."""

    batch_size: int
    n_tasks: int
    makespan: float  # completion time of the last task
    throughput: float  # tasks / second over the makespan
    mean_latency: float
    p50_latency: float
    p99_latency: float
    server_utilization: float  # busy time / makespan


def serving_result_from_report(report: ServingReport,
                               batch_size: int) -> ServingResult:
    """Collapse a :class:`~repro.serving.ServingReport` into the
    single-server summary of one batch size."""
    return ServingResult(
        batch_size=batch_size,
        n_tasks=report.n_requests,
        makespan=report.makespan,
        throughput=report.throughput,
        mean_latency=report.mean_latency,
        p50_latency=report.p50_latency,
        p99_latency=report.p99_latency,
        server_utilization=report.total_utilization,
    )


def serving_sweep(
    workload: str = "avmnist",
    fusion: str | None = None,
    batch_sizes: tuple[int, ...] = (1, 8, 40, 100, 400),
    n_tasks: int = 10_000,
    arrival_rate: float | None = None,
    device: str = "2080ti",
    seed: int = 0,
) -> dict[int, ServingResult]:
    """Simulate serving ``n_tasks`` at each fixed batch size; per-size stats.

    ``arrival_rate=None`` reproduces the paper's closed-batch setting (all
    tasks queued at t=0); a finite rate simulates an open Poisson stream.
    """
    cost = ProfiledCostModel(workload, fusion, seed=seed)
    results: dict[int, ServingResult] = {}
    for batch_size in batch_sizes:
        report = simulate(
            cost, FixedBatchPolicy(batch_size), devices=(device,),
            n_requests=n_tasks, arrival_rate=arrival_rate, seed=seed,
        )
        results[batch_size] = serving_result_from_report(report, batch_size)
    return results


def best_batch_for_slo(results: dict[int, ServingResult], p99_slo: float) -> int | None:
    """Largest batch size whose p99 latency meets the SLO (None if none do)."""
    feasible = [b for b, r in results.items() if r.p99_latency <= p99_slo]
    return max(feasible) if feasible else None


def policy_study(
    workload: str = "avmnist",
    fusion: str | None = None,
    policies: dict[str, BatchingPolicy] | tuple[str, ...] = ("fixed", "adaptive"),
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 5_000,
    arrival_rate: float | None = 1_000.0,
    slo: float = 50e-3,
    seed: int = 0,
) -> dict[str, ServingReport]:
    """Run each dynamic-batching policy against the same arrival stream.

    ``policies`` is either a mapping of label -> policy instance, or a
    tuple of policy names built via :func:`repro.serving.make_policy`
    (``slo`` seeds the adaptive policy). Identical ``seed`` means every
    policy sees the identical Poisson stream, so differences are purely
    the policy's doing.
    """
    if not isinstance(policies, dict):
        policies = {name: make_policy(name, slo=slo) for name in policies}
    cost = ProfiledCostModel(workload, fusion, seed=seed)
    return {
        label: simulate(cost, policy, devices=devices, n_requests=n_requests,
                        arrival_rate=arrival_rate, seed=seed)
        for label, policy in policies.items()
    }
