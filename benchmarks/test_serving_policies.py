"""Dynamic-batching policy comparison on the open-loop serving engine.

Extends the paper's Sec. 5.1 batch-size case study (Figure 12) from a
closed 10,000-task run into the deployment question it implies: under an
open Poisson request stream, a static batch size is always wrong in one
direction — too small and the device drowns in launch overhead, too
large and requests stall in formation. The SLO-adaptive policy resolves
the tension with the profiled cost model: it picks, per dispatch, the
largest batch whose predicted compute still lands the oldest request
inside its latency target.

Three workloads (small/medium), two device models (server 2080Ti, edge
Nano), three policies, identical arrival streams per comparison.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.serving import (
    AdaptiveSLOPolicy,
    FixedBatchPolicy,
    ProfiledCostModel,
    TimeoutBatchPolicy,
    simulate,
)

WORKLOADS = ("avmnist", "mujoco_push", "vision_touch")
DEVICES = ("2080ti", "nano")
SLO = 50e-3  # 50 ms p99 target


def no_batching_capacity(cost: ProfiledCostModel, devices) -> float:
    """Aggregate req/s the device pool sustains at batch size 1."""
    return sum(1.0 / cost.latency(d, 1) for d in devices)


@pytest.fixture(scope="module", params=WORKLOADS)
def workload_cost(request):
    return request.param, ProfiledCostModel(request.param)


def test_policy_matrix(workload_cost):
    """Every policy serves every workload on the heterogeneous pool."""
    workload, cost = workload_cost
    rate = 0.9 * no_batching_capacity(cost, DEVICES)
    policies = {
        "fixed(40)": FixedBatchPolicy(40),
        "timeout(40, 2ms)": TimeoutBatchPolicy(40, 2e-3),
        f"adaptive({SLO * 1e3:.0f}ms)": AdaptiveSLOPolicy(SLO),
    }
    rows = []
    for label, policy in policies.items():
        report = simulate(cost, policy, devices=DEVICES, n_requests=3_000,
                          arrival_rate=rate, seed=0)
        rows.append([
            label, f"{report.throughput:,.0f} req/s",
            f"{report.p50_latency * 1e3:.2f} ms",
            f"{report.p99_latency * 1e3:.2f} ms",
            f"{report.slo_attainment(SLO):.1%}",
            "; ".join(f"{s}:{stats.mean_batch:.1f}"
                      for s, stats in sorted(report.group_stats.items())),
        ])
        # Everyone gets served, accounting is coherent.
        assert report.n_requests == 3_000
        assert all(r.finish >= r.dispatch >= r.arrival for r in report.requests)
        assert report.p50_latency <= report.p99_latency
        assert sum(s.requests for s in report.group_stats.values()) == 3_000
    print_table(
        f"Serving policies: {workload} at {rate:,.0f} req/s on {'+'.join(DEVICES)}",
        ["policy", "throughput", "p50", "p99", f"SLO<={SLO * 1e3:.0f}ms", "mean batch"],
        rows,
    )


def test_adaptive_meets_slo_fixed_violates(workload_cost):
    """The tentpole acceptance claim, per workload: under the *same* Poisson
    stream, the fixed no-batching policy blows the 50 ms SLO while the
    adaptive policy meets it by forming larger batches."""
    workload, cost = workload_cost
    rate = 1.4 * no_batching_capacity(cost, DEVICES)  # past fixed capacity
    common = dict(devices=DEVICES, n_requests=3_000, arrival_rate=rate, seed=0)

    fixed = simulate(cost, FixedBatchPolicy(1), **common)
    adaptive = simulate(cost, AdaptiveSLOPolicy(SLO), **common)

    # Identical arrival stream (same seed): the policy is the only variable.
    assert [r.arrival for r in fixed.requests[:20]] == \
        [r.arrival for r in adaptive.requests[:20]]

    print_table(
        f"SLO showdown: {workload} at {rate:,.0f} req/s (1.4x no-batching capacity)",
        ["policy", "p99", f"attainment (SLO {SLO * 1e3:.0f}ms)", "largest batch"],
        [[rep.policy, f"{rep.p99_latency * 1e3:.2f} ms",
          f"{rep.slo_attainment(SLO):.1%}",
          max(max(s, default=1) for s in rep.batch_sizes_used().values())]
         for rep in (fixed, adaptive)],
    )

    assert fixed.p99_latency > SLO, "fixed batch=1 should drown past capacity"
    assert adaptive.p99_latency <= SLO, "adaptive should batch its way out"
    assert adaptive.slo_attainment(SLO) > 0.99
    assert fixed.slo_attainment(SLO) < 0.9
    # It escapes *because* it formed larger batches.
    largest = max(max(s, default=1) for s in adaptive.batch_sizes_used().values())
    assert largest > 1


def test_heterogeneous_routing_uses_both_devices():
    """Under load, earliest-finish routing keeps the edge device working
    while the server takes the bulk of the stream."""
    cost = ProfiledCostModel("avmnist")
    rate = 1.2 * no_batching_capacity(cost, DEVICES)
    report = simulate(cost, AdaptiveSLOPolicy(SLO), devices=DEVICES,
                      n_requests=3_000, arrival_rate=rate, seed=0)
    server, edge = report.group_stats["2080ti"], report.group_stats["nano"]
    assert server.requests > edge.requests > 0
    assert server.utilization > 0.2 and edge.utilization > 0.2


def test_more_servers_cut_tail_latency():
    """Scaling the pool from one 2080Ti to two cuts p99 under overload."""
    cost = ProfiledCostModel("avmnist")
    rate = 1.3 / cost.latency("2080ti", 1)  # overload for one, fine for two
    common = dict(n_requests=2_000, arrival_rate=rate, seed=0)
    one = simulate(cost, FixedBatchPolicy(1), devices=("2080ti",), **common)
    two = simulate(cost, FixedBatchPolicy(1), devices=("2080ti", "2080ti"), **common)
    assert two.p99_latency < one.p99_latency
    assert two.makespan <= one.makespan
