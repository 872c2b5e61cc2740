"""Differential suite: the serving engine against the per-event oracle.

``simulate`` and ``simulate_mixed`` run the fleet engine on one
single-replica group per slot. ``classic_reference`` keeps the per-event
loop they used to run. Under every chaos scenario, both routers and with
or without a request deadline, the two must agree on every request's
dispatch, finish, device, batch size, retries, shed and degraded flags,
and on the whole fault account, to 1e-9.
"""

from __future__ import annotations

import math

import pytest

from repro.serving import (
    CHAOS_SCENARIO_NAMES,
    AdaptiveSLOPolicy,
    DegradedMode,
    EarliestFinishRouter,
    FinetuneJob,
    RetryPolicy,
    RoundRobinRouter,
    TenantSpec,
    chaos_plan,
    make_tenants,
    simulate_mixed,
)
from tests.serving import classic_reference

POOL = ("2080ti", "2080ti", "orin", "nano")
N, RATE = 3_000, 3_000.0
TOL = 1e-9


class DeviceAwareCost:
    """Analytic affine cost with a per-device speed grade."""

    BASE = {"2080ti": 1.0, "orin": 1.7, "nano": 3.0}

    def __init__(self, scale: float):
        self.scale = scale

    def latency(self, device: str, batch_size: int) -> float:
        return self.scale * self.BASE[device] * (0.004 + 0.001 * batch_size)


def tenants(degraded: bool = False) -> list[TenantSpec]:
    """Two analytic and two profiled tenants, each with its own policy."""
    specs = [
        TenantSpec("a0", DeviceAwareCost(1.0), AdaptiveSLOPolicy(0.05),
                   slo=0.05, weight=2.0),
        TenantSpec("a1", DeviceAwareCost(1.4), AdaptiveSLOPolicy(0.05),
                   slo=0.05),
        *make_tenants(["avmnist", "mmimdb"], slo=50e-3),
    ]
    if degraded:
        specs[0].degraded = DegradedMode("image", 0.4, enter_wait=0.02)
        specs[2].degraded = DegradedMode("image", 0.5, enter_wait=0.03)
    return specs


def close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOL


def assert_same_run(got, want) -> None:
    assert len(got.requests) == len(want.requests)
    for g, w in zip(got.requests, want.requests):
        assert (g.index, g.tenant, g.device, g.batch_size, g.retries, g.shed,
                g.degraded) == (w.index, w.tenant, w.device, w.batch_size,
                                w.retries, w.shed, w.degraded), w.index
        assert close(g.dispatch, w.dispatch), (w.index, g.dispatch, w.dispatch)
        assert close(g.finish, w.finish), (w.index, g.finish, w.finish)

    fg, fw = got.fault_stats, want.fault_stats
    assert (fg.issued, fg.completed, fg.shed, fg.retries) == (
        fw.issued, fw.completed, fw.shed, fw.retries)
    assert fg.retry_histogram == fw.retry_histogram
    assert fg.recovery_p50 == pytest.approx(fw.recovery_p50, abs=TOL)
    assert fg.recovery_p99 == pytest.approx(fw.recovery_p99, abs=TOL)
    assert fg.devices.keys() == fw.devices.keys()
    for slot, dw in fw.devices.items():
        dg = fg.devices[slot]
        assert (dg.aborted_batches, dg.aborted_requests) == (
            dw.aborted_batches, dw.aborted_requests), slot
        assert dg.down_windows == pytest.approx(dw.down_windows, abs=TOL)
        assert dg.throttle_windows == pytest.approx(dw.throttle_windows, abs=TOL)
        assert dg.stall_time == pytest.approx(dw.stall_time, abs=TOL)
    for name, tw in fw.tenants.items():
        tg = fg.tenants[name]
        assert (tg.shed, tg.degraded_requests, tg.degraded_activations) == (
            tw.shed, tw.degraded_requests, tw.degraded_activations), name
        assert tg.degraded_time == pytest.approx(tw.degraded_time, abs=TOL)

    assert got.makespan == pytest.approx(want.makespan, abs=TOL)
    assert got.p99_latency == pytest.approx(want.p99_latency, abs=TOL)
    assert got.slo_attainment(0.05) == pytest.approx(want.slo_attainment(0.05),
                                                     abs=TOL)
    for slot, sw in want.group_stats.items():
        sg = got.group_stats[slot]
        assert sg.batch_histogram == sw.batch_histogram, slot
        assert sg.busy_time == pytest.approx(sw.busy_time, abs=TOL), slot


def run_both(**kwargs):
    make_router = kwargs.pop("make_router", EarliestFinishRouter)
    degraded = kwargs.pop("degraded", False)
    got = simulate_mixed(tenants(degraded), router=make_router(), **kwargs)
    want = classic_reference.simulate_mixed(tenants(degraded),
                                            router=make_router(), **kwargs)
    return got, want


@pytest.mark.parametrize("deadline", [None, 0.06], ids=["no-deadline", "deadline"])
@pytest.mark.parametrize("make_router", [EarliestFinishRouter, RoundRobinRouter],
                         ids=["earliest-finish", "round-robin"])
@pytest.mark.parametrize("scenario", CHAOS_SCENARIO_NAMES)
def test_chaos_scenarios_match_the_oracle(scenario, make_router, deadline):
    plan = chaos_plan(scenario, POOL, N / RATE, seed=0)
    got, want = run_both(devices=POOL, n_requests=N, arrival_rate=RATE,
                         seed=0, faults=plan,
                         retry=RetryPolicy(deadline=deadline),
                         make_router=make_router)
    assert_same_run(got, want)
    if scenario != "thermal-brownout":
        assert want.fault_stats.retries > 0  # the plan really aborted work
    if deadline is not None:
        assert want.fault_stats.shed > 0


def test_degraded_modes_match_the_oracle():
    plan = chaos_plan("single-failure", POOL, N / RATE, seed=0)
    got, want = run_both(devices=POOL, n_requests=N, arrival_rate=RATE,
                         seed=0, faults=plan, degraded=True)
    assert_same_run(got, want)
    assert sum(t.degraded_requests
               for t in want.fault_stats.tenants.values()) > 0


def test_finetune_jobs_match_the_oracle():
    plan = chaos_plan("single-failure", POOL, N / RATE, seed=0)
    jobs = [FinetuneJob(name="bg", workload="avmnist", share=0.3,
                        batch_size=4, checkpoint_interval=5)]
    got, want = run_both(devices=POOL, n_requests=N, arrival_rate=RATE,
                         seed=0, faults=plan, finetune=jobs)
    assert_same_run(got, want)
    assert got.inference_slowdown == want.inference_slowdown > 1.0
    assert got.finetune_stats == want.finetune_stats
