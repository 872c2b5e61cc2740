"""Fleet simulator: differential against the per-event oracle, autoscaling,
faults, hops.

The tier-1 anchor is the differential suite: with autoscaling off and no
hop costs, :func:`simulate_fleet` on homogeneous device groups must
reproduce the per-event loop kept in ``classic_reference`` (earliest-
finish router, same devices) to 1e-9 — completions, latency
percentiles, per-tenant SLO attainment, the lot. The engine visits a
subset of the oracle's event times but makes identical dispatch
decisions at identical instants.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.serving import (
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DeviceGroup,
    EarliestFinishRouter,
    FixedBatchPolicy,
    FleetConfigError,
    TenantSpec,
    TimeoutBatchPolicy,
    chaos_plan,
    make_tenants,
    parse_autoscale,
    parse_groups,
    RetryPolicy,
    scenario_columns,
    simulate_fleet,
    simulate_mixed,
)
from repro.serving.faults import (
    DeviceDown,
    DeviceRecover,
    FaultPlan,
    ThermalThrottle,
    TransientStall,
)
from repro.serving import fleet as fleet_module
from repro.serving.fleet import _FleetEngine
from repro.workloads.registry import list_workloads

from tests.serving import classic_reference

REPORT_ATTRS = (
    "makespan", "mean_latency", "p50_latency", "p95_latency", "p99_latency",
    "mean_queue_time", "mean_formation_wait", "mean_service_time",
)
TENANT_ATTRS = (
    "n_requests", "mean_latency", "p50_latency", "p95_latency", "p99_latency",
    "mean_queue_time", "throughput",
)


class DeviceAwareCost:
    """Analytic affine cost with a per-device speed grade."""

    BASE = {"2080ti": 1.0, "orin": 1.7, "nano": 3.0}

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def latency(self, device: str, batch_size: int) -> float:
        return self.scale * self.BASE[device] * (0.004 + 0.001 * batch_size)


def analytic_tenants(policy_factory):
    return [
        TenantSpec(name=f"t{i}", cost=DeviceAwareCost(scale),
                   policy=policy_factory(), slo=0.05, weight=w)
        for i, (scale, w) in enumerate([(1.0, 3.0), (1.4, 1.0)])
    ]


def assert_matches_classic(tenants_fleet, tenants_classic, groups, devices,
                           n_requests, arrival_rate, seed, scenario="uniform",
                           faults=None):
    fleet = simulate_fleet(tenants_fleet, groups, n_requests=n_requests,
                           arrival_rate=arrival_rate, scenario=scenario,
                           seed=seed, faults=faults)
    classic = classic_reference.simulate_mixed(
        tenants_classic, devices=devices, n_requests=n_requests,
        arrival_rate=arrival_rate, scenario=scenario, seed=seed,
        faults=faults, router=EarliestFinishRouter())
    assert fleet.n_requests == classic.n_requests
    for attr in REPORT_ATTRS:
        assert getattr(fleet, attr) == pytest.approx(
            getattr(classic, attr), abs=1e-9, rel=1e-9), attr
    for name, ref in classic.tenant_stats.items():
        got = fleet.tenant_stats[name]
        for attr in TENANT_ATTRS:
            assert float(getattr(got, attr)) == pytest.approx(
                float(getattr(ref, attr)), abs=1e-9, rel=1e-9), (name, attr)
        if ref.slo_attainment is not None:
            assert got.slo_attainment == pytest.approx(
                ref.slo_attainment, abs=1e-9), name
    return fleet, classic


# -- tier-1 differential: fleet == the per-event oracle ---------------------------------------------


@pytest.mark.parametrize("policy_factory", [
    lambda: FixedBatchPolicy(7),
    lambda: TimeoutBatchPolicy(8, 0.004),
    lambda: AdaptiveSLOPolicy(0.05),
], ids=["fixed", "timeout", "adaptive"])
def test_differential_analytic_costs(policy_factory):
    assert_matches_classic(
        analytic_tenants(policy_factory), analytic_tenants(policy_factory),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("nano", 1)),
        devices=("2080ti", "2080ti", "nano"),
        n_requests=5_000, arrival_rate=900.0, seed=3)


def test_differential_profiled_costs():
    assert_matches_classic(
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("orin", 1)),
        devices=("2080ti", "2080ti", "orin"),
        n_requests=4_000, arrival_rate=1_500.0, seed=1)


def test_differential_closed_arrivals():
    assert_matches_classic(
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("orin", 1)),
        devices=("2080ti", "2080ti", "orin"),
        n_requests=2_000, arrival_rate=None, seed=0)


def test_differential_heavy_head_scenario():
    assert_matches_classic(
        analytic_tenants(lambda: AdaptiveSLOPolicy(0.05)),
        analytic_tenants(lambda: AdaptiveSLOPolicy(0.05)),
        groups=(DeviceGroup("2080ti", 3), DeviceGroup("nano", 2)),
        devices=("2080ti",) * 3 + ("nano",) * 2,
        n_requests=6_000, arrival_rate=1_100.0, seed=7,
        scenario="heavy-head")


def test_differential_fleet_scale_slo_regime():
    # Fourteen replicas in three groups, nine profiled tenants, every one
    # inside its SLO: several groups sit idle at once (the cached group
    # ranking gets filtered) and each group holds many idle replicas
    # (the idle heap picks the lowest index).
    groups = parse_groups("2080ti:8,orin:4,nano:2")
    devices = tuple(g.device for g in groups for _ in range(g.replicas))
    fleet, classic = assert_matches_classic(
        make_tenants(list_workloads(), slo=50e-3),
        make_tenants(list_workloads(), slo=50e-3),
        groups=groups, devices=devices,
        n_requests=20_000, arrival_rate=25_000.0, seed=5,
        scenario="heavy-head")
    assert fleet.throughput == pytest.approx(classic.throughput, rel=1e-9)
    assert all(s.slo_attainment == 1.0 for s in fleet.tenant_stats.values())
    np.testing.assert_allclose(
        np.sort(fleet.latencies),
        np.sort([r.latency for r in classic.requests]), rtol=1e-9, atol=1e-9)
    for name, got in fleet.group_stats.items():
        slots = [s for s in classic.group_stats.values() if s.device == name]
        assert got.batches == sum(s.batches for s in slots) > 0, name
        assert got.requests == sum(s.requests for s in slots), name
        assert got.busy_time == pytest.approx(
            sum(s.busy_time for s in slots), rel=1e-9), name


@pytest.mark.parametrize("make", [
    lambda: analytic_tenants(lambda: AdaptiveSLOPolicy(0.05)),
    lambda: make_tenants(["avmnist", "mmimdb"], slo=50e-3),
], ids=["analytic", "profiled"])
def test_differential_throttle_window(make):
    # A throttle scales one group's curves for a window, which reorders
    # the group ranking (2080ti x4 is slower than nano) and withdraws the
    # dense tables; the engine and the oracle scale latencies
    # identically, so they must still agree before, during and after the
    # window.
    plan = FaultPlan(events=(ThermalThrottle(device="2080ti", time=1.0,
                                             until=2.5, factor=4.0),))
    fleet, _ = assert_matches_classic(
        make(), make(),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
        devices=("2080ti", "2080ti", "nano", "nano"),
        n_requests=5_000, arrival_rate=1_200.0, seed=3, faults=plan)
    assert all(s.batches for s in fleet.group_stats.values())


def test_slo_regime_means_are_pinned(monkeypatch):
    # The scalar means fold per batch: below ``_PAIRWISE`` members in a
    # Python loop, above it in numpy. Every tenant meets its SLO, most
    # batches are small and some are not; the timeout tenant's batches
    # wait on idle replicas, so the formation wait is nonzero. The
    # literals were recorded before the Python fold existed.
    small = []
    fold = fleet_module._fold_small

    def counting_fold(*args):
        small.append(1)
        return fold(*args)

    monkeypatch.setattr(fleet_module, "_fold_small", counting_fold)
    tenants = [
        TenantSpec("adaptive", DeviceAwareCost(1.0), AdaptiveSLOPolicy(0.05),
                   slo=0.05, weight=3.0),
        TenantSpec("timeout", DeviceAwareCost(1.4), TimeoutBatchPolicy(12, 0.004),
                   slo=0.05, weight=1.0),
    ]
    report = simulate_fleet(tenants, "2080ti:2,nano:1", n_requests=3_000,
                            arrival_rate=1_000.0, seed=11)
    batches = sum(s.batches for s in report.group_stats.values())
    assert 0 < len(small) < batches
    assert all(s.slo_attainment == 1.0 for s in report.tenant_stats.values())
    got = {attr: float.hex(getattr(report, attr)) for attr in (
        "mean_queue_time", "mean_formation_wait", "mean_service_time",
        "makespan")}
    got.update({name: float.hex(s.mean_queue_time)
                for name, s in report.tenant_stats.items()})
    assert got == {
        "mean_queue_time": "0x1.00ba5a6a5f0fbp-8",
        "mean_formation_wait": "0x1.2d758986c2d71p-17",
        "mean_service_time": "0x1.9a7ca6d2f66b3p-7",
        "makespan": "0x1.81b902a3a354ap+1",
        "adaptive": "0x1.d9bfdde076e9dp-9",
        "timeout": "0x1.3fd3abba81df3p-8",
    }


# -- config parsing and validation ----------------------------------------------------------------


def test_parse_groups():
    groups = parse_groups("2080ti:64,orin:32,nano:16:24")
    assert [(g.device, g.replicas, g.capacity) for g in groups] == [
        ("2080ti", 64, 64), ("orin", 32, 32), ("nano", 16, 24)]


@pytest.mark.parametrize("spec", ["", "2080ti", "2080ti:0", "2080ti:x",
                                  "2080ti:4:2", "2080ti:4:4:4"])
def test_parse_groups_rejects(spec):
    with pytest.raises((FleetConfigError, ValueError)):
        parse_groups(spec)


def test_parse_autoscale():
    scale = parse_autoscale("queue:64:0.1:0.5", min_replicas=2, max_replicas=8)
    assert (scale.metric, scale.threshold, scale.interval, scale.cooldown,
            scale.min_replicas, scale.max_replicas) == ("queue", 64.0, 0.1, 0.5, 2, 8)
    with pytest.raises((FleetConfigError, ValueError)):
        parse_autoscale("cpu:64")


def test_duplicate_group_devices_rejected():
    with pytest.raises(FleetConfigError, match="duplicate"):
        simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                       (DeviceGroup("2080ti", 2), DeviceGroup("2080ti", 1)),
                       n_requests=10, arrival_rate=100.0)


def test_group_stall_delays_every_replica_and_conserves():
    # The stall lands while both replicas of the group are busy: each
    # in-flight batch finishes late, and every request still completes.
    def run(plan):
        return simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                              (DeviceGroup("2080ti", 2),), n_requests=2_000,
                              arrival_rate=900.0, seed=0, faults=plan)

    clean = run(None)
    plan = FaultPlan(events=(TransientStall(time=0.5, device="2080ti",
                                            duration=0.05),))
    stalled = run(plan)
    assert stalled.completed == stalled.n_requests == 2_000
    assert stalled.fault_stats.completed + stalled.fault_stats.shed == 2_000
    assert stalled.fault_stats.devices["2080ti"].stall_time == 0.05
    assert stalled.mean_latency > clean.mean_latency
    # Both replicas were caught by the stall: the latest finish among the
    # batches in flight at t=0.5 moved by the stall's duration.
    engine = _FleetEngine(analytic_tenants(lambda: FixedBatchPolicy(4)),
                          (DeviceGroup("2080ti", 2),),
                          scenario_columns("uniform", analytic_tenants(
                              lambda: FixedBatchPolicy(4)), 2_000,
                              arrival_rate=900.0, seed=0),
                          None, plan, hop_bytes=0.0, probe_cap=128)
    stretched = []
    stretch = engine._stretch

    def record(g, ridx, rec, finish):
        stretched.append((ridx, finish - rec.finish))
        stretch(g, ridx, rec, finish)

    engine._stretch = record
    engine.run()
    assert sorted(r for r, _ in stretched) == [0, 1]
    assert all(d == pytest.approx(0.05) for _, d in stretched)


def test_columns_tenant_mismatch_rejected():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(4))
    other = make_tenants(["avmnist", "mmimdb"], slo=50e-3)
    columns = scenario_columns("uniform", other, 100, arrival_rate=100.0)
    with pytest.raises(ValueError, match="tagged for tenants"):
        simulate_fleet(tenants, (DeviceGroup("2080ti", 2),), columns=columns,
                       arrival_rate=100.0)


def test_unsorted_columns_rejected():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(4))
    columns = scenario_columns("uniform", tenants, 100, arrival_rate=100.0)
    shuffled = type(columns)(
        arrivals=columns.arrivals[::-1].copy(), codes=columns.codes,
        tenants=columns.tenants)
    with pytest.raises(ValueError, match="sorted"):
        simulate_fleet(tenants, (DeviceGroup("2080ti", 2),), columns=shuffled,
                       arrival_rate=100.0)


def test_empty_stream():
    report = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                            (DeviceGroup("2080ti", 2),), n_requests=0,
                            arrival_rate=100.0)
    assert report.n_requests == 0
    assert report.makespan == 0.0
    assert report.slo_attainment(0.05) == 1.0


# -- autoscaling edge cases ------------------------------------------------------------------------


def overloaded(n=20_000, rate=2_000.0, **kwargs):
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    return simulate_fleet(tenants, (DeviceGroup("2080ti", 1, pool=8),),
                          n_requests=n, arrival_rate=rate, seed=0, **kwargs)


def test_autoscale_scale_out_under_queue_pressure():
    report = overloaded(autoscale=AutoscalePolicy(threshold=20.0))
    assert report.completed == report.n_requests
    out = [e for e in report.scaling_events if e.after > e.before]
    assert out, "sustained overload never scaled out"
    stats = report.group_stats["2080ti"]
    assert stats.peak_replicas > 1
    assert all(1 <= e.after <= 8 for e in report.scaling_events)


def test_autoscale_scale_in_drains_never_aborts():
    # A lightly-loaded fleet: the queue repeatedly empties between
    # arrivals, so idle groups scale back in. Scale-in must *drain*
    # in-flight batches — every request still completes.
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(
        tenants, (DeviceGroup("2080ti", 4, pool=4), DeviceGroup("nano", 4, pool=4)),
        n_requests=10_000, arrival_rate=400.0, seed=0,
        autoscale=AutoscalePolicy(threshold=1e6, interval=0.02,
                                  cooldown=0.04, idle_fraction=0.5))
    assert report.completed == report.n_requests
    scale_in = [e for e in report.scaling_events if e.after < e.before]
    assert scale_in, "idle fleet never scaled back in"
    assert any(s.replicas < s.peak_replicas
               for s in report.group_stats.values())


def test_autoscale_cooldown_suppresses_thrash():
    fast = overloaded(autoscale=AutoscalePolicy(
        threshold=20.0, interval=0.02, cooldown=0.0))
    slow = overloaded(autoscale=AutoscalePolicy(
        threshold=20.0, interval=0.02, cooldown=0.4))
    assert slow.completed == fast.completed == 20_000
    fast_times = [e.time for e in fast.scaling_events]
    slow_times = [e.time for e in slow.scaling_events]
    assert slow_times, "cooldown suppressed scaling entirely"
    # Without a cooldown, back-to-back ticks act; with one, consecutive
    # actions on the (single) group are >= cooldown apart.
    assert any(b - a < 0.4 for a, b in zip(fast_times, fast_times[1:]))
    assert all(b - a >= 0.4 - 1e-12
               for a, b in zip(slow_times, slow_times[1:]))


def test_autoscale_respects_min_replicas_floor_under_faults():
    # The group goes down mid-run; while it is down the autoscaler must
    # not touch it, and scale-in can never cut below min_replicas.
    plan = FaultPlan(events=(DeviceDown(time=0.5, device="2080ti"),
                             DeviceRecover(time=1.5, device="2080ti")))
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(
        tenants, (DeviceGroup("2080ti", 4, pool=8), DeviceGroup("nano", 2, pool=4)),
        n_requests=10_000, arrival_rate=800.0, seed=0, faults=plan,
        autoscale=AutoscalePolicy(threshold=10.0, interval=0.02,
                                  cooldown=0.04, min_replicas=2,
                                  idle_fraction=0.25))
    assert report.completed == report.n_requests
    assert all(e.after >= 2 for e in report.scaling_events)
    down_window = [e for e in report.scaling_events
                   if e.group == "2080ti" and 0.5 <= e.time < 1.5]
    assert not down_window, "autoscaler acted on a downed group"


def test_autoscale_p99_metric():
    report = overloaded(autoscale=AutoscalePolicy(metric="p99", threshold=0.2))
    assert report.completed == report.n_requests
    assert any("p99" in e.reason for e in report.scaling_events
               if e.after > e.before)


def test_idle_heaps_track_free_vectors_every_epoch():
    # Scale-out under bursts, scale-in between them, and a down/recover
    # window: after every epoch each group's idle heap holds exactly the
    # idle replicas of its active prefix, and every dispatch takes the
    # lowest-index one.
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    groups = (DeviceGroup("2080ti", 2, pool=6), DeviceGroup("nano", 2, pool=4))
    columns = scenario_columns("bursty", tenants, 12_000,
                               arrival_rate=1_500.0, seed=0)
    plan = FaultPlan(events=(DeviceDown(time=1.0, device="nano"),
                             DeviceRecover(time=2.0, device="nano")))
    engine = _FleetEngine(
        tenants, groups, columns,
        AutoscalePolicy(threshold=10.0, interval=0.02, cooldown=0.04,
                        idle_fraction=0.5),
        plan, hop_bytes=0.0, probe_cap=128)
    offer, dispatch = engine._offer, engine._dispatch
    epochs = 0

    def dispatch_to_lowest_idle(t, g, size, now):
        lowest = int(np.argmax(engine.free[g][:engine.act[g]] <= now))
        dispatch(t, g, size, now)
        assert engine.free[g][lowest] > now, "skipped the lowest idle replica"

    def offer_then_check(now):
        nonlocal epochs
        offer(now)
        epochs += 1
        for g in range(len(groups)):
            idle = np.flatnonzero(engine.free[g][:engine.act[g]] <= now)
            assert sorted(engine.idle_heap[g]) == idle.tolist(), (now, g)
            assert engine.idle_count[g] == len(engine.idle_heap[g])

    engine._offer = offer_then_check
    engine._dispatch = dispatch_to_lowest_idle
    engine.run()
    assert engine.completed == len(columns)
    assert epochs > 1_000
    assert engine.edge_ptr == len(engine.edges) == 2
    assert any(e.after > e.before for e in engine.scaling), "never scaled out"
    assert any(e.after < e.before for e in engine.scaling), "never scaled in"


def test_autoscale_policy_validation():
    with pytest.raises(ValueError):
        AutoscalePolicy(metric="cpu")
    with pytest.raises(ValueError):
        AutoscalePolicy(threshold=0.0)
    with pytest.raises(ValueError):
        AutoscalePolicy(min_replicas=4, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalePolicy(idle_fraction=0.0)


# -- faults and hop costs --------------------------------------------------------------------------


def test_group_down_reroutes_and_conserves():
    plan = chaos_plan("single-failure", ("2080ti", "nano"), 4.0, seed=0)
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(tenants,
                            (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                            n_requests=8_000, arrival_rate=1_800.0, seed=0,
                            faults=plan)
    fs = report.fault_stats
    assert report.completed + fs.shed == fs.issued == 8_000
    assert fs.devices["2080ti"].aborted_batches > 0
    assert all(s.requests > 0 for s in report.group_stats.values())


# -- one fault semantics: the fleet front end on replica-1 groups == simulate_mixed ---------------


def three_workloads():
    return make_tenants(["avmnist", "mmimdb", "mustard"], slo=50e-3)


def assert_same_fault_outcome(groups, devices, plan):
    fleet = simulate_fleet(three_workloads(), groups, n_requests=20_000,
                           arrival_rate=100e3, seed=0, faults=plan)
    mixed = simulate_mixed(three_workloads(), devices=devices,
                           n_requests=20_000, arrival_rate=100e3, seed=0,
                           faults=plan, retry=RetryPolicy())
    assert fleet.p99_latency == pytest.approx(mixed.p99_latency, abs=1e-9)
    assert fleet.fault_stats.retries == mixed.fault_stats.retries
    assert fleet.fault_stats.shed == mixed.fault_stats.shed
    # ...and both give the per-event oracle's answer.
    oracle = classic_reference.simulate_mixed(
        three_workloads(), devices=devices, n_requests=20_000,
        arrival_rate=100e3, seed=0, faults=plan, retry=RetryPolicy())
    assert mixed.p99_latency == pytest.approx(oracle.p99_latency, abs=1e-9)
    assert mixed.fault_stats.retries == oracle.fault_stats.retries
    return fleet, mixed


def test_device_down_aborts_in_flight_batches_like_simulate_mixed():
    # The failing 2080ti aborts the batch it is running; its requests
    # retry. Letting the batch drain instead would halve the p99.
    plan = FaultPlan(events=(DeviceDown(time=0.05, device="2080ti"),
                             DeviceRecover(time=0.15, device="2080ti")))
    fleet, _ = assert_same_fault_outcome(
        "2080ti:1,orin:1,nano:1", ("2080ti", "orin", "nano"), plan)
    assert fleet.fault_stats.retries > 0
    assert fleet.fault_stats.devices["2080ti"].aborted_batches > 0


def test_overlapping_throttles_multiply_like_simulate_mixed():
    # 2.0x over 0.02-0.10 s and 3.0x over 0.05-0.15 s: 6x while both are
    # on, and the 3x window outlives the first throttle-off.
    plan = FaultPlan(events=(
        ThermalThrottle(device="2080ti", time=0.02, until=0.10, factor=2.0),
        ThermalThrottle(device="2080ti", time=0.05, until=0.15, factor=3.0)))
    assert_same_fault_outcome("2080ti:1,nano:1", ("2080ti", "nano"), plan)


def test_group_throttle_stretches_latency():
    plan = FaultPlan(events=(ThermalThrottle(device="2080ti", time=0.0,
                                             until=100.0, factor=3.0),))
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    throttled = simulate_fleet(tenants, (DeviceGroup("2080ti", 2),),
                               n_requests=4_000, arrival_rate=700.0, seed=0,
                               faults=plan)
    clean = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(8)),
                           (DeviceGroup("2080ti", 2),),
                           n_requests=4_000, arrival_rate=700.0, seed=0)
    assert throttled.completed == clean.completed == 4_000
    assert throttled.mean_service_time > clean.mean_service_time * 1.5


def test_hop_costs_charged_on_group_moves():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(tenants,
                            (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                            n_requests=8_000, arrival_rate=1_800.0, seed=0,
                            hop_bytes=1e6)
    hops = sum(s.hop_batches for s in report.group_stats.values())
    hop_time = sum(s.hop_time for s in report.group_stats.values())
    assert report.completed == 8_000
    assert hops > 0
    assert hop_time > 0.0

    free = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(8)),
                          (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                          n_requests=8_000, arrival_rate=1_800.0, seed=0)
    assert report.mean_latency > free.mean_latency


# -- report surface --------------------------------------------------------------------------------


def test_fleet_summary_renders():
    from repro.serving import report_summary

    report = overloaded(autoscale=AutoscalePolicy(threshold=20.0))
    text = report_summary(report)
    assert "issued (conserved)" in text
    assert "Per-group breakdown" in text
    assert "autoscaling:" in text


# -- one answer, one type: simulate_fleet on replica-1 groups == simulate_mixed ------------------


SCALAR_FIELDS = (
    "policy", "router", "n_requests", "arrival_rate", "makespan", "throughput",
    "mean_latency", "p50_latency", "p95_latency", "p99_latency",
    "mean_queue_time", "mean_formation_wait", "mean_service_time",
    "scaling_events", "finetune_stats", "inference_slowdown", "fault_stats",
)


@pytest.mark.parametrize("plan", [
    None,
    FaultPlan(events=(ThermalThrottle(device="2080ti", time=0.02, until=0.10,
                                      factor=2.0),)),
], ids=["fault-free", "throttle"])
def test_fleet_and_mixed_reports_are_one_type(plan):
    fleet = simulate_fleet(three_workloads(), "2080ti:1,orin:1,nano:1",
                           n_requests=20_000, arrival_rate=100e3, seed=0,
                           faults=plan)
    mixed = simulate_mixed(three_workloads(), devices=("2080ti", "orin", "nano"),
                           n_requests=20_000, arrival_rate=100e3, seed=0,
                           faults=plan)
    assert type(fleet) is type(mixed)
    for name in SCALAR_FIELDS:
        assert getattr(fleet, name) == getattr(mixed, name), name
    assert fleet.tenant_stats == mixed.tenant_stats
    np.testing.assert_array_equal(fleet.latencies, mixed.latencies)
    assert fleet.group_stats.keys() == mixed.group_stats.keys()
    for label, got in fleet.group_stats.items():
        want = mixed.group_stats[label]
        assert got.batch_histogram == {} and want.batch_histogram
        assert dataclasses.replace(got, batch_histogram=want.batch_histogram) == want
    # Only the pool front end records the per-request view.
    assert fleet.requests is None
    assert len(mixed.requests) == mixed.n_requests == 20_000
    for slo in (1e-3, 5e-3, 50e-3):
        walk = sum(1 for r in mixed.requests if not r.shed and r.latency <= slo)
        assert fleet.slo_attainment(slo) == mixed.slo_attainment(slo) == (
            walk / len(mixed.requests))
