"""Open-loop serving on a device pool: single- and multi-tenant front ends.

Generalizes the paper's Sec. 5.1 closed 10,000-task batch run into the
system a deployment actually runs: requests arrive over time (Poisson or
all-at-once), a dynamic batching policy groups them, a router places each
batch on one of several heterogeneous devices, and per-request latency
decomposes into queueing, batch formation and compute. Batch compute
times come from a cost model (profiled and memoized per
(workload, fusion, batch size, device) — see
:mod:`repro.serving.costmodel`), so a simulation of millions of requests
costs milliseconds, not GPU-hours.

:func:`simulate` serves one workload; :func:`simulate_mixed` serves a
*mix* of tenants concurrently, the way the paper's fleet runs several of
the nine multimodal workloads on shared devices. Each
:class:`TenantSpec` carries its own cost model, batching policy and SLO;
tenants keep separate FIFO queues, batches never mix tenants (different
workloads cannot share a batch), and every policy/router decision sees
the deciding tenant's own latency curves. The report then breaks
latency and SLO attainment down per tenant (:class:`TenantStats`).

Both run the fleet engine (:mod:`repro.serving.fleet`): the pool becomes
one single-replica group per device slot, labelled as
:func:`slot_labels` names it. They return the same
:class:`ServingReport` as :func:`~repro.serving.fleet.simulate_fleet`,
plus its per-request view: the engine's recorded columns come back as
:class:`~repro.serving.request.Request` objects. At each event
the engine absorbs due arrivals into the per-tenant FIFO queues, then
repeatedly offers work to idle slots — tenants in oldest-head-of-queue-
first order, slots in router order; a policy either dispatches a batch
or holds, and when every tenant holds on every idle slot the earliest
policy wake-up is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serving.costmodel import CallableCostModel
from repro.serving.faults import DegradedMode, FaultPlan, FaultStats, RetryPolicy
from repro.serving.fleet import (DeviceGroup, GroupStats, ScalingEvent,
                                 _FleetEngine, _report)
from repro.serving.policies import BatchingPolicy
from repro.serving.request import (Request, RequestColumns, closed_arrivals,
                                   poisson_arrivals)
from repro.serving.router import EarliestFinishRouter, Router


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant latency / SLO breakdown of one mixed simulation."""

    tenant: str
    n_requests: int
    slo: float | None
    throughput: float  # this tenant's requests / overall makespan
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_time: float
    slo_attainment: float | None  # None when the tenant declared no SLO


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving simulation produced, whichever front end ran.

    ``group_stats`` is keyed by group label: the device name of a
    :func:`~repro.serving.fleet.simulate_fleet` group, or the slot label
    (``2080ti#0``, ``orin``) of a pool run. ``requests`` is the
    per-request view; only :func:`simulate` and :func:`simulate_mixed`
    record one, :func:`~repro.serving.fleet.simulate_fleet` leaves it
    ``None``.
    """

    policy: str
    router: str
    n_requests: int
    arrival_rate: float | None
    makespan: float
    throughput: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_time: float
    mean_formation_wait: float
    mean_service_time: float
    group_stats: dict[str, GroupStats]
    tenant_stats: dict[str, TenantStats] = field(default_factory=dict)
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0),
                                  repr=False)  # completed requests only
    requests: list[Request] | None = field(default=None, repr=False)
    scaling_events: tuple[ScalingEvent, ...] = ()
    # Background fine-tuning jobs that shared the devices during the run
    # (see repro.serving.finetune); empty for pure-inference simulations.
    finetune_stats: dict = field(default_factory=dict)
    inference_slowdown: float = 1.0  # batch-latency multiplier the jobs imposed
    # What the fault plan did to the run (see repro.serving.faults);
    # None when the run had no fault injection at all.
    fault_stats: FaultStats | None = None

    def slo_attainment(self, slo: float) -> float:
        """Fraction of issued requests whose end-to-end latency met ``slo``.

        Shed requests never complete and count as misses; an empty
        simulation misses nothing (attainment is vacuously 1).
        """
        if not self.n_requests:
            return 1.0
        return int((self.latencies <= slo).sum()) / self.n_requests

    @property
    def completed(self) -> int:
        """Requests that actually finished (``n_requests`` minus sheds)."""
        shed = self.fault_stats.shed if self.fault_stats is not None else 0
        return self.n_requests - shed

    @property
    def device_stats(self) -> dict[str, GroupStats]:
        """Read-only alias of ``group_stats``."""
        return self.group_stats

    def batch_sizes_used(self) -> dict[str, list[int]]:
        """Distinct dispatched batch sizes per group (sorted; empty when
        the run recorded no histogram)."""
        return {label: sorted(s.batch_histogram)
                for label, s in self.group_stats.items()}

    @property
    def total_utilization(self) -> float:
        """Busy time over replica time, pooled across groups."""
        busy = sum(s.busy_time for s in self.group_stats.values())
        replicas = sum(s.mean_replicas for s in self.group_stats.values())
        return busy / (replicas * self.makespan) if self.makespan > 0 else 0.0


@dataclass
class TenantSpec:
    """One tenant (workload) of a mixed simulation.

    ``cost`` is the tenant's own cost model (a bare ``batch_time(k)``
    callable is wrapped automatically), ``policy`` its batching policy and
    ``slo`` its end-to-end latency target (drives the report's per-tenant
    attainment column). ``weight`` is the tenant's share of the traffic
    mix — consumed by the scenario generators in
    :mod:`repro.serving.scenarios`, not by the event loop.
    """

    name: str
    cost: object
    policy: BatchingPolicy
    slo: float | None = None
    weight: float = 1.0
    # Optional graceful-degradation mode (repro.serving.faults.DegradedMode):
    # under sustained queue pressure the tenant serves with a shed modality
    # encoder at a reduced latency factor, trading quoted accuracy for drain.
    degraded: DegradedMode | None = None

    def __post_init__(self):
        if callable(self.cost) and not hasattr(self.cost, "latency"):
            self.cost = CallableCostModel(self.cost)
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {self.weight}")
        if self.slo is not None and not (math.isfinite(self.slo) and self.slo > 0):
            raise ValueError(f"tenant slo must be positive and finite, got {self.slo}")
        if self.degraded is not None and not isinstance(self.degraded, DegradedMode):
            raise TypeError(f"degraded must be a DegradedMode, "
                            f"got {type(self.degraded).__name__}")


def slot_labels(devices: tuple[str, ...]) -> list[str]:
    """Slot labels a device tuple expands to (``name#i`` for repeats).

    Chaos-scenario builders use this to target individual slots of a
    pool without running a simulation.
    """
    totals: dict[str, int] = {}
    for name in devices:
        totals[name] = totals.get(name, 0) + 1
    seen: dict[str, int] = {}
    labels = []
    for name in devices:
        i = seen.get(name, 0)
        seen[name] = i + 1
        labels.append(name if totals[name] == 1 else f"{name}#{i}")
    return labels


def validate_fault_plan(plan: FaultPlan, devices: tuple[str, ...]) -> None:
    """Validate ``plan`` against a device pool without running anything.

    Raises :class:`~repro.serving.faults.FaultPlanError` exactly as the
    simulation entry points would — lets a CLI fail fast on a malformed
    plan before any profiling happens.
    """
    labels = slot_labels(tuple(devices))
    plan.resolve(labels, dict(zip(labels, devices)))


def _serve(
    tenants: Sequence[TenantSpec],
    devices: tuple[str, ...],
    columns: RequestColumns,
    index: np.ndarray | None,
    router: Router | None,
    faults: FaultPlan | None,
    retry: RetryPolicy | None,
    slowdown: float = 1.0,
):
    """Run the engine on one single-replica group per slot of ``devices``."""
    router = router or EarliestFinishRouter()
    earliest = type(router) is EarliestFinishRouter
    engine = _FleetEngine(
        tenants, [DeviceGroup(d, 1) for d in devices], columns, None, faults,
        0.0, router.probe_cap if earliest else 128,
        labels=slot_labels(tuple(devices)),
        router=None if earliest else router, retry=retry, slowdown=slowdown,
        index=index, record=True)
    engine.run()
    return engine, router.name


def simulate(
    cost,
    policy: BatchingPolicy,
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    router: Router | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> ServingReport:
    """Run one open-loop serving simulation.

    Parameters
    ----------
    cost:
        Cost model with ``latency(device, batch_size) -> seconds``; a bare
        ``batch_time(k)`` callable is wrapped automatically.
    policy:
        Dynamic batching policy (see :mod:`repro.serving.policies`).
    devices:
        Device model names to serve on; repeat a name for multiple
        instances (slots get ``name#i`` labels).
    n_requests:
        Total requests to serve; ``0`` returns a well-formed empty report.
    arrival_rate:
        Mean arrivals/second (Poisson); ``None`` = all at t=0 (the
        paper's closed-batch setting).
    router:
        Placement strategy across idle devices; default earliest-finish.
    faults:
        Declarative fault plan (:class:`~repro.serving.faults.FaultPlan`)
        injected into the run; an empty plan reproduces the fault-free
        schedule bit-identically. ``retry`` governs how aborted requests
        are retried or shed (default :class:`RetryPolicy`).
    """
    if not devices:
        raise ValueError("need at least one device")
    if arrival_rate is None:
        arrivals = closed_arrivals(n_requests)
    else:
        arrivals = poisson_arrivals(n_requests, arrival_rate, seed=seed)
    tenants = [TenantSpec("", cost, policy)]
    columns = RequestColumns(arrivals, np.zeros(arrivals.size, dtype=np.int64),
                             ("",))
    engine, router_name = _serve(tenants, tuple(devices), columns, None,
                                 router, faults, retry)
    return _report(engine, policy.name, router_name, arrival_rate, columns,
                   tenants=False)


def simulate_mixed(
    tenants: Sequence[TenantSpec],
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    scenario: str = "uniform",
    requests: list[Request] | None = None,
    router: Router | None = None,
    finetune: Sequence | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    lint: bool = True,
) -> ServingReport:
    """Serve a mix of tenants concurrently on a shared device pool.

    Each tenant keeps its own FIFO queue, cost model, batching policy and
    SLO; batches never mix tenants, and placement decisions are made
    against the deciding tenant's latency curves. When ``requests`` is
    not given, the traffic mix is generated by the named ``scenario``
    (see :mod:`repro.serving.scenarios`) from the tenants' ``weight``
    fields; pass a pre-built, tenant-tagged request list to replay a
    custom stream (the report carries fresh request objects, so the same
    stream can be replayed across runs). The report carries per-tenant
    latency/SLO breakdowns in ``tenant_stats``.

    ``finetune`` adds background training jobs
    (:class:`~repro.serving.finetune.FinetuneJob`): each holds a stream
    share of every device, inference batches slow down by
    ``1 / (1 - sum(shares))``, and the report's ``finetune_stats`` records
    the training steps each job completed during the run's makespan.

    ``faults`` injects a declarative fault plan
    (:class:`~repro.serving.faults.FaultPlan`) — device failures abort
    in-flight batches (re-queued under ``retry``, shed past its bounds),
    throttle windows slow devices, stalls freeze them, and tenants with a
    declared ``degraded`` mode shed an encoder under pressure. The
    report's ``fault_stats`` accounts for all of it; background
    fine-tuning jobs additionally checkpoint/restart around each slot's
    down windows. An empty plan reproduces the fault-free schedule
    bit-identically.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    if not devices:
        raise ValueError("need at least one device")
    if lint:
        # Pre-run static lint: the tenant set and the fault plan are both
        # declarative, so errors (an unreachable recover, a plan that
        # blacks out the whole pool) are caught here in microseconds
        # instead of surfacing as a wrong number mid-simulation. Opt out
        # with lint=False to study a deliberately broken configuration.
        from repro.lint import check, lint_fault_plan, lint_tenants

        pre = lint_tenants(tenants, source="simulate_mixed")
        if faults is not None and not faults.empty:
            horizon = (n_requests / arrival_rate
                       if requests is None and arrival_rate else None)
            pre.extend(lint_fault_plan(
                faults, source="simulate_mixed",
                devices=slot_labels(tuple(devices)), horizon=horizon))
        check(pre, what="serving configuration")

    slowdown = 1.0
    if finetune:
        from repro.serving.finetune import inference_slowdown

        slowdown = inference_slowdown(finetune)

    index = source = None
    if requests is None:
        from repro.serving.scenarios import scenario_columns

        columns = scenario_columns(scenario, tenants, n_requests=n_requests,
                                   arrival_rate=arrival_rate, seed=seed)
    else:
        unknown = {r.tenant for r in requests} - set(names)
        if unknown:
            raise ValueError(f"requests reference unknown tenants {sorted(unknown)}")
        source = requests
        arrivals = np.fromiter((r.arrival for r in source), dtype=np.float64,
                               count=len(source))
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            order = np.argsort(arrivals, kind="stable")
            arrivals = arrivals[order]
            source = [source[k] for k in order.tolist()]
        code = {name: i for i, name in enumerate(names)}
        codes = np.fromiter((code[r.tenant] for r in source), dtype=np.int64,
                            count=len(source))
        index = np.fromiter((r.index for r in source), dtype=np.int64,
                            count=len(source))
        if np.array_equal(index, np.arange(index.size)):
            index = None  # request ids are stream positions
        columns = RequestColumns(arrivals, codes, tuple(names))

    engine, router_name = _serve(tenants, tuple(devices), columns, index,
                                 router, faults, retry, slowdown)
    return _report(engine, f"mixed({len(tenants)} tenants)", router_name,
                   arrival_rate, columns, source=source, finetune=finetune,
                   slowdown=slowdown)
