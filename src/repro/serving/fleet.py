"""The serving engine: labelled device groups, vectorized epochs, autoscaling.

Every serving front end runs this engine. :func:`simulate_fleet` serves
a fleet of homogeneous :class:`DeviceGroup`\\ s (``DeviceGroup("2080ti",
64)``), each labelled by its device name;
:func:`~repro.serving.simulator.simulate` and
:func:`~repro.serving.simulator.simulate_mixed` turn a device pool into
one single-replica group per slot, labelled ``2080ti#0``, ``2080ti#1``,
``orin`` and so on. The event loop processes *epochs* of events as numpy
arrays per group:

* arrivals come in as columnar arrays straight from
  :func:`repro.serving.scenarios.scenario_columns` and are absorbed in
  bulk with ``searchsorted`` — under saturation, one epoch swallows
  thousands of arrivals without visiting them individually; an epoch
  with no arrival due skips the search (the next arrival time is
  cached);
* each group keeps a replica free-time *vector* plus a min-heap of the
  idle replica indices in its active prefix: dispatch pops the
  lowest-index idle replica, completions draining off a fleet-wide
  finish-time heap push theirs back, so no epoch scans a vector;
* batch latencies reuse the cost models' memoized anchor curves
  (:class:`~repro.serving.costmodel.ProfiledCostModel`) as a dense
  precomputed interpolation table per (tenant, group), so the hot loop
  never re-enters the interpolator; the adaptive policy's batch search
  reads the table directly (``latency_table``).

Routing happens per *group*, not per replica: every replica of a group
shares one latency curve. The default earliest-finish placement caches
each tenant's ranking of all groups per probe batch size and filters it
down to the idle groups; while a thermal throttle or a degraded mode
rescales a curve, the idle groups are sorted afresh. Any other
:class:`~repro.serving.router.Router` ranks the idle group labels itself
and hears about dispatches, downs and recoveries. On top of the core
loop:

* **faults** — a :class:`~repro.serving.faults.FaultPlan` names group
  labels, or a device model that expands to every group of it.
  ``DeviceDown`` aborts the group's in-flight batches and their requests
  retry under a :class:`~repro.serving.faults.RetryPolicy` (or are shed
  past its bounds); ``TransientStall`` stretches in-flight batches and
  blocks idle replicas for its duration; overlapping ``ThermalThrottle``
  windows multiply. Tenants with a
  :class:`~repro.serving.faults.DegradedMode` serve cheaper under queue
  pressure. Given a fault plan or retry policy, the engine checks
  request conservation at every epoch;
* **cross-group hop costs** — when the router moves a tenant's traffic
  to a different group than its previous batch, the batch pays a
  host-to-device transfer (:func:`repro.hw.transfer.h2d_time`) of
  ``hop_bytes`` per request on the destination device;
* **reactive autoscaling** — an :class:`AutoscalePolicy` evaluated on a
  fixed interval scales groups out on queue depth (or windowed p99) and
  back in on idleness, with cooldowns and per-group min/max replicas;
  scale-in lets busy replicas finish their batches, and every action
  lands in the report as a :class:`ScalingEvent`.

``tests/serving/classic_reference.py`` keeps a deliberately naive
per-event loop as the differential oracle for all of this.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.hw.transfer import h2d_time
from repro.serving.faults import (DeviceFaultStats, FaultPlan, FaultStats,
                                  RetryPolicy, TenantFaultStats)
from repro.serving.request import Request

if TYPE_CHECKING:
    from repro.serving.simulator import (ServingReport, TenantSpec,
                                         TenantStats)

__all__ = [
    "AutoscalePolicy",
    "DeviceGroup",
    "FleetConfig",
    "FleetConfigError",
    "GroupStats",
    "ScalingEvent",
    "parse_autoscale",
    "parse_groups",
    "simulate_fleet",
]


class FleetConfigError(ValueError):
    """A fleet configuration is malformed; the message names the offender."""


@dataclass(frozen=True)
class DeviceGroup:
    """``replicas`` interchangeable instances of one device model.

    ``pool`` is the provisioned ceiling the autoscaler may scale out to;
    it defaults to ``replicas`` (no headroom). The simulation starts
    with ``replicas`` active.
    """

    device: str
    replicas: int
    pool: int | None = None

    def __post_init__(self):
        if not self.device:
            raise FleetConfigError("device group needs a device name")
        if self.replicas < 1:
            raise FleetConfigError(
                f"group {self.device!r} needs at least 1 replica, "
                f"got {self.replicas}")
        if self.pool is not None and self.pool < self.replicas:
            raise FleetConfigError(
                f"group {self.device!r} pool ({self.pool}) smaller than its "
                f"initial replicas ({self.replicas})")

    @property
    def capacity(self) -> int:
        """Provisioned replica ceiling (``pool`` or ``replicas``)."""
        return self.replicas if self.pool is None else self.pool


@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive per-group scaling, evaluated every ``interval`` seconds.

    * **scale-out** when the fleet-wide metric (``"queue"`` = requests
      queued, ``"p99"`` = p99 latency of batches dispatched since the
      last evaluation) exceeds ``threshold`` — the group grows by
      ``step`` replicas up to ``max_replicas`` (never past its pool);
    * **scale-in** when nothing is queued and at least
      ``idle_fraction`` of the group's active replicas sit idle — the
      group shrinks by ``step`` down to ``min_replicas``. Scale-in only
      retires *capacity*: a busy replica keeps draining its in-flight
      batch.
    * ``cooldown`` suppresses any action on a group within ``cooldown``
      seconds of its previous action.
    """

    metric: str = "queue"
    threshold: float = 64.0
    interval: float = 0.05
    cooldown: float = 0.25
    step: int = 1
    min_replicas: int = 1
    max_replicas: int | None = None
    idle_fraction: float = 0.5

    def __post_init__(self):
        if self.metric not in ("queue", "p99"):
            raise FleetConfigError(
                f"autoscale metric must be 'queue' or 'p99', got {self.metric!r}")
        if self.threshold <= 0:
            raise FleetConfigError(
                f"autoscale threshold must be positive, got {self.threshold}")
        if self.interval <= 0:
            raise FleetConfigError(
                f"autoscale interval must be positive, got {self.interval}")
        if self.cooldown < 0:
            raise FleetConfigError(
                f"autoscale cooldown must be non-negative, got {self.cooldown}")
        if self.step < 1:
            raise FleetConfigError(
                f"autoscale step must be >= 1, got {self.step}")
        if self.min_replicas < 1:
            raise FleetConfigError(
                f"autoscale min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas is not None and self.max_replicas < self.min_replicas:
            raise FleetConfigError(
                f"autoscale max_replicas ({self.max_replicas}) below "
                f"min_replicas ({self.min_replicas})")
        if not 0 < self.idle_fraction <= 1:
            raise FleetConfigError(
                f"autoscale idle_fraction must be in (0, 1], "
                f"got {self.idle_fraction}")


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action: group ``group`` went ``before`` → ``after``."""

    time: float
    group: str
    before: int
    after: int
    reason: str


@dataclass(frozen=True)
class GroupStats:
    """Per-group accounting of one simulation; a pool slot is a
    single-replica group."""

    group: str  # group label: the device name, or a slot label like "2080ti#1"
    device: str  # device model the group's replicas run
    replicas: int  # active replicas at the end of the run
    peak_replicas: int
    mean_replicas: float  # time-weighted mean active replicas (occupancy)
    batches: int
    requests: int
    busy_time: float
    utilization: float  # busy time / (mean_replicas * makespan)
    mean_batch: float
    hop_batches: int  # batches that paid a cross-group transfer
    hop_time: float  # total transfer seconds added to those batches
    # batch size -> dispatch count; empty when the run recorded no
    # per-request view (simulate_fleet)
    batch_histogram: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FleetConfig:
    """Declarative fleet configuration — the lint artifact.

    Bundles what :func:`simulate_fleet` is about to run so the MMB31x
    rules (:mod:`repro.lint.fleet_rules`) can vet it statically:
    oversubscribed autoscale bounds, thrash-prone cooldowns, fault plans
    naming unknown groups.
    """

    groups: tuple[DeviceGroup, ...]
    autoscale: AutoscalePolicy | None = None
    faults: FaultPlan | None = None


def parse_groups(spec: str) -> tuple[DeviceGroup, ...]:
    """Parse ``"2080ti:64,orin:32,nano:16"`` into device groups.

    Each entry is ``DEVICE:REPLICAS`` or ``DEVICE:REPLICAS:POOL`` (the
    autoscaler's provisioned ceiling).
    """
    groups: list[DeviceGroup] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise FleetConfigError(
                f"bad group spec {entry!r}; expected DEVICE:REPLICAS[:POOL]")
        try:
            replicas = int(parts[1])
            pool = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise FleetConfigError(
                f"bad group spec {entry!r}; replicas/pool must be integers"
            ) from None
        groups.append(DeviceGroup(parts[0], replicas, pool))
    if not groups:
        raise FleetConfigError(f"no device groups in spec {spec!r}")
    return tuple(groups)


def parse_autoscale(spec: str, min_replicas: int = 1,
                    max_replicas: int | None = None) -> AutoscalePolicy:
    """Parse ``"queue:64"`` / ``"p99:0.1:0.05:0.25"`` into a policy.

    The spec is ``METRIC:THRESHOLD[:INTERVAL[:COOLDOWN]]``; the replica
    bounds come in separately (``--autoscale-min``/``--autoscale-max``
    on the CLI).
    """
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise FleetConfigError(
            f"bad autoscale spec {spec!r}; expected "
            f"METRIC:THRESHOLD[:INTERVAL[:COOLDOWN]]")
    kwargs: dict = {"metric": parts[0]}
    try:
        kwargs["threshold"] = float(parts[1])
        if len(parts) > 2:
            kwargs["interval"] = float(parts[2])
        if len(parts) > 3:
            kwargs["cooldown"] = float(parts[3])
    except ValueError:
        raise FleetConfigError(
            f"bad autoscale spec {spec!r}; threshold/interval/cooldown "
            f"must be numbers") from None
    return AutoscalePolicy(min_replicas=min_replicas,
                           max_replicas=max_replicas, **kwargs)


# ---------------------------------------------------------------------------
# Dense latency tables
# ---------------------------------------------------------------------------

# A dense table never needs to stretch past the policies' decision range;
# anything larger falls back to the exact per-query path.
_MAX_TABLE = 4096
# Arrival slices up to this many requests are counted in Python;
# larger ones (saturated epochs) go through one ``bincount``.
_SMALL_SLICE = 16
# numpy sums fewer doubles than this from 0.0 strictly left to right;
# from here on its unrolled pairwise sum reassociates.
_PAIRWISE = 8


def _fold_small(arrivals: list[float], now: float,
                idle_since: float) -> tuple[float, float]:
    """``(arr.sum(), np.minimum(now - arr, now - idle_since).sum())`` for
    fewer than ``_PAIRWISE`` arrivals, bit for bit, in one Python loop.

    Both numpy sums start from 0.0 and add left to right below
    ``_PAIRWISE`` members, and ``np.minimum(x, y)`` is ``x if x < y
    else y`` on finite inputs (signed zeros included).
    """
    asum = form = 0.0
    idle_wait = now - idle_since
    for a in arrivals:
        asum += a
        wait = now - a
        form += wait if wait < idle_wait else idle_wait
    return asum, form


def _dense_curve(cost, device: str, max_k: int) -> np.ndarray | None:
    """Precompute ``latency(device, k)`` for ``k = 1..max_k``, or ``None``.

    Only cost models exposing their anchor representation
    (``_anchor_arr`` + ``_anchor_curve``, i.e. the profiled/trace
    models) are vectorized; everything else (e.g. test callables) goes
    through the exact per-query fallback. The vectorized interpolation
    reproduces :func:`repro.serving.costmodel._interp_affine`
    operation-for-operation, so table lookups are bit-identical to the
    scalar ``cost.latency`` path.
    """
    anchors = getattr(cost, "_anchor_arr", None)
    curve_fn = getattr(cost, "_anchor_curve", None)
    if anchors is None or curve_fn is None:
        return None
    times = curve_fn(device)
    ks = np.arange(1, max_k + 1, dtype=np.float64)
    out = np.interp(ks, anchors, times)
    if anchors.size > 1:
        hi = ks > anchors[-1]
        if hi.any():
            slope = (times[-1] - times[-2]) / (anchors[-1] - anchors[-2])
            out[hi] = times[-1] + slope * (ks[hi] - anchors[-1])
        lo = ks < anchors[0]
        if lo.any():
            slope = (times[1] - times[0]) / (anchors[1] - anchors[0])
            out[lo] = np.maximum(times[0] - slope * (anchors[0] - ks[lo]),
                                 times[0] * ks[lo] / anchors[0])
    return out


class _GroupCost:
    """Per-tenant cost adapter the policies and the router see.

    Groups are addressed by label (``2080ti``, or ``2080ti#1`` for one
    slot of a pool): ``device_name`` maps a label to its device model and
    ``underlying`` exposes the tenant's cost model, so
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain memo keys
    on something that outlives the run.

    A batch costs the model's latency times three multipliers, applied in
    this order: ``scale`` (the slowdown background fine-tuning imposes,
    fixed for a run), the group's live thermal-throttle product (the
    shared ``throttle`` dict the fault edges mutate) and ``degrade`` (the
    tenant's degraded-mode factor while it is degraded). Dense tables are
    Python lists: indexing one returns a float without boxing a numpy
    scalar. While a multiplier applies, each table is rescaled once per
    :meth:`refresh`; numpy multiplies elementwise exactly as Python does,
    so table and scalar paths still agree bit for bit.
    """

    __slots__ = ("underlying", "scale", "degrade", "plain", "_devices",
                 "_max_k", "_tables", "_scaled", "_memo", "_throttle")

    def __init__(self, cost, throttle: dict[str, float], max_k: int,
                 devices: dict[str, str] | None = None, scale: float = 1.0):
        self.underlying = cost
        self.scale = scale
        self.degrade = 1.0
        self._devices = devices or {}
        self._max_k = min(int(max_k), _MAX_TABLE)
        self._tables: dict[str, list[float] | None] = {}
        self._memo: dict[tuple[str, int], float] = {}
        self._throttle = throttle
        self.refresh()

    def refresh(self) -> None:
        """Call after ``degrade`` or the throttle dict changed."""
        self.plain = (self.scale == 1.0 and self.degrade == 1.0
                      and not self._throttle)
        self._scaled: dict[str, list[float] | None] = {}  # label -> table

    def _table(self, label: str) -> list[float] | None:
        if label not in self._tables:
            table = _dense_curve(self.underlying, self.device_name(label),
                                 self._max_k)
            self._tables[label] = None if table is None else table.tolist()
        return self._tables[label]

    def _rescale(self, label: str, base):
        """``base`` (a float or an array) times the live multipliers."""
        if self.scale != 1.0:
            base = base * self.scale
        factor = self._throttle.get(label)
        if factor is not None:
            base = base * factor
        if self.degrade != 1.0:
            base = base * self.degrade
        return base

    def latency(self, label: str, batch_size: int) -> float:
        table = self._table(label) if self.plain else self.latency_table(label)
        if table is not None and 1 <= batch_size <= len(table):
            return table[batch_size - 1]
        key = (label, batch_size)
        base = self._memo.get(key)
        if base is None:
            base = self._memo[key] = float(self.underlying.latency(
                self.device_name(label), batch_size))
        return base if self.plain else self._rescale(label, base)

    def latency_table(self, label: str) -> list[float] | None:
        """``[latency(label, k) for k = 1..len]``, or ``None`` when
        ``label`` has no dense table."""
        if self.plain:
            return self._table(label)
        if label not in self._scaled:
            table = self._table(label)
            self._scaled[label] = (None if table is None else
                                   self._rescale(label, np.array(table)).tolist())
        return self._scaled[label]

    def device_name(self, label: str) -> str:
        return self._devices.get(label, label)


def _policy_max_batch(policy, probe_cap: int) -> int:
    """Largest batch size a policy's decisions can ever price."""
    return max(int(probe_cap),
               int(getattr(policy, "max_batch", 0) or 0),
               int(getattr(policy, "batch_size", 0) or 0),
               1)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _InFlight:
    """A batch on one replica, tracked so a fault can abort or stretch it.

    Members are the tenant's retried requests ``retried`` plus the
    contiguous queue slice ``[start, end)``. With ``tenant`` ``None`` the
    record is a stall blocking an idle replica until ``finish``.
    """

    finish: float
    tenant: int | None = None
    retried: Sequence[int] = ()
    start: int = 0
    end: int = 0
    dispatch: float = 0.0
    arrivals: float = 0.0  # sum of the members' arrival times
    formation: float = 0.0  # sum of the members' formation waits

    @property
    def size(self) -> int:
        return len(self.retried) + self.end - self.start

    def members(self) -> list[int]:
        return [*self.retried, *range(self.start, self.end)]


class _FleetEngine:
    """Vectorized event loop over labelled device groups.

    One *epoch* = advance the clock to the next relevant instant, absorb
    everything due (completions, arrivals in bulk, autoscale ticks), then
    offer queued work to idle groups until every policy holds. Fault
    edges and retry wake-ups due at an instant are applied one at a time,
    each followed by its own offer, so same-instant faults see the state
    a per-event loop would. Request timing is written straight into
    preallocated per-tenant columns; no per-request Python objects exist
    anywhere.

    Faults (``DeviceDown``/``TransientStall`` edges) switch on batch
    tracking: a down group aborts its in-flight batches, whose requests
    retry under ``retry`` or are shed; a stall stretches in-flight batches
    and blocks idle replicas. Sparse per-request fault state (retry
    counts, abort times) lives in dicts keyed by ``(tenant, local index)``.

    ``record=True`` keeps every request's dispatch, finish, group, batch
    size and formation wait (what :class:`~repro.serving.simulator.Request`
    objects carry); without it only latencies are kept.
    """

    def __init__(self, tenants: Sequence[TenantSpec],
                 groups: Sequence[DeviceGroup], columns,
                 autoscale: AutoscalePolicy | None,
                 faults: FaultPlan | None,
                 hop_bytes: float, probe_cap: int,
                 labels: Sequence[str] | None = None, router=None,
                 retry: RetryPolicy | None = None, slowdown: float = 1.0,
                 index: np.ndarray | None = None, record: bool = False):
        self.tenants = list(tenants)
        self.groups = list(groups)
        self.autoscale = autoscale
        self.hop_bytes = float(hop_bytes)
        self.probe_cap = int(probe_cap)
        self.router = router  # None: cached earliest-finish ranking
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline = self.retry.deadline

        n = len(columns)
        self.n = n
        self.arr_all = columns.arrivals
        self.codes = columns.codes

        # Per-tenant views of the stream. A single stable argsort groups
        # the request indices by tenant while preserving arrival order
        # within each tenant (one O(n log n) pass instead of one mask
        # scan per tenant). The only per-request output the fleet report
        # needs elementwise is the latency (percentiles, SLO attainment),
        # so that is the only per-request buffer kept unless ``record``
        # asks for more — a batch is mostly a slice of one tenant's
        # queue, making the hot-loop write a cache-friendly contiguous
        # fill. Queue/formation/service waits only ever surface as means,
        # so they fold into scalar accumulators while the batch slice is
        # still cache-hot.
        K = len(self.tenants)
        order = np.argsort(self.codes, kind="stable")
        bounds = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.codes, minlength=K), out=bounds[1:])
        self.bounds = bounds
        self.arr_t = [np.ascontiguousarray(
            self.arr_all[order[bounds[t]:bounds[t + 1]]]) for t in range(K)]
        self.lat_t = [np.empty(a.size, dtype=np.float64) for a in self.arr_t]
        self.arr_sum = [0.0] * K   # sum of dispatched requests' arrivals
        self.disp_sum = [0.0] * K  # sum of dispatch instants (x batch size)
        self.form_sum = 0.0        # global formation-wait sum
        self.serv_sum = 0.0        # global service-time sum
        # A tenant's queue is ``tail[t] - head[t]`` long. Retried
        # requests (local indices, arrival-sorted in ``requeued[t]``)
        # wait ahead of the contiguous slice — a retried request never
        # arrived after anything still in its tenant's slice — and
        # ``head[t]`` counts them as if they sat just before it: the
        # slice itself starts at ``head[t] + len(requeued[t])``.
        self.head = [0] * K
        self.tail = [0] * K
        # Arrival of each tenant's queue head (inf once exhausted), kept
        # as a Python float for the oldest-first sort and the policies.
        self.head_arr = [float(a[0]) if a.size else math.inf
                         for a in self.arr_t]
        self.last_group: list[int | None] = [None] * K
        self.requeued: list[list[int]] = [[] for _ in range(K)]

        G = len(self.groups)
        self.gdev = [g.device for g in self.groups]
        self.labels = (list(labels) if labels is not None else list(self.gdev))
        devices = dict(zip(self.labels, self.gdev))
        self._gindex = {label: i for i, label in enumerate(self.labels)}

        self.throttle: dict[str, float] = {}  # label -> product of active factors
        self._throttles: dict[str, list[float]] = {}
        self.policies = [spec.policy for spec in self.tenants]
        self.tcost = [
            _GroupCost(spec.cost, self.throttle,
                       _policy_max_batch(spec.policy, probe_cap), devices,
                       slowdown)
            for spec in self.tenants
        ]
        self.modes = [spec.degraded for spec in self.tenants]
        self.any_mode = any(m is not None for m in self.modes)
        self.degraded = [False] * K

        # Per-group replica state: free-time vectors over the full
        # provisioned pool; ``act`` bounds the autoscaler-active prefix.
        self.free = [np.zeros(g.capacity, dtype=np.float64) for g in self.groups]
        self.act = [g.replicas for g in self.groups]
        self.down = [False] * G
        self.batches = [0] * G
        self.requests = [0] * G
        self.busy = [0.0] * G
        self.hop_batches = [0] * G
        self.hop_time = [0.0] * G
        self.peak = [g.replicas for g in self.groups]
        self.occ_int = [0.0] * G  # integral of act over time
        self.occ_last = [0.0] * G
        self.last_action = [-np.inf] * G
        self.scaling: list[ScalingEvent] = []

        self.plan = faults
        self.happenings: list[tuple] = []
        if faults is not None and not faults.empty:
            self.happenings = faults.resolve(self.labels, devices)
        self.edges = [(when, kind, label, arg)
                      for when, _seq, kind, label, arg in self.happenings]
        self.edge_ptr = 0
        self.next_edge_t = self.edges[0][0] if self.edges else math.inf
        # Only downs and stalls touch in-flight batches; without them a
        # dispatch finalizes its requests' timing.
        self.track = any(kind in ("down", "stall") for _, kind, _, _ in self.edges)
        self.cur: list[list[_InFlight | None]] | None = (
            [[None] * g.capacity for g in self.groups] if self.track else None)
        # Global positions of the tenant-local requests, for retry jitter
        # and recorded output; ``index`` maps positions to request ids.
        self.order = order if (self.track or record) else None
        self.index = index

        self.record = record
        self.deg_t = ([np.zeros(a.size, dtype=bool) for a in self.arr_t]
                      if record or self.any_mode else None)
        self.noting = self.deg_t is not None or self.router is not None
        if record:
            self.disp_t = [np.empty(a.size) for a in self.arr_t]
            self.fin_t = [np.empty(a.size) for a in self.arr_t]
            self.form_t = [np.empty(a.size) for a in self.arr_t]
            self.grp_t = [np.zeros(a.size, dtype=np.int32) for a in self.arr_t]
            self.bs_t = [np.zeros(a.size, dtype=np.int32) for a in self.arr_t]
            self.hist: list[dict[int, int]] = [{} for _ in self.groups]

        # Conservation counters: issued == completed + shed + queued +
        # on_device + awaiting retry, checked every epoch of a run given
        # a fault plan or retry policy. Without tracking, ``completed``
        # counts at dispatch.
        self.checked = faults is not None or retry is not None
        self.completed = 0
        self.shed = 0
        self.queued = 0
        self.on_device = 0
        self.retry_heap: list[tuple[float, int, int, int]] = []
        self._retry_seq = 0

        # Fault accounting (see fault_stats).
        self.retries: dict[tuple[int, int], int] = {}
        self.abort_time: dict[tuple[int, int], float] = {}
        self.recovery: list[float] = []
        self.retry_total = 0
        self.down_since: dict[str, float] = {}
        self.down_windows: dict[str, list[tuple[float, float]]] = {}
        self.stall_time: dict[str, float] = {}
        self.aborted_batches: dict[str, int] = {}
        self.aborted_requests: dict[str, int] = {}
        self.tenant_shed = [0] * K
        self.degraded_requests = [0] * K
        self.degraded_since: dict[int, float] = {}
        self.degraded_time = [0.0] * K
        self.activations = [0] * K

        self.makespan = 0.0
        self.next_arr = 0
        self.next_arr_t = float(self.arr_all[0]) if n else math.inf
        self.pending_wakeup: float | None = None
        self.tick_count = 0
        # Rolling window of batch latencies for the p99 autoscale metric.
        self.p99_window: list[np.ndarray] = []

        # Busy-replica bookkeeping. The free-time vectors are the ground
        # truth, but scanning them per epoch is O(replicas x epochs); the
        # hot loop instead keeps (a) a min-heap of in-flight batch
        # finish times — so the next completion is O(1) to peek — and
        # (b) per group, a min-heap of the idle replica indices in the
        # active prefix, popped at dispatch (lowest index first, the
        # replica ``argmax(free[:act] <= now)`` would pick) and fed as
        # entries drain off the busy heap. Scaling events rebuild the
        # idle heaps from the vectors (rare; ticks only). With tracking,
        # a heap entry is live only while it matches its replica's
        # tracked finish; aborted or stretched batches leave stale ones.
        self.busy_heap: list[tuple[float, int, int]] = []
        self.idle_heap = [list(range(g.replicas)) for g in self.groups]

        self._device_specs: dict[str, object] = {}  # lazy, hop pricing only
        # (tenant, probe) -> every group in router order; emptied whenever
        # a throttle edge or degraded-mode switch rescales curves.
        self._rank: dict[tuple[int, int], list[int]] = {}

    @property
    def idle_count(self) -> list[int]:
        """Idle replicas in each group's active prefix."""
        return [len(h) for h in self.idle_heap]

    # -- time stepping -----------------------------------------------------------

    def _next_tick(self) -> float:
        if self.autoscale is None:
            return math.inf
        return (self.tick_count + 1) * self.autoscale.interval

    def _next_time(self, now: float) -> float:
        """Earliest instant after ``now`` at which anything can change.

        The candidates are the next autoscale tick, a pending policy
        wakeup, the next fault edge, the next batch completion and the
        next retry; the next arrival joins them only if it would win and
        some active replica is idle (else nothing can dispatch it).
        """
        tick = self._next_tick()
        best = tick if now < tick else math.inf
        wake = self.pending_wakeup
        if wake is not None and now < wake < best:
            best = wake
        if now < self.next_edge_t < best:
            best = self.next_edge_t
        if self.busy_heap:
            # Entries at or before ``now`` were drained in _absorb, so
            # the heap top is the next batch completion across the fleet.
            finish = self.busy_heap[0][0]
            if now < finish < best:
                best = finish
        if self.retry_heap:
            retry = self.retry_heap[0][0]
            if now < retry < best:
                best = retry
        arrival = self.next_arr_t
        if now < arrival < best:
            # Some active replica idle right now stays idle until the
            # next free event, so the next arrival is a dispatch
            # opportunity.
            down = self.down
            for g, heap in enumerate(self.idle_heap):
                if heap and not down[g]:
                    return arrival
        return best

    def _absorb(self, now: float) -> None:
        """Absorb everything due at ``now``: completions, arrivals, ticks;
        shed expired requests and check conservation."""
        heap, cur = self.busy_heap, self.cur
        while heap and heap[0][0] <= now:
            finish, g, ridx = heapq.heappop(heap)
            if cur is not None:
                rec = cur[g][ridx]
                if rec is None or rec.finish != finish:
                    continue  # an aborted or stretched batch's old entry
                cur[g][ridx] = None
                if rec.tenant is not None:
                    self._complete(rec)
            if ridx < self.act[g]:
                heapq.heappush(self.idle_heap[g], ridx)
            # else: the replica drained outside the autoscaler-active
            # prefix; its free time stays on the vector and is picked
            # back up by the rebuild if the group scales out again.
        if self.next_arr_t <= now:
            old = self.next_arr
            new_total = int(self.arr_all.searchsorted(now, "right"))
            self.next_arr = new_total
            self.next_arr_t = (float(self.arr_all[new_total])
                               if new_total < self.n else math.inf)
            self.queued += new_total - old
            tail = self.tail
            if new_total - old <= _SMALL_SLICE:
                for t in self.codes[old:new_total].tolist():
                    tail[t] += 1
            else:
                counts = np.bincount(self.codes[old:new_total],
                                     minlength=len(self.tenants))
                for t, c in enumerate(counts.tolist()):
                    tail[t] += c
        if self.autoscale is not None:
            n_scaled = len(self.scaling)
            while self._next_tick() <= now:
                tick = self._next_tick()
                self.tick_count += 1
                self._tick(tick)
            if len(self.scaling) != n_scaled:
                # Active prefixes moved; rebuild the idle heaps from the
                # free-time vectors (w.r.t. *now* — everything due has
                # already drained off the busy heap). A sorted list is a
                # valid heap.
                for g in range(len(self.groups)):
                    idle = np.flatnonzero(
                        self.free[g][:self.act[g]] <= now).tolist()
                    if self.cur is not None:  # stalls block idle replicas
                        idle = [r for r in idle if self.cur[g][r] is None]
                    self.idle_heap[g] = idle
        if self.pending_wakeup is not None and now >= self.pending_wakeup:
            self.pending_wakeup = None
        if self.deadline is not None:
            self._shed_expired(now)
        if self.checked and self.next_arr != (
                self.completed + self.shed + self.queued + self.on_device
                + len(self.retry_heap)):
            raise RuntimeError(
                f"request conservation violated at t={now:g}: "
                f"issued={self.next_arr} but completed={self.completed} + "
                f"shed={self.shed} + queued={self.queued} + "
                f"on_device={self.on_device} + "
                f"awaiting_retry={len(self.retry_heap)}")

    # -- faults ------------------------------------------------------------------

    def _apply(self, kind: str, label: str, arg, now: float) -> None:
        """Apply one resolved fault edge to group ``label``."""
        g = self._gindex[label]
        if kind == "down":
            self.down[g] = True
            if self.router is not None:
                self.router.note_down(label)
            self.down_since[label] = now
            for ridx, rec in enumerate(self.cur[g]):
                if rec is not None and rec.tenant is not None:
                    self._abort(g, ridx, rec, now)
        elif kind == "recover":
            self.down[g] = False
            if self.router is not None:
                self.router.note_recover(label)
            start = self.down_since.pop(label, now)
            self.down_windows.setdefault(label, []).append((start, now))
            np.maximum(self.free[g], now, out=self.free[g])
        elif kind in ("throttle-on", "throttle-off"):
            active = self._throttles.setdefault(label, [])
            if kind == "throttle-on":
                active.append(arg)
            elif arg in active:
                active.remove(arg)
            if active:
                self.throttle[label] = float(np.prod(active))
            else:
                self.throttle.pop(label, None)
            for cost in self.tcost:
                cost.refresh()
            self._rank.clear()
        elif not self.down[g]:  # a stall; a dead group cannot stall further
            self.stall_time[label] = self.stall_time.get(label, 0.0) + arg
            until = now + arg
            for ridx, rec in enumerate(self.cur[g]):
                if rec is None:
                    idle = self.idle_heap[g]
                    if ridx not in idle:
                        continue  # outside the active prefix
                    idle.remove(ridx)
                    heapq.heapify(idle)
                    self.cur[g][ridx] = _InFlight(until)
                elif rec.tenant is None:  # already blocked
                    rec.finish = max(rec.finish, until)
                else:
                    self._stretch(g, ridx, rec, rec.finish + arg)
                    continue
                heapq.heappush(self.busy_heap, (until, g, ridx))

    def _abort(self, g: int, ridx: int, rec: _InFlight, now: float) -> None:
        """A failing group aborts ``rec``: its requests retry or are shed."""
        label, t, size = self.labels[g], rec.tenant, rec.size
        self.cur[g][ridx] = None
        self.free[g][ridx] = now
        if ridx < self.act[g]:
            heapq.heappush(self.idle_heap[g], ridx)
        self.busy[g] -= rec.finish - now  # only the executed part counts
        self.batches[g] -= 1
        self.requests[g] -= size
        if self.record:
            left = self.hist[g][size] - 1
            if left:
                self.hist[g][size] = left
            else:
                del self.hist[g][size]
        self.aborted_batches[label] = self.aborted_batches.get(label, 0) + 1
        self.aborted_requests[label] = self.aborted_requests.get(label, 0) + size
        self.on_device -= size
        self.arr_sum[t] -= rec.arrivals
        self.disp_sum[t] -= rec.dispatch * size
        self.serv_sum -= (rec.finish - rec.dispatch) * size
        self.form_sum -= rec.formation
        retry, arr_t = self.retry, self.arr_t[t]
        for i in rec.members():
            key = (t, i)
            attempt = self.retries[key] = self.retries.get(key, 0) + 1
            if attempt > retry.max_retries or (
                    self.deadline is not None
                    and now - float(arr_t[i]) >= self.deadline):
                self._shed(t, i)
                continue
            self.retry_total += 1
            self.abort_time[key] = now
            pos = int(self.order[self.bounds[t] + i])
            rid = pos if self.index is None else int(self.index[pos])
            heapq.heappush(self.retry_heap, (now + retry.backoff(rid, attempt),
                                             self._retry_seq, t, i))
            self._retry_seq += 1

    def _stretch(self, g: int, ridx: int, rec: _InFlight, finish: float) -> None:
        """A stall delays ``rec`` to ``finish``."""
        t = rec.tenant
        self.serv_sum += (finish - rec.finish) * rec.size
        rec.finish = finish
        self.free[g][ridx] = finish
        heapq.heappush(self.busy_heap, (finish, g, ridx))
        arr_t, lat = self.arr_t[t], self.lat_t[t]
        np.subtract(finish, arr_t[rec.start:rec.end], out=lat[rec.start:rec.end])
        for i in rec.retried:
            lat[i] = finish - arr_t[i]
        if self.record:
            self.fin_t[t][rec.members()] = finish
        if finish > self.makespan:
            self.makespan = finish

    def _complete(self, rec: _InFlight) -> None:
        size = rec.size
        self.on_device -= size
        self.completed += size
        for i in rec.retried:
            aborted = self.abort_time.pop((rec.tenant, i), None)
            if aborted is not None:
                self.recovery.append(rec.finish - aborted)

    def _shed(self, t: int, i: int) -> None:
        self.shed += 1
        self.tenant_shed[t] += 1
        self.abort_time.pop((t, i), None)
        self.lat_t[t][i] = math.nan

    def _reset_head(self, t: int) -> None:
        queue, arr_t = self.requeued[t], self.arr_t[t]
        start = self.head[t] + len(queue)
        self.head_arr[t] = (float(arr_t[queue[0]]) if queue
                            else float(arr_t[start]) if start < arr_t.size
                            else math.inf)

    def _requeue(self, t: int, i: int, now: float) -> None:
        """A retry backoff expired: queue the request again (or shed it).

        The request goes in arrival order among the tenant's retried
        requests, which all wait ahead of the slice (on an arrival tie
        with a slice request, it goes first).
        """
        arr_t = self.arr_t[t]
        arrival = float(arr_t[i])
        if self.deadline is not None and now - arrival >= self.deadline:
            self._shed(t, i)
            return
        queue = self.requeued[t]
        if arrival <= self.head_arr[t]:
            queue.insert(0, i)
        else:
            bisect.insort(queue, i, key=arr_t.__getitem__)
        self.head[t] -= 1
        self.queued += 1
        self._reset_head(t)

    def _shed_expired(self, now: float) -> None:
        """Shed queue heads past the deadline (queues are arrival-sorted)."""
        deadline = self.deadline
        for t, queue in enumerate(self.requeued):
            if now - self.head_arr[t] < deadline:
                continue
            arr_t = self.arr_t[t]
            while queue and now - float(arr_t[queue[0]]) >= deadline:
                self._shed(t, queue.pop(0))
                self.head[t] += 1
                self.queued -= 1
            if not queue:
                lo = head = self.head[t]
                hi = self.tail[t]
                while lo < hi:
                    mid = (lo + hi) // 2
                    if now - float(arr_t[mid]) >= deadline:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo > head:
                    self.lat_t[t][head:lo] = math.nan
                    self.shed += lo - head
                    self.tenant_shed[t] += lo - head
                    self.queued -= lo - head
                    self.head[t] = lo
            self._reset_head(t)

    def _update_degraded(self, t: int, now: float) -> None:
        """Enter/exit degraded mode on queue-pressure hysteresis."""
        mode = self.modes[t]
        wait = now - self.head_arr[t]
        if not self.degraded[t]:
            if wait >= mode.enter_wait:
                self.degraded[t] = True
                self.tcost[t].degrade = mode.latency_factor
                self.tcost[t].refresh()
                self._rank.clear()
                self.degraded_since[t] = now
                self.activations[t] += 1
        elif wait <= mode.exit_wait:
            self.degraded[t] = False
            self.tcost[t].degrade = 1.0
            self.tcost[t].refresh()
            self._rank.clear()
            self.degraded_time[t] += now - self.degraded_since.pop(t, now)

    # -- autoscaling -------------------------------------------------------------

    def _tick(self, when: float) -> None:
        scale = self.autoscale
        queued = self.queued
        if scale.metric == "queue":
            value = float(queued)
        else:  # p99 of batch latencies dispatched since the last tick
            if self.p99_window:
                value = float(np.percentile(np.concatenate(self.p99_window), 99))
            else:
                value = 0.0
            self.p99_window.clear()
        for g, group in enumerate(self.groups):
            if self.down[g]:
                continue
            if when - self.last_action[g] < scale.cooldown:
                continue
            act = self.act[g]
            max_r = min(scale.max_replicas or group.capacity, group.capacity)
            min_r = min(scale.min_replicas, max_r)
            if value > scale.threshold and act < max_r:
                after = min(act + scale.step, max_r)
                reason = f"{scale.metric}={value:g}>{scale.threshold:g}"
            elif queued == 0 and act > min_r:
                idle = int((self.free[g][:act] <= when).sum())
                if idle / act < scale.idle_fraction:
                    continue
                after = max(act - scale.step, min_r)
                reason = f"idle {idle}/{act}"
            else:
                continue
            self.occ_int[g] += act * (when - self.occ_last[g])
            self.occ_last[g] = when
            self.act[g] = after
            self.peak[g] = max(self.peak[g], after)
            self.last_action[g] = when
            self.scaling.append(
                ScalingEvent(when, self.labels[g], act, after, reason))

    # -- the offer loop ----------------------------------------------------------

    def _ranked(self, t: int, probe: int, idle: list[int]) -> list[int]:
        """``idle`` in earliest-finish order for tenant ``t`` at ``probe``.

        Filtering the cached order over all groups equals sorting
        ``idle``: the key is a total order (group labels are unique).
        Throttle edges and degraded-mode switches rescale curves, so they
        empty the cache.
        """
        order = self._rank.get((t, probe))
        if order is None:
            cost, labels = self.tcost[t], self.labels
            order = self._rank[(t, probe)] = sorted(
                range(len(labels)),
                key=lambda g: (cost.latency(labels[g], probe) / probe, labels[g]))
        if len(idle) == len(order):
            return order
        return [g for g in order if g in idle]

    def _offer(self, now: float) -> None:
        """Offer queued work to idle groups until every policy holds.

        Each pass first lists the idle groups (returning if none: about
        half of all passes in the SLO regime), then the tenants with
        queued work (returning if none). Tenants go in oldest-head-first
        order (stable on ties, i.e. spec order), groups in router order —
        earliest-finish ranks by amortized per-request latency at the
        probe batch with a label tie-break; the first (tenant, group)
        pair whose policy dispatches restarts the scan.
        """
        head, tail, down = self.head, self.tail, self.down
        labels, router, any_mode = self.labels, self.router, self.any_mode
        while True:
            idle = [g for g, h in enumerate(self.idle_heap)
                    if h and not down[g]]
            if not idle:
                return
            active = [t for t, h in enumerate(head) if h < tail[t]]
            if not active:
                return
            if len(active) > 1:
                active.sort(key=self.head_arr.__getitem__)
            chosen_t = chosen_g = size = None
            for t in active:
                if any_mode and self.modes[t] is not None:
                    self._update_degraded(t, now)
                qlen = tail[t] - head[t]
                cost = self.tcost[t]
                if len(idle) == 1:
                    ranked = idle
                elif router is None:
                    ranked = self._ranked(
                        t, max(1, min(qlen, self.probe_cap)), idle)
                else:
                    ranked = [self._gindex[label] for label in router.rank(
                        [labels[g] for g in idle], qlen, cost)]
                oldest_wait = now - self.head_arr[t]
                for g in ranked:
                    size = self.policies[t].decide(
                        now, qlen, oldest_wait, labels[g], cost)
                    if size is not None:
                        chosen_t, chosen_g = t, g
                        break
                if size is not None:
                    break
            if size is None:
                self._hold(now, active)
                return
            self._dispatch(chosen_t, chosen_g, size, now)

    def _hold(self, now: float, active: list[int]) -> None:
        wakes = (self.policies[t].next_wakeup(now, self.head_arr[t])
                 for t in active)
        wake = min((w for w in wakes if w is not None and w > now), default=None)
        if wake is not None and (self.pending_wakeup is None
                                 or wake < self.pending_wakeup):
            self.pending_wakeup = wake
        if (self.pending_wakeup is None and self.next_arr >= self.n
                and self.next_edge_t == math.inf
                and not self.busy_heap and not self.retry_heap):
            names = ",".join(self.policies[t].name for t in active)
            raise RuntimeError(f"policy {names!r} held with no pending events")

    def _dispatch(self, t: int, g: int, size: int, now: float) -> None:
        head = self.head[t]
        size = max(1, min(int(size), self.tail[t] - head))
        label = self.labels[g]
        duration = self.tcost[t].latency(label, size)
        if duration <= 0:
            raise ValueError("batch_time must return a positive duration")
        fa = self.free[g]
        ridx = heapq.heappop(self.idle_heap[g])
        idle_since = float(fa[ridx])
        finish = now + duration
        busy = duration
        if self.hop_bytes > 0.0 and self.last_group[t] not in (None, g):
            spec = self._device_specs.get(label)
            if spec is None:
                from repro.hw.device import get_device

                spec = self._device_specs[label] = get_device(self.gdev[g])
            hop = h2d_time(self.hop_bytes * size, spec)
            finish += hop
            busy += hop
            self.hop_batches[g] += 1
            self.hop_time[g] += hop
        self.last_group[t] = g

        start, retried, queue = head, (), self.requeued[t]
        if queue:  # retried requests head the queue and ride first
            start += len(queue)
            retried = queue[:size]
            del queue[:len(retried)]
        end = start + size - len(retried)
        arr_t = self.arr_t[t]
        batch_arr = arr_t[start:end]
        lat = self.lat_t[t][start:end]
        np.subtract(finish, batch_arr, out=lat)
        # Queued requests arrived at or before ``now`` and the chosen
        # replica freed at or before ``now``, so the
        # ``max(0, now - max(arrival, idle_since))`` formation wait
        # reduces to a min of two non-negative terms; it (and the queue
        # and service waits) only ever surface as means, so they fold
        # into scalar accumulators here rather than per-request buffers.
        if end - start < _PAIRWISE:
            asum, form = _fold_small(batch_arr.tolist(), now, idle_since)
        else:
            asum = float(batch_arr.sum())
            form = float(np.minimum(now - batch_arr, now - idle_since).sum())
        if retried:
            for i in retried:
                arrival = float(arr_t[i])
                self.lat_t[t][i] = finish - arrival
                asum += arrival
                form += min(now - arrival, now - idle_since)
        self.arr_sum[t] += asum
        self.disp_sum[t] += now * size
        self.serv_sum += (finish - now) * size
        self.form_sum += form
        self.head[t] = head + size
        if queue:
            self._reset_head(t)
        else:
            self.head_arr[t] = (float(arr_t[end]) if end < arr_t.size
                                else math.inf)
        fa[ridx] = finish
        heapq.heappush(self.busy_heap, (finish, g, ridx))
        self.batches[g] += 1
        self.requests[g] += size
        self.busy[g] += busy
        self.queued -= size
        if self.cur is None:
            self.completed += size
        else:
            self.cur[g][ridx] = _InFlight(finish, t, retried, start, end, now,
                                          asum, form)
            self.on_device += size
        if self.noting:
            self._note(t, g, size, now, finish, idle_since, start, end, retried)
        if finish > self.makespan:
            self.makespan = finish
        if self.autoscale is not None and self.autoscale.metric == "p99":
            self.p99_window.append(lat)

    def _note(self, t, g, size, now, finish, idle_since, start, end,
              retried) -> None:
        """Per-dispatch extras: degraded flags, recorded columns, router."""
        members = ([*retried, *range(start, end)] if retried
                   else slice(start, end))
        if self.deg_t is not None:
            self.deg_t[t][members] = self.degraded[t]
            if self.degraded[t]:
                self.degraded_requests[t] += size
        if self.router is not None:
            self.router.note_dispatch(self.labels[g])
        if not self.record:
            return
        self.disp_t[t][members] = now
        self.fin_t[t][members] = finish
        self.grp_t[t][members] = g
        self.bs_t[t][members] = size
        arr = self.arr_t[t][members]
        self.form_t[t][members] = np.minimum(now - arr, now - idle_since)
        self.hist[g][size] = self.hist[g].get(size, 0) + 1

    # -- run ---------------------------------------------------------------------

    def run(self) -> float:
        if self.n == 0:
            return 0.0
        first = float(self.arr_all[0])
        now = min(first, self.next_edge_t, self._next_tick())
        if now == first:
            # The first arrival precedes fault edges due at the same instant.
            self._absorb(now)
            self._offer(now)
        edges, retries = self.edges, self.retry_heap
        while True:
            # One epoch: fault edges, then retry wake-ups, then everything
            # else due — each edge and retry with an offer of its own.
            while self.next_edge_t <= now:
                _when, kind, label, arg = edges[self.edge_ptr]
                self.edge_ptr += 1
                self.next_edge_t = (edges[self.edge_ptr][0]
                                    if self.edge_ptr < len(edges) else math.inf)
                self._apply(kind, label, arg, now)
                self._absorb(now)
                self._offer(now)
            while retries and retries[0][0] <= now:
                _when, _seq, t, i = heapq.heappop(retries)
                self._requeue(t, i, now)
                self._absorb(now)
                self._offer(now)
            self._absorb(now)
            self._offer(now)
            if self.completed + self.shed >= self.n:
                break
            nxt = self._next_time(now)
            if nxt == math.inf:
                raise RuntimeError(
                    "fleet event loop stalled with requests pending")
            now = nxt
        for g in range(len(self.groups)):
            self.occ_int[g] += self.act[g] * (self.makespan - self.occ_last[g])
            self.occ_last[g] = self.makespan
        return self.makespan

    # -- fault report ------------------------------------------------------------

    def fault_stats(self) -> FaultStats:
        """What the fault plan, retries and degraded modes did to the run."""
        makespan = self.makespan
        down_windows = {k: list(v) for k, v in self.down_windows.items()}
        for label, since in self.down_since.items():
            down_windows.setdefault(label, []).append((since, makespan))
        degraded_time = list(self.degraded_time)
        for t, since in self.degraded_since.items():
            degraded_time[t] += makespan - since

        throttle_windows: dict[str, list[tuple[float, float, float]]] = {}
        for when, _, kind, label, arg in self.happenings:
            if kind != "throttle-on":
                continue
            until = next((w for w, _, k, s, a in self.happenings
                          if k == "throttle-off" and s == label and a == arg
                          and w > when), makespan)
            start, end = min(when, makespan), min(until, makespan)
            if end > start:
                throttle_windows.setdefault(label, []).append((start, end, arg))

        devices: dict[str, DeviceFaultStats] = {}
        for label in sorted(set(down_windows) | set(throttle_windows)
                            | set(self.stall_time) | set(self.aborted_batches)):
            windows = down_windows.get(label, [])
            throttles = throttle_windows.get(label, [])
            devices[label] = DeviceFaultStats(
                slot=label,
                device=self.gdev[self._gindex[label]],
                downtime=sum(b - a for a, b in windows),
                down_windows=windows,
                throttle_time=sum(b - a for a, b, _ in throttles),
                throttle_windows=throttles,
                stall_time=self.stall_time.get(label, 0.0),
                aborted_batches=self.aborted_batches.get(label, 0),
                aborted_requests=self.aborted_requests.get(label, 0),
            )

        retry_histogram: dict[int, int] = {}
        for attempts in self.retries.values():
            retry_histogram[attempts] = retry_histogram.get(attempts, 0) + 1

        tenants: dict[str, TenantFaultStats] = {}
        for t in sorted(range(len(self.tenants)),
                        key=lambda t: self.tenants[t].name):
            spec, mode = self.tenants[t], self.modes[t]
            attainment = None
            if spec.slo is not None and self.deg_t is not None:
                lat = self.lat_t[t][self.deg_t[t]]
                lat = lat[~np.isnan(lat)]
                if lat.size:
                    attainment = float(np.mean(lat <= spec.slo))
            tenants[spec.name] = TenantFaultStats(
                tenant=spec.name,
                shed=self.tenant_shed[t],
                degraded_available=mode is not None,
                degraded_requests=self.degraded_requests[t],
                degraded_slo_attainment=attainment,
                degraded_time=degraded_time[t],
                degraded_activations=self.activations[t],
                accuracy_cost=mode.accuracy_cost if mode is not None else None,
            )

        samples = np.array(self.recovery, dtype=np.float64)
        p50, p99 = ((float(np.percentile(samples, 50)),
                     float(np.percentile(samples, 99)))
                    if samples.size else (0.0, 0.0))
        return FaultStats(
            plan_events=len(self.plan.events) if self.plan is not None else 0,
            issued=self.completed + self.shed,
            completed=self.completed,
            shed=self.shed,
            retries=self.retry_total,
            retry_histogram=dict(sorted(retry_histogram.items())),
            recovery_p50=p50,
            recovery_p99=p99,
            devices=devices,
            tenants=tenants,
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _group_stats(engine: _FleetEngine) -> dict[str, GroupStats]:
    makespan = engine.makespan
    out: dict[str, GroupStats] = {}
    for g, group in enumerate(engine.groups):
        mean_rep = (engine.occ_int[g] / makespan if makespan > 0
                    else float(group.replicas))
        denom = mean_rep * makespan
        label = engine.labels[g]
        out[label] = GroupStats(
            group=label,
            device=group.device,
            replicas=engine.act[g],
            peak_replicas=engine.peak[g],
            mean_replicas=mean_rep,
            batches=engine.batches[g],
            requests=engine.requests[g],
            busy_time=engine.busy[g],
            utilization=engine.busy[g] / denom if denom > 0 else 0.0,
            mean_batch=(engine.requests[g] / engine.batches[g]
                        if engine.batches[g] else 0.0),
            hop_batches=engine.hop_batches[g],
            hop_time=engine.hop_time[g],
            batch_histogram=(dict(sorted(engine.hist[g].items()))
                             if engine.record else {}),
        )
    return out


def _completed_latencies(engine: _FleetEngine, t: int) -> np.ndarray:
    lat = engine.lat_t[t]
    return lat[~np.isnan(lat)] if engine.tenant_shed[t] else lat


def _summary(engine: _FleetEngine) -> tuple[dict, np.ndarray]:
    """The report fields every front end shares, and the latencies.

    Statistics cover completed requests. They are order-invariant
    (percentiles, means, threshold counts), so they come straight off
    the engine's per-tenant latency buffers (grouped by tenant,
    arrival-ordered within each) and the scalar wait accumulators folded
    in at dispatch time.
    """
    makespan = engine.makespan
    done = engine.n - engine.shed
    if done:
        latencies = np.concatenate([_completed_latencies(engine, t)
                                    for t in range(len(engine.tenants))])
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        mean_latency = float(latencies.mean())
        mean_queue = (sum(engine.disp_sum) - sum(engine.arr_sum)) / done
        mean_formation = engine.form_sum / done
        mean_service = engine.serv_sum / done
    else:
        latencies = np.empty(0)
        p50 = p95 = p99 = 0.0
        mean_latency = mean_queue = mean_formation = mean_service = 0.0
    return {
        "n_requests": engine.n,
        "makespan": makespan,
        "throughput": done / makespan if makespan > 0 else 0.0,
        "mean_latency": mean_latency,
        "p50_latency": float(p50),
        "p95_latency": float(p95),
        "p99_latency": float(p99),
        "mean_queue_time": mean_queue,
        "mean_formation_wait": mean_formation,
        "mean_service_time": mean_service,
    }, latencies


def _tenant_stats(engine: _FleetEngine) -> dict[str, TenantStats]:
    from repro.serving.simulator import TenantStats

    makespan = engine.makespan
    out: dict[str, TenantStats] = {}
    for i, spec in enumerate(engine.tenants):
        lat = _completed_latencies(engine, i)
        n = int(lat.size)
        if n:
            p50, p95, p99 = np.percentile(lat, [50, 95, 99])
            mean_lat = float(lat.mean())
            mean_queue = (engine.disp_sum[i] - engine.arr_sum[i]) / n
            attainment = (float((lat <= spec.slo).mean())
                          if spec.slo is not None else None)
        else:
            p50 = p95 = p99 = mean_lat = mean_queue = 0.0
            attainment = 1.0 if spec.slo is not None else None
        out[spec.name] = TenantStats(
            tenant=spec.name,
            n_requests=n,
            slo=spec.slo,
            throughput=n / makespan if makespan > 0 else 0.0,
            mean_latency=mean_lat,
            p50_latency=float(p50),
            p95_latency=float(p95),
            p99_latency=float(p99),
            mean_queue_time=mean_queue,
            slo_attainment=attainment,
        )
    return out


def _runs(values: np.ndarray) -> Iterator[float]:
    """Iterate ``values`` as floats, one float object per run of equal
    values: a batch's members share their dispatch and finish instants,
    and most formation waits are zero."""
    if not values.size:
        return iter(())
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    lengths = np.diff(np.append(starts, values.size))
    return chain.from_iterable(map(repeat, values[starts].tolist(),
                                   lengths.tolist()))


def _requests(engine: _FleetEngine, columns,
              source: list[Request] | None) -> list[Request]:
    """One :class:`Request` per stream entry, timings filled in.

    ``source`` is the caller's stream in stream order, if it gave one;
    the copies share its index and arrival objects. Each tenant's
    recorded columns are released once its requests are filled in.
    """
    labels = [*engine.labels, ""]
    # Requests hold no reference cycles, so a collection triggered by
    # building millions of them could free nothing; pause the collector.
    paused = gc.isenabled()
    gc.disable()
    try:
        out = (columns.to_requests() if source is None else
               [Request(r.index, r.arrival, r.tenant) for r in source])
    finally:
        if paused:
            gc.enable()
    for t in range(len(columns.tenants)):
        positions = engine.order[engine.bounds[t]:engine.bounds[t + 1]].tolist()
        for p, dispatch, finish, group, size, formation, degraded in zip(
                positions, _runs(engine.disp_t[t]), _runs(engine.fin_t[t]),
                engine.grp_t[t].tolist(), engine.bs_t[t].tolist(),
                _runs(engine.form_t[t]), engine.deg_t[t].tolist()):
            req = out[p]
            req.dispatch, req.finish, req.device = dispatch, finish, labels[group]
            req.batch_size, req.formation_wait = size, formation
            req.degraded = degraded
        for i in np.flatnonzero(np.isnan(engine.lat_t[t])).tolist():
            req = out[positions[i]]  # shed: no timing
            req.dispatch = req.finish = math.nan
            req.device, req.batch_size, req.formation_wait = "", 0, 0.0
            req.shed, req.degraded = True, False
        for column in (engine.disp_t, engine.fin_t, engine.form_t,
                       engine.grp_t, engine.bs_t, engine.deg_t, engine.lat_t):
            column[t] = None
    for (t, i), count in engine.retries.items():
        out[engine.order[engine.bounds[t] + i]].retries = count
    return out


def _report(engine: _FleetEngine, policy: str, router: str,
            arrival_rate: float | None, columns, *,
            source: list[Request] | None = None, tenants: bool = True,
            finetune: Sequence | None = None,
            slowdown: float = 1.0) -> ServingReport:
    """Collapse a finished engine into the report every front end returns.

    Latency statistics cover completed requests; ``n_requests`` stays the
    issued total. A recording engine also yields the per-request view,
    built last: building it releases the engine's per-tenant columns.
    """
    from repro.serving.simulator import ServingReport

    summary, latencies = _summary(engine)
    fault_stats = (engine.fault_stats() if engine.checked or engine.any_mode
                   else None)
    finetune_stats = {}
    if finetune:
        from repro.serving.finetune import finetune_progress

        down_windows = None
        if fault_stats is not None:
            down_windows = {label: stats.down_windows
                            for label, stats in fault_stats.devices.items()
                            if stats.down_windows}
        finetune_stats = finetune_progress(
            finetune, dict(zip(engine.labels, engine.gdev)), engine.makespan,
            down_windows=down_windows)
    return ServingReport(
        policy=policy,
        router=router,
        arrival_rate=arrival_rate,
        **summary,
        group_stats=_group_stats(engine),
        tenant_stats=_tenant_stats(engine) if tenants else {},
        latencies=latencies,
        requests=(_requests(engine, columns, source) if engine.record
                  else None),
        scaling_events=tuple(engine.scaling),
        finetune_stats=finetune_stats,
        inference_slowdown=slowdown,
        fault_stats=fault_stats,
    )


def simulate_fleet(
    tenants: Sequence[TenantSpec],
    groups: Sequence[DeviceGroup] | str,
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    scenario: str = "uniform",
    columns=None,
    autoscale: AutoscalePolicy | None = None,
    faults: FaultPlan | None = None,
    hop_bytes: float = 0.0,
    probe_cap: int = 128,
    seed: int = 0,
    lint: bool = True,
) -> ServingReport:
    """Serve a tenant mix on a fleet of homogeneous device groups.

    Parameters mirror :func:`~repro.serving.simulator.simulate_mixed`
    where they overlap; the differences:

    ``groups``
        Device groups (or a ``"dev:replicas[:pool],..."`` spec string).
        Group device names must be unique — a group *is* the unit of
        routing, scaling and fault targeting.
    ``columns``
        A prebuilt :class:`~repro.serving.request.RequestColumns`
        stream to serve instead of generating one from ``scenario``;
        its tenant axis must match ``tenants`` exactly.
    ``autoscale``
        Reactive :class:`AutoscalePolicy`; ``None`` keeps every group at
        its initial replica count.
    ``faults``
        A :class:`~repro.serving.faults.FaultPlan` over group names, with
        the same semantics as :func:`~repro.serving.simulator.simulate_mixed`:
        a down group aborts its in-flight batches, whose requests retry
        under the default :class:`~repro.serving.faults.RetryPolicy`.
    ``hop_bytes``
        Per-request payload priced through
        :func:`repro.hw.transfer.h2d_time` whenever a tenant's batch
        lands on a different group than its previous one.
    ``probe_cap``
        Probe batch-size cap for the amortized group ranking — the
        group-level analogue of
        :class:`~repro.serving.router.EarliestFinishRouter`'s cap.

    On replica-1 groups with no autoscaling and no hop costs the result
    equals :func:`~repro.serving.simulator.simulate_mixed` on the same
    devices: both run this engine.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    if isinstance(groups, str):
        groups = parse_groups(groups)
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one device group")
    devices = [g.device for g in groups]
    if len(set(devices)) != len(devices):
        raise FleetConfigError(f"duplicate group devices: {devices}")
    if hop_bytes < 0:
        raise ValueError(f"hop_bytes must be non-negative, got {hop_bytes}")
    if probe_cap < 1:
        raise ValueError(f"probe_cap must be >= 1, got {probe_cap}")

    if lint:
        from repro.lint import check, lint_fleet, lint_tenants

        pre = lint_tenants(tenants, source="simulate_fleet")
        pre.extend(lint_fleet(groups, autoscale=autoscale, faults=faults,
                              source="simulate_fleet"))
        check(pre, what="fleet configuration")

    if columns is None:
        from repro.serving.scenarios import scenario_columns

        columns = scenario_columns(scenario, tenants, n_requests=n_requests,
                                   arrival_rate=arrival_rate, seed=seed)
    else:
        if tuple(columns.tenants) != tuple(names):
            raise ValueError(
                f"columns tagged for tenants {list(columns.tenants)}, "
                f"simulating {names}")
        if len(columns):
            arr = columns.arrivals
            if float(arr[0]) < 0.0:
                raise ValueError("request arrivals must be non-negative")
            if np.any(np.diff(arr) < 0):
                raise ValueError(
                    "request columns must be sorted by arrival time; "
                    "see sort_request_columns")
    engine = _FleetEngine(tenants, groups, columns, autoscale, faults,
                          hop_bytes, probe_cap)
    engine.run()
    return _report(engine, f"mixed({len(tenants)} tenants)", "earliest-finish",
                   arrival_rate, columns)
