"""Execution engine: replays a trace against a device model, columnar-fast.

This is the reproduction's stand-in for "run the workload on the 2080Ti /
Jetson and profile it with Nsight". Given a :class:`~repro.trace.Trace`
(captured once, device-independently) and a
:class:`~repro.hw.device.DeviceSpec`, the engine prices every kernel with
the roofline latency model, derives its profiler counters and stall
attribution, prices every host event (transfers, synchronization, data
preparation) and produces an :class:`ExecutionReport` with all the
aggregations the paper's figures need.

Pricing is *vectorized*: the engine pulls the trace's cached
:class:`~repro.trace.columns.TraceColumns` and runs the batch roofline /
counter / stall models from :mod:`repro.hw.vectorized` over whole columns
— a handful of numpy ops regardless of kernel count. Report aggregations
(per-stage/modality/category times, duration-weighted counters and
stalls, the kernel-size histogram) are ``np.bincount`` group-bys over the
integer code columns. Per-kernel :class:`KernelExecution` records remain
available for API compatibility but are materialized lazily, only when a
consumer indexes into ``report.kernels``. The original one-event-at-a-time
implementation is kept as a test oracle (``tests/hw/scalar_reference.py``)
and pinned to this one by a golden-equivalence test suite.

:meth:`ExecutionEngine.run_sweep` prices one trace on *many* devices in a
single broadcasted pass — the device-model parameters become ``(D, 1)``
columns and every kernel array broadcasts to ``(D, K)`` — which is what
the batch-size / edge / heterogeneity analyses and the serving cost model
fill their grids with.

The timeline model is serialized: GPU kernels execute back-to-back and
host work (launches, copies, data prep, syncs) adds to wall time. This is
the conservative single-stream behaviour the paper observes — GPUs "stay
idle for most of the application time" waiting on host-side work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hw.counters import KernelCounters
from repro.hw.device import DeviceSpec, get_device
from repro.hw.latency import LatencyBreakdown
from repro.hw.memory import (
    MemoryBreakdown,
    capacity_pressure,
    memory_breakdown_columns,
    thrash_factor,
)
from repro.hw.stalls import STALL_REASONS
from repro.hw.vectorized import (
    CounterColumns,
    DeviceParams,
    LatencyColumns,
    derive_counters_batch,
    device_row,
    kernel_latency_batch,
    saturated_latency_batch,
    stall_breakdown_batch,
)
from repro.trace.columns import (
    CATEGORY_CODES,
    CATEGORY_ORDER,
    HOST_KIND_CODES,
    NO_MODALITY,
    PASS_ORDER,
    TraceColumns,
)
from repro.trace.events import HostEvent, HostOpKind, KernelCategory, KernelEvent
from repro.trace.tracer import Trace

# Kernel-duration bins (microseconds) used by the Figure-12 histogram.
KERNEL_SIZE_BINS = ("0-10", "10-50", "50-100", ">100")
_SIZE_BIN_EDGES_US = np.array([10.0, 50.0, 100.0])

_H2D = HOST_KIND_CODES[HostOpKind.H2D]
_D2H = HOST_KIND_CODES[HostOpKind.D2H]
_DATA_PREP = HOST_KIND_CODES[HostOpKind.DATA_PREP]
_PREPROCESS = HOST_KIND_CODES[HostOpKind.PREPROCESS]
_SYNC = HOST_KIND_CODES[HostOpKind.SYNC]
_LAUNCH = HOST_KIND_CODES[HostOpKind.LAUNCH]


@dataclass
class KernelExecution:
    """One kernel launch priced on a device."""

    event: KernelEvent
    latency: LatencyBreakdown
    counters: KernelCounters
    stalls: dict[str, float]

    @property
    def duration(self) -> float:
        return self.latency.total


@dataclass(eq=False)
class ExecutionReport:
    """Everything the analyses need about one inference run on one device.

    Internally columnar: per-kernel latencies, counters and stall shares
    are numpy arrays aligned with the trace's
    :class:`~repro.trace.columns.TraceColumns`; aggregations are bincount
    group-bys. ``report.kernels`` materializes the per-kernel
    :class:`KernelExecution` records on first access (Nsight-style per-
    kernel views are rare on hot paths but still supported).
    """

    device: DeviceSpec
    trace: Trace = field(repr=False)
    columns: TraceColumns = field(repr=False)
    gpu_time: float
    host_time: float  # CPU + runtime: launches, copies, data prep, syncs
    launch_time: float
    transfer_time: float
    data_prep_time: float
    sync_time: float
    memory: MemoryBreakdown
    memory_pressure: float
    slowdown: float  # thrashing multiplier already applied to times
    # Per-kernel pricing columns. ``durations`` has the thrash slowdown
    # applied; ``raw_latency`` (and the lazily-derived counters) are
    # pre-thrash, matching the scalar model (counters describe the
    # un-thrashed kernel).
    durations: np.ndarray = field(repr=False)
    raw_latency: LatencyColumns = field(repr=False)
    params: DeviceParams = field(repr=False)  # single-device scalars
    _counter_columns: "CounterColumns | None" = field(default=None, init=False, repr=False)
    _stall_shares: "np.ndarray | None" = field(default=None, init=False, repr=False)
    _kernels: "list[KernelExecution] | None" = field(default=None, init=False, repr=False)
    _host_events: "list[HostEvent] | None" = field(default=None, init=False, repr=False)

    # -- derived pricing columns (lazy) ----------------------------------------
    # Time-only consumers (cost-model fills, latency grids) never read
    # counters or stalls, so deriving them is deferred to first use.

    @property
    def counter_columns(self) -> CounterColumns:
        if self._counter_columns is None:
            self._counter_columns = derive_counters_batch(
                self.columns, self.params, self.raw_latency
            )
        return self._counter_columns

    @property
    def stall_shares(self) -> np.ndarray:
        """Per-kernel stall shares, shape (K, len(STALL_REASONS))."""
        if self._stall_shares is None:
            self._stall_shares = stall_breakdown_batch(
                self.columns, self.params, self.raw_latency
            )
        return self._stall_shares

    # -- per-kernel view (lazy) -------------------------------------------------

    def _kernel_execution(self, i: int) -> KernelExecution:
        lat = self.raw_latency
        c = self.counter_columns
        s = self.slowdown
        latency = LatencyBreakdown(
            total=float(lat.total[i] * s) if s != 1.0 else float(lat.total[i]),
            compute_time=float(lat.compute_time[i] * s) if s != 1.0 else float(lat.compute_time[i]),
            memory_time=float(lat.memory_time[i] * s) if s != 1.0 else float(lat.memory_time[i]),
            fixed_overhead=float(np.asarray(lat.fixed_overhead).reshape(-1)[0]),
            dram_bytes=float(lat.dram_bytes[i]),
            compute_utilization=float(lat.compute_utilization[i]),
            occupancy=float(lat.occupancy[i]),
        )
        counters = KernelCounters(
            duration=float(c.duration[i]),
            dram_utilization=float(c.dram_utilization[i]),
            achieved_occupancy=float(c.achieved_occupancy[i]),
            ipc=float(c.ipc[i]),
            gld_efficiency=float(c.gld_efficiency[i]),
            gst_efficiency=float(c.gst_efficiency[i]),
            l1_hit_rate=float(c.l1_hit_rate[i]),
            l2_hit_rate=float(c.l2_hit_rate[i]),
            l2_read_hit_rate=float(c.l2_read_hit_rate[i]),
            l2_write_hit_rate=float(c.l2_write_hit_rate[i]),
            fp32_ops=float(c.fp32_ops[i]),
            dram_read_bytes=float(c.dram_read_bytes[i]),
            read_transactions_per_second=float(c.read_transactions_per_second[i]),
        )
        stalls = {r: float(self.stall_shares[i, j]) for j, r in enumerate(STALL_REASONS)}
        return KernelExecution(
            event=self.trace.kernels[i], latency=latency, counters=counters, stalls=stalls
        )

    @property
    def kernels(self) -> list[KernelExecution]:
        """Per-kernel records, materialized on first access."""
        if self._kernels is None:
            self._kernels = [self._kernel_execution(i) for i in range(self.columns.n)]
        return self._kernels

    @property
    def host_events(self) -> list[HostEvent]:
        """Snapshot of the trace's host events (own list, like the scalar
        engine's — mutating it never touches the shared stored trace)."""
        if self._host_events is None:
            self._host_events = list(self.trace.host_events)
        return self._host_events

    # -- headline numbers ------------------------------------------------------

    @property
    def total_time(self) -> float:
        return self.gpu_time + self.host_time

    @property
    def cpu_runtime_share(self) -> float:
        """Fraction of wall time spent in CPU + runtime work (Figure 11)."""
        total = self.total_time
        return self.host_time / total if total > 0 else 0.0

    # -- group-by helpers ------------------------------------------------------

    def _stage_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-stage kernel counts, per-stage duration sums) over the table."""
        cols = self.columns
        n_stages = len(cols.stage_table)
        counts = np.bincount(cols.stage_codes, minlength=n_stages)
        sums = np.bincount(cols.stage_codes, weights=self.durations, minlength=n_stages)
        return counts, sums

    # -- per-stage aggregations (Figures 6, 7, 8) -------------------------------

    def stage_time(self) -> dict[str, float]:
        """Device time per stage, including per-kernel launch overhead."""
        counts, sums = self._stage_groups()
        overhead = self.device.kernel_launch_overhead * self.slowdown
        return {
            stage: float(sums[code] + counts[code] * overhead)
            for code, stage in enumerate(self.columns.stage_table)
            if counts[code]
        }

    def stage_counters(self) -> dict[str, dict[str, float]]:
        """Duration-weighted counters per stage (Figure 7)."""
        cols = self.columns
        c = self.counter_columns
        n_stages = len(cols.stage_table)
        codes = cols.stage_codes
        w = self.durations
        wsum = np.bincount(codes, weights=w, minlength=n_stages)
        counts = np.bincount(codes, minlength=n_stages)
        averaged = {
            name: np.bincount(codes, weights=getattr(c, name) * w, minlength=n_stages)
            for name in (
                "dram_utilization", "achieved_occupancy", "ipc",
                "gld_efficiency", "gst_efficiency", "l1_hit_rate", "l2_hit_rate",
            )
        }
        fp32 = np.bincount(codes, weights=c.fp32_ops, minlength=n_stages)
        dram_read = np.bincount(codes, weights=c.dram_read_bytes, minlength=n_stages)
        out: dict[str, dict[str, float]] = {}
        for code, stage in enumerate(cols.stage_table):
            if not counts[code] or wsum[code] <= 0:
                continue
            entry = {name: float(vals[code] / wsum[code]) for name, vals in averaged.items()}
            entry["duration"] = float(wsum[code])
            entry["fp32_ops"] = float(fp32[code])
            entry["dram_read_bytes"] = float(dram_read[code])
            out[stage] = entry
        return out

    def _weighted_stalls(self, codes: np.ndarray, minlength: int) -> np.ndarray:
        """Per-group duration-weighted stall shares, shape (G, reasons)."""
        w = self.durations
        wsum = np.bincount(codes, weights=w, minlength=minlength)
        num = np.empty((minlength, len(STALL_REASONS)))
        for j in range(len(STALL_REASONS)):
            num[:, j] = np.bincount(codes, weights=self.stall_shares[:, j] * w,
                                    minlength=minlength)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(wsum[:, None] > 0, num / np.where(wsum[:, None] > 0,
                                                              wsum[:, None], 1.0), 0.0)

    def stage_stalls(self) -> dict[str, dict[str, float]]:
        """Duration-weighted stall breakdown per stage (Figure 15)."""
        cols = self.columns
        counts, _ = self._stage_groups()
        shares = self._weighted_stalls(cols.stage_codes, len(cols.stage_table))
        return {
            stage: {r: float(shares[code, j]) for j, r in enumerate(STALL_REASONS)}
            for code, stage in enumerate(cols.stage_table)
            if counts[code]
        }

    def overall_stalls(self) -> dict[str, float]:
        w = self.durations
        total_w = float(w.sum())
        if total_w <= 0:
            return {r: 0.0 for r in STALL_REASONS}
        agg = (self.stall_shares * w[:, None]).sum(axis=0) / total_w
        return {r: float(agg[j]) for j, r in enumerate(STALL_REASONS)}

    def category_time_breakdown(self, stage: str | None = None) -> dict[KernelCategory, float]:
        """Time share per kernel category, optionally within one stage (Fig. 8)."""
        cols = self.columns
        codes = cols.category_codes
        w = self.durations
        if stage is not None:
            stage_code = cols.stage_code(stage)
            if stage_code is None:
                return {}
            mask = cols.stage_codes == stage_code
            codes, w = codes[mask], w[mask]
        n_cats = len(CATEGORY_ORDER)
        totals = np.bincount(codes, weights=w, minlength=n_cats)
        counts = np.bincount(codes, minlength=n_cats)
        grand = totals.sum()
        if grand <= 0:
            return {}
        return {
            CATEGORY_ORDER[i]: float(totals[i] / grand)
            for i in range(n_cats)
            if counts[i]
        }

    # -- per-pass aggregations (traced training steps) ---------------------------

    def pass_time(self) -> dict[str, float]:
        """Device time per pass (forward/loss/backward/optimizer),
        including per-kernel launch overhead. Inference traces report a
        single ``forward`` entry."""
        cols = self.columns
        n_passes = len(PASS_ORDER)
        counts = np.bincount(cols.pass_codes, minlength=n_passes)
        sums = np.bincount(cols.pass_codes, weights=self.durations, minlength=n_passes)
        overhead = self.device.kernel_launch_overhead * self.slowdown
        return {
            PASS_ORDER[code]: float(sums[code] + counts[code] * overhead)
            for code in range(n_passes)
            if counts[code]
        }

    def pass_stage_time(self) -> dict[str, dict[str, float]]:
        """Device time per (pass, stage) — the training-step breakdown
        grid: ``out["backward"]["encoder"]`` is the encoder's share of the
        backward pass."""
        cols = self.columns
        n_stages = len(cols.stage_table)
        combined = cols.pass_codes * n_stages + cols.stage_codes
        minlength = len(PASS_ORDER) * n_stages
        counts = np.bincount(combined, minlength=minlength)
        sums = np.bincount(combined, weights=self.durations, minlength=minlength)
        overhead = self.device.kernel_launch_overhead * self.slowdown
        out: dict[str, dict[str, float]] = {}
        for code in np.nonzero(counts)[0]:
            pass_name = PASS_ORDER[int(code) // n_stages]
            stage = cols.stage_table[int(code) % n_stages]
            out.setdefault(pass_name, {})[stage] = float(
                sums[code] + counts[code] * overhead)
        return out

    def pass_modality_time(self) -> dict[str, dict[str, float]]:
        """Device time per (modality, pass) over modality-attributed
        kernels — how each encoder's forward/backward shares compare."""
        cols = self.columns
        mask = cols.modality_codes != NO_MODALITY
        if not mask.any():
            return {}
        n_mods = len(cols.modality_table)
        combined = cols.modality_codes[mask] * len(PASS_ORDER) + cols.pass_codes[mask]
        minlength = n_mods * len(PASS_ORDER)
        counts = np.bincount(combined, minlength=minlength)
        sums = np.bincount(combined, weights=self.durations[mask], minlength=minlength)
        overhead = self.device.kernel_launch_overhead * self.slowdown
        out: dict[str, dict[str, float]] = {}
        for code in np.nonzero(counts)[0]:
            modality = cols.modality_table[int(code) // len(PASS_ORDER)]
            pass_name = PASS_ORDER[int(code) % len(PASS_ORDER)]
            out.setdefault(modality, {})[pass_name] = float(
                sums[code] + counts[code] * overhead)
        return out

    # -- per-modality aggregations (Figure 10) ----------------------------------

    def modality_time(self) -> dict[str, float]:
        """Encoder-stage device time per modality."""
        cols = self.columns
        mask = cols.modality_codes != NO_MODALITY
        codes = cols.modality_codes[mask]
        n_mods = len(cols.modality_table)
        sums = np.bincount(codes, weights=self.durations[mask], minlength=n_mods)
        counts = np.bincount(codes, minlength=n_mods)
        overhead = self.device.kernel_launch_overhead * self.slowdown
        return {
            mod: float(sums[code] + counts[code] * overhead)
            for code, mod in enumerate(cols.modality_table)
            if counts[code]
        }

    def modality_imbalance(self) -> float:
        """Straggler ratio: slowest modality time over fastest (>= 1)."""
        times = list(self.modality_time().values())
        if len(times) < 2 or min(times) <= 0:
            return 1.0
        return max(times) / min(times)

    def stream_schedule(self, shares: "dict[str, float] | None" = None,
                        stage: str = "encoder"):
        """Simulate the one-stream-per-modality schedule of this run.

        Each modality's encoder kernels run back-to-back in their own
        stream on a partition of the device (equal resource shares unless
        ``shares`` is given); see :mod:`repro.hw.streams`. Returns a
        :class:`~repro.hw.streams.StreamSchedule` whose per-stream
        busy/idle windows drive the Sec. 4.3.3 idle-resource analysis.
        """
        from repro.hw.streams import modality_schedule

        return modality_schedule(self, shares=shares, stage=stage)

    # -- kernel population (Figure 12) -----------------------------------------

    def kernel_size_distribution(self) -> dict[str, float]:
        """Fraction of kernels per duration bin (microseconds)."""
        n = self.columns.n
        if not n:
            return dict.fromkeys(KERNEL_SIZE_BINS, 0.0)
        bins = np.searchsorted(_SIZE_BIN_EDGES_US, self.durations * 1e6, side="right")
        counts = np.bincount(bins, minlength=len(KERNEL_SIZE_BINS))
        return {b: float(counts[i] / n) for i, b in enumerate(KERNEL_SIZE_BINS)}

    def hotspot(self, category: KernelCategory, stage: str | None = None) -> "KernelExecution | None":
        """Largest kernel of a category (optionally in a stage) by duration."""
        cols = self.columns
        mask = cols.category_codes == CATEGORY_CODES[category]
        if stage is not None:
            stage_code = cols.stage_code(stage)
            if stage_code is None:
                return None
            mask &= cols.stage_codes == stage_code
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return None
        best = int(idx[np.argmax(self.durations[idx])])
        return self._kernel_execution(best)


class ExecutionEngine:
    """Prices traces against device models.

    ``concurrent_modalities=True`` models one CUDA stream per modality in
    the encoder stage: on a device with enough SMs, each stream gets a fair
    share of compute and bandwidth and the encoder's wall time is the
    straggler stream's time; on a device with fewer SMs than modalities
    (the Jetson Nano's single SM) the streams time-share and execution
    degenerates to serial. This is the mechanism behind the paper's
    observation that the multi/uni time ratio is higher on edge boards —
    "GPU servers possess more idle resources" to absorb the extra
    modalities (Sec. 5.2).
    """

    def __init__(self, device: DeviceSpec, concurrent_modalities: bool = False):
        self.device = device
        self.concurrent_modalities = concurrent_modalities

    # -- vectorized sub-models --------------------------------------------------

    @staticmethod
    def _concurrent_encoder_adjustment(
        cols: TraceColumns, device: DeviceSpec, totals: np.ndarray,
        saturated: np.ndarray,
    ) -> float:
        """Concurrent-stream encoder makespan minus the serial encoder time.

        Classic makespan bound: the wall time is the larger of (a) the
        critical stream's time running alone (latency bound) and (b) the
        device's time to chew the *total* work at full rates (throughput
        bound); see the class docstring.
        """
        enc_code = cols.stage_code("encoder")
        if enc_code is None:
            return 0.0
        enc = cols.stage_codes == enc_code
        serial = float(totals[enc].sum())
        mod_codes = cols.modality_codes[enc]
        attributed = mod_codes != NO_MODALITY
        stream_counts = np.bincount(mod_codes[attributed],
                                    minlength=len(cols.modality_table))
        n_streams = int((stream_counts > 0).sum())
        if n_streams < 2 or device.sm_count < n_streams:
            return 0.0  # serial == serial

        enc_totals = totals[enc]
        per_stream = np.bincount(mod_codes[attributed],
                                 weights=enc_totals[attributed],
                                 minlength=len(cols.modality_table))
        latency_bound = float(per_stream[stream_counts > 0].max())
        throughput_bound = float(saturated[enc][attributed].sum())
        tail = float(enc_totals[~attributed].sum())
        return max(latency_bound, throughput_bound) + tail - serial

    def _price_host_events(self, cols: TraceColumns) -> tuple[float, float, float, float]:
        """Vectorized host-event pricing: (launch, transfer, data_prep, sync)."""
        d = self.device
        kinds = cols.host_kind_codes
        hbytes = cols.host_bytes

        transfer_mask = (kinds == _H2D) | (kinds == _D2H)
        n_transfers = int(transfer_mask.sum())
        transfer = n_transfers * d.transfer_latency
        if not d.unified_memory and n_transfers:
            transfer += float(hbytes[transfer_mask].sum()) / d.pcie_bandwidth

        host_speed = d.host_gflops * 1e9
        data_prep = (
            float(hbytes[kinds == _DATA_PREP].sum()) * 8.0 / host_speed
            + float(hbytes[kinds == _PREPROCESS].sum()) * 6.0 / host_speed
        )
        sync = int((kinds == _SYNC).sum()) * 5.0 * d.kernel_launch_overhead
        launch = int((kinds == _LAUNCH).sum()) * d.kernel_launch_overhead
        return launch, transfer, data_prep, sync

    # -- entry points -----------------------------------------------------------

    def run(self, trace: Trace, model_bytes: float = 0.0, input_bytes: float = 0.0) -> ExecutionReport:
        """Price every event in the trace and aggregate.

        ``model_bytes``: parameter footprint of the model; ``input_bytes``:
        total size of the input batch across modalities. Both feed the
        memory model; capacity pressure beyond ~80% applies a thrashing
        slowdown to all times (the Jetson Nano b=320 cliff of Figure 14).
        """
        cols = trace.columns()
        params = DeviceParams.from_spec(self.device)
        lat = kernel_latency_batch(cols, params)

        gpu_time = float(lat.total.sum())
        if self.concurrent_modalities:
            gpu_time += self._concurrent_encoder_adjustment(
                cols, self.device, lat.total, saturated_latency_batch(cols, params)
            )

        extra_launch, transfer_time, data_prep_time, sync_time = self._price_host_events(cols)
        launch_time = cols.n * self.device.kernel_launch_overhead + extra_launch

        mem = memory_breakdown_columns(cols, model_bytes=model_bytes, input_bytes=input_bytes)
        pressure = capacity_pressure(mem, self.device)
        slowdown = thrash_factor(pressure)

        host_time = (launch_time + transfer_time + data_prep_time + sync_time) * slowdown
        gpu_time *= slowdown
        durations = lat.total * slowdown if slowdown != 1.0 else lat.total

        return ExecutionReport(
            device=self.device,
            trace=trace,
            columns=cols,
            gpu_time=gpu_time,
            host_time=host_time,
            launch_time=launch_time * slowdown,
            transfer_time=transfer_time * slowdown,
            data_prep_time=data_prep_time * slowdown,
            sync_time=sync_time * slowdown,
            memory=mem,
            memory_pressure=pressure,
            slowdown=slowdown,
            durations=durations,
            raw_latency=lat,
            params=params,
        )

    def run_sweep(
        self,
        trace: Trace,
        devices: Sequence[str | DeviceSpec],
        model_bytes: float = 0.0,
        input_bytes: float = 0.0,
    ) -> list[ExecutionReport]:
        """Price one trace on many devices in a single broadcasted pass.

        The device parameters become ``(D, 1)`` columns, so the roofline,
        counter and stall models evaluate ``(D, K)`` arrays once instead
        of re-running per device. Returns one :class:`ExecutionReport` per
        entry of ``devices`` (order preserved); each report is a row view
        of the shared arrays.
        """
        specs = [get_device(d) if isinstance(d, str) else d for d in devices]
        if not specs:
            return []
        cols = trace.columns()
        params = DeviceParams.from_specs(specs)
        lat = kernel_latency_batch(cols, params)
        mem = memory_breakdown_columns(cols, model_bytes=model_bytes, input_bytes=input_bytes)
        saturated = (
            saturated_latency_batch(cols, params) if self.concurrent_modalities else None
        )

        reports = []
        for d, spec in enumerate(specs):
            engine = ExecutionEngine(spec, self.concurrent_modalities)
            lat_d = LatencyColumns(
                total=lat.total[d],
                compute_time=device_row(lat.compute_time, d),
                memory_time=device_row(lat.memory_time, d),
                dram_bytes=device_row(lat.dram_bytes, d),
                compute_utilization=device_row(lat.compute_utilization, d),
                occupancy=device_row(lat.occupancy, d),
                fixed_overhead=spec.kernel_fixed_overhead,
            )

            gpu_time = float(lat_d.total.sum())
            if self.concurrent_modalities:
                gpu_time += self._concurrent_encoder_adjustment(
                    cols, spec, lat_d.total, device_row(saturated, d)
                )

            extra_launch, transfer_time, data_prep_time, sync_time = (
                engine._price_host_events(cols)
            )
            launch_time = cols.n * spec.kernel_launch_overhead + extra_launch
            pressure = capacity_pressure(mem, spec)
            slowdown = thrash_factor(pressure)
            host_time = (launch_time + transfer_time + data_prep_time + sync_time) * slowdown
            gpu_time *= slowdown
            durations = lat_d.total * slowdown if slowdown != 1.0 else lat_d.total

            reports.append(ExecutionReport(
                device=spec,
                trace=trace,
                columns=cols,
                gpu_time=gpu_time,
                host_time=host_time,
                launch_time=launch_time * slowdown,
                transfer_time=transfer_time * slowdown,
                data_prep_time=data_prep_time * slowdown,
                sync_time=sync_time * slowdown,
                memory=mem,
                memory_pressure=pressure,
                slowdown=slowdown,
                durations=durations,
                raw_latency=lat_d,
                params=DeviceParams.from_spec(spec),
            ))
        return reports
