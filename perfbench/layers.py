"""Per-layer instrumentation for the traced run, applied from outside ``src``.

:func:`install` replaces public entry points of each ``repro`` layer, at
module or class attribute level, with wrappers that open a span and bump
counters on a :class:`~perfbench.spans.Recorder`. No ``src`` file changes;
untraced repetitions never call :func:`install`, so they run the program
unmodified. Callers inside ``repro`` that import these names at call time
(``from repro.lint import check`` inside a function, for instance) pick up
the wrappers; the benchmark itself always calls through module attributes.

:func:`layer_metrics` turns one repetition's spans and counters into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools

from perfbench.spans import Recorder, self_time_by_name, total_time_by_name

FILL = "serving.costmodel.fill"


def _spanned(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    """Wrap ``owner.attr`` in a span; ``after(args, kwargs, result)`` counts."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Instrument every layer the workloads reach."""
    from repro import lint
    from repro.core.analysis import training
    from repro.hw.engine import ExecutionEngine
    from repro.profiling import profiler
    from repro.serving import faults, fleet, report, scenarios, simulator
    from repro.trace.store import TraceStore

    fill_keys: set[str] = set()
    fill_pairs: set[tuple[str, str]] = set()

    # trace.store: gets split into memory hits, disk hits and misses. A disk
    # hit is the only outcome that grows the memory tier (len(store)).
    store_get = TraceStore.get

    def get(self, key):
        before = len(self)
        with rec.span("trace.store.get"):
            entry = store_get(self, key)
        rec.count("trace.store.gets")
        if entry is None:
            rec.count("trace.store.misses")
        elif len(self) > before:
            rec.count("trace.store.disk_hits")
        else:
            rec.count("trace.store.mem_hits")
        if rec.inside(FILL):
            rec.count("serving.costmodel.fill_gets")
            fill_keys.add(key.digest())
        return entry

    TraceStore.get = get
    _spanned(rec, TraceStore, "put", "trace.store.put",
             lambda a, k, r: rec.count("trace.store.puts"))
    _spanned(rec, TraceStore, "model", "nn.model_build",
             lambda a, k, r: rec.count("nn.model_builds"))

    # trace capture: a call that missed the store captured a fresh trace.
    def capture_wrapper(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            misses = rec.counts["trace.store.misses"]
            with rec.span("trace.capture"):
                entry = original(self, *args, **kwargs)
            if rec.counts["trace.store.misses"] > misses:
                rec.count("trace.captures")
                rec.count("trace.kernels_captured", len(entry.trace.kernels))
            return entry
        return wrapper

    TraceStore.get_or_capture = capture_wrapper(TraceStore.get_or_capture)
    TraceStore.get_or_capture_training = capture_wrapper(
        TraceStore.get_or_capture_training)

    # hw.engine: a single-device run is a one-device sweep.
    def priced(n_devices):
        def after(args, kwargs, result):
            rec.count("hw.engine.sweeps")
            rec.count("hw.engine.device_cells", n_devices(args, kwargs))
            trace = args[1] if len(args) > 1 else kwargs["trace"]
            rec.count("hw.engine.kernel_cells",
                      trace.columns().n * n_devices(args, kwargs))
        return after

    _spanned(rec, ExecutionEngine, "run_sweep", "hw.engine.sweep",
             priced(lambda a, k: len(a[2] if len(a) > 2 else k["devices"])))
    _spanned(rec, ExecutionEngine, "run", "hw.engine.sweep",
             priced(lambda a, k: 1))

    # profiling: a grid priced while the anchor fill is open adds one
    # anchor curve per (workload, device) pair it covers.
    def grid_done(args, kwargs, result):
        if rec.inside(FILL):
            fill_pairs.update((w, d) for w, _, d in result)
            rec.counts["serving.costmodel.curves"] = len(fill_pairs)
            rec.counts["serving.costmodel.fill_traces"] = len(fill_keys)

    _spanned(rec, profiler, "price_grid", "profiling.price_grid", grid_done)
    _spanned(rec, training, "training_step_analysis", "profiling.training")

    # lint: the pre-run hooks build a report, then `check` gates on it.
    for attr in ("lint_tenants", "lint_fleet", "lint_fault_plan"):
        _spanned(rec, lint, attr, "lint.hook")
    _spanned(rec, lint, "check", "lint.hook",
             lambda a, k, r: rec.count("lint.hook_calls"))

    # serving: scenario_requests calls scenario_columns, so only the
    # outermost generate call counts its requests.
    def generated(args, kwargs, result):
        if not rec.inside("serving.scenarios.generate"):
            rec.count("serving.scenarios.requests", len(result))

    _spanned(rec, scenarios, "scenario_columns", "serving.scenarios.generate",
             generated)
    _spanned(rec, scenarios, "scenario_requests", "serving.scenarios.generate",
             generated)

    def fleet_done(args, kwargs, result):
        rec.count("serving.fleet.requests", result.n_requests)
        rec.count("serving.fleet.batches",
                  sum(g.batches for g in result.group_stats.values()))

    def classic_done(args, kwargs, result):
        rec.count("serving.simulator.requests", result.n_requests)
        rec.count("serving.simulator.batches",
                  sum(d.batches for d in result.device_stats.values()))
        stats = result.fault_stats
        if stats is not None:
            rec.count("serving.faults.retries", stats.retries)
            rec.count("serving.faults.shed", stats.shed)
            rec.count("serving.faults.sim_downtime_s", stats.total_downtime)

    _spanned(rec, fleet, "simulate_fleet", "serving.fleet.simulate", fleet_done)
    _spanned(rec, simulator, "simulate_mixed", "serving.simulator.simulate",
             classic_done)
    _spanned(rec, faults, "chaos_plan", "serving.faults.plan")
    _spanned(rec, report, "fleet_summary", "serving.report.summary")
    _spanned(rec, report, "mixed_serving_summary", "serving.report.summary")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced repetition.

    Every ``*_s`` time is self time (duration minus child spans), except
    ``serving.costmodel.fill_total_s``, the inclusive anchor-fill time.
    Layers a workload never enters report 0.
    """
    own = self_time_by_name(spans)
    total = total_time_by_name(spans)
    c = counts.get
    t = own.get
    gets = c("trace.store.gets", 0)
    hits = c("trace.store.mem_hits", 0) + c("trace.store.disk_hits", 0)
    sweep_s = t("hw.engine.sweep", 0.0)
    fleet_req = c("serving.fleet.requests", 0)
    classic_req = c("serving.simulator.requests", 0)
    return {
        "core.import_s": t("core.import", 0.0),
        "nn.model_build_s": t("nn.model_build", 0.0),
        "nn.model_builds": c("nn.model_builds", 0),
        "trace.capture_s": t("trace.capture", 0.0),
        "trace.captures": c("trace.captures", 0),
        "trace.kernels_captured": c("trace.kernels_captured", 0),
        "trace.store.put_s": t("trace.store.put", 0.0),
        "trace.store.puts": c("trace.store.puts", 0),
        "trace.store.disk_mb": c("trace.store.disk_bytes", 0) / 2**20,
        "trace.store.get_s": t("trace.store.get", 0.0),
        "trace.store.gets": gets,
        "trace.store.mem_hits": c("trace.store.mem_hits", 0),
        "trace.store.disk_hits": c("trace.store.disk_hits", 0),
        "trace.store.hit_ratio": _ratio(hits, gets),
        "hw.engine.sweep_s": sweep_s,
        "hw.engine.sweeps": c("hw.engine.sweeps", 0),
        "hw.engine.devices_per_sweep": _ratio(c("hw.engine.device_cells", 0),
                                              c("hw.engine.sweeps", 0)),
        "hw.engine.kernel_cells": c("hw.engine.kernel_cells", 0),
        "hw.engine.ns_per_kernel_cell": _ratio(sweep_s * 1e9,
                                               c("hw.engine.kernel_cells", 0)),
        "profiling.price_grid_self_s": t("profiling.price_grid", 0.0),
        "profiling.training_s": t("profiling.training", 0.0),
        "serving.costmodel.fill_s": t(FILL, 0.0),
        "serving.costmodel.fill_total_s": total.get(FILL, 0.0),
        "serving.costmodel.curves": c("serving.costmodel.curves", 0),
        "serving.costmodel.gets_per_trace": _ratio(
            c("serving.costmodel.fill_gets", 0),
            c("serving.costmodel.fill_traces", 0)),
        "serving.scenarios.generate_s": t("serving.scenarios.generate", 0.0),
        "serving.scenarios.ns_per_request": _ratio(
            t("serving.scenarios.generate", 0.0) * 1e9,
            c("serving.scenarios.requests", 0)),
        "serving.fleet.simulate_s": t("serving.fleet.simulate", 0.0),
        "serving.fleet.ns_per_request": _ratio(
            t("serving.fleet.simulate", 0.0) * 1e9, fleet_req),
        "serving.fleet.batches": c("serving.fleet.batches", 0),
        "serving.fleet.mean_batch": _ratio(fleet_req,
                                           c("serving.fleet.batches", 0)),
        "serving.simulator.simulate_s": t("serving.simulator.simulate", 0.0),
        "serving.simulator.ns_per_request": _ratio(
            t("serving.simulator.simulate", 0.0) * 1e9, classic_req),
        "serving.simulator.batches": c("serving.simulator.batches", 0),
        "serving.simulator.mean_batch": _ratio(
            classic_req, c("serving.simulator.batches", 0)),
        "serving.faults.plan_s": t("serving.faults.plan", 0.0),
        "serving.faults.retries": c("serving.faults.retries", 0),
        "serving.faults.shed": c("serving.faults.shed", 0),
        "serving.faults.sim_downtime_s": c("serving.faults.sim_downtime_s", 0),
        "lint.hook_s": t("lint.hook", 0.0),
        "lint.hook_calls": c("lint.hook_calls", 0),
        "serving.report.summary_s": t("serving.report.summary", 0.0),
        "tracing.spans": float(len(spans)),
    }
