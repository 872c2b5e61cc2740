"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this module once per repetition so that every cold
measurement starts with empty in-process memos (the cost model's price
cache, the default store's memory tier, ``TraceStore``'s model memo) and an
empty cache directory. It prints one JSON object as its last stdout line.

Modes:

``cold``
    Import, build the inputs (``setup``), run the timed body (``wall``)
    and, for ``characterize``, ``WARM_SETS`` warm passes, each from a fresh
    store on the filled directory (``warm``).
``warm``
    Serving workloads only: build ``WARM_SETS`` tenant sets and fill their
    anchor curves from the already-filled ``--cache-dir`` (``warm``), the
    path a ``--cache-dir`` user pays on every run after the first.
``prime``
    Import everything (compiling bytecode once, outside any timing) and,
    for serving workloads, fill ``--cache-dir`` for later ``warm`` runs.

A :class:`SpeedProbe` samples the host's speed while the program runs;
each timed phase is reported with the speed seen during it, and ``run.py``
scales it to a reference speed. With ``--trace-out`` the layers are instrumented
(:mod:`perfbench.layers`) and the spans and counters are written there at
the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from perfbench.spans import Recorder

DEFAULT_SEED = 0
SLO = 50e-3
DEVICES = ("2080ti", "orin", "nano")
GROUPS = "2080ti:64,orin:32,nano:16"
SLOTS = ("2080ti", "2080ti", "orin", "nano")
SCENARIO = "heavy-head"
CHAOS = "single-failure"
TOL = 1e-9
PROBE_PERIOD_S = 0.02
PROBE_WARMUP_OPS = 10
PROBE_OPS = 40
PROBE_MARGIN_S = 0.5
# A warm phase is tens of milliseconds, so each repetition times several:
# fresh stores on the filled directory (characterize), or tenant sets of
# consecutive seeds whose anchor traces the prime child stored (serving).
WARM_SETS = 5

# Full sizes; see perfbench/README.md for why each workload exists.
WORKLOADS = {
    "characterize": {"kind": "characterize", "workloads": None,
                     "batches": (1, 2, 4, 8, 16, 32, 64, 128), "train_batch": 32},
    "fleet_slo": {"kind": "fleet", "policy": "adaptive", "rate": 200e3,
                  "n": 200_000},
    "fleet_saturated": {"kind": "fleet", "policy": "fixed", "rate": 10e6,
                        "n": 5_000_000},
    "mix_faults": {"kind": "classic", "policy": "adaptive", "rate": 100e3,
                   "n": 300_000},
}
# Test sizes: same code paths, a few seconds per repetition.
TINY = {
    "characterize": {"workloads": ("avmnist", "mujoco_push"), "batches": (1, 2),
                     "train_batch": 2},
    "fleet_slo": {"n": 2_000},
    "fleet_saturated": {"n": 20_000},
    "mix_faults": {"n": 3_000},
}

REFERENCE = Path(__file__).with_name("reference.json")


def workload_spec(name: str, tiny: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    return spec


class Ops:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set[str] = set()
        self.messages: list[str] = []

    def run(self, name: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.fail(name, traceback.format_exc(limit=4).strip())
            raise

    def fail(self, name: str, message: str) -> None:
        self.failed.add(name)
        self.messages.append(f"{name}: {message}")

    def check(self, name: str, problems: list[str]) -> None:
        if problems:
            self.fail(name, "; ".join(problems[:5])
                      + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""))


def compare(got, want, path: str = "") -> list[str]:
    """Mismatches between two outcome trees (floats within ``TOL``)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys differ"]
        out = []
        for key in sorted(want):
            out += compare(got[key], want[key], f"{path}/{key}")
        return out
    if isinstance(want, float) or isinstance(got, float):
        if abs(got - want) <= TOL * max(1.0, abs(want)):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


class SpeedProbe:
    """Samples how fast the host runs while the program runs.

    Every ``PROBE_PERIOD_S`` a SIGALRM handler times ``PROBE_OPS`` small
    numpy operations, the same mix of interpreter work and tiny-array math
    the workloads consist of. On a shared machine the host's speed moves by
    up to 2x within seconds; the samples taken during a phase say how fast
    it ran then, so ``run.py`` can scale the phase to a reference speed.
    The handler costs about 1% of the time and is subtracted.
    """

    def __init__(self) -> None:
        # (start, seconds in the handler, seconds of the timed operations)
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        import numpy

        a = numpy.arange(64.0)

        def sample(_signum, _frame):
            start = time.perf_counter()
            total = 0.0
            # Untimed warm-up: the program has just evicted the probe's code
            # and data from the caches, and how much it evicted depends on
            # the program, not on the host.
            for i in range(PROBE_WARMUP_OPS):
                total += float((a * i).sum())
            t = time.perf_counter()
            for i in range(PROBE_OPS):
                total += float((a * i).sum())
            end = time.perf_counter()
            self.samples.append((start, end - start, end - t))

        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean samples per probe-second near ``[start, end]`` (all if none)."""
        if not self.samples:
            return float("nan")
        near = [timed for t, _, timed in self.samples
                if start - PROBE_MARGIN_S <= t <= end + PROBE_MARGIN_S]
        return statistics.fmean(1 / d for d in (near or [s[2] for s in self.samples]))

    def phase(self, start: float, end: float) -> dict:
        """A timed phase: seconds, probe seconds inside it, host speed."""
        inside = sum(d for t, d, _ in self.samples if start <= t and t + d <= end)
        return {"s": end - start, "probe_s": inside, "speed": self.speed(start, end)}


def reference_for(name: str):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def import_layers(kind: str) -> dict:
    """Import what the workload uses (all of it, so none lands in a timed body)."""
    import numpy

    from repro import lint
    from repro.hw import engine
    from repro.profiling import profiler
    from repro.trace import store
    from repro.workloads import registry

    mods = {"numpy": numpy, "lint": lint, "engine": engine,
            "profiler": profiler, "store": store, "registry": registry}
    if kind == "characterize":
        from repro.core.analysis import training

        mods["training"] = training
    else:
        from repro.serving import faults, fleet, policies, report, scenarios, simulator

        mods.update(faults=faults, fleet=fleet, policies=policies, report=report,
                    scenarios=scenarios, simulator=simulator)
    return mods


# -- characterize ---------------------------------------------------------------


def _grid_outcome(grid, train) -> dict:
    return {
        "cells": {f"{w}|{b}|{d}": cell.total_time for (w, b, d), cell in grid.items()},
        "training": {w: t.total_time for w, t in train.items()},
    }


def characterize(m, spec, args, ops, probe, out) -> None:
    workloads = list(spec["workloads"] or m["registry"].list_workloads())

    def one_pass(store, phase):
        grid = ops.run(f"price_grid.{phase}", lambda: m["profiler"].price_grid(
            workloads, spec["batches"], DEVICES, seed=args.seed,
            backend="meta", store=store))
        train = ops.run(f"training.{phase}", lambda: m["training"].training_step_analysis(
            workloads, device=DEVICES[0], batch_size=spec["train_batch"],
            seed=args.seed, backend="meta", store=store))
        return grid, train

    store = m["store"].TraceStore(args.cache_dir)
    t = time.perf_counter()
    out["setup"] = probe.phase(args.t0, t)

    grid, train = one_pass(store, "cold")
    t, t_start = time.perf_counter(), t
    out["wall"] = probe.phase(t_start, t)

    out["warm"], warm_passes = [], []
    for _ in range(WARM_SETS):
        warm_passes.append(one_pass(m["store"].TraceStore(args.cache_dir), "warm"))
        t, t_start = time.perf_counter(), t
        out["warm"].append(probe.phase(t_start, t))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cold = _grid_outcome(grid, train)
    cells = list(grid.values()) + [t.report for t in train.values()]
    out["items"] = sum(c.report.columns.n if hasattr(c, "report") else c.columns.n
                       for c in cells)
    out["outcome"] = digest(cold)

    values = list(cold["cells"].values()) + list(cold["training"].values())
    ops.check("price_grid.cold", [f"non-positive or non-finite time {v!r}"
                                  for v in values if not (math.isfinite(v) and v > 0)])
    for warm_grid, warm_train in warm_passes:
        warm = _grid_outcome(warm_grid, warm_train)
        ops.check("price_grid.warm", [
            f"{key}: warm {warm['cells'].get(key, float('nan')).hex()} != cold {v.hex()}"
            for key, v in cold["cells"].items()
            if warm["cells"].get(key, float("nan")).hex() != v.hex()])
        ops.check("training.warm", [
            f"{w}: warm != cold" for w, v in cold["training"].items()
            if warm["training"].get(w, float("nan")).hex() != v.hex()])
    if args.check_reference:
        ref = reference_for(args.workload)
        ops.check("price_grid.cold", ["no reference recorded"] if ref is None
                  else compare(cold, ref))
    out["reference_outcome"] = cold


# -- serving ----------------------------------------------------------------------


def build_tenants(m, spec, seed, span):
    """Tenants with their anchor curves filled for every device (the setup)."""
    make_policy = {
        "adaptive": lambda _w: m["policies"].AdaptiveSLOPolicy(SLO),
        "fixed": lambda _w: m["policies"].FixedBatchPolicy(512),
    }[spec["policy"]]
    tenants = m["scenarios"].make_tenants(
        m["registry"].list_workloads(), policy_factory=make_policy, slo=SLO,
        seed=seed)
    with span("serving.costmodel.fill"):
        for tenant in tenants:
            for device in DEVICES:
                tenant.cost.latency(device, 1)
    return tenants


def fill_digest(tenants) -> str:
    """Digest of every tenant's anchor latencies on every device."""
    return digest({t.name: [t.cost.latency(d, k) for d in DEVICES
                            for k in (1, 8, 32, 128, 512)] for t in tenants})


def serving_outcome(report, kind: str) -> dict:
    outcome = {
        "p99": report.p99_latency,
        "tenants": {name: {"n": s.n_requests, "p99": s.p99_latency,
                           "slo": s.slo_attainment}
                    for name, s in report.tenant_stats.items()},
    }
    if kind == "fleet":
        outcome["batches"] = {g: s.batches for g, s in report.group_stats.items()}
    else:
        outcome["batches"] = {d: s.batches for d, s in report.device_stats.items()}
        outcome["retries"] = report.fault_stats.retries
        outcome["shed"] = report.fault_stats.shed
        outcome["recovery_p99"] = report.fault_stats.recovery_p99
    return outcome


def conservation(report, kind: str, issued: int) -> list[str]:
    problems = []
    shed = report.fault_stats.shed if kind == "classic" else 0
    if report.completed + shed != issued:
        problems.append(f"completed {report.completed} + shed {shed} != issued {issued}")
    if sum(s.n_requests for s in report.tenant_stats.values()) != issued:
        problems.append("per-tenant request counts do not sum to issued")
    if kind == "classic" and report.fault_stats.issued != issued:
        problems.append(f"fault accounting saw {report.fault_stats.issued} issued")
    return problems


def serving(m, spec, args, ops, span, probe, out) -> None:
    kind = spec["kind"]
    if args.mode != "cold":
        out["warm"] = []
        for seed in range(args.seed + WARM_SETS - 1, args.seed - 1, -1):
            t = time.perf_counter()
            tenants = ops.run("costmodel.fill", lambda: build_tenants(m, spec, seed, span))
            out["warm"].append(probe.phase(t, time.perf_counter()))
        out["fill"] = fill_digest(tenants)
        return
    tenants = ops.run("costmodel.fill", lambda: build_tenants(m, spec, args.seed, span))
    n, rate = spec["n"], spec["rate"]
    if kind == "fleet":
        groups = m["fleet"].parse_groups(GROUPS)
    else:
        plan = ops.run("faults.plan", lambda: m["faults"].chaos_plan(
            CHAOS, SLOTS, n / rate, seed=args.seed))
    out["setup"] = probe.phase(args.t0, time.perf_counter())

    def generate():
        if kind == "fleet":
            return m["scenarios"].scenario_columns(
                SCENARIO, tenants, n, arrival_rate=rate, seed=args.seed)
        return m["scenarios"].scenario_requests(
            SCENARIO, tenants, n, arrival_rate=rate, seed=args.seed)

    def simulate(stream):
        if kind == "fleet":
            return m["fleet"].simulate_fleet(
                tenants, groups, columns=stream, arrival_rate=rate, seed=args.seed)
        return m["simulator"].simulate_mixed(
            tenants, devices=SLOTS, requests=stream, arrival_rate=rate,
            seed=args.seed, faults=plan, retry=m["faults"].RetryPolicy())

    summarize = (m["report"].fleet_summary if kind == "fleet"
                 else m["report"].mixed_serving_summary)

    t = time.perf_counter()
    stream = ops.run("scenarios.generate", generate)
    t_sim = time.perf_counter()
    report = ops.run("simulate", lambda: simulate(stream))
    out["sim"] = probe.phase(t_sim, time.perf_counter())
    text = ops.run("report.summary", lambda: summarize(report))
    out["wall"] = probe.phase(t, time.perf_counter())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["items"] = report.completed
    out["fill"] = fill_digest(tenants)

    outcome = serving_outcome(report, kind)
    out["outcome"] = digest(outcome)
    out["reference_outcome"] = outcome
    ops.check("scenarios.generate", [] if len(stream) == n
              else [f"generated {len(stream)} of {n} requests"])
    ops.check("simulate", conservation(report, kind, n))
    ops.check("report.summary", [] if isinstance(text, str) and text.strip()
              else ["empty summary"])
    if args.check_reference:
        ref = reference_for(args.workload)
        ops.check("simulate", ["no reference recorded"] if ref is None
                  else compare(outcome, ref))
    if args.repeat_check:
        again = ops.run("simulate.repeat", lambda: simulate(stream))
        ops.check("simulate.repeat", compare(serving_outcome(again, kind), outcome))


# -- driver -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("cold", "warm", "prime"), default="cold")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent when it started this process")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--check-reference", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    spec = workload_spec(args.workload, args.tiny)
    rec = Recorder() if args.trace_out else None
    span = rec.span if rec is not None else (lambda _name: nullcontext())
    ops = Ops()
    probe = SpeedProbe()
    out: dict = {}
    # An import failure is not an operation of the program: the process
    # exits non-zero and the run reports no result.
    with span("core.import"):
        probe.start()
        m = import_layers(spec["kind"])
    if rec is not None:
        from perfbench.layers import install

        install(rec)
    if args.mode == "prime":
        out["python"] = sys.version.split()[0]
        out["numpy"] = m["numpy"].__version__
    try:
        if spec["kind"] == "characterize":
            if args.mode == "cold":
                characterize(m, spec, args, ops, probe, out)
        else:
            serving(m, spec, args, ops, span, probe, out)
    except Exception:
        if not ops.messages:
            ops.fail("benchmark", traceback.format_exc(limit=4).strip())
        out["aborted"] = True
    probe.stop()
    out["speed"] = probe.speed()
    if rec is not None:
        rec.count("trace.store.disk_bytes", sum(
            p.stat().st_size for p in Path(args.cache_dir).glob("*") if p.is_file()))
        rec.dump(args.trace_out)
    out.update(ops=ops.attempted, failed=sorted(ops.failed), messages=ops.messages)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
