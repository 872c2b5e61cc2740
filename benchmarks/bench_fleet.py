"""Benchmark: the fleet engine in three load regimes, two of them gated.

Measures the fleet-scale serving layer (:mod:`repro.serving.fleet`) on
all nine registry workloads served as tenants of three homogeneous
device groups — 64x 2080ti, 32x orin, 16x nano — in three regimes:

* **saturated** — ten million requests at 10M req/s under fixed-512
  batching. This measures *engine capacity*: bulk arrival absorption,
  replica free-time vectors, dense latency tables, the completion heap.
  The per-event loop the classic simulator used to run topped out
  around 250k simulated req/s; the floor here is 10x that.
* **slo** — 200k requests at 200k req/s under adaptive 50 ms batching,
  where every tenant meets its SLO and the mean batch is ~3, so the
  per-epoch overhead (one epoch per couple of requests) dominates. The
  per-event oracle (``tests/serving/classic_reference.py``, that same
  loop, kept as the differential reference) serves the *same* stream on
  the same 112 devices in the same run (earliest-finish router, the
  configuration the engine reproduces), and the engine must beat it by
  ``--slo-speedup``.
* **light** — 100k requests at 20k req/s under the same adaptive
  policy: arrivals find idle replicas and empty queues, so every batch
  is one request and every request costs two epochs (its arrival and
  its completion). Report-only: the per-request cost here is what bulk
  assignment of idle-replica arrival runs would cut.

Run from the repo root::

    python benchmarks/bench_fleet.py [--n-requests 10000000] [-o FILE]

Emits ``BENCH_fleet.json``: the saturated regime's figures at the top
level plus ``slo_regime`` and ``light_regime`` objects::

    {
      "n_requests": 10000000,
      "groups": "2080ti:64,orin:32,nano:16",
      "wall_s": ...,
      "simulated_req_per_s": ...,
      "groups_detail": {"2080ti": {"replicas": 64, ...}, ...},
      "tenants": {"avmnist": {"requests": ..., ...}, ...},
      "slo_regime": {"fleet_req_per_s": ..., "classic_req_per_s": ...,
                     "speedup": ..., ...},
      "light_regime": {"fleet_req_per_s": ..., "us_per_request": ...,
                       "mean_batch": ..., ...}
    }

Exits non-zero if the saturated simulation exceeds ``--budget`` seconds
or falls below ``--floor`` simulated requests per second, if the
SLO-meeting regime's fleet/classic speedup falls below
``--slo-speedup``, or if any regime drops requests (completions must
be conserved).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.serving import (
    AdaptiveSLOPolicy,
    EarliestFinishRouter,
    FixedBatchPolicy,
    make_tenants,
    parse_groups,
    simulate_fleet,
)
from repro.serving.scenarios import scenario_columns
from repro.workloads.registry import list_workloads

# The per-event oracle lives with the tests that use it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.serving import classic_reference  # noqa: E402

GROUPS = "2080ti:64,orin:32,nano:16"
SLO = 50e-3
BATCH = 512
SLO_RATE = 200_000.0
SLO_REQUESTS = 200_000
LIGHT_RATE = 20_000.0
LIGHT_REQUESTS = 100_000


def build_tenants(policy_factory, groups, seed):
    tenants = make_tenants(list_workloads(), policy_factory=policy_factory,
                           slo=SLO, seed=seed)
    # Warm every tenant's anchor curves for every group device so the
    # timed sections measure the event loops, not lazy cost-model fills.
    for spec in tenants:
        for group in groups:
            spec.cost.latency(group.device, 1)
    return tenants


def run_saturated(args, groups) -> tuple[dict, list[str]]:
    tenants = build_tenants(lambda _w: FixedBatchPolicy(BATCH), groups,
                            args.seed)
    # One small untimed run warms the allocator and the dense latency
    # tables (first-touch page faults otherwise dominate a cold run).
    simulate_fleet(tenants, groups, n_requests=100_000,
                   arrival_rate=args.arrival_rate, scenario=args.scenario,
                   seed=args.seed)

    t0 = time.perf_counter()
    columns = scenario_columns(args.scenario, tenants, args.n_requests,
                               arrival_rate=args.arrival_rate, seed=args.seed)
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = simulate_fleet(tenants, groups, columns=columns,
                            arrival_rate=args.arrival_rate, seed=args.seed)
    wall_s = time.perf_counter() - t0
    rate = report.n_requests / wall_s

    replicas = sum(g.replicas for g in groups)
    print(f"saturated, {args.scenario}: {report.n_requests:,} requests over "
          f"{len(tenants)} tenants on {len(groups)} groups / "
          f"{replicas} replicas")
    print(f"arrivals generated in {generate_s:.2f}s, "
          f"simulated in {wall_s:.2f}s ({rate:,.0f} req/s of simulation)")
    groups_detail = {}
    for name, stats in report.group_stats.items():
        groups_detail[name] = {
            "replicas": stats.replicas,
            "batches": stats.batches,
            "requests": stats.requests,
            "mean_batch": round(stats.mean_batch, 1),
            "utilization": round(stats.utilization, 4),
        }
        print(f"{name:>14}: {stats.replicas:>3} replicas   "
              f"{stats.requests:>10,} requests   "
              f"mean batch {stats.mean_batch:6.1f}   "
              f"util {stats.utilization:.0%}")
    per_tenant = {
        name: {
            "requests": stats.n_requests,
            "p99_latency_s": stats.p99_latency,
            "slo_attainment": stats.slo_attainment,
        }
        for name, stats in report.tenant_stats.items()
    }
    payload = {
        "n_requests": report.n_requests,
        "scenario": args.scenario,
        "arrival_rate": args.arrival_rate,
        "groups": args.groups,
        "replicas": replicas,
        "slo_s": SLO,
        "batch": BATCH,
        "generate_s": round(generate_s, 3),
        "wall_s": round(wall_s, 3),
        "simulated_req_per_s": round(rate),
        "makespan_s": report.makespan,
        "groups_detail": groups_detail,
        "tenants": per_tenant,
    }

    failures = []
    if report.completed != args.n_requests:
        failures.append(f"saturated: {report.completed:,} of "
                        f"{args.n_requests:,} requests completed "
                        "(conservation broken)")
    if wall_s > args.budget:
        failures.append(f"saturated: {args.n_requests:,}-request fleet "
                        f"simulation took {wall_s:.1f}s "
                        f"(budget {args.budget:.0f}s)")
    if rate < args.floor:
        failures.append(f"saturated: {rate:,.0f} simulated req/s is below "
                        f"the {args.floor:,.0f} floor (10x the per-event "
                        "loop)")
    return payload, failures


def run_slo(args, groups) -> tuple[dict, list[str]]:
    tenants = build_tenants(lambda _w: AdaptiveSLOPolicy(SLO), groups,
                            args.seed)
    devices = tuple(g.device for g in groups for _ in range(g.replicas))

    def fleet(columns):
        return simulate_fleet(tenants, groups, columns=columns,
                              arrival_rate=SLO_RATE, seed=args.seed)

    def classic(requests):
        return classic_reference.simulate_mixed(
            tenants, devices=devices, requests=requests,
            arrival_rate=SLO_RATE, seed=args.seed,
            router=EarliestFinishRouter())

    # Small untimed runs of both engines warm the dense tables and the
    # policies' drain memos.
    warm = scenario_columns(args.scenario, tenants, 5_000,
                            arrival_rate=SLO_RATE, seed=args.seed)
    fleet(warm)
    classic(warm.to_requests())

    columns = scenario_columns(args.scenario, tenants, SLO_REQUESTS,
                               arrival_rate=SLO_RATE, seed=args.seed)
    requests = columns.to_requests()
    t0 = time.perf_counter()
    fleet_report = fleet(columns)
    fleet_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    classic_report = classic(requests)
    classic_s = time.perf_counter() - t0

    fleet_rate = fleet_report.n_requests / fleet_s
    classic_rate = classic_report.n_requests / classic_s
    speedup = fleet_rate / classic_rate
    attainment = min(s.slo_attainment for s in fleet_report.tenant_stats.values())
    mean_batch = fleet_report.n_requests / sum(
        s.batches for s in fleet_report.group_stats.values())
    print(f"slo, {args.scenario}: {SLO_REQUESTS:,} requests at "
          f"{SLO_RATE:,.0f} req/s, adaptive {SLO * 1e3:g} ms, "
          f"mean batch {mean_batch:.1f}, worst tenant SLO attainment "
          f"{attainment:.1%}")
    print(f"fleet {fleet_s:.2f}s ({fleet_rate:,.0f} req/s), classic "
          f"{classic_s:.2f}s ({classic_rate:,.0f} req/s): {speedup:.2f}x")
    payload = {
        "n_requests": SLO_REQUESTS,
        "arrival_rate": SLO_RATE,
        "policy": f"adaptive({SLO:g}s)",
        "mean_batch": round(mean_batch, 2),
        "min_slo_attainment": attainment,
        "p99_latency_s": fleet_report.p99_latency,
        "classic_p99_latency_s": classic_report.p99_latency,
        "fleet_wall_s": round(fleet_s, 3),
        "classic_wall_s": round(classic_s, 3),
        "fleet_req_per_s": round(fleet_rate),
        "classic_req_per_s": round(classic_rate),
        "speedup": round(speedup, 3),
    }

    failures = []
    for name, report in (("fleet", fleet_report), ("classic", classic_report)):
        if report.completed != SLO_REQUESTS:
            failures.append(f"slo: {name} completed {report.completed:,} of "
                            f"{SLO_REQUESTS:,} requests (conservation broken)")
    if speedup < args.slo_speedup:
        failures.append(f"slo: fleet engine is {speedup:.2f}x the per-event "
                        f"oracle, below the {args.slo_speedup:g}x floor")
    return payload, failures


def run_light(args, groups) -> tuple[dict, list[str]]:
    tenants = build_tenants(lambda _w: AdaptiveSLOPolicy(SLO), groups,
                            args.seed)

    def fleet(n):
        columns = scenario_columns(args.scenario, tenants, n,
                                   arrival_rate=LIGHT_RATE, seed=args.seed)
        t0 = time.perf_counter()
        report = simulate_fleet(tenants, groups, columns=columns,
                                arrival_rate=LIGHT_RATE, seed=args.seed)
        return report, time.perf_counter() - t0

    fleet(5_000)  # untimed: warms the dense tables and drain memos
    report, wall_s = fleet(LIGHT_REQUESTS)
    rate = report.n_requests / wall_s
    mean_batch = report.n_requests / sum(
        s.batches for s in report.group_stats.values())
    attainment = min(s.slo_attainment for s in report.tenant_stats.values())
    print(f"light, {args.scenario}: {LIGHT_REQUESTS:,} requests at "
          f"{LIGHT_RATE:,.0f} req/s, mean batch {mean_batch:.2f}, mean queue "
          f"{report.mean_queue_time * 1e6:.1f} us")
    print(f"fleet {wall_s:.2f}s ({rate:,.0f} req/s, "
          f"{wall_s / report.n_requests * 1e6:.1f} us/request)")
    payload = {
        "n_requests": LIGHT_REQUESTS,
        "arrival_rate": LIGHT_RATE,
        "policy": f"adaptive({SLO:g}s)",
        "mean_batch": round(mean_batch, 3),
        "mean_queue_time_s": report.mean_queue_time,
        "min_slo_attainment": attainment,
        "utilization": {name: round(s.utilization, 4)
                        for name, s in report.group_stats.items()},
        "fleet_wall_s": round(wall_s, 3),
        "fleet_req_per_s": round(rate),
        "us_per_request": round(wall_s / report.n_requests * 1e6, 2),
    }
    failures = []
    if report.completed != LIGHT_REQUESTS:
        failures.append(f"light: completed {report.completed:,} of "
                        f"{LIGHT_REQUESTS:,} requests (conservation broken)")
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-requests", type=int, default=10_000_000)
    parser.add_argument("--arrival-rate", type=float, default=10_000_000.0)
    parser.add_argument("--scenario", default="heavy-head")
    parser.add_argument("--groups", default=GROUPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=9.0,
                        help="maximum acceptable saturated simulation wall "
                             "time in seconds (CI regression gate)")
    parser.add_argument("--floor", type=float, default=2_539_870.0,
                        help="minimum acceptable saturated simulated req/s — "
                             "10x the per-event loop's mixed-serving rate")
    parser.add_argument("--slo-speedup", type=float, default=2.0,
                        help="minimum engine/oracle simulated-req/s ratio in "
                             "the SLO-meeting regime, both timed on the same "
                             "stream in this run")
    parser.add_argument("-o", "--output", default="BENCH_fleet.json")
    args = parser.parse_args(argv)

    groups = parse_groups(args.groups)
    saturated, failures = run_saturated(args, groups)
    slo, slo_failures = run_slo(args, groups)
    light, light_failures = run_light(args, groups)
    failures += slo_failures + light_failures

    payload = {"bench": "fleet", **saturated, "slo_regime": slo,
               "light_regime": light}
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
