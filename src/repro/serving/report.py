"""Formatted throughput–tail-latency reports for serving simulations."""

from __future__ import annotations

from repro.profiling.report import format_seconds, format_table
from repro.serving.simulator import ServingReport


def _sizes(stats) -> str:
    """One group's dispatched batch sizes, or its mean batch when the run
    recorded no histogram."""
    sizes = sorted(stats.batch_histogram)
    if not sizes:
        return f"mean {stats.mean_batch:.1f}" if stats.batches else "-"
    if len(sizes) <= 4:
        return ",".join(map(str, sizes))
    return f"{sizes[0]}..{sizes[-1]} ({len(sizes)} sizes)"


def format_policy_comparison(
    reports: dict[str, ServingReport], slo: float | None = None
) -> str:
    """One row per policy: throughput, tail latency, SLO attainment, batches."""
    headers = ["policy", "throughput", "p50 latency", "p99 latency",
               "formation wait"]
    if slo is not None:
        headers.append(f"SLO<= {format_seconds(slo)}")
    headers.append("batch sizes")
    rows = []
    for label, report in reports.items():
        row = [
            label,
            f"{report.throughput:,.0f} req/s",
            format_seconds(report.p50_latency),
            format_seconds(report.p99_latency),
            format_seconds(report.mean_formation_wait),
        ]
        if slo is not None:
            row.append(f"{report.slo_attainment(slo):.1%}")
        row.append("; ".join(f"{group}: {_sizes(stats)}" for group, stats
                             in sorted(report.group_stats.items())))
        rows.append(row)
    return format_table(headers, rows, title="Serving policies: throughput vs tail latency")


def format_tenant_breakdown(report: ServingReport) -> str:
    """One row per tenant: traffic share, tail latency, SLO attainment."""
    rows = []
    for name, stats in report.tenant_stats.items():
        rows.append([
            name,
            stats.n_requests,
            f"{stats.throughput:,.0f} req/s",
            format_seconds(stats.p50_latency),
            format_seconds(stats.p99_latency),
            "-" if stats.slo is None else format_seconds(stats.slo),
            "-" if stats.slo_attainment is None else f"{stats.slo_attainment:.1%}",
        ])
    return format_table(
        ["tenant", "requests", "throughput", "p50 latency", "p99 latency",
         "SLO", "attainment"],
        rows, title="Per-tenant latency / SLO breakdown")


def format_finetune_breakdown(report: ServingReport) -> str:
    """One row per background fine-tuning job: share, step time, progress."""
    rows = []
    for name, stats in report.finetune_stats.items():
        step_times = list(stats.step_times.values())
        mean_step = sum(step_times) / len(step_times) if step_times else 0.0
        rows.append([
            name,
            f"{stats.share:.0%}",
            stats.optimizer,
            format_seconds(mean_step),
            f"{stats.steps_completed:,.0f}",
            f"{stats.samples_processed:,.0f}",
            f"{stats.steps_per_second:,.1f}/s",
        ])
    return format_table(
        ["job", "share", "optimizer", "step time", "steps", "samples", "rate"],
        rows, title="Background fine-tuning jobs (stream shares)")


def format_fault_stats(report: ServingReport) -> str:
    """Fault-injection breakdown: per-device windows, retries, degradation."""
    stats = report.fault_stats
    if stats is None:
        return "no fault plan was active"
    lines = [
        f"faults: {stats.plan_events} plan events; "
        f"{stats.completed:,} completed + {stats.shed:,} shed "
        f"= {stats.issued:,} issued (conserved)",
        f"retries {stats.retries:,}"
        + (f" (per-request histogram {stats.retry_histogram})"
           if stats.retry_histogram else "")
        + (f", recovery p50 {format_seconds(stats.recovery_p50)} / "
           f"p99 {format_seconds(stats.recovery_p99)}"
           if stats.recovery_p50 > 0 else ""),
    ]
    if stats.devices:
        rows = [
            [
                d.slot,
                format_seconds(d.downtime) if d.downtime else "-",
                str(len(d.down_windows)) if d.down_windows else "-",
                format_seconds(d.throttle_time) if d.throttle_time else "-",
                format_seconds(d.stall_time) if d.stall_time else "-",
                d.aborted_batches or "-",
                d.aborted_requests or "-",
            ]
            for d in stats.devices.values()
        ]
        lines += ["", format_table(
            ["device", "downtime", "outages", "throttled", "stalled",
             "aborted batches", "aborted requests"],
            rows, title="Per-device fault windows")]
    degraded = {name: t for name, t in stats.tenants.items()
                if t.degraded_requests or t.shed or t.degraded_available}
    if degraded:
        rows = [
            [
                name,
                t.shed or "-",
                t.degraded_requests or "-",
                ("-" if t.degraded_slo_attainment is None
                 else f"{t.degraded_slo_attainment:.1%}"),
                format_seconds(t.degraded_time) if t.degraded_time else "-",
                t.degraded_activations or "-",
                ("-" if t.accuracy_cost is None
                 else f"{t.accuracy_cost:+.4f}"),
            ]
            for name, t in degraded.items()
        ]
        lines += ["", format_table(
            ["tenant", "shed", "degraded reqs", "degraded SLO", "degraded time",
             "activations", "accuracy cost"],
            rows, title="Per-tenant shedding / degraded mode")]
    return "\n".join(lines)


def _group_breakdown(report: ServingReport) -> str:
    """One row per device group (or pool slot): replicas, load, hops."""
    rows = []
    for label, stats in report.group_stats.items():
        hop = (f"{stats.hop_batches} ({format_seconds(stats.hop_time)})"
               if stats.hop_batches else "-")
        rows.append([
            label,
            stats.device,
            f"{stats.replicas}/{stats.peak_replicas}",
            f"{stats.mean_replicas:.1f}",
            stats.batches,
            stats.requests,
            f"{stats.mean_batch:.1f}",
            f"{stats.utilization:.0%}",
            hop,
            _sizes(stats),
        ])
    return format_table(
        ["group", "device", "replicas (end/peak)", "mean replicas", "batches",
         "requests", "mean batch", "utilization", "hops", "batch sizes"],
        rows, title="Per-group breakdown")


def report_summary(report: ServingReport) -> str:
    """Render any serving report: header, tenants, groups, then the
    fine-tune, autoscaling and fault blocks that apply."""
    rate = ("closed batch (all at t=0)" if report.arrival_rate is None
            else f"~{report.arrival_rate:g} req/s")
    tenants = (f" over {len(report.tenant_stats)} tenants"
               if report.tenant_stats else "")
    peak = sum(s.peak_replicas for s in report.group_stats.values())
    lines = [
        f"serving: {report.n_requests:,} requests{tenants}, {rate}, "
        f"{len(report.group_stats)} groups / {peak} replicas (peak), "
        f"router={report.router}",
        f"makespan {format_seconds(report.makespan)}, "
        f"{report.throughput:,.0f} req/s served; "
        f"{report.completed:,} completed + "
        f"{report.n_requests - report.completed:,} shed = "
        f"{report.n_requests:,} issued (conserved)",
    ]
    if report.tenant_stats:
        lines += ["", format_tenant_breakdown(report)]
    lines += ["", _group_breakdown(report)]
    if report.finetune_stats:
        lines += [
            "",
            f"inference slowed {report.inference_slowdown:.2f}x by background "
            "training shares",
            format_finetune_breakdown(report),
        ]
        faulted = [s for s in report.finetune_stats.values()
                   if s.restarts or s.lost_steps]
        if faulted:
            lines += [
                "checkpoint/restart: " + "; ".join(
                    f"{s.name}: {s.restarts} restarts, "
                    f"{s.lost_steps:,.0f} steps lost"
                    for s in faulted),
            ]
    if report.scaling_events:
        out = sum(1 for e in report.scaling_events if e.after > e.before)
        lines += [
            "",
            f"autoscaling: {len(report.scaling_events)} actions "
            f"({out} out, {len(report.scaling_events) - out} in); last: "
            + "; ".join(
                f"{e.group} {e.before}->{e.after} @ {format_seconds(e.time)}"
                for e in report.scaling_events[-3:]),
        ]
    if report.fault_stats is not None:
        lines += ["", format_fault_stats(report)]
    return "\n".join(lines)


# Earlier names of report_summary, kept for callers that still use them.
mixed_serving_summary = fleet_summary = report_summary


def serving_summary(reports: dict[str, ServingReport],
                    slo: float | None = None) -> str:
    """Full ``mmbench serve`` report: the policy comparison table, then
    each policy's :func:`report_summary`."""
    lines = [format_policy_comparison(reports, slo=slo)]
    for label, report in reports.items():
        lines += ["", f"policy={label}", report_summary(report)]
    return "\n".join(lines)
