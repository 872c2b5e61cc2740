"""Static analysis for benchmark artifacts (``mmbench lint``).

The public surface is a family of ``lint_*`` entry points, one per
artifact type, each returning a :class:`~repro.lint.core.LintReport`:

* :func:`lint_trace` — a ``Trace``/``TraceColumns``/``StoredTrace``
* :func:`lint_graph` — a parsed ``mmbench-eg/1`` execution-graph payload
* :func:`lint_schedule` — a :class:`~repro.hw.streams.StreamSchedule`
* :func:`lint_serving_report` — a ``ServingReport`` (race replay)
* :func:`lint_fault_plan` — a ``FaultPlan`` (static, pre-resolve)
* :func:`lint_fleet` — a fleet config (groups + autoscale + fault plan)
* :func:`lint_tenants` / :func:`lint_registry` — configs
* :func:`lint_path` — sniff a JSON file (graph vs fault plan) and lint it
* :func:`lint_artifact` — dispatch on the object's type

plus :func:`check` — the opt-out pre-run hook used by
``profile_stored`` / ``simulate_mixed`` / ``get_or_ingest``: run a
report, raise :class:`~repro.lint.core.LintFailure` if it has errors.

Importing this package registers every rule (``trace_rules`` and
``schedule_rules`` run their :func:`~repro.lint.core.rule` decorators at
import time).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import fleet_rules, schedule_rules, trace_rules  # noqa: F401  (registers rules)
from repro.lint.core import (
    Diagnostic,
    LintContext,
    LintFailure,
    LintReport,
    Rule,
    all_rules,
    load_baseline,
    run_rules,
    write_baseline,
)

__all__ = [
    "Diagnostic", "LintContext", "LintFailure", "LintReport", "Rule",
    "all_rules", "load_baseline", "write_baseline",
    "lint_trace", "lint_graph", "lint_schedule", "lint_serving_report",
    "lint_fault_plan", "lint_fleet", "lint_tenants", "lint_registry",
    "lint_path", "lint_artifact", "check",
]


def _columns_of(obj):
    """TraceColumns from a TraceColumns / Trace / StoredTrace."""
    if hasattr(obj, "stage_codes"):  # already columns
        return obj
    if hasattr(obj, "columns"):  # Trace
        return obj.columns()
    if hasattr(obj, "trace"):  # StoredTrace / ProfileResult / IngestedGraph
        return obj.trace.columns()
    raise TypeError(f"cannot lint {type(obj).__name__} as a trace")


def _ctx(source: str, **options) -> LintContext:
    ctx = LintContext(source=source)
    for key, value in options.items():
        if value is not None:
            setattr(ctx, key, value)
    return ctx


def lint_trace(trace, source: str = "trace", **options) -> LintReport:
    """Columnar rules (MMB1xx/MMB2xx) over a trace-like object."""
    return run_rules("trace", _columns_of(trace), _ctx(source, **options))


def lint_graph(payload: dict, source: str = "graph", **options) -> LintReport:
    """Static graph rules (MMB11x) over a parsed ``mmbench-eg/1`` dict."""
    return run_rules("graph", payload, _ctx(source, **options))


def lint_schedule(schedule, source: str = "schedule", **options) -> LintReport:
    """Stream race detection (MMB30x) over a :class:`StreamSchedule`."""
    return run_rules("schedule", schedule, _ctx(source, **options))


def lint_serving_report(report, source: str = "serving", **options) -> LintReport:
    """Timeline replay rules (MMB304/305) over a ``ServingReport``.

    The rules replay the per-request view, which only ``simulate`` and
    ``simulate_mixed`` record; a ``simulate_fleet`` report raises
    ``ValueError``.
    """
    if report.requests is None:
        raise ValueError(
            "lint_serving_report needs a simulate/simulate_mixed report: "
            "this one has no per-request timeline (simulate_fleet records "
            "none)")
    return run_rules("serving", report, _ctx(source, **options))


def lint_fault_plan(plan, source: str = "fault-plan", *, devices=(),
                    horizon: float | None = None, **options) -> LintReport:
    """Static fault-plan rules (MMB4xx). ``devices``/``horizon`` sharpen
    the blackout and past-horizon checks when the caller knows them."""
    ctx = _ctx(source, **options)
    ctx.devices = tuple(devices)
    ctx.horizon = horizon
    return run_rules("fault_plan", plan, ctx)


def lint_fleet(groups, autoscale=None, faults=None, source: str = "fleet",
               **options) -> LintReport:
    """Fleet-config rules (MMB31x) over groups + autoscale + fault plan.

    Accepts either a ready :class:`~repro.serving.fleet.FleetConfig` (as
    ``groups``) or the pieces separately.
    """
    if hasattr(groups, "groups") and hasattr(groups, "autoscale"):
        cfg = groups
    else:
        from repro.serving.fleet import FleetConfig

        cfg = FleetConfig(tuple(groups), autoscale, faults)
    return run_rules("fleet", cfg, _ctx(source, **options))


def lint_tenants(tenants, source: str = "tenants", **options) -> LintReport:
    """Tenant-config rules (MMB501) over a sequence of ``TenantSpec``."""
    return run_rules("tenants", tuple(tenants), _ctx(source, **options))


def lint_registry(registry, source: str = "registry", **options) -> LintReport:
    """Op-mapping registry rules (MMB51x)."""
    return run_rules("registry", registry, _ctx(source, **options))


# -- file / object dispatch --------------------------------------------------------


def lint_path(path, **options) -> LintReport:
    """Lint a JSON artifact file, sniffing its type.

    ``nodes`` marks an execution graph (linted statically, then — if the
    static pass found no errors — ingested and trace-linted, so columnar
    rules see the mapped events too); ``events`` marks a fault plan.
    """
    p = Path(path)
    payload = json.loads(p.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{p}: not a JSON object")
    if "nodes" in payload:
        report = lint_graph(payload, source=str(p), **options)
        if report.ok:
            from repro.trace.ingest import IngestError, ingest_graph

            try:
                ingested = ingest_graph(payload, name=str(p))
            except IngestError as exc:
                # The static pass missed it but ingest would refuse it:
                # surface the refusal as a diagnostic, not a crash.
                report.diagnostics.append(Diagnostic(
                    code="MMB112", severity="error",
                    message=f"ingest rejects this graph: {exc}",
                    location="graph", source=str(p)))
            else:
                report.extend(lint_trace(ingested, source=str(p), **options))
        return report
    if "events" in payload:
        from repro.serving.faults import FaultPlan

        plan = FaultPlan.from_json(payload)
        return lint_fault_plan(plan, source=str(p), **options)
    raise ValueError(f"{p}: neither an execution graph ('nodes') nor a "
                     f"fault plan ('events')")


def lint_artifact(obj, source: str | None = None, **options) -> LintReport:
    """Dispatch on the artifact's type (the ``BenchmarkSuite.lint`` back end)."""
    if isinstance(obj, (str, Path)):
        return lint_path(obj, **options)
    if isinstance(obj, dict):
        if "nodes" in obj:
            return lint_graph(obj, source=source or "graph", **options)
        raise ValueError("dict artifact is not an execution graph "
                         "(missing 'nodes')")
    name = type(obj).__name__
    if hasattr(obj, "streams") and hasattr(obj, "makespan"):
        return lint_schedule(obj, source=source or name, **options)
    if hasattr(obj, "group_stats") and hasattr(obj, "requests"):
        return lint_serving_report(obj, source=source or name, **options)
    if hasattr(obj, "events") and hasattr(obj, "empty"):
        return lint_fault_plan(obj, source=source or name, **options)
    if hasattr(obj, "groups") and hasattr(obj, "autoscale"):
        return lint_fleet(obj, source=source or name, **options)
    if hasattr(obj, "rule_list"):
        return lint_registry(obj, source=source or name, **options)
    if isinstance(obj, (list, tuple)) and obj and hasattr(obj[0], "policy"):
        return lint_tenants(obj, source=source or name, **options)
    return lint_trace(obj, source=source or name, **options)


def check(report: LintReport, what: str = "artifact") -> LintReport:
    """Raise :class:`LintFailure` if ``report`` has errors; else pass it
    through (the shared tail of every pre-run hook)."""
    if not report.ok:
        raise LintFailure(report, what)
    return report
