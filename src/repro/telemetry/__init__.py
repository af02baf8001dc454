"""Observability for the simulated dataplane and the RA pipeline.

The paper's argument is that operators need visibility into what a
programmable dataplane is actually running; this subsystem gives the
*reproduction* the same property about itself. One
:class:`~repro.telemetry.instrument.Telemetry` object bundles

- a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with per-switch / per-link /
  per-policy labeled children (cheap enough for per-packet use),
- a :class:`~repro.telemetry.spans.SpanRecorder` of nestable timed
  spans over both the simulated clock and the wall clock,

- a :class:`~repro.telemetry.tracing.TraceContext` per packet plus an
  append-only :class:`~repro.telemetry.audit.AuditJournal` of
  attestation events, joining every span/counter/verdict back to the
  causal chain that produced it (see ``docs/TRACING.md``),

- a :class:`~repro.telemetry.timeseries.FlightRecorder` of windowed,
  delta-encoded time-series frames sampled on a deterministic sim-time
  cadence, with a declarative health/SLO rule engine
  (:mod:`~repro.telemetry.health`) raising typed alerts at window
  close (see ``docs/MONITORING.md``),

and :mod:`~repro.telemetry.export` renders a run as JSON, as a Chrome
``chrome://tracing`` trace, or as a plain-text summary. Instrumented
layers (net, pisa, pera, ra, core) bind to
:func:`~repro.telemetry.instrument.default_telemetry`, which is a
no-op null object unless ``REPRO_TELEMETRY=1`` is set or a telemetry
instance is passed / installed explicitly — disabled observability
costs one branch per site. See ``docs/TELEMETRY.md``.
"""

from repro.telemetry.audit import (
    AUDIT_SCHEMA,
    AuditEvent,
    AuditJournal,
    AuditKind,
    Check,
    NULL_JOURNAL,
    classify_failure,
    explain_verdict,
    narrative,
)
from repro.telemetry.export import (
    TRACE_SCHEMA,
    audit_snapshot,
    chrome_trace,
    dump_audit,
    dump_json,
    dump_run,
    snapshot,
    summary,
    write_chrome_trace,
)
from repro.telemetry.instrument import (
    NULL_TELEMETRY,
    Telemetry,
    collect_globals,
    collect_node,
    collect_simulator,
    collect_verify_cache,
    default_telemetry,
    global_telemetry,
    reset_default,
    use_default,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.health import (
    AbsenceRule,
    HealthReport,
    ImbalanceRule,
    RatioRule,
    ThresholdRule,
    evaluate_health,
    label_filter,
)
from repro.telemetry.spans import Span, SpanRecorder
from repro.telemetry.timeseries import (
    FlightRecorder,
    SamplingSpec,
    TIMESERIES_SCHEMA,
    dump_timeseries,
    install_recorder,
    merge_frame_streams,
    timeseries_export,
    timeseries_snapshot,
)
from repro.telemetry.tracing import TraceContext, TraceIds

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "default_telemetry",
    "global_telemetry",
    "use_default",
    "reset_default",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "SpanRecorder",
    "Span",
    "collect_simulator",
    "collect_node",
    "collect_verify_cache",
    "collect_globals",
    "snapshot",
    "dump_json",
    "chrome_trace",
    "write_chrome_trace",
    "summary",
    "dump_run",
    "TraceContext",
    "TraceIds",
    "AuditJournal",
    "AuditEvent",
    "AuditKind",
    "Check",
    "NULL_JOURNAL",
    "AUDIT_SCHEMA",
    "TRACE_SCHEMA",
    "classify_failure",
    "narrative",
    "explain_verdict",
    "audit_snapshot",
    "dump_audit",
    "FlightRecorder",
    "SamplingSpec",
    "TIMESERIES_SCHEMA",
    "dump_timeseries",
    "install_recorder",
    "merge_frame_streams",
    "timeseries_export",
    "timeseries_snapshot",
    "AbsenceRule",
    "HealthReport",
    "ImbalanceRule",
    "RatioRule",
    "ThresholdRule",
    "evaluate_health",
    "label_filter",
]
