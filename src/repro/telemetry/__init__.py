"""Telemetry: metrics, tracing spans, and the leakage-audit pipeline.

The observability layer of the serving stack. Three pieces share one
registry:

* **metrics** — counters, gauges, and fixed-bucket histograms
  (:class:`MetricsRegistry`; :class:`NullRegistry` when disabled), cheap
  enough to leave on in the hot paths of the engine, batcher, ORAM
  controllers, and embedding generators;
* **spans** — nested, attributed timing regions
  (``with telemetry.span("oram.access"): ...``) that decompose a request
  into queue-wait -> batch -> per-table generator -> bucket I/O;
* **audit** — :class:`LeakageAuditor` replays workloads across secret
  inputs and checks trace equivalence + address-histogram divergence, the
  executable form of the paper's indistinguishability claim.

Exporters serialise the same registry to JSON, Prometheus text format, and
a console summary table.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_latency_buckets,
    power_of_two_buckets,
)
from repro.telemetry.spans import NullSpan, Span, SpanCollector, SpanRecord
from repro.telemetry.runtime import (
    NULL_REGISTRY,
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    histogram,
    observe,
    set_registry,
    span,
    use_registry,
)
from repro.telemetry.export import (
    sanitize_metric_name,
    summary_table,
    to_json,
    to_prometheus,
    write_json,
)
from repro.telemetry.audit import (
    AuditFinding,
    AuditReport,
    AuditSubject,
    LeakageAuditor,
    LeakageError,
    address_histograms,
    histogram_divergence,
    standard_audit,
    standard_subjects,
    total_variation,
    trace_structure,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "default_latency_buckets",
    "power_of_two_buckets",
    "NullSpan",
    "Span",
    "SpanCollector",
    "SpanRecord",
    "NULL_REGISTRY",
    "counter",
    "disable",
    "enable",
    "gauge",
    "get_registry",
    "histogram",
    "observe",
    "set_registry",
    "span",
    "use_registry",
    "sanitize_metric_name",
    "summary_table",
    "to_json",
    "to_prometheus",
    "write_json",
    "AuditFinding",
    "AuditReport",
    "AuditSubject",
    "LeakageAuditor",
    "LeakageError",
    "address_histograms",
    "histogram_divergence",
    "standard_audit",
    "standard_subjects",
    "total_variation",
    "trace_structure",
]
