"""repro.obs — zero-dependency observability (tracing, metrics, progress).

The solver/simulator/runtime layers are instrumented with three
complementary primitives, all in-process and dependency-free:

* :mod:`repro.obs.trace` — nestable spans (``with trace.span(...)``) and
  instantaneous events, recorded to an installable
  :class:`~repro.obs.trace.TraceCollector` with JSONL export
  (``repro campaign --trace PATH``).  The CTMC solvers attach their
  truncation decisions (terms used, ``L·t``, tail bound at exit,
  fallback taken, expm cache hits) as span attributes, so differential
  tests can assert on *why* two solvers agree.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms with fixed log-spaced buckets (chunk latency).  It absorbs
  the quantitative telemetry of :class:`repro.perf.PerfCounters`, which
  stays as the thin picklable carrier worker processes return.
* :mod:`repro.obs.progress` — per-chunk heartbeats with a
  rolling-throughput ETA, emitted through the chunk supervisor, rendered
  by ``repro campaign --progress``, and appended to run manifests.

Everything here degrades to near-zero cost when not enabled: no
collector installed means spans/events retain nothing, and the default
metrics registry is just a dict of lightweight objects.
"""

from __future__ import annotations

from . import metrics, trace
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_buckets,
    set_registry,
)
from .progress import ProgressEvent, ProgressTracker, format_progress
from .trace import (
    Span,
    TraceCollector,
    current_collector,
    current_span,
    event,
    install_collector,
    span,
    use_collector,
)

__all__ = [
    "trace",
    "metrics",
    "Span",
    "TraceCollector",
    "current_collector",
    "current_span",
    "event",
    "install_collector",
    "span",
    "use_collector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "log_spaced_buckets",
    "get_registry",
    "set_registry",
    "ProgressEvent",
    "ProgressTracker",
    "format_progress",
]
