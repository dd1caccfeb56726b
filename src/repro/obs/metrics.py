"""Zero-dependency metrics: counters and log-bucketed histograms.

The registry keeps the run telemetry that has no other record: the
solver's work counters (``repro.solver.*``), the verify harness's
(``repro.verify.*``) and the coordinator's per-task completion latency
(``repro.mc.chunk_seconds``), a distribution that plain additive
counters cannot express.  Counts that merge across worker processes
live in :class:`repro.perf.PerfCounters`, per-cell outcomes in the
campaign rows, and events in the trace; none is mirrored here.  The
registry is in-process and thread-safe; snapshots are plain dicts
suitable for run manifests and the JSONL trace export.

Histogram buckets are *fixed log-spaced boundaries* chosen at creation
(default: 100 µs to 1000 s, four buckets per decade), so observations
from different chunks, cells, or runs land in comparable buckets and
merged snapshots stay meaningful.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Optional, Sequence


def log_spaced_buckets(
    lo: float, hi: float, per_decade: int = 4
) -> List[float]:
    """Fixed log-spaced bucket upper bounds covering ``[lo, hi]``.

    Returns ``per_decade`` boundaries per decade, inclusive of both
    endpoints' decades; observations above the last bound land in the
    implicit overflow bucket.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log-spaced buckets")
    lo_exp = math.floor(math.log10(lo) * per_decade)
    hi_exp = math.ceil(math.log10(hi) * per_decade)
    return [10.0 ** (e / per_decade) for e in range(int(lo_exp), int(hi_exp) + 1)]


#: Default latency buckets: 100 µs .. 1000 s, 4 buckets per decade.
DEFAULT_LATENCY_BUCKETS = log_spaced_buckets(1e-4, 1e3)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Histogram:
    """Fixed-boundary histogram with cumulative summary statistics.

    ``bounds`` are upper bucket boundaries (ascending); an observation
    ``v`` lands in the first bucket with ``v <= bound``, or the overflow
    bucket past the last bound.  Tracks count/sum/min/max alongside the
    bucket counts so snapshots carry both the distribution shape and the
    exact mean.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        chosen = DEFAULT_LATENCY_BUCKETS if bounds is None else list(bounds)
        if sorted(chosen) != chosen:
            raise ValueError("histogram bounds must be ascending")
        self.bounds = list(chosen)
        self._counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "bounds": list(self.bounds),
            "bucket_counts": list(self._counts),
        }


class MetricsRegistry:
    """Name-indexed counters and histograms with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, *args)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        if bounds is None:
            return self._get_or_create(name, Histogram)
        return self._get_or_create(name, Histogram, bounds)

    def get(self, name: str):
        """The registered metric named ``name``, or ``None``."""
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict snapshot of every metric (JSON-serializable)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.snapshot() for name, metric in sorted(metrics.items())}

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


#: Process-wide default registry (solver/runtime instrumentation target).
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one)."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
