"""Lightweight performance instrumentation for the batch execution layer.

The batch codec and the chunked Monte-Carlo engine are performance
features, so they carry their own meters: :class:`PerfCounters` counts
the work actually done (words encoded/decoded, how many words took the
vectorized clean fast path vs. the errors-and-erasures decoder, trials
completed) and :class:`Stopwatch` accumulates time so throughput
(trials/sec, words/sec) can be reported by benchmarks and the CLI
without any external profiler.

Time is accounted on two separate axes, because they mean different
things under multiprocessing:

* ``cpu_seconds`` — busy time measured *inside* each chunk executor,
  wherever it ran.  Additive: merging per-worker counters sums it, and
  with ``workers=N`` it can legitimately exceed wall clock N-fold.
* ``elapsed_seconds`` — true wall-clock time, measured once by the
  coordinator's :class:`Stopwatch`.  **Not** additive: :meth:`PerfCounters.merge`
  deliberately leaves it alone, because summing per-worker elapsed time
  reports N× the true wall time and understates ``trials_per_second``
  by the worker count (the original single-field accounting bug).

All other counters are plain additive state: merging the per-chunk
counters returned by worker processes reproduces exactly the counters a
single-process run would have produced, which keeps the ``workers=N``
path observable without breaking its determinism contract.

:class:`PerfCounters` is intentionally a plain picklable dataclass — the
carrier worker processes return — while :mod:`repro.obs.metrics` is the
richer registry (gauges, histograms).  :meth:`PerfCounters.publish`
bridges the two by mirroring every field into a registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .obs.metrics import MetricsRegistry


@dataclass
class PerfCounters:
    """Additive work counters for the batch codec and MC engine.

    Attributes
    ----------
    words_encoded: codewords produced by ``encode_batch``.  The
        Monte-Carlo engine encodes only the trials that have a fault
        event; the others read back correct without a codeword.
    words_decoded: words submitted to ``decode_batch``.  In the
        Monte-Carlo engine these are the reads of the scrubs it runs
        and the final read of every trial with a fault event (two words
        per duplex read); the three counters below split the same words.
    clean_fast_path: decoded words that took the all-zero-syndrome
        vectorized early-out.
    dirty_words_decoded: words with a nonzero syndrome or more
        erasures than ``n - k``, which go through the vectorized
        errors-and-erasures decoder.
    decode_failures: decoded words reported uncorrectable.
    trials: Monte-Carlo trials completed.
    chunks: Monte-Carlo chunks processed.
    elapsed_seconds: true wall-clock time, measured by the
        *coordinator's* :class:`Stopwatch`.  Excluded from :meth:`merge`
        (wall time is not additive across workers).
    cpu_seconds: busy time accumulated *inside* chunk executors;
        additive across workers and can exceed ``elapsed_seconds``
        under multiprocessing.
    kernel_seconds: busy time spent inside the batch engine's parity
        and syndrome kernels (a subset of ``cpu_seconds``).  Additive.

    Resilience counters (filled by :mod:`repro.runtime`):

    retries: chunk attempts re-dispatched after a failure.
    chunk_failures: individual chunk attempt failures observed.
    chunk_timeouts: chunks that exceeded the per-chunk deadline.
    worker_crashes: worker-process deaths detected via a broken pool.
    pool_restarts: times the worker pool was torn down and rebuilt.
    serial_fallbacks: times pooled execution degraded to serial.
    chunks_resumed: chunks replayed from a checkpoint journal.
    io_errors: journal appends lost to write failures (ENOSPC, I/O
        errors) — the campaign degraded to memory-only state.
    records_quarantined: corrupt journal records moved to the
        ``.quarantine`` sidecar on load (their chunks were recomputed).
    """

    words_encoded: int = 0
    words_decoded: int = 0
    clean_fast_path: int = 0
    dirty_words_decoded: int = 0
    decode_failures: int = 0
    trials: int = 0
    chunks: int = 0
    elapsed_seconds: float = 0.0
    cpu_seconds: float = 0.0
    kernel_seconds: float = 0.0
    retries: int = 0
    chunk_failures: int = 0
    chunk_timeouts: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    serial_fallbacks: int = 0
    chunks_resumed: int = 0
    io_errors: int = 0
    records_quarantined: int = 0

    #: Fields :meth:`merge` must NOT sum: wall clock is measured once by
    #: the coordinator, not accumulated across workers.
    NON_ADDITIVE = frozenset({"elapsed_seconds"})

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Add another counter set into this one (returns self).

        Every field is summed except ``elapsed_seconds``: per-chunk /
        per-worker wall times overlap under multiprocessing, so summing
        them would report N× the true duration.  The coordinator owns
        ``elapsed_seconds`` via its own :class:`Stopwatch`.
        """
        for name in _ADDITIVE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (picklable, for worker processes)."""
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "PerfCounters":
        # Unknown keys are dropped; missing fields default to zero.
        return cls(**{k: v for k, v in d.items() if k in _FIELD_SET})

    def publish(
        self, registry: "MetricsRegistry", prefix: str = "repro.perf."
    ) -> None:
        """Mirror every field into an :mod:`repro.obs.metrics` registry.

        Monotonic work counts become gauges too (a snapshot, not a
        stream): the registry reflects this counter set's current state.
        """
        for name in _FIELDS:
            registry.gauge(prefix + name).set(getattr(self, name))

    # -- derived metrics ---------------------------------------------------

    @property
    def dirty_rate(self) -> float:
        """Fraction of decoded words that were dirty."""
        if self.words_decoded <= 0:
            return 0.0
        return self.dirty_words_decoded / self.words_decoded

    @property
    def trials_per_second(self) -> float:
        """Trials per true wall-clock second (coordinator-measured)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.trials / self.elapsed_seconds

    @property
    def words_per_second(self) -> float:
        """Decoded words per true wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.words_decoded / self.elapsed_seconds

    @property
    def parallel_speedup(self) -> float:
        """``cpu_seconds / elapsed_seconds`` — effective busy workers."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.cpu_seconds / self.elapsed_seconds

    def summary(self) -> str:
        """Human-readable one-block summary for benchmarks and the CLI."""
        lines = [
            f"trials             : {self.trials}",
            f"chunks             : {self.chunks}",
            f"words encoded      : {self.words_encoded}",
            f"words decoded      : {self.words_decoded}",
            f"clean fast path    : {self.clean_fast_path}",
            f"dirty words decoded: {self.dirty_words_decoded} "
            f"({100.0 * self.dirty_rate:.1f}%)",
            f"decode failures    : {self.decode_failures}",
            f"elapsed (wall)     : {self.elapsed_seconds:.3f} s",
            f"cpu (all workers)  : {self.cpu_seconds:.3f} s",
        ]
        if self.kernel_seconds > 0:
            lines.append(
                f"kernel (GF/RS)     : {self.kernel_seconds:.3f} s"
            )
        if self.elapsed_seconds > 0 and self.cpu_seconds > 0:
            lines.append(f"parallel speedup   : {self.parallel_speedup:.2f}x")
        if self.trials and self.elapsed_seconds > 0:
            lines.append(f"trials/sec (wall)  : {self.trials_per_second:,.0f}")
        if self.words_decoded and self.elapsed_seconds > 0:
            lines.append(f"decoded words/sec  : {self.words_per_second:,.0f}")
        resilience = self.resilience_summary()
        if resilience:
            lines.append(resilience)
        return "\n".join(lines)

    # -- resilience reporting ---------------------------------------------

    @property
    def had_faults(self) -> bool:
        """True if the run saw any retries, faults, fallbacks, or resume."""
        return bool(
            self.retries
            or self.chunk_failures
            or self.chunk_timeouts
            or self.worker_crashes
            or self.pool_restarts
            or self.serial_fallbacks
            or self.chunks_resumed
            or self.io_errors
            or self.records_quarantined
        )

    def resilience_summary(self) -> str:
        """Non-empty only when something went wrong (or was resumed)."""
        if not self.had_faults:
            return ""
        lines = []
        pairs = [
            ("retries", self.retries),
            ("chunk failures", self.chunk_failures),
            ("chunk timeouts", self.chunk_timeouts),
            ("worker crashes", self.worker_crashes),
            ("pool restarts", self.pool_restarts),
            ("serial fallbacks", self.serial_fallbacks),
            ("chunks resumed", self.chunks_resumed),
            ("journal io errors", self.io_errors),
            ("quarantined records", self.records_quarantined),
        ]
        for name, value in pairs:
            if value:
                lines.append(f"{name:<19}: {value}")
        return "\n".join(lines)


#: Field names of :class:`PerfCounters`, in declaration order, and the
#: ones :meth:`PerfCounters.merge` sums.
_FIELDS = tuple(f.name for f in fields(PerfCounters))
_FIELD_SET = frozenset(_FIELDS)
_ADDITIVE_FIELDS = tuple(
    name for name in _FIELDS if name not in PerfCounters.NON_ADDITIVE
)


class Stopwatch:
    """Context manager accumulating elapsed time into a counter field.

    ``attr`` selects the destination: the coordinator times true wall
    clock into ``elapsed_seconds`` (the default), while chunk executors
    time their own busy interval into the additive ``cpu_seconds``.

    >>> counters = PerfCounters()
    >>> with Stopwatch(counters):
    ...     pass
    >>> counters.elapsed_seconds >= 0.0
    True
    """

    def __init__(
        self,
        counters: Optional[PerfCounters] = None,
        attr: str = "elapsed_seconds",
    ):
        if attr not in _FIELD_SET:
            raise ValueError(f"unknown PerfCounters field {attr!r}")
        self.counters = counters
        self.attr = attr
        self.elapsed = 0.0
        self._t0: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 is None:
            # A bare assert here would vanish under ``python -O`` and
            # resurface as a baffling TypeError on ``perf_counter() - None``.
            raise RuntimeError(
                "Stopwatch.__exit__ called without __enter__ — use it as "
                "a context manager ('with Stopwatch(...)') or call "
                "__enter__ first"
            )
        self.elapsed = time.perf_counter() - self._t0
        self._t0 = None
        if self.counters is not None:
            setattr(
                self.counters,
                self.attr,
                getattr(self.counters, self.attr) + self.elapsed,
            )


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return ``(result, elapsed_seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def merge_counter_dicts(dicts: Iterable[Dict[str, float]]) -> PerfCounters:
    """Fold picklable chunk-counter dicts into one :class:`PerfCounters`.

    The sums of :meth:`PerfCounters.merge` over each dict's
    :meth:`PerfCounters.from_dict`, in the same order, taken on the dicts
    themselves: unknown keys are dropped, a missing field adds zero, and
    ``elapsed_seconds`` is not summed.
    """
    zero = PerfCounters()
    totals = {name: getattr(zero, name) for name in _ADDITIVE_FIELDS}
    for d in dicts:
        for name in _ADDITIVE_FIELDS:
            totals[name] += d.get(name, 0)
    return PerfCounters(**totals)
