"""Streaming BER aggregation and worker-count-invariant early stopping.

Chunk results arrive in *completion* order, which depends on scheduling,
worker count, and executor choice — everything the determinism contract
says must not matter.  Two consumers turn that unordered stream into
well-defined outputs:

* :class:`StreamingEstimator` folds every completion into a running
  (failures, trials) aggregate and emits a :class:`BerSnapshot` per
  chunk — the incremental BER±CI feed for the obs layer and the CLI's
  live progress line.  Aggregation is a commutative sum, so the final
  snapshot equals the one-shot batch estimate exactly (verify target
  ``mc-streaming-vs-final`` holds this to machine identity).
* :class:`AdaptiveStopper` implements ``--stop-rel-ci``: stop once the
  interval is tight enough relative to the estimate.  Naively testing
  the rule on the completion stream would make the stopping point (and
  hence the estimate) depend on scheduling.  Instead the decision is
  evaluated only on the *contiguous chunk-index prefix*: the stopper
  buffers out-of-order completions and advances a frontier through
  chunks 0, 1, 2, ... in index order, testing the rule after each.  The
  stop index is therefore the smallest ``j`` such that the cumulative
  prefix 0..j satisfies the rule — a pure function of the chunk results
  themselves, identical for any worker count, executor, or schedule.
  The final estimate aggregates exactly chunks 0..j, discarding any
  opportunistically completed later chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .intervals import (
    INTERVAL_METHODS,
    binomial_interval,
    relative_halfwidth,
)

__all__ = ["BerSnapshot", "StreamingEstimator", "StoppingRule", "AdaptiveStopper"]


@dataclass(frozen=True)
class BerSnapshot:
    """One incremental BER±CI observation (after some chunk landed)."""

    chunks: int
    trials: int
    failures: int
    probability: float
    ci_low: float
    ci_high: float
    #: CI halfwidth / point estimate; ``inf`` while failures == 0.
    rel_halfwidth: float
    method: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for trace events and manifests."""
        rel = self.rel_halfwidth
        return {
            "chunks": self.chunks,
            "trials": self.trials,
            "failures": self.failures,
            "probability": self.probability,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "rel_halfwidth": None if math.isinf(rel) else rel,
            "method": self.method,
        }


class StreamingEstimator:
    """Commutative incremental aggregate of chunk (failures, trials).

    Duplicate chunk indices are dropped (first result wins), so a
    caller that offers a chunk twice — a journal replay and a fresh
    result for the same index — cannot double count it.
    """

    def __init__(self, method: str = "wilson", confidence: float = 0.95):
        if method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {method!r}: "
                f"expected one of {INTERVAL_METHODS}"
            )
        self.method = method
        self.confidence = confidence
        self.failures = 0
        self.trials = 0
        self.chunks = 0
        self._seen: Set[int] = set()

    def offer(
        self, index: int, failures: int, trials: int
    ) -> Optional[BerSnapshot]:
        """Fold chunk ``index`` in; ``None`` if it was a duplicate.

        Inputs are validated before any state changes: a malformed
        caller or a corrupt chunk record must raise here, not
        propagate ``failures > trials`` into ``binomial_interval`` and
        come back as a nonsense interval.
        """
        failures = int(failures)
        trials = int(trials)
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        if failures > trials:
            raise ValueError(
                f"failures ({failures}) cannot exceed trials ({trials})"
            )
        if index in self._seen:
            return None
        self._seen.add(index)
        self.failures += failures
        self.trials += trials
        self.chunks += 1
        return self.snapshot()

    def snapshot(self) -> BerSnapshot:
        """The current aggregate as a :class:`BerSnapshot`.

        With zero trials the interval is degenerate (``[0, 1]``, infinite
        relative width) but the counters are still the estimator's own:
        zero-trial chunks folded in via :meth:`offer` keep counting, so
        ``chunks``/``failures`` never silently disagree with the
        instance's state.
        """
        if self.trials <= 0:
            return BerSnapshot(
                chunks=self.chunks, trials=self.trials,
                failures=self.failures, probability=0.0,
                ci_low=0.0, ci_high=1.0, rel_halfwidth=math.inf,
                method=self.method,
            )
        low, high = binomial_interval(
            self.failures, self.trials, self.method, self.confidence
        )
        return BerSnapshot(
            chunks=self.chunks,
            trials=self.trials,
            failures=self.failures,
            probability=self.failures / self.trials,
            ci_low=low,
            ci_high=high,
            rel_halfwidth=relative_halfwidth(
                self.failures, self.trials, low, high
            ),
            method=self.method,
        )


@dataclass(frozen=True)
class StoppingRule:
    """``--stop-rel-ci`` semantics: stop when the CI is relatively tight.

    ``rel_ci`` is the target relative halfwidth ((hi-lo)/2 divided by
    the point estimate); ``min_trials`` is a floor the cumulative prefix
    must reach before the rule may fire, protecting against spuriously
    tight intervals off a lucky early prefix (and making all-zero first
    chunks explicitly unable to stop the run, since the relative width
    is infinite at k = 0 regardless).
    """

    rel_ci: float
    min_trials: int = 0
    method: str = "wilson"
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not self.rel_ci > 0.0:
            raise ValueError(f"rel_ci must be positive, got {self.rel_ci}")
        if self.min_trials < 0:
            raise ValueError(
                f"min_trials must be >= 0, got {self.min_trials}"
            )
        if self.method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r}: "
                f"expected one of {INTERVAL_METHODS}"
            )

    def satisfied(self, failures: int, trials: int) -> bool:
        """True when (failures, trials) meets the rule and the floor."""
        if trials <= 0 or trials < self.min_trials:
            return False
        if failures <= 0:
            return False  # relative width is infinite at p_hat = 0
        low, high = binomial_interval(
            failures, trials, self.method, self.confidence
        )
        return relative_halfwidth(failures, trials, low, high) <= self.rel_ci


@dataclass
class AdaptiveStopper:
    """Contiguous-prefix early-stop decision over unordered completions.

    Feed every completed chunk (journal replays included) through
    :meth:`offer`; the stopper advances its frontier through chunk
    indices in order and records the smallest prefix end ``stop_index``
    whose cumulative counts satisfy the rule.  Completions arriving
    after the decision (or beyond the frontier once stopped) are
    ignored, so the decision — and anything derived from it — is
    invariant to scheduling.
    """

    rule: StoppingRule
    stop_index: Optional[int] = None
    prefix_failures: int = 0
    prefix_trials: int = 0
    _frontier: int = 0
    _pending: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def offer(self, index: int, failures: int, trials: int) -> None:
        """Record chunk ``index``; duplicates and post-stop chunks drop."""
        if self.stop_index is not None:
            return
        if index < self._frontier or index in self._pending:
            return  # duplicate — first result wins
        self._pending[index] = (int(failures), int(trials))
        while self._frontier in self._pending:
            chunk_failures, chunk_trials = self._pending.pop(self._frontier)
            self.prefix_failures += chunk_failures
            self.prefix_trials += chunk_trials
            decided_index = self._frontier
            self._frontier += 1
            if self.rule.satisfied(self.prefix_failures, self.prefix_trials):
                self.stop_index = decided_index
                self._pending.clear()
                return

    @property
    def should_stop(self) -> bool:
        return self.stop_index is not None
