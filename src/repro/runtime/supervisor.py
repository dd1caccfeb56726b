"""Coordinator for supervised chunk execution over ``concurrent.futures``.

``multiprocessing.Pool.map`` — the original PR-1 dispatch — deadlocks if
a worker is OOM-killed mid-chunk and aborts the whole campaign on any
chunk exception.  :class:`ChunkSupervisor` replaces it with a supervised
dispatch loop, split from the execution backend: the coordinator owns
retry/backoff/timeout *policy*, submits jobs to a
``concurrent.futures.Executor`` (:mod:`repro.runtime.executors`: serial
in-process or a ``ProcessPoolExecutor`` pool) and reads their
``Future`` objects back.

* **executor ownership** — the supervisor drives the executor it is
  given (one per campaign) and never shuts it down; it hands it back
  idle, and runs a single job in-process rather than start a pool for
  it.
* **crash detection** — ``future.result()`` raising
  ``BrokenProcessPool`` means a worker died; the coordinator charges a
  retry to the chunk that died, restarts the pool
  (:meth:`~repro.runtime.executors.PoolExecutor.restart`) and requeues
  the other in-flight chunks unpenalized.
* **hang detection** — each in-flight chunk carries a deadline
  (``chunk_timeout``); an expired deadline charges the chunk and
  cancels just that future, falling back to a pool restart when it
  cannot (a running worker is not individually evictable).
* **bounded retries with exponential backoff** — each chunk gets
  ``RetryPolicy.max_attempts`` tries, separated by
  ``base_delay * growth**n`` (capped at ``max_delay``).  Backoff is
  per-chunk state (:class:`ChunkState`), so one flapping chunk never
  stalls the rest of the queue.
* **adaptive stopping** — ``run(..., should_stop=...)`` consults the
  callback after every completion and drops the remaining queue once
  it fires; the stopping *decision* itself lives in
  :mod:`repro.stats.streaming`, where it is defined on the contiguous
  chunk prefix so it cannot depend on scheduling.
* **fail loud** — a chunk that exhausts its attempts is never routed
  around: the other chunks run to completion (each journaled as it
  lands), then :class:`ChunkFailedError` names the failed chunk and its
  last error.  A deterministic chunk exception is a bug to surface.
* **tasks** — a job may hold a run of consecutive chunks (a task, keyed
  by its first index): chaos aimed at any of them fires in it, its
  deadline is ``chunk_timeout`` per chunk, and a task that fails every
  attempt is named by its chunk range.
* **serial degradation** — a pool that keeps dying
  (``max_pool_restarts`` within one run) is set aside and the rest of
  that run continues on a :class:`~repro.runtime.executors.SerialExecutor`
  through the same retry path, with a :class:`ResilienceWarning` and a
  ``serial_fallbacks`` count in :class:`~repro.perf.PerfCounters`.  The
  next run starts on the given executor again.

Because chunk RNG streams are spawned ``SeedSequence`` children and
aggregation is commutative, retries, re-dispatch and serial degradation
cannot change the estimate: any schedule that completes yields
bit-identical results.
"""

from __future__ import annotations

import concurrent.futures as cf
import math
import time
import warnings
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import metrics as obs_metrics
from ..perf import PerfCounters
from .chaos import ChaosSpec
from .executors import PoolExecutor, SerialExecutor, _supervised_call

#: Metrics-registry name of the per-job completion-latency histogram
#: (coordinator-observed: submit to completion, queueing included).
CHUNK_LATENCY_METRIC = "repro.mc.chunk_seconds"


class ResilienceWarning(UserWarning):
    """Structured warning for degraded execution (serial fallback)."""


#: CLI exit code when a chunk failed every attempt (EX_SOFTWARE).
CHUNK_FAILED_EXIT_CODE = 70


class ChunkFailedError(RuntimeError):
    """A chunk (or a task of chunks) failed all ``max_attempts`` attempts.

    ``index`` is the first chunk of the failed job and ``blocks`` the
    range of chunks it held; the message names the whole range.
    """

    def __init__(
        self,
        index: int,
        attempts: int,
        last_error: str,
        blocks: Optional[range] = None,
    ):
        blocks = range(index, index + 1) if blocks is None else blocks
        what = (
            f"chunk {index}"
            if len(blocks) == 1
            else f"chunks {blocks.start}-{blocks.stop - 1}"
        )
        super().__init__(
            f"{what} failed {attempts} attempt(s); last error: {last_error}"
        )
        self.index = index
        self.blocks = blocks
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/backoff/degradation knobs for the supervisor."""

    max_attempts: int = 3
    base_delay: float = 0.05
    growth: float = 2.0
    max_delay: float = 2.0
    max_pool_restarts: int = 3

    def delay(self, failures: int) -> float:
        """Backoff before retry number ``failures`` (1-based)."""
        if failures <= 0:
            return 0.0
        return min(self.max_delay, self.base_delay * self.growth ** (failures - 1))


@dataclass(frozen=True)
class SupervisorEvent:
    """One recorded resilience event (for summaries and manifests)."""

    kind: str  # retry | timeout | crash | pool_restart | serial_degrade
    #         | chunk_failed | early_stop
    chunk: int
    attempt: int
    detail: str


@dataclass
class ChunkState:
    """Per-job dispatch bookkeeping (one instance per job: a chunk, or a
    task of ``span`` consecutive chunks keyed by its first index):
    its retry and backoff state, inspectable in one place.
    """

    index: int
    args: Any
    #: Consecutive chunk indices the job holds, from ``index`` on.
    span: int = 1
    #: Failed attempts so far; doubles as the attempt number chaos keys on.
    failures: int = 0
    #: Monotonic timestamp before which this chunk must not redispatch.
    not_before: float = 0.0

    @property
    def blocks(self) -> range:
        return range(self.index, self.index + self.span)


@dataclass
class _Dispatch:
    """One live submission to an executor."""

    index: int
    deadline: float
    t_submit: float


class ChunkSupervisor:
    """Supervised dispatch of Monte-Carlo chunks over a
    ``concurrent.futures`` executor with a ``capacity``."""

    #: Longest wait for a completion in the dispatch loop, seconds.
    TICK = 0.2

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
        chaos: Optional[ChaosSpec] = None,
        counters: Optional[PerfCounters] = None,
        executor: Optional[cf.Executor] = None,
    ):
        if chunk_timeout is not None and not 0 < chunk_timeout < math.inf:
            raise ValueError("chunk_timeout must be finite and positive")
        self.retry = retry if retry is not None else RetryPolicy()
        self.chunk_timeout = chunk_timeout
        self.chaos = chaos
        self.counters = counters if counters is not None else PerfCounters()
        #: Driven, never shut down; ``None`` runs every job in-process.
        self.executor = executor
        self.events: List[SupervisorEvent] = []

    # -- event plumbing ----------------------------------------------------

    def _event(self, kind: str, chunk: int, attempt: int, detail: str) -> None:
        self.events.append(SupervisorEvent(kind, chunk, attempt, detail))

    def _warn(self, message: str) -> None:
        warnings.warn(message, ResilienceWarning, stacklevel=2)

    # -- public API --------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Tuple[Union[int, range], Any]],
        primary: Callable[[Any], Any],
        on_complete: Optional[Callable[[int, Any, float], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Dict[int, Any]:
        """Run ``(chunks, args)`` jobs to completion (or early stop).

        ``chunks`` is one chunk index, or a ``range`` of consecutive
        chunk indices that one job (a task) holds; the job is keyed by
        its first index.  Chaos aimed at any of its chunks fires in it,
        and its deadline is ``chunk_timeout`` per chunk.  ``primary``
        runs one job; the supervisor never reads what it returns.
        ``on_complete(index, result, latency_s)`` fires the moment each
        job first finishes (in completion order, once per job) with the
        seconds from its submission, which the
        :data:`CHUNK_LATENCY_METRIC` histogram also records — the journal
        and heartbeat hook.  ``should_stop`` (optional) is consulted after
        every completion; once true, queued work is dropped and the
        results so far are returned.  Returns ``{first index: result}``.

        Raises :class:`ChunkFailedError` for the lowest-numbered job
        that failed every attempt, once all other jobs have finished
        (unless the stopping rule fired first: a stopped estimate never
        reads past its complete prefix).
        """
        if not jobs:
            return {}
        executor = self.executor
        if executor is None or (
            len(jobs) == 1 and isinstance(executor, PoolExecutor)
        ):
            # One job cannot use a second worker, and a pool costs more
            # to start than most jobs take: run it in-process.
            executor = SerialExecutor()
        retry = self.retry
        results: Dict[int, Any] = {}
        states: Dict[int, ChunkState] = {}
        for chunks, args in jobs:
            if not isinstance(chunks, range):
                chunks = range(chunks, chunks + 1)
            states[chunks.start] = ChunkState(
                index=chunks.start, args=args, span=len(chunks)
            )
        # Dispatch order: fresh jobs in the given order, retries behind
        # them once their backoff has passed.
        queue: Deque[int] = deque(states)
        failed: Dict[int, str] = {}  # exhausted chunk -> last error
        dispatches: Dict[cf.Future, _Dispatch] = {}  # live submissions
        pool_restarts = 0
        stopping = False

        def charge_failure(index: int, attempt: int, why: str) -> None:
            """One failed attempt: schedule a retry or give the chunk up."""
            state = states[index]
            state.failures += 1
            self.counters.chunk_failures += 1
            if state.failures < retry.max_attempts:
                self.counters.retries += 1
                self._event("retry", index, attempt, why)
                state.not_before = time.monotonic() + retry.delay(state.failures)
                queue.append(index)
            else:
                self._event("chunk_failed", index, attempt, why)
                failed[index] = why

        def finish(index: int, result: Any, latency_s: float) -> None:
            nonlocal stopping
            results[index] = result
            obs_metrics.get_registry().histogram(CHUNK_LATENCY_METRIC).observe(
                latency_s
            )
            if on_complete is not None:
                on_complete(index, result, latency_s)
            if should_stop is not None and should_stop():
                stopping = True
                self._event(
                    "early_stop", index, states[index].failures,
                    "stopping rule satisfied; abandoning queued chunks",
                )

        def dispatch(state: ChunkState) -> None:
            payload = (primary, state.blocks, state.failures, self.chaos, state.args)
            future = executor.submit(_supervised_call, payload)
            deadline = (
                time.monotonic() + self.chunk_timeout * state.span
                if self.chunk_timeout is not None
                else math.inf
            )
            dispatches[future] = _Dispatch(
                index=state.index, deadline=deadline, t_submit=time.perf_counter()
            )

        try:
            while (queue or dispatches) and not stopping:
                # Dispatch from the front until the executor is full.  A
                # job still backing off keeps its place; the ones behind
                # it go.
                now = time.monotonic()
                waiting: List[int] = []
                while queue and len(dispatches) < executor.capacity:
                    index = queue.popleft()
                    if states[index].not_before <= now:
                        dispatch(states[index])
                    else:
                        waiting.append(index)
                queue.extendleft(reversed(waiting))

                if not dispatches:
                    if queue:
                        # Everything queued is backing off; sleep to the
                        # earliest not-before point.
                        time.sleep(
                            max(
                                0.0,
                                min(states[i].not_before for i in queue)
                                - time.monotonic(),
                            )
                        )
                    continue

                pool_broken = False
                done, _ = cf.wait(
                    dispatches, timeout=self.TICK, return_when=cf.FIRST_COMPLETED
                )
                for future in done:
                    disp = dispatches.pop(future)
                    if stopping:
                        continue  # landed after a stop
                    index = disp.index
                    state = states[index]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        self.counters.worker_crashes += 1
                        self._event("crash", index, state.failures,
                                    "worker process died")
                        pool_broken = True
                        charge_failure(index, state.failures, "worker crash")
                    except Exception as exc:  # noqa: BLE001 - chunk boundary
                        charge_failure(index, state.failures, repr(exc))
                    else:
                        finish(index, result,
                               time.perf_counter() - disp.t_submit)
                if stopping:
                    break

                # Hang detection: charge expired chunks; cancel just the
                # offending future where it has not started, otherwise
                # condemn the whole pool.
                now = time.monotonic()
                for future in [f for f, d in dispatches.items()
                               if now >= d.deadline]:
                    index = dispatches.pop(future).index
                    state = states[index]
                    self.counters.chunk_timeouts += 1
                    self._event(
                        "timeout", index, state.failures,
                        f"chunk exceeded {self.chunk_timeout * state.span:g}s",
                    )
                    charge_failure(index, state.failures, "chunk timeout")
                    if not future.cancel():
                        pool_broken = True

                if pool_broken:
                    # Innocent bystanders go back to the queue unpenalized.
                    executor.restart()
                    for disp in dispatches.values():
                        states[disp.index].not_before = 0.0
                        queue.append(disp.index)
                    dispatches.clear()
                    pool_restarts += 1
                    self.counters.pool_restarts += 1
                    self._event(
                        "pool_restart",
                        -1,
                        pool_restarts,
                        f"restart {pool_restarts}/{retry.max_pool_restarts}",
                    )
                    if pool_restarts >= retry.max_pool_restarts and queue:
                        # The caller's executor stays open (restart left
                        # it idle); only this run finishes in-process.
                        executor = SerialExecutor()
                        self.counters.serial_fallbacks += 1
                        self._event(
                            "serial_degrade",
                            -1,
                            pool_restarts,
                            "pool keeps dying; finishing serially in-process",
                        )
                        self._warn(
                            f"worker pool died {pool_restarts} times; "
                            "degrading the remaining chunks to serial "
                            "in-process execution"
                        )
        finally:
            # Hand the executor back idle: cancel what is still in
            # flight, and restart it if a running task cannot be.
            if not all([future.cancel() for future in dispatches]):
                executor.restart()
        if failed and not stopping:
            index = min(failed)
            raise ChunkFailedError(
                index,
                states[index].failures,
                failed[index],
                states[index].blocks,
            )
        return results
