"""Supervisor behaviour under injected crashes, hangs, and poison.

The resilience contract: any campaign that completes — with retries,
pool restarts, or serial degradation along the way — yields exactly the
result an undisturbed run would have produced.  A chunk that fails
every attempt never yields an estimate: the run raises
:class:`ChunkFailedError` naming it, and the chunks that finished stay
journaled so a rerun resumes.
"""

import concurrent.futures as cf
import math
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    ChunkFailedError,
    ChunkSupervisor,
    ResilienceWarning,
    RetryPolicy,
    RuntimeConfig,
    StoppingRule,
    parse_chaos_spec,
    scan_journal,
)
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def batched(runtime=None, counters=None, workers=1, **kw):
    kw.setdefault("trials", 300)
    kw.setdefault("seed", 17)
    kw.setdefault("chunk_size", 75)
    return simulate_fail_probability_batched(
        "simplex", CODE, 48.0, LAM, 0.0,
        runtime=runtime, counters=counters, workers=workers, **kw
    )


REFERENCE = batched()


def _always_fails(_args):
    raise RuntimeError("boom")


class TestSerialResilience:
    def test_transient_crash_retries_to_identical_result(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("crash@1")
        )
        estimate = batched(runtime=runtime, counters=counters)
        assert estimate == REFERENCE
        assert counters.retries == 1
        assert counters.chunk_failures == 1

    def test_poison_everywhere_names_the_lowest_chunk(self):
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("poison@*")
        )
        with pytest.raises(ChunkFailedError) as info:
            batched(runtime=runtime)
        assert info.value.index == 0
        assert info.value.attempts == FAST_RETRY.max_attempts

    def test_exhausted_chunk_raises_chunk_failed(self):
        supervisor = ChunkSupervisor(retry=FAST_RETRY)
        with pytest.raises(
            ChunkFailedError, match=r"chunk 0 failed 2 attempt\(s\)"
        ) as info:
            supervisor.run([(0, ())], primary=_always_fails)
        assert info.value.last_error == "RuntimeError('boom')"
        kinds = [event.kind for event in supervisor.events]
        assert kinds == ["retry", "chunk_failed"]

    def test_events_are_recorded(self):
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("crash@0")
        )
        batched(runtime=runtime)
        kinds = [event.kind for event in runtime.events]
        assert "retry" in kinds


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=pytest.mark.chaos)]
)
def test_poisoned_chunk_fails_loud_and_resumes(tmp_path, workers):
    """Serial and pool: the poisoned chunk raises, every other chunk is
    journaled, and a rerun without chaos resumes to the reference."""
    path = tmp_path / "p.jsonl"
    runtime = RuntimeConfig(
        retry=FAST_RETRY,
        chaos=parse_chaos_spec("poison@2"),
        journal=CheckpointJournal(path),
    )
    try:
        with pytest.raises(ChunkFailedError) as info:
            batched(runtime=runtime, workers=workers)
    finally:
        runtime.journal.close()
    assert info.value.index == 2
    assert info.value.attempts == FAST_RETRY.max_attempts
    assert "ChaosPoisonError" in info.value.last_error
    journaled = sorted(
        record["chunk"] for _line, record in scan_journal(path).chunk_records
    )
    assert journaled == [0, 1, 3]

    counters = PerfCounters()
    with CheckpointJournal(path) as journal:
        estimate = batched(
            runtime=RuntimeConfig(journal=journal),
            counters=counters,
            workers=workers,
        )
    assert estimate == REFERENCE
    assert counters.chunks_resumed == 3


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=pytest.mark.chaos)]
)
def test_failed_chunk_past_the_stop_point_is_never_read(workers):
    """Adaptive stopping settles on chunks 0-1; poisoned chunks 2-3 lie
    past that prefix, so whether the pool got round to failing them
    cannot change the outcome: the stopped estimate, never an error."""
    stop = StoppingRule(rel_ci=1.0, min_trials=100)
    expected = batched(runtime=RuntimeConfig(stop=stop))
    assert expected.stopped_early and expected.trials == 150
    runtime = RuntimeConfig(
        retry=FAST_RETRY, chaos=parse_chaos_spec("poison@2,3"), stop=stop
    )
    assert batched(runtime=runtime, workers=workers) == expected


@pytest.mark.chaos
class TestPooledResilience:
    def test_worker_crash_is_retried_to_identical_result(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            chaos=parse_chaos_spec("crash@1"),
        )
        estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert estimate == REFERENCE
        assert counters.worker_crashes >= 1
        assert counters.pool_restarts >= 1
        assert counters.retries >= 1

    def test_hung_worker_is_timed_out_and_retried(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            chunk_timeout=2.0,
            chaos=parse_chaos_spec("hang@2:60"),
        )
        estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert estimate == REFERENCE
        assert counters.chunk_timeouts == 1
        assert counters.pool_restarts >= 1

    def test_dying_pool_degrades_to_serial_with_identical_result(self):
        """Every chunk crashes its first two attempts: each of the two
        pool rounds dies, then the serial executor's retries (attempts
        2-3, in-process ChaosCrashError before that) outlive the crash
        budget and the run returns exactly the undisturbed estimate."""
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.01, max_pool_restarts=2
            ),
            chaos=parse_chaos_spec("crash@*:2"),
        )
        with pytest.warns(ResilienceWarning, match="serial"):
            estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert estimate == REFERENCE
        assert counters.serial_fallbacks == 1
        assert counters.pool_restarts == 2
        assert any(e.kind == "serial_degrade" for e in runtime.events)


def test_dispatch_reads_not_before_linearly(monkeypatch):
    """20,000 no-op jobs through the serial executor: each dispatch
    looks at the front of the queue only, so the number of
    ``not_before`` reads grows linearly with the number of jobs (a scan
    of the whole queue per dispatch made it quadratic)."""
    from repro.runtime import supervisor as supervisor_module
    from repro.runtime.supervisor import ChunkState

    reads = []

    class CountingState(ChunkState):
        def __getattribute__(self, name):
            if name == "not_before":
                reads.append(1)
            return super().__getattribute__(name)

    monkeypatch.setattr(supervisor_module, "ChunkState", CountingState)
    jobs = [(i, None) for i in range(20_000)]
    done = ChunkSupervisor().run(jobs, primary=lambda _args: {"trials": 1})
    assert len(done) == len(jobs)
    assert len(reads) <= 2 * len(jobs)


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
def test_chunk_timeout_must_be_finite_and_positive(timeout):
    """A NaN deadline compares false with every clock reading, so it
    would switch hang detection off without a word; inf does so openly."""
    with pytest.raises(ValueError, match="finite and positive"):
        ChunkSupervisor(chunk_timeout=timeout)


class _BreaksOnce(cf.Executor):
    """Two slots: the first submission comes back broken (its worker
    died) once the second is in flight; every later one succeeds."""

    capacity = 2

    def __init__(self):
        self.submitted = []  # (first chunk, attempt) per submission
        self.restarts = 0

    def submit(self, fn, payload):
        _primary, blocks, attempt, _chaos, _args = payload
        self.submitted.append((blocks.start, attempt))
        future = cf.Future()
        if len(self.submitted) == 1:
            self._first = future
        elif len(self.submitted) == 2:
            self._first.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result({"trials": 1})
        return future

    def restart(self):
        self.restarts += 1


def test_broken_pool_requeues_the_bystander_unpenalized():
    """A dead worker charges the job it ran; the pool restarts and the
    job still in flight goes back to the queue on the same attempt."""
    executor = _BreaksOnce()
    counters = PerfCounters()
    supervisor = ChunkSupervisor(
        retry=FAST_RETRY, counters=counters, executor=executor
    )
    done = supervisor.run([(0, None), (1, None)], primary=lambda _args: None)
    assert sorted(done) == [0, 1]
    assert executor.restarts == 1
    assert executor.submitted[:2] == [(0, 0), (1, 0)]
    assert sorted(executor.submitted[2:]) == [(0, 1), (1, 0)]
    assert [(e.kind, e.chunk) for e in supervisor.events] == [
        ("crash", 0), ("retry", 0), ("pool_restart", -1)
    ]
    assert (counters.worker_crashes, counters.retries) == (1, 1)
