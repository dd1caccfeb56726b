"""Executor parity, straggler re-dispatch, and board discipline.

The pluggable-executor contract: serial, pool, and fleet backends move
*scheduling only*.  For the same seed they must produce bit-identical
estimates, bit-identical per-chunk journal records (timing fields
aside), and identical deterministic work counters.  Straggler
speculation may issue duplicate chunk copies, but first-result-wins
dedup keeps every derived number — including the chunk-latency
histogram — exactly what a speculation-free run would report.
"""

from pathlib import Path

import pytest

from repro.obs import metrics as obs_metrics
from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    JournalLock,
    JournalLockedError,
    RuntimeConfig,
    StragglerPolicy,
    make_executor,
    parse_chaos_spec,
    scan_journal,
)
from repro.runtime.supervisor import CHUNK_LATENCY_METRIC
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

#: Result-dict fields that must be identical across executors; the
#: "counters" entry carries cpu_seconds and is compared separately with
#: its timing fields masked.
_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}


def run(executor=None, workers=1, journal=None, chaos=None, straggler=None,
        trials=300, seed=17):
    runtime = RuntimeConfig(
        executor=executor, journal=journal, chaos=chaos, straggler=straggler
    )
    return simulate_fail_probability_batched(
        "simplex",
        CODE,
        48.0,
        LAM,
        0.0,
        trials,
        seed=seed,
        chunk_size=50,
        workers=workers,
        runtime=runtime,
    )


def _chunk_fields(journal_path):
    """Deterministic per-chunk fields from a journal, keyed by index."""
    out = {}
    for _line, record in scan_journal(journal_path).chunk_records:
        result = record["result"]
        counters = {
            k: v
            for k, v in result["counters"].items()
            if k not in _TIMING_FIELDS
        }
        out[record["chunk"]] = (
            result["failures"],
            result["trials"],
            dict(result["counts"]),
            counters,
            record["seed"],
        )
    return out


# --------------------------------------------------------------------------
# three-way parity
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_serial_pool_fleet_journals_bit_identical(tmp_path):
    estimates, journals = {}, {}
    for name, workers in (("serial", 1), ("pool", 2), ("fleet", 2)):
        path = tmp_path / f"{name}.jsonl"
        with CheckpointJournal(path) as journal:
            estimates[name] = run(
                executor=name, workers=workers, journal=journal
            )
        journals[name] = _chunk_fields(path)
    ref = estimates["serial"]
    for name in ("pool", "fleet"):
        est = estimates[name]
        assert (est.failures, est.trials, est.probability) == (
            ref.failures,
            ref.trials,
            ref.probability,
        ), name
        assert est.outcome_counts == ref.outcome_counts, name
        assert (est.ci_low, est.ci_high) == (ref.ci_low, ref.ci_high), name
    assert journals["serial"] == journals["pool"] == journals["fleet"]
    assert len(journals["serial"]) == 6  # 300 trials / 50


@pytest.mark.chaos
def test_parity_holds_with_adaptive_stopping(tmp_path):
    from repro.runtime import StoppingRule

    stop = StoppingRule(rel_ci=1.0, min_trials=100)
    results = []
    for name, workers in (("serial", 1), ("pool", 2), ("fleet", 4)):
        runtime = RuntimeConfig(executor=name, stop=stop)
        results.append(
            simulate_fail_probability_batched(
                "simplex", CODE, 48.0, LAM, 0.0, 600,
                seed=17, chunk_size=50, workers=workers, runtime=runtime,
            )
        )
    first = results[0]
    assert first.stopped_early
    for other in results[1:]:
        assert (other.failures, other.trials, other.probability) == (
            first.failures,
            first.trials,
            first.probability,
        )


def test_merged_counters_deterministic_across_executors():
    fields = []
    for name, workers in (("serial", 1), ("pool", 2)):
        counters = PerfCounters()
        runtime = RuntimeConfig(executor=name)
        simulate_fail_probability_batched(
            "simplex", CODE, 48.0, LAM, 0.0, 300,
            seed=17, chunk_size=50, workers=workers,
            counters=counters, runtime=runtime,
        )
        snap = counters.as_dict()
        fields.append(
            {k: v for k, v in snap.items() if k not in _TIMING_FIELDS}
        )
    assert fields[0] == fields[1]
    assert fields[0]["trials"] == 300
    assert fields[0]["chunks"] == 6


# --------------------------------------------------------------------------
# straggler re-dispatch
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_straggler_redispatched_without_double_counting():
    """``slow@1`` makes chunk 1 a straggler: a speculative copy must be
    issued, the estimate must not change, and the chunk-latency
    histogram must count each chunk exactly once (re-dispatch used to
    double-observe the winning chunk's latency)."""
    reference = run()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    try:
        counters = PerfCounters()
        runtime = RuntimeConfig(
            executor="pool",
            chaos=parse_chaos_spec("slow@1:1.0"),
            straggler=StragglerPolicy(
                factor=1.0, min_seconds=0.25, min_samples=2, max_copies=2
            ),
        )
        estimate = simulate_fail_probability_batched(
            "simplex", CODE, 48.0, LAM, 0.0, 300,
            seed=17, chunk_size=50, workers=2,
            counters=counters, runtime=runtime,
        )
        histogram = (
            obs_metrics.get_registry()
            .histogram(CHUNK_LATENCY_METRIC)
            .snapshot()
        )
    finally:
        obs_metrics.set_registry(previous)
    assert counters.stragglers_redispatched >= 1
    assert (estimate.failures, estimate.trials, estimate.probability) == (
        reference.failures,
        reference.trials,
        reference.probability,
    )
    assert estimate.outcome_counts == reference.outcome_counts
    # one latency observation per chunk, no matter how many copies ran
    assert histogram["count"] == 6
    # dedup bookkeeping is consistent: every duplicate that landed was
    # counted, never folded into the estimate
    assert counters.trials == 300


def test_straggler_policy_threshold():
    policy = StragglerPolicy(
        factor=2.0, min_seconds=0.5, min_samples=3, max_copies=2
    )
    assert policy.threshold([0.1]) is None  # too few samples
    assert policy.threshold([0.1, 0.1, 0.1]) == 0.5  # floor dominates
    assert policy.threshold([1.0, 2.0, 3.0]) == 6.0  # 2 x p95


# --------------------------------------------------------------------------
# board single-coordinator discipline
# --------------------------------------------------------------------------


def test_contended_board_surfaces_lock_error(tmp_path):
    """The campaign path raises JournalLockedError when the fleet board
    is held — the exact exception ``repro campaign`` maps to exit 75."""
    journal_path = tmp_path / "ckpt.jsonl"
    board = Path(str(journal_path) + ".board")
    board.mkdir()
    holder = JournalLock(board / "board")
    holder.acquire()
    try:
        with CheckpointJournal(journal_path) as journal:
            with pytest.raises(JournalLockedError):
                run(executor="fleet", workers=2, journal=journal)
    finally:
        holder.release()


@pytest.mark.parametrize("name", ["threads", "lease"])
def test_make_executor_rejects_unknown_name(name):
    with pytest.raises(ValueError, match="unknown executor") as info:
        make_executor(name)
    assert "('serial', 'pool', 'fleet')" in str(info.value)
