"""Executor parity and board discipline.

The pluggable-executor contract: serial, pool, and fleet backends move
*scheduling only*.  For the same seed they must produce bit-identical
estimates, bit-identical per-chunk journal records (timing fields
aside), and identical deterministic work counters.
"""

from pathlib import Path

import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    JournalLock,
    JournalLockedError,
    RuntimeConfig,
    make_executor,
    scan_journal,
)
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

#: Result-dict fields that must be identical across executors; the
#: "counters" entry carries cpu_seconds and is compared separately with
#: its timing fields masked.
_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}


def run(executor="auto", workers=1, journal=None, chaos=None, trials=300,
        seed=17, counters=None):
    """One cell on the named executor, built for it and closed after."""
    with make_executor(executor, workers=workers) as built:
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
            counters=counters,
            runtime=RuntimeConfig(executor=built, journal=journal, chaos=chaos),
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
        with make_executor(name, workers=workers) as executor:
            runtime = RuntimeConfig(executor=executor, stop=stop)
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
        run(name, workers=workers, counters=counters)
        snap = counters.as_dict()
        fields.append(
            {k: v for k, v in snap.items() if k not in _TIMING_FIELDS}
        )
    assert fields[0] == fields[1]
    assert fields[0]["trials"] == 300
    assert fields[0]["chunks"] == 6


# --------------------------------------------------------------------------
# board single-coordinator discipline
# --------------------------------------------------------------------------


def test_contended_board_surfaces_lock_error(tmp_path):
    """Building a fleet executor on a held board raises
    JournalLockedError — the exact exception ``repro campaign`` maps to
    exit 75."""
    board = tmp_path / "ckpt.jsonl.board"
    board.mkdir()
    holder = JournalLock(board / "board")
    holder.acquire()
    try:
        with pytest.raises(JournalLockedError):
            make_executor("fleet", workers=2, board_dir=board)
    finally:
        holder.release()


def test_campaign_on_a_held_board_exits_75(tmp_path, capsys):
    """``repro campaign --executor fleet --checkpoint J`` derives the
    board ``J.board``; while another coordinator holds it the campaign
    exits 75 with one line, before any journal header is written."""
    from repro.cli import main

    journal_path = tmp_path / "ckpt.jsonl"
    board = Path(str(journal_path) + ".board")
    board.mkdir()
    holder = JournalLock(board / "board")
    holder.acquire()
    try:
        code = main(
            ["campaign", "--trials", "40", "--chunk-size", "20",
             "--executor", "fleet", "--workers", "2",
             "--checkpoint", str(journal_path)]
        )
    finally:
        holder.release()
    out, err = capsys.readouterr()
    assert code == 75
    assert err.count("\n") == 1 and err.startswith("checkpoint locked: ")
    assert scan_journal(journal_path).chunk_records == []


@pytest.mark.parametrize("name", ["threads", "lease"])
def test_make_executor_rejects_unknown_name(name):
    with pytest.raises(ValueError, match="unknown executor") as info:
        make_executor(name)
    assert "('serial', 'pool', 'fleet')" in str(info.value)
