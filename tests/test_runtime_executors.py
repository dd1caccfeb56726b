"""Executor parity across worker counts.

Executors move *scheduling only*: one worker runs in-process, two and
three dispatch to a process pool in tasks sized for it.  For the same
seed every worker count must produce bit-identical estimates,
bit-identical per-chunk journal records (timing fields aside), and
identical deterministic work counters.
"""

import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    RuntimeConfig,
    make_executor,
    scan_journal,
)
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

#: Worker counts of the parity table; one is the in-process reference.
WORKERS = (1, 2, 3)

#: Result-dict fields that must be identical across executors; the
#: "counters" entry carries cpu_seconds and is compared separately with
#: its timing fields masked.
_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}


def run(workers=1, journal=None, chaos=None, trials=300, seed=17,
        counters=None):
    """One cell on the executor for ``workers``, built for it and shut
    down after."""
    with make_executor(workers) as built:
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
# parity over worker counts
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_serial_pool_journals_bit_identical(tmp_path):
    estimates, journals = {}, {}
    for workers in WORKERS:
        path = tmp_path / f"w{workers}.jsonl"
        with CheckpointJournal(path) as journal:
            estimates[workers] = run(workers=workers, journal=journal)
        journals[workers] = _chunk_fields(path)
    ref = estimates[1]
    for workers in WORKERS[1:]:
        est = estimates[workers]
        assert (est.failures, est.trials, est.probability) == (
            ref.failures,
            ref.trials,
            ref.probability,
        ), workers
        assert est.outcome_counts == ref.outcome_counts, workers
        assert (est.ci_low, est.ci_high) == (ref.ci_low, ref.ci_high), workers
        assert journals[workers] == journals[1], workers
    assert len(journals[1]) == 6  # 300 trials / 50


@pytest.mark.chaos
def test_parity_holds_with_adaptive_stopping(tmp_path):
    from repro.runtime import StoppingRule

    stop = StoppingRule(rel_ci=1.0, min_trials=100)
    results = []
    for workers in WORKERS:
        with make_executor(workers) as executor:
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
    for workers in WORKERS:
        counters = PerfCounters()
        run(workers=workers, counters=counters)
        snap = counters.as_dict()
        fields.append(
            {k: v for k, v in snap.items() if k not in _TIMING_FIELDS}
        )
    assert fields[1:] == [fields[0]] * (len(WORKERS) - 1)
    assert fields[0]["trials"] == 300
    assert fields[0]["chunks"] == 6
