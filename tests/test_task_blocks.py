"""Seed blocks and dispatch tasks: how blocks are grouped moves no byte.

``chunk_size`` is the seed block: the unit of seeding, journaling and
adaptive stopping.  The supervisor dispatches tasks, runs of consecutive
blocks whose fault-bearing trials share one replay.  Every row of the
parity table below groups the same blocks differently (task caps of 1,
3 and 64 blocks; one worker in-process, or a pool of two or three) and
must journal the same per-block records and return the same estimate.
"""

import concurrent.futures as cf
import time

import numpy as np
import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    ChunkFailedError,
    RetryPolicy,
    RuntimeConfig,
    StoppingRule,
    make_executor,
    parse_chaos_spec,
    scan_journal,
)
from repro.simulator import montecarlo
from repro.simulator.montecarlo import (
    TaskSpec,
    simulate_fail_probability_batched,
    spawn_chunk_seeds,
    task_spans,
)

CODE = RSCode(18, 16, m=8)
T_END = 48.0
CHUNK = 4
#: 260 blocks: one worker groups them in 64-block tasks, two in 33,
#: three in 22.
TRIALS = 1040

#: name -> keyword arguments of simulate_fail_probability_batched
CELLS = {
    "simplex-iid": dict(
        arrangement="simplex", seu_per_bit=2e-3 / 24, erasure_per_symbol=0.0
    ),
    "duplex-exp-scrub": dict(
        arrangement="duplex",
        seu_per_bit=1e-2 / 24,
        erasure_per_symbol=4e-2 / 24,
        scrub_period=24.0,
        scrub_exponential=True,
    ),
    "simplex-stuck-pattern-scheduled": dict(
        arrangement="simplex",
        seu_per_bit=4e-3 / 24,
        erasure_per_symbol=2e-2 / 24,
        scrub_period=24.0,
        pattern="0.7*1BIT+0.3*MBU:2!",
        schedule="42.0h@1.0,6.0h@8.0",
    ),
}

_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def _chunk_fields(journal_path):
    """Deterministic per-block fields from a journal, keyed by index."""
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


def run_cell(path, cell, workers=1, counters=None, **runtime):
    """One cell through a fresh journal at ``path``: (estimate, fields)."""
    with CheckpointJournal(path) as journal, make_executor(workers) as built:
        estimate = simulate_fail_probability_batched(
            code=CODE,
            t_end=T_END,
            trials=TRIALS,
            seed=2005,
            chunk_size=CHUNK,
            workers=workers,
            counters=counters,
            runtime=RuntimeConfig(executor=built, journal=journal, **runtime),
            **CELLS[cell],
        )
    return estimate, _chunk_fields(path)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Every cell run as one-block tasks, serially."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "TASK_BLOCKS", 1)
        for cell in CELLS:
            path = tmp_path_factory.mktemp("reference") / f"{cell}.jsonl"
            out[cell] = run_cell(path, cell)
    return out


# --------------------------------------------------------------------------
# the parity table
# --------------------------------------------------------------------------


#: Cells of the parity table; the pattern cell, whose arrivals are
#: drawn trial by trial, joins it in the cheaper single-run tests below.
TABLE_CELLS = ("simplex-iid", "duplex-exp-scrub")

#: (task cap, workers) rows; the reference is (1, 1).
ROWS = [
    (cap, workers)
    for cap in (1, 3, 64)
    for workers in (1, 2, 3)
    if (cap, workers) != (1, 1)
]


@pytest.mark.parametrize("cap, workers", ROWS)
def test_grouping_moves_no_record(tmp_path, monkeypatch, reference, cap, workers):
    monkeypatch.setattr(montecarlo, "TASK_BLOCKS", cap)
    for cell in TABLE_CELLS:
        estimate, fields = run_cell(
            tmp_path / f"{cell}.jsonl", cell, workers=workers
        )
        want_estimate, want_fields = reference[cell]
        assert estimate == want_estimate, cell
        assert fields == want_fields, cell
        assert len(fields) == TRIALS // CHUNK


def test_replay_cap_moves_no_record(tmp_path, monkeypatch, reference):
    """Seven dirty trials per replay: most blocks replay alone, the
    sparse ones in small groups; the records cannot tell."""
    monkeypatch.setattr(montecarlo, "REPLAY_TRIALS", 7)
    for cell in CELLS:
        estimate, fields = run_cell(tmp_path / f"{cell}.jsonl", cell)
        assert (estimate, fields) == reference[cell], cell


# --------------------------------------------------------------------------
# one task, many blocks
# --------------------------------------------------------------------------

_WORK = (
    "words_encoded",
    "words_decoded",
    "clean_fast_path",
    "dirty_words_decoded",
    "decode_failures",
)


def _task(cell, blocks=12, trials=CHUNK):
    physics = dict(CELLS[cell])
    arrangement = physics.pop("arrangement")
    return TaskSpec(
        arrangement,
        CODE.n,
        CODE.k,
        CODE.m,
        CODE.fcr,
        T_END,
        physics.pop("seu_per_bit"),
        physics.pop("erasure_per_symbol"),
        physics.get("scrub_period"),
        physics.get("scrub_exponential", False),
        physics.get("pattern"),
        physics.get("schedule"),
        blocks=tuple(
            (index, trials, seed)
            for index, seed in enumerate(spawn_chunk_seeds(11, blocks))
        ),
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("replay_trials", [5, 1024])
def test_block_counters_sum_to_the_codec_totals(
    monkeypatch, cell, replay_trials
):
    monkeypatch.setattr(montecarlo, "REPLAY_TRIALS", replay_trials)
    seen = []
    real_replay = montecarlo.replay_batch

    def spy(codec, arrangement, data, events, counts, times, counters, work):
        seen.append((counters, len(data)))
        return real_replay(
            codec, arrangement, data, events, counts, times, counters, work
        )

    monkeypatch.setattr(montecarlo, "replay_batch", spy)
    task = _task(cell, trials=40)
    results = montecarlo._run_injection_chunk(task)
    assert [r["trials"] for r in results] == [40] * len(task.blocks)
    codec_counters = {id(c): c for c, _ in seen}
    assert len(codec_counters) == 1  # every replay of a task shares them
    (totals,) = codec_counters.values()
    blocks = [PerfCounters(**r["counters"]) for r in results]
    for name in _WORK:
        assert sum(getattr(b, name) for b in blocks) == getattr(totals, name)
    assert sum(b.words_encoded for b in blocks) == sum(n for _, n in seen)
    assert all(b.chunks == 1 for b in blocks)
    # the task's busy and kernel time go to its first block
    assert blocks[0].kernel_seconds == totals.kernel_seconds
    assert blocks[0].cpu_seconds > 0.0
    assert all(b.cpu_seconds == b.kernel_seconds == 0.0 for b in blocks[1:])
    if replay_trials == 5:
        assert len(seen) > 1


@pytest.mark.parametrize("replay_trials", [7, 50, 1024])
def test_replays_gather_whole_blocks_up_to_the_cap(monkeypatch, replay_trials):
    """Dirty trials of consecutive blocks share a replay until the next
    block would take it past the cap; a block is never split."""
    calls = []
    real_replay = montecarlo.replay_batch

    def spy(codec, arrangement, data, *args):
        calls.append(len(data))
        return real_replay(codec, arrangement, data, *args)

    monkeypatch.setattr(montecarlo, "replay_batch", spy)
    monkeypatch.setattr(montecarlo, "REPLAY_TRIALS", replay_trials)
    results = montecarlo._run_injection_chunk(
        _task("simplex-iid", blocks=64, trials=30)
    )
    expected, size = [], 0
    for result in results:
        dirty = result["counters"]["words_encoded"]
        if not dirty:
            continue
        if size and size + dirty > replay_trials:
            expected.append(size)
            size = 0
        size += dirty
    expected.append(size)
    assert calls == expected
    assert len(calls) == 1 if replay_trials == 1024 else len(calls) > 1


# --------------------------------------------------------------------------
# grouping, faults, resume and stopping
# --------------------------------------------------------------------------


def test_task_spans_rule():
    # clamp(ceil(pending / (4 * workers)), 1, TASK_BLOCKS)
    assert task_spans(list(range(12)), 1) == [range(0, 3), range(3, 6),
                                              range(6, 9), range(9, 12)]
    assert task_spans(list(range(3)), 2) == [range(0, 1), range(1, 2),
                                             range(2, 3)]
    assert task_spans(list(range(1954)), 1)[0] == range(0, 64)
    assert len(task_spans(list(range(1954)), 1)) == 31
    # a journaled block ends a run: tasks hold consecutive blocks only
    assert task_spans([0, 1, 2, 5, 6, 7, 8, 9], 1) == [
        range(0, 2), range(2, 3), range(5, 7), range(7, 9), range(9, 10)
    ]
    assert task_spans([], 4) == []


def test_poisoned_block_fails_its_task_after_the_others_journal(
    tmp_path, monkeypatch, reference
):
    """poison@100 sits in the middle of the 64-block task 64-127: that
    task fails loud, naming its block range, and only after the other
    tasks are journaled."""
    monkeypatch.setattr(montecarlo, "TASK_BLOCKS", 64)
    path = tmp_path / "j.jsonl"
    with pytest.raises(ChunkFailedError) as info:
        run_cell(
            path,
            "duplex-exp-scrub",
            retry=FAST_RETRY,
            chaos=parse_chaos_spec("poison@100"),
        )
    assert info.value.index == 64
    assert info.value.blocks == range(64, 128)
    assert str(info.value).startswith("chunks 64-127 failed 2 attempt(s)")
    assert "injected poison: chunk 100" in info.value.last_error
    _estimate, want = reference["duplex-exp-scrub"]
    journaled = _chunk_fields(path)
    assert sorted(journaled) == [i for i in range(260) if not 64 <= i < 128]
    assert journaled == {i: want[i] for i in journaled}

    # resumed with one-block tasks: every record and the estimate are
    # what an undisturbed run gives
    monkeypatch.setattr(montecarlo, "TASK_BLOCKS", 1)
    counters = PerfCounters()
    with CheckpointJournal(path) as journal:
        estimate = simulate_fail_probability_batched(
            code=CODE,
            t_end=T_END,
            trials=TRIALS,
            seed=2005,
            chunk_size=CHUNK,
            counters=counters,
            runtime=RuntimeConfig(journal=journal),
            **CELLS["duplex-exp-scrub"],
        )
    assert counters.chunks_resumed == 196
    assert (estimate, _chunk_fields(path)) == reference["duplex-exp-scrub"]


def test_task_deadline_is_per_block():
    """A job of three blocks gets three chunk timeouts."""
    from repro.runtime import ChunkSupervisor

    class Silent(cf.Executor):
        """Takes every submission and never finishes one; notes when the
        supervisor cancels it."""

        capacity = 1

        def submit(self, fn, payload):
            self.blocks = payload[1]
            self.submitted = time.monotonic()
            self.future = cf.Future()
            self.future.add_done_callback(
                lambda _f: setattr(self, "abandoned", time.monotonic())
            )
            return self.future

    executor = Silent()
    supervisor = ChunkSupervisor(
        retry=RetryPolicy(max_attempts=1), chunk_timeout=0.001,
        executor=executor,
    )
    with pytest.raises(ChunkFailedError, match="chunks 4-6 failed"):
        supervisor.run([(range(4, 7), None)], primary=lambda _: None)
    assert executor.blocks == range(4, 7)
    assert executor.future.cancelled()
    assert executor.abandoned - executor.submitted >= 0.003 - 1e-9
    (timeout,) = [e for e in supervisor.events if e.kind == "timeout"]
    assert timeout.chunk == 4
    assert timeout.detail == "chunk exceeded 0.003s"


def test_stop_inside_a_task_gives_the_single_block_prefix(monkeypatch):
    stop = StoppingRule(rel_ci=0.4, min_trials=40)

    def stopped(cap):
        monkeypatch.setattr(montecarlo, "TASK_BLOCKS", cap)
        return simulate_fail_probability_batched(
            code=CODE,
            t_end=T_END,
            trials=TRIALS,
            seed=2005,
            chunk_size=CHUNK,
            runtime=RuntimeConfig(stop=stop),
            **CELLS["simplex-iid"],
        )

    single = stopped(1)
    assert single.stopped_early
    blocks_used = single.trials // CHUNK
    assert blocks_used % 64 and blocks_used % 3  # the stop is mid-task
    assert stopped(64) == single
    assert stopped(3) == single


def test_draw_concat_pads_scrub_tables_with_inf():
    task = _task("duplex-exp-scrub", blocks=2, trials=6)
    draws = [
        montecarlo.draw_chunk(
            np.random.default_rng(seed), task.arrangement, task.n, task.k,
            task.m, task.t_end, task.seu_per_bit, task.erasure_per_symbol,
            task.scrub_period, task.scrub_exponential, trials,
        )
        for _index, trials, seed in task.blocks
    ]
    joined = montecarlo.ChunkDraw.concat(draws)
    widths = [d.scrub_times.shape[1] for d in draws]
    assert widths[0] != widths[1]
    assert joined.scrub_times.shape == (12, max(widths))
    for offset, draw, width in zip((0, 6), draws, widths):
        rows = joined.scrub_times[offset : offset + 6]
        np.testing.assert_array_equal(rows[:, :width], draw.scrub_times)
        assert np.isinf(rows[:, width:]).all()
    split = draws[0].events.trial.size
    np.testing.assert_array_equal(
        joined.events.trial[:split], draws[0].events.trial
    )
    np.testing.assert_array_equal(
        joined.events.trial[split:] - 6, draws[1].events.trial
    )
