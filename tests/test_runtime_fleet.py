"""Fleet runtime: heartbeat leases, epoch fencing, zombie rejection.

Cross-host semantics proven without a second machine: worker agents run
as detached subprocesses (``python -m repro worker``) against a shared
board directory, and the coordinator's only liveness signal is the
heartbeat file each worker renews.  The acceptance invariant
throughout: no matter how workers die, hang, partition, or
zombie-publish, the journal and estimate are bit-identical to an
uninterrupted serial run.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import metrics as obs_metrics
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    ResilienceWarning,
    RuntimeConfig,
    make_executor,
    parse_chaos_spec,
    scan_journal,
)
from repro.runtime.fleet import (
    DEFAULT_WORKER_TTL,
    FleetExecutor,
    _bench_until,
    audit_board,
    default_worker_id,
    repair_board,
)
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}

#: Short heartbeat TTL for chaos tests: expiry must be detected within
#: the test's patience, and the worker heartbeats at ttl/4.
FAST_TTL = 0.75


def run(executor="auto", workers=1, journal=None, chaos=None, trials=100,
        seed=23, board_dir=None, worker_ttl=None):
    """One cell on the named executor, built for it and closed after.

    An explicit ``board_dir`` is staffed by external agents (none are
    spawned), as with ``repro campaign --board``.
    """
    with make_executor(
        executor,
        workers=workers,
        board_dir=board_dir,
        ttl=worker_ttl,
        spawn_workers=0 if board_dir is not None else None,
    ) as built:
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
            runtime=RuntimeConfig(executor=built, journal=journal, chaos=chaos),
        )


def _chunk_fields(journal_path):
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


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_worker(board, *, ttl, worker_id, extra=()):
    """A detached ``repro worker`` agent, as a real host would run it."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--board", str(board),
            "--ttl", str(ttl),
            "--worker-id", worker_id,
            *extra,
        ],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _make_board(tmp_path, name="board"):
    board = tmp_path / name
    for sub in ("todo", "leases", "done", "workers"):
        (board / sub).mkdir(parents=True)
    return board


def _wait_for_heartbeats(board, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    workers = board / "workers"
    while time.monotonic() < deadline:
        if sum(1 for p in workers.iterdir() if p.suffix == ".hb") >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"fewer than {count} worker heartbeats appeared")


# --------------------------------------------------------------------------
# parity with external detached workers (1 / 2 / 4 agents)
# --------------------------------------------------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_fleet_external_workers_journal_bit_identical(tmp_path, n_workers):
    serial_path = tmp_path / "serial.jsonl"
    with CheckpointJournal(serial_path) as journal:
        reference = run(executor="serial", journal=journal, trials=300)

    board = _make_board(tmp_path)
    procs = [
        _spawn_worker(board, ttl=5.0, worker_id=f"host{i}")
        for i in range(n_workers)
    ]
    fleet_path = tmp_path / "fleet.jsonl"
    try:
        _wait_for_heartbeats(board, n_workers)
        with CheckpointJournal(fleet_path) as journal:
            estimate = run(
                executor="fleet",
                workers=n_workers,
                journal=journal,
                trials=300,
                board_dir=board,
                worker_ttl=5.0,
            )
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=15)
    assert (estimate.failures, estimate.trials, estimate.probability) == (
        reference.failures,
        reference.trials,
        reference.probability,
    )
    assert estimate.outcome_counts == reference.outcome_counts
    assert _chunk_fields(fleet_path) == _chunk_fields(serial_path)
    # graceful SIGTERM drain: every agent deregistered and exited 0
    assert [proc.returncode for proc in procs] == [0] * n_workers
    assert not any(
        p.suffix == ".hb" for p in (board / "workers").iterdir()
    )


# --------------------------------------------------------------------------
# TTL expiry -> epoch bump -> re-dispatch -> zombie rejection
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_worker_kill_and_zombie_recovered_bit_identical(tmp_path):
    """SIGKILL-equivalent worker death on chunk 1 plus a zombie publish
    on chunk 0: the lease must expire by heartbeat staleness, the chunks
    re-dispatch under a bumped epoch, the stale epoch-0 result must be
    rejected and counted, and the journal must match serial exactly."""
    serial_path = tmp_path / "serial.jsonl"
    with CheckpointJournal(serial_path) as journal:
        reference = run(executor="serial", journal=journal)

    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    fleet_path = tmp_path / "fleet.jsonl"
    try:
        with CheckpointJournal(fleet_path) as journal:
            estimate = run(
                executor="fleet",
                workers=2,
                journal=journal,
                chaos=parse_chaos_spec("worker-kill@1;zombie@0"),
                worker_ttl=FAST_TTL,
            )
        snapshot = obs_metrics.get_registry().snapshot()
    finally:
        obs_metrics.set_registry(previous)
    assert (estimate.failures, estimate.trials, estimate.probability) == (
        reference.failures,
        reference.trials,
        reference.probability,
    )
    assert _chunk_fields(fleet_path) == _chunk_fields(serial_path)
    assert snapshot["repro.fleet.lease_expiries"]["value"] >= 2
    assert snapshot["repro.fleet.redispatch_epochs"]["value"] >= 2
    assert snapshot["repro.fleet.zombie_results_rejected"]["value"] >= 1


@pytest.mark.chaos
def test_partition_recovered_bit_identical(tmp_path):
    """A full board partition (frozen heartbeat + withheld publication)
    on chunk 0: re-dispatched under epoch 1, the delayed stale result is
    fenced off, and the journal matches serial."""
    serial_path = tmp_path / "serial.jsonl"
    with CheckpointJournal(serial_path) as journal:
        reference = run(executor="serial", journal=journal)

    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    fleet_path = tmp_path / "fleet.jsonl"
    try:
        with CheckpointJournal(fleet_path) as journal:
            estimate = run(
                executor="fleet",
                workers=2,
                journal=journal,
                chaos=parse_chaos_spec("partition@0:2.5"),
                worker_ttl=FAST_TTL,
            )
        snapshot = obs_metrics.get_registry().snapshot()
    finally:
        obs_metrics.set_registry(previous)
    assert (estimate.failures, estimate.trials, estimate.probability) == (
        reference.failures,
        reference.trials,
        reference.probability,
    )
    assert _chunk_fields(fleet_path) == _chunk_fields(serial_path)
    assert snapshot["repro.fleet.lease_expiries"]["value"] >= 1


# --------------------------------------------------------------------------
# worker agent lifecycle
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_idle_worker_drains_on_sigterm(tmp_path):
    board = _make_board(tmp_path)
    proc = _spawn_worker(board, ttl=5.0, worker_id="drainer")
    try:
        _wait_for_heartbeats(board, 1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - assertion failed path
            proc.kill()
            proc.wait(timeout=15)
    # drain deregisters: the heartbeat file must be gone
    assert not any(
        p.suffix == ".hb" for p in (board / "workers").iterdir()
    )


def test_worker_cli_rejects_bad_usage(tmp_path):
    from repro.cli import main

    assert main(["worker", "--board", str(tmp_path / "missing")]) == 2
    board = _make_board(tmp_path)
    assert main(["worker", "--board", str(board), "--ttl", "0"]) == 2
    assert (
        main(["worker", "--board", str(board), "--max-chunks", "-1"]) == 2
    )


def test_worker_max_chunks_zero_exits_immediately(tmp_path):
    from repro.runtime.fleet import worker_main

    board = _make_board(tmp_path)
    assert worker_main(board, max_chunks=0, install_signals=False) == 0


# --------------------------------------------------------------------------
# publish durability
# --------------------------------------------------------------------------


def _post_fleet_task(board, token=0, epoch=0):
    with open(board / "todo" / f"{token:08d}.e{epoch:04d}.task", "wb") as fh:
        pickle.dump((_echo_chunk, token, 0, None, (token, 7)), fh)


def test_worker_publish_fsyncs_done_dir_before_lease_release(
    tmp_path, monkeypatch
):
    """The done/ directory entry must be durable *before* the lease (the
    only evidence the chunk was claimed) is removed."""
    from repro.runtime import fleet

    board = _make_board(tmp_path)
    _post_fleet_task(board)
    real_fsync_dir = fleet.fsync_dir
    observed = []

    def recording(path):
        observed.append(
            (
                (board / "done" / "00000000.e0000.done").exists(),
                any((board / "leases").iterdir()),
            )
        )
        return real_fsync_dir(path)

    monkeypatch.setattr(fleet, "fsync_dir", recording)
    assert fleet.worker_main(board, max_chunks=1, install_signals=False) == 1
    # exactly one publish: at fsync time the rename had landed and the
    # lease had not yet been released
    assert observed == [(True, True)]
    assert (board / "done" / "00000000.e0000.done").exists()
    assert not any((board / "leases").iterdir())


def test_worker_publish_crash_window_never_loses_both(tmp_path, monkeypatch):
    """A crash between publishing the done-file and removing the lease
    must leave BOTH behind, so the completed chunk is never lost."""
    from repro.runtime import fleet

    board = _make_board(tmp_path)
    _post_fleet_task(board)

    def crash(path):
        raise RuntimeError("injected host crash during done/ fsync")

    monkeypatch.setattr(fleet, "fsync_dir", crash)
    with pytest.raises(RuntimeError, match="injected host crash"):
        fleet.worker_main(board, max_chunks=1, install_signals=False)
    assert (board / "done" / "00000000.e0000.done").exists()
    assert list((board / "leases").iterdir())  # claim evidence retained


def _failing_fsync_dir(path):
    raise OSError(5, "injected I/O error during done/ fsync")


def test_worker_publish_oserror_keeps_lease_and_deregisters(
    tmp_path, monkeypatch
):
    """An OSError while publishing must keep the lease and take the
    heartbeat down with the worker, so the coordinator expires the lease
    and re-dispatches the chunk instead of waiting for it forever."""
    from repro.runtime import fleet

    board = _make_board(tmp_path)
    _post_fleet_task(board)
    monkeypatch.setattr(fleet, "fsync_dir", _failing_fsync_dir)
    with pytest.raises(OSError, match="injected I/O error"):
        fleet.worker_main(
            board, worker_id="w1", max_chunks=1, install_signals=False
        )
    assert (board / "done" / "00000000.e0000.done").exists()
    assert [p.name for p in (board / "leases").iterdir()] == [
        "00000000.e0000.task.w1"
    ]
    assert not any((board / "workers").iterdir())  # heartbeat deregistered


def test_worker_cli_exits_74_on_publish_error(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    from repro.runtime import fleet

    board = _make_board(tmp_path)
    _post_fleet_task(board)
    monkeypatch.setattr(fleet, "fsync_dir", _failing_fsync_dir)
    # keep the test process's own SIGTERM handler
    monkeypatch.setattr(fleet.signal, "signal", lambda *_: None)
    assert main(["worker", "--board", str(board), "--max-chunks", "1"]) == 74
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "injected I/O error" in err[0]


# --------------------------------------------------------------------------
# empty-fleet degradation
# --------------------------------------------------------------------------


def _echo_chunk(args):
    index, value = args
    return {"trials": 1, "value": value}


@pytest.mark.chaos
def test_empty_fleet_degrades_loudly_and_completes(tmp_path):
    board = _make_board(tmp_path)
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    executor = FleetExecutor(
        1,
        board_dir=board,
        ttl=0.5,
        spawn_workers=0,
        empty_fleet_deadline=0.4,
    )
    try:
        token = executor.submit((_echo_chunk, 0, 0, None, (0, 42)))
        completions = []
        deadline = time.monotonic() + 30.0
        with pytest.warns(ResilienceWarning, match="no fleet worker"):
            while not completions and time.monotonic() < deadline:
                completions = executor.poll(timeout=0.5)
        snapshot = obs_metrics.get_registry().snapshot()
    finally:
        executor.close()
        obs_metrics.set_registry(previous)
    assert [c.token for c in completions] == [token]
    assert completions[0].result == {"trials": 1, "value": 42}
    assert snapshot["repro.fleet.empty_fleet_fallbacks"]["value"] == 1
    assert snapshot["repro.fleet.workers_alive"]["value"] == 0


# --------------------------------------------------------------------------
# failure-domain quarantine (bench)
# --------------------------------------------------------------------------


def test_worker_benched_after_consecutive_failures(tmp_path):
    board = _make_board(tmp_path)
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    executor = FleetExecutor(
        1,
        board_dir=board,
        spawn_workers=0,
        bench_threshold=2,
        bench_base_s=30.0,
    )
    try:
        executor._charge_worker_failure("flaky")
        assert not (board / "workers" / "flaky.bench").exists()
        executor._charge_worker_failure("flaky")
        assert (board / "workers" / "flaky.bench").exists()
        assert _bench_until(board / "workers", "flaky") > time.time()
        snapshot = obs_metrics.get_registry().snapshot()
    finally:
        executor.close()
        obs_metrics.set_registry(previous)
    assert snapshot["repro.fleet.workers_benched"]["value"] == 1


def test_bench_backoff_is_bounded(tmp_path):
    board = _make_board(tmp_path)
    executor = FleetExecutor(
        1,
        board_dir=board,
        spawn_workers=0,
        bench_threshold=1,
        bench_base_s=1.0,
        bench_max_s=4.0,
    )
    try:
        backoffs = []
        for _ in range(5):
            executor._charge_worker_failure("flaky")
            with open(board / "workers" / "flaky.bench", "rb") as fh:
                import json

                backoffs.append(json.load(fh)["backoff_s"])
        assert backoffs == [1.0, 2.0, 4.0, 4.0, 4.0]
    finally:
        executor.close()


# --------------------------------------------------------------------------
# coordinator discipline
# --------------------------------------------------------------------------


def test_second_fleet_coordinator_fails_fast(tmp_path):
    from repro.runtime import JournalLockedError

    board = tmp_path / "board"
    first = FleetExecutor(1, board_dir=board, spawn_workers=0)
    try:
        with pytest.raises(JournalLockedError):
            FleetExecutor(1, board_dir=board, spawn_workers=0)
    finally:
        first.close()
    second = FleetExecutor(1, board_dir=board, spawn_workers=0)
    second.close()


def test_fleet_board_defaults_to_private_tempdir():
    import tempfile

    executor = make_executor("fleet", workers=1, spawn_workers=0)
    try:
        board = executor.board
        assert board.exists()
        assert tempfile.gettempdir() in str(board)
    finally:
        executor.close()
    assert not board.exists()


def test_abandon_fences_pending_task(tmp_path):
    board = _make_board(tmp_path)
    executor = FleetExecutor(1, board_dir=board, spawn_workers=0)
    try:
        token = executor.submit((_echo_chunk, 0, 0, None, (0, 1)))
        assert executor.abandon(token) is True
        assert not any((board / "todo").iterdir())
        assert executor.abandon(token) is False  # unknown once fenced
    finally:
        executor.close()


def test_default_worker_id_is_host_scoped():
    wid = default_worker_id()
    assert str(os.getpid()) in wid
    assert "/" not in wid and " " not in wid


# --------------------------------------------------------------------------
# board audit / repair (doctor integration points)
# --------------------------------------------------------------------------


def test_audit_flags_orphans_torn_and_epoch_mismatch(tmp_path):
    board = _make_board(tmp_path)
    # stale-heartbeat holder with a lease
    hb = board / "workers" / "deadhost.hb"
    hb.write_text("{}")
    old = time.time() - 3600.0
    os.utime(hb, (old, old))
    (board / "leases" / "00000003.e0000.task.deadhost").write_bytes(b"x")
    # torn staging file and a stale-epoch zombie result
    (board / "done" / "00000002.e0000.tmp.w9").write_bytes(b"torn")
    (board / "done" / "00000001.e0000.done").write_bytes(b"stale")
    (board / "todo" / "00000001.e0001.task").write_bytes(b"current")
    (board / "STOP").write_text("")

    report = audit_board(board, ttl=DEFAULT_WORKER_TTL)
    assert report["healthy"] is False
    assert report["stop_flag"] is True
    assert report["coordinator_attached"] is False
    assert [w["fresh"] for w in report["workers"]] == [False]
    assert [o["worker"] for o in report["orphaned_leases"]] == ["deadhost"]
    assert report["torn_tmp"] == ["done/00000002.e0000.tmp.w9"]
    assert [m["entry"] for m in report["epoch_mismatches"]] == [
        "done/00000001.e0000.done"
    ]


def test_repair_reenqueues_orphan_under_bumped_epoch(tmp_path):
    board = _make_board(tmp_path)
    hb = board / "workers" / "deadhost.hb"
    hb.write_text("{}")
    old = time.time() - 3600.0
    os.utime(hb, (old, old))
    payload = pickle.dumps((_echo_chunk, 3, 0, None, (3, 7)))
    (board / "leases" / "00000003.e0000.task.deadhost").write_bytes(payload)
    (board / "done" / "00000002.e0000.tmp.w9").write_bytes(b"torn")
    (board / "STOP").write_text("")

    result = repair_board(board, ttl=DEFAULT_WORKER_TTL)
    assert result["actions"]
    # the orphaned chunk is back in todo/ under the NEXT epoch: a
    # not-actually-dead holder that publishes later is a fenced zombie
    assert (board / "todo" / "00000003.e0001.task").read_bytes() == payload
    assert not any((board / "leases").iterdir())
    assert not (board / "done" / "00000002.e0000.tmp.w9").exists()
    assert not (board / "STOP").exists()
    assert audit_board(board, ttl=DEFAULT_WORKER_TTL)["healthy"] is True


def test_repair_refuses_live_coordinator(tmp_path):
    board = tmp_path / "board"
    executor = FleetExecutor(1, board_dir=board, spawn_workers=0)
    try:
        result = repair_board(board)
        assert "skipped" in result
    finally:
        executor.close()


def test_leftover_stop_flag_alone_is_unhealthy_then_repaired(tmp_path):
    board = _make_board(tmp_path)
    (board / "STOP").write_text("")
    report = audit_board(board)
    assert report["stop_flag"] is True
    assert report["healthy"] is False
    repair_board(board)
    assert not (board / "STOP").exists()
    assert audit_board(board)["healthy"] is True


def test_stop_flag_under_an_attached_coordinator_is_healthy(tmp_path):
    board = tmp_path / "board"
    executor = FleetExecutor(1, board_dir=board, spawn_workers=0)
    try:
        (board / "STOP").write_text("")
        report = audit_board(board)
        assert report["coordinator_attached"] is True
        assert report["healthy"] is True
    finally:
        executor.close()


def test_directory_without_workers_is_not_a_board(tmp_path):
    from repro.runtime.fleet import _looks_like_board

    board = _make_board(tmp_path)
    assert _looks_like_board(board)
    (board / "workers").rmdir()
    assert not _looks_like_board(board)
