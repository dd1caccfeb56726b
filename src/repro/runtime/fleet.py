"""Fleet runtime: detachable worker agents over heartbeat-leased boards.

Workers pull chunks from a shared on-disk *board*.  Attributing a dead
worker by *local pid* is meaningless the moment a second machine
attaches to the board, so liveness rests on three host-independent
mechanisms:

* **heartbeat leases** — every worker registers
  ``workers/<worker-id>.hb`` on the board and renews it atomically
  (write-temp-then-rename) on an interval; the coordinator declares a
  worker dead when its heartbeat goes stale past the TTL.  No process
  handles, no pids, no shared kernel.
* **epoch fencing** — task and done filenames embed an epoch
  (``00000042.e0003.task``).  When a lease expires the coordinator
  re-posts the chunk under a bumped epoch; a *zombie* result from an
  earlier epoch (a worker that was merely partitioned, not dead) is
  rejected by filename alone — first-valid-epoch-wins, counted in
  ``repro.fleet.zombie_results_rejected``.  Rejection happens before
  the supervisor's journal hook, so journals stay bit-identical to a
  serial run.
* **failure-domain quarantine** — a worker whose results fail
  ``bench_threshold`` consecutive times is *benched*: the coordinator
  writes ``workers/<id>.bench`` with a bounded-backoff readmission
  time, and the worker cooperatively stops claiming until it expires.

Two halves share the board protocol:

* :func:`worker_main` — the detachable agent behind ``repro worker
  --board DIR``.  Any host pointing at a shared directory (NFS, a
  synced mount) joins the fleet.  ``SIGTERM`` drains gracefully:
  finish the held lease, publish, deregister the heartbeat, exit 0.
* :class:`FleetExecutor` — the coordinator side, behind the standard
  :class:`~repro.runtime.executors.Executor` contract
  (``--executor fleet``).  With no external board it spawns local
  agent subprocesses, so the fleet path is exercised even on one
  machine.  Its agents and its board lock live as long as the
  executor — ``repro campaign`` builds one per campaign, so every cell
  reuses the same agents and token numbers keep rising across cells
  (a late result from an earlier cell is rejected like any zombie).
  If no worker heartbeats within a deadline it degrades
  *loudly* (ResilienceWarning + ``fleet_no_workers`` trace event) and
  drains the remaining chunks in-process, so an empty fleet delays a
  campaign but never hangs or fails it.

Determinism: chunk payloads carry their own spawned ``SeedSequence``
and results merge commutatively, so lease expiry, re-dispatch, zombie
rejection, and local-drain fallback cannot change an estimate — any
schedule that completes is bit-identical.

``repro doctor`` understands boards too: :func:`audit_board` reports
orphaned leases (stale heartbeats), torn ``*.tmp.*`` done-files,
epoch-mismatched entries, and leftover ``STOP`` flags;
:func:`repair_board` re-enqueues safely under a bumped epoch.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..ioutil import fsync_dir
from ..obs import metrics as obs_metrics
from ..obs import trace
from .chaos import CHAOS_EXIT_CODE, ChaosSpec
from .executors import Completion, Executor, _supervised_call
from .integrity import JournalLock, probe_lock

#: Default worker heartbeat TTL (seconds): a lease whose worker has not
#: renewed its heartbeat for this long is declared expired.
DEFAULT_WORKER_TTL = 15.0

#: Consecutive failed chunks before a worker is benched.
DEFAULT_BENCH_THRESHOLD = 3

#: Bench backoff: ``base * 2**n`` seconds, capped at ``max``.
DEFAULT_BENCH_BASE_S = 1.0
DEFAULT_BENCH_MAX_S = 30.0

#: Flag file that tells every worker on the board to exit.
_STOP_NAME = "STOP"
#: Idle poll interval of workers and of the coordinator, seconds.
_CLAIM_POLL_S = 0.02

_TASK_RE = re.compile(r"^(\d{8})\.e(\d{4})\.task$")
_DONE_RE = re.compile(r"^(\d{8})\.e(\d{4})\.done$")
#: Lease names are ``<task-name>.<worker-id>``.
_LEASE_RE = re.compile(r"^(\d{8})\.e(\d{4})\.task\.(.+)$")
_HB_SUFFIX = ".hb"
_BENCH_SUFFIX = ".bench"

_WORKERS_DIRNAME = "workers"


def _task_name(token: int, epoch: int) -> str:
    return f"{token:08d}.e{epoch:04d}.task"


def _done_name(token: int, epoch: int) -> str:
    return f"{token:08d}.e{epoch:04d}.done"


def _sanitize_worker_id(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]", "-", raw) or "worker"


def default_worker_id() -> str:
    """Host-qualified worker identity (filename-safe)."""
    return _sanitize_worker_id(f"{socket.gethostname()}-{os.getpid()}")


def _atomic_json(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _ensure_board(board: Path) -> None:
    board.mkdir(parents=True, exist_ok=True)
    for sub in ("todo", "leases", "done", _WORKERS_DIRNAME):
        (board / sub).mkdir(exist_ok=True)


def _looks_like_board(path: Path) -> bool:
    """A directory with the fleet-board layout (doctor dispatch)."""
    return path.is_dir() and all(
        (path / sub).is_dir()
        for sub in ("todo", "leases", "done", _WORKERS_DIRNAME)
    )


# --------------------------------------------------------------------------
# worker agent
# --------------------------------------------------------------------------


class _Heartbeat:
    """Background renewal of ``workers/<id>.hb`` (atomic replace).

    ``pause()``/``resume()`` let chaos kinds simulate a frozen or
    partitioned worker: the process keeps running but its heartbeat
    goes stale, which is exactly what the coordinator keys expiry on.
    """

    def __init__(self, path: Path, interval: float, payload: Dict[str, Any]):
        self.path = path
        self.interval = interval
        self.payload = payload
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def beat(self) -> None:
        try:
            _atomic_json(self.path, self.payload)
        except OSError:  # board torn down under us; the loop will notice
            pass

    def start(self) -> None:
        self.beat()  # register synchronously before any claim
        self._thread.start()

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()
        self.beat()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def deregister(self) -> None:
        try:
            os.remove(self.path)
        except OSError:
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not self._paused.is_set():
                self.beat()


def _bench_until(workers_dir: Path, worker_id: str) -> float:
    """Readmission time of this worker's bench file (0.0 = not benched)."""
    bench = workers_dir / (worker_id + _BENCH_SUFFIX)
    try:
        with open(bench, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        until = float(data.get("until", 0.0))
    except (OSError, ValueError):
        return 0.0
    if until <= time.time():
        try:
            os.remove(bench)  # served the sentence; readmit
        except OSError:
            pass
        return 0.0
    return until


def _await_fence(board: Path, token: int, epoch: int, timeout: float) -> None:
    """Block until a higher epoch of ``token`` is visible on the board.

    The ``zombie`` chaos kind uses this to deterministically sequence
    "declared dead -> re-dispatched -> stale result lands": the frozen
    worker holds its finished result until the coordinator has provably
    bumped the epoch, then publishes the zombie.
    """
    deadline = time.monotonic() + timeout
    prefix = f"{token:08d}.e"
    while time.monotonic() < deadline:
        for sub in ("todo", "leases", "done"):
            try:
                names = os.listdir(board / sub)
            except FileNotFoundError:
                return
            for name in names:
                if not name.startswith(prefix):
                    continue
                match = re.match(r"^\d{8}\.e(\d{4})", name)
                if match and int(match.group(1)) > epoch:
                    return
        time.sleep(_CLAIM_POLL_S)


def worker_main(
    board: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    ttl: float = DEFAULT_WORKER_TTL,
    max_chunks: Optional[int] = None,
    poll_s: float = _CLAIM_POLL_S,
    install_signals: bool = True,
) -> int:
    """Detachable fleet worker loop (the ``repro worker`` entry point).

    Claims the lowest-numbered posted task by atomic rename, runs it,
    publishes the result durably (write-temp, fsync, rename, fsync the
    ``done/`` directory), and only then releases the lease — a crash in
    any window leaves either the lease or the done-file as evidence.
    Exits when the board drops a ``STOP`` flag, ``SIGTERM`` arrives
    (graceful drain: the held lease is finished first), ``max_chunks``
    completes, or the board directory disappears.  Returns the number
    of chunks executed.  An ``OSError`` while publishing propagates with
    the lease left in place and the heartbeat deregistered, so the
    coordinator expires the lease and re-dispatches the chunk.
    """
    if ttl <= 0:
        raise ValueError(f"ttl must be positive, got {ttl}")
    board = Path(board)
    _ensure_board(board)
    wid = _sanitize_worker_id(worker_id) if worker_id else default_worker_id()
    workers_dir = board / _WORKERS_DIRNAME
    todo = board / "todo"
    leases = board / "leases"
    done = board / "done"
    stop_flag = board / _STOP_NAME

    draining = threading.Event()
    if install_signals:
        try:
            signal.signal(signal.SIGTERM, lambda *_: draining.set())
        except ValueError:  # pragma: no cover - not the main thread
            pass

    interval = min(max(ttl / 4.0, 0.05), ttl / 2.0)
    hb = _Heartbeat(
        workers_dir / (wid + _HB_SUFFIX),
        interval,
        {
            "schema": 1,
            "worker": wid,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "ttl": ttl,
        },
    )
    hb.start()
    chunks_done = 0
    try:
        while not draining.is_set() and not stop_flag.exists():
            if max_chunks is not None and chunks_done >= max_chunks:
                break
            until = _bench_until(workers_dir, wid)
            if until > 0.0:
                time.sleep(max(0.0, min(max(poll_s, 0.01), until - time.time())))
                continue
            claimed = None
            try:
                names = sorted(os.listdir(todo))
            except FileNotFoundError:
                break  # board torn down
            for name in names:
                if _TASK_RE.match(name) is None:
                    continue
                lease_path = leases / f"{name}.{wid}"
                try:
                    os.rename(todo / name, lease_path)
                except OSError:
                    continue  # another worker won the claim
                claimed = (name, lease_path)
                break
            if claimed is None:
                time.sleep(poll_s)
                continue
            _run_leased_task(board, hb, wid, ttl, *claimed)
            chunks_done += 1
    finally:
        hb.stop()
        hb.deregister()
    return chunks_done


def _run_leased_task(
    board: Path,
    hb: _Heartbeat,
    wid: str,
    ttl: float,
    name: str,
    lease_path: Path,
) -> None:
    """Execute one claimed task and publish its outcome durably."""
    match = _TASK_RE.match(name)
    token, epoch = int(match.group(1)), int(match.group(2))
    done = board / "done"
    outcome: Dict[str, Any]
    frozen = False
    t_claim = time.monotonic()
    partition_s = 0.0
    zombie = False
    try:
        with open(lease_path, "rb") as fh:
            payload = pickle.load(fh)
        fn, blocks, attempt, chaos, args = payload
        if isinstance(chaos, ChaosSpec):
            # Fleet chaos fires here, keyed by (chunk, epoch): these
            # kinds manipulate the *worker agent* (death, frozen
            # heartbeats, delayed publication), which before_chunk —
            # running inside the chunk sandbox — cannot reach.  A fault
            # aimed at any chunk of the task fires for the task.
            if any(chaos.worker_kill_fires(i, epoch) for i in blocks):
                os._exit(CHAOS_EXIT_CODE)
            hang_s = max(chaos.worker_hang_seconds(i, epoch) for i in blocks)
            partition_s = max(chaos.partition_seconds(i, epoch) for i in blocks)
            zombie = any(chaos.zombie_fires(i, epoch) for i in blocks)
            frozen = hang_s > 0 or partition_s > 0 or zombie
            if frozen:
                hb.pause()  # SIGSTOP-like: alive but invisible
            if hang_s > 0:
                time.sleep(hang_s)
        outcome = {"ok": _supervised_call((fn, blocks, attempt, chaos, args))}
    except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
        outcome = {"error": repr(exc)}
    outcome["worker"] = wid
    outcome["epoch"] = epoch
    if partition_s > 0:
        # Freeze board visibility for the full window: no heartbeat, no
        # publication, then let the (now stale-epoch) result land.
        remaining = partition_s - (time.monotonic() - t_claim)
        if remaining > 0:
            time.sleep(remaining)
    if zombie:
        _await_fence(board, token, epoch, timeout=max(10.0 * ttl, 2.0))
    tmp_path = done / f"{token:08d}.e{epoch:04d}.tmp.{wid}"
    # An OSError anywhere in the publish propagates with the lease kept:
    # the worker then exits and deregisters its heartbeat, so the
    # coordinator expires the lease and re-posts the chunk under a
    # bumped epoch instead of waiting for a result that may never land.
    with open(tmp_path, "wb") as fh:
        pickle.dump(outcome, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, done / _done_name(token, epoch))
    # Make the publication durable *before* dropping the lease: the
    # lease is the only evidence this chunk was claimed, so losing
    # the rename in a crash while the lease is already gone would
    # silently lose a completed result.
    fsync_dir(done)
    try:
        os.remove(lease_path)
    except OSError:  # coordinator expired the lease first; fine
        pass
    if frozen:
        hb.resume()


# --------------------------------------------------------------------------
# coordinator-side executor
# --------------------------------------------------------------------------


class FleetExecutor(Executor):
    """Heartbeat-leased fleet backend behind the ``Executor`` contract.

    Workers are anonymous peers that pull from the shared board; the
    coordinator never holds a process handle or a pid for them — every
    liveness decision reads heartbeat files, so the same code covers
    local subprocesses and agents on other machines.  ``spawn_workers``
    local agents are started on the first submission and kept until
    :meth:`close`, however many runs the owner drives through the
    executor; pass ``spawn_workers=0`` to rely purely on externally
    started ``repro worker`` processes.
    """

    name = "fleet"
    self_healing = True

    def __init__(
        self,
        workers: int,
        board_dir: Union[str, Path, None] = None,
        *,
        ttl: float = DEFAULT_WORKER_TTL,
        spawn_workers: Optional[int] = None,
        empty_fleet_deadline: Optional[float] = None,
        bench_threshold: int = DEFAULT_BENCH_THRESHOLD,
        bench_base_s: float = DEFAULT_BENCH_BASE_S,
        bench_max_s: float = DEFAULT_BENCH_MAX_S,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.capacity = workers
        self._workers = workers
        self.ttl = ttl
        self._spawn_target = workers if spawn_workers is None else spawn_workers
        self._empty_deadline = (
            max(2.0 * ttl, 10.0)
            if empty_fleet_deadline is None
            else empty_fleet_deadline
        )
        self._bench_threshold = bench_threshold
        self._bench_base_s = bench_base_s
        self._bench_max_s = bench_max_s
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if board_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            board_dir = self._tmp.name
        self.board = Path(board_dir)
        _ensure_board(self.board)
        # Same single-coordinator discipline (and exit path) as the
        # journal itself.
        self._lock = JournalLock(self.board / "board")
        try:
            self._lock.acquire()
        except Exception:
            self._cleanup_tmp()
            raise
        self._recover_board()
        self._procs: List[subprocess.Popen] = []
        self._spawn_seq = 0
        self._next_token = 0
        self._epochs: Dict[int, int] = {}  # token -> current (fenced) epoch
        self._payloads: Dict[int, bytes] = {}  # token -> pickled payload
        self._consec_fail: Dict[str, int] = {}
        self._bench_count: Dict[str, int] = {}
        self._no_worker_since: Optional[float] = None
        self._fleet_dead = False
        self._closed = False
        registry = obs_metrics.get_registry()
        # Pre-create the fleet metrics so snapshots always carry them,
        # zeros included (CI scrapes `zombie_results_rejected >= 0`).
        registry.gauge("repro.fleet.workers_alive").set(0)
        for counter in (
            "repro.fleet.lease_expiries",
            "repro.fleet.zombie_results_rejected",
            "repro.fleet.redispatch_epochs",
            "repro.fleet.workers_benched",
            "repro.fleet.empty_fleet_fallbacks",
        ):
            registry.counter(counter)

    # -- internals ---------------------------------------------------------

    def _cleanup_tmp(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _recover_board(self) -> None:
        """Clear task state a crashed coordinator left behind.

        Token numbering restarts at 0 per coordinator, so stale todo /
        lease / done files from a previous run would otherwise alias
        this run's tokens.  Heartbeats are *not* touched — external
        workers attached to the board stay registered.
        """
        removed = 0
        stop_flag = self.board / _STOP_NAME
        if stop_flag.exists():
            stop_flag.unlink()
            removed += 1
        for sub in ("todo", "leases", "done"):
            for entry in (self.board / sub).iterdir():
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - cleanup race
                    pass
        for entry in (self.board / _WORKERS_DIRNAME).iterdir():
            if entry.name.endswith(_BENCH_SUFFIX):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - cleanup race
                    pass
        if removed:
            trace.event(
                "fleet_board_recovered",
                board=str(self.board),
                files_removed=removed,
            )

    def _spawn_one(self) -> subprocess.Popen:
        self._spawn_seq += 1
        wid = f"local-{os.getpid()}-{self._spawn_seq}"
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--board",
                str(self.board),
                "--ttl",
                str(self.ttl),
                "--worker-id",
                wid,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _ensure_spawned(self) -> None:
        if self._closed or self._fleet_dead:
            return
        while len(self._procs) < self._spawn_target:
            self._procs.append(self._spawn_one())

    def _reap_spawned(self) -> None:
        """Replace spawned agents that exited (convenience management only).

        This is process babysitting for *locally spawned* agents — not
        failure detection.  A dead agent's in-flight lease is recovered
        by heartbeat expiry exactly as for a remote worker.
        """
        live = [p for p in self._procs if p.poll() is None]
        if len(live) != len(self._procs):
            self._procs = live
            self._ensure_spawned()

    def _post_task(self, token: int, epoch: int) -> None:
        name = _task_name(token, epoch)
        tmp_path = self.board / "todo" / (name + ".tmp")
        with open(tmp_path, "wb") as fh:
            fh.write(self._payloads[token])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self.board / "todo" / name)

    def _fresh_workers(self) -> Set[str]:
        """Worker ids with a heartbeat younger than the TTL."""
        fresh: Set[str] = set()
        now = time.time()
        workers_dir = self.board / _WORKERS_DIRNAME
        try:
            names = os.listdir(workers_dir)
        except FileNotFoundError:  # pragma: no cover - board torn down
            names = []
        for name in names:
            if not name.endswith(_HB_SUFFIX):
                continue
            try:
                age = now - os.stat(workers_dir / name).st_mtime
            except OSError:
                continue  # renewed (replaced) mid-scan
            if age <= self.ttl:
                fresh.add(name[: -len(_HB_SUFFIX)])
        obs_metrics.get_registry().gauge("repro.fleet.workers_alive").set(
            len(fresh)
        )
        return fresh

    def _drain_done(self) -> List[Completion]:
        completions: List[Completion] = []
        registry = obs_metrics.get_registry()
        done_dir = self.board / "done"
        for entry in sorted(done_dir.iterdir()):
            match = _DONE_RE.match(entry.name)
            if match is None:
                continue
            token, epoch = int(match.group(1)), int(match.group(2))
            try:
                with open(entry, "rb") as fh:
                    outcome = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                # Done-files land by atomic rename, so this is corrupt
                # or foreign, not in-flight: discard it and re-dispatch
                # the chunk under a fresh epoch (recompute == replay).
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
                if self._epochs.get(token) == epoch:
                    self._epochs[token] = epoch + 1
                    try:
                        self._post_task(token, epoch + 1)
                        registry.counter("repro.fleet.redispatch_epochs").inc()
                    except OSError:  # pragma: no cover - board torn down
                        pass
                continue
            entry.unlink()
            worker = outcome.get("worker", "?")
            if self._epochs.get(token) != epoch:
                # Zombie: the lease was declared expired and the chunk
                # re-dispatched under a bumped epoch (or abandoned /
                # restarted away).  First-valid-epoch-wins: the stale
                # result is rejected *before* any journal append.
                registry.counter("repro.fleet.zombie_results_rejected").inc()
                trace.event(
                    "fleet_zombie_rejected",
                    token=token,
                    epoch=epoch,
                    current_epoch=self._epochs.get(token),
                    worker=worker,
                )
                continue
            self._epochs.pop(token, None)
            self._payloads.pop(token, None)
            if "ok" in outcome:
                self._consec_fail[worker] = 0
                completions.append(Completion(token=token, result=outcome["ok"]))
            else:
                self._charge_worker_failure(worker)
                completions.append(
                    Completion(token=token, error=outcome.get("error", "?"))
                )
        return completions

    def _charge_worker_failure(self, worker: str) -> None:
        """Bench a failure domain after N consecutive failed chunks."""
        fails = self._consec_fail.get(worker, 0) + 1
        self._consec_fail[worker] = fails
        if fails < self._bench_threshold:
            return
        benched_before = self._bench_count.get(worker, 0)
        backoff = min(
            self._bench_max_s, self._bench_base_s * (2.0 ** benched_before)
        )
        self._bench_count[worker] = benched_before + 1
        self._consec_fail[worker] = 0
        bench = self.board / _WORKERS_DIRNAME / (worker + _BENCH_SUFFIX)
        try:
            _atomic_json(
                bench,
                {
                    "schema": 1,
                    "worker": worker,
                    "until": time.time() + backoff,
                    "backoff_s": backoff,
                    "consecutive_failures": fails,
                },
            )
        except OSError:  # pragma: no cover - board torn down
            return
        obs_metrics.get_registry().counter("repro.fleet.workers_benched").inc()
        trace.event(
            "fleet_worker_benched",
            worker=worker,
            backoff_s=backoff,
            consecutive_failures=fails,
        )

    def _expire_leases(self, fresh: Set[str]) -> None:
        """Re-dispatch chunks whose holder's heartbeat went stale."""
        registry = obs_metrics.get_registry()
        for entry in sorted((self.board / "leases").iterdir()):
            match = _LEASE_RE.match(entry.name)
            if match is None:
                continue
            token, epoch = int(match.group(1)), int(match.group(2))
            worker = match.group(3)
            if worker in fresh:
                continue
            # Stale heartbeat: declare the lease expired.  The holder
            # may be alive behind a partition — its eventual result is
            # fenced off by the epoch bump below.
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - holder raced a cleanup
                continue
            if self._epochs.get(token) != epoch:
                continue  # already fenced (abandon/restart)
            registry.counter("repro.fleet.lease_expiries").inc()
            new_epoch = epoch + 1
            self._epochs[token] = new_epoch
            trace.event(
                "fleet_lease_expired",
                token=token,
                epoch=epoch,
                worker=worker,
                new_epoch=new_epoch,
            )
            try:
                self._post_task(token, new_epoch)
            except OSError:  # pragma: no cover - board torn down
                continue
            registry.counter("repro.fleet.redispatch_epochs").inc()

    def _maybe_local_drain(self, fresh: Set[str]) -> List[Completion]:
        """Empty-fleet degradation: loud, then drain chunks in-process.

        The campaign must complete even if no worker ever heartbeats
        (agents were never started, all crashed, or the shared mount is
        gone).  After ``empty_fleet_deadline`` seconds with outstanding
        work and zero fresh heartbeats, warn once and start executing
        pending chunks in the coordinator process — results are
        deterministic, so the degraded path is bit-identical.
        """
        if not self._epochs:
            self._no_worker_since = None
            return []
        if fresh and not self._fleet_dead:
            self._no_worker_since = None
            return []
        now = time.monotonic()
        if not self._fleet_dead:
            if self._no_worker_since is None:
                self._no_worker_since = now
                return []
            if now - self._no_worker_since < self._empty_deadline:
                return []
            self._fleet_dead = True
            obs_metrics.get_registry().counter(
                "repro.fleet.empty_fleet_fallbacks"
            ).inc()
            trace.event(
                "fleet_no_workers",
                board=str(self.board),
                deadline_s=self._empty_deadline,
                pending=len(self._epochs),
            )
            from .supervisor import ResilienceWarning

            warnings.warn(
                f"no fleet worker heartbeat within {self._empty_deadline:g}s "
                f"on {self.board}; draining the remaining chunks in-process",
                ResilienceWarning,
                stacklevel=4,
            )
        # One chunk per poll keeps the coordinator loop responsive (a
        # late-arriving fleet still gets the remaining work).
        token = min(self._epochs)
        epoch = self._epochs.pop(token)
        payload_bytes = self._payloads.pop(token)
        for name in (_task_name(token, epoch),):
            try:
                (self.board / "todo" / name).unlink()
            except OSError:
                pass  # claimed or already gone; epoch fencing covers it
        try:
            result = _supervised_call(pickle.loads(payload_bytes))
        except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
            return [Completion(token=token, error=repr(exc))]
        return [Completion(token=token, result=result)]

    def _poll_once(self) -> List[Completion]:
        completions = self._drain_done()
        fresh = self._fresh_workers()
        self._expire_leases(fresh)
        self._reap_spawned()
        completions.extend(self._maybe_local_drain(fresh))
        return completions

    # -- Executor interface ------------------------------------------------

    def submit(self, payload: tuple) -> int:
        self._ensure_spawned()
        token = self._next_token
        self._next_token += 1
        self._payloads[token] = pickle.dumps(payload)
        self._epochs[token] = 0
        self._post_task(token, 0)
        return token

    def poll(self, timeout: float) -> List[Completion]:
        deadline = time.monotonic() + timeout
        while True:
            completions = self._poll_once()
            if completions or time.monotonic() >= deadline:
                return completions
            time.sleep(_CLAIM_POLL_S)

    def abandon(self, token: int) -> bool:
        epoch = self._epochs.get(token)
        if epoch is None:
            return False  # finished (or finishing): let poll() deliver it
        # Fence first: whatever lands for this token from now on is a
        # zombie.  Workers cannot be killed across hosts — eviction is
        # "your result will be rejected", which is all fencing needs.
        self._epochs.pop(token, None)
        self._payloads.pop(token, None)
        try:
            (self.board / "todo" / _task_name(token, epoch)).unlink()
        except OSError:
            pass
        for entry in list((self.board / "leases").iterdir()):
            match = _LEASE_RE.match(entry.name)
            if match is not None and int(match.group(1)) == token:
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - holder raced cleanup
                    pass
        return True

    def restart(self) -> List[int]:
        self._stop_spawned()
        for sub in ("todo", "leases", "done"):
            for entry in (self.board / sub).iterdir():
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
        lost = list(self._epochs)
        self._epochs.clear()
        self._payloads.clear()
        stop_flag = self.board / _STOP_NAME
        if stop_flag.exists():
            stop_flag.unlink()
        return lost

    def _stop_spawned(self) -> None:
        """Drain locally spawned agents (external workers are untouched)."""
        if not self._procs:
            return
        stop_flag = self.board / _STOP_NAME
        stop_flag.touch()
        for proc in self._procs:
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already dead
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung agent
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs = []
        try:
            stop_flag.unlink()
        except OSError:  # pragma: no cover - cleanup race
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_spawned()
        self._epochs.clear()
        self._payloads.clear()
        self._lock.release()
        self._cleanup_tmp()


# --------------------------------------------------------------------------
# doctor: board audit and repair
# --------------------------------------------------------------------------


def audit_board(
    path: Union[str, Path], *, ttl: float = DEFAULT_WORKER_TTL
) -> Dict[str, Any]:
    """Audit one fleet board directory (machine-readable).

    Reports, without mutating anything: registered workers and their
    heartbeat ages, orphaned leases (holder's heartbeat stale or
    missing), torn ``*.tmp.*`` files, epoch-mismatched entries (a
    token present under more than one epoch — stale zombies), and a
    leftover ``STOP`` flag.  ``healthy`` is true when none of those
    defects are present.
    """
    board = Path(path)
    now = time.time()
    report: Dict[str, Any] = {
        "path": str(board),
        "kind": "board",
        "ttl": ttl,
        "workers": [],
        "counts": {},
        "orphaned_leases": [],
        "torn_tmp": [],
        "epoch_mismatches": [],
        "stop_flag": (board / _STOP_NAME).exists(),
        "lock": probe_lock(board / "board"),
    }
    fresh: Set[str] = set()
    workers_dir = board / _WORKERS_DIRNAME
    if workers_dir.is_dir():
        for entry in sorted(workers_dir.iterdir()):
            if entry.name.endswith(_HB_SUFFIX):
                try:
                    age = now - entry.stat().st_mtime
                except OSError:  # pragma: no cover - renewed mid-scan
                    continue
                worker = entry.name[: -len(_HB_SUFFIX)]
                is_fresh = age <= ttl
                if is_fresh:
                    fresh.add(worker)
                report["workers"].append(
                    {
                        "worker": worker,
                        "age_seconds": round(age, 3),
                        "fresh": is_fresh,
                        "benched": (
                            workers_dir / (worker + _BENCH_SUFFIX)
                        ).exists(),
                    }
                )
    max_epoch: Dict[int, int] = {}
    entries: List[tuple] = []  # (subdir, name, token, epoch)
    for sub, regex in (
        ("todo", _TASK_RE),
        ("leases", _LEASE_RE),
        ("done", _DONE_RE),
    ):
        sub_dir = board / sub
        names = sorted(os.listdir(sub_dir)) if sub_dir.is_dir() else []
        count = 0
        for name in names:
            if ".tmp." in name or name.endswith(".tmp"):
                report["torn_tmp"].append(f"{sub}/{name}")
                continue
            match = regex.match(name)
            if match is None:
                continue
            count += 1
            token, epoch = int(match.group(1)), int(match.group(2))
            entries.append((sub, name, token, epoch))
            max_epoch[token] = max(max_epoch.get(token, 0), epoch)
        report["counts"][sub] = count
    for sub, name, token, epoch in entries:
        if epoch < max_epoch[token]:
            report["epoch_mismatches"].append(
                {
                    "entry": f"{sub}/{name}",
                    "epoch": epoch,
                    "current_epoch": max_epoch[token],
                }
            )
        if sub == "leases":
            holder = _LEASE_RE.match(name).group(3)
            if holder not in fresh:
                report["orphaned_leases"].append(
                    {"entry": f"leases/{name}", "worker": holder}
                )
    report["coordinator_attached"] = bool(report["lock"].get("held"))
    report["healthy"] = not (
        report["orphaned_leases"]
        or report["torn_tmp"]
        or report["epoch_mismatches"]
        or (report["stop_flag"] and not report["coordinator_attached"])
    )
    return report


def repair_board(
    path: Union[str, Path], *, ttl: float = DEFAULT_WORKER_TTL
) -> Dict[str, Any]:
    """Heal a board: re-enqueue orphans safely, sweep torn/stale files.

    Orphaned leases are renamed back into ``todo/`` under a *bumped*
    epoch, so a not-actually-dead holder that later publishes is
    rejected as a zombie rather than double-counted.  Torn ``*.tmp.*``
    staging files, epoch-stale entries, expired heartbeats/benches, and
    a leftover ``STOP`` flag are removed.  Refuses to touch a board
    whose coordinator lock is held by a live process.
    """
    board = Path(path)
    actions: List[str] = []
    lock_state = probe_lock(board / "board")
    if bool(lock_state.get("held")):
        return {
            "path": str(board),
            "skipped": "coordinator holds the board lock",
            "actions": [],
        }
    audit = audit_board(board, ttl=ttl)
    for item in audit["orphaned_leases"]:
        sub, name = item["entry"].split("/", 1)
        match = _LEASE_RE.match(name)
        token, epoch = int(match.group(1)), int(match.group(2))
        target = board / "todo" / _task_name(token, epoch + 1)
        try:
            os.replace(board / sub / name, target)
            actions.append(f"re-enqueued {item['entry']} as todo/{target.name}")
        except OSError:  # pragma: no cover - raced an attaching coordinator
            continue
    # Re-audit epochs after the bumps so freshly re-enqueued epochs win.
    audit = audit_board(board, ttl=ttl)
    for entry in audit["torn_tmp"]:
        try:
            (board / entry).unlink()
            actions.append(f"removed torn {entry}")
        except OSError:  # pragma: no cover - cleanup race
            pass
    for item in audit["epoch_mismatches"]:
        try:
            (board / item["entry"]).unlink()
            actions.append(f"removed stale-epoch {item['entry']}")
        except OSError:  # pragma: no cover - cleanup race
            pass
    workers_dir = board / _WORKERS_DIRNAME
    if workers_dir.is_dir():
        now = time.time()
        for entry in sorted(workers_dir.iterdir()):
            stale_hb = entry.name.endswith(_HB_SUFFIX) and (
                now - entry.stat().st_mtime > ttl
            )
            if stale_hb or entry.name.endswith(_BENCH_SUFFIX):
                try:
                    entry.unlink()
                    actions.append(f"removed {_WORKERS_DIRNAME}/{entry.name}")
                except OSError:  # pragma: no cover - cleanup race
                    pass
    stop_flag = board / _STOP_NAME
    if stop_flag.exists():
        try:
            stop_flag.unlink()
            actions.append("removed leftover STOP flag")
        except OSError:  # pragma: no cover - cleanup race
            pass
    return {"path": str(board), "actions": actions}


__all__ = [
    "DEFAULT_WORKER_TTL",
    "FleetExecutor",
    "audit_board",
    "default_worker_id",
    "repair_board",
    "worker_main",
]
