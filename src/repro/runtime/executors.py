"""Pluggable chunk executors behind the campaign coordinator.

:class:`~repro.runtime.supervisor.ChunkSupervisor` is a coordinator
that speaks a small asynchronous interface — :class:`Executor` — with
two implementations:

* :class:`SerialExecutor` — synchronous in-process execution.  The
  executor for ``workers=1``, for a run of a single job, and for the
  rest of a run whose pool keeps dying; faults surface as typed
  exceptions (chaos crash/hang cannot kill the parent), so retries go
  through the same coordinator path as on the pool.
* :class:`PoolExecutor` — the ``ProcessPoolExecutor`` path, started on
  the first submission.  Worker death breaks the whole pool
  (``BrokenProcessPool``): the coordinator tears it down, requeues the
  innocent in-flight chunks, and the next submission starts a fresh
  pool.

An executor belongs to whoever built it (:func:`make_executor`):
``repro campaign`` builds one per campaign, so every cell shares one
pool, and closes it at the end.

Executors move *scheduling* only.  Chunk payloads carry their own
spawned ``SeedSequence`` and results are merged commutatively upstream,
so any executor, any worker count, and any completion order yields
bit-identical estimates.
"""

from __future__ import annotations

import concurrent.futures as cf
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Executor names accepted by :func:`make_executor` (and ``--executor``).
EXECUTOR_NAMES = ("serial", "pool")


def _supervised_call(payload: tuple) -> Dict[str, Any]:
    """Worker entry point: apply chaos injection, then run the executor.

    Module-level so it pickles; runs in worker processes (pool mode)
    or the parent (serial mode) — :meth:`ChaosSpec.before_chunk`
    adapts crash/hang semantics to whichever side it is on.  ``blocks``
    is the range of chunk indices the submission holds.
    """
    fn, blocks, attempt, chaos, args = payload
    if chaos is not None:
        # A fault aimed at any chunk of a multi-chunk task fires in it.
        for chunk_index in blocks:
            chaos.before_chunk(chunk_index, attempt)
    return fn(args)


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


@dataclass(frozen=True)
class Completion:
    """One finished (or failed) submission, as reported by an executor."""

    token: int
    result: Optional[Dict[str, Any]] = None
    #: ``repr()`` of the in-chunk exception, if the attempt failed.
    error: Optional[str] = None
    #: True when the *worker* died (crash-equivalent), not the chunk code;
    #: the coordinator then restarts the executor.
    broken: bool = False


class Executor:
    """Asynchronous chunk-execution backend driven by the coordinator.

    The contract is deliberately small: ``submit`` returns an opaque
    integer token, ``poll`` reports completions observed since the last
    call, ``abandon`` optionally cancels one submission in place, and
    ``restart`` is the big hammer — tear everything down, report which
    tokens were lost so the coordinator can requeue them unpenalized.
    """

    #: Maximum concurrently useful submissions.
    capacity: int = 1

    def submit(self, payload: tuple) -> int:
        raise NotImplementedError

    def poll(self, timeout: float) -> List[Completion]:
        raise NotImplementedError

    def abandon(self, token: int) -> bool:
        """Try to cancel one submission; False means "restart me instead"."""
        return False

    def restart(self) -> List[int]:
        """Hard-restart the backend; returns tokens whose work was lost."""
        return []

    def close(self) -> None:
        """Release every resource (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Synchronous in-process execution: the ``workers=1`` path, every
    single-job run, and the rest of a run whose pool keeps dying.

    ``submit`` runs the payload immediately and buffers the completion;
    ``poll`` drains the buffer.  Chunk exceptions (including parent-side
    chaos stand-ins) become error completions — the coordinator's retry
    machinery is identical to the pooled paths.
    """

    capacity = 1

    def __init__(self) -> None:
        self._next_token = 0
        self._done: List[Completion] = []

    def submit(self, payload: tuple) -> int:
        token = self._next_token
        self._next_token += 1
        try:
            result = _supervised_call(payload)
        except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
            self._done.append(Completion(token=token, error=repr(exc)))
        else:
            self._done.append(Completion(token=token, result=result))
        return token

    def poll(self, timeout: float) -> List[Completion]:
        done, self._done = self._done, []
        return done


class PoolExecutor(Executor):
    """The classic ``ProcessPoolExecutor`` backend.

    The process pool starts on the first submission and lives until
    :meth:`restart` or :meth:`close`, so one executor serves every run
    its owner drives through it.  A dead worker breaks the whole pool,
    every completion during the break reports ``broken=True``, and the
    coordinator calls :meth:`restart` (which also surrenders
    finished-but-unpolled work for recomputation — results are
    deterministic, so recompute equals replay).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.capacity = workers
        self._workers = workers
        self._pool: Optional[cf.ProcessPoolExecutor] = None
        self._next_token = 0
        self._futures: Dict[cf.Future, int] = {}

    def _ensure_pool(self) -> cf.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = cf.ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def submit(self, payload: tuple) -> int:
        token = self._next_token
        self._next_token += 1
        future = self._ensure_pool().submit(_supervised_call, payload)
        self._futures[future] = token
        return token

    def poll(self, timeout: float) -> List[Completion]:
        if not self._futures:
            return []
        done, _ = cf.wait(
            set(self._futures), timeout=timeout, return_when=cf.FIRST_COMPLETED
        )
        completions: List[Completion] = []
        for future in done:
            token = self._futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                completions.append(Completion(token=token, broken=True))
            except Exception as exc:  # noqa: BLE001 - chunk boundary
                completions.append(Completion(token=token, error=repr(exc)))
            else:
                completions.append(Completion(token=token, result=result))
        return completions

    def abandon(self, token: int) -> bool:
        for future, tok in list(self._futures.items()):
            if tok == token:
                if future.cancel():
                    del self._futures[future]
                    return True
                return False  # already running: only a pool restart helps
        return False

    def _kill_pool(self) -> None:
        """Tear the pool down hard, including hung worker processes."""
        pool = self._pool
        if pool is None:
            return
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:  # pragma: no cover - interpreter internals moved
            processes = []
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - cancel_futures needs 3.9
            pool.shutdown(wait=False)
        self._pool = None

    def restart(self) -> List[int]:
        lost = list(self._futures.values())
        self._futures.clear()
        self._kill_pool()
        return lost

    def close(self) -> None:
        self._futures.clear()
        self._kill_pool()


def make_executor(name: str, workers: int = 1) -> Executor:
    """Build an executor by CLI name (``auto|serial|pool``).

    ``auto`` is serial for one worker, else a pool of ``workers``.  The
    caller owns the executor and closes it (it is also a context
    manager).
    """
    if name == "auto":
        name = "serial" if workers == 1 else "pool"
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return PoolExecutor(workers)
    raise ValueError(
        f"unknown executor {name!r}: expected 'auto' or one of {EXECUTOR_NAMES}"
    )
