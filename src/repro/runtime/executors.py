"""The two chunk executors behind the campaign coordinator.

:class:`~repro.runtime.supervisor.ChunkSupervisor` submits
:func:`_supervised_call` to a ``concurrent.futures.Executor`` and reads
the ``Future`` objects back.  Both executors here carry a ``capacity``,
the number of submissions worth having in flight at once:

* :class:`SerialExecutor` — runs each call in-process at submission and
  returns a finished future.  The executor for ``workers=1``, for a run
  of a single job, and for the rest of a run whose pool keeps dying;
  faults surface as typed exceptions (chaos crash/hang cannot kill the
  parent), so retries go through the same coordinator path as on the
  pool.
* :class:`PoolExecutor` — a ``ProcessPoolExecutor`` started on the first
  submission.  Worker death breaks the whole pool (``future.result()``
  raises ``BrokenProcessPool``): the coordinator calls
  :meth:`PoolExecutor.restart`, requeues the innocent in-flight chunks,
  and the next submission starts a fresh pool.

An executor belongs to whoever built it (:func:`make_executor`):
``run_campaign``, behind ``repro campaign``, builds one per campaign,
so every cell shares one pool, and shuts it down at the end.

Executors move *scheduling* only.  Chunk payloads carry their own
spawned ``SeedSequence`` and results are merged commutatively upstream,
so either executor, any worker count, and any completion order yields
bit-identical estimates.
"""

from __future__ import annotations

import concurrent.futures as cf
from typing import Any, Dict, Optional, Union


def _supervised_call(payload: tuple) -> Dict[str, Any]:
    """Worker entry point: apply chaos injection, then run the job.

    Module-level so it pickles; runs in worker processes (pool) or the
    parent (serial) — :meth:`ChaosSpec.before_chunk` adapts crash/hang
    semantics to whichever side it is on.  ``blocks`` is the range of
    chunk indices the submission holds.
    """
    fn, blocks, attempt, chaos, args = payload
    if chaos is not None:
        # A fault aimed at any chunk of a multi-chunk task fires in it.
        for chunk_index in blocks:
            chaos.before_chunk(chunk_index, attempt)
    return fn(args)


class SerialExecutor(cf.Executor):
    """Synchronous in-process execution: each call runs inside
    :meth:`submit`, whose future is already finished, with the call's
    exception (including a parent-side chaos stand-in) set on it.
    """

    capacity = 1

    def submit(self, fn, /, *args, **kwargs) -> cf.Future:
        future: cf.Future = cf.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
            future.set_exception(exc)
        return future


class PoolExecutor(cf.Executor):
    """A restartable ``ProcessPoolExecutor`` of ``workers`` processes.

    The process pool starts on the first submission and lives until
    :meth:`restart` or :meth:`shutdown`, so one executor serves every
    run its owner drives through it.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.capacity = workers
        self._pool: Optional[cf.ProcessPoolExecutor] = None

    def submit(self, fn, /, *args, **kwargs) -> cf.Future:
        if self._pool is None:
            self._pool = cf.ProcessPoolExecutor(max_workers=self.capacity)
        return self._pool.submit(fn, *args, **kwargs)

    def restart(self) -> None:
        """Kill the pool, hung workers included, and cancel its futures;
        the next submission starts a fresh pool."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Release the pool (idempotent): its workers are killed, not
        drained, because the owner shuts down only an idle executor."""
        self.restart()


def make_executor(workers: int = 1) -> Union[SerialExecutor, PoolExecutor]:
    """Serial for one worker, else a pool of ``workers``.

    The caller owns the executor and shuts it down (it is also a context
    manager).
    """
    return SerialExecutor() if workers == 1 else PoolExecutor(workers)
