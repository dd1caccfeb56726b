"""Resilient campaign runtime: checkpointing, supervision, chaos.

The Monte-Carlo layer treats the *analysis infrastructure itself* as a
reliability problem: long campaigns must survive worker crashes, hangs,
poisoned batch chunks, and operator interrupts without discarding
completed trials — the same fault classes the paper's memories model.

Public surface:

* :class:`CheckpointJournal` — append-only JSONL journal of completed
  chunks; resuming replays journaled chunks for bit-identical results.
* :class:`ChunkSupervisor` / :class:`RetryPolicy` — supervised chunk
  dispatch with per-chunk timeouts, bounded exponential-backoff
  retries and serial degradation; a chunk that fails every attempt
  raises :class:`ChunkFailedError`.
* :class:`SerialExecutor` / :class:`PoolExecutor`
  (:mod:`repro.runtime.executors`) — the two ``concurrent.futures``
  executors the coordinator drives: serial in-process and a restartable
  ``ProcessPoolExecutor`` pool.  :func:`make_executor` builds the one
  for a worker count; its caller owns it for the whole campaign and
  shuts it down.
* :class:`ChaosSpec` / :func:`parse_chaos_spec` — deterministic
  crash/hang/poison/slow injection to prove the above under test
  (``poison`` exercises the fail-loud path).
* :class:`RuntimeConfig` — the bundle threaded through
  ``simulate_fail_probability_batched`` and ``run_campaign``.
* :func:`build_manifest` / :func:`write_manifest` — machine-readable
  provenance records for campaign runs.
* :mod:`repro.runtime.integrity` — framed (CRC + hash chain) v3
  journals, refusal of every other format, damage quarantine, advisory
  locking, and the audit/repair engine behind ``repro doctor``.
"""

from __future__ import annotations

import concurrent.futures as cf
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from ..obs.progress import ProgressEvent, ProgressTracker
from ..stats import BerSnapshot, StoppingRule
from .chaos import (
    CHAOS_EXIT_CODE,
    ChaosCrashError,
    ChaosError,
    ChaosHangError,
    ChaosPoisonError,
    ChaosSpec,
    chaos_from_arg,
    parse_chaos_spec,
)
from .checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    seed_key,
)
from .integrity import (
    LOCK_CONTENTION_EXIT_CODE,
    STATE_LOST_EXIT_CODE,
    IntegrityError,
    JournalLock,
    JournalLockedError,
    atomic_write,
    audit_journal,
    audit_path,
    repair_journal,
    scan_journal,
)
from .executors import PoolExecutor, SerialExecutor, make_executor
from .manifest import build_manifest, git_describe, write_manifest
from .supervisor import (
    CHUNK_FAILED_EXIT_CODE,
    CHUNK_KERNEL_METRIC,
    CHUNK_LATENCY_METRIC,
    ChunkFailedError,
    ChunkSupervisor,
    ResilienceWarning,
    RetryPolicy,
    SupervisorEvent,
)


@dataclass
class RuntimeConfig:
    """Resilience options threaded through the Monte-Carlo entry points.

    ``None`` members disable the corresponding feature; the default
    config (all ``None``/defaults) reproduces plain supervised execution
    with bounded retries and no journaling or chaos.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chunk_timeout: Optional[float] = None
    chaos: Optional[ChaosSpec] = None
    journal: Optional[CheckpointJournal] = None

    #: The executor every cell's tasks go through, built and shut down
    #: by the caller (:func:`make_executor`); ``None`` lets the entry
    #: point build one (serial for one worker, else a pool) once for its
    #: whole run and shut it down when done.
    executor: Optional[cf.Executor] = None
    #: Adaptive early-stopping rule (``--stop-rel-ci``); ``None`` runs the
    #: full trial budget.
    stop: Optional[StoppingRule] = None
    #: Called with each incremental :class:`~repro.stats.BerSnapshot` as
    #: chunks land (the CLI's streaming BER±CI renderer).
    on_snapshot: Optional[Callable[[BerSnapshot], None]] = None

    #: Campaign-wide progress tracker; chunk completions (including
    #: journal-resumed replays) advance it and emit heartbeat events.
    progress: Optional[ProgressTracker] = None
    #: Called with each heartbeat :class:`~repro.obs.progress.ProgressEvent`
    #: (the CLI's ``--progress`` renderer). Requires ``progress``.
    on_progress: Optional[Callable[[ProgressEvent], None]] = None

    #: Supervisor events accumulated across cells (filled during runs).
    events: list = field(default_factory=list)

    @contextmanager
    def with_executor(self, workers: int) -> Iterator["RuntimeConfig"]:
        """This config with an executor to run on, for one ``with`` block.

        A config that carries one passes through (its owner shuts it
        down); otherwise a copy (sharing ``events``) gets
        :func:`make_executor` for ``workers``, shared by every run in the
        block and shut down at its end.
        """
        if self.executor is not None:
            yield self
            return
        with make_executor(workers) as executor:
            yield replace(self, executor=executor)


__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosCrashError",
    "ChaosError",
    "ChaosHangError",
    "ChaosPoisonError",
    "ChaosSpec",
    "chaos_from_arg",
    "parse_chaos_spec",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "seed_key",
    "LOCK_CONTENTION_EXIT_CODE",
    "STATE_LOST_EXIT_CODE",
    "IntegrityError",
    "JournalLock",
    "JournalLockedError",
    "atomic_write",
    "audit_journal",
    "audit_path",
    "repair_journal",
    "scan_journal",
    "build_manifest",
    "git_describe",
    "write_manifest",
    "PoolExecutor",
    "SerialExecutor",
    "make_executor",
    "BerSnapshot",
    "StoppingRule",
    "CHUNK_FAILED_EXIT_CODE",
    "CHUNK_KERNEL_METRIC",
    "CHUNK_LATENCY_METRIC",
    "ChunkFailedError",
    "ChunkSupervisor",
    "ResilienceWarning",
    "RetryPolicy",
    "SupervisorEvent",
    "RuntimeConfig",
]
