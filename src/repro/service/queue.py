"""Persistent job queue journaled with the durable-state integrity layer.

The queue is an event-sourced append-only journal using the exact v2
framing of checkpoint journals (:mod:`repro.runtime.integrity`): every
line carries a CRC-32C and a SHA-256 hash-chain field, damage is
classified on load (torn tails truncated, mid-file corruption
quarantined to a sidecar), and an advisory
:class:`~repro.runtime.integrity.JournalLock` keeps two servers from
interleaving appends into one queue.

Record kinds::

    {"kind": "header", "queue_schema": 1}
    {"kind": "job",   "id", "seq", "tenant", "digest", "spec": {...}}
    {"kind": "state", "id", "state", "result_digest"?, "error"?,
     "cached"?}

Replaying the journal reconstructs every job; a job whose last recorded
state is ``running`` is reverted to ``queued`` — the run died with the
server, and because its Monte-Carlo chunks live in a per-digest
checkpoint journal, the re-run is a resume, not a recompute.  That is
the whole restart story: SIGKILL the server, start it again, and the
job finishes bit-identically.
"""

from __future__ import annotations

import errno
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..runtime.integrity import (
    CHAIN_SEED,
    JournalLock,
    frame_record,
    fsync_dir,
    rewrite_journal,
    scan_journal,
    write_quarantine,
)
from .protocol import JOB_STATES, Job, SpecError, parse_spec

QUEUE_SCHEMA = 1


class QueueError(RuntimeError):
    """The queue journal is unusable (not a damage classification)."""


class JobQueue:
    """Durable, replayable job store behind the scheduler.

    All mutation goes through :meth:`add` and :meth:`mark`; both append
    a framed record with ``flush`` + ``fsync`` before returning, so an
    acknowledged submission survives any crash.  Like the checkpoint
    journal, a failing disk degrades the queue to memory-only (loudly:
    counter, trace event, warning) instead of taking the server down
    mid-request.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Eager: a second server on the same state dir must fail at
        # startup (JournalLockedError -> exit 75), not at first append.
        self._lock = JournalLock(self.path).acquire()
        self._fh = None
        self._chain = CHAIN_SEED
        self._seq = 0
        self.jobs: Dict[str, Job] = {}
        #: Submission order (journal replay order) of job ids.
        self.order: List[str] = []
        self.records_quarantined = 0
        self.io_errors = 0
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        scan = scan_journal(self.path)
        if not scan.exists:
            return
        if scan.version == 1:
            raise QueueError(
                f"queue journal {self.path} is not a framed v2 file"
            )
        records = [record for _line_no, record in scan.records]
        if scan.mid_file:
            self._lock.acquire()
            write_quarantine(self.path, list(scan.mid_file), reason="load")
            rewrite_journal(self.path, records)
            self.records_quarantined = len(scan.mid_file)
            obs_metrics.get_registry().counter(
                "repro.service.queue_quarantined"
            ).inc(self.records_quarantined)
            trace.event(
                "queue_quarantine",
                journal=str(self.path),
                records=self.records_quarantined,
            )
        elif scan.torn_tail:
            self._lock.acquire()
            rewrite_journal(self.path, records)
        self._ingest(records)
        chain = CHAIN_SEED
        for record in records:
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            _line, chain = frame_record(payload, chain)
        self._chain = chain
        # A job the dead server left "running" is not running any more.
        # Re-queue it in memory only: its journal history stays truthful
        # (job -> running -> <crash>), and the next `mark(running)` is
        # the resume record.
        for job in self.jobs.values():
            if job.state == "running":
                job.state = "queued"

    def _ingest(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            kind = record.get("kind")
            if kind == "header":
                if record.get("queue_schema") != QUEUE_SCHEMA:
                    raise QueueError(
                        f"queue journal {self.path} has schema "
                        f"{record.get('queue_schema')!r}, expected "
                        f"{QUEUE_SCHEMA}"
                    )
            elif kind == "job":
                self._ingest_job(record)
            elif kind == "state":
                self._ingest_state(record)
            # Unknown kinds skip (forward compatibility).

    def _ingest_job(self, record: Dict[str, Any]) -> None:
        try:
            job_id = str(record["id"])
            seq = int(record["seq"])
            raw_spec = dict(record["spec"])
        except (KeyError, TypeError, ValueError):
            return  # wrong shape: skip rather than kill the server
        try:
            tenant, spec = parse_spec(raw_spec)
        except SpecError as exc:
            # A spec this build cannot parse (one naming a removed
            # engine, say) cannot be run; drop the job, but visibly.
            obs_metrics.get_registry().counter(
                "repro.service.queue_specs_skipped"
            ).inc()
            trace.event("queue_spec_skipped", job=job_id, error=str(exc))
            return
        job = Job(
            id=job_id, tenant=tenant, spec=spec, digest=spec.digest()
        )
        self.jobs[job_id] = job
        if job_id not in self.order:
            self.order.append(job_id)
        self._seq = max(self._seq, seq + 1)

    def _ingest_state(self, record: Dict[str, Any]) -> None:
        job = self.jobs.get(str(record.get("id")))
        state = record.get("state")
        if job is None or state not in JOB_STATES:
            return
        job.state = state
        if "result_digest" in record:
            job.result_digest = record["result_digest"]
        if "error" in record:
            job.error = record["error"]
        if record.get("cached"):
            job.cached = True

    # -- writing -----------------------------------------------------------

    def _open_for_append(self):
        if self._fh is None:
            self._lock.acquire()
            created = not self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            if created:
                fsync_dir(self.path.parent)
                self._append({"kind": "header", "queue_schema": QUEUE_SCHEMA})
        return self._fh

    def _append(self, record: Dict[str, Any]) -> None:
        if self.degraded:
            return
        try:
            fh = self._fh if self._fh is not None else self._open_for_append()
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            line, chain = frame_record(payload, self._chain)
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            self._chain = chain
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        self.io_errors += 1
        self.degraded = True
        self.degraded_reason = (
            f"{errno.errorcode.get(exc.errno, exc.errno)}: {exc}"
            if exc.errno
            else repr(exc)
        )
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        obs_metrics.get_registry().counter(
            "repro.service.queue_io_errors"
        ).inc()
        trace.event(
            "queue_io_error",
            journal=str(self.path),
            error=self.degraded_reason,
        )
        warnings.warn(
            f"queue journal {self.path}: write failed "
            f"({self.degraded_reason}); continuing in memory — submitted "
            "jobs will not survive a restart",
            _resilience_warning(),
            stacklevel=4,
        )

    # -- protocol ----------------------------------------------------------

    def add(self, tenant: str, spec, raw_spec: Dict[str, Any]) -> Job:
        """Persist a new job; the returned id is stable across restarts."""
        job_id = f"j{self._seq:08d}"
        job = Job(id=job_id, tenant=tenant, spec=spec, digest=spec.digest())
        self._append(
            {
                "kind": "job",
                "id": job_id,
                "seq": self._seq,
                "tenant": tenant,
                "digest": job.digest,
                "spec": raw_spec,
            }
        )
        self._seq += 1
        self.jobs[job_id] = job
        self.order.append(job_id)
        return job

    def mark(
        self,
        job: Job,
        state: str,
        *,
        result_digest: Optional[str] = None,
        error: Optional[str] = None,
        cached: bool = False,
    ) -> None:
        """Durably record a state transition (and mirror it in memory)."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        record: Dict[str, Any] = {"kind": "state", "id": job.id, "state": state}
        if result_digest is not None:
            record["result_digest"] = result_digest
        if error is not None:
            record["error"] = error
        if cached:
            record["cached"] = True
        self._append(record)
        job.state = state
        if result_digest is not None:
            job.result_digest = result_digest
        if error is not None:
            job.error = error
        if cached:
            job.cached = True

    def active_by_digest(self, digest: str) -> Optional[Job]:
        """The queued/running job for ``digest``, if any (for coalescing)."""
        for job_id in self.order:
            job = self.jobs[job_id]
            if job.digest == digest and job.state in ("queued", "running"):
                return job
        return None

    def queued_jobs(self) -> List[Job]:
        """Queued jobs in stable submission order."""
        return [
            self.jobs[job_id]
            for job_id in self.order
            if self.jobs[job_id].state == "queued"
        ]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._lock.release()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resilience_warning():
    from ..runtime.supervisor import ResilienceWarning

    return ResilienceWarning
