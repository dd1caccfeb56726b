"""Job scheduler: executor-tier dispatch with tenant caps and coalescing.

The scheduler owns the service's compute story:

* **one execution per fingerprint** — a submission whose digest matches
  a finished cache entry completes instantly (``cached``); one matching
  a queued/running job returns *that* job (``coalesced``), so a
  thundering herd of identical requests costs one campaign;
* **per-tenant concurrency caps** — worker threads claim queued jobs in
  submission order, skipping tenants already at their cap, so one
  tenant's burst cannot starve the rest;
* **executor tier** — each job runs through
  :func:`repro.simulator.campaign.run_campaign` with a
  :class:`~repro.runtime.RuntimeConfig` selecting the executor backend
  (serial / pool / fleet) the spec asked for; a chunk that fails every
  attempt fails the job with the chunk's last error;
* **restart resume** — batch jobs journal their chunks to a per-digest
  checkpoint journal under the state dir; after a crash the queue
  replays the job as ``queued`` and the re-run replays completed chunks
  bit-identically.

Cached results deliberately contain only deterministic fields (rows and
summary) — timing and throughput live in the metrics registry — so a
resumed run's cache entry is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..perf import PerfCounters
from ..runtime import CheckpointJournal, RuntimeConfig
from ..simulator.campaign import campaign_summary, run_campaign
from .cache import ResultCache
from .protocol import Job, parse_spec, rows_payload
from .queue import JobQueue


class SubmitOutcome:
    """What a submission resolved to: a fresh, coalesced, or cached job."""

    __slots__ = ("job", "cached", "coalesced", "state")

    def __init__(self, job: Job, cached: bool, coalesced: bool):
        self.job = job
        self.cached = cached
        self.coalesced = coalesced
        # Snapshotted under the queue lock: a worker thread may flip the
        # job to "running" before the caller serializes this outcome.
        self.state = job.state

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job.id,
            "fingerprint_digest": self.job.digest,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }


class CampaignScheduler:
    """Thread-pool scheduler over the durable queue and result cache."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        max_jobs: int = 2,
        tenant_cap: int = 1,
    ):
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        if tenant_cap < 1:
            raise ValueError(f"tenant_cap must be >= 1, got {tenant_cap}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.max_jobs = max_jobs
        self.tenant_cap = tenant_cap
        self.cache = ResultCache(self.state_dir / "cache")
        self.queue = JobQueue(self.state_dir / "queue.journal")
        self._cv = threading.Condition()
        self._running_by_tenant: Dict[str, int] = {}
        self._claimed: set = set()
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._trace_slot = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CampaignScheduler":
        """Start the worker threads (resumed jobs are already queued)."""
        for i in range(self.max_jobs):
            thread = threading.Thread(
                target=self._worker, name=f"repro-service-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._publish_depth()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting work and release the queue lock.

        In-flight jobs are abandoned mid-run (their ``running`` state
        reverts to ``queued`` on the next start — the crash-safe path is
        also the shutdown path).
        """
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self.queue.close()

    # -- submission --------------------------------------------------------

    def submit(self, payload: Any) -> SubmitOutcome:
        """Resolve a raw spec document to a job (raises ``SpecError``)."""
        tenant, spec = parse_spec(payload)
        digest = spec.digest()
        registry = obs_metrics.get_registry()
        with self._cv:
            active = self.queue.active_by_digest(digest)
            if active is not None:
                registry.counter("repro.service.jobs_coalesced").inc()
                trace.event(
                    "service_coalesced", job=active.id, digest=digest
                )
                return SubmitOutcome(active, cached=False, coalesced=True)
            entry = self.cache.get(digest)
            job = self.queue.add(tenant, spec, payload)
            registry.counter("repro.service.jobs_submitted").inc()
            if entry is not None:
                self.queue.mark(
                    job, "done", result_digest=digest, cached=True
                )
                self._cv.notify_all()
                self._publish_depth()
                return SubmitOutcome(job, cached=True, coalesced=False)
            self._cv.notify_all()
            self._publish_depth()
            return SubmitOutcome(job, cached=False, coalesced=False)

    # -- introspection -----------------------------------------------------

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._cv:
            return self.queue.jobs.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._cv:
            return [
                self.queue.jobs[job_id].status_dict()
                for job_id in self.queue.order
            ]

    def result_entry(self, job: Job) -> Optional[Dict[str, Any]]:
        """The verified cache entry backing a done job's result."""
        if job.result_digest is None:
            return None
        return self.cache.get(job.result_digest)

    def snapshots_since(
        self, job_id: str, cursor: int
    ) -> Tuple[List[Dict[str, Any]], str]:
        """New snapshot dicts past ``cursor`` plus the job's state."""
        with self._cv:
            job = self.queue.jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            return list(job.snapshots[cursor:]), job.state

    def wait(self, job_id: str, timeout: Optional[float] = None) -> str:
        """Block until the job reaches a terminal state; returns it."""
        with self._cv:
            self._cv.wait_for(
                lambda: self.queue.jobs[job_id].state in ("done", "failed")
                or self._stopping,
                timeout=timeout,
            )
            return self.queue.jobs[job_id].state

    # -- worker loop -------------------------------------------------------

    def _claimable(self) -> Optional[Job]:
        for job in self.queue.queued_jobs():
            if job.id in self._claimed:
                continue
            if (
                self._running_by_tenant.get(job.tenant, 0)
                >= self.tenant_cap
            ):
                continue
            return job
        return None

    def _worker(self) -> None:
        while True:
            with self._cv:
                job = None
                while not self._stopping:
                    job = self._claimable()
                    if job is not None:
                        break
                    self._cv.wait(timeout=0.2)
                if self._stopping or job is None:
                    return
                self._claimed.add(job.id)
                self._running_by_tenant[job.tenant] = (
                    self._running_by_tenant.get(job.tenant, 0) + 1
                )
                self.queue.mark(job, "running")
                self._publish_depth()
            try:
                self._run(job)
            finally:
                with self._cv:
                    self._claimed.discard(job.id)
                    self._running_by_tenant[job.tenant] -= 1
                    self._publish_depth()
                    self._cv.notify_all()

    def _publish_depth(self) -> None:
        registry = obs_metrics.get_registry()
        registry.gauge("repro.service.queue_depth").set(
            len(self.queue.queued_jobs())
        )
        registry.gauge("repro.service.jobs_running").set(
            sum(self._running_by_tenant.values())
        )

    # -- execution ---------------------------------------------------------

    def _chunk_journal_path(self, digest: str) -> Path:
        return self.state_dir / "chunks" / f"{digest}.journal"

    def _on_snapshot(self, job: Job, snap) -> None:
        record = snap.as_dict()
        with self._cv:
            record["seq"] = len(job.snapshots)
            job.snapshots.append(record)
            self._cv.notify_all()

    def _run(self, job: Job) -> None:
        registry = obs_metrics.get_registry()
        spec = job.spec
        counters = PerfCounters()
        journal = None
        collector = None
        traced = self._trace_slot.acquire(blocking=False)
        if traced:
            collector = trace.TraceCollector()
        try:
            batch = spec.engine != "reference"
            job.engine_resolved = "batch" if batch else "reference"
            if batch:
                journal = CheckpointJournal(
                    self._chunk_journal_path(job.digest)
                )
                runtime = RuntimeConfig(
                    journal=journal,
                    executor=spec.executor,
                    stop=spec.stop,
                    on_snapshot=lambda snap: self._on_snapshot(job, snap),
                )
            else:
                runtime = None
            context = (
                trace.use_collector(collector)
                if collector is not None
                else contextlib.nullcontext()
            )
            with context:
                with trace.span(
                    "service_job",
                    job=job.id,
                    tenant=job.tenant,
                    digest=job.digest,
                ):
                    rows = run_campaign(
                        list(spec.cells),
                        n=spec.n,
                        k=spec.k,
                        m=spec.m,
                        t_end_hours=spec.t_end_hours,
                        trials=spec.trials,
                        base_seed=spec.seed,
                        engine=spec.engine,
                        workers=spec.workers,
                        chunk_size=spec.chunk_size,
                        counters=counters,
                        runtime=runtime,
                    )
            # Publish the trace before the terminal state: a client that
            # polls "done" must be able to fetch /trace immediately.
            if collector is not None:
                job.trace_records = collector.records()
            if journal is not None:
                job.kernel_seconds = journal.chunk_kernel_seconds()
            result = {
                "schema": 1,
                "rows": rows_payload(rows),
                "summary": {
                    arrangement: list(counts)
                    for arrangement, counts in campaign_summary(rows).items()
                },
            }
            self.cache.put(spec.fingerprint(), result)
            with self._cv:
                self.queue.mark(job, "done", result_digest=job.digest)
                self._cv.notify_all()
            registry.counter("repro.service.jobs_completed").inc()
        except Exception as exc:  # noqa: BLE001 - a job must not kill the server
            trace.event("service_job_failed", job=job.id, error=str(exc))
            if collector is not None:
                job.trace_records = collector.records()
            with self._cv:
                self.queue.mark(
                    job, "failed", error=f"{type(exc).__name__}: {exc}"
                )
                self._cv.notify_all()
            registry.counter("repro.service.jobs_failed").inc()
        finally:
            if journal is not None:
                journal.close()
            counters.publish(registry)
            if traced:
                self._trace_slot.release()
