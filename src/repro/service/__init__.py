"""Campaign service layer: the multi-tenant job API over the runtime.

Seven PRs of runtime plumbing (vectorized engines, checkpoint journals,
supervision, executors, streaming statistics, scenario catalog) end in a
one-shot CLI; this package turns them into a *product surface* — the
ROADMAP's "millions of users" refactor.  The paper's product is a table
of BER-vs-arrangement answers, and identical questions deserve one
computation:

* :mod:`repro.service.protocol` — the wire protocol: campaign-spec
  JSON parsing/validation (:func:`parse_spec`), job states, and the
  single canonicalization shared with journals
  (:func:`repro.simulator.campaign.fingerprint_digest`).
* :mod:`repro.service.cache` — content-addressed result cache keyed by
  the SHA-256 of the canonical campaign fingerprint.  Entries are
  written atomically, self-verifying (embedded body hash), and laid out
  for audit; identical requests are served from cache instead of
  recomputed.
* :mod:`repro.service.queue` — persistent job queue journaled with the
  PR 5 integrity framing (CRC-32C + hash chain, quarantine,
  :class:`~repro.runtime.integrity.JournalLock`); queued and running
  jobs survive server restarts, running jobs re-queue and resume from
  their per-digest chunk journals bit-identically.
* :mod:`repro.service.scheduler` — dispatches jobs onto the runtime's
  executor tier (serial/pool/fleet) with per-tenant concurrency caps
  and coalesces concurrent submissions of one fingerprint into a single
  execution.
* :mod:`repro.service.app` — the asyncio HTTP/JSON API (stdlib only):
  submit -> job id, poll status, stream incremental
  :class:`~repro.stats.BerSnapshot` lines as NDJSON, fetch final
  results, scrape ``/metrics`` (Prometheus text format), export per-job
  traces.
"""

from __future__ import annotations

from .app import ServiceApp, ServiceServer, start_in_thread
from .cache import CACHE_SCHEMA, ResultCache
from .protocol import (
    JOB_STATES,
    CampaignSpec,
    Job,
    SpecError,
    parse_spec,
    rows_payload,
)
from .queue import QUEUE_SCHEMA, JobQueue
from .scheduler import CampaignScheduler, SubmitOutcome

__all__ = [
    "CACHE_SCHEMA",
    "CampaignScheduler",
    "CampaignSpec",
    "Job",
    "JobQueue",
    "JOB_STATES",
    "QUEUE_SCHEMA",
    "ResultCache",
    "ServiceApp",
    "ServiceServer",
    "SpecError",
    "SubmitOutcome",
    "parse_spec",
    "rows_payload",
    "start_in_thread",
]
