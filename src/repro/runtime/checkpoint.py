"""Append-only chunk-level checkpoint journal for Monte-Carlo campaigns.

Long campaigns at near-paper rates are hours of work; a Ctrl-C or an
OOM-killed process must not discard completed trials.  The journal is a
line-oriented file with one record per line:

* a single ``header`` record carrying a campaign *fingerprint* — every
  parameter the estimates depend on (code geometry, rates, horizon,
  trials, chunk size, seed entropy, engine, cell matrix).  Resuming
  against a journal whose fingerprint differs raises
  :class:`CheckpointMismatchError` instead of silently merging
  incompatible trials.
* one ``chunk`` record per completed chunk, keyed by
  ``(cell, chunk_index, seed_entropy/spawn_key)`` and carrying the
  chunk's result payload (failures, outcome counts, perf counters).

Every line is *framed* (:mod:`repro.runtime.integrity`, format v3): a
CRC-32C over the JSON payload plus a SHA-256 chain field linking each
line to its predecessor.  On load, damage is classified — a torn
trailing line (the append an interrupt cut short) is truncated and
tolerated, while mid-file corruption is moved to a ``.quarantine``
sidecar and the affected chunks are simply recomputed on resume.
Because chunk seeds come from ``SeedSequence.spawn`` and aggregation is
a commutative sum, a resume that replays the surviving chunks and
recomputes the quarantined ones is still bit-identical to an
uninterrupted run.  A file in any other format (an older journal, or
no journal at all) raises :class:`CheckpointError` and is left
byte-identical: it is never read, rewritten or quarantined.

Records are appended with ``flush`` + ``fsync`` the moment a chunk
completes, and the journal's *parent directory* is fsynced when the
file is created, so neither the records nor the file itself can vanish
on power loss.  An advisory ``flock`` (acquired at the first write)
keeps two campaigns from interleaving appends into one journal —
the loser raises :class:`~repro.runtime.integrity.JournalLockedError`.
If a write fails mid-campaign (ENOSPC, I/O error), the journal degrades
instead of crashing the run: results keep accumulating in memory, an
``io_errors`` counter and a ``journal_io_error`` trace event record the
loss, and the CLI exits with the distinct resumable-state-lost code.
"""

from __future__ import annotations

import errno
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .integrity import (
    CHAIN_SEED,
    JOURNAL_VERSION,
    JournalLock,
    LineDamage,
    frame_record,
    fsync_dir,
    rewrite_journal,
    scan_journal,
    write_quarantine,
)


class CheckpointError(RuntimeError):
    """Base class for journal failures."""


class CheckpointMismatchError(CheckpointError):
    """Journal was written by a campaign with different parameters."""


def seed_key(seed_seq) -> str:
    """Stable identity of a spawned ``SeedSequence``: entropy + spawn key."""
    return json.dumps(
        {
            "entropy": str(seed_seq.entropy),
            "spawn_key": list(seed_seq.spawn_key),
        },
        sort_keys=True,
    )


def _observe_quarantine(count: int, path: Path) -> None:
    """Make a quarantine loud: trace event and warning."""
    from ..obs import trace

    trace.event(
        "journal_quarantine", journal=str(path), records=count
    )
    warnings.warn(
        f"journal {path}: quarantined {count} corrupt record(s) to "
        f"{path}.quarantine; the affected chunks will be recomputed",
        _resilience_warning(),
        stacklevel=3,
    )


def _resilience_warning():
    from .supervisor import ResilienceWarning

    return ResilienceWarning


class CheckpointJournal:
    """Append-only framed journal of completed Monte-Carlo chunks."""

    def __init__(
        self,
        path: Union[str, Path],
        chaos=None,
    ):
        self.path = Path(path)
        #: Deterministic journal-fault injection (``bitrot``/``torn``/
        #: ``enospc`` clauses of a :class:`~repro.runtime.chaos.ChaosSpec`);
        #: targets are *journal append indices*, counted across cells.
        self.chaos = chaos
        self._header: Optional[Dict[str, Any]] = None
        self._chunks: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._torn_lines = 0
        self._fh = None
        self._chain = CHAIN_SEED
        self._lock = JournalLock(self.path)
        self._append_index = 0  # chunk appends so far (chaos targeting)
        #: Mid-file-corrupt records moved to the ``.quarantine`` sidecar.
        self.records_quarantined = 0
        #: Failed appends (ENOSPC / I/O errors) absorbed by degradation.
        self.io_errors = 0
        #: Chunk records lost because the journal had already degraded.
        self.appends_lost = 0
        #: True once a write failure switched the journal to memory-only.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        if self.path.is_dir():
            raise CheckpointError(
                f"{self.path} is a directory, not a journal: pass a file "
                "path as --checkpoint and rerun"
            )
        scan = scan_journal(self.path)
        if not scan.exists:
            return
        if scan.unsupported is not None:
            raise CheckpointError(
                f"{self.path} is {scan.unsupported}; this version reads "
                f"only v{JOURNAL_VERSION} journals and left the file "
                "untouched: delete it, or pass a fresh --checkpoint path, "
                "and rerun"
            )
        self._torn_lines = len(scan.torn_tail)
        quarantine: list[LineDamage] = list(scan.mid_file)
        records = [record for _line_no, record in scan.records]
        if scan.header_damaged:
            # The fingerprint cannot be trusted, so no chunk record can
            # be either: quarantine everything and resume from scratch
            # (bit-identity is preserved — all chunks recompute).
            quarantine = quarantine + [
                LineDamage(line_no, "untrusted-after-header-loss", json.dumps(r))
                for line_no, r in scan.records
            ]
            records = []
        if quarantine:
            # Mutating the file requires the lock: two concurrent
            # campaigns must not race the quarantine rewrite.
            self._lock.acquire()
            write_quarantine(self.path, quarantine, reason="load")
            rewrite_journal(self.path, records)
            self.records_quarantined = len(quarantine)
            self._observe_load_quarantine()
        elif scan.torn_tail:
            # Truncate the torn bytes so the next append starts on a
            # clean line instead of concatenating onto the partial one.
            self._lock.acquire()
            rewrite_journal(self.path, records)
        self._ingest(records)
        # The rewrites above re-frame from the chain seed; recompute the
        # running chain so future appends continue it correctly.
        chain = CHAIN_SEED
        for record in records:
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            _line, chain = frame_record(payload, chain)
        self._chain = chain

    def _ingest(self, records) -> None:
        for record in records:
            kind = record.get("kind")
            if kind == "header":
                self._header = record
            elif kind == "chunk":
                try:
                    key = (str(record["cell"]), int(record["chunk"]))
                except (KeyError, TypeError, ValueError):
                    continue  # structurally valid JSON, wrong shape
                self._chunks[key] = record
            # Unknown kinds are skipped for forward compatibility.

    def _observe_load_quarantine(self) -> None:
        _observe_quarantine(self.records_quarantined, self.path)

    # -- writing -----------------------------------------------------------

    def _open_for_append(self):
        if self._fh is None:
            self._lock.acquire()
            created = not self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            if created:
                # Without this the *file itself* (not just its records)
                # can vanish on power loss: the parent directory entry
                # was never flushed even though every record is fsynced.
                fsync_dir(self.path.parent)
        return self._fh

    def _append(self, record: Dict[str, Any]) -> None:
        chaos = self.chaos
        is_chunk = record.get("kind") == "chunk"
        index = self._append_index
        if chaos is not None and is_chunk and chaos.enospc_fires(index):
            self._append_index += 1
            raise OSError(errno.ENOSPC, "injected ENOSPC (chaos)")
        fh = self._open_for_append()
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        line, chain = frame_record(payload, self._chain)
        torn_fraction = (
            chaos.torn_fraction(index) if chaos is not None and is_chunk else 0.0
        )
        bitrot_mask = (
            chaos.bitrot_mask(index) if chaos is not None and is_chunk else 0
        )
        if is_chunk:
            self._append_index += 1
        if torn_fraction > 0.0:
            # Simulate a write cut mid-line: a prefix, no newline.  The
            # writer keeps its chain as if the record never landed.
            cut = max(1, int(len(line) * min(torn_fraction, 1.0)))
            fh.write(line[:cut])
            fh.flush()
            os.fsync(fh.fileno())
            return
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self._chain = chain
        if bitrot_mask:
            self._inject_bitrot(len(line) + 1, bitrot_mask)

    def _inject_bitrot(self, line_length: int, mask: int) -> None:
        """Flip a byte in the middle of the just-written line (chaos)."""
        size = os.path.getsize(self.path)
        target = size - line_length + line_length // 2
        with open(self.path, "r+b") as fh:
            fh.seek(target)
            byte = fh.read(1)
            fh.seek(target)
            fh.write(bytes([byte[0] ^ (mask & 0xFF)]))
            fh.flush()
            os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._lock.release()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- protocol ----------------------------------------------------------

    def ensure_header(self, fingerprint: Dict[str, Any]) -> bool:
        """Bind the journal to a campaign fingerprint.

        Writes the header on a fresh journal; on an existing one,
        verifies the stored fingerprint matches and raises
        :class:`CheckpointMismatchError` on any difference.  Returns
        ``True`` when resuming an existing journal.  Acquiring the
        journal's advisory lock happens here (or at the first append),
        so a second concurrent campaign fails fast with
        :class:`~repro.runtime.integrity.JournalLockedError`.
        """
        self._lock.acquire()
        if self._header is None:
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
            self._header = header
            self._append(header)
            return False
        stored = self._header.get("fingerprint")
        if stored != fingerprint:
            diff = sorted(
                k
                for k in set(stored or {}) | set(fingerprint)
                if (stored or {}).get(k) != fingerprint.get(k)
            )
            raise CheckpointMismatchError(
                f"journal {self.path} was written by a different campaign "
                f"(mismatched fields: {', '.join(diff) or 'all'}); "
                "use a fresh --checkpoint path or rerun the original "
                "parameters"
            )
        return True

    def completed(
        self, cell: str, chunk_index: int, seed_identity: str
    ) -> Optional[Dict[str, Any]]:
        """The journaled result payload for a chunk, if present and valid.

        A record whose seed identity does not match the chunk's spawned
        seed is ignored (defensive: it can only happen if a journal is
        doctored, since the fingerprint pins the root entropy).
        """
        record = self._chunks.get((str(cell), int(chunk_index)))
        if record is None:
            return None
        if record.get("seed") != seed_identity:
            return None
        return record.get("result")

    def record_chunk(
        self,
        cell: str,
        chunk_index: int,
        seed_identity: str,
        result: Dict[str, Any],
    ) -> None:
        """Durably append one completed chunk (flush + fsync).

        Never raises on I/O failure: a full or failing disk degrades the
        journal to memory-only (the campaign completes; resume state is
        lost) instead of killing a half-done run with a traceback.
        """
        record = {
            "kind": "chunk",
            "cell": str(cell),
            "chunk": int(chunk_index),
            "seed": seed_identity,
            "result": result,
        }
        self._chunks[(str(cell), int(chunk_index))] = record
        if self.degraded:
            self.appends_lost += 1
            return
        try:
            self._append(record)
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        from ..obs import trace

        self.io_errors += 1
        self.appends_lost += 1
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
        trace.event(
            "journal_io_error",
            journal=str(self.path),
            error=self.degraded_reason,
        )
        warnings.warn(
            f"journal {self.path}: write failed ({self.degraded_reason}); "
            "continuing in memory — the campaign will complete but its "
            "resumable state is lost",
            _resilience_warning(),
            stacklevel=3,
        )

    # -- introspection -----------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    @property
    def header_fingerprint(self) -> Optional[Dict[str, Any]]:
        return None if self._header is None else self._header.get("fingerprint")

    @property
    def torn_lines(self) -> int:
        """Malformed trailing lines tolerated on load (0 or 1 normally)."""
        return self._torn_lines
