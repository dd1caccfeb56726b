"""Durable-state integrity: framed journals, quarantine, locks, doctor.

The campaign runtime persists hours of Monte-Carlo work in append-only
JSONL journals (:mod:`repro.runtime.checkpoint`).  Before this layer a
flipped byte or a torn ``rename`` either crashed resume or — worse —
silently resumed from a damaged chunk record.  This module gives every
journal line the same defenses the paper demands of memories:

* **Framed v3 records** — each line is ``3|<crc32c>|<chain>|<payload>``
  where the CRC-32C covers the JSON payload (bitrot detection within a
  line) and the chain field is a truncated SHA-256 over the previous
  chain value plus the payload (splice / whole-line-loss detection
  across lines).  :data:`JOURNAL_VERSION` sets the marker, the header's
  ``version`` and the chain seed.
* **Refusal of other formats** — a file that is not a v3 journal (v1
  bare JSON, v2 frames, or no journal at all) is classified
  *unsupported*: it is never read, quarantined or rewritten, and the
  caller tells the user to delete it or pick a fresh path.
* **Damage classification** — :func:`scan_journal` parses a journal
  defensively and labels every bad line *torn tail* (trailing garbage
  from an interrupted final append — tolerated, truncated on repair) or
  *mid-file* corruption (quarantined: the record is copied to a
  ``.quarantine`` sidecar and dropped, so the supervisor transparently
  recomputes exactly those chunks on resume).
* **Advisory locking** — :class:`JournalLock` (``flock``-based) makes
  two campaigns on one journal impossible to interleave; the loser
  raises :class:`JournalLockedError`, which the CLI maps to exit code
  :data:`LOCK_CONTENTION_EXIT_CODE`.
* **Doctor** — :func:`audit_path` / :func:`repair_journal` back the
  ``repro doctor`` subcommand: audit a journal or a whole state
  directory (journals, manifests, quarantine sidecars, locks) into a
  machine-readable report, and with ``--repair`` truncate torn tails,
  quarantine bad records, and rewrite a clean v3 journal.  A leftover
  board directory of the deleted fleet and lease executors is reported
  *unsupported*, like an old journal, and never read or modified.

Every mutation here goes through :func:`repro.ioutil.atomic_write`, so
a crash during *repair* is itself recoverable.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..ioutil import atomic_write, crc32c, fsync_dir

#: CLI exit code when another campaign holds the journal lock (EX_TEMPFAIL).
LOCK_CONTENTION_EXIT_CODE = 75

#: CLI exit code when journal writes failed mid-run (ENOSPC, I/O error):
#: the campaign completed in memory but its resumable state was lost
#: (EX_IOERR).
STATE_LOST_EXIT_CODE = 74

#: Journal format version: the frame marker of every line, the header's
#: ``version`` and the chain seed all derive from it.  Files of any
#: other format are refused untouched.
JOURNAL_VERSION = 3

#: Frame marker of a journal line.
FRAME_VERSION = str(JOURNAL_VERSION)
_MARKER = FRAME_VERSION + "|"

#: Hex digits of the truncated SHA-256 chain field (8 bytes).
CHAIN_HEX_DIGITS = 16

#: Chain value before the first record of a journal.
CHAIN_SEED = hashlib.sha256(
    f"repro.journal.v{JOURNAL_VERSION}".encode("ascii")
).digest()[: CHAIN_HEX_DIGITS // 2]

#: Quarantine sidecar schema version.
QUARANTINE_SCHEMA = 1


class IntegrityError(RuntimeError):
    """Base class for integrity-layer failures."""


class FrameError(IntegrityError):
    """A line could not be parsed / verified as a framed record."""


class JournalLockedError(IntegrityError):
    """Another process holds the journal's advisory lock."""


# --------------------------------------------------------------------------
# record framing
# --------------------------------------------------------------------------


def chain_hash(prev_chain: bytes, payload: bytes) -> bytes:
    """Next chain value: truncated SHA-256 over (previous chain, payload)."""
    return hashlib.sha256(prev_chain + payload).digest()[: CHAIN_HEX_DIGITS // 2]


def frame_record(payload: bytes, prev_chain: bytes) -> Tuple[str, bytes]:
    """Frame one JSON payload as a journal line.

    Returns ``(line_without_newline, new_chain)``.  The CRC covers the
    payload only, so a flipped byte in the CRC or chain field damages at
    most that one record's verdict, never its neighbours' payloads.
    """
    chain = chain_hash(prev_chain, payload)
    line = (
        f"{FRAME_VERSION}|{crc32c(payload):08x}|{chain.hex()}|"
        f"{payload.decode('utf-8')}"
    )
    return line, chain


def parse_frame(line: str) -> Tuple[int, str, bytes]:
    """Split a framed line into ``(crc, chain_hex, payload_bytes)``.

    Raises :class:`FrameError` on any structural problem; CRC/chain
    *verification* is the caller's job (:func:`scan_journal`), because
    the caller owns the running chain state.
    """
    parts = line.split("|", 3)
    if len(parts) != 4 or parts[0] != FRAME_VERSION:
        raise FrameError(f"not a framed v{JOURNAL_VERSION} line")
    crc_text, chain_hex, payload_text = parts[1], parts[2], parts[3]
    if len(crc_text) != 8 or len(chain_hex) != CHAIN_HEX_DIGITS:
        raise FrameError("bad frame field widths")
    try:
        crc = int(crc_text, 16)
        bytes.fromhex(chain_hex)
    except ValueError as exc:
        raise FrameError(f"bad frame hex field: {exc}") from None
    return crc, chain_hex, payload_text.encode("utf-8")


# --------------------------------------------------------------------------
# journal scanning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LineDamage:
    """One damaged journal line, with its classification."""

    line_no: int  # 1-based
    reason: str  # bad-frame | bad-crc | chain-break | bad-json | unframed
    raw: str
    torn_tail: bool = False  # trailing damage (tolerated) vs mid-file

    def as_dict(self) -> Dict[str, Any]:
        return {
            "line_no": self.line_no,
            "reason": self.reason,
            "torn_tail": self.torn_tail,
            "raw_prefix": self.raw[:160],
        }


@dataclass
class JournalScan:
    """Defensive parse of one journal file."""

    path: Path
    exists: bool = False
    #: ``JOURNAL_VERSION`` for a journal; for an unsupported file the
    #: format it looks like (``None`` if no journal at all); ``None``
    #: for an empty or missing file.
    version: Optional[int] = None
    #: What an unsupported file looks like; ``None`` for a journal.
    unsupported: Optional[str] = None
    records: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)
    damage: List[LineDamage] = field(default_factory=list)
    total_lines: int = 0

    @property
    def header(self) -> Optional[Dict[str, Any]]:
        for _line_no, record in self.records:
            if record.get("kind") == "header":
                return record
        return None

    @property
    def header_damaged(self) -> bool:
        """True when damage precedes (or may have replaced) the header.

        With no header record present, only damage *before the first
        valid record* is suspected of having been the header — journals
        legitimately written without a header (direct
        ``simulate_fail_probability_batched`` use) must not have every
        chunk condemned by one mid-file flip.
        """
        header_line = None
        for line_no, record in self.records:
            if record.get("kind") == "header":
                header_line = line_no
                break
        if header_line is None:
            first_valid = self.records[0][0] if self.records else None
            return any(
                not d.torn_tail
                and (first_valid is None or d.line_no < first_valid)
                for d in self.damage
            )
        return any(d.line_no < header_line for d in self.damage)

    @property
    def chunk_records(self) -> List[Tuple[int, Dict[str, Any]]]:
        return [
            (line_no, record)
            for line_no, record in self.records
            if record.get("kind") == "chunk"
        ]

    @property
    def torn_tail(self) -> List[LineDamage]:
        return [d for d in self.damage if d.torn_tail]

    @property
    def mid_file(self) -> List[LineDamage]:
        return [d for d in self.damage if not d.torn_tail]

    @property
    def classification(self) -> str:
        if not self.exists:
            return "missing"
        if self.unsupported is not None:
            return "unsupported"
        if not self.records and not self.damage:
            return "empty"
        if self.mid_file:
            return "corrupt"
        if self.torn_tail:
            return "torn-tail"
        return "healthy"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "exists": self.exists,
            "version": self.version,
            "unsupported": self.unsupported,
            "classification": self.classification,
            "records": len(self.records),
            "chunk_records": len(self.chunk_records),
            "header_present": self.header is not None,
            "header_damaged": self.header_damaged,
            "torn_tail_lines": len(self.torn_tail),
            "corrupt_lines": len(self.mid_file),
            "damage": [d.as_dict() for d in self.damage],
        }


#: Frame prefix of another framed format (``2|<crc32c>|<chain>|``).
_FOREIGN_FRAME_RE = re.compile(r"^(\d+)\|[0-9a-f]{8}\|[0-9a-f]{16}\|")


def _is_journal(blob: bytes, lines: List[str]) -> bool:
    """True if the file starts with a prefix of the frame marker or any
    of its lines starts with the marker.

    One truncation cannot fail both tests (a journal cut to fewer than
    two bytes is still a prefix of the marker), and neither can one
    flipped byte in a journal of two or more lines, since it hits one
    line's marker at most.  A header-only journal whose marker is hit
    is refused; it held no chunk to lose.
    """
    marker = _MARKER.encode("ascii")
    return marker.startswith(blob[: len(marker)]) or any(
        line.startswith(_MARKER) for line in lines
    )


def _foreign_format(lines: List[str]) -> Tuple[Optional[int], str]:
    """``(version, description)`` of a file that is not a journal."""
    for line in lines:
        match = _FOREIGN_FRAME_RE.match(line)
        if match is not None:
            version = int(match.group(1))
            return version, f"a v{version} journal ({version}|... frames)"
    first = next((line for line in lines if line.strip()), "")
    try:
        record = json.loads(first)
    except ValueError:
        record = None
    if isinstance(record, dict) and record.get("kind") in ("header", "chunk"):
        return 1, "a v1 journal (bare JSON lines)"
    return None, "not a journal"


def scan_journal(path: Union[str, Path]) -> JournalScan:
    """Parse a journal defensively, verifying its frames line by line.

    Never raises on content.  A non-empty file that is not a journal
    (:func:`_is_journal`) is classified ``unsupported`` and not parsed
    further.  In a journal, every undecodable, CRC-failing,
    chain-breaking, or unframed line becomes a :class:`LineDamage`
    entry instead.  Damage with no valid record after it is classified
    as a torn tail (an interrupted final append); anything earlier is
    mid-file corruption.
    """
    scan = JournalScan(path=Path(path))
    try:
        blob = scan.path.read_bytes()
    except FileNotFoundError:
        return scan
    scan.exists = True
    text = blob.decode("utf-8", errors="replace")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline, not an empty record
    scan.total_lines = len(lines)
    if not blob:
        return scan
    if not _is_journal(blob, lines):
        scan.version, scan.unsupported = _foreign_format(lines)
        return scan
    scan.version = JOURNAL_VERSION

    running_chain = CHAIN_SEED
    damage: List[LineDamage] = []

    def damaged(line_no: int, reason: str, raw: str) -> None:
        damage.append(LineDamage(line_no=line_no, reason=reason, raw=raw))

    for pos, raw in enumerate(lines):
        line_no = pos + 1
        if not raw.strip():
            continue
        if not raw.startswith(_MARKER):
            # No frame, so no CRC: the line cannot be trusted.
            damaged(line_no, "unframed", raw)
            continue
        try:
            crc, chain_hex, payload = parse_frame(raw)
        except FrameError:
            damaged(line_no, "bad-frame", raw)
            continue
        if crc32c(payload) != crc:
            damaged(line_no, "bad-crc", raw)
            # Best-effort resync: trust the stored chain so one
            # damaged payload doesn't condemn its successors.
            running_chain = bytes.fromhex(chain_hex)
            continue
        expected = chain_hash(running_chain, payload)
        stored = bytes.fromhex(chain_hex)
        if expected != stored:
            # Payload is CRC-clean but the chain disagrees: either
            # this line's chain field was hit or a predecessor line
            # vanished.  Quarantine conservatively and resync on the
            # stored value (the writer's own continuation point).
            damaged(line_no, "chain-break", raw)
            running_chain = stored
            continue
        running_chain = stored
        try:
            record = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            damaged(line_no, "bad-json", raw)
            continue
        if not isinstance(record, dict):
            damaged(line_no, "bad-json", raw)
            continue
        scan.records.append((line_no, record))

    # Classify trailing damage (nothing valid after it) as torn tail.
    last_valid = scan.records[-1][0] if scan.records else 0
    scan.damage = [
        LineDamage(d.line_no, d.reason, d.raw, torn_tail=d.line_no > last_valid)
        for d in damage
    ]
    return scan


# --------------------------------------------------------------------------
# quarantine & rewrite
# --------------------------------------------------------------------------


def quarantine_path(journal: Union[str, Path]) -> Path:
    return Path(str(journal) + ".quarantine")


def lock_path(journal: Union[str, Path]) -> Path:
    return Path(str(journal) + ".lock")


def write_quarantine(
    journal: Union[str, Path],
    damage: List[LineDamage],
    reason: str,
) -> Optional[Path]:
    """Append damaged raw lines to the journal's quarantine sidecar.

    Each sidecar line is a self-describing JSON record (schema,
    originating journal, line number, damage reason, raw line), so a
    post-mortem can reconstruct exactly what was dropped and why.
    """
    if not damage:
        return None
    sidecar = quarantine_path(journal)
    entries = [
        json.dumps(
            {
                "schema": QUARANTINE_SCHEMA,
                "journal": str(journal),
                "reason": reason,
                "line_no": d.line_no,
                "damage": d.reason,
                "raw": d.raw,
            },
            sort_keys=True,
        )
        for d in damage
    ]
    with open(sidecar, "a", encoding="utf-8") as fh:
        fh.write("\n".join(entries) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return sidecar


def render_journal(records: List[Dict[str, Any]]) -> str:
    """Serialize records as framed lines (fresh chain from the seed)."""
    chain = CHAIN_SEED
    lines = []
    for record in records:
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        line, chain = frame_record(payload, chain)
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def rewrite_journal(
    path: Union[str, Path], records: List[Dict[str, Any]]
) -> Path:
    """Atomically rewrite a journal as clean framed records."""
    return atomic_write(path, render_journal(records))


def scan_quarantine(journal: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a journal's quarantine sidecar (if any)."""
    sidecar = quarantine_path(journal)
    info: Dict[str, Any] = {"path": str(sidecar), "exists": sidecar.exists()}
    if not info["exists"]:
        info["entries"] = 0
        return info
    entries = 0
    unparseable = 0
    for raw in sidecar.read_text(errors="replace").split("\n"):
        if not raw.strip():
            continue
        entries += 1
        try:
            json.loads(raw)
        except json.JSONDecodeError:
            unparseable += 1
    info["entries"] = entries
    info["unparseable"] = unparseable
    return info


# --------------------------------------------------------------------------
# advisory locking
# --------------------------------------------------------------------------


class JournalLock:
    """Advisory exclusive lock on a journal's ``.lock`` sidecar.

    Uses ``flock`` where available (conflicts across *and within* a
    process, since each acquisition opens its own descriptor).  On
    platforms without ``fcntl`` the lock degrades to a no-op — single
    -writer discipline is then the operator's job, as before this layer.
    """

    def __init__(self, journal: Union[str, Path]):
        self.path = lock_path(journal)
        self._fh = None

    @property
    def held(self) -> bool:
        return self._fh is not None

    def acquire(self) -> "JournalLock":
        if self._fh is not None:
            return self
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            fh.close()
            if exc.errno in (errno.EACCES, errno.EAGAIN):
                raise JournalLockedError(
                    f"journal is locked by another campaign "
                    f"(lock file {self.path}); wait for it to finish or "
                    "use a different --checkpoint path"
                ) from None
            raise
        self._fh = fh
        return self

    def release(self) -> None:
        if self._fh is None:
            return
        try:
            import fcntl

            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        except (ImportError, OSError):  # pragma: no cover - non-POSIX
            pass
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "JournalLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def probe_lock(journal: Union[str, Path]) -> Dict[str, Any]:
    """Non-invasively report whether a journal's lock is held."""
    path = lock_path(journal)
    info: Dict[str, Any] = {"path": str(path), "exists": path.exists()}
    if not path.exists():
        info["held"] = False
        return info
    probe = JournalLock(journal)
    try:
        probe.acquire()
    except JournalLockedError:
        info["held"] = True
        return info
    probe.release()
    info["held"] = False
    return info


# --------------------------------------------------------------------------
# doctor: audit & repair
# --------------------------------------------------------------------------

#: Audit/repair report schema version.  2: journals carry
#: ``unsupported``, repairs lost ``upgraded_from_v1``.  3: a board entry
#: is a leftover-board refusal (``classification: "unsupported"``).
DOCTOR_SCHEMA = 3

#: Subdirectories that make a directory a board, the on-disk work queue
#: of the deleted fleet executor (and of the lease executor before it,
#: whose boards had no ``workers/``).
_BOARD_SUBDIRS = ("todo", "leases", "done")


def audit_journal(path: Union[str, Path]) -> Dict[str, Any]:
    """Full health report for one journal (scan + sidecars + lock)."""
    scan = scan_journal(path)
    report = scan.as_dict()
    report["quarantine"] = scan_quarantine(path)
    report["lock"] = probe_lock(path)
    fingerprint = None
    header = scan.header
    if header is not None:
        fingerprint = header.get("fingerprint")
    report["fingerprint_present"] = fingerprint is not None
    return report


def audit_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Structural health report for one run-manifest JSON file."""
    path = Path(path)
    report: Dict[str, Any] = {"path": str(path), "exists": path.exists()}
    if not path.exists():
        report["ok"] = False
        report["error"] = "missing"
        return report
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        report["ok"] = False
        report["error"] = f"unreadable: {exc}"
        return report
    if not isinstance(doc, dict) or "manifest_version" not in doc:
        report["ok"] = False
        report["error"] = "not a run manifest (no manifest_version)"
        return report
    report["ok"] = True
    report["manifest_version"] = doc["manifest_version"]
    report["results"] = len(doc.get("results") or [])
    return report


def _looks_like_manifest(path: Path) -> bool:
    if path.suffix != ".json":
        return False
    try:
        head = path.read_text(errors="replace")
    except OSError:
        return False
    return '"manifest_version"' in head


def repair_journal(path: Union[str, Path]) -> Dict[str, Any]:
    """Repair one journal in place; returns the action report.

    * torn tails are truncated;
    * mid-file corrupt lines are copied to the ``.quarantine`` sidecar
      and dropped (their chunks will be recomputed on resume);
    * the surviving records are rewritten as clean framed lines.

    The rewrite is atomic, so a crash during repair leaves either the
    original damaged journal (re-repairable) or the clean one.  An
    unsupported file is left byte-identical, with a ``skipped`` action.
    """
    path = Path(path)
    scan = scan_journal(path)
    actions: Dict[str, Any] = {
        "path": str(path),
        "repaired": False,
        "truncated_torn_lines": 0,
        "quarantined_lines": 0,
        "rewritten": False,
    }
    if not scan.exists:
        actions["error"] = "missing"
        return actions
    if scan.unsupported is not None:
        actions["skipped"] = f"{scan.unsupported}; left untouched"
        return actions
    if not scan.damage:
        return actions
    records = [record for _line_no, record in scan.records]
    if scan.mid_file:
        write_quarantine(path, scan.mid_file, reason="doctor-repair")
        actions["quarantined_lines"] = len(scan.mid_file)
    actions["truncated_torn_lines"] = len(scan.torn_tail)
    rewrite_journal(path, records)
    actions["rewritten"] = True
    actions["repaired"] = True
    actions["surviving_records"] = len(records)
    return actions


def _is_board(path: Path) -> bool:
    return all((path / sub).is_dir() for sub in _BOARD_SUBDIRS)


def _leftover_board(path: Path) -> Dict[str, Any]:
    """The refusal entry for a board directory: reported, never read."""
    return {
        "path": str(path),
        "kind": "board",
        "classification": "unsupported",
        "unsupported": (
            "a board of the deleted fleet/lease executors; nothing reads "
            "it and doctor leaves it untouched: delete it"
        ),
    }


def audit_path(path: Union[str, Path]) -> Dict[str, Any]:
    """Audit a journal file or a state directory.

    Directories are searched (non-recursively) for ``*.jsonl`` journals
    and run-manifest ``*.json`` files; sidecars (``.quarantine``,
    ``.lock``) are reported with their journal.  A board directory (the
    path itself, or a subdirectory with ``todo/``, ``leases/`` and
    ``done/``) is listed under ``boards`` as ``unsupported`` and makes
    the report unhealthy; nothing under it is read.
    """
    path = Path(path)
    report: Dict[str, Any] = {
        "schema": DOCTOR_SCHEMA,
        "path": str(path),
        "journals": [],
        "manifests": [],
        "boards": [],
    }
    if path.is_dir():
        if _is_board(path):
            report["boards"].append(_leftover_board(path))
        else:
            for candidate in sorted(path.iterdir()):
                if candidate.suffix == ".jsonl":
                    report["journals"].append(audit_journal(candidate))
                elif _looks_like_manifest(candidate):
                    report["manifests"].append(audit_manifest(candidate))
                elif candidate.is_dir() and _is_board(candidate):
                    report["boards"].append(_leftover_board(candidate))
    else:
        report["journals"].append(audit_journal(path))
    report["healthy"] = (
        all(
            j["classification"] in ("healthy", "empty")
            for j in report["journals"]
        )
        and all(m.get("ok", False) for m in report["manifests"])
        and not report["boards"]
    )
    return report


__all__ = [
    "CHAIN_SEED",
    "DOCTOR_SCHEMA",
    "FRAME_VERSION",
    "FrameError",
    "IntegrityError",
    "JOURNAL_VERSION",
    "JournalLock",
    "JournalLockedError",
    "JournalScan",
    "LOCK_CONTENTION_EXIT_CODE",
    "LineDamage",
    "QUARANTINE_SCHEMA",
    "STATE_LOST_EXIT_CODE",
    "atomic_write",
    "audit_journal",
    "audit_manifest",
    "audit_path",
    "chain_hash",
    "crc32c",
    "frame_record",
    "fsync_dir",
    "lock_path",
    "parse_frame",
    "probe_lock",
    "quarantine_path",
    "render_journal",
    "repair_journal",
    "rewrite_journal",
    "scan_journal",
    "scan_quarantine",
    "write_quarantine",
]
