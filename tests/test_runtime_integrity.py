"""Durable-state integrity layer: framing, scanning, locks, healing.

Unit coverage for :mod:`repro.ioutil` and
:mod:`repro.runtime.integrity`, plus end-to-end quarantine/degradation
behaviour of the v3 :class:`~repro.runtime.checkpoint.CheckpointJournal`
driven through ``simulate_fail_probability_batched``.
"""

import errno
import json
import os
import warnings

import pytest

from repro.ioutil import atomic_write, crc32c, fsync_dir
from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointError,
    CheckpointJournal,
    JournalLock,
    JournalLockedError,
    RuntimeConfig,
)
from repro.runtime.integrity import (
    CHAIN_SEED,
    FrameError,
    chain_hash,
    frame_record,
    parse_frame,
    probe_lock,
    quarantine_path,
    render_journal,
    scan_journal,
)
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0


def batched(trials=150, chunk_size=50, seed=11, runtime=None, counters=None):
    return simulate_fail_probability_batched(
        "simplex",
        CODE,
        48.0,
        LAM,
        0.0,
        trials,
        seed=seed,
        chunk_size=chunk_size,
        runtime=runtime,
        counters=counters,
    )


def record_journal(path, **kwargs):
    with CheckpointJournal(path) as journal:
        result = batched(runtime=RuntimeConfig(journal=journal), **kwargs)
    return result


class TestCrc32c:
    def test_standard_check_value(self):
        # The canonical CRC-32C check value (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_and_incremental(self):
        assert crc32c(b"") == 0
        whole = crc32c(b"hello world")
        split = crc32c(b" world", crc32c(b"hello"))
        assert whole == split

    def test_detects_any_single_byte_flip(self):
        data = b'{"kind": "chunk", "chunk": 3}'
        reference = crc32c(data)
        for i in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(data)
                mutated[i] ^= mask
                assert crc32c(bytes(mutated)) != reference


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(target, "first")
        assert target.read_text() == "first"
        atomic_write(target, "second")
        assert target.read_text() == "second"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.json"
        atomic_write(target, "deep")
        assert target.read_text() == "deep"

    def test_accepts_bytes(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write(target, b"\x00\xff")
        assert target.read_bytes() == b"\x00\xff"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write(tmp_path / "x", "data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x"]

    def test_failure_leaves_old_file_and_no_litter(self, tmp_path, monkeypatch):
        target = tmp_path / "x"
        atomic_write(target, "old")

        def boom(src, dst):
            raise OSError(errno.EIO, "injected replace failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write(target, "new")
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x"]

    def test_fsync_dir_tolerates_missing_path(self, tmp_path):
        fsync_dir(tmp_path / "nope")  # must not raise


class TestFraming:
    def test_roundtrip(self):
        payload = json.dumps({"kind": "chunk", "chunk": 0}).encode()
        line, chain = frame_record(payload, CHAIN_SEED)
        crc, chain_hex, parsed = parse_frame(line)
        assert parsed == payload
        assert crc == crc32c(payload)
        assert bytes.fromhex(chain_hex) == chain
        assert chain == chain_hash(CHAIN_SEED, payload)

    def test_chain_depends_on_predecessor(self):
        payload = b'{"a": 1}'
        _, c1 = frame_record(payload, CHAIN_SEED)
        _, c2 = frame_record(payload, c1)
        assert c1 != c2

    @pytest.mark.parametrize(
        "bad",
        [
            "not a frame",
            "2|00000000|0011223344556677|{}",
            "3|short|0011223344556677|{}",
            "3|00000000|tooshort|{}",
            "3|zzzzzzzz|0011223344556677|{}",
            "3|00000000",
        ],
    )
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(FrameError):
            parse_frame(bad)


class TestScanClassification:
    def journal_text(self, n=4):
        records = [{"kind": "header", "fingerprint": {"seed": 1}}]
        records += [
            {"kind": "chunk", "cell": "c", "chunk": i, "seed": "s", "result": {}}
            for i in range(n)
        ]
        return render_journal(records)

    def test_missing_empty_healthy(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert scan_journal(path).classification == "missing"
        path.write_text("")
        assert scan_journal(path).classification == "empty"
        path.write_text(self.journal_text())
        scan = scan_journal(path)
        assert scan.classification == "healthy"
        assert scan.version == 3
        assert len(scan.records) == 5

    def test_torn_tail_is_trailing_damage_only(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self.journal_text() + "3|dead")
        scan = scan_journal(path)
        assert scan.classification == "torn-tail"
        assert len(scan.torn_tail) == 1
        assert len(scan.records) == 5  # all real records survive

    def test_mid_file_flip_is_corrupt_and_localized(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = self.journal_text().splitlines()
        mutated = bytearray(lines[2].encode())
        mutated[len(mutated) // 2] ^= 0x01
        lines[2] = mutated.decode("utf-8", errors="replace")
        path.write_text("\n".join(lines) + "\n")
        scan = scan_journal(path)
        assert scan.classification == "corrupt"
        # The resync rule confines the blast radius to ~the hit line.
        assert len(scan.mid_file) <= 2
        assert len(scan.records) >= 3

    def test_deleted_line_breaks_the_chain(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = self.journal_text().splitlines()
        del lines[2]  # splice a record out; CRCs all still pass
        path.write_text("\n".join(lines) + "\n")
        scan = scan_journal(path)
        assert any(d.reason == "chain-break" for d in scan.damage)

    def test_unframed_line_inside_journal_is_damage(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = self.journal_text().splitlines()
        lines.insert(2, '{"kind": "chunk", "chunk": 99}')
        path.write_text("\n".join(lines) + "\n")
        scan = scan_journal(path)
        assert any(d.reason == "unframed" for d in scan.damage)
        assert all(r.get("chunk") != 99 for _ln, r in scan.records)

    def test_prefix_of_the_marker_is_a_journal(self, tmp_path):
        # A journal cut to one byte is a torn tail, not a foreign file.
        path = tmp_path / "j.jsonl"
        path.write_text("3")
        scan = scan_journal(path)
        assert scan.version == 3
        assert scan.classification == "torn-tail"

    def test_one_marked_line_makes_a_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = self.journal_text().splitlines()
        lines[0] = "2" + lines[0][1:]  # the first line's marker flipped
        path.write_text("\n".join(lines) + "\n")
        scan = scan_journal(path)
        assert scan.version == 3
        assert scan.unsupported is None
        assert (scan.damage[0].line_no, scan.damage[0].reason) == (1, "unframed")
        assert scan.classification == "corrupt"


class TestLocking:
    def test_second_acquirer_fails_fast(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with JournalLock(journal):
            with pytest.raises(JournalLockedError):
                JournalLock(journal).acquire()
        JournalLock(journal).acquire().release()  # free after release

    def test_acquire_is_idempotent(self, tmp_path):
        lock = JournalLock(tmp_path / "j.jsonl")
        lock.acquire()
        lock.acquire()
        lock.release()

    def test_probe_does_not_steal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert probe_lock(journal)["held"] is False
        with JournalLock(journal):
            assert probe_lock(journal)["held"] is True
        assert probe_lock(journal)["held"] is False

    def test_concurrent_journal_append_contends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CheckpointJournal(path)
        first.ensure_header({"seed": 1})
        second = CheckpointJournal(path)
        with pytest.raises(JournalLockedError):
            second.ensure_header({"seed": 1})
        first.close()
        second.close()


class TestJournalCreationDurability:
    def test_parent_dir_fsynced_on_creation(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(
            "repro.runtime.checkpoint.fsync_dir",
            lambda p: synced.append(os.fspath(p)),
        )
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"seed": 1})
        assert os.fspath(tmp_path) in synced

    def test_no_dir_fsync_on_append_to_existing(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"seed": 1})
        synced = []
        monkeypatch.setattr(
            "repro.runtime.checkpoint.fsync_dir",
            lambda p: synced.append(os.fspath(p)),
        )
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"seed": 1})
            journal.record_chunk("c", 0, "s", {"x": 1})
        assert synced == []


class TestQuarantineResume:
    def test_flip_one_byte_resume_bit_identical(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reference = record_journal(path)

        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))

        counters = PerfCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with CheckpointJournal(path) as journal:
                quarantined = journal.records_quarantined
                resumed = batched(
                    runtime=RuntimeConfig(journal=journal), counters=counters
                )
        assert resumed == reference
        assert quarantined >= 1
        assert quarantine_path(path).exists()
        # The journal is clean again after the healing rewrite + rerun.
        assert scan_journal(path).classification == "healthy"

    def test_quarantine_sidecar_is_self_describing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            CheckpointJournal(path).close()
        entries = [
            json.loads(line)
            for line in quarantine_path(path).read_text().splitlines()
        ]
        assert entries
        for entry in entries:
            assert entry["journal"] == str(path)
            assert entry["reason"] == "load"
            assert entry["damage"] in ("bad-crc", "chain-break", "bad-json")
            assert "raw" in entry

    def test_damaged_header_recomputes_everything(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reference = record_journal(path)
        lines = path.read_text().splitlines()
        mutated = bytearray(lines[0].encode())
        mutated[30] ^= 0x08
        lines[0] = mutated.decode("utf-8", errors="replace")
        path.write_text("\n".join(lines) + "\n")

        counters = PerfCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with CheckpointJournal(path) as journal:
                assert journal.header_fingerprint is None
                resumed = batched(
                    runtime=RuntimeConfig(journal=journal), counters=counters
                )
        assert resumed == reference
        assert counters.chunks_resumed == 0  # nothing could be trusted


def _remark(lines, indices, marker="2"):
    """Re-mark the given lines with another frame version."""
    return [
        marker + line[1:] if i in indices else line
        for i, line in enumerate(lines)
    ]


def _lines(blob):
    return blob.decode("utf-8").splitlines()


def _join(lines):
    return "".join(line + "\n" for line in lines).encode("utf-8")


#: damage -> the journal bytes after it.  Each leaves the file a v3
#: journal: a prefix of the marker, or at least one marked line.
MARKER_DAMAGE = {
    "cut-to-1-byte": lambda blob: blob[:1],
    "cut-to-2-bytes": lambda blob: blob[:2],
    "cut-inside-first-frame": lambda blob: blob[: blob.index(b"\n") // 2],
    "first-marker-flipped": lambda blob: _join(_remark(_lines(blob), {0})),
    "last-marker-flipped": lambda blob: _join(
        _remark(_lines(blob), {len(_lines(blob)) - 1})
    ),
    "all-but-last-marker-flipped": lambda blob: _join(
        _remark(_lines(blob), set(range(len(_lines(blob)) - 1)))
    ),
}


class TestMarkerBoundary:
    """One cut or one flipped marker heals; no marked line is refused."""

    @pytest.mark.parametrize("damage", MARKER_DAMAGE)
    def test_damaged_v3_journal_heals_bit_identically(self, tmp_path, damage):
        path = tmp_path / "run.jsonl"
        reference = record_journal(path)
        path.write_bytes(MARKER_DAMAGE[damage](path.read_bytes()))
        assert scan_journal(path).unsupported is None

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with CheckpointJournal(path) as journal:
                resumed = batched(runtime=RuntimeConfig(journal=journal))
        assert resumed == reference
        assert scan_journal(path).classification == "healthy"

    def test_no_marked_line_is_refused_untouched(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        lines = _lines(path.read_bytes())
        path.write_bytes(_join(_remark(lines, set(range(len(lines))))))
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="is a v2 journal"):
            CheckpointJournal(path)
        assert path.read_bytes() == before
        assert not quarantine_path(path).exists()


class TestEnospcDegradation:
    def test_write_failure_degrades_not_raises(self, tmp_path):
        from repro.runtime import parse_chaos_spec

        path = tmp_path / "run.jsonl"
        chaos = parse_chaos_spec("enospc@1")
        counters = PerfCounters()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with CheckpointJournal(path, chaos=chaos) as journal:
                result = batched(
                    runtime=RuntimeConfig(journal=journal), counters=counters
                )
                assert journal.degraded
                assert journal.io_errors == 1
                assert journal.appends_lost >= 2  # failed + subsequent
                assert "ENOSPC" in journal.degraded_reason
        assert result == batched()  # estimates unharmed

    def test_degraded_journal_emits_trace_event(self, tmp_path):
        from repro.obs import trace as obs_trace
        from repro.runtime import parse_chaos_spec

        collector = obs_trace.TraceCollector()
        obs_trace.install_collector(collector)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chaos = parse_chaos_spec("enospc@0")
                with CheckpointJournal(
                    tmp_path / "run.jsonl", chaos=chaos
                ) as journal:
                    batched(runtime=RuntimeConfig(journal=journal))
        finally:
            obs_trace.install_collector(None)
        events = collector.events("journal_io_error")
        assert len(events) == 1
        assert "ENOSPC" in events[0]["attrs"]["error"]

    def test_degradation_warns_resilience(self, tmp_path):
        from repro.runtime import ResilienceWarning, parse_chaos_spec

        chaos = parse_chaos_spec("enospc@0")
        with pytest.warns(ResilienceWarning, match="resumable state is lost"):
            with CheckpointJournal(
                tmp_path / "run.jsonl", chaos=chaos
            ) as journal:
                batched(runtime=RuntimeConfig(journal=journal))
