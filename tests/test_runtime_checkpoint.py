"""Checkpoint journal: atomic append, torn-line tolerance, resume identity."""

import json

import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    ResilienceWarning,
    RuntimeConfig,
    seed_key,
)
from repro.simulator import simulate_fail_probability_batched, spawn_chunk_seeds

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0


def batched(runtime=None, counters=None, **kw):
    kw.setdefault("trials", 300)
    kw.setdefault("seed", 11)
    kw.setdefault("chunk_size", 75)
    return simulate_fail_probability_batched(
        "simplex", CODE, 48.0, LAM, 0.0, runtime=runtime, counters=counters,
        cell_key="cell", **kw
    )


class TestJournalBasics:
    def test_records_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"x": 1})
            journal.record_chunk("c", 0, "sk", {"failures": 2, "trials": 10})
        again = CheckpointJournal(path)
        assert again.header_fingerprint == {"x": 1}
        assert again.completed("c", 0, "sk") == {"failures": 2, "trials": 10}
        assert again.n_chunks == 1

    def test_missing_chunk_and_wrong_seed_identity(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.record_chunk("c", 0, "sk", {"failures": 0})
        assert journal.completed("c", 1, "sk") is None
        assert journal.completed("c", 0, "other-seed") is None

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"x": 1})
            journal.record_chunk("c", 0, "sk", {"failures": 1})
        with open(path, "a") as fh:  # simulate a write cut mid-record
            fh.write('{"kind": "chunk", "cell": "c", "chu')
        recovered = CheckpointJournal(path)
        assert recovered.n_chunks == 1
        assert recovered.torn_lines == 1

    def test_corruption_in_the_middle_is_quarantined(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"x": 1})
            journal.record_chunk("c", 0, "sk", {"failures": 1})
        lines = path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(ResilienceWarning, match="quarantined 1"):
            healed = CheckpointJournal(path)
        assert healed.header_fingerprint == {"x": 1}
        assert healed.completed("c", 0, "sk") == {"failures": 1}
        assert "NOT JSON" not in path.read_text()
        healed.close()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            assert journal.ensure_header({"trials": 100, "seed": 1}) is False
        resumed = CheckpointJournal(path)
        assert resumed.ensure_header({"trials": 100, "seed": 1}) is True
        with pytest.raises(CheckpointMismatchError, match="trials"):
            resumed.ensure_header({"trials": 200, "seed": 1})

    def test_seed_key_distinguishes_spawned_children(self):
        seeds = spawn_chunk_seeds(7, 3)
        keys = {seed_key(s) for s in seeds}
        assert len(keys) == 3
        assert keys == {seed_key(s) for s in spawn_chunk_seeds(7, 3)}


class TestJournalFormat:
    def test_one_constant_sets_marker_version_and_chain_seed(self, tmp_path):
        import hashlib

        from repro.runtime import checkpoint, integrity

        assert checkpoint.JOURNAL_VERSION == integrity.JOURNAL_VERSION == 3
        assert integrity.CHAIN_SEED == hashlib.sha256(
            b"repro.journal.v3"
        ).digest()[:8]
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            journal.ensure_header({"x": 1})
            batched(runtime=RuntimeConfig(journal=journal))
        lines = path.read_text().splitlines()
        assert all(line.startswith("3|") for line in lines)
        header = json.loads(lines[0].split("|", 3)[3])
        assert (header["kind"], header["version"]) == ("header", 3)

    def test_chunk_counters_are_the_perf_counter_fields(self, tmp_path):
        from dataclasses import fields

        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            batched(runtime=RuntimeConfig(journal=journal))
        records = [
            json.loads(line.split("|", 3)[3])
            for line in path.read_text().splitlines()
        ]
        names = {f.name for f in fields(PerfCounters)}
        assert "dirty_words_decoded" in names
        assert not {
            "engine_fallbacks",
            "scalar_fallbacks",
            "stragglers_redispatched",
            "duplicate_results",
        } & names
        chunks = [r for r in records if r["kind"] == "chunk"]
        assert len(chunks) == 4
        for record in chunks:
            assert set(record["result"]["counters"]) == names

    def test_directory_path_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="is a directory"):
            CheckpointJournal(tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestResumeDeterminism:
    def test_full_resume_is_bit_identical_and_free(self, tmp_path):
        reference = batched()
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            first = batched(runtime=RuntimeConfig(journal=journal))
        assert first == reference

        counters = PerfCounters()
        with CheckpointJournal(path) as journal:
            resumed = batched(
                runtime=RuntimeConfig(journal=journal), counters=counters
            )
        assert resumed == reference
        assert counters.chunks_resumed == 4  # 300 trials / 75 = all replayed

    def test_partial_journal_resumes_bit_identical(self, tmp_path):
        reference = batched()
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            batched(runtime=RuntimeConfig(journal=journal))

        # Drop the last two chunk records: an interrupt after chunk 1.
        # Lines are framed (version|crc|chain|payload); dropping a
        # suffix keeps the surviving prefix's hash chain intact.
        lines = path.read_text().strip().split("\n")
        kept = [
            line
            for line in lines
            if json.loads(line.split("|", 3)[3]).get("chunk") not in (2, 3)
        ]
        path.write_text("\n".join(kept) + "\n")

        counters = PerfCounters()
        with CheckpointJournal(path) as journal:
            resumed = batched(
                runtime=RuntimeConfig(journal=journal), counters=counters
            )
        assert resumed == reference
        assert counters.chunks_resumed == 2

    def test_records_with_dropped_counter_keys_still_resume(self, tmp_path):
        """Chunk records written while straggler speculation existed carry
        two more counter keys, always zero.  Every block still replays,
        to the fresh estimate: unknown counter keys are ignored, so
        dropping them needed no journal format change."""
        from repro.runtime import scan_journal

        reference = batched()
        fresh = tmp_path / "fresh.jsonl"
        with CheckpointJournal(fresh) as journal:
            batched(runtime=RuntimeConfig(journal=journal))
        older = tmp_path / "older.jsonl"
        with CheckpointJournal(older) as journal:
            for _line, record in scan_journal(fresh).chunk_records:
                result = dict(record["result"])
                result["counters"] = dict(
                    result["counters"],
                    stragglers_redispatched=0,
                    duplicate_results=0,
                )
                journal.record_chunk(
                    record["cell"], record["chunk"], record["seed"], result
                )
        written = [r for _line, r in scan_journal(older).chunk_records]
        assert len(written) == 4
        assert all(
            r["result"]["counters"]["duplicate_results"] == 0 for r in written
        )

        counters = PerfCounters()
        with CheckpointJournal(older) as journal:
            resumed = batched(
                runtime=RuntimeConfig(journal=journal), counters=counters
            )
        assert counters.chunks_resumed == 4
        assert counters.chunks == 4 and counters.trials == 300
        assert resumed == reference

    def test_journal_chunks_are_keyed_by_cell(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal(path) as journal:
            runtime = RuntimeConfig(journal=journal)
            a = simulate_fail_probability_batched(
                "simplex", CODE, 48.0, LAM, 0.0, 150, seed=1, chunk_size=75,
                runtime=runtime, cell_key="0:first",
            )
            b = simulate_fail_probability_batched(
                "simplex", CODE, 48.0, LAM, 0.0, 150, seed=2, chunk_size=75,
                runtime=runtime, cell_key="1:second",
            )
        journal = CheckpointJournal(path)
        assert journal.n_chunks == 4
        assert a != b  # different seeds landed in different namespaces
