"""``repro doctor``: audit/repair CLI over journals, manifests, locks.

Exercised in-process through ``repro.cli.main`` — the JSON report is
the machine-readable contract, the exit code is the scriptable one
(0 healthy/repaired, 1 unrepaired damage, 2 usage).
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.rs import RSCode
from repro.runtime import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    JournalLock,
    RuntimeConfig,
    write_manifest,
)
from repro.runtime.integrity import quarantine_path, scan_journal
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0


def batched(runtime=None):
    return simulate_fail_probability_batched(
        "simplex",
        CODE,
        48.0,
        LAM,
        0.0,
        60,
        seed=5,
        chunk_size=20,
        runtime=runtime,
    )


def record_journal(path):
    with CheckpointJournal(path) as journal:
        journal.ensure_header({"seed": 5})
        result = batched(runtime=RuntimeConfig(journal=journal))
    return result


def doctor(capsys, *argv):
    code = main(["doctor", *argv])
    return code, json.loads(capsys.readouterr().out)


class TestAudit:
    def test_healthy_journal_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        code, report = doctor(capsys, str(path))
        assert code == 0
        assert report["healthy"] is True
        journal = report["journals"][0]
        assert journal["classification"] == "healthy"
        assert journal["version"] == 3
        assert journal["fingerprint_present"] is True
        assert journal["lock"]["held"] is False

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_journal_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x02
        path.write_bytes(bytes(blob))
        code, report = doctor(capsys, str(path))
        assert code == 1
        assert report["healthy"] is False
        assert report["journals"][0]["classification"] == "corrupt"
        assert report["journals"][0]["damage"]

    def test_held_lock_is_reported(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        with JournalLock(path):
            code, report = doctor(capsys, str(path))
        assert code == 0  # a held lock is healthy, just reported
        assert report["journals"][0]["lock"]["held"] is True

    def test_directory_audit_covers_journals_and_manifests(
        self, tmp_path, capsys
    ):
        record_journal(tmp_path / "a.jsonl")
        record_journal(tmp_path / "b.jsonl")
        write_manifest(
            tmp_path / "run.json", {"manifest_version": 2, "results": []}
        )
        (tmp_path / "notes.json").write_text('{"unrelated": true}')
        code, report = doctor(capsys, str(tmp_path))
        assert code == 0
        assert len(report["journals"]) == 2
        assert len(report["manifests"]) == 1
        assert report["manifests"][0]["ok"] is True

    def test_truncated_manifest_fails_directory_audit(self, tmp_path, capsys):
        record_journal(tmp_path / "a.jsonl")
        (tmp_path / "run.json").write_text('{"manifest_version": 2, "resu')
        code, report = doctor(capsys, str(tmp_path))
        assert code == 1
        assert report["healthy"] is False


#: Board layouts of the deleted executors: the fleet's, and the lease
#: executor's before it (no ``workers/``, pid-suffixed leases).
BOARDS = {
    "fleet": {
        "todo/00000002.e0000.task": b"payload",
        "leases/00000001.e0000.task.deadhost": b"x",
        "done/00000000.e0000.tmp.w1": b"torn",
        "workers/deadhost.hb": b"{}",
        "STOP": b"",
    },
    "lease": {
        "todo/00000002": b"payload",
        "leases/00000001.4242": b"x",
        "done/00000000.tmp.4242": b"torn",
    },
}


def _make_board(root, kind, name="run.board"):
    board = root / name
    for sub in ("todo", "leases", "done"):
        (board / sub).mkdir(parents=True)
    for rel, blob in BOARDS[kind].items():
        (board / rel).parent.mkdir(parents=True, exist_ok=True)
        (board / rel).write_bytes(blob)
    return board


def _tree(root):
    """Every path under ``root`` with its bytes (``None`` for a directory)."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


class TestLeftoverBoard:
    """A board of the deleted fleet/lease executors: reported, never read."""

    @pytest.mark.parametrize("kind", BOARDS)
    def test_board_is_unsupported_and_repair_leaves_it(
        self, tmp_path, capsys, kind
    ):
        board = _make_board(tmp_path, kind)
        before = _tree(tmp_path)
        code, report = doctor(capsys, str(board))
        assert code == 1
        assert report["schema"] == 3 and report["healthy"] is False
        assert report["journals"] == [] and report["manifests"] == []
        (entry,) = report["boards"]
        assert entry["path"] == str(board) and entry["kind"] == "board"
        assert entry["classification"] == "unsupported"
        assert entry["unsupported"].startswith("a board of the deleted")
        assert "untouched" in entry["unsupported"]

        code, report = doctor(capsys, str(board), "--repair")
        assert code == 1
        assert report["repairs"] == []
        assert report["boards"][0]["classification"] == "unsupported"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("kind", BOARDS)
    def test_board_beside_a_journal_is_unsupported(
        self, tmp_path, capsys, kind
    ):
        record_journal(tmp_path / "ckpt.jsonl")
        board = _make_board(tmp_path, kind, name="ckpt.jsonl.board")
        before = _tree(board)
        code, report = doctor(capsys, str(tmp_path))
        assert code == 1 and report["healthy"] is False
        assert [j["classification"] for j in report["journals"]] == ["healthy"]
        assert [(b["path"], b["classification"]) for b in report["boards"]] == [
            (str(board), "unsupported")
        ]

        code, report = doctor(capsys, str(tmp_path), "--repair")
        assert code == 1
        assert report["repairs"] == []
        assert [j["classification"] for j in report["journals"]] == ["healthy"]
        assert _tree(board) == before

    def test_directory_without_leases_is_not_a_board(self, tmp_path, capsys):
        record_journal(tmp_path / "ckpt.jsonl")
        for sub in ("todo", "done", "workers"):
            (tmp_path / "queue" / sub).mkdir(parents=True)
        code, report = doctor(capsys, str(tmp_path))
        assert code == 0
        assert report["boards"] == []


class TestRepair:
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_repair_then_resume_bit_identical(self, tmp_path, capsys, mode):
        path = tmp_path / "run.jsonl"
        reference = record_journal(path)
        blob = path.read_bytes()
        if mode == "flip":
            mutated = bytearray(blob)
            mutated[len(blob) // 2] ^= 0x10
            path.write_bytes(bytes(mutated))
        else:
            path.write_bytes(blob[: len(blob) - 9])

        code, report = doctor(capsys, str(path), "--repair")
        assert code == 0
        assert report["healthy"] is True
        assert report["repairs"] and report["repairs"][0]["repaired"]
        assert report["journals"][0]["classification"] == "healthy"

        with CheckpointJournal(path) as journal:
            resumed = batched(runtime=RuntimeConfig(journal=journal))
        assert resumed == reference

    def test_repair_quarantines_not_deletes(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        code, report = doctor(capsys, str(path), "--repair")
        assert code == 0
        assert report["repairs"][0]["quarantined_lines"] >= 1
        sidecar = report["journals"][0]["quarantine"]
        assert sidecar["exists"] is True
        assert sidecar["entries"] >= 1

    def test_repair_is_idempotent(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_journal(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code1, report1 = doctor(capsys, str(path), "--repair")
            code2, report2 = doctor(capsys, str(path), "--repair")
        assert code1 == code2 == 0
        assert report1["repairs"][0]["repaired"] is True
        assert report2["repairs"] == []  # nothing left to do


def make_file(path, kind):
    """A file of one of the :data:`KINDS` that no journal may read."""
    if kind == "csv":
        path.write_text("cell,probability\nsimplex,0.1\n")
    elif kind == "csv-starting-with-3":
        # Its first byte is the marker's, its second is not.
        path.write_text("3,simplex,0.1\n4,duplex,0.2\n")
    elif kind == "manifest":
        write_manifest(path, {"manifest_version": 4, "results": []})
    elif kind == "trace":
        path.write_text(
            '{"kind": "span", "name": "campaign_cell"}\n'
            '{"kind": "event", "name": "chunk_retry"}\n'
        )
    elif kind == "binary":
        path.write_bytes(b"\x1f\x8b\x08\x00" + bytes(range(256)))
    else:
        # A recorded journal in another format: frames stripped (v1) or
        # re-marked with another version (v2, v4).
        record_journal(path)
        lines = path.read_text().splitlines()
        if kind == "v1":
            lines = [line.split("|", 3)[3] for line in lines]
        elif kind == "v2-header-only":
            lines = ["2" + lines[0][1:]]
        else:
            lines = [kind[1] + line[1:] for line in lines]
        path.write_text("".join(line + "\n" for line in lines))


#: file kind -> (the ``version`` doctor reports, what the file is called)
KINDS = {
    "v1": (1, "a v1 journal"),
    "v2": (2, "a v2 journal"),
    "v2-header-only": (2, "a v2 journal"),
    "v4": (4, "a v4 journal"),
    "csv": (None, "not a journal"),
    "csv-starting-with-3": (None, "not a journal"),
    "manifest": (None, "not a journal"),
    "trace": (None, "not a journal"),
    "binary": (None, "not a journal"),
}


class TestUnsupportedFiles:
    """Older journal formats and foreign files: refused, never touched."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_journal_refuses_and_leaves_the_file(self, tmp_path, kind):
        path = tmp_path / "old.jsonl"
        make_file(path, kind)
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        with pytest.raises(CheckpointError) as info:
            CheckpointJournal(path)
        assert not isinstance(info.value, CheckpointMismatchError)
        message = str(info.value)
        assert message.startswith(f"{path} is {KINDS[kind][1]}")
        assert "reads only v3 journals" in message
        assert "delete it, or pass a fresh --checkpoint path" in message
        assert message.endswith("and rerun")
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing  # no sidecar, no lock

    @pytest.mark.parametrize("kind", KINDS)
    def test_scan_classifies_without_parsing(self, tmp_path, kind):
        path = tmp_path / "old.jsonl"
        make_file(path, kind)
        scan = scan_journal(path)
        assert scan.classification == "unsupported"
        assert scan.version == KINDS[kind][0]
        assert scan.unsupported.startswith(KINDS[kind][1])
        assert scan.records == [] and scan.damage == []
        assert scan.header is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_campaign_refuses_with_one_line(self, tmp_path, capsys, kind):
        path = tmp_path / "old.jsonl"
        make_file(path, kind)
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        code = main(
            ["campaign", "--trials", "20", "--chunk-size", "10",
             "--checkpoint", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("checkpoint unusable:")
        assert KINDS[kind][1] in err and "rerun" in err
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing  # no sidecar

    @pytest.mark.parametrize("kind", KINDS)
    def test_audit_reports_unsupported(self, tmp_path, capsys, kind):
        path = tmp_path / "old.jsonl"
        make_file(path, kind)
        code, report = doctor(capsys, str(path))
        assert code == 1
        assert report["schema"] == 3
        journal = report["journals"][0]
        assert journal["classification"] == "unsupported"
        assert journal["version"] == KINDS[kind][0]
        assert journal["unsupported"].startswith(KINDS[kind][1])
        assert journal["records"] == 0 and journal["damage"] == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_repair_skips_and_leaves_bytes(self, tmp_path, capsys, kind):
        path = tmp_path / "old.jsonl"
        make_file(path, kind)
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        code, report = doctor(capsys, str(path), "--repair")
        assert code == 1
        assert report["journals"][0]["classification"] == "unsupported"
        assert report["repairs"][0]["repaired"] is False
        assert "left untouched" in report["repairs"][0]["skipped"]
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing  # no sidecar

    def test_directory_audit_flags_the_old_journal_only(
        self, tmp_path, capsys
    ):
        record_journal(tmp_path / "new.jsonl")
        make_file(tmp_path / "old.jsonl", "v2")
        code, report = doctor(capsys, str(tmp_path))
        assert code == 1
        assert report["healthy"] is False
        classes = {
            Path(j["path"]).name: j["classification"]
            for j in report["journals"]
        }
        assert classes == {"new.jsonl": "healthy", "old.jsonl": "unsupported"}

    def test_directory_repair_heals_v3_and_skips_the_old_journal(
        self, tmp_path, capsys
    ):
        torn = tmp_path / "torn.jsonl"
        reference = record_journal(torn)
        torn.write_bytes(torn.read_bytes()[:-9])
        old = tmp_path / "old.jsonl"
        make_file(old, "v2")
        before = old.read_bytes()
        code, report = doctor(capsys, str(tmp_path), "--repair")
        assert code == 1  # the old journal stays, so still unhealthy
        actions = {Path(r["path"]).name: r for r in report["repairs"]}
        assert actions["torn.jsonl"]["repaired"] is True
        assert actions["old.jsonl"]["repaired"] is False
        assert "left untouched" in actions["old.jsonl"]["skipped"]
        assert old.read_bytes() == before
        assert not quarantine_path(old).exists()
        with CheckpointJournal(torn) as journal:
            resumed = batched(runtime=RuntimeConfig(journal=journal))
        assert resumed == reference
