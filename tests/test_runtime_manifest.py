"""Run-manifest provenance records."""

import json

from repro.perf import PerfCounters
from repro.runtime import SupervisorEvent, build_manifest, git_describe, write_manifest
from repro.simulator import (
    CampaignCell,
    campaign_fingerprint,
    run_campaign,
)


class TestGitDescribe:
    def test_in_this_repo_returns_a_revision(self):
        # The reproduction repo itself is a git checkout.
        import repro

        described = git_describe(cwd=repro.__file__.rsplit("/src/", 1)[0])
        assert described is None or isinstance(described, str)

    def test_outside_any_repo_returns_none(self, tmp_path):
        assert git_describe(cwd=tmp_path) is None


class TestManifest:
    def _rows(self):
        cells = [CampaignCell("simplex", 2e-3, 0.0)]
        rows = run_campaign(
            cells, trials=100, base_seed=5, engine="batch", chunk_size=50
        )
        return cells, rows

    def test_document_shape(self):
        cells, rows = self._rows()
        counters = PerfCounters(trials=100, retries=2, dirty_words_decoded=1)
        events = [SupervisorEvent("retry", 0, 0, "injected")]
        manifest = build_manifest(
            command="campaign",
            fingerprint=campaign_fingerprint(
                cells, 18, 16, 8, 48.0, 100, 5, "batch", 50
            ),
            rows=rows,
            counters=counters,
            events=events,
            wall_clock_seconds=1.25,
            resumed=True,
            checkpoint_path="run.jsonl",
        )
        assert manifest["manifest_version"] == 5
        assert manifest["scenario"] is None
        assert manifest["fingerprint"]["base_seed"] == 5
        assert manifest["fingerprint"]["cells"][0]["arrangement"] == "simplex"
        assert manifest["resumed"] is True
        assert manifest["checkpoint"] == "run.jsonl"
        assert manifest["counters"]["retries"] == 2
        assert manifest["counters"]["dirty_words_decoded"] == 1
        assert "engine_fallbacks" not in manifest["counters"]
        assert "scalar_fallbacks" not in manifest["counters"]
        assert manifest["resilience_events"] == [
            {"kind": "retry", "chunk": 0, "attempt": 0, "detail": "injected"}
        ]
        result = manifest["results"][0]
        assert result["cell"] == rows[0].cell.label()
        assert result["trials"] == 100
        assert result["failures"] == rows[0].estimate.failures
        assert result["pattern"] is None
        assert result["schedule"] is None
        assert isinstance(result["silent_miscorrections"], int)
        assert isinstance(result["detected_uncorrectable"], int)
        assert result["silent_miscorrections"] + result[
            "detected_uncorrectable"
        ] == result["failures"]
        assert set(manifest["environment"]) == {
            "git_describe",
            "python",
            "numpy",
            "platform",
        }

    def test_write_is_valid_json_and_stamped(self, tmp_path):
        cells, rows = self._rows()
        manifest = build_manifest(
            command="campaign",
            fingerprint=campaign_fingerprint(
                cells, 18, 16, 8, 48.0, 100, 5, "batch", 50
            ),
            rows=rows,
            counters=PerfCounters(),
        )
        path = write_manifest(tmp_path / "out" / "m.json", manifest)
        loaded = json.loads(path.read_text())
        assert loaded["created_unix"] > 0
        assert loaded["results"][0]["probability"] == rows[0].estimate.probability

    def test_write_is_atomic_no_temp_litter(self, tmp_path):
        cells, rows = self._rows()
        manifest = build_manifest(
            command="campaign",
            fingerprint=campaign_fingerprint(
                cells, 18, 16, 8, 48.0, 100, 5, "batch", 50
            ),
            rows=rows,
            counters=PerfCounters(),
        )
        out_dir = tmp_path / "out"
        write_manifest(out_dir / "m.json", manifest)
        write_manifest(out_dir / "m.json", manifest)  # overwrite in place
        assert sorted(p.name for p in out_dir.iterdir()) == ["m.json"]
