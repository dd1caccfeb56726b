"""Input validation and labelling fixes for the Monte-Carlo layer.

These used to surface as deep numpy or ``KeyError`` tracebacks (bad
trials/chunk/worker counts) or as silently ambiguous labels (falsy
fields dropped from ``CampaignCell.label()``).
"""

import pytest

from repro.rs import RSCode
from repro.simulator import (
    CampaignCell,
    run_campaign,
    simulate_fail_probability_batched,
)

CODE = RSCode(18, 16, m=8)
CELLS = [CampaignCell("simplex", 2e-3, 0.0)]


def batched(**kw):
    kw.setdefault("trials", 100)
    return simulate_fail_probability_batched(
        kw.pop("arrangement", "simplex"), CODE, 48.0, 1e-4, 0.0, **kw
    )


class TestBatchedValidation:
    @pytest.mark.parametrize("trials", [0, -1, -100])
    def test_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            batched(trials=trials)

    @pytest.mark.parametrize("chunk_size", [0, -4])
    def test_nonpositive_chunk_size(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            batched(chunk_size=chunk_size)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            batched(workers=workers)

    def test_unknown_arrangement(self):
        with pytest.raises(ValueError, match="unknown arrangement 'triplex'"):
            batched(arrangement="triplex")


class TestCampaignValidation:
    def test_nonpositive_trials(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_campaign(CELLS, trials=0)

    def test_nonpositive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            run_campaign(CELLS, trials=10, chunk_size=0)

    def test_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_campaign(CELLS, trials=10, workers=0)

    def test_unknown_arrangement_checked_before_any_cell_runs(self):
        cells = [CampaignCell("simplex", 2e-3, 0.0), CampaignCell("nplex", 0, 0)]
        with pytest.raises(ValueError, match="unknown arrangement 'nplex'"):
            run_campaign(cells, trials=10)

    def test_deleted_engine_refused_before_the_journal_header(self, tmp_path):
        from repro.runtime import CheckpointJournal, RuntimeConfig

        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as journal:
            with pytest.raises(ValueError, match="got 'reference'"):
                run_campaign(
                    CELLS,
                    trials=10,
                    engine="reference",
                    runtime=RuntimeConfig(journal=journal),
                )
        assert not path.exists()


class TestCellLabels:
    def test_zero_rates_are_rendered(self):
        cell = CampaignCell("simplex", 0.0, 0.0)
        assert cell.label() == "simplex seu=0 perm=0"

    def test_zero_scrub_period_distinct_from_none(self):
        scrubbed_hard = CampaignCell("duplex", 1e-3, 0.0, 0.0)
        unscrubbed = CampaignCell("duplex", 1e-3, 0.0, None)
        assert scrubbed_hard.label() != unscrubbed.label()
        assert "tsc=0s" in scrubbed_hard.label()
        assert "tsc" not in unscrubbed.label()

    def test_labels_unique_across_default_zero_cells(self):
        cells = [
            CampaignCell("simplex", 0.0, 0.0),
            CampaignCell("simplex", 0.0, 1e-2),
            CampaignCell("simplex", 1e-3, 0.0),
            CampaignCell("simplex", 1e-3, 0.0, 0.0),
            CampaignCell("simplex", 1e-3, 0.0, 3600.0),
        ]
        labels = [cell.label() for cell in cells]
        assert len(set(labels)) == len(labels)
