"""Tests for fault-injection campaign orchestration."""

import pytest

from repro.simulator import (
    CampaignCell,
    campaign_summary,
    default_validation_campaign,
    run_campaign,
)


class TestCampaignSetup:
    def test_default_matrix_shape(self):
        cells = default_validation_campaign(
            seu_rates=(1e-3, 2e-3), perm_rates=(0.0, 1e-2)
        )
        assert len(cells) == 8  # 2 arrangements x 2 x 2

    def test_cell_labels(self):
        cell = CampaignCell("duplex", 1e-3, 1e-2, 3600.0)
        label = cell.label()
        assert "duplex" in label
        assert "seu=0.001" in label
        assert "tsc=3600" in label

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_campaign([])

    def test_unknown_arrangement_rejected(self):
        with pytest.raises(ValueError, match="arrangement"):
            run_campaign([CampaignCell("triplex", 1e-3, 0.0)], trials=10)


class TestCampaignExecution:
    @pytest.fixture(scope="class")
    def rows(self):
        cells = [
            CampaignCell("simplex", 2e-3, 0.0),
            CampaignCell("duplex", 2e-3, 0.0),
            CampaignCell("simplex", 0.0, 1e-2),
        ]
        return run_campaign(cells, trials=300, base_seed=99)

    def test_one_row_per_cell(self, rows):
        assert len(rows) == 3

    def test_deterministic_reruns(self, rows):
        again = run_campaign(
            [CampaignCell("simplex", 2e-3, 0.0)], trials=300, base_seed=99
        )
        assert again[0].estimate.probability == rows[0].estimate.probability

    def test_all_cells_consistent(self, rows):
        assert all(row.consistent for row in rows)

    def test_duplex_conservatism_recorded(self, rows):
        duplex = rows[1]
        assert duplex.estimate.probability <= duplex.model_fail_probability

    def test_summary_counts(self, rows):
        summary = campaign_summary(rows)
        assert summary["simplex"] == (2, 2)
        assert summary["duplex"] == (1, 1)


class TestScheduleLegBound:
    """A schedule spanning more than MAX_SCHEDULE_LEGS legs over the
    horizon is refused before any model solve or journal header."""

    def test_bound_is_inclusive_and_names_the_leg_count(self):
        from repro.simulator.campaign import MAX_SCHEDULE_LEGS, check_schedule_legs

        check_schedule_legs(f"{48.0 / MAX_SCHEDULE_LEGS!r}h@1.0", 48.0)
        check_schedule_legs("0.024h@1.0,0.024h@0.0", 24.0)  # 1000 legs
        with pytest.raises(ValueError, match="spans 1200 legs over the 24 h"):
            check_schedule_legs("0.02h@1.0", 24.0)
        with pytest.raises(ValueError, match="spans 4.8e\\+301 legs"):
            check_schedule_legs("1e-300h@1", 48.0)
        check_schedule_legs(None, 48.0)

    def test_leg_count_does_not_list_the_legs(self):
        from repro.simulator.patterns import parse_schedule

        schedule = parse_schedule("1.5h@1.0,0.5h@0.0,2h@3.0")
        assert schedule.legs(48.0) == 36 == len(schedule.windows(48.0))
        assert schedule.legs(5.0) == 4 == len(schedule.windows(5.0))
        assert schedule.legs(0.0) == 0
        assert parse_schedule("1e-310h@1").legs(48.0) == float("inf")

    @pytest.mark.parametrize(
        "call",
        [
            "simulate_fail_probability_batched('simplex', CODE, 48.0, 1e-4,"
            " 0.0, 20, chunk_size=10, workers=2, schedule=SPEC)",
            "simulate_fail_probability('simplex', CODE, 48.0, 1e-4, 0.0, 20,"
            " rng=np.random.default_rng(1), pattern='1BIT', schedule=SPEC)",
            "sample_pattern_events(np.random.default_rng(1), '1BIT', 1e-2,"
            " 18, 8, 48.0, schedule=SPEC)",
        ],
        ids=["batched", "reference", "sample_pattern_events"],
    )
    def test_monte_carlo_entry_points_refuse_instead_of_hanging(self, call):
        """Below ``run_campaign`` the bound holds too: each entry point
        raises a ValueError naming the leg count, before any task is
        dispatched.  A subprocess with a timeout turns a regression
        (one Python step per leg, forever) into a failure, not a hang."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        script = (
            "import numpy as np\n"
            "from repro.rs import RSCode\n"
            "from repro.simulator.montecarlo import (\n"
            "    simulate_fail_probability, simulate_fail_probability_batched)\n"
            "from repro.simulator.patterns import sample_pattern_events\n"
            "CODE, SPEC = RSCode(18, 16, m=8), '1e-300h@1'\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no ValueError')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "spans 4.8e+301 legs over the 48 h horizon" in done.stdout

    def test_run_campaign_refuses_before_the_journal_header(self, tmp_path):
        from repro.runtime import CheckpointJournal, RuntimeConfig

        journal = CheckpointJournal(tmp_path / "run.jsonl")
        cells = [CampaignCell("simplex", 2e-3, 0.0, pattern="1BIT", schedule="0.01h@1")]
        with pytest.raises(ValueError, match="spans 4800 legs"):
            run_campaign(cells, trials=20, runtime=RuntimeConfig(journal=journal))
        journal.close()
        assert not (tmp_path / "run.jsonl").exists()

    def test_every_shipped_schedule_is_accepted(self):
        from repro.simulator.campaign import check_schedule_legs
        from repro.simulator.scenarios import SCENARIOS
        from repro.verify import case_rng
        from repro.verify.generators import (
            gen_mc_replay_case,
            gen_pattern_draw_case,
            gen_scenario_parity_case,
        )

        checked = 0
        for scenario in SCENARIOS.values():
            for cell in scenario.cells:
                check_schedule_legs(cell.schedule, scenario.t_end_hours)
                checked += cell.schedule is not None
        for gen in (gen_mc_replay_case, gen_pattern_draw_case, gen_scenario_parity_case):
            for trial in range(200):
                case = gen(case_rng(3, trial))
                check_schedule_legs(case["schedule"], case["t_end_hours"])
                checked += case["schedule"] is not None
        for spec in (
            "1.36h@1,0.24h@23.3",
            "1.0h@1.0,1.0h@3.0",
            "1.5h@0.0,2.5h@3.25",
            "5.0h@1.0,5.0h@3.0",
            "10.0h@2.0",
            "7h@2.5",
        ):
            check_schedule_legs(spec, 48.0)
        assert checked > 200
