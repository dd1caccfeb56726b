"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure", "fig5"])
        assert args.ids == ["fig5"]
        assert args.points == 13

    def test_ber_defaults(self):
        args = build_parser().parse_args(["ber"])
        assert args.arrangement == "simplex"
        assert args.n == 18

    def test_doctor_defaults(self):
        args = build_parser().parse_args(["doctor", "state/run.jsonl"])
        assert args.path == "state/run.jsonl"
        assert args.repair is False
        assert build_parser().parse_args(
            ["doctor", "state", "--repair"]
        ).repair is True


class TestFigureCommand:
    def test_single_figure(self, capsys):
        assert main(["figure", "fig5", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "all hold" in out

    def test_unknown_figure_id(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_csv_export(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figure",
                    "fig10",
                    "--points",
                    "3",
                    "--csv",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "fig10.csv").exists()
        # permanent-fault figures export in months
        assert "months" in (tmp_path / "fig10.csv").read_text().splitlines()[0]


class TestBerCommand:
    def test_simplex(self, capsys):
        assert main(["ber", "--seu", "1.7e-5", "--points", "3"]) == 0
        assert "BER(48 h)" in capsys.readouterr().out

    def test_duplex_with_scrub(self, capsys):
        code = main(
            [
                "ber",
                "--arrangement",
                "duplex",
                "--seu",
                "1.7e-5",
                "--tsc",
                "3600",
                "--points",
                "3",
                "--hours",
                "24",
            ]
        )
        assert code == 0
        assert "duplex" in capsys.readouterr().out


class TestOtherCommands:
    def test_complexity(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "74" in out and "308" in out

    def test_validate_small(self, capsys):
        assert main(["validate", "--trials", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "simplex" in out and "OK" in out

    def test_scrub_design(self, capsys):
        assert main(["scrub-design", "--budget", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "Tsc" in out and "availability" in out


class TestReportCommand:
    def test_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out), "--points", "3"]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "fig10" in text
        assert "all paper expectations hold" in text


class TestSensitivityCommand:
    def test_duplex_with_scrub(self, capsys):
        assert main(["sensitivity", "--tsc", "3600"]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "seu_per_bit_day" in out

    def test_no_active_parameters(self, capsys):
        assert main(["sensitivity", "--seu", "0"]) == 1


@pytest.fixture
def fresh_metrics():
    """Isolate the process-global metrics registry per test."""
    from repro.obs.metrics import MetricsRegistry, set_registry

    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestCampaignCommand:
    def test_default_campaign_consistent(self, capsys):
        assert main(["campaign", "--trials", "120", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "simplex: 4/4" in out
        assert "duplex: 4/4" in out

    def test_trace_writes_parseable_jsonl(self, tmp_path, capsys, fresh_metrics):
        import json

        path = tmp_path / "trace.jsonl"
        code = main(
            [
                "campaign",
                "--trials",
                "60",
                "--chunk-size",
                "30",
                "--seed",
                "3",
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        by_kind = {}
        for line in lines:
            by_kind.setdefault(line["kind"], []).append(line)
        # solver spans carry the truncation story
        solver = [
            s
            for s in by_kind["span"]
            if s["name"] == "uniformization_propagate"
        ]
        assert solver and all(
            "terms_used" in s["attrs"] and "tail_bound" in s["attrs"]
            for s in solver
        )
        # chunk heartbeats carry progress with an ETA estimate
        beats = [e for e in by_kind["event"] if e["name"] == "chunk_heartbeat"]
        assert beats
        assert beats[-1]["attrs"]["done"] == beats[-1]["attrs"]["total"]
        assert any(b["attrs"]["eta_seconds"] is not None for b in beats)
        # the metrics snapshot includes the chunk-latency histogram
        metric_names = {m["name"] for m in by_kind["metric"]}
        assert "repro.mc.chunk_seconds" in metric_names
        assert "repro.perf.trials" in metric_names

    def test_progress_prints_heartbeats(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--trials",
                "60",
                "--chunk-size",
                "30",
                "--seed",
                "3",
                "--progress",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "480/480 trials" in err  # 8 cells x 60 trials
        assert "eta" in err

    def test_progress_requires_batch_family_engine(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--trials",
                    "60",
                    "--engine",
                    "reference",
                    "--progress",
                ]
            )
            == 2
        )
        assert "requires the batch engine" in capsys.readouterr().err

    def test_manifest_records_progress_and_metrics(
        self, tmp_path, capsys, fresh_metrics
    ):
        import json

        path = tmp_path / "manifest.json"
        code = main(
            [
                "campaign",
                "--trials",
                "60",
                "--chunk-size",
                "30",
                "--seed",
                "3",
                "--manifest",
                str(path),
            ]
        )
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["manifest_version"] == 3
        assert manifest["progress"]
        assert manifest["progress"][-1]["done"] == 480
        assert manifest["metrics"]["repro.mc.chunk_seconds"]["count"] == 16
        # wall-clock accounting: elapsed is coordinator wall, cpu additive
        perf = manifest["counters"]
        assert perf["cpu_seconds"] > 0.0
        assert perf["elapsed_seconds"] > 0.0


class TestCampaignScenarioFlags:
    def test_list_scenarios(self, capsys):
        from repro.simulator.scenarios import scenario_names

        assert main(["campaign", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["campaign", "--scenario", "no-such-preset"]) == 2
        assert "iid-baseline" in capsys.readouterr().err

    def test_scenario_conflicts_with_pattern_flags(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--scenario",
                    "iid-baseline",
                    "--pattern",
                    "1BIT",
                ]
            )
            == 2
        )
        assert "--scenario" in capsys.readouterr().err

    def test_bad_pattern_spec_exits_2(self, capsys):
        assert main(["campaign", "--pattern", "BOGUS"]) == 2
        assert "BOGUS" in capsys.readouterr().err

    def test_bad_schedule_spec_exits_2(self, capsys):
        assert main(["campaign", "--schedule", "5h"]) == 2
        assert "5h" in capsys.readouterr().err

    def test_scenario_smoke_with_manifest(self, tmp_path, capsys):
        import json

        path = tmp_path / "scenario.json"
        code = main(
            [
                "campaign",
                "--scenario",
                "mbu-cluster",
                "--trials",
                "20",
                "--chunk-size",
                "10",
                "--manifest",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miscorrect=" in out and "unreadable=" in out
        manifest = json.loads(path.read_text())
        assert manifest["scenario"] == "mbu-cluster"
        rows = manifest["results"]
        assert rows
        for row in rows:
            assert row["pattern"] == "0.9*1BIT+0.1*MBU:3"
            # out-of-model physics: graceful degradation, not a wrong model
            assert row["model_fail_probability"] is None
            assert row["consistent"] is True
            assert isinstance(row["silent_miscorrections"], int)
            assert isinstance(row["detected_uncorrectable"], int)

    def test_adhoc_pattern_on_default_matrix(self, capsys):
        code = main(
            [
                "campaign",
                "--trials",
                "20",
                "--chunk-size",
                "10",
                "--seed",
                "3",
                "--pattern",
                "0.9*1BIT+0.1*ROW:3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simplex: 4/4" in out
        assert "duplex: 4/4" in out


class TestScenarioCommand:
    def test_runs_json_suite(self, tmp_path, capsys):
        import json

        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "arrangement": "simplex",
                    "n": 18,
                    "k": 16,
                    "seu_per_bit_day": 1.7e-5,
                    "horizon_hours": 48.0,
                    "points": 3,
                    "ber_budget": 1.0,
                }
            )
        )
        assert main(["scenario", str(path)]) == 0
        assert "MEETS" in capsys.readouterr().out

    def test_budget_miss_returns_nonzero(self, tmp_path, capsys):
        import json

        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "arrangement": "simplex",
                    "n": 18,
                    "k": 16,
                    "seu_per_bit_day": 1.7e-5,
                    "horizon_hours": 48.0,
                    "points": 3,
                    "ber_budget": 1e-12,
                }
            )
        )
        assert main(["scenario", str(path)]) == 1
