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
        assert "  slowest admissible Tsc : 3600 s (60 min)\n" in out
        assert "availability" in out and ">=" not in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--hours", "0"],
            ["--hours", "1e-9"],
            ["--budget", "0.9"],
            ["--seu", "0"],
        ],
        ids=["hours-0", "hours-1e-9", "budget-0.9", "seu-0"],
    )
    def test_scrub_design_sweep_end_is_printed_as_a_bound(self, capsys, extra):
        """The longest swept period meeting the budget says nothing of
        longer ones: it is printed as a lower bound."""
        assert main(["scrub-design", *extra]) == 0
        out = capsys.readouterr().out
        assert (
            "  slowest admissible Tsc : >= 14400 s "
            "(240 min, the longest period swept)\n"
        ) in out

    def test_scrub_design_unmet_budget_is_one_line(self, capsys):
        assert main(["scrub-design", "--budget", "1e-30"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "no swept scrubbing period meets BER budget 1e-30 at 48.0 h\n"


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

    def test_ber_underflow_is_one_line_not_a_traceback(self, capsys):
        """At --seu 1e-300 the BER underflows to 0 at a positive horizon,
        where no log-derivative exists."""
        assert main(["sensitivity", "--seu", "1e-300"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "BER is zero at the evaluation point; elasticity undefined\n"


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
        # the metrics snapshot includes the chunk-latency histogram, and
        # no mirror of the counters
        metric_names = {m["name"] for m in by_kind["metric"]}
        assert "repro.mc.chunk_seconds" in metric_names
        assert not any(name.startswith("repro.perf.") for name in metric_names)

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
        assert manifest["manifest_version"] == 6
        assert manifest["progress"]
        assert manifest["progress"][-1]["done"] == 480
        assert manifest["metrics"]["repro.mc.chunk_seconds"]["count"] == 16
        # wall-clock accounting: elapsed is coordinator wall, cpu additive
        perf = manifest["counters"]
        assert perf["cpu_seconds"] > 0.0
        assert perf["elapsed_seconds"] > 0.0

    def test_manifest_metrics_count_their_own_run(self, tmp_path, capsys):
        """Two campaigns in one process write the same metrics: each run
        counts into a registry of its own, not the process-wide one."""
        import json

        docs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            argv = ["campaign", "--trials", "60", "--chunk-size", "30",
                    "--seed", "3", "--manifest", str(path)]
            assert main(argv) == 0
            docs.append(json.loads(path.read_text()))
        first, second = (doc["metrics"] for doc in docs)
        solver = {name for name in first if name.startswith("repro.solver.")}
        assert solver
        assert set(first) == set(second) == {"repro.mc.chunk_seconds", *solver}
        for doc in docs:
            assert doc["metrics"]["repro.mc.chunk_seconds"]["count"] == 16
            assert doc["counters"]["chunks"] == 16
        assert {name: first[name] for name in solver} == {
            name: second[name] for name in solver
        }


def _unbuffered_cli_env():
    """Environment for ``python -m repro`` subprocesses on this source tree."""
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # each print reaches the pipe at once, so a line printed after the
    # reader has gone fails its write instead of waiting in a buffer
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestClosedStdout:
    def test_reader_closing_after_first_line_changes_nothing(self, tmp_path):
        """``repro campaign ... | head -1``: manifest, results and status hold."""
        import json
        import subprocess
        import sys

        env = _unbuffered_cli_env()
        cmd = [sys.executable, "-m", "repro", "campaign", "--trials", "200"]
        cmd += ["--seed", "7", "--chunk-size", "50"]

        def run(*extra):
            return subprocess.run(
                cmd + list(extra),
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )

        uncut = run("--manifest", "uncut.json")
        # a partial journal, so the cut run prints its first line
        # ("resuming from ...") before it runs the remaining chunks
        assert run("--checkpoint", "j.jsonl", "--chaos", "poison@2").returncode == 70
        with open(tmp_path / "cut.err", "w") as err:
            proc = subprocess.Popen(
                cmd + ["--checkpoint", "j.jsonl", "--manifest", "cut.json"],
                cwd=tmp_path,
                env=env,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=300)
        assert first.startswith("resuming from j.jsonl")
        assert "Traceback" not in (tmp_path / "cut.err").read_text()
        assert code == uncut.returncode == 0
        cut_doc = json.loads((tmp_path / "cut.json").read_text())
        uncut_doc = json.loads((tmp_path / "uncut.json").read_text())
        assert cut_doc["resumed"] is True
        assert cut_doc["results"] == uncut_doc["results"]
        assert cut_doc["fingerprint"] == uncut_doc["fingerprint"]

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["figure", "all", "--points", "5"], 1),
            (["figure", "all", "--points", "5", "--csv", "csv"], 1),
            (["complexity"], 1),
            (["ber", "--points", "5"], 1),
            (["doctor", "."], 0),
            (["sensitivity"], 0),
            (["scrub-design"], 0),
            (["report", "--points", "5", "-o", "r.md"], 0),
            (["verify", "list-targets"], 0),
        ],
        ids=[
            "figure", "figure-csv", "complexity", "ber", "doctor",
            "sensitivity", "scrub-design", "report", "verify",
        ],
    )
    def test_every_subcommand_outlives_its_reader(self, tmp_path, argv, lines):
        """``repro <command> | head -1``: the cut run prints no traceback,
        exits with the uncut run's status and writes the same files."""
        import subprocess
        import sys

        env = _unbuffered_cli_env()
        cmd = [sys.executable, "-m", "repro", *argv]
        uncut_dir, cut_dir = tmp_path / "uncut", tmp_path / "cut"
        uncut_dir.mkdir()
        cut_dir.mkdir()
        uncut = subprocess.run(
            cmd, cwd=uncut_dir, env=env, capture_output=True, timeout=300
        )
        err_path = tmp_path / "cut.err"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                cmd, cwd=cut_dir, env=env, stdout=subprocess.PIPE, stderr=err
            )
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=300)
        assert "Traceback" not in err_path.read_text()
        assert code == uncut.returncode == 0
        assert _files(cut_dir) == _files(uncut_dir)
        if "--csv" in argv:
            assert len(_files(cut_dir)) == 6  # fig5..fig10


class TestCampaignExecutorFlags:
    @pytest.mark.parametrize("name", ["auto", "serial", "pool", "fleet"])
    def test_deleted_executor_flag_is_a_usage_error(self, capsys, name):
        """``--workers`` alone picks in-process or pool: ``--executor``
        is gone, whatever it names."""
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--trials", "20", "--executor", name])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "unrecognized arguments: --executor" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--board", "{tmp}"), ("--fleet-ttl", "5")],
        ids=["board", "fleet-ttl"],
    )
    def test_deleted_fleet_flags_are_usage_errors(
        self, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as info:
            main(["campaign", flag, value.replace("{tmp}", str(tmp_path))])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"unrecognized arguments: {flag}" in err
        assert list(tmp_path.iterdir()) == []

    def test_poisoned_chunk_exits_70_then_resumes(
        self, tmp_path, capsys, fresh_metrics
    ):
        import json

        argv = ["campaign", "--trials", "80", "--seed", "7",
                "--chunk-size", "20"]
        ckpt = str(tmp_path / "p.jsonl")
        code = main(argv + ["--checkpoint", ckpt, "--chaos", "poison@2"])
        assert code == 70
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "chunk 2 failed 3 attempt(s)" in err[0]
        assert "ChaosPoisonError" in err[0]
        assert err[0].endswith("completed chunks are journaled; rerun to resume")

        resumed, reference = tmp_path / "r.json", tmp_path / "ref.json"
        assert main(argv + ["--checkpoint", ckpt,
                            "--manifest", str(resumed)]) == 0
        assert "resuming from" in capsys.readouterr().out
        assert main(argv + ["--manifest", str(reference)]) == 0

        def rows(path):
            return [
                (r["cell"], r["probability"], r["failures"],
                 r["outcome_counts"])
                for r in json.loads(path.read_text())["results"]
            ]

        assert rows(resumed) == rows(reference)


#: ``repro campaign`` arguments refused before any work, with the one
#: stderr line that says why.  ``{tmp}`` is the test's directory.
MISUSE = {
    "trials-zero": (["--trials", "0"], "--trials must be positive"),
    "trials-negative": (["--trials", "-3"], "--trials must be positive"),
    "chunk-size-zero": (["--chunk-size", "0"], "--chunk-size must be positive"),
    "workers-zero": (["--workers", "0"], "--workers must be >= 1"),
    "seed-negative": (["--seed", "-1"], "--seed must be >= 0"),
    # the writer would fail only after every cell had run
    "manifest-directory": (
        ["--manifest", "{tmp}"],
        "--manifest: {tmp} is a directory",
    ),
    "trace-directory": (["--trace", "{tmp}"], "--trace: {tmp} is a directory"),
    **{
        f"stop-rel-ci-{name}": (
            ["--stop-rel-ci", value],
            "--stop-rel-ci must be finite and > 0",
        )
        # nan compares false with "<= 0" and reached StoppingRule's
        # traceback; inf set a rule that any one failure meets
        for name, value in (
            ("zero", "0"), ("negative", "-0.2"), ("nan", "nan"), ("inf", "inf")
        )
    },
    "min-trials-negative": (
        ["--stop-rel-ci", "0.5", "--min-trials", "-1"],
        "--min-trials must be >= 0",
    ),
    "min-trials-alone": (
        ["--min-trials", "50"],
        "--min-trials is a floor for --stop-rel-ci; pass both",
    ),
    "ci-method-alone": (
        ["--ci-method", "jeffreys"],
        "--ci-method selects the --stop-rel-ci interval family; pass both",
    ),
    "max-retries-zero": (["--max-retries", "0"], "--max-retries must be >= 1"),
    **{
        f"chunk-timeout-{value}": (
            ["--chunk-timeout", value],
            "--chunk-timeout must be finite and > 0",
        )
        # nan compares false with every deadline: accepted, it would
        # switch hang detection off
        for value in ("0", "-1", "nan", "inf")
    },
    "bad-chaos": (["--chaos", "nonsense"], "bad --chaos spec: "),
    "deleted-chaos-kind": (
        ["--chaos", "worker-kill@0"],
        "bad --chaos spec: unknown chaos kind 'worker-kill'",
    ),
    "schedule-legs": (
        ["--schedule", "1e-300h@1"],
        "bad fault-physics spec: schedule '1e-300h@1.0' spans 4.8e+301 legs "
        "over the 48 h horizon; at most 1000 are supported",
    ),
}


class TestCampaignMisuse:
    @pytest.mark.parametrize("case", MISUSE)
    def test_refused_before_any_work(self, tmp_path, capsys, case):
        extra, reason = MISUSE[case]
        extra = [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
        reason = reason.replace("{tmp}", str(tmp_path))
        code = main(
            ["campaign", "--trials", "20", "--chunk-size", "10",
             "--manifest", str(tmp_path / "run.json"), *extra]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(reason)
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []  # no journal, no manifest

    def test_directory_checkpoint_is_refused(self, tmp_path, capsys):
        code = main(
            ["campaign", "--trials", "20", "--chunk-size", "10",
             "--checkpoint", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"checkpoint unusable: {tmp_path} is a directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--ci-method", "exact", "--stop-rel-ci", "0.5"],
            ["serve", "--state-dir", "state"],
            ["worker", "--board", "board"],
        ],
        ids=["ci-method", "serve", "worker"],
    )
    def test_unknown_choice_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


#: Time-grid, rate, code and budget arguments refused before any chain
#: is solved, with the one stderr line that says why.
GRID_MISUSE = {
    **{
        f"{command[0]}-points-{points}": (
            [*command, "--points", points],
            "--points must be >= 2 (t = 0 and the horizon)",
        )
        for command in (["figure", "fig5"], ["ber"], ["report"])
        for points in ("0", "1")
    },
    **{
        f"ber-hours-{hours}": (
            ["ber", "--arrangement", "duplex", "--seu", "1e-3", "--hours", hours],
            "--hours must be finite and >= 0",
        )
        for hours in ("-5", "nan", "inf")
    },
    **{
        f"ber-{flag}-{value}": (
            ["ber", f"--{flag}", value],
            f"--{flag} must be finite and >= 0",
        )
        for flag in ("seu", "permanent")
        for value in ("-1", "nan", "inf")
    },
    **{
        f"ber-tsc-{value}": (
            ["ber", "--seu", "1e-3", "--tsc", value],
            "--tsc must be finite and > 0",
        )
        for value in ("0", "-5", "nan", "inf")
    },
    # the writer would fail only after every figure was regenerated
    "report-output-directory": (
        ["report", "-o", "."],
        "-o/--output: . is a directory",
    ),
    "ber-k-above-n": (
        ["ber", "--n", "10", "--k", "16"],
        "need 0 < k < n, got n=10, k=16",
    ),
    "ber-m-zero": (
        ["ber", "--m", "0"],
        "codeword length n=18 exceeds 2^m - 1 for m=0",
    ),
    **{
        f"scrub-design-hours-{hours}": (
            ["scrub-design", "--hours", hours],
            "--hours must be finite and >= 0",
        )
        for hours in ("-5", "nan", "inf")
    },
    **{
        f"sensitivity-hours-{hours}": (
            ["sensitivity", "--hours", hours],
            "--hours must be finite and > 0",
        )
        # BER(0) is 0 for every configuration: no elasticity there
        for hours in ("0", "-5", "nan", "inf")
    },
    "sensitivity-tsc-zero": (
        ["sensitivity", "--tsc", "0"],
        "--tsc must be finite and > 0",
    ),
    "sensitivity-k-above-n": (
        ["sensitivity", "--n", "10", "--k", "16"],
        "need 0 < k < n, got n=10, k=16",
    ),
    **{
        f"scrub-design-budget-{budget}": (
            ["scrub-design", "--budget", budget],
            "--budget must be finite and > 0",
        )
        for budget in ("0", "-1", "nan", "inf")
    },
    "scrub-design-seu-nan": (
        ["scrub-design", "--seu", "nan"],
        "--seu must be finite and >= 0",
    ),
    **{
        f"scrub-design-words-{words}": (
            ["scrub-design", "--words", words],
            "--words must be >= 1",
        )
        for words in ("0", "-5")
    },
    **{
        f"scrub-design-clock-mhz-{clock}": (
            ["scrub-design", "--clock-mhz", clock],
            "--clock-mhz must be finite and > 0",
        )
        for clock in ("0", "-1", "nan", "inf")
    },
}


class TestGridMisuse:
    @pytest.mark.parametrize("case", GRID_MISUSE)
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys, case):
        import repro.memory

        def no_chain(*_args, **_kwargs):
            raise AssertionError("a model was built before the check")

        monkeypatch.setattr(repro.memory, "simplex_model", no_chain)
        monkeypatch.setattr(repro.memory, "duplex_model", no_chain)
        monkeypatch.chdir(tmp_path)
        argv, reason = GRID_MISUSE[case]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(reason)
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []  # no report written


VALIDATE_MISUSE = {
    "trials-zero": (["--trials", "0"], "--trials must be positive"),
    "chunk-size-zero": (["--chunk-size", "0"], "--chunk-size must be positive"),
    "workers-zero": (["--workers", "0"], "--workers must be >= 1"),
    "seed-negative": (["--seed", "-1"], "--seed must be >= 0"),
}


class TestValidateMisuse:
    @pytest.mark.parametrize("case", VALIDATE_MISUSE)
    def test_refused_before_any_work(self, monkeypatch, capsys, case):
        import repro.memory

        def no_chain(*_args, **_kwargs):
            raise AssertionError("a chain was built before the check")

        monkeypatch.setattr(repro.memory, "simplex_model", no_chain)
        monkeypatch.setattr(repro.memory, "duplex_model", no_chain)
        extra, reason = VALIDATE_MISUSE[case]
        code = main(["validate", *extra])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(reason)
        assert "Traceback" not in err
        assert out == ""


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

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            ("DIR", "Is a directory"),
            ('{"arrangement": "simplex", "n": 18,', "Expecting"),
            (
                '{"arrangement": "simplex", "k": 16, "horizon_hours": 48.0}',
                "scenario missing required keys: ['n']",
            ),
            (
                '{"arrangement": "simplex", "n": "a", "k": 16, '
                '"horizon_hours": 48.0}',
                "n must be an integer, got 'a'",
            ),
        ],
        ids=["missing", "directory", "malformed-json", "missing-n", "n-string"],
    )
    def test_bad_input_exits_2_with_one_line(
        self, tmp_path, capsys, content, reason
    ):
        path = tmp_path / "s.json"
        if content == "DIR":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        assert main(["scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("bad scenario file: ") and reason in err
