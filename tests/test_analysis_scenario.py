"""Tests for the JSON scenario runner."""

import json

import pytest

from repro.analysis import (
    run_scenario,
    run_scenario_file,
    run_scenario_suite,
    validate_scenario,
)

BASE = {
    "arrangement": "duplex",
    "n": 18,
    "k": 16,
    "seu_per_bit_day": 1.7e-5,
    "scrub_period_seconds": 3600,
    "horizon_hours": 48.0,
    "points": 5,
}


class TestValidation:
    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing"):
            validate_scenario({"arrangement": "simplex"})

    def test_unknown_key_rejected(self):
        bad = dict(BASE, typo_field=1)
        with pytest.raises(ValueError, match="unknown"):
            validate_scenario(bad)

    def test_bad_arrangement(self):
        with pytest.raises(ValueError, match="arrangement"):
            validate_scenario(dict(BASE, arrangement="triplex"))

    def test_defaults_filled(self):
        cfg = validate_scenario(
            {"arrangement": "simplex", "n": 18, "k": 16, "horizon_hours": 1.0}
        )
        assert cfg["m"] == 8
        assert cfg["points"] == 13
        assert cfg["seu_per_bit_day"] == 0.0

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            validate_scenario(dict(BASE, horizon_hours=0.0))

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("n", "a", "an integer"),
            ("k", 16.0, "an integer"),
            ("m", True, "an integer"),
            ("points", None, "an integer"),
            ("seu_per_bit_day", "1e-5", "a number"),
            ("horizon_hours", False, "a number"),
            ("scrub_period_seconds", [3600], "a number"),
            ("ber_budget", "tight", "a number"),
            ("name", 7, "a string"),
            ("fail_rule", None, "a string"),
        ],
    )
    def test_wrong_type_is_a_value_error(self, key, value, kind):
        with pytest.raises(ValueError, match=f"{key} must be {kind}"):
            validate_scenario(dict(BASE, **{key: value}))

    @pytest.mark.parametrize("config", [[BASE], "duplex", 18])
    def test_non_object_is_a_value_error(self, config):
        with pytest.raises(ValueError, match="a scenario is a JSON object"):
            validate_scenario(config)

    def test_original_config_untouched(self):
        config = dict(BASE)
        validate_scenario(config)
        assert "m" not in config


class TestRunScenario:
    def test_fig7_point_meets_budget(self):
        result = run_scenario(dict(BASE, ber_budget=1e-6, name="fig7"))
        assert result.name == "fig7"
        assert result.final_ber == pytest.approx(9.23e-7, rel=0.01, abs=0)
        assert result.meets_budget is True

    def test_budget_miss(self):
        cfg = dict(BASE, ber_budget=1e-9)
        assert run_scenario(cfg).meets_budget is False

    def test_no_budget_verdict_is_none(self):
        assert run_scenario(dict(BASE)).meets_budget is None

    def test_simplex_arrangement(self):
        cfg = {
            "arrangement": "simplex",
            "n": 36,
            "k": 16,
            "erasure_per_symbol_day": 1e-6,
            "horizon_hours": 730.0,
            "points": 3,
        }
        result = run_scenario(cfg)
        assert result.final_ber > 0
        assert result.mttf_hours > 0

    def test_summary_mentions_budget(self):
        text = run_scenario(dict(BASE, ber_budget=1e-6)).summary()
        assert "MEETS" in text


class TestFileInterface:
    def test_single_scenario_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(BASE))
        result = run_scenario_file(path)
        assert result.final_ber > 0

    def test_list_file_via_suite(self, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps([BASE, dict(BASE, name="b")]))
        results = run_scenario_suite(path)
        assert len(results) == 2
        assert results[1].name == "b"

    def test_single_file_rejected_by_run_scenario_file_for_lists(
        self, tmp_path
    ):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([BASE]))
        with pytest.raises(ValueError, match="list"):
            run_scenario_file(path)

    def test_suite_accepts_single_object(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps(BASE))
        assert len(run_scenario_suite(path)) == 1
