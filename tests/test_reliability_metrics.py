"""Unit tests for lifetime models and reliability metrics."""

import math

import pytest

from repro.reliability import (
    ExponentialLifetime,
    WeibullLifetime,
    fit_to_rate_per_hour,
    mission_reliability,
    rate_for_target_reliability,
    rate_per_hour_to_fit,
)


class TestFITConversion:
    def test_roundtrip(self):
        assert rate_per_hour_to_fit(fit_to_rate_per_hour(250.0)) == pytest.approx(
            250.0
        )

    def test_one_fit(self):
        assert fit_to_rate_per_hour(1.0) == 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fit_to_rate_per_hour(-1.0)
        with pytest.raises(ValueError):
            rate_per_hour_to_fit(-1.0)


class TestExponential:
    def test_reliability_decay(self):
        life = ExponentialLifetime(0.01)
        assert life.reliability(100.0) == pytest.approx(math.exp(-1.0))

    def test_unreliability_complements(self):
        life = ExponentialLifetime(1e-7)
        t = 1000.0
        assert life.reliability(t) + life.unreliability(t) == pytest.approx(1.0)

    def test_unreliability_stable_for_tiny_rates(self):
        life = ExponentialLifetime(1e-15)
        # naive 1 - exp(-x) would lose precision here
        assert life.unreliability(1.0) == pytest.approx(1e-15, rel=1e-10, abs=0)

    def test_mttf(self):
        assert ExponentialLifetime(0.5).mttf_hours() == 2.0
        assert ExponentialLifetime(0.0).mttf_hours() == math.inf

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ExponentialLifetime(-1.0)


class TestWeibull:
    def test_shape_one_is_exponential(self):
        w = WeibullLifetime(scale_hours=100.0, shape=1.0)
        e = ExponentialLifetime(0.01)
        assert w.reliability(50.0) == pytest.approx(e.reliability(50.0))
        assert w.mttf_hours() == pytest.approx(e.mttf_hours())

    def test_hazard_increases_for_wearout(self):
        w = WeibullLifetime(scale_hours=100.0, shape=2.0)
        assert w.hazard_rate(10.0) < w.hazard_rate(50.0)

    def test_hazard_decreases_for_infant_mortality(self):
        w = WeibullLifetime(scale_hours=100.0, shape=0.5)
        assert w.hazard_rate(10.0) > w.hazard_rate(50.0)

    def test_hazard_at_zero_edge_cases(self):
        assert WeibullLifetime(10.0, 0.5).hazard_rate(0.0) == math.inf
        assert WeibullLifetime(10.0, 1.0).hazard_rate(0.0) == 0.1
        assert WeibullLifetime(10.0, 2.0).hazard_rate(0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeibullLifetime(0.0, 1.0)
        with pytest.raises(ValueError):
            WeibullLifetime(1.0, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            WeibullLifetime(10.0, 1.0).reliability(-1.0)


class TestMissionSizing:
    def test_mission_reliability(self):
        assert mission_reliability(1e-6, 1e6) == pytest.approx(math.exp(-1.0))

    def test_rate_for_target_inverts(self):
        rate = rate_for_target_reliability(0.999, 24 * 730.0)
        assert mission_reliability(rate, 24 * 730.0) == pytest.approx(0.999)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            rate_for_target_reliability(1.5, 100.0)
        with pytest.raises(ValueError):
            rate_for_target_reliability(0.9, 0.0)
