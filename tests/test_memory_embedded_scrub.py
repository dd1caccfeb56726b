"""Tests for the scrub-synchronized embedded-DTMC analysis."""

import pytest

from repro.memory import duplex_model, embedded_scrub_analysis, simplex_model
from repro.memory.scrubbing import deterministic_scrub_fail_probability


class TestEmbeddedAnalysis:
    def test_no_faults_zero_rate(self):
        result = embedded_scrub_analysis(simplex_model(18, 16), 1.0)
        assert result.per_period_loss == 0.0
        assert result.equivalent_rate_per_hour == 0.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            embedded_scrub_analysis(
                simplex_model(18, 16, seu_per_bit_day=1e-5), 0.0
            )

    def test_matches_deterministic_transient_slope(self):
        """The asymptotic per-hour hazard must equal the slope of the
        exact piecewise-deterministic solution once transients die out."""
        model = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        result = embedded_scrub_analysis(model, 1.0)
        pf = deterministic_scrub_fail_probability(model, [100.0, 200.0], 1.0)
        slope = (pf[1] - pf[0]) / 100.0
        assert result.equivalent_rate_per_hour == pytest.approx(
            slope, rel=1e-4, abs=0
        )

    def test_shorter_period_lower_loss_rate(self):
        model = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        fast = embedded_scrub_analysis(model, 0.25)
        slow = embedded_scrub_analysis(model, 1.0)
        assert fast.equivalent_rate_per_hour < slow.equivalent_rate_per_hour

    def test_simplex_loss_rate_positive(self):
        model = simplex_model(18, 16, seu_per_bit_day=1.7e-5)
        result = embedded_scrub_analysis(model, 0.5)
        assert 0.0 < result.per_period_loss < 1.0

    def test_scrubbing_beats_no_scrub_hazard(self):
        """The per-hour hazard under hourly scrubbing must be far below
        the unscrubbed failure rate scale (two SEUs per word per 48 h)."""
        model = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        scrubbed = embedded_scrub_analysis(model, 1.0)
        unscrubbed_48h = model.fail_probability([48.0])[0]
        assert scrubbed.equivalent_rate_per_hour * 48.0 < unscrubbed_48h

    def test_mission_budgeting_consistency(self):
        """rate x horizon approximates the long-run failure probability."""
        model = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        result = embedded_scrub_analysis(model, 1.0)
        pf = deterministic_scrub_fail_probability(model, [500.0], 1.0)[0]
        assert pf == pytest.approx(
            result.equivalent_rate_per_hour * 500.0, rel=0.05, abs=0
        )
