"""Tests for read-traffic integration over the BER trajectory."""

import math

import pytest

from repro.memory import (
    expected_failed_reads,
    simplex_model,
    time_of_first_expected_failure,
    workload_averaged_ber,
)


@pytest.fixture
def model():
    return simplex_model(18, 16, seu_per_bit_day=1.7e-5)


class TestExpectedFailedReads:
    def test_validation(self, model):
        with pytest.raises(ValueError):
            expected_failed_reads(model, -1.0, 48.0)
        with pytest.raises(ValueError):
            expected_failed_reads(model, 1.0, 0.0)

    def test_zero_read_rate(self, model):
        assert expected_failed_reads(model, 0.0, 48.0) == 0.0

    def test_linear_in_read_rate(self, model):
        one = expected_failed_reads(model, 100.0, 48.0)
        ten = expected_failed_reads(model, 1000.0, 48.0)
        assert ten == pytest.approx(10 * one)

    def test_quadratic_failure_growth_integrates_to_third(self, model):
        """P_fail ~ c t^2 in the t=1 transient regime, so the integral
        over [0, T] is ~ c T^3 / 3 = P_fail(T) * T / 3."""
        t = 48.0
        pf_end = model.fail_probability([t])[0]
        expected = 1000.0 * pf_end * t / 3.0
        assert expected_failed_reads(model, 1000.0, t) == pytest.approx(
            expected, rel=0.02, abs=0
        )

    def test_no_faults_no_failures(self):
        clean = simplex_model(18, 16)
        assert expected_failed_reads(clean, 1000.0, 48.0) == 0.0


class TestWorkloadAveragedBer:
    def test_below_final_ber(self, model):
        avg = workload_averaged_ber(model, 48.0)
        final = model.ber([48.0])[0]
        assert 0 < avg < final

    def test_quadratic_regime_ratio_is_one_third(self, model):
        avg = workload_averaged_ber(model, 48.0)
        final = model.ber([48.0])[0]
        assert avg / final == pytest.approx(1 / 3, rel=0.02, abs=0)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            workload_averaged_ber(model, -1.0)


class TestFirstExpectedFailure:
    def test_bisection_hits_unity(self, model):
        rate = 1000.0
        t_star = time_of_first_expected_failure(model, rate)
        assert expected_failed_reads(model, rate, t_star) == pytest.approx(
            1.0, rel=1e-3, abs=0
        )

    def test_monotone_in_read_rate(self, model):
        slow = time_of_first_expected_failure(model, 10.0)
        fast = time_of_first_expected_failure(model, 10_000.0)
        assert fast < slow

    def test_infinite_for_clean_memory(self):
        clean = simplex_model(18, 16)
        assert time_of_first_expected_failure(clean, 1000.0) == math.inf

    def test_rate_validation(self, model):
        with pytest.raises(ValueError):
            time_of_first_expected_failure(model, 0.0)
