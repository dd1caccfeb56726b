"""Unit tests for reliability block combinators."""

import math

import pytest

from repro.reliability import (
    cold_standby,
    k_of_n,
    parallel,
    series,
    whole_memory_data_integrity,
)


class TestSeriesParallel:
    def test_series_product(self):
        assert series([0.9, 0.8]) == pytest.approx(0.72)

    def test_series_empty_is_one(self):
        assert series([]) == 1.0

    def test_parallel_complement_product(self):
        assert parallel([0.9, 0.8]) == pytest.approx(0.98)

    def test_parallel_dominated_by_best(self):
        assert parallel([0.99, 0.5]) > 0.99

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            series([1.2])
        with pytest.raises(ValueError):
            parallel([-0.1])


class TestKofN:
    def test_one_of_n_is_parallel(self):
        r = 0.7
        assert k_of_n(1, 3, r) == pytest.approx(parallel([r, r, r]))

    def test_n_of_n_is_series(self):
        r = 0.7
        assert k_of_n(3, 3, r) == pytest.approx(series([r, r, r]))

    def test_two_of_three(self):
        r = 0.9
        expected = 3 * r * r * (1 - r) + r**3
        assert k_of_n(2, 3, r) == pytest.approx(expected)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            k_of_n(0, 3, 0.5)
        with pytest.raises(ValueError):
            k_of_n(4, 3, 0.5)


class TestColdStandby:
    def test_no_spares_is_exponential(self):
        assert cold_standby(0.01, 0, 100.0) == pytest.approx(math.exp(-1.0))

    def test_spares_are_erlang_survival(self):
        lt = 1.0
        expected = math.exp(-lt) * (1 + lt + lt * lt / 2)
        assert cold_standby(0.01, 2, 100.0) == pytest.approx(expected)

    def test_more_spares_always_better(self):
        assert cold_standby(0.01, 3, 100.0) > cold_standby(0.01, 1, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cold_standby(0.01, -1, 100.0)
        with pytest.raises(ValueError):
            cold_standby(-0.01, 1, 100.0)


class TestWholeMemory:
    def test_single_word(self):
        assert whole_memory_data_integrity(0.1, 1) == pytest.approx(0.9)

    def test_many_words_compound(self):
        assert whole_memory_data_integrity(1e-6, 10**6) == pytest.approx(
            math.exp(-1.0), rel=1e-5, abs=0
        )

    def test_stable_for_tiny_word_probability(self):
        # (1 - 1e-18)^1e6: naive power would round to 1.0 - this should too,
        # but via a numerically meaningful path
        r = whole_memory_data_integrity(1e-18, 10**6)
        assert r == pytest.approx(1.0 - 1e-12, rel=1e-6, abs=0)

    def test_certain_word_failure(self):
        assert whole_memory_data_integrity(1.0, 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            whole_memory_data_integrity(0.5, 0)
        with pytest.raises(ValueError):
            whole_memory_data_integrity(1.5, 10)
