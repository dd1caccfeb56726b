"""Tests for whole-memory aggregation."""

import math

import numpy as np
import pytest

from repro.memory import WholeMemory, duplex_model, simplex_model


@pytest.fixture
def word_model():
    return simplex_model(18, 16, seu_per_bit_day=1e-3)


class TestConstruction:
    def test_rejects_nonpositive_word_count(self, word_model):
        with pytest.raises(ValueError):
            WholeMemory(word_model, 0)


class TestDataIntegrity:
    def test_single_word_is_complement(self, word_model):
        mem = WholeMemory(word_model, 1)
        t = [48.0]
        p = word_model.fail_probability(t)[0]
        assert mem.data_integrity(t)[0] == pytest.approx(1.0 - p)

    def test_integrity_decreases_with_size(self, word_model):
        t = [48.0]
        small = WholeMemory(word_model, 10).data_integrity(t)[0]
        large = WholeMemory(word_model, 10_000).data_integrity(t)[0]
        assert large < small

    def test_loss_complements_integrity(self, word_model):
        mem = WholeMemory(word_model, 1000)
        t = [24.0, 48.0]
        total = mem.data_integrity(t) + mem.loss_probability(t)
        assert np.allclose(total, 1.0)

    def test_loss_stable_for_tiny_word_probability(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-9)
        mem = WholeMemory(model, 1000)
        t = [1.0]
        p_word = model.fail_probability(t)[0]
        # union bound regime: loss ~ W * p_word
        assert mem.loss_probability(t)[0] == pytest.approx(
            1000 * p_word, rel=1e-5, abs=0
        )

    def test_expected_unreadable_words(self, word_model):
        mem = WholeMemory(word_model, 500)
        t = [48.0]
        assert mem.expected_unreadable_words(t)[0] == pytest.approx(
            500 * word_model.fail_probability(t)[0]
        )

    def test_perfect_memory(self):
        mem = WholeMemory(simplex_model(18, 16), 1000)
        assert np.all(mem.data_integrity([100.0]) == 1.0)


class TestMTTDL:
    def test_infinite_without_faults(self):
        mem = WholeMemory(simplex_model(18, 16), 100)
        assert mem.mean_time_to_data_loss() == math.inf

    def test_scales_roughly_inverse_in_words(self, word_model):
        """For rare, independent word failures the first loss arrives
        ~W times sooner."""
        small = WholeMemory(word_model, 10).mean_time_to_data_loss()
        large = WholeMemory(word_model, 1000).mean_time_to_data_loss()
        assert large < small
        # word failure times here are Weibull-ish (shape 2: two SEUs), so
        # min of W scales like W^(-1/2); check the direction and order
        assert small / large > 5

    def test_duplex_array_outlasts_simplex_array(self):
        lam = 1e-3
        simplex_mem = WholeMemory(
            simplex_model(18, 16, seu_per_bit_day=lam), 1000
        )
        duplex_mem = WholeMemory(
            duplex_model(18, 16, seu_per_bit_day=lam, fail_rule="both"), 1000
        )
        assert (
            duplex_mem.mean_time_to_data_loss()
            > simplex_mem.mean_time_to_data_loss()
        )
