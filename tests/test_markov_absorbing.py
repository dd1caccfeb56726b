"""Tests for absorbing-chain analysis (fundamental-matrix quantities)."""

import math

import numpy as np
import pytest

from repro.markov import (
    CTMC,
    absorption_probabilities,
    expected_time_in_states,
    mean_time_to_absorption,
)


@pytest.fixture
def fork():
    """A -> B (rate 1) or A -> C (rate 3); B, C absorbing."""
    return CTMC(["A", "B", "C"], [("A", "B", 1.0), ("A", "C", 3.0)], "A")


@pytest.fixture
def two_stage():
    """A -> B -> C, rates 2 and 4; C absorbing."""
    return CTMC(["A", "B", "C"], [("A", "B", 2.0), ("B", "C", 4.0)], "A")


class TestAbsorptionProbabilities:
    def test_fork_splits_by_rates(self, fork):
        probs = absorption_probabilities(fork)
        assert probs["B"] == pytest.approx(0.25)
        assert probs["C"] == pytest.approx(0.75)

    def test_single_absorber_gets_everything(self, two_stage):
        probs = absorption_probabilities(two_stage)
        assert probs["C"] == pytest.approx(1.0)

    def test_initial_mass_on_absorbing_state_counted(self):
        chain = CTMC(
            ["A", "B"], [("A", "B", 1.0)], {"A": 0.4, "B": 0.6}
        )
        probs = absorption_probabilities(chain)
        assert probs["B"] == pytest.approx(1.0)

    def test_no_absorbing_states_raises(self):
        chain = CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 1.0)], "A")
        with pytest.raises(ValueError, match="no absorbing"):
            absorption_probabilities(chain)

    def test_matches_long_run_transient(self, fork):
        probs = absorption_probabilities(fork)
        limit = fork.transient([1000.0])[0]
        assert probs["B"] == pytest.approx(limit[fork.index["B"]], rel=1e-9, abs=0)
        assert probs["C"] == pytest.approx(limit[fork.index["C"]], rel=1e-9, abs=0)

    def test_duplex_model_failure_mass(self):
        """End-to-end: the duplex chain eventually always fails without
        scrubbing, and absorption mass says so."""
        from repro.memory import duplex_model

        model = duplex_model(18, 16, seu_per_bit_day=1e-3)
        probs = absorption_probabilities(model.chain)
        assert probs["FAIL"] == pytest.approx(1.0)


class TestExpectedTimeInStates:
    def test_two_stage_sojourns(self, two_stage):
        sojourn = expected_time_in_states(two_stage)
        assert sojourn["A"] == pytest.approx(0.5)
        assert sojourn["B"] == pytest.approx(0.25)
        assert "C" not in sojourn

    def test_sojourns_sum_to_mtta(self, two_stage):
        sojourn = expected_time_in_states(two_stage)
        assert sum(sojourn.values()) == pytest.approx(
            mean_time_to_absorption(two_stage)
        )

    def test_unreachable_absorber_gives_inf(self):
        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1.0), ("B", "A", 1.0), ("A", "C", 0.0)],
            "A",
        )
        # C unreachable: A and B cycle forever
        chain2 = CTMC(
            ["A", "B", "C"], [("A", "B", 1.0), ("B", "A", 1.0)], "A"
        )
        sojourn = expected_time_in_states(chain2)
        assert math.isinf(sojourn["A"]) or math.isinf(sojourn["B"])


class TestStationaryDistribution:
    def test_two_state_balance(self):
        chain = CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 3.0)], "A")
        pi = chain.stationary_distribution()
        assert pi[chain.index["A"]] == pytest.approx(0.75)
        assert pi[chain.index["B"]] == pytest.approx(0.25)

    def test_matches_long_run_transient(self):
        chain = CTMC(
            ["A", "B", "C"],
            [
                ("A", "B", 1.0),
                ("B", "C", 2.0),
                ("C", "A", 0.5),
                ("B", "A", 1.0),
            ],
            "A",
        )
        pi = chain.stationary_distribution()
        limit = chain.transient([500.0])[0]
        assert np.allclose(pi, limit, atol=1e-8)

    def test_sums_to_one(self):
        chain = CTMC(["A", "B"], [("A", "B", 0.1), ("B", "A", 0.2)], "A")
        assert chain.stationary_distribution().sum() == pytest.approx(1.0)
