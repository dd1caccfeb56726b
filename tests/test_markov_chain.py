"""Unit tests for the CTMC representation."""

import math

import numpy as np
import pytest

from repro.markov import CTMC


@pytest.fixture
def two_state():
    """Simple decay: A -> B at rate 2.0."""
    return CTMC(["A", "B"], [("A", "B", 2.0)], "A")


@pytest.fixture
def cyclic():
    """A <-> B, both directions."""
    return CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 3.0)], "A")


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CTMC(["A", "A"], [], "A")

    def test_empty_state_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CTMC([], [], "A")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative rate"):
            CTMC(["A", "B"], [("A", "B", -1.0)], "A")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CTMC(["A"], [("A", "A", 1.0)], "A")

    def test_unknown_state_in_transition_rejected(self):
        with pytest.raises(KeyError):
            CTMC(["A"], [("A", "Z", 1.0)], "A")

    def test_parallel_transitions_summed(self):
        chain = CTMC(
            ["A", "B"], [("A", "B", 1.0), ("A", "B", 2.5)], "A"
        )
        assert chain.rate("A", "B") == 3.5

    def test_zero_rate_transitions_dropped(self):
        chain = CTMC(["A", "B"], [("A", "B", 0.0)], "A")
        assert chain.rate_matrix.nnz == 0

    def test_initial_distribution_mapping(self):
        chain = CTMC(["A", "B"], [], {"A": 0.25, "B": 0.75})
        assert chain.p0.tolist() == [0.25, 0.75]

    def test_initial_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            CTMC(["A", "B"], [], {"A": 0.4, "B": 0.4})

    def test_negative_initial_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CTMC(["A", "B"], [], {"A": -0.5, "B": 1.5})


class TestStructure:
    def test_generator_rows_sum_to_zero(self, cyclic):
        q = cyclic.generator(dense=True)
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_generator_diagonal_is_negative_exit_rate(self, cyclic):
        q = cyclic.generator(dense=True)
        assert q[0, 0] == -1.0
        assert q[1, 1] == -3.0

    def test_absorbing_states(self, two_state):
        assert two_state.absorbing_states() == ["B"]

    def test_exit_rates(self, two_state):
        assert two_state.exit_rates().tolist() == [2.0, 0.0]

    def test_rate_lookup(self, cyclic):
        assert cyclic.rate("A", "B") == 1.0
        assert cyclic.rate("B", "A") == 3.0
        assert cyclic.rate("A", "A") == 0.0

    def test_repr(self, cyclic):
        assert "num_states=2" in repr(cyclic)


class TestTransient:
    def test_matches_exponential_decay(self, two_state):
        times = [0.0, 0.1, 0.5, 1.0, 3.0]
        probs = two_state.transient(times)
        for t, row in zip(times, probs):
            assert row[0] == pytest.approx(math.exp(-2.0 * t), rel=1e-10, abs=0)
            assert row[1] == pytest.approx(-math.expm1(-2.0 * t), rel=1e-10, abs=0)

    def test_t_zero_returns_initial(self, cyclic):
        probs = cyclic.transient([0.0])
        assert probs[0].tolist() == [1.0, 0.0]

    def test_two_state_equilibrium(self, cyclic):
        probs = cyclic.transient([100.0])[0]
        # stationary distribution of A<->B with rates 1, 3 is (3/4, 1/4)
        assert probs[0] == pytest.approx(0.75, rel=1e-9, abs=0)
        assert probs[1] == pytest.approx(0.25, rel=1e-9, abs=0)

    def test_probability_conserved(self, cyclic):
        probs = cyclic.transient(np.linspace(0, 10, 11))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_unsorted_time_grid(self, two_state):
        shuffled = [3.0, 0.5, 1.0, 0.0]
        probs = two_state.transient(shuffled)
        for t, row in zip(shuffled, probs):
            assert row[0] == pytest.approx(math.exp(-2.0 * t), rel=1e-9, abs=0)

    def test_negative_time_rejected(self, two_state):
        with pytest.raises(ValueError, match="nonnegative"):
            two_state.transient([-1.0])

    def test_unknown_method_rejected(self, two_state):
        with pytest.raises(ValueError, match="unknown method"):
            two_state.transient([1.0], method="magic")

    def test_state_probability(self, two_state):
        p = two_state.state_probability("B", [1.0])
        assert p[0] == pytest.approx(-math.expm1(-2.0), rel=1e-10, abs=0)

    def test_no_transitions_is_static(self):
        chain = CTMC(["A", "B"], [], "A")
        probs = chain.transient([0.0, 5.0, 50.0])
        assert np.allclose(probs[:, 0], 1.0)


class TestAbsorption:
    def test_mtta_exponential(self, two_state):
        assert two_state.mean_time_to_absorption(["B"]) == pytest.approx(0.5)

    def test_mtta_erlang_chain(self):
        # A -> B -> C with rates 1 and 2: MTTA = 1 + 0.5
        chain = CTMC(
            ["A", "B", "C"], [("A", "B", 1.0), ("B", "C", 2.0)], "A"
        )
        assert chain.mean_time_to_absorption(["C"]) == pytest.approx(1.5)

    def test_mtta_unreachable_is_infinite(self):
        chain = CTMC(["A", "B", "C"], [("A", "B", 1.0)], "A")
        assert chain.mean_time_to_absorption(["C"]) == math.inf

    def test_mtta_all_targets_is_zero(self, two_state):
        assert two_state.mean_time_to_absorption(["A", "B"]) == 0.0
