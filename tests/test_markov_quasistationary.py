"""Tests for quasi-stationary analysis."""

import math

import numpy as np
import pytest

from repro.markov import CTMC, quasi_stationary


class TestQuasiStationary:
    def test_pure_decay_two_state(self):
        """A -> FAIL at rate r: QSD is all on A, decay rate r."""
        chain = CTMC(["A", "FAIL"], [("A", "FAIL", 0.3)], "A")
        qs = quasi_stationary(chain)
        assert qs.distribution == {"A": 1.0}
        assert qs.decay_rate == pytest.approx(0.3)
        assert qs.mean_residual_life() == pytest.approx(1 / 0.3)

    def test_no_absorbing_states_rejected(self):
        chain = CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 1.0)], "A")
        with pytest.raises(ValueError, match="no absorbing"):
            quasi_stationary(chain)

    def test_all_absorbing_rejected(self):
        chain = CTMC(["A"], [], "A")
        with pytest.raises(ValueError, match="transient"):
            quasi_stationary(chain)

    def test_distribution_normalized_nonnegative(self):
        chain = CTMC(
            ["A", "B", "F"],
            [("A", "B", 1.0), ("B", "A", 0.5), ("B", "F", 0.2)],
            "A",
        )
        qs = quasi_stationary(chain)
        assert sum(qs.distribution.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in qs.distribution.values())

    def test_decay_rate_matches_long_run_survival(self):
        """log-survival slope converges to the QSD decay rate."""
        chain = CTMC(
            ["A", "B", "F"],
            [("A", "B", 0.8), ("B", "A", 0.3), ("B", "F", 0.4)],
            "A",
        )
        qs = quasi_stationary(chain)
        t1, t2 = 40.0, 60.0
        probs = chain.transient([t1, t2])
        f_idx = chain.index["F"]
        s1 = 1.0 - probs[0, f_idx]
        s2 = 1.0 - probs[1, f_idx]
        measured = -(math.log(s2) - math.log(s1)) / (t2 - t1)
        assert measured == pytest.approx(qs.decay_rate, rel=1e-6, abs=0)

    def test_conditional_distribution_converges_to_qsd(self):
        chain = CTMC(
            ["A", "B", "F"],
            [("A", "B", 1.0), ("B", "A", 0.7), ("B", "F", 0.5)],
            "A",
        )
        qs = quasi_stationary(chain)
        probs = chain.transient([80.0])[0]
        surv = probs[chain.index["A"]] + probs[chain.index["B"]]
        conditional = {
            "A": probs[chain.index["A"]] / surv,
            "B": probs[chain.index["B"]] / surv,
        }
        for state, value in conditional.items():
            assert value == pytest.approx(qs.distribution[state], rel=1e-6, abs=0)

    def test_memory_model_qsd(self):
        """On the simplex paper chain, late survivors carry damage: the
        QSD puts nonzero weight on the single-error state."""
        from repro.memory import simplex_model

        model = simplex_model(18, 16, seu_per_bit_day=1e-3)
        qs = quasi_stationary(model.chain)
        assert qs.distribution[(0, 1)] > 0.5
        assert qs.decay_rate > 0

    def test_scrubbing_shrinks_decay_rate(self):
        from repro.memory import simplex_model

        base = simplex_model(18, 16, seu_per_bit_day=1e-3)
        scrubbed = simplex_model(
            18, 16, seu_per_bit_day=1e-3, scrub_period_seconds=900.0
        )
        assert (
            quasi_stationary(scrubbed.chain).decay_rate
            < quasi_stationary(base.chain).decay_rate
        )
