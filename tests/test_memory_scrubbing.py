"""Unit tests for the deterministic-period scrubbing extension."""

import numpy as np
import pytest

from repro.memory import duplex_model, scrubbing, simplex_model
from repro.memory.scrubbing import (
    deterministic_scrub_ber,
    deterministic_scrub_fail_probability,
    embedded_scrub_analysis,
    scrub_image,
)


class TestScrubImage:
    def test_simplex_clears_random_errors(self):
        m = simplex_model(18, 16, seu_per_bit_day=1.0)
        assert scrub_image(m, (1, 1)) == (1, 0)

    def test_duplex_merges_b_into_y(self):
        m = duplex_model(18, 16, seu_per_bit_day=1.0)
        assert scrub_image(m, (1, 2, 1, 1, 1, 1)) == (1, 3, 0, 0, 0, 0)

    def test_fail_stays_failed(self):
        m = simplex_model(18, 16, seu_per_bit_day=1.0)
        assert scrub_image(m, "FAIL") == "FAIL"


class TestDeterministicScrub:
    def test_rejects_nonpositive_period(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-3)
        with pytest.raises(ValueError):
            deterministic_scrub_fail_probability(m, [1.0], 0.0)

    def test_rejects_negative_times(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-3)
        with pytest.raises(ValueError):
            deterministic_scrub_fail_probability(m, [-1.0], 1.0)

    def test_no_faults_no_failures(self):
        m = simplex_model(18, 16)
        pf = deterministic_scrub_fail_probability(m, [0.0, 10.0, 48.0], 1.0)
        assert np.all(pf == 0.0)

    def test_before_first_scrub_matches_scrubless_model(self):
        scrubless = simplex_model(18, 16, seu_per_bit_day=1e-3)
        pf_det = deterministic_scrub_fail_probability(scrubless, [0.5], 1.0)
        pf_free = scrubless.fail_probability([0.5])
        assert pf_det[0] == pytest.approx(pf_free[0], rel=1e-10, abs=0)

    def test_scrubbing_reduces_failure_probability(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-3)
        t = [48.0]
        scrubbed = deterministic_scrub_fail_probability(m, t, 1.0)
        free = m.fail_probability(t)
        assert scrubbed[0] < free[0]

    def test_shorter_period_scrubs_harder(self):
        m = duplex_model(18, 16, seu_per_bit_day=1e-3)
        t = [48.0]
        fast = deterministic_scrub_fail_probability(m, t, 0.25)
        slow = deterministic_scrub_fail_probability(m, t, 2.0)
        assert fast[0] < slow[0]

    def test_same_magnitude_as_exponential_scrubbing(self):
        """Deterministic and rate-1/Tsc scrubbing agree within ~2x."""
        period_h = 1.0
        det_model = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        exp_model = duplex_model(
            18, 16, seu_per_bit_day=1.7e-5, scrub_period_seconds=3600.0
        )
        t = [48.0]
        det = deterministic_scrub_fail_probability(det_model, t, period_h)[0]
        exp = exp_model.fail_probability(t)[0]
        assert 0.3 < det / exp < 3.0

    def test_ignores_models_own_scrub_rate(self):
        """The deterministic solver replaces, not stacks, rate scrubbing."""
        with_rate = duplex_model(
            18, 16, seu_per_bit_day=1e-3, scrub_period_seconds=3600.0
        )
        without = duplex_model(18, 16, seu_per_bit_day=1e-3)
        t = [10.0]
        a = deterministic_scrub_fail_probability(with_rate, t, 1.0)
        b = deterministic_scrub_fail_probability(without, t, 1.0)
        assert a[0] == pytest.approx(b[0], rel=1e-10, abs=0)

    def test_unsorted_time_grid(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-3)
        times = [30.0, 5.0, 48.0]
        pf = deterministic_scrub_fail_probability(m, times, 1.0)
        resorted = deterministic_scrub_fail_probability(m, sorted(times), 1.0)
        lookup = dict(zip(sorted(times), resorted))
        for t, v in zip(times, pf):
            assert v == pytest.approx(lookup[t], rel=1e-10, abs=0)

    def test_ber_applies_eq1_factor(self):
        m = simplex_model(36, 16, seu_per_bit_day=1e-3)
        t = [24.0]
        assert deterministic_scrub_ber(m, t, 1.0)[0] == pytest.approx(
            10.0 * deterministic_scrub_fail_probability(m, t, 1.0)[0]
        )

    def test_failure_monotone_across_scrub_boundary(self):
        """FAIL is absorbing: its probability never decreases, even right
        after a scrub."""
        m = simplex_model(18, 16, seu_per_bit_day=5e-3)
        times = np.linspace(0.0, 6.0, 25)
        pf = deterministic_scrub_fail_probability(m, times, 1.0)
        assert np.all(np.diff(pf) >= -1e-15)


def _dense_scrub_matrix(model, chain):
    """Test-only: the scrub map as a dense n x n matrix."""
    mat = np.zeros((chain.num_states, chain.num_states))
    for src, state in enumerate(chain.states):
        mat[src, chain.index[scrub_image(model, state)]] = 1.0
    return mat


def test_sparse_scrub_map_matches_a_dense_one(monkeypatch):
    """The scrub map holds one 1 per row, stored sparse: the transient
    and the embedded-chain loss equal a dense map's up to summation
    order."""
    m = duplex_model(
        18, 16, seu_per_bit_day=1e-3, erasure_per_symbol_day=1e-4
    )
    free = scrubbing._scrub_free_clone(m)
    sparse_map = scrubbing._scrub_matrix(free, free.chain)
    assert sparse_map.nnz == free.chain.num_states
    times = [0.1, 12.0, 48.0]
    got = deterministic_scrub_fail_probability(m, times, 0.25)
    loss = embedded_scrub_analysis(m, 0.25).per_period_loss
    monkeypatch.setattr(scrubbing, "_scrub_matrix", _dense_scrub_matrix)
    want = deterministic_scrub_fail_probability(m, times, 0.25)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert loss == pytest.approx(
        embedded_scrub_analysis(m, 0.25).per_period_loss, rel=1e-12, abs=0
    )
