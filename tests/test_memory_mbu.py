"""Tests for the multi-bit-upset model and layout analysis."""

import math

import numpy as np
import pytest

from repro.memory import simplex_model
from repro.memory.mbu import (
    ClusterDistribution,
    Layout,
    SimplexMBUModel,
    mbu_layout_comparison,
    symbol_multiplicity_rates,
)
from repro.memory.rates import FaultRates


class TestClusterDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ClusterDistribution({1: 0.5, 2: 0.4})

    def test_sizes_positive(self):
        with pytest.raises(ValueError):
            ClusterDistribution({0: 1.0})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            ClusterDistribution({1: 1.5, 2: -0.5})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterDistribution({})

    def test_mean_and_max(self):
        d = ClusterDistribution({1: 0.5, 3: 0.5})
        assert d.mean_size == 2.0
        assert d.max_size == 3

    def test_presets(self):
        assert ClusterDistribution.single_bit().sizes == {1: 1.0}
        assert sum(ClusterDistribution.typical().sizes.values()) == pytest.approx(
            1.0
        )


class TestMultiplicityRates:
    """Exact anchor-counting on small, hand-checkable geometries."""

    def test_single_bit_any_layout_is_paper_rate(self):
        for layout in Layout:
            w = symbol_multiplicity_rates(
                18, 8, layout, ClusterDistribution.single_bit()
            )
            assert w == {1: pytest.approx(144.0)}  # n * m anchors

    def test_pair_cluster_contiguous(self):
        # 18 symbols of 8 bits: 7 within-symbol anchors per symbol + the 2
        # half-overlap edges hit one symbol; 17 boundaries hit two
        w = symbol_multiplicity_rates(
            18, 8, Layout.CONTIGUOUS, ClusterDistribution({2: 1.0})
        )
        assert w[1] == pytest.approx(7 * 18 + 2)
        assert w[2] == pytest.approx(17)

    def test_pair_cluster_bit_interleaved_hits_two_symbols(self):
        w = symbol_multiplicity_rates(
            18, 8, Layout.BIT_INTERLEAVED, ClusterDistribution({2: 1.0})
        )
        assert w[2] == pytest.approx(143.0)
        assert w[1] == pytest.approx(2.0)  # the two edge anchors

    def test_word_interleaving_confines_to_one_symbol(self):
        w = symbol_multiplicity_rates(
            18,
            8,
            Layout.WORD_INTERLEAVED,
            ClusterDistribution({2: 1.0, 3: 0.0}),
            depth=4,
        )
        assert set(w) == {1}

    def test_deep_cluster_beats_shallow_interleaving(self):
        # depth 2 cannot confine 3-cell clusters
        w = symbol_multiplicity_rates(
            18, 8, Layout.WORD_INTERLEAVED, ClusterDistribution({3: 1.0}), depth=2
        )
        assert 2 in w

    def test_big_cluster_contiguous_spans_at_most_two_symbols(self):
        w = symbol_multiplicity_rates(
            18, 8, Layout.CONTIGUOUS, ClusterDistribution({4: 1.0})
        )
        assert set(w) <= {1, 2}

    def test_invalid_depth(self):
        with pytest.raises(ValueError, match="depth"):
            symbol_multiplicity_rates(
                18,
                8,
                Layout.WORD_INTERLEAVED,
                ClusterDistribution.single_bit(),
                depth=0,
            )


class TestSimplexMBUModel:
    def test_single_bit_clusters_reproduce_paper_chain(self):
        """With 1-cell clusters the MBU chain IS the paper's simplex chain."""
        lam = 1e-4
        rates = FaultRates.from_paper_units(seu_per_bit_day=lam)
        mbu = SimplexMBUModel(
            18, 16, 8, rates, clusters=ClusterDistribution.single_bit()
        )
        paper = simplex_model(18, 16, seu_per_bit_day=lam)
        times = [10.0, 48.0]
        assert np.allclose(
            mbu.fail_probability(times),
            paper.fail_probability(times),
            rtol=1e-12,
        )

    def test_multi_symbol_arrival_rates(self):
        rates = FaultRates(seu_per_bit=2.0)
        model = SimplexMBUModel(
            18,
            16,
            8,
            rates,
            layout=Layout.BIT_INTERLEAVED,
            clusters=ClusterDistribution({2: 1.0}),
        )
        # from Good, the +2 arrival goes straight to FAIL (2 re > 2)
        w = symbol_multiplicity_rates(
            18, 8, Layout.BIT_INTERLEAVED, ClusterDistribution({2: 1.0})
        )
        assert model.chain.rate((0, 0), "FAIL") == pytest.approx(2.0 * w[2])
        assert model.chain.rate((0, 0), (0, 1)) == pytest.approx(2.0 * w[1])

    def test_thinning_reduces_to_paper_factor_at_j1(self):
        rates = FaultRates(seu_per_bit=1.0)
        model = SimplexMBUModel(
            36, 16, 8, rates, clusters=ClusterDistribution.single_bit()
        )
        # from (0, 1): rate to (0, 2) must be m * lam * (n - 1)
        assert model.chain.rate((0, 1), (0, 2)) == pytest.approx(8 * 35.0)

    def test_hypergeometric_thinning(self):
        rates = FaultRates(seu_per_bit=1.0)
        model = SimplexMBUModel(
            36,
            16,
            8,
            rates,
            layout=Layout.BIT_INTERLEAVED,
            clusters=ClusterDistribution({2: 1.0}),
        )
        w = symbol_multiplicity_rates(
            36, 8, Layout.BIT_INTERLEAVED, ClusterDistribution({2: 1.0})
        )
        clean = 35
        expected = w[2] * math.comb(clean, 2) / math.comb(36, 2)
        assert model.chain.rate((0, 1), (0, 3)) == pytest.approx(expected)

    def test_permanent_faults_still_modelled(self):
        rates = FaultRates.from_paper_units(erasure_per_symbol_day=1e-3)
        model = SimplexMBUModel(18, 16, 8, rates)
        paper = simplex_model(18, 16, erasure_per_symbol_day=1e-3)
        t = [730.0]
        assert model.fail_probability(t)[0] == pytest.approx(
            paper.fail_probability(t)[0], rel=1e-10, abs=0
        )


class TestLayoutComparison:
    def test_rs_prefers_contiguous_over_bit_interleaving(self):
        """The chipkill insight: symbol-oriented codes want a symbol's
        bits physically together."""
        comp = mbu_layout_comparison(
            18, 16, strike_rate_per_cell_day=1.7e-5, times_hours=[48.0]
        )
        assert comp["contiguous"][0] < comp["bit_interleaved"][0] / 2

    def test_word_interleaving_wins_at_low_rates(self):
        comp = mbu_layout_comparison(
            18, 16, strike_rate_per_cell_day=1.7e-5, times_hours=[48.0]
        )
        assert comp["word_interleaved"][0] < comp["contiguous"][0]

    def test_single_bit_clusters_make_layout_irrelevant_in_cost(self):
        """With 1-cell strikes every layout sees identical damage (word
        interleaving just spreads the same 144 cells)."""
        comp = mbu_layout_comparison(
            18,
            16,
            strike_rate_per_cell_day=1e-4,
            times_hours=[48.0],
            clusters=ClusterDistribution.single_bit(),
        )
        values = list(v[0] for v in comp.values())
        assert max(values) / min(values) == pytest.approx(1.0, rel=1e-9, abs=0)
