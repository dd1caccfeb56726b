"""Tests for clustered-upset injection and its model agreement."""

import numpy as np
import pytest

from repro.memory.mbu import ClusterDistribution, Layout, SimplexMBUModel
from repro.memory.rates import FaultRates
from repro.rs import RSCode
from repro.simulator.mbu import (
    _cell_map,
    sample_mbu_strikes,
    simulate_mbu_read_unreliability,
)


@pytest.fixture(scope="module")
def code():
    return RSCode(18, 16, m=8)


class TestCellMap:
    def test_contiguous(self):
        mapping = _cell_map(18, 8, Layout.CONTIGUOUS, 4)
        assert mapping[0] == (0, 0)
        assert mapping[7] == (0, 7)
        assert mapping[8] == (1, 0)
        assert len(mapping) == 144

    def test_bit_interleaved(self):
        mapping = _cell_map(18, 8, Layout.BIT_INTERLEAVED, 4)
        assert mapping[0] == (0, 0)
        assert mapping[1] == (1, 0)
        assert mapping[18] == (0, 1)

    def test_word_interleaved_spacing(self):
        mapping = _cell_map(18, 8, Layout.WORD_INTERLEAVED, 4)
        assert set(mapping) == {4 * i for i in range(144)}
        assert mapping[0] == (0, 0)
        assert mapping[4] == (0, 1)


class TestStrikeSampling:
    def test_zero_rate_no_strikes(self):
        strikes = sample_mbu_strikes(
            np.random.default_rng(0),
            0.0,
            18,
            8,
            Layout.CONTIGUOUS,
            ClusterDistribution.typical(),
            100.0,
        )
        assert strikes == []

    def test_strikes_sorted_and_in_range(self):
        strikes = sample_mbu_strikes(
            np.random.default_rng(1),
            0.001,
            18,
            8,
            Layout.CONTIGUOUS,
            ClusterDistribution.typical(),
            50.0,
        )
        assert strikes
        times = [t for t, _ in strikes]
        assert times == sorted(times)
        for t, cells in strikes:
            assert 0.0 <= t < 50.0
            assert cells
            for symbol, bit in cells:
                assert 0 <= symbol < 18
                assert 0 <= bit < 8

    def test_cluster_confined_to_one_symbol_under_word_interleaving(self):
        strikes = sample_mbu_strikes(
            np.random.default_rng(2),
            0.001,
            18,
            8,
            Layout.WORD_INTERLEAVED,
            ClusterDistribution({3: 1.0}),
            50.0,
            depth=4,
        )
        for _t, cells in strikes:
            assert len(cells) == 1  # depth 4 > cluster 3

    def test_bit_interleaved_pair_hits_two_symbols(self):
        strikes = sample_mbu_strikes(
            np.random.default_rng(3),
            0.001,
            18,
            8,
            Layout.BIT_INTERLEAVED,
            ClusterDistribution({2: 1.0}),
            50.0,
        )
        multi = [cells for _t, cells in strikes if len(cells) == 2]
        assert multi  # almost every anchor spans two symbols
        for cells in multi:
            assert cells[0][0] != cells[1][0]

    def test_strike_count_matches_rate(self):
        rng = np.random.default_rng(4)
        rate, t = 0.0005, 40.0
        counts = [
            len(
                sample_mbu_strikes(
                    rng,
                    rate,
                    18,
                    8,
                    Layout.CONTIGUOUS,
                    ClusterDistribution.single_bit(),
                    t,
                )
            )
            for _ in range(200)
        ]
        assert np.mean(counts) == pytest.approx(rate * 144 * t, rel=0.1, abs=0)


class TestModelAgreement:
    @pytest.mark.parametrize(
        "layout", [Layout.CONTIGUOUS, Layout.BIT_INTERLEAVED, Layout.WORD_INTERLEAVED]
    )
    def test_chain_tracks_simulation(self, code, layout):
        rate_day = 2e-3
        clusters = ClusterDistribution.typical()
        rates = FaultRates.from_paper_units(seu_per_bit_day=rate_day)
        model = SimplexMBUModel(
            18, 16, 8, rates, layout=layout, clusters=clusters
        )
        p = model.fail_probability([48.0])[0]
        est = simulate_mbu_read_unreliability(
            code,
            layout,
            clusters,
            rate_day / 24.0,
            48.0,
            trials=900,
            rng=np.random.default_rng(7),
        )
        # the chain thins multi-hits hypergeometrically; allow CI + 20%
        assert est.ci_low * 0.8 <= p <= est.ci_high * 1.2
