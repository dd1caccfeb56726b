"""Unit tests for Poisson fault-event generation and scrub schedules."""

import numpy as np
import pytest

from repro.simulator import (
    FaultEvent,
    FaultKind,
    event_sort_key,
    merge_event_streams,
    sample_permanent_events,
    sample_seu_events,
    scrub_schedule,
    sort_events,
)


class TestSEUSampling:
    def test_zero_rate_no_events(self):
        rng = np.random.default_rng(0)
        assert sample_seu_events(rng, 0.0, 18, 8, 100.0) == []

    def test_zero_horizon_no_events(self):
        rng = np.random.default_rng(0)
        assert sample_seu_events(rng, 1.0, 18, 8, 0.0) == []

    def test_event_fields_in_range(self):
        rng = np.random.default_rng(1)
        events = sample_seu_events(rng, 0.05, 18, 8, 10.0, module=1)
        assert events, "expected some events at this rate"
        for e in events:
            assert e.kind is FaultKind.SEU
            assert e.module == 1
            assert 0 <= e.symbol < 18
            assert 0 <= e.bit < 8
            assert 0.0 <= e.time < 10.0

    def test_mean_count_matches_poisson_rate(self):
        rng = np.random.default_rng(2)
        rate, n, m, t = 0.01, 18, 8, 10.0
        counts = [len(sample_seu_events(rng, rate, n, m, t)) for _ in range(300)]
        expected = rate * n * m * t  # 14.4
        assert np.mean(counts) == pytest.approx(expected, rel=0.1, abs=0)

    def test_deterministic_with_seed(self):
        e1 = sample_seu_events(np.random.default_rng(9), 0.05, 18, 8, 10.0)
        e2 = sample_seu_events(np.random.default_rng(9), 0.05, 18, 8, 10.0)
        assert e1 == e2


class TestPermanentSampling:
    def test_event_fields(self):
        rng = np.random.default_rng(3)
        events = sample_permanent_events(rng, 0.1, 18, 8, 10.0)
        assert events
        for e in events:
            assert e.kind is FaultKind.PERMANENT
            assert e.stuck_value in (0, 1)
            assert 0 <= e.bit < 8

    def test_mean_count(self):
        rng = np.random.default_rng(4)
        counts = [
            len(sample_permanent_events(rng, 0.05, 18, 8, 10.0))
            for _ in range(300)
        ]
        assert np.mean(counts) == pytest.approx(0.05 * 18 * 10.0, rel=0.1, abs=0)


class TestScrubSchedule:
    def test_periodic_schedule(self):
        events = scrub_schedule(10.0, 3.0)
        assert [e.time for e in events] == [3.0, 6.0, 9.0]
        assert all(e.kind is FaultKind.SCRUB for e in events)

    def test_no_period_no_events(self):
        assert scrub_schedule(10.0, None) == []

    def test_exponential_schedule_mean_gap(self):
        rng = np.random.default_rng(5)
        events = scrub_schedule(10_000.0, 10.0, rng=rng, exponential=True)
        times = [e.time for e in events]
        gaps = np.diff([0.0] + times)
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.1, abs=0)

    def test_exponential_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            scrub_schedule(10.0, 1.0, exponential=True)


class TestMerge:
    def test_merge_orders_by_time(self):
        rng = np.random.default_rng(6)
        seu = sample_seu_events(rng, 0.02, 18, 8, 20.0)
        perm = sample_permanent_events(rng, 0.02, 18, 8, 20.0)
        scrubs = scrub_schedule(20.0, 5.0)
        merged = list(merge_event_streams(seu, perm, scrubs))
        assert len(merged) == len(seu) + len(perm) + len(scrubs)
        times = [e.time for e in merged]
        assert times == sorted(times)


class TestDeterministicOrdering:
    def test_samplers_emit_sorted_streams(self):
        rng = np.random.default_rng(13)
        for events in (
            sample_seu_events(rng, 0.05, 18, 8, 20.0),
            sample_permanent_events(rng, 0.05, 18, 8, 20.0),
        ):
            assert events == sort_events(events)

    def test_equal_time_tie_break_is_total(self):
        """Simultaneous events order by kind, module, symbol, bit, mask."""
        t = 1.0
        events = [
            FaultEvent(t, FaultKind.SCRUB, 0, 0, 0),
            FaultEvent(t, FaultKind.PERMANENT, 0, 2, 1, 1),
            FaultEvent(t, FaultKind.SEU, 1, 0, 0),
            FaultEvent(t, FaultKind.SEU, 0, 5, 3),
            FaultEvent(t, FaultKind.SEU, 0, 5, 0, 0, mask=0b110),
            FaultEvent(t, FaultKind.SEU, 0, 5, 0),
        ]
        ordered = sort_events(events)
        # transients first, then permanents, then scrubs
        assert [e.kind for e in ordered] == [
            FaultKind.SEU,
            FaultKind.SEU,
            FaultKind.SEU,
            FaultKind.SEU,
            FaultKind.PERMANENT,
            FaultKind.SCRUB,
        ]
        # within SEUs: module then symbol then bit then mask
        seus = ordered[:4]
        assert [(e.module, e.symbol, e.bit, e.mask) for e in seus] == [
            (0, 5, 0, 0),
            (0, 5, 0, 0b110),
            (0, 5, 3, 0),
            (1, 0, 0, 0),
        ]

    def test_sort_is_deterministic_under_any_input_order(self):
        rng = np.random.default_rng(14)
        events = sample_seu_events(rng, 0.05, 18, 8, 20.0)
        events += [FaultEvent(e.time, e.kind, 1, e.symbol, e.bit) for e in events]
        reference = sort_events(events)
        for seed in range(5):
            shuffled = list(events)
            np.random.default_rng(seed).shuffle(shuffled)
            assert sort_events(shuffled) == reference

    def test_merge_uses_full_tie_break(self):
        t = 2.0
        a = [FaultEvent(t, FaultKind.SEU, 0, 7, 1)]
        b = [FaultEvent(t, FaultKind.SEU, 0, 3, 0)]
        c = [FaultEvent(t, FaultKind.SCRUB, 0, 0, 0)]
        merged = list(merge_event_streams(a, b, c))
        assert [event_sort_key(e) for e in merged] == sorted(
            event_sort_key(e) for e in merged
        )
        assert merged[0].symbol == 3 and merged[-1].kind is FaultKind.SCRUB
