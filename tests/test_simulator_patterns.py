"""Unit tests for the correlated fault-pattern grammar and rate schedules."""

import numpy as np
import pytest

from repro.rs import RSCode
from repro.simulator import (
    IID_1BIT,
    FaultKind,
    FaultPattern,
    PatternKind,
    PatternTerm,
    RateSchedule,
    format_pattern,
    format_schedule,
    parse_pattern,
    parse_schedule,
    sample_pattern_events,
    simulate_fail_probability_batched,
)
from repro.simulator.patterns import expand_arrivals


class TestGrammarRoundTrip:
    SPECS = [
        "1BIT",
        "1SYM",
        "2SYM",
        "MBU",
        "MBU:3",
        "ROW",
        "ROW:4",
        "COL:6",
        "ROW:3!",
        "0.9*1BIT+0.08*MBU:3+0.02*ROW",
        "0.5*1BIT+0.25*2SYM+0.25*COL:6!",
        "2*1BIT+1*1SYM",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_parse_format_parse_is_identity(self, spec):
        pattern = parse_pattern(spec)
        canonical = format_pattern(pattern)
        assert parse_pattern(canonical) == pattern
        # and canonical text is a fixed point
        assert format_pattern(parse_pattern(canonical)) == canonical

    def test_random_patterns_round_trip(self):
        """Property: any constructible pattern survives format->parse."""
        rng = np.random.default_rng(42)
        kinds = list(PatternKind)
        for _ in range(200):
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                if kind is PatternKind.BIT:
                    size = None
                elif kind is PatternKind.SYM:
                    size = int(rng.integers(1, 9))
                else:
                    size = (
                        int(rng.integers(1, 9)) if rng.random() < 0.7 else None
                    )
                terms.append(
                    PatternTerm(
                        kind=kind,
                        size=size,
                        permanent=bool(rng.integers(0, 2)),
                        weight=float(rng.uniform(0.01, 10.0)),
                    )
                )
            pattern = FaultPattern(tuple(terms))
            assert parse_pattern(format_pattern(pattern)) == pattern

    def test_parse_accepts_pattern_instance(self):
        assert parse_pattern(IID_1BIT) is IID_1BIT

    def test_default_weight_is_one(self):
        pattern = parse_pattern("1BIT+ROW:2")
        assert [t.weight for t in pattern.terms] == [1.0, 1.0]
        assert np.allclose(pattern.probabilities, [0.5, 0.5])

    def test_iid_reducible_classification(self):
        assert parse_pattern("1BIT").iid_reducible
        assert parse_pattern("0.5*1BIT+0.5*1SYM").iid_reducible
        assert not parse_pattern("2SYM").iid_reducible
        assert not parse_pattern("0.9*1BIT+0.1*MBU:3").iid_reducible
        assert not parse_pattern("1BIT!").iid_reducible  # permanents


class TestGrammarRejection:
    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "   ",
            "BOGUS",
            "2BIT",
            "1BIT:3",  # 1BIT takes no parameter
            "SYM",  # kSYM needs its size in the token name
            "3SYM:2",  # ... and must not also carry a ':' parameter
            "MBU:0",
            "ROW:-1",
            "x*1BIT",
            "1BIT++ROW",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_pattern(spec)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            parse_pattern("-0.5*1BIT")

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            parse_pattern("0*1BIT+1*ROW")

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            parse_pattern("nan*1BIT")

    def test_empty_term_tuple_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            FaultPattern(())

    def test_non_string_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_pattern(None)  # type: ignore[arg-type]


class TestScheduleParsing:
    def test_round_trip(self):
        for spec in ["42.0h@1.0,6.0h@8.0", "1.5h@0.0,2.5h@3.25", "10.0h@2.0"]:
            schedule = parse_schedule(spec)
            canonical = format_schedule(schedule)
            assert parse_schedule(canonical) == schedule

    def test_none_passes_through(self):
        assert parse_schedule(None) is None

    def test_schedule_instance_passes_through(self):
        schedule = RateSchedule(((1.0, 2.0),))
        assert parse_schedule(schedule) is schedule

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "5h",  # missing factor
            "xh@2",  # non-numeric duration
            "5h@y",  # non-numeric factor
            "-1.0h@2",  # negative duration
            "nanh@2",  # NaN duration
            "1.0h@-2",  # negative factor
            "0h@1",  # zero duration
        ],
    )
    def test_malformed_segments_raise(self, spec):
        with pytest.raises(ValueError):
            parse_schedule(spec)

    def test_integral_with_cyclic_repetition(self):
        schedule = parse_schedule("1.0h@1.0,1.0h@3.0")  # cycle area 4 over 2 h
        assert schedule.integral(2.0) == pytest.approx(4.0)
        assert schedule.integral(5.0) == pytest.approx(8.0 + 1.0)
        assert schedule.integral(0.0) == 0.0

    def test_sample_times_respect_density(self):
        rng = np.random.default_rng(0)
        schedule = parse_schedule("1.0h@1.0,1.0h@9.0")
        times = schedule.sample_times(rng, 2.0, 4000)
        assert times.shape == (4000,)
        assert np.all(np.diff(times) >= 0.0)
        frac_hot = np.mean(times >= 1.0)
        assert frac_hot == pytest.approx(0.9, abs=0.03)

    def test_all_zero_schedule_cannot_sample(self):
        rng = np.random.default_rng(0)
        schedule = parse_schedule("1.0h@0.0")
        with pytest.raises(ValueError, match="all-zero"):
            schedule.sample_times(rng, 1.0, 3)

    def test_mission_phases_scale_only_seu(self):
        from repro.memory.rates import FaultRates

        base = FaultRates.from_paper_units(
            seu_per_bit_day=1e-3,
            erasure_per_symbol_day=2e-4,
            scrub_period_seconds=3600.0,
        )
        schedule = parse_schedule("42.0h@1.0,6.0h@8.0")
        phases = schedule.mission_phases(base)
        assert [p.duration_hours for p in phases] == [42.0, 6.0]
        assert phases[1].rates.seu_per_bit == pytest.approx(
            base.seu_per_bit * 8.0
        )
        for phase in phases:
            assert phase.rates.erasure_per_symbol == base.erasure_per_symbol
            assert phase.rates.scrub_rate == base.scrub_rate


class TestEventSampling:
    def test_pure_1bit_matches_iid_law(self):
        """1BIT arrivals reproduce the i.i.d. sampler's count law."""
        rng = np.random.default_rng(3)
        rate, n, m, t = 0.01, 18, 8, 10.0
        counts = [
            len(sample_pattern_events(rng, "1BIT", rate, n, m, t))
            for _ in range(300)
        ]
        assert np.mean(counts) == pytest.approx(rate * n * m * t, rel=0.1, abs=0)

    def test_1bit_events_are_plain_seu_flips(self):
        rng = np.random.default_rng(4)
        events = sample_pattern_events(rng, "1BIT", 0.05, 18, 8, 10.0, module=1)
        assert events
        for e in events:
            assert e.kind is FaultKind.SEU
            assert e.mask == 0
            assert e.module == 1
            assert 0 <= e.symbol < 18
            assert 0 <= e.bit < 8

    def test_events_emitted_in_time_order(self):
        rng = np.random.default_rng(5)
        events = sample_pattern_events(
            rng, "0.5*1BIT+0.5*ROW:4", 0.05, 18, 8, 10.0
        )
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_row_terms_emit_adjacent_mask_events(self):
        rng = np.random.default_rng(6)
        events = expand_arrivals(
            rng, parse_pattern("ROW:4"), [1.0], n=18, m=8
        )
        assert 1 <= len(events) <= 4
        symbols = [e.symbol for e in events]
        assert symbols == list(range(symbols[0], symbols[0] + len(symbols)))
        for e in events:
            assert e.kind is FaultKind.SEU
            assert 0 < e.mask < 256

    def test_col_terms_hit_one_bit_plane(self):
        rng = np.random.default_rng(7)
        events = expand_arrivals(
            rng, parse_pattern("COL:6"), [1.0], n=18, m=8
        )
        assert len(events) >= 1
        bits = {e.bit for e in events}
        assert len(bits) == 1
        assert all(e.mask == 0 for e in events)

    def test_permanent_suffix_emits_stuck_events(self):
        rng = np.random.default_rng(8)
        events = expand_arrivals(
            rng, parse_pattern("ROW:3!"), [1.0], n=18, m=8
        )
        assert events
        assert all(e.kind is FaultKind.PERMANENT for e in events)

    def test_mbu_burst_groups_cells_per_symbol(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            events = expand_arrivals(
                rng, parse_pattern("MBU:8"), [1.0], n=18, m=8
            )
            total_cells = sum(bin(e.mask).count("1") for e in events)
            assert 1 <= total_cells <= 8
            # burst cells are adjacent: at most two symbols for width 8
            assert len({e.symbol for e in events}) <= 2

    def test_zero_rate_and_zero_horizon(self):
        rng = np.random.default_rng(10)
        assert sample_pattern_events(rng, "1BIT", 0.0, 18, 8, 10.0) == []
        assert sample_pattern_events(rng, "1BIT", 0.1, 18, 8, 0.0) == []

    def test_schedule_modulates_arrival_mass(self):
        rng = np.random.default_rng(11)
        rate, n, m = 0.01, 18, 8
        counts = [
            len(
                sample_pattern_events(
                    rng, "1BIT", rate, n, m, 10.0, schedule="5.0h@1.0,5.0h@3.0"
                )
            )
            for _ in range(300)
        ]
        assert np.mean(counts) == pytest.approx(rate * n * m * 20.0, rel=0.1, abs=0)


class TestSeededDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batched_estimate_worker_invariant(self, workers):
        """The same seed gives bit-identical estimates at any worker count."""
        code = RSCode(18, 16, m=8)
        estimate = simulate_fail_probability_batched(
            "simplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24.0,
            erasure_per_symbol=0.0,
            trials=200,
            seed=99,
            chunk_size=50,
            workers=workers,
            pattern="0.8*1BIT+0.2*COL:6",
        )
        reference = simulate_fail_probability_batched(
            "simplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24.0,
            erasure_per_symbol=0.0,
            trials=200,
            seed=99,
            chunk_size=50,
            workers=1,
            pattern="0.8*1BIT+0.2*COL:6",
        )
        assert estimate.failures == reference.failures
        assert estimate.probability == reference.probability
        assert estimate.outcome_counts == reference.outcome_counts

    def test_sampler_is_seed_deterministic(self):
        events_a = sample_pattern_events(
            np.random.default_rng(123), "0.7*1BIT+0.3*MBU:3", 0.02, 18, 8, 20.0
        )
        events_b = sample_pattern_events(
            np.random.default_rng(123), "0.7*1BIT+0.3*MBU:3", 0.02, 18, 8, 20.0
        )
        assert events_a == events_b
