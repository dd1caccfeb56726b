"""Tests for the repairable sparing models."""

import math

import pytest

from repro.reliability import (
    SparingConfig,
    cold_standby,
    spares_for_mission,
    sparing_availability,
    sparing_mttf_hours,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparingConfig(active=0, spares=1, fail_rate=1e-4)
        with pytest.raises(ValueError):
            SparingConfig(active=1, spares=-1, fail_rate=1e-4)
        with pytest.raises(ValueError):
            SparingConfig(active=1, spares=1, fail_rate=-1e-4)
        with pytest.raises(ValueError):
            SparingConfig(active=1, spares=1, fail_rate=1e-4, repair_crews=0)


class TestMTTF:
    def test_no_spares_no_repair_is_exponential(self):
        config = SparingConfig(active=4, spares=0, fail_rate=1e-3)
        assert sparing_mttf_hours(config) == pytest.approx(1.0 / (4 * 1e-3))

    def test_spares_add_erlang_stages(self):
        # with s spares and pooled rate R, MTTF = (s+1)/R
        config = SparingConfig(active=4, spares=2, fail_rate=1e-3)
        assert sparing_mttf_hours(config) == pytest.approx(3.0 / (4 * 1e-3))

    def test_repair_extends_mttf(self):
        without = SparingConfig(active=4, spares=2, fail_rate=1e-3)
        with_repair = SparingConfig(
            active=4, spares=2, fail_rate=1e-3, repair_rate=0.1
        )
        assert sparing_mttf_hours(with_repair) > 10 * sparing_mttf_hours(
            without
        )

    def test_zero_fail_rate_is_infinite(self):
        config = SparingConfig(active=4, spares=1, fail_rate=0.0)
        assert sparing_mttf_hours(config) == math.inf


class TestAvailability:
    def test_no_repair_availability_zero(self):
        config = SparingConfig(active=4, spares=2, fail_rate=1e-3)
        assert sparing_availability(config) == 0.0

    def test_fast_repair_high_availability(self):
        config = SparingConfig(
            active=4, spares=2, fail_rate=1e-4, repair_rate=1.0
        )
        assert sparing_availability(config) > 0.9999999

    def test_more_spares_raise_availability(self):
        base = dict(active=4, fail_rate=1e-2, repair_rate=0.05)
        low = sparing_availability(SparingConfig(spares=1, **base))
        high = sparing_availability(SparingConfig(spares=3, **base))
        assert high > low

    def test_matches_birth_death_closed_form(self):
        """One active, one spare, one crew: hand-checkable 3-state chain."""
        lam, mu = 0.01, 0.1
        config = SparingConfig(
            active=1, spares=1, fail_rate=lam, repair_rate=mu
        )
        # states 0,1 up; 2 down; balance: p1 = (lam/mu) p0, p2 = (lam/mu) p1
        r = lam / mu
        p0 = 1.0 / (1 + r + r * r)
        expected = p0 * (1 + r)
        assert sparing_availability(config) == pytest.approx(expected, rel=1e-9, abs=0)


class TestSparesForMission:
    def test_matches_cold_standby_formula(self):
        active, lam, mission, target = 4, 1e-5, 17520.0, 0.999
        spares = spares_for_mission(active, lam, mission, target)
        pooled = active * lam
        # the chosen count meets the target, one fewer does not
        assert cold_standby(pooled, spares, mission) >= target
        if spares > 0:
            assert cold_standby(pooled, spares - 1, mission) < target

    def test_zero_rate_needs_no_spares(self):
        assert spares_for_mission(4, 0.0, 1e6, 0.999999) == 0

    def test_impossible_target_raises(self):
        with pytest.raises(ValueError, match="spares"):
            spares_for_mission(10, 1.0, 1e4, 0.999, max_spares=4)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            spares_for_mission(4, 1e-5, 100.0, 1.5)
        with pytest.raises(ValueError):
            spares_for_mission(4, 1e-5, 0.0, 0.9)
