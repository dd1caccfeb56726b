"""Tests for piecewise-constant mission profiles."""

import numpy as np
import pytest

from repro.memory import (
    DuplexMarkovModel,
    FaultRates,
    MissionPhase,
    MissionProfile,
    SimplexMarkovModel,
    orbital_profile,
    simplex_model,
)


def phase(name, hours, seu_day=0.0, perm_day=0.0, scrub_s=None):
    return MissionPhase(
        name,
        hours,
        FaultRates.from_paper_units(
            seu_per_bit_day=seu_day,
            erasure_per_symbol_day=perm_day,
            scrub_period_seconds=scrub_s,
        ),
    )


class TestConstruction:
    def test_empty_mission_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            MissionProfile(SimplexMarkovModel, 18, 16, 8, [])

    def test_nonpositive_phase_duration_rejected(self):
        with pytest.raises(ValueError, match="positive finite duration"):
            phase("bad", 0.0)

    def test_negative_phase_duration_rejected(self):
        with pytest.raises(ValueError, match="positive finite duration"):
            phase("bad", -1.0)

    def test_nan_phase_duration_rejected(self):
        with pytest.raises(ValueError, match="positive finite duration"):
            phase("bad", float("nan"))

    def test_infinite_phase_duration_rejected(self):
        with pytest.raises(ValueError, match="positive finite duration"):
            phase("bad", float("inf"))

    def test_zero_symbol_width_rejected(self):
        # m = 0 would divide by zero in the ber_factor denominator
        with pytest.raises(ValueError, match="m"):
            MissionProfile(SimplexMarkovModel, 18, 16, 0, [phase("a", 1.0)])

    def test_degenerate_code_rejected(self):
        # k = n leaves no parity; n*m - k*m = 0 also breaks ber_factor
        with pytest.raises(ValueError, match="0 < k < n"):
            MissionProfile(SimplexMarkovModel, 18, 18, 8, [phase("a", 1.0)])
        with pytest.raises(ValueError, match="0 < k < n"):
            MissionProfile(SimplexMarkovModel, 18, 0, 8, [phase("a", 1.0)])

    def test_total_duration(self):
        profile = MissionProfile(
            SimplexMarkovModel,
            18,
            16,
            8,
            [phase("a", 1.0, seu_day=1e-5), phase("b", 2.5, seu_day=1e-6)],
        )
        assert profile.total_duration_hours == 3.5

    def test_orbital_profile_defaults(self):
        profile = orbital_profile()
        assert [p.name for p in profile.phases] == ["quiet", "saa"]
        assert profile.total_duration_hours == pytest.approx(1.6)

    def test_orbital_profile_validates_fraction(self):
        with pytest.raises(ValueError, match="saa_fraction"):
            orbital_profile(saa_fraction=1.5)


class TestAgainstConstantModel:
    def test_single_phase_equals_constant_model(self):
        """One phase long enough to cover the horizon == the plain chain."""
        lam = 1e-4
        profile = MissionProfile(
            SimplexMarkovModel, 18, 16, 8, [phase("only", 1000.0, seu_day=lam)]
        )
        constant = simplex_model(18, 16, seu_per_bit_day=lam)
        times = [10.0, 48.0, 100.0]
        assert np.allclose(
            profile.fail_probability(times),
            constant.fail_probability(times),
            rtol=1e-9,
        )

    def test_identical_phases_equal_constant_model(self):
        """Splitting a constant environment into legs changes nothing."""
        lam = 1e-4
        profile = MissionProfile(
            SimplexMarkovModel,
            18,
            16,
            8,
            [phase("a", 5.0, seu_day=lam), phase("b", 3.0, seu_day=lam)],
        )
        constant = simplex_model(18, 16, seu_per_bit_day=lam)
        times = [2.0, 7.0, 30.0]
        assert np.allclose(
            profile.fail_probability(times),
            constant.fail_probability(times),
            rtol=1e-9,
        )

    def test_profile_bracketed_by_constant_extremes(self):
        low, high = 1e-6, 1e-4
        profile = MissionProfile(
            SimplexMarkovModel,
            18,
            16,
            8,
            [phase("quiet", 1.0, seu_day=low), phase("storm", 1.0, seu_day=high)],
        )
        t = [48.0]
        p = profile.fail_probability(t)[0]
        p_low = simplex_model(18, 16, seu_per_bit_day=low).fail_probability(t)[0]
        p_high = simplex_model(18, 16, seu_per_bit_day=high).fail_probability(t)[0]
        assert p_low < p < p_high


class TestSchedule:
    def test_cyclic_repetition(self):
        profile = MissionProfile(
            SimplexMarkovModel,
            18,
            16,
            8,
            [phase("a", 0.5, seu_day=1e-4), phase("b", 0.5, seu_day=1e-6)],
        )
        pf = profile.fail_probability([0.0, 10.0, 20.0])
        assert pf[0] == 0.0
        assert 0 < pf[1] < pf[2]

    def test_unsorted_times(self):
        profile = orbital_profile()
        times = [30.0, 5.0, 48.0]
        pf = profile.fail_probability(times)
        ordered = profile.fail_probability(sorted(times))
        lookup = dict(zip(sorted(times), ordered))
        for t, v in zip(times, pf):
            assert v == pytest.approx(lookup[t], rel=1e-9, abs=0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            orbital_profile().fail_probability([-1.0])

    def test_ber_factor(self):
        profile = orbital_profile()
        t = [10.0]
        assert profile.ber(t)[0] == pytest.approx(
            profile.ber_factor * profile.fail_probability(t)[0]
        )


class TestAverageApproximation:
    def test_average_model_rates(self):
        profile = MissionProfile(
            SimplexMarkovModel,
            18,
            16,
            8,
            [phase("a", 1.0, seu_day=24.0), phase("b", 3.0, seu_day=0.0)],
        )
        avg = profile.equivalent_average_model()
        assert avg.rates.seu_per_bit == pytest.approx(0.25)

    def test_average_close_for_gentle_variation(self):
        profile = orbital_profile(model_cls=DuplexMarkovModel)
        avg = profile.equivalent_average_model()
        t = [48.0]
        exact = profile.fail_probability(t)[0]
        approx = avg.fail_probability(t)[0]
        assert 0.5 < approx / exact < 2.0
