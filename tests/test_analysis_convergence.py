"""Tests for the numerical-confidence utilities."""

import pytest

from repro.analysis.convergence import (
    scrub_grid_refinement,
    solver_agreement,
    trials_for_relative_width,
    uniformization_tolerance_sweep,
)
from repro.memory import duplex_model, simplex_model


class TestSolverAgreement:
    def test_paper_configuration_agrees(self):
        model = duplex_model(
            18, 16, seu_per_bit_day=1.7e-5, scrub_period_seconds=1800.0
        )
        deviations = solver_agreement(model, [12.0, 48.0])
        assert set(deviations) == {"uniformization", "expm", "ode"}
        assert deviations["uniformization"] < 1e-10
        assert deviations["expm"] < 1e-10
        assert deviations["ode"] < 1e-6


class TestToleranceSweep:
    def test_values_converge_monotonically_in_tolerance(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-4)
        sweep = uniformization_tolerance_sweep(model, 48.0)
        values = list(sweep.values())
        reference = values[-1]  # tightest tolerance
        assert reference > 0
        for value in values:
            assert value == pytest.approx(reference, rel=1e-5, abs=0)


class TestTrialPlanning:
    def test_known_value(self):
        # p=0.5, w=0.1: n = 1.96^2 * 0.5 / (0.5 * 0.01) = 384.16 -> 385
        assert trials_for_relative_width(0.5, 0.1) == 385

    def test_one_over_p_scaling(self):
        n_small = trials_for_relative_width(1e-2, 0.1)
        n_tiny = trials_for_relative_width(1e-4, 0.1)
        assert n_tiny / n_small == pytest.approx(100.0, rel=0.02, abs=0)

    def test_rare_event_needs_astronomical_trials(self):
        """Why the package solves chains: the paper's 1e-6 BER scale
        would need ~4e8 trials for 10% resolution."""
        assert trials_for_relative_width(1e-6, 0.1) > 1e8

    def test_validation(self):
        with pytest.raises(ValueError):
            trials_for_relative_width(0.0, 0.1)
        with pytest.raises(ValueError):
            trials_for_relative_width(0.5, 0.0)


class TestScrubGridRefinement:
    def test_grid_independence(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-3)
        results = scrub_grid_refinement(model, 10.0, 1.0)
        values = list(results.values())
        for value in values[1:]:
            assert value == pytest.approx(values[0], rel=1e-9, abs=0)
