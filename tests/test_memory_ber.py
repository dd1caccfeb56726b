"""Tests for the BER curve evaluation layer (method dispatch)."""

import numpy as np
import pytest

from repro.memory import AnalyticScopeError, ber_curve, duplex_model, simplex_model
from repro.memory.ber import BERCurve


class TestMethodDispatch:
    def test_auto_uses_analytic_when_in_scope(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-4)
        auto = ber_curve(model, [48.0], method="auto")
        analytic = ber_curve(model, [48.0], method="analytic")
        assert auto.ber[0] == analytic.ber[0]

    def test_auto_falls_back_to_uniformization_with_scrubbing(self):
        model = simplex_model(
            18, 16, seu_per_bit_day=1e-4, scrub_period_seconds=900.0
        )
        curve = ber_curve(model, [48.0], method="auto")
        reference = model.ber([48.0], method="uniformization")[0]
        assert curve.ber[0] == pytest.approx(reference)

    def test_forced_analytic_out_of_scope_raises(self):
        model = simplex_model(
            18, 16, seu_per_bit_day=1e-4, erasure_per_symbol_day=1e-5
        )
        with pytest.raises(AnalyticScopeError):
            ber_curve(model, [48.0], method="analytic")

    def test_explicit_ctmc_methods(self):
        model = duplex_model(18, 16, seu_per_bit_day=1e-4)
        uni = ber_curve(model, [48.0], method="uniformization")
        exp = ber_curve(model, [48.0], method="expm")
        assert uni.ber[0] == pytest.approx(exp.ber[0], rel=1e-9, abs=0)

    def test_default_label_is_model_repr(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-4)
        curve = ber_curve(model, [1.0])
        assert "SimplexMarkovModel" in curve.label

    def test_custom_label(self):
        model = simplex_model(18, 16, seu_per_bit_day=1e-4)
        assert ber_curve(model, [1.0], label="mine").label == "mine"


class TestBERCurve:
    def test_at_exact_and_nearest(self):
        curve = BERCurve(
            "x", np.array([0.0, 10.0, 20.0]), np.array([0.0, 1e-8, 4e-8])
        )
        assert curve.at(10.0) == 1e-8
        assert curve.at(13.0) == 1e-8
        assert curve.at(16.0) == 4e-8

    def test_at_within_one_step_of_span_still_snaps(self):
        curve = BERCurve(
            "x", np.array([0.0, 10.0, 20.0]), np.array([0.0, 1e-8, 4e-8])
        )
        assert curve.at(29.0) == 4e-8  # 20 + 9 < one 10 h step past hi
        assert curve.at(-5.0) == 0.0

    def test_at_far_outside_span_raises(self):
        """Silently snapping at(1e6) on a 20 h grid to the endpoint hid
        unit mistakes (hours vs. seconds) in callers."""
        curve = BERCurve(
            "x", np.array([0.0, 10.0, 20.0]), np.array([0.0, 1e-8, 4e-8])
        )
        for t in (31.0, 1e6, -11.0):
            with pytest.raises(ValueError, match="outside the curve's grid"):
                curve.at(t)

    def test_at_single_point_grid_keeps_nearest_behaviour(self):
        curve = BERCurve("x", np.array([24.0]), np.array([3e-9]))
        assert curve.at(1e6) == 3e-9  # no step defined -> legacy nearest

    def test_final(self):
        curve = BERCurve("x", np.array([0.0, 5.0]), np.array([0.0, 7e-9]))
        assert curve.final == 7e-9

    def test_frozen(self):
        curve = BERCurve("x", np.array([0.0]), np.array([0.0]))
        with pytest.raises(AttributeError):
            curve.label = "other"  # type: ignore[misc]
