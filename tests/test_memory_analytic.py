"""Unit tests for the closed-form no-scrub solvers."""

import math

import numpy as np
import pytest

from repro.memory import duplex_model, simplex_model
from repro.memory.analytic import (
    AnalyticScopeError,
    _binomial_tail,
    duplex_ber,
    duplex_fail_probability,
    duplex_permanent_fail_probability,
    duplex_transient_fail_probability,
    simplex_ber,
    simplex_fail_probability,
)


class TestBinomialTail:
    def test_trivial_cases(self):
        assert _binomial_tail(10, 0.5, 10) == 0.0
        assert _binomial_tail(10, 0.5, -1) == 1.0
        assert _binomial_tail(10, 0.0, 3) == 0.0
        assert _binomial_tail(10, 1.0, 3) == 1.0

    def test_matches_direct_sum(self):
        n, p, k = 12, 0.3, 4
        direct = sum(
            math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1, n + 1)
        )
        assert _binomial_tail(n, p, k) == pytest.approx(direct, rel=1e-12, abs=0)

    def test_deep_tail_positive(self):
        value = _binomial_tail(18, 1e-12, 2)
        # ~ C(18,3) * 1e-36
        assert value == pytest.approx(math.comb(18, 3) * 1e-36, rel=1e-6, abs=0)


class TestScope:
    def test_scrubbing_out_of_scope(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-5, scrub_period_seconds=900)
        with pytest.raises(AnalyticScopeError, match="scrubbing"):
            simplex_fail_probability(m, [1.0])

    def test_mixed_faults_out_of_scope(self):
        m = simplex_model(
            18, 16, seu_per_bit_day=1e-5, erasure_per_symbol_day=1e-6
        )
        with pytest.raises(AnalyticScopeError, match="pure"):
            simplex_fail_probability(m, [1.0])

    def test_duplex_scope_enforced(self):
        m = duplex_model(
            18, 16, seu_per_bit_day=1e-5, erasure_per_symbol_day=1e-6
        )
        with pytest.raises(AnalyticScopeError):
            duplex_fail_probability(m, [1.0])


class TestNegativeTimes:
    """A negative time is refused with the chain solvers' ValueError,
    whatever the rates (it used to give a negative probability)."""

    @pytest.mark.parametrize(
        "closed_form, model",
        [
            (simplex_fail_probability, simplex_model(18, 16, seu_per_bit_day=1e-3)),
            (
                simplex_fail_probability,
                simplex_model(18, 16, erasure_per_symbol_day=1e-3),
            ),
            (simplex_fail_probability, simplex_model(18, 16)),
            (
                duplex_transient_fail_probability,
                duplex_model(18, 16, seu_per_bit_day=1e-3),
            ),
            (duplex_transient_fail_probability, duplex_model(18, 16)),
            (
                duplex_permanent_fail_probability,
                duplex_model(18, 16, erasure_per_symbol_day=1e-3),
            ),
            (duplex_permanent_fail_probability, duplex_model(18, 16)),
        ],
        ids=[
            "simplex-seu",
            "simplex-permanent",
            "simplex-no-faults",
            "duplex-seu",
            "duplex-seu-no-faults",
            "duplex-permanent",
            "duplex-permanent-no-faults",
        ],
    )
    def test_same_error_as_the_chain(self, closed_form, model):
        times = [1.0, -5.0]
        with pytest.raises(ValueError) as chain_error:
            model.fail_probability(times)
        with pytest.raises(ValueError) as closed_error:
            closed_form(model, times)
        assert str(closed_error.value) == str(chain_error.value)
        assert str(closed_error.value) == "times must be nonnegative"


class TestSimplexClosedForm:
    def test_zero_rates_zero_probability(self):
        m = simplex_model(18, 16)
        assert np.all(simplex_fail_probability(m, [0.0, 48.0]) == 0.0)

    def test_transient_case_matches_binomial(self):
        m = simplex_model(18, 16, seu_per_bit_day=1e-3)
        t = 48.0
        p = -math.expm1(-8 * (1e-3 / 24) * t)
        expected = _binomial_tail(18, p, 1)  # 2 re > 2 means re >= 2
        assert simplex_fail_probability(m, [t])[0] == pytest.approx(expected)

    def test_permanent_case_matches_binomial(self):
        m = simplex_model(18, 16, erasure_per_symbol_day=1e-2)
        t = 100.0
        q = -math.expm1(-(1e-2 / 24) * t)
        expected = _binomial_tail(18, q, 2)
        assert simplex_fail_probability(m, [t])[0] == pytest.approx(expected)

    def test_agreement_with_uniformization_transient(self):
        m = simplex_model(36, 16, seu_per_bit_day=1e-4)
        times = np.linspace(0.0, 48.0, 5)
        an = simplex_fail_probability(m, times)
        uni = m.fail_probability(times)
        assert np.allclose(an, uni, rtol=1e-10)

    def test_agreement_with_uniformization_permanent_deep_tail(self):
        m = simplex_model(36, 16, erasure_per_symbol_day=1e-9)
        t = [24 * 730.0]
        an = simplex_fail_probability(m, t)[0]
        uni = m.fail_probability(t)[0]
        assert an < 1e-100  # genuinely deep
        assert uni == pytest.approx(an, rel=1e-10, abs=0)

    def test_ber_uses_eq1_factor(self):
        m = simplex_model(36, 16, erasure_per_symbol_day=1e-5)
        t = [1000.0]
        assert simplex_ber(m, t)[0] == pytest.approx(
            10.0 * simplex_fail_probability(m, t)[0]
        )


class TestDuplexClosedForm:
    def test_permanent_agreement_with_uniformization(self):
        m = duplex_model(18, 16, erasure_per_symbol_day=1e-6)
        times = [730.0, 24 * 730.0]
        an = duplex_fail_probability(m, times)
        uni = m.fail_probability(times)
        assert np.allclose(an, uni, rtol=1e-10)

    def test_transient_agreement_with_uniformization(self):
        m = duplex_model(18, 16, seu_per_bit_day=1.7e-5)
        times = [12.0, 48.0]
        an = duplex_fail_probability(m, times)
        uni = m.fail_probability(times)
        assert np.allclose(an, uni, rtol=1e-10)

    def test_transient_both_rule_agreement(self):
        m = duplex_model(18, 16, seu_per_bit_day=1e-3, fail_rule="both")
        times = [24.0, 48.0]
        an = duplex_fail_probability(m, times)
        uni = m.fail_probability(times)
        assert np.allclose(an, uni, rtol=1e-9)

    def test_both_rule_below_either_rule(self):
        either = duplex_model(18, 16, seu_per_bit_day=1e-4)
        both = duplex_model(18, 16, seu_per_bit_day=1e-4, fail_rule="both")
        t = [48.0]
        assert (
            duplex_fail_probability(both, t)[0]
            < duplex_fail_probability(either, t)[0]
        )

    def test_permanent_deep_tail_positive_and_monotone(self):
        m = duplex_model(18, 16, erasure_per_symbol_day=1e-9)
        times = np.linspace(730.0, 25 * 730.0, 6)
        pf = duplex_fail_probability(m, times)
        assert np.all(pf > 0)
        assert np.all(np.diff(pf) > 0)

    def test_duplex_permanent_is_roughly_squared_single(self):
        """The masking argument: duplex needs double-sided erasures, so its
        fail probability scales like the square of the per-symbol erasure
        probability relative to simplex."""
        rate = 1e-6
        t = [24 * 730.0]
        dup = duplex_fail_probability(
            duplex_model(18, 16, erasure_per_symbol_day=rate), t
        )[0]
        simp = simplex_fail_probability(
            simplex_model(18, 16, erasure_per_symbol_day=rate), t
        )[0]
        assert dup < simp**1.5  # far below; exact exponent ~2 in the rate

    def test_zero_rate_returns_zeros(self):
        m = duplex_model(18, 16)
        assert np.all(duplex_fail_probability(m, [10.0]) == 0.0)

    def test_duplex_ber_factor(self):
        m = duplex_model(18, 16, erasure_per_symbol_day=1e-4)
        t = [1000.0]
        assert duplex_ber(m, t)[0] == pytest.approx(
            m.ber_factor * duplex_fail_probability(m, t)[0]
        )
