"""Tests for the N-modular-redundancy closed-form analysis."""

import math

import numpy as np
import pytest

from repro.memory import nmr_ber, nmr_read_unreliability, redundancy_sweep
from repro.memory.analytic import simplex_fail_probability
from repro.memory.nmr import replica_symbol_occupancies, symbol_damage_pmf
from repro.memory.rates import FaultRates
from repro.memory.simplex import simplex_model


def rates(seu_day=0.0, perm_day=0.0):
    return FaultRates.from_paper_units(
        seu_per_bit_day=seu_day, erasure_per_symbol_day=perm_day
    )


class TestReplicaOccupancies:
    def test_sum_to_one(self):
        r = rates(seu_day=1e-3, perm_day=1e-3)
        p_c, p_e, p_x = replica_symbol_occupancies(8, r, 100.0)
        assert p_c + p_e + p_x == pytest.approx(1.0)
        assert all(p >= 0 for p in (p_c, p_e, p_x))

    def test_time_zero_all_clean(self):
        p_c, p_e, p_x = replica_symbol_occupancies(8, rates(1e-3, 1e-3), 0.0)
        assert (p_c, p_e, p_x) == (1.0, 0.0, 0.0)

    def test_pure_permanent_has_no_errors(self):
        _p_c, p_e, p_x = replica_symbol_occupancies(8, rates(perm_day=1e-2), 50.0)
        assert p_e == 0.0
        assert p_x == pytest.approx(-math.expm1(-(1e-2 / 24) * 50.0))


class TestDamagePmf:
    def test_pmf_sums_to_one(self):
        for n_mod in (1, 2, 3, 5):
            pmf = symbol_damage_pmf(n_mod, 8, rates(1e-3, 1e-3), 20.0)
            assert sum(pmf) == pytest.approx(1.0)

    def test_single_module_semantics(self):
        """N=1: erased -> weight 1, errored -> weight 2 (no voting)."""
        r = rates(seu_day=1e-3, perm_day=2e-3)
        p_c, p_e, p_x = replica_symbol_occupancies(8, r, 30.0)
        pmf = symbol_damage_pmf(1, 8, r, 30.0)
        assert pmf[1] == pytest.approx(p_x)
        assert pmf[2] == pytest.approx(p_e)

    def test_tmr_masks_single_errors(self):
        """N=3: one errored replica out of three votes away cleanly."""
        r = rates(seu_day=1e-4)
        p_c, p_e, _ = replica_symbol_occupancies(8, r, 10.0)
        pmf = symbol_damage_pmf(3, 8, r, 10.0)
        # error needs >= 2 errored replicas: leading term 3 pe^2 pc
        assert pmf[2] == pytest.approx(
            3 * p_e**2 * p_c + p_e**3, rel=1e-9, abs=0
        )

    def test_erasure_needs_all_replicas(self):
        r = rates(perm_day=1e-3)
        _, _, p_x = replica_symbol_occupancies(8, r, 100.0)
        pmf = symbol_damage_pmf(3, 8, r, 100.0)
        assert pmf[1] == pytest.approx(p_x**3)

    def test_invalid_module_count(self):
        with pytest.raises(ValueError):
            symbol_damage_pmf(0, 8, rates(), 1.0)


class TestReadUnreliability:
    def test_n1_matches_simplex_closed_form_pure_transient(self):
        """For pure regimes the simplex point-in-time == first-passage, so
        N=1 must reproduce the paper-model closed form exactly."""
        lam = 1e-3
        r = rates(seu_day=lam)
        times = [10.0, 48.0]
        nmr = nmr_read_unreliability(18, 16, 1, r, times)
        simplex = simplex_fail_probability(
            simplex_model(18, 16, seu_per_bit_day=lam), times
        )
        assert np.allclose(nmr, simplex, rtol=1e-12)

    def test_n1_matches_simplex_pure_permanent(self):
        r = rates(perm_day=1e-3)
        times = [100.0, 1000.0]
        nmr = nmr_read_unreliability(18, 16, 1, r, times)
        simplex = simplex_fail_probability(
            simplex_model(18, 16, erasure_per_symbol_day=1e-3), times
        )
        assert np.allclose(nmr, simplex, rtol=1e-12)

    def test_tmr_beats_simplex(self):
        r = rates(seu_day=1e-3, perm_day=1e-3)
        t = [48.0]
        assert (
            nmr_read_unreliability(18, 16, 3, r, t)[0]
            < nmr_read_unreliability(18, 16, 1, r, t)[0] / 10
        )

    def test_odd_n_monotone_improvement(self):
        """Adding a replica pair always helps: N=1 > N=3 > N=5."""
        r = rates(seu_day=2e-3, perm_day=2e-3)
        t = 48.0
        sweep = dict(redundancy_sweep(18, 16, r, t, max_modules=5))
        assert sweep[1] > sweep[3] > sweep[5]

    def test_even_n_tie_penalty(self):
        """N=2 is *worse* than N=1 under transients: a single-replica error
        ties the vote, which the conservative analysis counts as an error
        in the merged word - the quantitative reason the paper's duplex
        uses decoder flags instead of a bare voter."""
        r = rates(seu_day=1e-3)
        t = [48.0]
        assert (
            nmr_read_unreliability(18, 16, 2, r, t)[0]
            > nmr_read_unreliability(18, 16, 1, r, t)[0]
        )

    def test_pure_permanent_tracks_duplex_chain(self):
        """Under pure permanent faults voting has no ties and NMR-2 fails,
        like the paper's duplex, on n-k+1 double-sided erasures.  The two
        differ only in per-pair exposure convention: the paper's chain
        erases a clean pair at rate λe (Erlang-2 to X, leading a²/2)
        while independent replicas give (1-e^{-a})² (leading a²), i.e.
        up to 2³ = 8x on the three-pair failure tail."""
        from repro.memory import duplex_model
        from repro.memory.analytic import duplex_fail_probability

        r = rates(perm_day=1e-4)
        times = [730.0, 2000.0]
        nmr = nmr_read_unreliability(18, 16, 2, r, times)
        dup = duplex_fail_probability(
            duplex_model(18, 16, erasure_per_symbol_day=1e-4), times
        )
        assert np.all(nmr >= dup)
        assert np.all(nmr <= 9.0 * dup)

    def test_scrubbing_rejected(self):
        r = FaultRates(seu_per_bit=1e-5, scrub_rate=1.0)
        with pytest.raises(ValueError, match="scrubbing"):
            nmr_read_unreliability(18, 16, 3, r, [1.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nmr_read_unreliability(16, 16, 3, rates(), [1.0])

    def test_ber_factor(self):
        r = rates(seu_day=1e-3)
        t = [48.0]
        assert nmr_ber(36, 16, 3, r, t)[0] == pytest.approx(
            10.0 * nmr_read_unreliability(36, 16, 3, r, t)[0]
        )

    def test_time_zero_is_reliable(self):
        r = rates(seu_day=1e-3, perm_day=1e-3)
        assert nmr_read_unreliability(18, 16, 3, r, [0.0])[0] == 0.0
