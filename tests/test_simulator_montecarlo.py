"""Unit and statistical tests for the Monte-Carlo estimators."""

import numpy as np
import pytest

from repro.memory import duplex_model, simplex_model
from repro.rs import BatchRSCodec, RSCode
from repro.simulator import (
    gillespie_fail_probability,
    simulate_fail_probability,
    simulate_read_outcome,
    wilson_interval,
)
from repro.simulator import montecarlo as mc
from repro.simulator.patterns import parse_pattern


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(20, 100)
        assert low < 0.2 < high

    def test_zero_failures(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_all_failures(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1.0

    def test_narrows_with_trials(self):
        narrow = wilson_interval(100, 1000)
        wide = wilson_interval(10, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestGillespie:
    def test_simplex_matches_transient_solution(self):
        model = simplex_model(18, 16, seu_per_bit_day=2e-3)
        p = model.fail_probability([48.0])[0]
        est = gillespie_fail_probability(
            model, 48.0, trials=2500, rng=np.random.default_rng(11)
        )
        assert est.consistent_with(p)

    def test_duplex_matches_transient_solution(self):
        model = duplex_model(18, 16, seu_per_bit_day=2e-3)
        p = model.fail_probability([48.0])[0]
        est = gillespie_fail_probability(
            model, 48.0, trials=2500, rng=np.random.default_rng(12)
        )
        assert est.consistent_with(p)

    def test_scrubbed_model(self):
        model = duplex_model(
            18, 16, seu_per_bit_day=2e-3, scrub_period_seconds=6 * 3600
        )
        p = model.fail_probability([48.0])[0]
        est = gillespie_fail_probability(
            model, 48.0, trials=2500, rng=np.random.default_rng(13)
        )
        assert est.consistent_with(p)

    def test_zero_rate_never_fails(self):
        model = simplex_model(18, 16)
        est = gillespie_fail_probability(
            model, 48.0, trials=50, rng=np.random.default_rng(1)
        )
        assert est.failures == 0


class TestCodecLevelSimulation:
    @pytest.fixture(scope="class")
    def code(self):
        return RSCode(18, 16, m=8)

    def test_outcome_counts_sum_to_trials(self, code):
        est = simulate_fail_probability(
            "simplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24,
            erasure_per_symbol=0.0,
            trials=200,
            rng=np.random.default_rng(5),
        )
        assert sum(est.outcome_counts.values()) == 200

    def test_simplex_transients_match_markov_model(self, code):
        """The paper's simplex chain tracks physical behaviour closely."""
        model = simplex_model(18, 16, seu_per_bit_day=2e-3)
        p = model.fail_probability([48.0])[0]
        est = simulate_fail_probability(
            "simplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24,
            erasure_per_symbol=0.0,
            trials=1200,
            rng=np.random.default_rng(21),
        )
        assert est.consistent_with(p)

    def test_simplex_permanent_match(self, code):
        model = simplex_model(18, 16, erasure_per_symbol_day=2e-2)
        p = model.fail_probability([48.0])[0]
        est = simulate_fail_probability(
            "simplex",
            code,
            48.0,
            seu_per_bit=0.0,
            erasure_per_symbol=2e-2 / 24,
            trials=1200,
            rng=np.random.default_rng(22),
        )
        # benign stuck-ats (matching cell value) make the physical system
        # slightly different from the located-erasure abstraction; require
        # agreement within a factor of 2 at these probabilities
        assert 0.5 * p < est.probability < 2.0 * p

    def test_duplex_model_is_conservative_for_transients(self, code):
        """Reproduction finding: the paper's either-word fail rule upper-
        bounds what the real arbiter loses — the physical duplex fails far
        less often than its chain predicts."""
        model = duplex_model(18, 16, seu_per_bit_day=2e-3)
        p_model = model.fail_probability([48.0])[0]
        est = simulate_fail_probability(
            "duplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24,
            erasure_per_symbol=0.0,
            trials=600,
            rng=np.random.default_rng(23),
        )
        assert est.probability < p_model

    def test_scrub_reduces_failures(self, code):
        kwargs = dict(
            code=code,
            t_end=48.0,
            seu_per_bit=5e-3 / 24,
            erasure_per_symbol=0.0,
            trials=500,
        )
        base = simulate_fail_probability(
            "simplex", rng=np.random.default_rng(31), **kwargs
        )
        scrubbed = simulate_fail_probability(
            "simplex", rng=np.random.default_rng(31), scrub_period=2.0, **kwargs
        )
        assert scrubbed.failures < base.failures

    def test_unknown_arrangement_rejected(self, code):
        with pytest.raises(ValueError, match="arrangement"):
            simulate_read_outcome(
                "triplex", code, 1.0, 0.0, 0.0, np.random.default_rng(0)
            )


def _replay(arrangement, code, draw, data):
    """``replay_batch`` of ``draw``'s events on ``data``: outcome, work."""
    n, k, m = code
    work = np.zeros((len(data), len(mc.WORK_FIELDS)), dtype=np.int64)
    _words, _erasures, outcome = mc.replay_batch(
        BatchRSCodec(n, k, m=m),
        arrangement,
        data,
        draw.events,
        draw.scrub_counts,
        draw.scrub_times,
        None,
        work,
    )
    return outcome, work


class TestFlipOnlyTrialsIgnoreTheData:
    """A trial whose events are all flips replays alike on any data word.

    Flips add to the stored word and RS is linear, so every read of such
    a trial is the written codeword plus a pattern that does not depend
    on the data, and so is every decoder and arbiter decision.  The task
    loop replays these trials on the all-zero word and reads drawn
    symbols back only for trials with a permanent event
    (``ChunkDraw.replay_rows``); a stuck cell reads the data, so there
    the zero word can change the work and the outcome.
    """

    @pytest.mark.parametrize("code", [(18, 16, 8), (10, 6, 4)])
    @pytest.mark.parametrize(
        "scrub", [(2.0, True), (3.0, False)], ids=["exponential", "periodic"]
    )
    @pytest.mark.parametrize("pattern", [None, "0.5*1BIT+0.3*MBU:5+0.2*ROW:3"])
    @pytest.mark.parametrize("arrangement", ["simplex", "duplex"])
    def test_outcome_and_work_equal_on_the_zero_word(
        self, arrangement, pattern, scrub, code
    ):
        n, k, m = code
        draw = mc.draw_chunk(
            np.random.default_rng(2005),
            arrangement,
            n,
            k,
            m,
            48.0,
            1e-2 / 24 * 8 / m,
            0.0,
            *scrub,
            256,
            None if pattern is None else parse_pattern(pattern),
        )
        assert draw.events.trial.size and not draw.events.permanent.any()
        outcome, work = _replay(arrangement, code, draw, draw.data)
        zero_outcome, zero_work = _replay(
            arrangement, code, draw, np.zeros_like(draw.data)
        )
        np.testing.assert_array_equal(zero_outcome, outcome)
        np.testing.assert_array_equal(zero_work, work)
        assert work[:, mc.WORK_FIELDS.index("decode_failures")].any()

    #: Seeds and codes of 256-trial draws, with permanent faults, in which
    #: the zero word moves what some stuck trials read.
    GUARD_CASES = {
        "simplex": (0, (18, 16, 8)),
        "duplex": (75, (18, 16, 8)),
    }

    def _guard_draw(self, arrangement):
        seed, (n, k, m) = self.GUARD_CASES[arrangement]
        return mc.draw_chunk(
            np.random.default_rng(seed),
            arrangement,
            n,
            k,
            m,
            48.0,
            4e-3 / 24,
            4e-2 / 24,
            None,
            False,
            256,
        )

    @pytest.mark.parametrize("arrangement", ["simplex", "duplex"])
    def test_stuck_cells_read_the_data(self, arrangement):
        """Pinned cases where the zero word changes what a trial with a
        permanent event reads: its work in both arrangements, and in
        duplex its outcome too.  Flip-only trials stay equal."""
        code = self.GUARD_CASES[arrangement][1]
        draw = self._guard_draw(arrangement)
        stuck = np.zeros(len(draw.data), dtype=bool)
        stuck[draw.events.trial[draw.events.permanent]] = True
        outcome, work = _replay(arrangement, code, draw, draw.data)
        zero_outcome, zero_work = _replay(
            arrangement, code, draw, np.zeros_like(draw.data)
        )
        moved_outcome = zero_outcome != outcome
        moved_work = (zero_work != work).any(axis=1)
        assert not (moved_outcome | moved_work)[~stuck].any()
        assert moved_work[stuck].any()
        if arrangement == "duplex":
            assert np.flatnonzero(moved_outcome).tolist() == [178, 249]

    @pytest.mark.parametrize("arrangement", ["simplex", "duplex"])
    def test_replay_rows_keep_the_data_of_trials_with_a_stuck_cell(
        self, arrangement
    ):
        code = self.GUARD_CASES[arrangement][1]
        draw = self._guard_draw(arrangement)
        dirty = np.unique(draw.events.trial)
        stuck = np.isin(dirty, draw.events.trial[draw.events.permanent])
        assert stuck.any() and not stuck.all()
        rows = draw.replay_rows(dirty, np.random.PCG64(3))
        np.testing.assert_array_equal(rows.data[stuck], draw.data[dirty[stuck]])
        assert not rows.data[~stuck].any()
        outcome, work = _replay(arrangement, code, draw, draw.data)
        row_outcome, row_work = _replay(arrangement, code, rows, rows.data)
        np.testing.assert_array_equal(row_outcome, outcome[dirty])
        np.testing.assert_array_equal(row_work, work[dirty])
