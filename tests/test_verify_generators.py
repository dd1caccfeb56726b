"""Tests for the repro.verify case generators.

Determinism, stratification correctness (including the odd ``n - k``
at-capacity subtlety), and structural well-formedness of every case
family the fuzz targets consume.
"""

import numpy as np
import pytest

from repro.verify import (
    CAPACITY_STRATA,
    apply_corruption,
    build_codec,
    build_ctmc_from_case,
    case_rng,
    gen_codec_case,
    gen_ctmc_case,
    gen_memory_case,
    gen_mc_case,
)
from repro.verify.generators import _pick_mix, gen_pattern_draw_case


class TestCaseRng:
    def test_same_seed_trial_same_stream(self):
        a = case_rng(2005, 7).integers(0, 1 << 30, size=16)
        b = case_rng(2005, 7).integers(0, 1 << 30, size=16)
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        a = case_rng(2005, 0).integers(0, 1 << 30, size=16)
        b = case_rng(2005, 1).integers(0, 1 << 30, size=16)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = case_rng(1, 0).integers(0, 1 << 30, size=16)
        b = case_rng(2, 0).integers(0, 1 << 30, size=16)
        assert not np.array_equal(a, b)


class TestCodecCases:
    def test_deterministic(self):
        a = gen_codec_case(case_rng(11, 3))
        b = gen_codec_case(case_rng(11, 3))
        assert a == b

    @pytest.mark.parametrize("trial", range(60))
    def test_stratum_budget_invariants(self, trial):
        case = gen_codec_case(case_rng(42, trial))
        assert case["stratum"] in CAPACITY_STRATA
        n, k = case["n"], case["k"]
        nsym = n - k
        re = len(case["error_positions"])
        er = len(case["erasure_positions"])
        budget = 2 * re + er
        if case["stratum"] == "clean":
            assert re == 0 and er == 0
        elif case["stratum"] == "below":
            assert 0 < budget < nsym
        elif case["stratum"] == "at":
            assert budget == nsym
        elif case["stratum"] == "beyond":
            assert budget > nsym
        elif case["stratum"] == "erasure-only":
            assert re == 0 and 0 < er <= nsym

    def test_odd_budget_at_capacity_forces_erasure(self):
        """2*re is even: an odd n-k spent exactly requires er >= 1."""
        seen = 0
        for trial in range(500):
            rng = case_rng(7, trial)
            case = gen_codec_case(rng)
            if case["stratum"] != "at":
                continue
            nsym = case["n"] - case["k"]
            if nsym % 2 == 1:
                seen += 1
                assert len(case["erasure_positions"]) >= 1
        assert seen > 0, "no odd-budget at-capacity case in 500 trials"

    @pytest.mark.parametrize("stratum", CAPACITY_STRATA)
    def test_pick_mix_covers_every_stratum(self, stratum):
        rng = case_rng(1, 0)
        for n, nsym in ((7, 4), (7, 3), (21, 5), (18, 2)):
            re, er = _pick_mix(rng, n, nsym, stratum)
            assert re >= 0 and er >= 0
            assert re + er <= n

    @pytest.mark.parametrize("trial", range(20))
    def test_positions_disjoint_and_in_range(self, trial):
        case = gen_codec_case(case_rng(3, trial))
        errs = case["error_positions"]
        eras = case["erasure_positions"]
        assert len(set(errs)) == len(errs)
        assert len(set(eras)) == len(eras)
        assert not set(errs) & set(eras)
        for p in errs + eras:
            assert 0 <= p < case["n"]
        for mag in case["error_magnitudes"]:
            assert 1 <= mag < (1 << case["m"])  # errors never benign
        for mag in case["erasure_magnitudes"]:
            assert 0 <= mag < (1 << case["m"])  # erasures may be benign

    def test_apply_corruption_matches_positions(self):
        case = gen_codec_case(case_rng(9, 4))
        code = build_codec(case)
        codeword, received = apply_corruption(code, case)
        diff = [i for i in range(case["n"]) if codeword[i] != received[i]]
        flipped = set(case["error_positions"]) | {
            p
            for p, mag in zip(
                case["erasure_positions"], case["erasure_magnitudes"]
            )
            if mag != 0
        }
        assert set(diff) == flipped


class TestCtmcCases:
    def test_deterministic(self):
        assert gen_ctmc_case(case_rng(5, 1)) == gen_ctmc_case(case_rng(5, 1))

    @pytest.mark.parametrize("trial", range(40))
    def test_structure(self, trial):
        case = gen_ctmc_case(case_rng(13, trial))
        n = case["num_states"]
        assert 2 <= n <= 8
        for src, dst, rate in case["transitions"]:
            assert 0 <= src < n and 0 <= dst < n and src != dst
            assert rate > 0
        assert all(t >= 0 for t in case["times"])
        assert 1 <= len(case["times"]) <= 3

    @pytest.mark.parametrize("trial", range(40))
    def test_buildable_and_stochastic(self, trial):
        case = gen_ctmc_case(case_rng(13, trial))
        chain = build_ctmc_from_case(case)
        assert chain.num_states == case["num_states"]
        assert chain.p0.min() >= 0
        assert chain.p0.sum() == pytest.approx(1.0, abs=1e-12)
        q = chain.generator(dense=True)
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)

    def test_zero_rate_rows_do_occur(self):
        saw_frozen_row = False
        for trial in range(80):
            case = gen_ctmc_case(case_rng(17, trial))
            sources = {src for src, _, _ in case["transitions"]}
            if len(sources) < case["num_states"]:
                saw_frozen_row = True
                break
        assert saw_frozen_row, "no zero-rate row in 80 trials"


class TestMemoryAndMcCases:
    def test_memory_case_deterministic(self):
        a = gen_memory_case(case_rng(19, 2))
        b = gen_memory_case(case_rng(19, 2))
        assert a == b

    @pytest.mark.parametrize("trial", range(15))
    def test_memory_case_structure(self, trial):
        case = gen_memory_case(case_rng(23, trial))
        assert case["arrangement"] in ("simplex", "duplex")
        assert case["n"] > case["k"]
        assert all(t > 0 for t in case["times_hours"])

    def test_mc_case_structure(self):
        case = gen_mc_case(case_rng(29, 0))
        assert case["trials"] >= 100
        assert case["seu_per_bit_day"] > 0
        assert isinstance(case["mc_seed"], int)


class TestPatternDrawCases:
    CASES = [gen_pattern_draw_case(case_rng(31, trial)) for trial in range(300)]

    def test_deterministic(self):
        assert gen_pattern_draw_case(case_rng(31, 4)) == self.CASES[4]

    def test_every_token_with_and_without_permanence(self):
        from repro.simulator.patterns import PatternKind, parse_pattern

        seen = {
            (term.kind, term.permanent, term.size is None)
            for case in self.CASES
            for term in parse_pattern(case["pattern"]).terms
        }
        # (kind, permanent, default size): 1BIT has no size, kSYM always
        # one, and MBU/ROW/COL come both ways.
        for kind in PatternKind:
            for permanent in (False, True):
                assert (kind, permanent, kind is PatternKind.BIT) in seen
                if kind in (PatternKind.MBU, PatternKind.ROW, PatternKind.COL):
                    assert (kind, permanent, True) in seen

    def test_sizes_run_past_the_word(self):
        from repro.simulator.patterns import PatternKind, parse_pattern

        past = set()
        for case in self.CASES:
            cells = case["n"] * case["m"]
            for term in parse_pattern(case["pattern"]).terms:
                limit = cells if term.kind is PatternKind.MBU else case["n"]
                if term.size is not None and term.size > limit:
                    past.add(term.kind)
        assert past == {
            PatternKind.SYM,
            PatternKind.MBU,
            PatternKind.ROW,
            PatternKind.COL,
        }

    def test_schedules_repeat_and_have_a_zero_leg(self):
        from repro.simulator.patterns import parse_schedule

        scheduled = [c for c in self.CASES if c["schedule"] is not None]
        assert 0.35 < len(scheduled) / len(self.CASES) < 0.65
        for case in scheduled:
            schedule = parse_schedule(case["schedule"])
            assert 0.0 in [factor for _d, factor in schedule.segments]
            cycles = case["t_end_hours"] / schedule.cycle_hours
            assert 1.99 < cycles < 6.01

    def test_trials_arrivals_and_codes(self):
        from repro.simulator.patterns import parse_schedule
        from repro.verify.generators import REPLAY_CODES

        for case in self.CASES:
            assert 1 <= case["trials"] <= 600
            assert (case["n"], case["k"], case["m"]) in REPLAY_CODES
            schedule = parse_schedule(case["schedule"])
            area = (
                case["t_end_hours"]
                if schedule is None
                else schedule.integral(case["t_end_hours"])
            )
            arrivals = case["seu_per_bit"] * case["n"] * case["m"] * area
            assert 0.1 - 1e-9 <= arrivals <= 5.0 + 1e-9
        assert {c["arrangement"] for c in self.CASES} == {"simplex", "duplex"}
        assert {c["odd_draw"] for c in self.CASES} == {False, True}
