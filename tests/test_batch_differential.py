"""Differential suite: the batch codec is bit-identical to the scalar codec.

Every supported configuration drives random batches through
:class:`repro.rs.batch.BatchRSCodec` and the scalar
:class:`repro.rs.codec.RSCode` side by side and demands *symbol-identical*
outcomes for encode, clean decode, random-error decode and erasure decode
— including capability-boundary patterns ``2*re + er == n - k`` and
uncorrectable words, which must surface the same
:class:`~repro.rs.RSDecodingError` on both paths.  This is the lockdown
that lets every later performance PR trust the batch layer.
"""

import numpy as np
import pytest

from repro.perf import PerfCounters
from repro.rs import BatchRSCodec, RSCode, RSDecodingError

# (n, k, m) spanning all supported symbol widths of the batch layer.
CONFIGS = [
    (7, 3, 3),
    (7, 5, 3),
    (15, 9, 4),
    (15, 11, 4),
    (18, 16, 8),
    (36, 16, 8),
    (255, 223, 8),
]


@pytest.fixture(params=CONFIGS, ids=lambda c: f"RS({c[0]},{c[1]})m{c[2]}")
def pair(request):
    n, k, m = request.param
    scalar = RSCode(n, k, m=m)
    return scalar, BatchRSCodec(n, k, m=m, scalar=scalar)


def random_batch(rng, code, batch):
    return rng.integers(0, code.gf.order, size=(batch, code.k))


def assert_same_result(batch_outcome, scalar_call):
    """Batch entry and scalar call must agree result-for-result."""
    try:
        expected = scalar_call()
    except RSDecodingError as exc:
        assert isinstance(batch_outcome, RSDecodingError), (
            f"scalar raised {exc!r} but batch returned {batch_outcome!r}"
        )
        assert str(batch_outcome) == str(exc)
        return
    assert not isinstance(batch_outcome, RSDecodingError), (
        f"batch raised {batch_outcome!r} but scalar decoded"
    )
    assert batch_outcome.data == expected.data
    assert batch_outcome.codeword == expected.codeword
    assert batch_outcome.num_errors == expected.num_errors
    assert batch_outcome.num_erasures == expected.num_erasures
    assert batch_outcome.corrected == expected.corrected
    assert batch_outcome.error_positions == expected.error_positions


class TestEncodeDifferential:
    def test_encode_batch_matches_scalar(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(101)
        words = random_batch(rng, scalar, 40)
        encoded = batch.encode_batch(words)
        assert encoded.shape == (40, scalar.n)
        for row, data in zip(encoded, words):
            assert row.tolist() == scalar.encode(data.tolist())

    def test_encoded_rows_are_codewords(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(102)
        encoded = batch.encode_batch(random_batch(rng, scalar, 16))
        assert batch.is_codeword_mask(encoded).all()
        assert all(scalar.is_codeword(row.tolist()) for row in encoded)


class TestCleanDecodeDifferential:
    def test_clean_decode_takes_fast_path_and_matches(self, pair):
        scalar, batch = pair
        counters = PerfCounters()
        rng = np.random.default_rng(103)
        encoded = batch.encode_batch(random_batch(rng, scalar, 24))
        report = batch.decode_batch(encoded, counters=counters)
        assert report.clean.all() and report.ok.all()
        assert counters.clean_fast_path == 24
        assert counters.dirty_words_decoded == 0
        for i, row in enumerate(encoded):
            assert_same_result(
                report[i], lambda row=row: scalar.decode(row.tolist())
            )

    def test_clean_decode_with_benign_erasures(self, pair):
        """Erased positions that happen to hold correct values."""
        scalar, batch = pair
        rng = np.random.default_rng(104)
        encoded = batch.encode_batch(random_batch(rng, scalar, 12))
        erasures = [
            sorted(
                rng.choice(scalar.n, size=min(i % 4, scalar.nsym), replace=False)
                .astype(int)
                .tolist()
            )
            for i in range(12)
        ]
        report = batch.decode_batch(encoded, erasures)
        for i, row in enumerate(encoded):
            assert_same_result(
                report[i],
                lambda row=row, e=erasures[i]: scalar.decode(
                    row.tolist(), erasure_positions=e
                ),
            )
            assert report.result(i).num_erasures == len(erasures[i])


def corrupt(rng, code, codeword, num_errors, num_erasures):
    """Apply distinct-position random errors + erasures; return word, erasures."""
    word = list(codeword)
    positions = rng.choice(
        code.n, size=num_errors + num_erasures, replace=False
    ).astype(int)
    error_pos = positions[:num_errors]
    erasure_pos = sorted(int(p) for p in positions[num_errors:])
    for p in positions:  # corrupt erased positions too (worst case)
        word[p] ^= int(rng.integers(1, code.gf.order))
    return word, erasure_pos, error_pos


class TestErrorDecodeDifferential:
    def test_random_correctable_errors(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(105)
        words = random_batch(rng, scalar, 30)
        encoded = batch.encode_batch(words)
        received = []
        for row in encoded:
            re = int(rng.integers(0, scalar.t + 1))
            word, _, _ = corrupt(rng, scalar, row.tolist(), re, 0)
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        for i, word in enumerate(received):
            assert_same_result(
                report[i], lambda w=word: scalar.decode(w)
            )

    def test_error_erasure_mixes_at_capability_boundary(self, pair):
        """Every boundary pattern 2*re + er == n - k must decode identically."""
        scalar, batch = pair
        rng = np.random.default_rng(106)
        received, erasures = [], []
        patterns = [
            (re, scalar.nsym - 2 * re) for re in range(scalar.t + 1)
        ]
        for re, er in patterns * 3:
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_uncorrectable_words_raise_identically(self, pair):
        """Beyond-capability patterns: same error type, same message."""
        scalar, batch = pair
        rng = np.random.default_rng(107)
        received, erasures = [], []
        for _ in range(20):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            re = scalar.t + 1 + int(rng.integers(0, max(1, scalar.t)))
            re = min(re, scalar.n)
            word, _, _ = corrupt(rng, scalar, codeword, re, 0)
            received.append(word)
            erasures.append([])
        # Also: too many erasures must be rejected identically.
        data = random_batch(rng, scalar, 1)[0]
        codeword = scalar.encode(data.tolist())
        word, erasure_pos, _ = corrupt(rng, scalar, codeword, 0, scalar.nsym)
        received.append(word)
        erasures.append(sorted(set(erasure_pos) | {0, 1, scalar.n - 1}))
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_mixed_batch_masks_are_consistent(self, pair):
        """ok/clean masks agree with the per-word outcomes."""
        scalar, batch = pair
        rng = np.random.default_rng(108)
        encoded = batch.encode_batch(random_batch(rng, scalar, 9))
        received = []
        for i, row in enumerate(encoded):
            word = row.tolist()
            if i % 3 == 1:  # correctable
                word, _, _ = corrupt(rng, scalar, word, 1, 0)
            elif i % 3 == 2:  # very likely uncorrectable
                word, _, _ = corrupt(
                    rng, scalar, word, min(scalar.n, scalar.nsym + 1), 0
                )
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        assert len(report) == 9
        for i in range(9):
            outcome = report[i]
            assert report.ok[i] == (not isinstance(outcome, RSDecodingError))
            if report.clean[i]:
                assert report.ok[i]
                assert not outcome.corrected
        assert report.num_clean + report.num_fallback == 9


class TestErasureHeavyDifferential:
    """Words where erasures dominate or exhaust the budget entirely."""

    def test_full_erasure_budget_no_errors(self, pair):
        """er == n - k with zero errors is exactly at capability: every
        word must decode, identically, through the erasure-only path."""
        scalar, batch = pair
        rng = np.random.default_rng(110)
        received, erasures = [], []
        for _ in range(12):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(
                rng, scalar, codeword, 0, scalar.nsym
            )
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert report.ok.all()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )
            assert report.result(i).num_erasures == scalar.nsym

    def test_erasure_dominated_mixes(self, pair):
        """Mixes with er > 2*re (erasure-heavy but within capability)."""
        scalar, batch = pair
        rng = np.random.default_rng(111)
        received, erasures = [], []
        for _ in range(15):
            er = int(rng.integers(1, scalar.nsym + 1))
            re = int(rng.integers(0, (scalar.nsym - er) // 2 + 1))
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert report.ok.all()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_over_erased_words_rejected_identically(self, pair):
        """er > n - k must fail on both paths before the syndrome stage."""
        scalar, batch = pair
        rng = np.random.default_rng(112)
        received, erasures = [], []
        for extra in (1, 2):
            er = min(scalar.nsym + extra, scalar.n)
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, 0, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert not report.ok.any()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )


class TestBeyondCapacityDifferential:
    """Patterns one or more units past 2*re + er == n - k."""

    def test_one_beyond_capacity_mixes(self, pair):
        """Every (re, er) with 2*re + er == n - k + 1: the outcome —
        detection or identical miscorrection — must match word-for-word."""
        scalar, batch = pair
        rng = np.random.default_rng(113)
        budget = scalar.nsym + 1
        received, erasures = [], []
        for re in range(budget // 2 + 1):
            er = budget - 2 * re
            if re + er > scalar.n:
                continue
            for _ in range(3):
                data = random_batch(rng, scalar, 1)[0]
                codeword = scalar.encode(data.tolist())
                word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
                received.append(word)
                erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_far_beyond_capacity_saturated_errors(self, pair):
        """Heavily corrupted words (every symbol flipped) still agree."""
        scalar, batch = pair
        rng = np.random.default_rng(114)
        received = []
        for _ in range(6):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, _, _ = corrupt(rng, scalar, codeword, scalar.n, 0)
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        for i, word in enumerate(received):
            assert_same_result(report[i], lambda w=word: scalar.decode(w))

    def test_beyond_capacity_with_erasures_and_errors_mixed_batch(self, pair):
        """A single batch mixing within-capability, boundary and beyond:
        masks and outcomes must be per-word independent."""
        scalar, batch = pair
        rng = np.random.default_rng(115)
        specs = [
            (0, 0),
            (scalar.t, 0),
            (0, scalar.nsym),
            ((scalar.nsym + 1) // 2, 1 - (scalar.nsym % 2) + 1),
            (0, min(scalar.nsym + 1, scalar.n)),
        ]
        received, erasures, within = [], [], []
        for re, er in specs:
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
            within.append(2 * re + er <= scalar.nsym)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )
            if within[i]:
                assert report.ok[i]


class TestBatchValidation:
    def test_wrong_shapes_rejected(self, pair):
        scalar, batch = pair
        with pytest.raises(ValueError, match="batch"):
            batch.encode_batch(np.zeros((2, scalar.k + 1), dtype=int))
        with pytest.raises(ValueError, match="batch"):
            batch.decode_batch(np.zeros((2, scalar.n + 1), dtype=int))

    def test_erasure_list_length_must_match(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(109)
        encoded = batch.encode_batch(random_batch(rng, scalar, 3))
        with pytest.raises(ValueError, match="erasure_positions"):
            batch.decode_batch(encoded, [[0]])

    def test_out_of_range_symbols_rejected(self, pair):
        scalar, batch = pair
        bad = np.zeros((1, scalar.n), dtype=int)
        bad[0, 0] = scalar.gf.order
        with pytest.raises(ValueError, match="outside"):
            batch.decode_batch(bad)

    def test_empty_batch(self, pair):
        scalar, batch = pair
        assert batch.encode_batch(np.zeros((0, scalar.k), dtype=int)).shape == (
            0,
            scalar.n,
        )
        report = batch.decode_batch(np.zeros((0, scalar.n), dtype=int))
        assert len(report) == 0
        assert report.num_clean == 0 and report.num_failures == 0

    def test_mismatched_scalar_codec_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            BatchRSCodec(18, 16, m=8, scalar=RSCode(18, 14, m=8))

    def test_non_bm_scalar_codec_rejected(self):
        """The batch decoder is Berlekamp-Massey; a Euclid oracle would
        make single-word and batch decodes run different solvers."""
        euclid = RSCode(18, 16, m=8, key_solver="euclid")
        with pytest.raises(ValueError, match="key_solver"):
            BatchRSCodec(18, 16, m=8, scalar=euclid)

    def test_non_integer_symbols_rejected(self, pair):
        """Regression: float symbols were cast to int64 and truncated, so
        ``encode_batch([[1.7] * k])`` silently encoded 1s where the scalar
        codec raises."""
        scalar, batch = pair
        with pytest.raises(ValueError):
            scalar.encode([1.7] * scalar.k)
        with pytest.raises(ValueError, match="integers"):
            batch.encode_batch([[1.7] * scalar.k])
        floats = np.ones((2, scalar.n))
        with pytest.raises(ValueError, match="integers"):
            batch.syndromes_batch(floats)
        with pytest.raises(ValueError, match="integers"):
            batch.is_codeword_mask(floats)
        with pytest.raises(ValueError, match="integers"):
            batch.decode_batch(floats)

    def test_non_integer_erasure_positions_rejected(self, pair):
        """Regression: a position of 2.5 passed the range check."""
        scalar, batch = pair
        word = batch.encode_batch(np.zeros((1, scalar.k), dtype=int))
        with pytest.raises(ValueError, match="integers"):
            batch.decode_batch(word, [[2.5]])
        with pytest.raises(ValueError, match="integers"):
            batch.decode_batch(np.repeat(word, 2, axis=0), [[1], [0, 2.0]])


class TestMixedStrataBatch:
    """One batch per code holding every stratum side by side.

    Clean words, below/at/beyond-capacity mixes, erasure-only words,
    zero-magnitude (benign) erasures and over-erased words share one
    ``decode_batch`` call, so a per-row mask of the vectorized decoder
    that leaks into a neighbouring row surfaces as a mismatch against
    ``RSCode.decode``.
    """

    STRATA = (
        "clean",
        "below",
        "at",
        "beyond",
        "erasure-only",
        "benign-erasures",
        "over-erased",
    )

    @staticmethod
    def mixed_word(rng, code, stratum):
        nsym, t = code.nsym, code.t
        codeword = code.encode(
            rng.integers(0, code.gf.order, size=code.k).tolist()
        )
        if stratum == "benign-erasures":
            size = int(rng.integers(1, nsym + 1))
            positions = rng.choice(code.n, size=size, replace=False)
            return codeword, sorted(int(p) for p in positions)
        if stratum == "clean":
            re, er = 0, 0
        elif stratum == "below":
            re = int(rng.integers(0, (nsym - 1) // 2 + 1))
            er = int(rng.integers(0, nsym - 2 * re))
        elif stratum == "at":
            re = int(rng.integers(0, t + 1))
            er = nsym - 2 * re
        elif stratum == "beyond":
            budget = nsym + int(rng.integers(1, 4))
            re = int(rng.integers(0, budget // 2 + 1))
            er = min(budget - 2 * re, code.n - re)
        elif stratum == "erasure-only":
            re, er = 0, int(rng.integers(1, nsym + 1))
        else:  # over-erased
            re, er = 0, min(code.n, nsym + int(rng.integers(1, 4)))
        word, erasures, _ = corrupt(rng, code, codeword, re, er)
        return word, erasures

    @pytest.mark.parametrize("B", [0, 1, 2, 4096])
    @pytest.mark.parametrize(
        "n, k, m, fcr",
        [(18, 16, 8, 1), (36, 16, 8, 1), (15, 9, 4, 0), (15, 9, 4, 3)],
        ids=lambda v: str(v),
    )
    def test_mixed_batch_matches_scalar(self, n, k, m, fcr, B):
        code = RSCode(n, k, m=m, fcr=fcr)
        batch = BatchRSCodec(n, k, m=m, fcr=fcr, scalar=code)
        rng = np.random.default_rng([n, m, fcr, B])
        words, erasures = [], []
        for i in range(B):
            stratum = self.STRATA[(i + B) % len(self.STRATA)]
            word, positions = self.mixed_word(rng, code, stratum)
            words.append(word)
            erasures.append(positions)
        report = batch.decode_batch(
            np.asarray(words, dtype=np.int64).reshape(B, n), erasures
        )
        assert len(report) == B
        for i in range(B):
            try:
                expected = code.decode(words[i], erasure_positions=erasures[i])
            except RSDecodingError as exc:
                assert not report.ok[i]
                assert isinstance(report[i], RSDecodingError)
                assert str(report[i]) == str(exc)
                assert report.codewords[i].tolist() == words[i]
                assert not report.corrected[i]
                continue
            assert report.ok[i]
            assert_same_result(report[i], lambda: expected)
            assert report.codewords[i].tolist() == expected.codeword
            assert report.corrected[i] == expected.corrected
            assert report.num_errors[i] == expected.num_errors


class TestSyndromeOverflowRegression:
    """Regression: n=255 GF(2^8) batches in a signed narrow dtype.

    A full-length byte codeword handed over as ``int8`` wraps every
    symbol >= 128 negative.  The syndrome path used to feed those values
    straight into the log-table gather, where numpy's negative indexing
    silently produced a *wrong* syndrome — capable of proving a dirty
    word "clean" and skipping decode entirely.  The entry point now
    range-checks (raising ``ValueError``), and well-typed full-length
    batches must agree symbol-for-symbol with the scalar codec.
    """

    N, K, M = 255, 223, 8

    @pytest.fixture()
    def pair255(self):
        scalar = RSCode(self.N, self.K, m=self.M)
        return scalar, BatchRSCodec(self.N, self.K, m=self.M, scalar=scalar)

    def _high_symbol_batch(self, scalar, rng, rows=4):
        """Encoded words guaranteed to contain symbols >= 128."""
        data = rng.integers(128, 256, size=(rows, self.K))
        codewords = np.array([scalar.encode(row.tolist()) for row in data])
        assert (codewords >= 128).any(axis=1).all()  # int8 would wrap these
        return codewords

    def test_signed_int8_batch_rejected_not_silently_wrong(self, pair255):
        scalar, batch = pair255
        rng = np.random.default_rng(255)
        wrapped = self._high_symbol_batch(scalar, rng).astype(np.int8)
        assert (wrapped < 0).any()  # the hazard is real for this input
        with pytest.raises(ValueError, match="outside"):
            batch.syndromes_batch(wrapped)
        with pytest.raises(ValueError, match="outside"):
            batch.is_codeword_mask(wrapped)
        with pytest.raises(ValueError, match="outside"):
            batch.decode_batch(wrapped)

    def test_uint8_full_length_syndromes_match_scalar(self, pair255):
        from repro.rs.syndromes import compute_syndromes

        scalar, batch = pair255
        rng = np.random.default_rng(256)
        received = self._high_symbol_batch(scalar, rng)
        # Corrupt one high-value symbol per word so syndromes are nonzero.
        for row in received:
            row[int(rng.integers(0, self.N))] ^= 0xFF
        got = batch.syndromes_batch(received.astype(np.uint8))
        for i, word in enumerate(received):
            expected = compute_syndromes(
                scalar.gf, word.tolist(), scalar.nsym, scalar.fcr
            )
            assert got[i].tolist() == expected

    def test_uint8_clean_words_stay_clean_and_decode(self, pair255):
        scalar, batch = pair255
        rng = np.random.default_rng(257)
        codewords = self._high_symbol_batch(scalar, rng).astype(np.uint8)
        assert batch.is_codeword_mask(codewords).all()
        report = batch.decode_batch(codewords)
        assert report.ok.all() and report.clean.all()
        for i in range(len(codewords)):
            assert report[i].codeword == codewords[i].astype(int).tolist()
