"""Conformance suite of the batch codec's word-level contract.

The executable definition of what :class:`~repro.rs.batch.BatchRSCodec`
promises:

* round-trip: ``encode_batch`` → ``decode_batch`` recovers every word
  through the clean fast path;
* correction: at-capacity errors, erasures up to ``nsym``, mixed
  errors+erasures at the ``2*re + er = nsym`` boundary;
* failure signaling: beyond-capacity and over-erased words record the
  *exact* scalar outcome (including error messages) — never raise out
  of the batch call, never silently succeed;
* golden vectors: committed word-level expectations for the paper's
  codes (``tests/vectors/rs_golden.json``, produced by the trusted
  scalar decoder via ``make_rs_golden.py``);
* dtype/shape contracts: int64 outputs, exact shapes, loud rejection
  of wrong widths and out-of-range symbols (including the signed-int8
  wraparound that once silently corrupted syndromes);
* counters: work accounting and kernel timing flow into the counters
  passed with each call.

Every contract test runs once per code family in :data:`CODES`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.gf import GF2m
from repro.perf import PerfCounters
from repro.rs import BatchRSCodec, RSCode, RSDecodingError

GOLDEN_PATH = Path(__file__).resolve().parent / "vectors" / "rs_golden.json"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _outcomes_equal(ours, reference) -> bool:
    """Word-outcome equality: same success/failure, same payload/message."""
    if isinstance(reference, RSDecodingError):
        return isinstance(ours, RSDecodingError) and str(ours) == str(
            reference
        )
    if isinstance(ours, RSDecodingError):
        return False
    return (
        ours.data == reference.data
        and ours.codeword == reference.codeword
        and ours.num_errors == reference.num_errors
        and ours.num_erasures == reference.num_erasures
        and ours.corrected == reference.corrected
    )


class Code(NamedTuple):
    """One RS(n, k) code over GF(2^m) the contract is checked on."""

    n: int
    k: int
    m: int
    fcr: int = 1
    prim_poly: Optional[int] = None  # None: the field's default modulus

    def __str__(self) -> str:
        name = f"RS({self.n},{self.k})m{self.m}"
        if self.fcr != 1:
            name += f"-fcr{self.fcr}"
        if self.prim_poly is not None:
            name += f"-p{self.prim_poly:#x}"
        return name


#: The paper's simplex and duplex codes, the full-length GF(2^8) code
#: (whose syndrome kernel runs in several row blocks per batch), a small
#: field, another first consecutive root, and another primitive
#: polynomial for GF(2^8).
CODES = (
    Code(18, 16, 8),
    Code(36, 16, 8),
    Code(255, 223, 8),
    Code(15, 9, 4),
    Code(18, 16, 8, fcr=0),
    Code(18, 16, 8, prim_poly=0x12B),
)

#: Codes whose symbols reach 128, where a signed int8 batch wraps.
BYTE_CODES = tuple(code for code in CODES if code.m >= 8)


class TestBatchConformance:
    @pytest.fixture(params=CODES, ids=str)
    def codec(self, request):
        n, k, m, fcr, prim_poly = request.param
        scalar = RSCode(n, k, m=m, fcr=fcr, gf=GF2m(m, prim_poly))
        return BatchRSCodec(n, k, m=m, fcr=fcr, scalar=scalar)

    # -- round-trip ---------------------------------------------------------

    def test_roundtrip_clean_fast_path(self, codec):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 1 << codec.m, size=(32, codec.k), dtype=np.int64)
        codewords = codec.encode_batch(data)
        report = codec.decode_batch(codewords)
        assert report.ok.all() and report.clean.all()
        assert report.data_rows() == data.tolist()

    def test_encode_rows_match_scalar_reference(self, codec):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 1 << codec.m, size=(16, codec.k), dtype=np.int64)
        batch = codec.encode_batch(data)
        for row, expected in zip(
            batch.tolist(),
            (codec.scalar.encode(w) for w in data.tolist()),
        ):
            assert row == expected

    def test_syndromes_match_scalar_reference(self, codec):
        from repro.rs.syndromes import compute_syndromes

        rng = np.random.default_rng(3)
        rec = rng.integers(0, 1 << codec.m, size=(16, codec.n), dtype=np.int64)
        batch = codec.syndromes_batch(rec)
        for row, word in zip(batch.tolist(), rec.tolist()):
            assert row == compute_syndromes(
                codec.scalar.gf, word, codec.nsym, codec.fcr
            )

    # -- correction capability ---------------------------------------------

    def test_at_capacity_errors_corrected(self, codec):
        n, k, m = codec.n, codec.k, codec.m
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << m, size=(8, k), dtype=np.int64)
        rec = codec.encode_batch(data)
        for row in rec:
            positions = rng.choice(n, size=codec.t, replace=False)
            for pos in positions:
                row[pos] ^= int(rng.integers(1, 1 << m))
        report = codec.decode_batch(rec)
        assert report.ok.all()
        assert not report.clean.any()
        assert report.data_rows() == data.tolist()

    def test_erasures_to_full_capability(self, codec):
        n, k, m = codec.n, codec.k, codec.m
        rng = np.random.default_rng(5)
        data = rng.integers(0, 1 << m, size=(8, k), dtype=np.int64)
        rec = codec.encode_batch(data)
        erasures = []
        for row in rec:
            positions = rng.choice(n, size=codec.nsym, replace=False)
            for pos in positions:
                row[pos] ^= int(rng.integers(1, 1 << m))
            erasures.append(sorted(int(p) for p in positions))
        report = codec.decode_batch(rec, erasures)
        assert report.ok.all()
        assert report.data_rows() == data.tolist()

    # -- failure signaling --------------------------------------------------

    def test_beyond_capacity_matches_scalar_word_for_word(self, codec):
        """Beyond-capacity words fail *or* miscorrect exactly like the
        scalar reference — the batch call itself never raises."""
        n, k, m = codec.n, codec.k, codec.m
        rng = np.random.default_rng(6)
        data = rng.integers(0, 1 << m, size=(16, k), dtype=np.int64)
        rec = codec.encode_batch(data)
        for row in rec:
            positions = rng.choice(n, size=codec.t + 1, replace=False)
            for pos in positions:
                row[pos] ^= int(rng.integers(1, 1 << m))
        report = codec.decode_batch(rec)
        for i, word in enumerate(rec.tolist()):
            try:
                reference = codec.scalar.decode(word)
            except RSDecodingError as exc:
                reference = exc
            assert _outcomes_equal(report[i], reference), (
                f"word {i} diverged from scalar reference"
            )

    def test_over_erased_word_records_error(self, codec):
        data = [1] * codec.k
        rec = codec.encode_batch([data])
        too_many = list(range(codec.nsym + 1))
        report = codec.decode_batch(rec, [too_many])
        assert not report.ok[0] and not report.clean[0]
        outcome = report[0]
        assert isinstance(outcome, RSDecodingError)
        assert "exceed" in str(outcome)
        with pytest.raises(RSDecodingError):
            report.result(0)

    # -- erasure input forms ------------------------------------------------

    def test_erasure_mask_matches_position_lists(self, codec):
        """A ``(B, n)`` boolean mask and per-word position lists give
        identical reports, for duplicate and unsorted lists, empty rows
        and over-erased rows alike."""
        n, m = codec.n, codec.m
        rng = np.random.default_rng(10)
        data = rng.integers(0, 1 << m, size=(15, codec.k), dtype=np.int64)
        rec = codec.encode_batch(data)
        sizes = (0, 1, codec.nsym // 2, codec.nsym, codec.nsym + 1)
        lists = []
        for i, row in enumerate(rec):
            positions = rng.choice(n, size=sizes[i % len(sizes)], replace=False)
            for pos in positions:
                row[pos] ^= int(rng.integers(1, 1 << m))
            listed = sorted((int(p) for p in positions), reverse=True)
            lists.append(listed + listed[:1])  # unsorted, one duplicate
        mask = np.zeros((len(rec), n), dtype=bool)
        for i, listed in enumerate(lists):
            mask[i, listed] = True
        by_list = codec.decode_batch(rec, lists)
        by_mask = codec.decode_batch(rec, mask)
        for name in (
            "ok", "clean", "codewords", "corrected", "num_errors", "num_erasures"
        ):
            assert np.array_equal(getattr(by_list, name), getattr(by_mask, name)), name
        for ours, reference in zip(by_mask.results, by_list.results):
            assert _outcomes_equal(ours, reference)
        over_erased = np.arange(len(rec)) % len(sizes) == len(sizes) - 1
        assert not by_mask.ok[over_erased].any()
        assert by_mask.ok[~over_erased].all()

    def test_erasure_input_rejected_when_malformed(self, codec):
        rec = codec.encode_batch([[1] * codec.k] * 2)
        with pytest.raises(ValueError, match="out of range"):
            codec.decode_batch(rec, [[0], [codec.n]])
        with pytest.raises(ValueError, match="out of range"):
            codec.decode_batch(rec, [[-1], []])
        with pytest.raises(ValueError, match="entries"):
            codec.decode_batch(rec, [[0]])
        with pytest.raises(ValueError, match="shape"):
            codec.decode_batch(rec, np.zeros((2, codec.n - 1), dtype=bool))

    # -- golden vectors -----------------------------------------------------

    def test_golden_vectors(self):
        doc = load_golden()
        assert doc["schema"] == 1
        for code_doc in doc["codes"]:
            codec = BatchRSCodec(code_doc["n"], code_doc["k"], m=code_doc["m"])
            cases = code_doc["cases"]
            encoded = codec.encode_batch([c["data"] for c in cases])
            report = codec.decode_batch(
                [c["received"] for c in cases],
                [c["erasures"] for c in cases],
            )
            for i, case in enumerate(cases):
                where = f"RS({code_doc['n']},{code_doc['k']}) {case['label']}"
                assert encoded[i].tolist() == case["codeword"], where
                expect = case["expect"]
                assert bool(report.clean[i]) == expect["clean"], where
                assert bool(report.ok[i]) == expect["ok"], where
                outcome = report[i]
                if expect["ok"]:
                    assert outcome.data == expect["data"], where
                    assert outcome.codeword == expect["codeword"], where
                    assert outcome.num_errors == expect["num_errors"], where
                    assert outcome.num_erasures == expect["num_erasures"], where
                    assert outcome.corrected == expect["corrected"], where
                else:
                    assert isinstance(outcome, RSDecodingError), where
                    assert str(outcome) == expect["error"], where

    # -- single-word passthrough -------------------------------------------

    def test_single_word_encode_decode(self, codec):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 1 << codec.m, size=codec.k).tolist()
        cw = codec.encode(data)
        assert cw == codec.scalar.encode(data)
        cw[3] ^= (1 << codec.m) - 1
        result = codec.decode(cw)
        assert result.data == data

    # -- dtype / shape contracts -------------------------------------------

    def test_wrong_width_rejected(self, codec):
        with pytest.raises(ValueError, match="batch"):
            codec.encode_batch(np.zeros((4, codec.k + 1), dtype=np.int64))
        with pytest.raises(ValueError, match="batch"):
            codec.decode_batch(np.zeros((4, codec.n - 1), dtype=np.int64))
        with pytest.raises(ValueError, match="batch"):
            codec.syndromes_batch(np.zeros((4, codec.n + 3), dtype=np.int64))

    def test_out_of_range_symbols_rejected(self, codec):
        bad = np.zeros((2, codec.n), dtype=np.int64)
        bad[1, 0] = 1 << codec.m
        with pytest.raises(ValueError):
            codec.syndromes_batch(bad)
        bad[1, 0] = -3
        with pytest.raises(ValueError):
            codec.decode_batch(bad)

    @pytest.mark.parametrize("codec", BYTE_CODES, ids=str, indirect=True)
    def test_signed_int8_wraparound_rejected(self, codec):
        """Values >= 128 in an int8 batch wrap negative; they must raise,
        not negative-index the log tables into wrong syndromes."""
        word = np.asarray(codec.encode([200] * codec.k), dtype=np.int64)
        as_int8 = word.astype(np.int8).reshape(1, -1)
        assert (as_int8 < 0).any()  # the hazard is real for this word
        with pytest.raises(ValueError):
            codec.syndromes_batch(as_int8)

    def test_accepts_lists_and_unsigned_dtypes(self, codec):
        data = [[5] * codec.k, [(1 << codec.m) - 1] * codec.k]
        from_list = codec.encode_batch(data)
        from_u8 = codec.encode_batch(np.asarray(data, dtype=np.uint8))
        assert np.array_equal(from_list, from_u8)
        assert from_list.dtype == np.int64
        assert from_list.shape == (2, codec.n)

    def test_empty_batch_contract(self, codec):
        enc = codec.encode_batch(np.zeros((0, codec.k), dtype=np.int64))
        assert enc.shape == (0, codec.n)
        report = codec.decode_batch(np.zeros((0, codec.n), dtype=np.int64))
        assert len(report) == 0 and report.results == []

    def test_output_dtype_and_shape(self, codec):
        rng = np.random.default_rng(8)
        data = rng.integers(0, 1 << codec.m, size=(5, codec.k), dtype=np.int64)
        enc = codec.encode_batch(data)
        assert enc.dtype == np.int64 and enc.shape == (5, codec.n)
        synd = codec.syndromes_batch(enc)
        assert synd.dtype == np.int64 and synd.shape == (5, codec.nsym)
        assert (synd == 0).all()

    # -- counters -----------------------------------------------------------

    def test_counters_flow(self, codec):
        counters = PerfCounters()
        rng = np.random.default_rng(9)
        data = rng.integers(0, 1 << codec.m, size=(64, codec.k), dtype=np.int64)
        rec = codec.encode_batch(data, counters)
        rec[0, 0] ^= 1
        codec.decode_batch(rec, counters=counters)
        assert counters.words_encoded == 64
        assert counters.words_decoded == 64
        assert counters.clean_fast_path == 63
        assert counters.dirty_words_decoded == 1
        assert counters.kernel_seconds > 0.0

    def test_dirty_words_are_nonzero_syndrome_or_over_erased(self, codec):
        # Erasures alone do not make a word dirty; a nonzero syndrome
        # does, and so does one erasure more than n - k.
        rng = np.random.default_rng(10)
        data = rng.integers(0, 1 << codec.m, size=(4, codec.k), dtype=np.int64)
        rec = codec.encode_batch(data)
        rec[2, 1] ^= 1
        erasures = [[], list(range(codec.nsym)), [], list(range(codec.nsym + 1))]
        counters = PerfCounters()
        report = codec.decode_batch(rec, erasures, counters=counters)
        assert report.clean.tolist() == [True, True, False, False]
        assert counters.words_decoded == 4
        assert counters.clean_fast_path == 2
        assert counters.dirty_words_decoded == 2
        assert counters.decode_failures == 1
        assert counters.dirty_rate == 0.5
