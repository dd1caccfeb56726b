"""Unit tests for the Section 3 arbiter decision procedure.

Each decision branch of the paper's arbiter is constructed concretely:
clean reads, agreed corrections, flag discrimination of a mis-correction,
the undecidable both-flags case, single-decodable fallback, and the
erasure-recovery masking stage.
"""

import itertools
import random

import numpy as np
import pytest

from repro.rs import DecodeResult, RSCode, RSDecodingError
from repro.simulator import (
    ArbiterDecision,
    MemoryWord,
    arbitrate,
    decide_batch,
    decide_from_decodes,
    recover_erasures,
)


@pytest.fixture(scope="module")
def code():
    return RSCode(18, 16, m=8)


@pytest.fixture(scope="module")
def data(code):
    rng = random.Random(1234)
    return [rng.randrange(256) for _ in range(code.k)]


def fresh_pair(code, data):
    cw = code.encode(data)
    return MemoryWord(cw, code.m), MemoryWord(cw, code.m)


def find_miscorrecting_pattern(code, data):
    """A 2-error pattern on which the t=1 decoder mis-corrects."""
    cw = code.encode(data)
    rng = random.Random(99)
    for _ in range(5000):
        corrupted = list(cw)
        for pos in rng.sample(range(code.n), 2):
            corrupted[pos] ^= rng.randrange(1, 256)
        try:
            result = code.decode(corrupted)
        except RSDecodingError:
            continue
        if result.data != data:
            return corrupted
    raise AssertionError("no mis-correcting pattern found")


def find_detected_failure_pattern(code, data):
    """A 2-error pattern the decoder detects as uncorrectable."""
    cw = code.encode(data)
    rng = random.Random(7)
    for _ in range(5000):
        corrupted = list(cw)
        for pos in rng.sample(range(code.n), 2):
            corrupted[pos] ^= rng.randrange(1, 256)
        try:
            code.decode(corrupted)
        except RSDecodingError:
            return corrupted
    raise AssertionError("no detected-failure pattern found")


class TestDecisionBranches:
    def test_no_error(self, code, data):
        w1, w2 = fresh_pair(code, data)
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.NO_ERROR
        assert result.data == data
        assert result.flags == (False, False)

    def test_agreed_correction_single_error_one_word(self, code, data):
        w1, w2 = fresh_pair(code, data)
        w1.flip_bit(4, 2)
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.AGREED_CORRECTION
        assert result.data == data
        assert result.flags == (True, False)

    def test_agreed_correction_errors_in_both_words(self, code, data):
        w1, w2 = fresh_pair(code, data)
        w1.flip_bit(4, 2)
        w2.flip_bit(11, 7)
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.AGREED_CORRECTION
        assert result.data == data
        assert result.flags == (True, True)

    def test_flag_discriminates_miscorrection(self, code, data):
        """Word 1 mis-corrects (flag set); clean word 2 wins."""
        w1, w2 = fresh_pair(code, data)
        w1.write(find_miscorrecting_pattern(code, data))
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.FLAG_DISCRIMINATED
        assert result.data == data

    def test_both_flags_differ_no_output(self, code, data):
        """Word 1 mis-corrects, word 2 performs a genuine correction: the
        arbiter cannot discriminate and refuses an output (paper Sec. 3)."""
        w1, w2 = fresh_pair(code, data)
        w1.write(find_miscorrecting_pattern(code, data))
        w2.flip_bit(9, 1)
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.NO_OUTPUT
        assert result.data is None
        assert result.flags == (True, True)

    def test_single_decodable(self, code, data):
        w1, w2 = fresh_pair(code, data)
        w1.write(find_detected_failure_pattern(code, data))
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.SINGLE_DECODABLE
        assert result.data == data
        assert result.decoded == (False, True)

    def test_both_undecodable_no_output(self, code, data):
        pattern = find_detected_failure_pattern(code, data)
        w1, w2 = fresh_pair(code, data)
        w1.write(pattern)
        w2.write(pattern)
        result = arbitrate(code, w1, w2)
        assert result.decision is ArbiterDecision.NO_OUTPUT
        assert result.data is None


class TestDecideBatch:
    def test_matches_decide_from_decodes_on_every_combination(self):
        """The array table agrees with the reference on all 32 inputs of
        (ok1, ok2, flag1, flag2, data equal)."""
        combos = list(itertools.product((False, True), repeat=5))
        ok1, ok2, flag1, flag2, same = (np.array(c) for c in zip(*combos))
        source = decide_batch(ok1, ok2, flag1, flag2, same)
        for i, (a_ok, b_ok, a_flag, b_flag, equal) in enumerate(combos):
            words = (
                DecodeResult([1], [0, 1], 0, 0, a_flag) if a_ok else None,
                DecodeResult([1 if equal else 2], [0, 1], 0, 0, b_flag)
                if b_ok
                else None,
            )
            expected = decide_from_decodes(*words).data
            got = None if source[i] < 0 else words[source[i]].data
            assert got == expected, combos[i]


class TestErasureRecovery:
    def test_single_sided_erasure_masked(self, code, data):
        w1, w2 = fresh_pair(code, data)
        w1.make_stuck(3, 0, 1 - ((code.encode(data)[3] >> 0) & 1))  # corrupting
        s1, _s2, shared, masked = recover_erasures(w1, w2)
        assert shared == []
        assert masked == 1
        assert s1[3] == w2.read_symbol(3)  # healed from the replica

    def test_double_sided_erasure_passed_to_decoder(self, code, data):
        w1, w2 = fresh_pair(code, data)
        w1.make_stuck(5, 1, 0)
        w2.make_stuck(5, 4, 1)
        _s1, _s2, shared, masked = recover_erasures(w1, w2)
        assert shared == [5]
        assert masked == 0

    def test_masking_copies_partner_error(self, code, data):
        """A b pair: erasure in word 1, SEU in word 2 — masking imports
        word 2's error into word 1 (the model's b-counts-for-both rule)."""
        w1, w2 = fresh_pair(code, data)
        cw = code.encode(data)
        w1.make_stuck(7, 2, 1 - ((cw[7] >> 2) & 1))
        w2.flip_bit(7, 5)
        s1, s2, shared, _masked = recover_erasures(w1, w2)
        assert shared == []
        assert s1[7] == s2[7] == w2.read_symbol(7)
        assert s1[7] != cw[7]

    def test_mismatched_lengths_rejected(self, code, data):
        w1 = MemoryWord(code.encode(data), code.m)
        w2 = MemoryWord([0] * 10, code.m)
        with pytest.raises(ValueError, match="mismatch"):
            recover_erasures(w1, w2)

    def test_full_arbitration_with_masked_erasures(self, code, data):
        """Many single-sided erasures are free — the duplex advantage."""
        w1, w2 = fresh_pair(code, data)
        cw = code.encode(data)
        for pos in range(0, 12, 2):  # 6 erasures, all in word 1
            w1.make_stuck(pos, 0, 1 - ((cw[pos] >> 0) & 1))
        result = arbitrate(code, w1, w2)
        assert result.data == data
        assert result.masked_erasures == 6
        assert result.shared_erasures == 0
