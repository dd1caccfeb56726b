"""The duplex arbiter decision procedure (paper Section 3).

The arbiter receives the two module words, recovers erasures by masking
(taking the symbol from the healthy replica wherever exactly one side is
erased), decodes each word separately — setting a *flag* when a decoder
performed a correction — and then compares:

* no flag set → either word is output (no error present);
* words equal, ≥1 flag set → the correction was right, output either;
* words differ, exactly one flag set → the flagged word was
  mis-corrected; output the word with the reset flag;
* words differ, both flags set → the arbiter cannot discriminate a
  correction from a mis-correction and produces **no output**.

Detected decoding failures (the decoder reports uncorrectable rather than
producing a word) are handled in the natural way the paper leaves
implicit: if exactly one word decodes, it is output; if neither does,
there is no output.

The arbiter itself is assumed fault-free (hard core), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from ..rs import RSCode, RSDecodingError
from .word import MemoryWord


class ArbiterDecision(Enum):
    """How the arbiter arrived at (or refused) an output."""

    NO_ERROR = "no_error"              # no flag set
    AGREED_CORRECTION = "agreed"       # words equal, >=1 flag
    FLAG_DISCRIMINATED = "flag"        # words differ, one flag set
    SINGLE_DECODABLE = "single"        # only one word decoded at all
    NO_OUTPUT = "no_output"            # cannot discriminate / both failed


@dataclass(frozen=True)
class ArbiterResult:
    """Outcome of one duplex read through the arbiter."""

    decision: ArbiterDecision
    data: Optional[List[int]]          # k output symbols, None if no output
    flags: Tuple[bool, bool]           # per-word correction flags
    decoded: Tuple[bool, bool]         # per-word decode success
    masked_erasures: int               # single-sided erasures masked (Y + b)
    shared_erasures: int               # double-sided erasures passed on (X)

    @property
    def produced_output(self) -> bool:
        return self.data is not None


def recover_erasures(
    word1: MemoryWord, word2: MemoryWord
) -> Tuple[List[int], List[int], List[int], int]:
    """Erasure-recovery stage: mask single-sided erasures.

    Returns the two masked symbol vectors, the positions erased on *both*
    sides (which remain erasures for the decoders), and the count of
    positions masked.
    """
    if word1.n != word2.n:
        raise ValueError("replica length mismatch")
    s1 = word1.read()
    s2 = word2.read()
    shared: List[int] = []
    masked = 0
    for p in range(word1.n):
        e1 = word1.is_erased(p)
        e2 = word2.is_erased(p)
        if e1 and e2:
            shared.append(p)
        elif e1:
            s1[p] = s2[p]
            masked += 1
        elif e2:
            s2[p] = s1[p]
            masked += 1
    return s1, s2, shared, masked


def arbitrate(code: RSCode, word1: MemoryWord, word2: MemoryWord) -> ArbiterResult:
    """Run the full Section 3 decision procedure on one stored pair."""
    s1, s2, shared, masked = recover_erasures(word1, word2)

    def try_decode(symbols: List[int]):
        try:
            return code.decode(symbols, erasure_positions=shared)
        except RSDecodingError:
            return None

    return decide_from_decodes(
        try_decode(s1), try_decode(s2), masked=masked, shared=len(shared)
    )


def decide_from_decodes(
    r1, r2, masked: int = 0, shared: int = 0
) -> ArbiterResult:
    """The Section 3 decision table, applied to two decode outcomes.

    ``r1``/``r2`` are the per-word :class:`~repro.rs.codec.DecodeResult`
    objects, or ``None`` where that word was detectably uncorrectable.
    Split out of :func:`arbitrate` so the batch Monte-Carlo engine can
    decode both replicas through :class:`~repro.rs.batch.BatchRSCodec`
    and still run *this exact* decision procedure per trial.
    """
    decoded = (r1 is not None, r2 is not None)
    flags = (
        bool(r1.corrected) if r1 is not None else False,
        bool(r2.corrected) if r2 is not None else False,
    )

    if r1 is None and r2 is None:
        decision, data = ArbiterDecision.NO_OUTPUT, None
    elif r1 is None or r2 is None:
        winner = r1 if r1 is not None else r2
        decision, data = ArbiterDecision.SINGLE_DECODABLE, winner.data
    elif not flags[0] and not flags[1]:
        decision, data = ArbiterDecision.NO_ERROR, r1.data
    elif r1.data == r2.data:
        decision, data = ArbiterDecision.AGREED_CORRECTION, r1.data
    elif flags[0] != flags[1]:
        # exactly one flag: the un-flagged word is trusted
        winner = r2 if flags[0] else r1
        decision, data = ArbiterDecision.FLAG_DISCRIMINATED, winner.data
    else:
        decision, data = ArbiterDecision.NO_OUTPUT, None

    return ArbiterResult(
        decision=decision,
        data=data,
        flags=flags,
        decoded=decoded,
        masked_erasures=masked,
        shared_erasures=shared,
    )


def decide_batch(ok1, ok2, flag1, flag2, same_data) -> np.ndarray:
    """The Section 3 decision table over arrays of word pairs.

    Array form of :func:`decide_from_decodes`, which stays the reference:
    ``ok*`` say whether each word decoded, ``flag*`` whether its decoder
    changed a symbol (ignored where the word failed), and ``same_data``
    whether the two decoded data words are equal.  Returns, per pair,
    the word whose data the arbiter outputs: ``0`` (word 1), ``1``
    (word 2) or ``-1`` (no output).
    """
    ok1 = np.asarray(ok1, dtype=bool)
    ok2 = np.asarray(ok2, dtype=bool)
    flag1 = np.asarray(flag1, dtype=bool) & ok1
    flag2 = np.asarray(flag2, dtype=bool) & ok2
    return np.select(
        [
            ~ok1 & ~ok2,                       # neither decoded
            ~ok2,                              # only word 1 decoded
            ~ok1,                              # only word 2 decoded
            ~(flag1 | flag2) | same_data,      # no flag, or agreed
            flag1 != flag2,                    # trust the unflagged word
        ],
        [-1, 0, 1, 0, flag1.astype(np.int64)],
        default=-1,                            # both flagged, words differ
    )
