"""Batch Reed-Solomon codec: vectorized encode and errors-and-erasures decode.

:class:`BatchRSCodec` processes whole ``(B, k)``/``(B, n)`` ndarrays of
words through the same RS(n, k) code as the scalar :class:`~repro.rs.codec.RSCode`,
with a strict bit-identity contract enforced by the differential suite in
``tests/test_batch_differential.py``:

* ``encode_batch`` runs the systematic LFSR division across the batch
  dimension — ``k`` vectorized steps instead of ``B`` polynomial
  divisions — and is symbol-identical to ``RSCode.encode`` per row.
* ``decode_batch`` computes all syndromes in one vectorized pass.
  Words whose syndromes are all zero are *proved* clean by that pass
  alone.  All other words go together through one vectorized
  errors-and-erasures decoder
  (:class:`~repro.rs.batch_decode.ErrataDecoder`: Forney syndromes,
  Berlekamp-Massey, Chien, Forney, post-correction check), which
  reproduces every correction, every mis-correction and the first
  failure of the scalar pipeline row for row.

:class:`RSCode` stays the oracle: the differential suite, the
conformance suite and the ``rs-batch-scalar`` fuzz target compare every
word's outcome — including the exact :class:`~repro.rs.codec.RSDecodingError`
message — against it, and single-word ``decode`` calls still go to it.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gf.batch import BatchGF, batch_field
from ..perf import PerfCounters
from . import batch_decode
from .batch_decode import ErrataDecoder
from .codec import (
    LOCATOR_DEGREE,
    OVER_ERASED,
    POST_SYNDROMES,
    ROOT_COUNT,
    DecodeResult,
    RSCode,
    RSDecodingError,
)
from .forney import DERIVATIVE_ZERO

#: Element budget of one block of the numpy syndrome kernel's
#: ``(rows, n - k, n)`` temporary: 128 KB of int64, small enough to stay
#: in cache, where the direct sum beats Horner's rule at every batch size
#: measured (3 to 4096 words, n = 18 to 255).
SYNDROME_BLOCK = 1 << 14

#: A per-word decode outcome: the decoded result, or the decoding error
#: the scalar pipeline raises for that word.
WordOutcome = Union[DecodeResult, RSDecodingError]

#: Erasures of a batch: per-word position lists, or a ``(B, n)`` boolean
#: mask of the erased positions.
ErasureInput = Union[Sequence[Sequence[int]], np.ndarray]


class BatchDecodeReport:
    """Outcome of one ``decode_batch`` call.

    The decode itself is pure array work; per-word
    :class:`DecodeResult` / :class:`RSDecodingError` objects are built
    lazily, on first access, from the arrays below and a per-word
    failure code.  Bulk consumers such as the Monte-Carlo engine read the
    arrays and never build an object.

    Attributes
    ----------
    ok: boolean mask of words that decoded successfully.
    clean: boolean mask of words whose syndromes were all zero (a subset
        of ``ok``).
    codewords: ``(B, n)`` corrected words; a failed word keeps its
        received symbols.
    corrected: boolean mask of words whose symbols the decoder changed
        (the duplex arbiter's *flag*; False for failed words).
    num_errors: error-locator degree per word (0 for clean words).
    num_erasures: distinct erasure positions supplied per word.
    results: per-word outcomes, index-aligned with the input batch; each
        entry is a :class:`DecodeResult` or the :class:`RSDecodingError`
        the scalar decoder raises for that word.
    """

    def __init__(
        self,
        received: np.ndarray,
        clean: np.ndarray,
        codewords: np.ndarray,
        corrected: np.ndarray,
        num_errors: np.ndarray,
        num_erasures: np.ndarray,
        fail: np.ndarray,
        num_roots: np.ndarray,
        zero_position: np.ndarray,
        nsym: int,
    ):
        self.ok = fail == batch_decode.OK
        self.clean = clean
        self.codewords = codewords
        self.corrected = corrected
        self.num_errors = num_errors
        self.num_erasures = num_erasures
        self._received = received
        self._fail = fail
        self._num_roots = num_roots
        self._zero_position = zero_position
        self._nsym = nsym
        self._results: Optional[List[WordOutcome]] = None

    def _error(self, idx: int) -> RSDecodingError:
        code = self._fail[idx]
        rho = int(self.num_erasures[idx])
        num_errors = int(self.num_errors[idx])
        if code == batch_decode.OVER_ERASED:
            message = OVER_ERASED.format(rho=rho, nsym=self._nsym)
        elif code == batch_decode.LOCATOR_DEGREE:
            message = LOCATOR_DEGREE.format(
                num_errors=num_errors, rho=rho, nsym=self._nsym
            )
        elif code == batch_decode.ROOT_COUNT:
            message = ROOT_COUNT.format(
                degree=num_errors + rho, roots=int(self._num_roots[idx])
            )
        elif code == batch_decode.DERIVATIVE_ZERO:
            message = DERIVATIVE_ZERO.format(
                position=int(self._zero_position[idx])
            )
        else:
            message = POST_SYNDROMES
        return RSDecodingError(message)

    def _materialize(self, idx: int) -> WordOutcome:
        if self._fail[idx]:
            return self._error(idx)
        row = self.codewords[idx].tolist()
        changed = np.flatnonzero(self.codewords[idx] != self._received[idx])
        return DecodeResult(
            data=row[self._nsym :],
            codeword=row,
            num_errors=int(self.num_errors[idx]),
            num_erasures=int(self.num_erasures[idx]),
            corrected=bool(changed.size),
            error_positions=changed.tolist(),
        )

    @property
    def results(self) -> List[WordOutcome]:
        if self._results is None:
            self._results = [
                self._materialize(i) for i in range(len(self.ok))
            ]
        return self._results

    def __len__(self) -> int:
        return len(self.ok)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx: int) -> WordOutcome:
        if self._results is not None:
            return self._results[idx]
        if not -len(self.ok) <= idx < len(self.ok):
            raise IndexError(idx)
        return self._materialize(idx % len(self.ok))

    @property
    def num_clean(self) -> int:
        return int(self.clean.sum())

    @property
    def num_fallback(self) -> int:
        """Words that needed the errata decoder (not proved clean)."""
        return len(self.ok) - self.num_clean

    @property
    def num_failures(self) -> int:
        return len(self.ok) - int(self.ok.sum())

    def result(self, idx: int) -> DecodeResult:
        """The :class:`DecodeResult` at ``idx``, re-raising its error."""
        out = self[idx]
        if isinstance(out, RSDecodingError):
            raise out
        return out

    def data_rows(self) -> List[Optional[List[int]]]:
        """Per-word recovered data (``None`` where decoding failed)."""
        return [
            data if ok else None
            for data, ok in zip(
                self.codewords[:, self._nsym :].tolist(), self.ok.tolist()
            )
        ]


class BatchRSCodec:
    """Batch-mode systematic RS(n, k) codec over GF(2^m).

    Parameters mirror :class:`RSCode`; a prebuilt scalar codec may be
    supplied to guarantee both views share one generator/field; it must
    use the Berlekamp-Massey key solver, which is what the vectorized
    decoder runs.

    A codec holds no per-call state, so one instance may serve several
    threads at once.  Each batch entry point takes an optional
    :class:`~repro.perf.PerfCounters` for that call alone, which records
    words encoded, words decoded, fast-path hits, dirty words decoded,
    and the busy time of the parity and syndrome kernels
    (``kernel_seconds``).
    """

    def __init__(
        self,
        n: int,
        k: int,
        m: int = 8,
        fcr: int = 1,
        scalar: Optional[RSCode] = None,
    ):
        if scalar is None:
            scalar = RSCode(n, k, m=m, fcr=fcr)
        elif (scalar.n, scalar.k, scalar.m, scalar.fcr) != (n, k, m, fcr):
            raise ValueError(
                f"supplied scalar codec {scalar!r} does not match "
                f"(n={n}, k={k}, m={m}, fcr={fcr})"
            )
        elif scalar.key_solver != "bm":
            raise ValueError(
                f"supplied scalar codec uses key_solver="
                f"{scalar.key_solver!r}; the batch decoder is "
                "Berlekamp-Massey ('bm')"
            )
        self.scalar = scalar
        self.n = n
        self.k = k
        self.m = m
        self.fcr = fcr
        self.nsym = scalar.nsym
        self.t = scalar.t
        self.bgf: BatchGF = batch_field(m, scalar.gf.prim_poly)
        # Generator tail g[0..nsym-1] (g is monic of degree nsym) drives the
        # vectorized LFSR encode step.
        self._gen_tail = np.asarray(scalar.generator[: self.nsym], dtype=np.int64)
        self._decoder = ErrataDecoder(self.bgf, n, self.nsym, fcr)

    # -- kernels -------------------------------------------------------------

    def _parity_kernel(self, data: np.ndarray) -> np.ndarray:
        """``(B, nsym)`` parity of a validated ``(B, k)`` data batch.

        Runs the systematic LFSR division across the batch dimension —
        ``k`` vectorized steps instead of ``B`` polynomial divisions.
        """
        B = data.shape[0]
        parity = np.zeros((B, self.nsym), dtype=np.int64)
        for j in range(self.k - 1, -1, -1):
            feedback = data[:, j] ^ parity[:, -1]
            shifted = np.empty_like(parity)
            shifted[:, 1:] = parity[:, :-1]
            shifted[:, 0] = 0
            parity = shifted ^ self.bgf.mul(
                feedback[:, np.newaxis], self._gen_tail[np.newaxis, :]
            )
        return parity

    def _syndromes_kernel(self, rec: np.ndarray) -> np.ndarray:
        """``(B, nsym)`` syndromes of a validated ``(B, n)`` batch.

        Each syndrome is the XOR over positions of ``r_p * alpha^((fcr+j) p)``,
        summed directly rather than by Horner's rule: a handful of numpy
        calls instead of ``4 n``, in row blocks whose ``(rows, nsym, n)``
        temporary stays under :data:`SYNDROME_BLOCK` elements.
        """
        zexp = self.bgf.zexp
        log_rec = self.bgf.zlog[rec][:, np.newaxis, :]
        out = np.empty((rec.shape[0], self.nsym), dtype=np.int64)
        step = max(1, SYNDROME_BLOCK // (self.n * self.nsym))
        for start in range(0, rec.shape[0], step):
            out[start : start + step] = np.bitwise_xor.reduce(
                zexp[log_rec[start : start + step] + self._decoder.synd_log],
                axis=2,
            )
        return out

    @staticmethod
    def _timed_kernel(
        counters: Optional[PerfCounters], kernel, arg: np.ndarray
    ) -> np.ndarray:
        """Run a kernel, accounting busy time to ``kernel_seconds``."""
        if counters is None:
            return kernel(arg)
        t0 = time.perf_counter()
        try:
            return kernel(arg)
        finally:
            counters.kernel_seconds += time.perf_counter() - t0

    # -- encoding -----------------------------------------------------------

    def encode_batch(
        self,
        words: Sequence[Sequence[int]],
        counters: Optional[PerfCounters] = None,
    ) -> np.ndarray:
        """Systematically encode a ``(B, k)`` batch into ``(B, n)`` codewords.

        Row-identical to ``RSCode.encode``: data lands unchanged in
        positions ``n-k ..``, parity in ``0 .. n-k-1``.
        """
        data = self.bgf.validate_elements(np.atleast_2d(np.asarray(words)))
        if data.ndim != 2 or (data.size and data.shape[1] != self.k):
            raise ValueError(
                f"expected a (B, {self.k}) batch, got shape {data.shape}"
            )
        B = data.shape[0]
        if B == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        parity = self._timed_kernel(counters, self._parity_kernel, data)
        out = np.concatenate([parity, data], axis=1)
        if counters is not None:
            counters.words_encoded += B
        return out

    # -- syndromes ----------------------------------------------------------

    def syndromes_batch(
        self,
        received: Sequence[Sequence[int]],
        counters: Optional[PerfCounters] = None,
    ) -> np.ndarray:
        """``(B, nsym)`` syndrome matrix of a ``(B, n)`` received batch.

        Inputs are range-checked like every other entry point: a word
        containing values outside ``[0, 2^m)`` — e.g. a full-length
        n=255 byte batch handed over as a *signed* ``int8`` array, whose
        values >= 128 silently wrapped negative — used to flow into the
        log-table gather, where numpy's negative indexing made it a
        silently *wrong* syndrome instead of an error.  A wrong syndrome
        can prove a dirty word "clean", which is the worst possible
        failure mode for the fast path; now it raises ``ValueError``.
        """
        rec = self.bgf.validate_elements(np.atleast_2d(np.asarray(received)))
        if rec.ndim != 2 or (rec.size and rec.shape[1] != self.n):
            raise ValueError(
                f"expected a (B, {self.n}) batch, got shape {rec.shape}"
            )
        if rec.shape[0] == 0:
            return np.zeros((0, self.nsym), dtype=np.int64)
        return self._timed_kernel(counters, self._syndromes_kernel, rec)

    def is_codeword_mask(self, received: Sequence[Sequence[int]]) -> np.ndarray:
        """Boolean mask of rows whose syndromes are all zero."""
        return np.all(self.syndromes_batch(received) == 0, axis=1)

    # -- decoding -----------------------------------------------------------

    def _erasure_mask(
        self, erasure_positions: Optional[ErasureInput], B: int
    ) -> Optional[np.ndarray]:
        """The ``(B, n)`` boolean erasure mask of either input form.

        Per-word position lists are scattered into a mask, which
        deduplicates them; ``None`` stays ``None`` (no erasures).
        """
        if erasure_positions is None:
            return None
        if isinstance(erasure_positions, np.ndarray) and (
            erasure_positions.dtype == bool
        ):
            if erasure_positions.shape != (B, self.n):
                raise ValueError(
                    f"erasure mask has shape {erasure_positions.shape} "
                    f"for a ({B}, {self.n}) batch"
                )
            return erasure_positions
        if len(erasure_positions) != B:
            raise ValueError(
                f"erasure_positions has {len(erasure_positions)} entries "
                f"for a batch of {B}"
            )
        counts = np.fromiter(map(len, erasure_positions), dtype=np.int64, count=B)
        flat = np.asarray(list(itertools.chain.from_iterable(erasure_positions)))
        mask = np.zeros((B, self.n), dtype=bool)
        if flat.size == 0:
            return mask
        if flat.dtype.kind not in "iu":
            raise ValueError(
                f"erasure positions must be integers, got dtype {flat.dtype}"
            )
        if flat.min() < 0 or flat.max() >= self.n:
            raise ValueError("erasure position out of range")
        mask[np.repeat(np.arange(B), counts), flat] = True
        return mask

    def _erasure_table(
        self, erasure_positions: Optional[ErasureInput], B: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-word erasure counts and a ``(B, max rho)`` position table.

        Positions come out of the mask deduplicated and ascending, as
        the scalar decoder sorts them; row ``i`` holds them in its first
        ``rho[i]`` columns.
        """
        mask = self._erasure_mask(erasure_positions, B)
        if mask is None:
            return np.zeros(B, dtype=np.int64), np.zeros((B, 0), dtype=np.int64)
        rho = np.count_nonzero(mask, axis=1).astype(np.int64)
        table = np.zeros((B, int(rho.max(initial=0))), dtype=np.int64)
        table[np.arange(table.shape[1]) < rho[:, None]] = np.nonzero(mask)[1]
        return rho, table

    def decode_batch(
        self,
        received: Sequence[Sequence[int]],
        erasure_positions: Optional[ErasureInput] = None,
        counters: Optional[PerfCounters] = None,
    ) -> BatchDecodeReport:
        """Decode a ``(B, n)`` batch with optional per-word erasures.

        ``erasure_positions`` is ``None`` (no erasures anywhere), a
        length-``B`` sequence of per-word integer position lists, or a
        ``(B, n)`` boolean ndarray marking the erased positions; both
        forms give identical reports.
        Uncorrectable words do not raise; the report records, at the
        word's index, the :class:`RSDecodingError` the scalar decoder
        raises for it, with exactly the same message.
        """
        rec = self.bgf.validate_elements(np.atleast_2d(np.asarray(received)))
        if rec.ndim != 2 or (rec.size and rec.shape[1] != self.n):
            raise ValueError(
                f"expected a (B, {self.n}) batch, got shape {rec.shape}"
            )
        B = rec.shape[0]
        rho, erasures = self._erasure_table(erasure_positions, B)
        syndromes = self.syndromes_batch(rec, counters)
        # The scalar decoder rejects rho > nsym before looking at the
        # syndromes, so over-erased words are never clean.
        over_erased = rho > self.nsym
        clean = ~syndromes.any(axis=1) & ~over_erased
        fail = np.where(over_erased, batch_decode.OVER_ERASED, batch_decode.OK)
        codewords = rec.copy()
        corrected = np.zeros(B, dtype=bool)
        num_errors = np.zeros(B, dtype=np.int64)
        num_roots = np.zeros(B, dtype=np.int64)
        zero_position = np.zeros(B, dtype=np.int64)
        dirty = np.flatnonzero(~clean & ~over_erased)
        if dirty.size:
            # A slice when every word is dirty: views instead of copies.
            rows = slice(None) if dirty.size == B else dirty
            width = int(rho[rows].max())
            out = self._decoder.decode(
                rec[rows], syndromes[rows], rho[rows], erasures[rows, :width]
            )
            row, pos, magnitude = out.errata
            codewords[dirty[row], pos] ^= magnitude
            corrected[dirty[row]] = True
            num_errors[rows] = out.num_errors
            fail[rows] = out.fail
            num_roots[rows] = out.num_roots
            zero_position[rows] = out.zero_position

        report = BatchDecodeReport(
            received=rec,
            clean=clean,
            codewords=codewords,
            corrected=corrected,
            num_errors=num_errors,
            num_erasures=rho,
            fail=fail,
            num_roots=num_roots,
            zero_position=zero_position,
            nsym=self.nsym,
        )
        if counters is not None:
            counters.words_decoded += B
            counters.clean_fast_path += int(clean.sum())
            counters.dirty_words_decoded += B - int(clean.sum())
            counters.decode_failures += report.num_failures
        return report

    # -- single-word passthrough --------------------------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Encode one data word via the shared scalar codec."""
        return self.scalar.encode(data)

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> DecodeResult:
        """Full errors-and-erasures decode of one word.

        Single words go to the scalar decoder, the oracle the batch
        decoder is checked against.
        """
        return self.scalar.decode(received, erasure_positions=erasure_positions)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, m={self.m}, "
            f"fcr={self.fcr})"
        )
