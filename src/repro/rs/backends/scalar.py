"""The ``scalar`` engine: pure-python kernels behind the batch contract.

:class:`ScalarRSCodec` wraps the existing pure-python codec
(:class:`~repro.rs.codec.RSCode` and :func:`~repro.rs.syndromes.compute_syndromes`)
in the shared :class:`~repro.rs.batch.BatchRSCodec` harness: validation,
clean-word fast path, errata decoder, counters and report objects are
all inherited — only the two kernel hooks run per-row python loops
instead of vectorized numpy.

This is the slowest engine by far, but it is *registered* like the
others for three reasons: it is the always-available floor of the
capability matrix, it gives the conformance suite a reference
implementation behind the exact same interface, and it proves the
engine axis is a pure execution hint — a campaign run with
``--engine scalar`` is bit-identical to ``numpy`` and ``compiled``.
"""

from __future__ import annotations

import numpy as np

from ..batch import BatchRSCodec
from ..syndromes import compute_syndromes


class ScalarRSCodec(BatchRSCodec):
    """Batch-contract codec whose kernels loop the pure-python codec."""

    backend_name = "scalar"

    def _parity_kernel(self, data: np.ndarray) -> np.ndarray:
        rows = [
            self.scalar.encode(row)[: self.nsym] for row in data.tolist()
        ]
        return np.asarray(rows, dtype=np.int64).reshape(-1, self.nsym)

    def _syndromes_kernel(self, rec: np.ndarray) -> np.ndarray:
        rows = [
            compute_syndromes(self.scalar.gf, row, self.nsym, self.fcr)
            for row in rec.tolist()
        ]
        return np.asarray(rows, dtype=np.int64).reshape(-1, self.nsym)
