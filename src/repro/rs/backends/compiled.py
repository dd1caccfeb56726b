"""The ``compiled`` engine: numba-jitted bit-sliced GF(2^m) kernels.

:class:`CompiledRSCodec` keeps the shared batch harness (validation,
clean fast path, errata decoder — see :class:`~repro.rs.batch.BatchRSCodec`)
and replaces both kernel hooks with the bit-sliced forms of
:mod:`repro.rs.backends.kernels`, driven by per-field plane tables from
:mod:`repro.rs.backends.gf_tables`.

Capability is probed, never assumed:

* ``kernels="numba"`` (the registry's default) raises
  :class:`BackendUnavailableError` at *construction* when numba is
  missing, carrying the probe's reason string — selection failures are
  loud and happen before any work is dispatched;
* ``kernels="python"`` runs the same bit-sliced algorithm as vectorized
  numpy (for conformance tests and CI matrices without numba);
* ``kernels="any"`` prefers numba, falls back to the python forms —
  used by the ``rs-compiled-*`` differential-fuzz targets so the
  compiled algorithm is fuzzed nightly even where numba is absent.

Whatever the mode, results are bit-identical to the numpy and scalar
engines: the kernels compute exact field arithmetic and all dirty-word
decoding goes through the one shared vectorized decoder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...perf import PerfCounters
from ..batch import BatchRSCodec
from ..codec import RSCode
from . import errors
from .gf_tables import mul_planes
from .kernels import encode_kernel, kernel_mode, numba_status, syndromes_kernel

BackendUnavailableError = errors.BackendUnavailableError


class CompiledRSCodec(BatchRSCodec):
    """Batch-contract codec with bit-sliced (optionally jitted) kernels."""

    backend_name = "compiled"

    def __init__(
        self,
        n: int,
        k: int,
        m: int = 8,
        fcr: int = 1,
        scalar: Optional[RSCode] = None,
        counters: Optional[PerfCounters] = None,
        kernels: str = "numba",
    ):
        super().__init__(
            n,
            k,
            m=m,
            fcr=fcr,
            scalar=scalar,
            counters=counters,
        )
        if kernels not in ("numba", "python", "any"):
            raise ValueError(
                f"kernels must be 'numba', 'python' or 'any', got {kernels!r}"
            )
        mode, detail = kernel_mode()
        if kernels == "numba":
            available, reason = numba_status()
            if not available:
                raise BackendUnavailableError("compiled", reason)
            self.kernel_impl = "numba"
        elif kernels == "python":
            self.kernel_impl = "python"
        else:  # "any": prefer jitted, fall back to the numpy forms
            self.kernel_impl = "numba" if numba_status()[0] else "python"
        del mode, detail
        prim = self.scalar.gf.prim_poly
        # Codegen per field: bit-sliced planes for the syndrome points
        # and for the generator tail — the only multipliers the hot
        # loops ever see, so every kernel multiply is mask-and-XOR.
        self._synd_planes = mul_planes(self._synd_points, self.m, prim)
        self._gen_planes = mul_planes(self._gen_tail, self.m, prim)

    def _parity_kernel(self, data: np.ndarray) -> np.ndarray:
        return encode_kernel(
            np.ascontiguousarray(data), self._gen_planes, self.kernel_impl
        )

    def _syndromes_kernel(self, rec: np.ndarray) -> np.ndarray:
        return syndromes_kernel(
            np.ascontiguousarray(rec), self._synd_planes, self.kernel_impl
        )
