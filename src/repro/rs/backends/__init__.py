"""RS backend registry: one batch contract, several interchangeable engines.

Every engine implements the same :class:`~repro.rs.batch.BatchRSCodec`
contract — ``encode_batch`` / ``syndromes_batch`` / ``decode_batch``
plus the single-word ``encode`` / ``decode`` passthroughs — and differs
*only* in how the two hot kernels (systematic LFSR parity, Horner
syndromes) are executed:

========  ==================================================================
engine    kernels
========  ==================================================================
scalar    per-row loops over the pure-python codec (always available; the
          reference floor of the capability matrix)
numpy     vectorized table-lookup GF arithmetic (always available; the
          pre-registry default)
compiled  bit-sliced masked-XOR kernels over per-field codegen'd planes,
          numba-jitted; available without numba only when
          ``REPRO_COMPILED_KERNELS=python`` forces the numpy forms
========  ==================================================================

Because all three share the harness (validation, clean-word fast path,
one vectorized errors-and-erasures decoder for dirty words), their
results are bit-identical; the conformance suite and the ``rs-compiled-*``
differential-fuzz targets enforce that continuously.

The engine axis is an **execution hint**, like ``workers``: it never
changes results, so :func:`canonical_engine` collapses it to the
result-relevant families (``batch`` / ``scalar``) for campaign
fingerprints — runs with different engines share cache entries.

Capability is probed, never assumed (:func:`backend_info` carries an
``available`` flag plus the probe's reason string), selection of an
unavailable engine raises :class:`BackendUnavailableError` loudly, and
``auto`` (prefer ``compiled``, fall back to ``numpy``) announces its
fallback with a :class:`~repro.runtime.supervisor.ResilienceWarning`
(once per process) and an ``engine_auto_fallback`` trace event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ...obs import trace
from ...perf import PerfCounters
from ..batch import BatchRSCodec
from ..codec import RSCode
from .errors import BackendUnavailableError
from .kernels import KERNELS_ENV, kernel_mode, numba_status

__all__ = [
    "ENGINE_CHOICES",
    "BATCH_BACKENDS",
    "BackendInfo",
    "BackendUnavailableError",
    "auto_backend",
    "backend_info",
    "canonical_engine",
    "create_backend",
    "list_backends",
    "resolve_engine",
    "KERNELS_ENV",
]

#: Engine names accepted end-to-end (CLI ``--engine``, campaign spec,
#: service jobs).  ``batch`` is the pre-registry alias for ``numpy``;
#: ``reference`` is the legacy one-trial-at-a-time loop (the only
#: engine that is not a batch backend).
ENGINE_CHOICES = ("auto", "compiled", "numpy", "scalar", "batch", "reference")

#: Registered batch backends, slowest first.
BATCH_BACKENDS = ("scalar", "numpy", "compiled")

_DESCRIPTIONS = {
    "scalar": "pure-python kernels behind the batch contract (reference floor)",
    "numpy": "vectorized table-lookup GF arithmetic (default workhorse)",
    "compiled": "numba-jitted bit-sliced GF kernels with per-field codegen",
}


@dataclass(frozen=True)
class BackendInfo:
    """Capability-matrix row for one registered batch backend."""

    name: str
    available: bool
    reason: str
    description: str


def backend_info(name: str) -> BackendInfo:
    """Probe one backend's availability (reason string included)."""
    if name not in BATCH_BACKENDS:
        raise ValueError(
            f"unknown RS backend {name!r}; registered: {BATCH_BACKENDS}"
        )
    if name == "compiled":
        mode, detail = kernel_mode()
        return BackendInfo(
            name="compiled",
            available=mode != "unavailable",
            reason=detail,
            description=_DESCRIPTIONS["compiled"],
        )
    return BackendInfo(
        name=name,
        available=True,
        reason="always available",
        description=_DESCRIPTIONS[name],
    )


def list_backends() -> Tuple[BackendInfo, ...]:
    """The full capability matrix, in registry order."""
    return tuple(backend_info(name) for name in BATCH_BACKENDS)


def create_backend(
    name: str,
    n: int,
    k: int,
    m: int = 8,
    fcr: int = 1,
    scalar: Optional[RSCode] = None,
    counters: Optional[PerfCounters] = None,
) -> BatchRSCodec:
    """Construct a registered batch backend for ``RS(n, k)`` over GF(2^m).

    Raises :class:`BackendUnavailableError` (reason string attached) when
    the backend cannot run here — selection is loud, never a silent
    substitution.
    """
    if name in ("numpy", "batch"):
        return BatchRSCodec(
            n, k, m=m, fcr=fcr,
            scalar=scalar, counters=counters,
        )
    if name == "scalar":
        from .scalar import ScalarRSCodec

        return ScalarRSCodec(
            n, k, m=m, fcr=fcr,
            scalar=scalar, counters=counters,
        )
    if name == "compiled":
        mode, detail = kernel_mode()
        if mode == "unavailable":
            raise BackendUnavailableError("compiled", detail)
        from .compiled import CompiledRSCodec

        return CompiledRSCodec(
            n, k, m=m, fcr=fcr,
            scalar=scalar, counters=counters, kernels=mode,
        )
    raise ValueError(
        f"unknown RS backend {name!r}; registered: {BATCH_BACKENDS}"
    )


#: Once-per-process latch for the ``auto`` fallback warning (tests reset
#: it via monkeypatch to assert the warning fires).
_auto_fallback_warned = False


def auto_backend() -> str:
    """Resolve ``auto``: fastest available backend (compiled, else numpy).

    The fallback is announced — a ResilienceWarning once per process and
    an ``engine_auto_fallback`` trace event per resolution — because a
    quietly slower campaign is exactly the failure mode the registry
    exists to prevent.
    """
    global _auto_fallback_warned
    info = backend_info("compiled")
    if info.available:
        return "compiled"
    trace.event(
        "engine_auto_fallback",
        requested="auto",
        selected="numpy",
        reason=info.reason,
    )
    if not _auto_fallback_warned:
        _auto_fallback_warned = True
        import warnings

        from ...runtime.supervisor import ResilienceWarning

        warnings.warn(
            "--engine auto: compiled backend unavailable "
            f"({info.reason}); falling back to numpy. Results are "
            "identical; only throughput differs.",
            ResilienceWarning,
            stacklevel=2,
        )
    return "numpy"


def resolve_engine(engine: str) -> Tuple[str, Optional[str]]:
    """Map an engine name to ``(family, backend)``.

    ``family`` selects the execution path — ``"batch"`` (chunked
    vectorized Monte-Carlo) or ``"reference"`` (the legacy
    one-trial-at-a-time loop, kept for validation) — and ``backend`` is
    the registered batch backend to instantiate (``None`` for the
    reference family).

    Raises :class:`BackendUnavailableError` for ``--engine compiled``
    when the environment cannot run it, and :class:`ValueError` for
    unknown names.
    """
    if engine == "reference":
        return "reference", None
    if engine == "auto":
        return "batch", auto_backend()
    if engine in ("numpy", "batch"):
        return "batch", "numpy"
    if engine == "scalar":
        return "batch", "scalar"
    if engine == "compiled":
        info = backend_info("compiled")
        if not info.available:
            raise BackendUnavailableError("compiled", info.reason)
        return "batch", "compiled"
    raise ValueError(
        f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
    )


def canonical_engine(engine: str) -> str:
    """Collapse an engine name to its result-relevant family.

    Campaign fingerprints record *what* was computed, not *how fast*:
    every batch backend produces bit-identical statistics (same chunking,
    same per-chunk RNG streams), so all of them — and ``auto`` — map to
    ``"batch"``.  The legacy ``reference`` loop draws a different RNG
    stream shape and keeps its historical fingerprint value
    ``"scalar"``, so pre-registry journals and cache entries stay valid.
    """
    if engine == "reference":
        return "scalar"
    if engine in ("auto", "compiled", "numpy", "scalar", "batch"):
        return "batch"
    raise ValueError(
        f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
    )
