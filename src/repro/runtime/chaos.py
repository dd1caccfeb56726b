"""Deterministic chaos injection for the chunked Monte-Carlo engine.

The resilience layer (:mod:`repro.runtime.supervisor`) claims to survive
worker crashes, hangs, and poisoned batch chunks.  This module makes
those fault classes *injectable on purpose*, keyed by chunk index and
attempt number, so the claims are provable under test and from the CLI
(``repro campaign --chaos ...``) without any nondeterministic flakiness.

A :class:`ChaosSpec` is parsed from a compact string grammar::

    spec    := clause (';' clause)*
    clause  := kind '@' targets [':' param]
    kind    := 'crash' | 'hang' | 'poison' | 'slow'
    targets := '*' | index (',' index)*

* ``crash@i[:a]``  — the worker process executing chunk ``i`` dies with
  ``os._exit`` on its first ``a`` attempts (default 1, so the first
  retry succeeds).  In the serial (in-process) path a crash cannot kill
  the interpreter, so it degrades to raising :class:`ChaosCrashError`,
  which exercises the same retry machinery.
* ``hang@i[:s]``   — the worker sleeps ``s`` seconds (default 3600) on
  chunk ``i``'s first attempt, simulating a livelocked worker; the
  supervisor's per-chunk timeout must fire.  Serially this raises
  :class:`ChaosHangError` instead (a blocking sleep in the parent could
  never be supervised).
* ``poison@i[:a]`` — the batch executor raises :class:`ChaosPoisonError`
  for chunk ``i`` on every attempt (``a = -1``, the default), so the
  chunk exhausts its retries and the supervisor fails loud with
  :class:`~repro.runtime.supervisor.ChunkFailedError` (a finite budget
  ``a`` below the retry limit is retried to the undisturbed result).
* ``slow@i[:s]``   — benign: sleep ``s`` seconds (default 0.1) before
  computing chunk ``i``.  Widens race windows for interrupt tests
  without changing any result.

Three further kinds target the *checkpoint journal* rather than the
chunk executor (handled inside
:class:`~repro.runtime.checkpoint.CheckpointJournal`; their indices
count journal chunk-appends, in append order across cells):

* ``bitrot@i[:m]``     — after durably appending record ``i``, flip the
  byte in the middle of its line with XOR mask ``m`` (default 1).  The
  next load must quarantine exactly that record and recompute it.
* ``torn@i[:f]``       — write only the first fraction ``f`` (default
  0.5) of record ``i``'s line, with no newline: a power cut mid-append.
  ``torn-write`` is accepted as an alias.
* ``enospc@i[:n]``     — the journal raises ``ENOSPC`` starting at
  append ``i`` for ``n`` appends (default -1 = forever, a full disk).
  The campaign must degrade to memory-only and exit with the
  resumable-state-lost code.

``*`` targets every chunk.  Chaos only perturbs *scheduling, worker
health, and journal durability*, never the RNG streams, so any run that
completes under chaos (via retries or recomputed chunks) is
bit-identical to an undisturbed run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Pseudo-index meaning "every chunk" in the per-kind target maps.
WILDCARD = -1

#: Exit status used by injected worker crashes (recognizable in logs).
CHAOS_EXIT_CODE = 86


class ChaosError(RuntimeError):
    """Base class for injected faults."""


class ChaosCrashError(ChaosError):
    """Serial-mode stand-in for a worker process crash."""


class ChaosHangError(ChaosError):
    """Serial-mode stand-in for a hung worker."""


class ChaosPoisonError(ChaosError):
    """A deterministically poisoned batch chunk (persistent failure)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Per-chunk fault injection plan (picklable, crosses process lines).

    Each mapping goes ``chunk index -> parameter``; :data:`WILDCARD`
    applies to all chunks.  ``crash``/``poison`` parameters are *attempt
    budgets*: the fault fires while ``attempt < budget`` (``-1`` means
    every attempt).  ``hang``/``slow`` parameters are seconds.
    """

    crash: Dict[int, int] = field(default_factory=dict)
    hang: Dict[int, float] = field(default_factory=dict)
    poison: Dict[int, int] = field(default_factory=dict)
    slow: Dict[int, float] = field(default_factory=dict)
    # Journal-fault tables (append index -> parameter); consumed by
    # CheckpointJournal, not by before_chunk.
    bitrot: Dict[int, int] = field(default_factory=dict)
    torn: Dict[int, float] = field(default_factory=dict)
    enospc: Dict[int, int] = field(default_factory=dict)

    def _lookup(self, table, chunk_index):
        if chunk_index in table:
            return table[chunk_index]
        return table.get(WILDCARD)

    def crash_attempts(self, chunk_index: int) -> int:
        budget = self._lookup(self.crash, chunk_index)
        return 0 if budget is None else budget

    def hang_seconds(self, chunk_index: int, attempt: int) -> float:
        if attempt > 0:  # hangs are first-attempt faults
            return 0.0
        seconds = self._lookup(self.hang, chunk_index)
        return 0.0 if seconds is None else seconds

    def poison_attempts(self, chunk_index: int) -> int:
        budget = self._lookup(self.poison, chunk_index)
        return 0 if budget is None else budget

    def slow_seconds(self, chunk_index: int) -> float:
        seconds = self._lookup(self.slow, chunk_index)
        return 0.0 if seconds is None else seconds

    # -- journal faults (consumed by CheckpointJournal._append) ------------

    def bitrot_mask(self, append_index: int) -> int:
        """XOR mask to apply to journal append ``append_index`` (0 = none)."""
        mask = self._lookup(self.bitrot, append_index)
        return 0 if mask is None else int(mask) & 0xFF

    def torn_fraction(self, append_index: int) -> float:
        """Fraction of the line to persist for a torn append (0 = whole)."""
        fraction = self._lookup(self.torn, append_index)
        return 0.0 if fraction is None else float(fraction)

    def enospc_fires(self, append_index: int) -> bool:
        """True when journal append ``append_index`` must fail with ENOSPC.

        An entry ``(start, n)`` fires for ``n`` consecutive appends from
        ``start`` (``n = -1``: forever — the disk stays full).
        """
        for start, budget in self.enospc.items():
            if start == WILDCARD:
                return True
            if append_index >= start and (
                budget < 0 or append_index < start + budget
            ):
                return True
        return False

    # -- injection ---------------------------------------------------------

    def before_chunk(self, chunk_index: int, attempt: int) -> None:
        """Fire any faults scheduled for this ``(chunk, attempt)``.

        Called by the worker entry point immediately before the real
        chunk executor.  Crash/hang behaviour depends on whether we are
        inside a spawned worker (real death / real sleep) or the parent
        process (typed exceptions the supervisor treats identically).
        """
        import multiprocessing

        in_worker = multiprocessing.parent_process() is not None

        delay = self.slow_seconds(chunk_index)
        if delay > 0:
            time.sleep(delay)

        budget = self.crash_attempts(chunk_index)
        if budget < 0 or attempt < budget:
            if budget:
                if in_worker:
                    os._exit(CHAOS_EXIT_CODE)
                raise ChaosCrashError(
                    f"injected crash: chunk {chunk_index} attempt {attempt}"
                )

        seconds = self.hang_seconds(chunk_index, attempt)
        if seconds > 0:
            if in_worker:
                time.sleep(seconds)
            else:
                raise ChaosHangError(
                    f"injected hang: chunk {chunk_index} attempt {attempt}"
                )

        budget = self.poison_attempts(chunk_index)
        if budget < 0 or attempt < budget:
            if budget:
                raise ChaosPoisonError(
                    f"injected poison: chunk {chunk_index} attempt {attempt}"
                )

    @property
    def is_empty(self) -> bool:
        return not (
            self.crash
            or self.hang
            or self.poison
            or self.slow
            or self.bitrot
            or self.torn
            or self.enospc
        )


_DEFAULT_PARAMS = {
    "crash": 1,
    "hang": 3600.0,
    "poison": -1,
    "slow": 0.1,
    "bitrot": 1,
    "torn": 0.5,
    "enospc": -1,
}

#: Spelling aliases accepted by the ``--chaos`` grammar.
_KIND_ALIASES = {
    "torn-write": "torn",
}


def parse_chaos_spec(text: str) -> ChaosSpec:
    """Parse the ``--chaos`` CLI grammar into a :class:`ChaosSpec`.

    >>> spec = parse_chaos_spec("crash@0;poison@2;slow@*:0.05")
    >>> spec.crash_attempts(0), spec.poison_attempts(2)
    (1, -1)
    """
    tables: Dict[str, Dict[int, float]] = {
        "crash": {},
        "hang": {},
        "poison": {},
        "slow": {},
        "bitrot": {},
        "torn": {},
        "enospc": {},
    }
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if "@" not in clause:
            raise ValueError(
                f"bad chaos clause {clause!r}: expected kind@targets[:param]"
            )
        kind, _, rest = clause.partition("@")
        kind = _KIND_ALIASES.get(kind.strip(), kind.strip())
        if kind not in tables:
            raise ValueError(
                f"unknown chaos kind {kind!r}: expected crash, hang, "
                "poison, slow, bitrot, torn(-write), or enospc"
            )
        targets, sep, param_text = rest.partition(":")
        if sep:
            try:
                param = float(param_text)
            except ValueError:
                raise ValueError(
                    f"bad chaos parameter {param_text!r} in {clause!r}"
                ) from None
        else:
            param = _DEFAULT_PARAMS[kind]
        if kind in ("crash", "poison", "bitrot", "enospc"):
            param = int(param)
        for target in targets.split(","):
            target = target.strip()
            if target == "*":
                index = WILDCARD
            else:
                try:
                    index = int(target)
                except ValueError:
                    raise ValueError(
                        f"bad chaos target {target!r} in {clause!r}"
                    ) from None
                if index < 0:
                    raise ValueError(
                        f"chaos chunk index must be >= 0, got {index}"
                    )
            tables[kind][index] = param
    return ChaosSpec(
        crash={k: int(v) for k, v in tables["crash"].items()},
        hang=dict(tables["hang"]),
        poison={k: int(v) for k, v in tables["poison"].items()},
        slow=dict(tables["slow"]),
        bitrot={k: int(v) for k, v in tables["bitrot"].items()},
        torn=dict(tables["torn"]),
        enospc={k: int(v) for k, v in tables["enospc"].items()},
    )


def chaos_from_arg(text: Optional[str]) -> Optional[ChaosSpec]:
    """CLI helper: ``None``/empty stays ``None``, else parse."""
    if not text:
        return None
    spec = parse_chaos_spec(text)
    return None if spec.is_empty else spec
