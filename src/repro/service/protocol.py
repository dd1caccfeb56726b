"""Wire protocol of the campaign service: specs, jobs, result payloads.

A *campaign spec* is the JSON document a client submits: which cells to
run (explicitly, or via a named scenario preset), the code geometry and
horizon, the trial budget and seed, the engine/executor, and an optional
adaptive-stopping rule.  :func:`parse_spec` validates it into a
:class:`CampaignSpec` whose identity is the canonical campaign
fingerprint of :func:`repro.simulator.campaign.campaign_fingerprint` —
*the same* canonicalization that binds checkpoint journals, so the
service's cache key, the journal header, and the manifest all agree on
what "the same campaign" means.

Execution hints (``workers``, ``executor``, ``tenant``) are deliberately
outside the fingerprint: by the runtime's determinism contract they
cannot change the estimate, so they must not fragment the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime.executors import EXECUTOR_NAMES
from ..simulator.campaign import (
    CampaignCell,
    campaign_fingerprint,
    canonical_engine,
    fingerprint_digest,
)
from ..simulator.patterns import parse_pattern, parse_schedule
from ..simulator.scenarios import get_scenario
from ..stats import INTERVAL_METHODS, StoppingRule

#: Job lifecycle.  ``queued -> running -> done | failed``; a server
#: restart reverts ``running`` to ``queued`` (the run died with the
#: process; its chunk journal makes the re-run a resume).
JOB_STATES = ("queued", "running", "done", "failed")

#: Upper bounds a public endpoint must enforce before touching the
#: runtime: a spec is untrusted input, not an operator's CLI flags.
MAX_CELLS = 256
MAX_TRIALS = 50_000_000
MAX_TENANT_LENGTH = 64

DEFAULT_TENANT = "default"


class SpecError(ValueError):
    """Malformed or out-of-bounds campaign spec (HTTP 400, CLI exit 2)."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, runnable campaign request.

    ``cells`` through ``stop`` are the fingerprinted identity;
    ``workers``/``executor`` are execution hints and ``scenario`` is
    provenance only (a preset submitted by name and the same cells
    submitted explicitly are the same campaign).  ``engine`` enters the
    fingerprint as :func:`~repro.simulator.campaign.canonical_engine`
    maps it, so ``batch`` and ``numpy`` jobs share one cache entry.
    """

    cells: Tuple[CampaignCell, ...]
    n: int = 18
    k: int = 16
    m: int = 8
    t_end_hours: float = 48.0
    trials: int = 300
    seed: int = 2005
    engine: str = "batch"
    chunk_size: int = 512
    stop: Optional[StoppingRule] = None
    workers: int = 1
    executor: Optional[str] = None
    scenario: Optional[str] = None

    def fingerprint(self) -> Dict[str, Any]:
        return campaign_fingerprint(
            self.cells,
            self.n,
            self.k,
            self.m,
            self.t_end_hours,
            self.trials,
            self.seed,
            self.engine,
            self.chunk_size,
            stop=self.stop,
        )

    def digest(self) -> str:
        return fingerprint_digest(self.fingerprint())

    def as_dict(self) -> Dict[str, Any]:
        """JSON round-trip form persisted in the job queue journal."""
        return {
            "cells": [
                {
                    "arrangement": cell.arrangement,
                    "seu_per_bit_day": cell.seu_per_bit_day,
                    "erasure_per_symbol_day": cell.erasure_per_symbol_day,
                    "scrub_period_seconds": cell.scrub_period_seconds,
                    "pattern": cell.pattern,
                    "schedule": cell.schedule,
                }
                for cell in self.cells
            ],
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "t_end_hours": self.t_end_hours,
            "trials": self.trials,
            "seed": self.seed,
            "engine": self.engine,
            "chunk_size": self.chunk_size,
            "stopping": None
            if self.stop is None
            else {
                "rel_ci": self.stop.rel_ci,
                "min_trials": self.stop.min_trials,
                "method": self.stop.method,
                "confidence": self.stop.confidence,
            },
            "workers": self.workers,
            "executor": self.executor,
            "scenario": self.scenario,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _as_int(payload: Dict[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key!r} must be an integer, got {value!r}",
    )
    return value


def _as_number(payload: Dict[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key!r} must be a number, got {value!r}",
    )
    return float(value)


def _parse_cell(raw: Any, index: int) -> CampaignCell:
    _require(
        isinstance(raw, dict), f"cells[{index}] must be an object, got {raw!r}"
    )
    unknown = set(raw) - {
        "arrangement",
        "seu_per_bit_day",
        "erasure_per_symbol_day",
        "scrub_period_seconds",
        "pattern",
        "schedule",
    }
    _require(not unknown, f"cells[{index}]: unknown field(s) {sorted(unknown)}")
    arrangement = raw.get("arrangement")
    _require(
        arrangement in ("simplex", "duplex"),
        f"cells[{index}].arrangement must be 'simplex' or 'duplex', "
        f"got {arrangement!r}",
    )
    seu = _as_number(raw, "seu_per_bit_day", 0.0)
    perm = _as_number(raw, "erasure_per_symbol_day", 0.0)
    _require(seu >= 0.0, f"cells[{index}].seu_per_bit_day must be >= 0")
    _require(perm >= 0.0, f"cells[{index}].erasure_per_symbol_day must be >= 0")
    tsc = raw.get("scrub_period_seconds")
    if tsc is not None:
        _require(
            isinstance(tsc, (int, float)) and not isinstance(tsc, bool)
            and tsc >= 0.0,
            f"cells[{index}].scrub_period_seconds must be a number >= 0 "
            "or null",
        )
        tsc = float(tsc)
    pattern = raw.get("pattern")
    schedule = raw.get("schedule")
    try:
        if pattern is not None:
            _require(isinstance(pattern, str), "pattern must be a string")
            parse_pattern(pattern)
        if schedule is not None:
            _require(isinstance(schedule, str), "schedule must be a string")
        parse_schedule(schedule)
    except ValueError as exc:
        raise SpecError(f"cells[{index}]: {exc}") from None
    return CampaignCell(
        arrangement=arrangement,
        seu_per_bit_day=seu,
        erasure_per_symbol_day=perm,
        scrub_period_seconds=tsc,
        pattern=pattern,
        schedule=schedule,
    )


def _parse_stopping(raw: Any) -> Optional[StoppingRule]:
    if raw is None:
        return None
    _require(
        isinstance(raw, dict),
        f"'stopping' must be an object or null, got {raw!r}",
    )
    unknown = set(raw) - {"rel_ci", "min_trials", "method", "confidence"}
    _require(not unknown, f"stopping: unknown field(s) {sorted(unknown)}")
    _require("rel_ci" in raw, "stopping.rel_ci is required")
    rel_ci = raw["rel_ci"]
    _require(
        isinstance(rel_ci, (int, float)) and not isinstance(rel_ci, bool),
        "stopping.rel_ci must be a number",
    )
    min_trials = _as_int(raw, "min_trials", 0)
    method = raw.get("method", "wilson")
    _require(
        method in INTERVAL_METHODS,
        f"stopping.method must be one of {INTERVAL_METHODS}, got {method!r}",
    )
    confidence = _as_number(raw, "confidence", 0.95)
    _require(
        0.0 < confidence < 1.0, "stopping.confidence must be in (0, 1)"
    )
    try:
        return StoppingRule(
            rel_ci=float(rel_ci),
            min_trials=min_trials,
            method=method,
            confidence=confidence,
        )
    except ValueError as exc:
        raise SpecError(f"stopping: {exc}") from None


def parse_spec(payload: Any) -> Tuple[str, CampaignSpec]:
    """Validate a submitted JSON document into ``(tenant, CampaignSpec)``.

    Every constraint the CLI enforces with exit code 2 is enforced here
    with :class:`SpecError` (the HTTP layer maps it to 400): the service
    must never hand the runtime a configuration the CLI would have
    refused.  A ``scenario`` name expands to the preset's cells and
    pinned defaults, overridable by explicit ``trials``/``seed``.
    """
    _require(
        isinstance(payload, dict),
        f"spec must be a JSON object, got {type(payload).__name__}",
    )
    unknown = set(payload) - {
        "cells",
        "scenario",
        "n",
        "k",
        "m",
        "t_end_hours",
        "trials",
        "seed",
        "engine",
        "chunk_size",
        "stopping",
        "workers",
        "executor",
        "tenant",
    }
    _require(not unknown, f"unknown field(s): {sorted(unknown)}")

    tenant = payload.get("tenant", DEFAULT_TENANT)
    _require(
        isinstance(tenant, str)
        and 0 < len(tenant) <= MAX_TENANT_LENGTH
        and all(c.isalnum() or c in "-_." for c in tenant),
        "tenant must be a short name of [alnum - _ .] characters",
    )

    scenario_name = payload.get("scenario")
    scenario = None
    if scenario_name is not None:
        _require(
            isinstance(scenario_name, str), "'scenario' must be a string"
        )
        _require(
            "cells" not in payload,
            "'scenario' and explicit 'cells' are exclusive",
        )
        try:
            scenario = get_scenario(scenario_name)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        cells: List[CampaignCell] = list(scenario.cells)
        defaults = {
            "n": scenario.n,
            "k": scenario.k,
            "m": scenario.m,
            "t_end_hours": scenario.t_end_hours,
            "trials": scenario.trials,
            "seed": scenario.seed,
        }
    else:
        raw_cells = payload.get("cells")
        _require(
            isinstance(raw_cells, list) and raw_cells,
            "spec needs a non-empty 'cells' list or a 'scenario' name",
        )
        _require(
            len(raw_cells) <= MAX_CELLS,
            f"too many cells ({len(raw_cells)} > {MAX_CELLS})",
        )
        cells = [_parse_cell(raw, i) for i, raw in enumerate(raw_cells)]
        defaults = {
            "n": 18,
            "k": 16,
            "m": 8,
            "t_end_hours": 48.0,
            "trials": 300,
            "seed": 2005,
        }

    n = _as_int(payload, "n", defaults["n"])
    k = _as_int(payload, "k", defaults["k"])
    m = _as_int(payload, "m", defaults["m"])
    _require(1 <= m <= 16, f"m must be in [1, 16], got {m}")
    _require(0 < k < n, f"need 0 < k < n, got n={n} k={k}")
    _require(
        n <= (1 << m) - 1,
        f"n must fit the field: n <= 2^m - 1 = {(1 << m) - 1}, got {n}",
    )
    t_end_hours = _as_number(payload, "t_end_hours", defaults["t_end_hours"])
    _require(t_end_hours > 0.0, f"t_end_hours must be > 0, got {t_end_hours}")
    trials = _as_int(payload, "trials", defaults["trials"])
    _require(
        0 < trials <= MAX_TRIALS,
        f"trials must be in [1, {MAX_TRIALS}], got {trials}",
    )
    seed = _as_int(payload, "seed", defaults["seed"])
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    engine = payload.get("engine", "batch")
    try:
        batch = canonical_engine(engine) == "batch"
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    chunk_size = _as_int(payload, "chunk_size", 512)
    _require(chunk_size > 0, f"chunk_size must be positive, got {chunk_size}")
    stop = _parse_stopping(payload.get("stopping"))
    _require(
        stop is None or batch,
        "adaptive stopping requires the batch engine",
    )
    workers = _as_int(payload, "workers", 1)
    _require(1 <= workers <= 64, f"workers must be in [1, 64], got {workers}")
    executor = payload.get("executor")
    _require(
        executor is None or executor in EXECUTOR_NAMES,
        f"executor must be one of {EXECUTOR_NAMES} or null, "
        f"got {executor!r}",
    )
    _require(
        executor is None or batch,
        "an explicit executor requires the batch engine",
    )
    return tenant, CampaignSpec(
        cells=tuple(cells),
        n=n,
        k=k,
        m=m,
        t_end_hours=t_end_hours,
        trials=trials,
        seed=seed,
        engine=engine,
        chunk_size=chunk_size,
        stop=stop,
        workers=workers,
        executor=executor,
        scenario=scenario_name,
    )


@dataclass
class Job:
    """One submitted campaign and its lifecycle state."""

    id: str
    tenant: str
    spec: CampaignSpec
    digest: str
    state: str = "queued"
    #: True when the terminal result was served from the cache without
    #: running a single trial.
    cached: bool = False
    error: Optional[str] = None
    #: Content address of the result entry (equals ``digest`` once done).
    result_digest: Optional[str] = None
    #: Incremental BER snapshots (``BerSnapshot.as_dict`` plus cell
    #: attribution), appended as chunks land — the NDJSON stream source.
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-job trace records (when the job held the trace slot).
    trace_records: Optional[List[Dict[str, Any]]] = None
    #: Engine the run used, ``batch`` or ``reference``, set when it
    #: starts; ``numpy`` specs report ``batch``.
    engine_resolved: Optional[str] = None
    #: Per-chunk decode-kernel telemetry
    #: (``{"cell", "chunk", "kernel_seconds"}`` rows from the chunk
    #: journal), filled when the run completes.
    kernel_seconds: List[Dict[str, Any]] = field(default_factory=list)

    def status_dict(self) -> Dict[str, Any]:
        """The poll-endpoint view of this job."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "fingerprint_digest": self.digest,
            "cached": self.cached,
            "error": self.error,
            "result_digest": self.result_digest,
            "snapshots": len(self.snapshots),
            "scenario": self.spec.scenario,
            "trials": self.spec.trials,
            "cells": len(self.spec.cells),
            "engine": self.spec.engine,
            "engine_resolved": self.engine_resolved,
            "kernel_seconds": list(self.kernel_seconds),
        }


def rows_payload(rows: Sequence) -> List[Dict[str, Any]]:
    """Serialize campaign rows exactly like the run manifest does.

    One serialization for manifests and cached results keeps the
    acceptance invariant checkable bytewise: a cache hit returns the
    same JSON a fresh run would have produced.
    """
    out: List[Dict[str, Any]] = []
    for row in rows:
        est = row.estimate
        out.append(
            {
                "cell": row.cell.label(),
                "pattern": row.cell.pattern,
                "schedule": row.cell.schedule,
                "model_fail_probability": row.model_fail_probability,
                "probability": est.probability,
                "failures": est.failures,
                "trials": est.trials,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "outcome_counts": est.outcome_counts,
                "silent_miscorrections": est.silent_miscorrections,
                "detected_uncorrectable": est.detected_uncorrectable,
                "stopped_early": est.stopped_early,
                "consistent": row.consistent,
            }
        )
    return out
