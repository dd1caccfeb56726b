"""Fault-injection campaign orchestration.

A *campaign* runs the codec-level Monte-Carlo estimator over a matrix of
configurations (arrangement x fault environment) with deterministic
per-cell seeding, collecting the estimates alongside the corresponding
Markov-model predictions.  This is the repeatable bulk-validation entry
point — ``benchmarks/bench_xval_montecarlo.py`` is one hand-rolled cell
of what this module automates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..memory import duplex_model, simplex_model
from ..memory.duplex import DuplexMarkovModel
from ..memory.mission import MissionProfile
from ..memory.rates import FaultRates
from ..memory.simplex import SimplexMarkovModel
from ..obs import trace
from ..perf import PerfCounters
from ..rs import RSCode
from ..runtime import RuntimeConfig
from .montecarlo import FailureEstimate, simulate_fail_probability_batched
from .patterns import MAX_SCHEDULE_LEGS  # noqa: F401  (re-exported)
from .patterns import check_schedule_legs, parse_pattern, parse_schedule


#: Engine names :func:`run_campaign` accepts.  There is one engine: it
#: runs trials in vectorized seed blocks through
#: :class:`~repro.rs.batch.BatchRSCodec`.  ``numpy`` is another name for
#: it, which the end-to-end benchmark's workloads pass.
ENGINES = ("batch", "numpy")


@dataclass(frozen=True)
class CampaignCell:
    """One configuration of the campaign matrix.

    ``pattern``/``schedule`` are canonical spec strings of
    :mod:`repro.simulator.patterns` (kept textual so cells stay plain
    JSON in fingerprints and manifests); ``None`` means the paper's
    i.i.d. constant-rate model.
    """

    arrangement: str
    seu_per_bit_day: float
    erasure_per_symbol_day: float
    scrub_period_seconds: Optional[float] = None
    pattern: Optional[str] = None
    schedule: Optional[str] = None

    def label(self) -> str:
        """Unambiguous cell label for journals, manifests, and summaries.

        Every field is always rendered (a zero rate is a real
        configuration, distinct from a different-rate cell), and a
        configured-but-zero scrub period (``tsc=0``) is distinguished
        from "no scrubbing" (``scrub_period_seconds=None``), which omits
        the field.  Truthiness tests here previously collapsed those
        cases into identical labels.
        """
        parts = [
            self.arrangement,
            f"seu={self.seu_per_bit_day:g}",
            f"perm={self.erasure_per_symbol_day:g}",
        ]
        if self.scrub_period_seconds is not None:
            parts.append(f"tsc={self.scrub_period_seconds:g}s")
        if self.pattern is not None:
            parts.append(f"pat={self.pattern}")
        if self.schedule is not None:
            parts.append(f"sched={self.schedule}")
        return " ".join(parts)


@dataclass(frozen=True)
class CampaignRow:
    """Result of one cell: model prediction next to the MC estimate.

    ``model_fail_probability`` is ``None`` for out-of-model cells —
    correlated patterns the paper's i.i.d. chains cannot predict.  Such
    cells degrade gracefully: the campaign still runs them, reports
    their robustness counters, and marks them consistent-by-default
    (there is no model claim to falsify).
    """

    cell: CampaignCell
    model_fail_probability: Optional[float]
    estimate: FailureEstimate

    @property
    def consistent(self) -> bool:
        """Model inside a 99.9% Wilson interval (simplex) or conservative
        upper bound respected (duplex, either-word rule).

        The wide interval keeps the per-cell false-alarm rate negligible
        even for quick low-trial campaigns; serious validation should
        raise ``trials`` rather than trust narrow intervals.  Cells with
        no model prediction are vacuously consistent.
        """
        from .montecarlo import wilson_interval

        if self.model_fail_probability is None:
            return True
        if self.cell.arrangement == "simplex":
            low, high = wilson_interval(
                self.estimate.failures, self.estimate.trials, z=3.29
            )
            return low <= self.model_fail_probability <= high
        low, high = wilson_interval(
            self.estimate.failures, self.estimate.trials, z=3.29
        )
        return low <= self.model_fail_probability or (
            self.estimate.probability <= self.model_fail_probability
        )


def cell_model_probability(
    cell: CampaignCell,
    n: int,
    k: int,
    m: int,
    t_end_hours: float,
) -> Optional[float]:
    """Analytic ``P_Fail(t_end)`` for one cell, or ``None`` if out of model.

    Three regimes:

    * no pattern/schedule — the paper's constant-rate chain;
    * i.i.d.-reducible pattern (see
      :attr:`~repro.simulator.patterns.FaultPattern.iid_reducible`),
      optionally scheduled — the pattern's law matches the i.i.d. model,
      so a constant-rate chain (unscheduled) or a
      :class:`~repro.memory.mission.MissionProfile` built phase-for-phase
      from the schedule (scheduled) predicts it exactly;
    * anything else — correlated physics outside the chains' state
      space: ``None``, the graceful-degradation contract.
    """
    pattern = None if cell.pattern is None else parse_pattern(cell.pattern)
    schedule = parse_schedule(cell.schedule)
    if pattern is not None and not pattern.iid_reducible:
        return None
    if schedule is None:
        factory = (
            simplex_model if cell.arrangement == "simplex" else duplex_model
        )
        model = factory(
            n,
            k,
            m=m,
            seu_per_bit_day=cell.seu_per_bit_day,
            erasure_per_symbol_day=cell.erasure_per_symbol_day,
            scrub_period_seconds=cell.scrub_period_seconds,
        )
        return float(model.fail_probability([t_end_hours])[0])
    base_rates = FaultRates.from_paper_units(
        seu_per_bit_day=cell.seu_per_bit_day,
        erasure_per_symbol_day=cell.erasure_per_symbol_day,
        scrub_period_seconds=cell.scrub_period_seconds,
    )
    model_cls = (
        SimplexMarkovModel
        if cell.arrangement == "simplex"
        else DuplexMarkovModel
    )
    profile = MissionProfile(
        model_cls, n, k, m, schedule.mission_phases(base_rates)
    )
    return float(profile.fail_probability([t_end_hours])[0])


#: Current fingerprint schema.  3 folded the adaptive-stopping rule in:
#: ``stop_rel_ci``/``min_trials``/``ci_method`` change the recorded
#: ``stopped_early`` prefix and hence the final estimate, so two runs
#: differing only in the stopping rule are *different campaigns* and
#: must not share a journal.  A journal header of any other schema
#: fails the strict equality check and is refused.
FINGERPRINT_SCHEMA = 3


def stopping_fingerprint(stop) -> Optional[Dict[str, object]]:
    """Canonical JSON form of a stopping rule (``None`` = full budget).

    Accepts a :class:`repro.stats.StoppingRule` (or anything with the
    same four attributes); every field that can move the stop index —
    and therefore the estimate — is included.
    """
    if stop is None:
        return None
    return {
        "rel_ci": float(stop.rel_ci),
        "min_trials": int(stop.min_trials),
        "method": str(stop.method),
        "confidence": float(stop.confidence),
    }


def campaign_fingerprint(
    cells: Sequence[CampaignCell],
    n: int,
    k: int,
    m: int,
    t_end_hours: float,
    trials: int,
    base_seed: int,
    chunk_size: int,
    stop=None,
) -> Dict[str, object]:
    """Every parameter the campaign estimates depend on, as plain JSON.

    This is the identity a checkpoint journal is bound to: two campaigns
    with equal fingerprints produce bit-identical estimates, so their
    journaled chunks are interchangeable.  Worker count is deliberately
    absent — it cannot affect results.  ``"engine"`` is always
    ``"batch"``, the value journal headers and manifests have carried for
    this engine, so their bytes do not move.  ``stop`` is the adaptive
    stopping rule (or ``None`` for a full-budget run); see
    :func:`stopping_fingerprint` for why it is part of the identity.
    """
    return {
        "schema": FINGERPRINT_SCHEMA,
        "n": n,
        "k": k,
        "m": m,
        "t_end_hours": t_end_hours,
        "trials": trials,
        "base_seed": base_seed,
        "engine": "batch",
        "chunk_size": chunk_size,
        "stopping": stopping_fingerprint(stop),
        "cells": [
            {
                "arrangement": cell.arrangement,
                "seu_per_bit_day": cell.seu_per_bit_day,
                "erasure_per_symbol_day": cell.erasure_per_symbol_day,
                "scrub_period_seconds": cell.scrub_period_seconds,
                "pattern": cell.pattern,
                "schedule": cell.schedule,
            }
            for cell in cells
        ],
    }


def run_campaign(
    cells: Sequence[CampaignCell],
    n: int = 18,
    k: int = 16,
    m: int = 8,
    t_end_hours: float = 48.0,
    trials: int = 400,
    base_seed: int = 2005,
    engine: str = "batch",
    workers: int = 1,
    chunk_size: int = 512,
    counters: Optional[PerfCounters] = None,
    runtime: Optional[RuntimeConfig] = None,
) -> List[CampaignRow]:
    """Run every cell with a deterministic per-cell seed.

    Seeding is positional (``base_seed + index``) so a campaign is exactly
    reproducible and individual cells can be re-run in isolation.

    Trials are drawn in vectorized seed blocks of ``chunk_size``, reads
    decode in bulk through :class:`~repro.rs.batch.BatchRSCodec`, and
    tasks of blocks fan out over ``workers`` processes.  The estimate is
    a deterministic function of ``(base_seed, trials, chunk_size)`` only,
    never of ``workers``.  ``engine`` must name the one engine (see
    :data:`ENGINES`); any other name raises ``ValueError`` before any
    work.

    ``counters`` accumulates work and throughput across all cells.

    ``runtime`` threads the resilience layer through every cell:
    supervised retries, per-chunk timeouts, chaos injection, and — when
    ``runtime.journal`` is set — chunk-level checkpointing.  The journal
    is bound to this campaign's :func:`campaign_fingerprint`; resuming
    with different parameters raises
    :class:`~repro.runtime.CheckpointMismatchError`, and resuming with
    the same ones replays completed chunks for bit-identical results.
    Every cell dispatches through ``runtime.executor``, which its owner
    shuts down; without one, the executor for ``workers`` is built once
    for the campaign and shut down when it returns (an interrupt
    included).
    """
    if not cells:
        raise ValueError("empty campaign")
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
        )
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if workers <= 0:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for cell in cells:
        if cell.arrangement not in ("simplex", "duplex"):
            raise ValueError(f"unknown arrangement {cell.arrangement!r}")
        # Fail fast on malformed specs — before any model solve or
        # journal header is written.
        if cell.pattern is not None:
            parse_pattern(cell.pattern)
        check_schedule_legs(cell.schedule, t_end_hours)
    if runtime is not None and runtime.journal is not None:
        runtime.journal.ensure_header(
            campaign_fingerprint(
                cells,
                n,
                k,
                m,
                t_end_hours,
                trials,
                base_seed,
                chunk_size,
                stop=runtime.stop,
            )
        )
    code = RSCode(n, k, m=m)
    rows: List[CampaignRow] = []
    cfg = runtime if runtime is not None else RuntimeConfig()
    with cfg.with_executor(workers) as cfg:
        for idx, cell in enumerate(cells):
            with trace.span(
                "campaign_cell",
                cell=cell.label(),
                index=idx,
                engine=engine,
                trials=trials,
            ):
                with trace.span("campaign_model_solve", cell=cell.label()):
                    p_model = cell_model_probability(cell, n, k, m, t_end_hours)
                scrub_period_hours = (
                    None
                    if cell.scrub_period_seconds is None
                    else cell.scrub_period_seconds / 3600.0
                )
                estimate = simulate_fail_probability_batched(
                    cell.arrangement,
                    code,
                    t_end_hours,
                    seu_per_bit=cell.seu_per_bit_day / 24.0,
                    erasure_per_symbol=cell.erasure_per_symbol_day / 24.0,
                    trials=trials,
                    seed=base_seed + idx,
                    scrub_period=scrub_period_hours,
                    scrub_exponential=True,
                    chunk_size=chunk_size,
                    workers=workers,
                    counters=counters,
                    runtime=cfg,
                    cell_key=f"{idx}:{cell.label()}",
                    pattern=cell.pattern,
                    schedule=cell.schedule,
                )
                rows.append(CampaignRow(cell, p_model, estimate))
    return rows


def default_validation_campaign(
    seu_rates=(1e-3, 2e-3),
    perm_rates=(0.0, 1e-2),
) -> List[CampaignCell]:
    """The standard MC-visible validation matrix."""
    cells = []
    for arrangement in ("simplex", "duplex"):
        for seu in seu_rates:
            for perm in perm_rates:
                cells.append(
                    CampaignCell(
                        arrangement=arrangement,
                        seu_per_bit_day=seu,
                        erasure_per_symbol_day=perm,
                    )
                )
    return cells


def campaign_summary(rows: Sequence[CampaignRow]) -> Dict[str, Tuple[int, int]]:
    """``{arrangement: (consistent cells, total cells)}``."""
    out: Dict[str, Tuple[int, int]] = {}
    for row in rows:
        ok, total = out.get(row.cell.arrangement, (0, 0))
        out[row.cell.arrangement] = (ok + (1 if row.consistent else 0), total + 1)
    return out
