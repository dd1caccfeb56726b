"""The benchmark's workloads: what one repetition runs and how it is checked.

Each workload is a fixed job a user of this repository runs — a fault
injection campaign through the real RS codec, or the regeneration of the
paper's analytic results — chosen so that the workloads together load
every layer the ROADMAP names (see README.md for why each exists).

A workload is driven by ``measure.py`` through five calls::

    state = wl.setup(seed, quick)     # inputs, made from the seed
    wl.warmup(state)                  # fill caches before timing
    out = wl.rep(state, workers)      # one timed repetition
    problems = wl.check(out, state, expected)
    wl.after_rep(state); wl.teardown(state)

Execution hints the timings depend on are pinned here: the batch codec
runs the ``numpy`` backend (so numba's presence cannot change what is
measured), chunks hold 512 trials, and each workload fixes its worker
count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import experiments
from repro.memory import duplex_model
from repro.perf import PerfCounters
from repro.runtime import CheckpointJournal, RuntimeConfig
from repro.simulator.campaign import CampaignCell, CampaignRow, run_campaign
from repro.simulator.patterns import parse_pattern
from repro.simulator.scenarios import get_scenario
from repro.stats.intervals import wilson_interval

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space for checkpoint journals (inside the checkout, ignored by git).
WORK_ROOT = HERE / ".work"

ENGINE = "numpy"
CHUNK_SIZE = 512
T_END_HOURS = 48.0
WARMUP_TRIALS = 64
#: Wilson z of the any-seed model-consistency check.  It is the rule of
#: ``CampaignRow.consistent`` at 5 sigma instead of 3.29: a benchmark pass
#: checks hundreds of i.i.d. cells, and a 0.1% false-alarm rate per cell
#: would fail a correct program every few passes.
CONSISTENCY_Z = 5.0
#: Relative tolerance of the analytic results against the recorded values.
REL_TOL = 1e-9


def scale_name(quick: bool) -> str:
    return "quick" if quick else "full"


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class RepOutput:
    """One repetition's output.

    ``result`` is plain JSON and must be identical on every repetition of
    a run; ``detail`` holds in-memory objects the check needs; ``phases``
    are wall seconds of the repetition's parts; ``counters`` are work
    counts (``PerfCounters`` fields and workload-specific sizes).
    """

    result: Dict[str, Any]
    phases: Dict[str, float]
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    detail: Any = None


def _same_as_first(out: RepOutput, state: Dict[str, Any]) -> List[str]:
    if state.get("first") is None:
        state["first"] = out.result
        return []
    if out.result != state["first"]:
        return ["output differs from the run's first repetition"]
    return []


class CampaignWorkload:
    """``run_campaign`` over fixed cells, optionally journaled and resumed.

    With ``resume`` set, a repetition runs the campaign against a fresh
    ``CheckpointJournal`` and then runs it again against the complete
    journal, which replays every chunk instead of recomputing it.
    """

    def __init__(
        self,
        name: str,
        cells: Sequence[CampaignCell],
        trials: int,
        quick_trials: int,
        workers: int = 1,
        default_seed: int = 2005,
        resume: bool = False,
    ):
        self.name = name
        self.cells = list(cells)
        self.trials = trials
        self.quick_trials = quick_trials
        self.workers = workers
        self.default_seed = default_seed
        self.resume = resume

    def config(self, seed: int, quick: bool) -> Dict[str, Any]:
        return {
            "kind": "campaign",
            "cells": [cell.label() for cell in self.cells],
            "trials_per_cell": self.quick_trials if quick else self.trials,
            "base_seed": seed,
            "t_end_hours": T_END_HOURS,
            "engine": ENGINE,
            "chunk_size": CHUNK_SIZE,
            "workers": self.workers,
            "journal_resume": self.resume,
        }

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        return {
            "seed": seed,
            "scale": scale_name(quick),
            "trials": self.quick_trials if quick else self.trials,
            "workdir": WORK_ROOT / f"{self.name}-{os.getpid()}",
            "reps": 0,
            "first": None,
        }

    def _campaign(self, state, trials, workers, counters, journal=None):
        return run_campaign(
            self.cells,
            t_end_hours=T_END_HOURS,
            trials=trials,
            base_seed=state["seed"],
            engine=ENGINE,
            workers=workers,
            chunk_size=CHUNK_SIZE,
            counters=counters,
            runtime=None if journal is None else RuntimeConfig(journal=journal),
        )

    def warmup(self, state: Dict[str, Any]) -> None:
        self._campaign(state, WARMUP_TRIALS, 1, PerfCounters())

    def rep(self, state: Dict[str, Any], workers: int) -> RepOutput:
        counters = PerfCounters()
        trials = state["trials"]
        if not self.resume:
            t0 = perf_counter()
            rows = self._campaign(state, trials, workers, counters)
            phases = {"campaign": perf_counter() - t0}
            return RepOutput(_rows_json(rows), phases, counters.as_dict())
        rep_dir = state["workdir"] / f"rep{state['reps']}"
        rep_dir.mkdir(parents=True)
        path = rep_dir / "journal.jsonl"
        t0 = perf_counter()
        with CheckpointJournal(path) as journal:
            rows = self._campaign(state, trials, workers, counters, journal)
        t1 = perf_counter()
        with CheckpointJournal(path) as journal:
            resumed = self._campaign(state, trials, workers, PerfCounters(), journal)
        t2 = perf_counter()
        result = _rows_json(rows)
        result["resumed_equal"] = all(
            a.estimate == b.estimate for a, b in zip(rows, resumed)
        )
        work = counters.as_dict()
        work["journal_bytes"] = path.stat().st_size
        return RepOutput(result, {"fresh": t1 - t0, "resume": t2 - t1}, work)

    def after_rep(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["workdir"] / f"rep{state['reps']}", ignore_errors=True)
        state["reps"] += 1

    def teardown(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["workdir"], ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # absent, or another run's journals are still in it
            pass

    def check(
        self, out: RepOutput, state: Dict[str, Any], expected: Dict[str, Any]
    ) -> List[str]:
        problems = []
        for row in out.result["rows"]:
            counts = row["outcome_counts"]
            if row["trials"] != state["trials"] or sum(counts.values()) != row["trials"]:
                problems.append(f"{row['cell']}: outcome counts do not add up to the trials")
            if row["failures"] != counts["corrupted"] + counts["unreadable"]:
                problems.append(f"{row['cell']}: failures != corrupted + unreadable")
            if row["iid"] and not _consistent(row, CONSISTENCY_Z):
                problems.append(
                    f"{row['cell']}: {row['failures']}/{row['trials']} failures "
                    f"inconsistent with the model's {row['model']:.4g} "
                    f"at z={CONSISTENCY_Z}"
                )
        if self.resume and not out.result["resumed_equal"]:
            problems.append("resumed estimates differ from the fresh pass")
        recorded = expected.get(self.name, {}).get(state["scale"])
        if recorded is not None and recorded["seed"] == state["seed"]:
            got = {row["cell"]: row["outcome_counts"] for row in out.result["rows"]}
            if got != recorded["outcome_counts"]:
                problems.append("outcome counts differ from the recorded values")
        return problems + _same_as_first(out, state)

    def expected_entry(self, out: RepOutput, state: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "seed": state["seed"],
            "outcome_counts": {
                row["cell"]: row["outcome_counts"] for row in out.result["rows"]
            },
        }


def _rows_json(rows: Sequence[CampaignRow]) -> Dict[str, Any]:
    return {
        "rows": [
            {
                "cell": row.cell.label(),
                "arrangement": row.cell.arrangement,
                "iid": row.cell.pattern is None
                or parse_pattern(row.cell.pattern).iid_reducible,
                "trials": row.estimate.trials,
                "failures": row.estimate.failures,
                "outcome_counts": dict(row.estimate.outcome_counts),
                "model": row.model_fail_probability,
            }
            for row in rows
        ]
    }


def _consistent(row: Dict[str, Any], z: float) -> bool:
    """``CampaignRow.consistent`` with a chosen Wilson z."""
    p = row["model"]
    if p is None:
        return True
    low, high = wilson_interval(row["failures"], row["trials"], z=z)
    if row["arrangement"] == "simplex":
        return low <= p <= high
    return low <= p or row["failures"] / row["trials"] <= p


class AnalyticWorkload:
    """The paper's figures and table, then the CTMC at ROADMAP scale.

    The inputs are the paper's fixed configurations, so the seed changes
    nothing here; every run checks against the recorded values.
    """

    name = "analytic"
    workers = 1
    default_seed = 2005
    #: Duplex chain of the transient solve: full scale is RS(36,16).
    CTMC_CODE = {"full": (36, 16), "quick": (18, 16)}
    FIGURE_POINTS = {"full": 25, "quick": 5}
    CTMC_SEU_PER_BIT_DAY = 1.7e-5
    CTMC_PERMANENT_PER_SYMBOL_DAY = 1e-6
    CTMC_TIMES = np.linspace(0.0, T_END_HOURS, 9)

    def config(self, seed: int, quick: bool) -> Dict[str, Any]:
        scale = scale_name(quick)
        n, k = self.CTMC_CODE[scale]
        return {
            "kind": "analytic",
            "figures": list(experiments.ALL_FIGURES),
            "figure_points": self.FIGURE_POINTS[scale],
            "table": "table_decoder_complexity",
            "ctmc": f"duplex RS({n},{k}) seu={self.CTMC_SEU_PER_BIT_DAY:g} "
            f"perm={self.CTMC_PERMANENT_PER_SYMBOL_DAY:g}",
            "ctmc_times_hours": self.CTMC_TIMES.tolist(),
            "solver": "uniformization",
        }

    def setup(self, seed: int, quick: bool) -> Dict[str, Any]:
        return {"seed": seed, "scale": scale_name(quick), "first": None}

    def warmup(self, state: Dict[str, Any]) -> None:
        experiments.fig5_simplex_seu(points=3)
        duplex_model(18, 16, seu_per_bit_day=1.7e-5).fail_probability([T_END_HOURS])

    def rep(self, state: Dict[str, Any], workers: int) -> RepOutput:
        scale = state["scale"]
        n, k = self.CTMC_CODE[scale]
        points = self.FIGURE_POINTS[scale]
        t0 = perf_counter()
        figures = {
            fid: fn(points=points) for fid, fn in experiments.ALL_FIGURES.items()
        }
        table = experiments.table_decoder_complexity()
        t1 = perf_counter()
        model = duplex_model(
            n,
            k,
            seu_per_bit_day=self.CTMC_SEU_PER_BIT_DAY,
            erasure_per_symbol_day=self.CTMC_PERMANENT_PER_SYMBOL_DAY,
        )
        chain = model.chain
        t2 = perf_counter()
        p_fail = model.fail_probability(self.CTMC_TIMES)
        t3 = perf_counter()
        result = {
            "figures": {fid: r.final_ber_map() for fid, r in figures.items()},
            "complexity": [dataclasses.asdict(c) for c in table],
            "ctmc": {
                "states": chain.num_states,
                "transitions": int(chain.rate_matrix.nnz),
                "p_fail": p_fail.tolist(),
            },
        }
        phases = {"figures": t1 - t0, "ctmc_build": t2 - t1, "ctmc_solve": t3 - t2}
        return RepOutput(result, phases, detail=figures)

    def after_rep(self, state: Dict[str, Any]) -> None:
        pass

    def teardown(self, state: Dict[str, Any]) -> None:
        pass

    def check(
        self, out: RepOutput, state: Dict[str, Any], expected: Dict[str, Any]
    ) -> List[str]:
        problems = [
            f"{fid}: expectation failed: {text}"
            for fid, res in out.detail.items()
            for text in res.failed_expectations()
        ]
        p_fail = out.result["ctmc"]["p_fail"]
        if p_fail[0] != 0.0 or any(b < a for a, b in zip(p_fail, p_fail[1:])) or p_fail[-1] > 1.0:
            problems.append("CTMC P_fail(t) is not a nondecreasing probability from 0")
        recorded = expected.get(self.name, {}).get(state["scale"])
        if recorded is None:
            problems.append("no recorded values to check against")
        else:
            problems += _compare_recorded(out.result, recorded)
        return problems + _same_as_first(out, state)

    def expected_entry(self, out: RepOutput, state: Dict[str, Any]) -> Dict[str, Any]:
        return out.result


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _compare_recorded(result: Dict[str, Any], recorded: Dict[str, Any]) -> List[str]:
    problems = []
    for fid, finals in recorded["figures"].items():
        got = result["figures"].get(fid, {})
        if got.keys() != finals.keys() or not all(
            _close(got[label], value) for label, value in finals.items()
        ):
            problems.append(f"{fid}: final BER map differs from the recorded values")
    if result["complexity"] != recorded["complexity"]:
        problems.append("decoder complexity table differs from the recorded values")
    ctmc, want = result["ctmc"], recorded["ctmc"]
    if (ctmc["states"], ctmc["transitions"]) != (want["states"], want["transitions"]):
        problems.append("CTMC size differs from the recorded values")
    if len(ctmc["p_fail"]) != len(want["p_fail"]) or not all(
        _close(a, b) for a, b in zip(ctmc["p_fail"], want["p_fail"])
    ):
        problems.append("CTMC P_fail(t) differs from the recorded values")
    return problems


_MIXED_FIELD = get_scenario("mixed-field")

WORKLOADS: Dict[str, Any] = {
    wl.name: wl
    for wl in (
        CampaignWorkload(
            "mc-paper-rate",
            [CampaignCell("simplex", 1.7e-5, 0.0)],
            trials=1_000_000,
            quick_trials=20_000,
        ),
        CampaignWorkload(
            "mc-dirty",
            [CampaignCell("simplex", 2e-3, 0.0)],
            trials=60_000,
            quick_trials=3_000,
        ),
        CampaignWorkload(
            "duplex-scrub-replay",
            [CampaignCell("duplex", 2e-3, 1e-2, scrub_period_seconds=3600.0)],
            trials=1_500,
            quick_trials=100,
        ),
        CampaignWorkload(
            "campaign-pool",
            [
                *_MIXED_FIELD.cells,
                CampaignCell("simplex", 1.7e-5, 0.0),
                CampaignCell("duplex", 1.7e-5, 0.0),
            ],
            trials=16_000,
            quick_trials=1_024,
            workers=2,
            default_seed=_MIXED_FIELD.seed,
            resume=True,
        ),
        AnalyticWorkload(),
    )
}


def resolve_seed(name: str, seed: Optional[int]) -> int:
    """The seed a run uses: the given one, or the workload's default."""
    return WORKLOADS[name].default_seed if seed is None else seed
