"""One benchmark process: set up a workload, then time and check its repetitions.

``run.py`` starts this script in a fresh process for each setup probe
and for each measurement, so that set-up time and peak memory belong to
one workload alone::

    python benchmarks/e2e/measure.py probe WORKLOAD [--seed S] [--quick]
    python benchmarks/e2e/measure.py measure WORKLOAD [--seed S] [--quick]
        --seconds T --trace 0|1 [--spans PATH]

``probe`` imports, sets up and warms up, then exits.  ``measure`` prints
one JSON object on its last line of standard output.

Plain measurement runs repetitions back to back (one client, closed
loop) until ``--seconds`` have passed and at least ``MIN_REPS`` ran;
each repetition is timed between two runs of ``calibrate.calibrate``.
The traced measurement cycles through an untraced repetition, a traced
one and — for a pooled workload — an untraced one-worker repetition, so
tracing overhead and executor efficiency are measured in the same
process; it runs whole cycles until ``--seconds`` have passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402

MIN_REPS = 3
TERMS_COUNTER = "repro.solver.uniformization.terms"

#: Per-layer metrics of a traced repetition, with their units.  Every
#: span name contributes ``<name>.calls`` and ``<name>.pct`` (busy time
#: as a percentage of the traced repetition's wall time); the rest are
#: derived below.  A layer a workload does not run reads 0.
LAYER_UNITS: Dict[str, str] = {}
for _name in spans_mod.SPAN_NAMES:
    LAYER_UNITS[f"{_name}.calls"] = "count"
    LAYER_UNITS[f"{_name}.pct"] = "%"
LAYER_UNITS.update(
    {
        "montecarlo.self.pct": "%",
        "rs.batch.encode.words": "count",
        "rs.batch.decode.words": "count",
        "rs.batch.clean_ratio": "ratio",
        "rs.batch.kernel.pct": "%",
        "rs.codec.decode_failures": "count",
        "runtime.dispatch.pct": "%",
        "runtime.parallel_efficiency": "ratio",
        "runtime.cpu_inflation": "ratio",
        "journal.bytes": "bytes",
        "markov.states": "count",
        "markov.transitions": "count",
        "markov.uniformization.terms": "count",
        "trace.spans": "count",
        "trace.overhead_frac": "ratio",
    }
)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every worker process the repetition started has exited.

    A pool is torn down without waiting, so its workers' CPU time only
    reaches ``RUSAGE_CHILDREN`` once they are reaped here.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.005)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class RepTimer:
    """Times repetitions, each between two runs of the calibration.

    A repetition's ``ref_s`` is its wall time scaled by
    ``calibrate.REFERENCE_S`` over the mean of the calibrations just
    before and just after it (see ``calibrate.py``).
    """

    def __init__(self) -> None:
        gc.collect()  # garbage left by the warm-up would slow the calibration
        calibrate.calibrate()  # the first run pays one-time costs
        self.last_cal = calibrate.calibrate()

    def __call__(self, wl, state, workers: int):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        out = wl.rep(state, workers)
        wall = time.perf_counter() - t0
        _reap_children()
        cpu = _cpu_seconds() - cpu0
        wl.after_rep(state)
        # Collect the repetition's garbage now, not inside the next one.
        gc.collect()
        cal = calibrate.calibrate()
        cal_s = (self.last_cal + cal) / 2.0
        self.last_cal = cal
        timing = {
            "wall_s": wall,
            "cpu_s": cpu,
            "cal_s": cal_s,
            "ref_s": wall * calibrate.REFERENCE_S / cal_s,
        }
        return out, timing


def _terms() -> float:
    return obs_metrics.get_registry().counter(TERMS_COUNTER).value


def layer_metrics(
    times: Dict[str, Dict[str, float]], n_spans: int, wall: float, out, terms: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see ``LAYER_UNITS``)."""

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    values: Dict[str, float] = {}
    for name, entry in times.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.pct"] = pct(entry["busy_s"])
    work = out.counters
    decoded = work.get("words_decoded", 0)
    values.update(
        {
            "montecarlo.self.pct": pct(times["montecarlo.chunk"]["self_s"]),
            "rs.batch.encode.words": work.get("words_encoded", 0),
            "rs.batch.decode.words": decoded,
            "rs.batch.clean_ratio": work.get("clean_fast_path", 0) / decoded if decoded else 0.0,
            "rs.batch.kernel.pct": pct(work.get("kernel_seconds", 0.0)),
            "rs.codec.decode_failures": times["rs.codec.decode"]["errors"],
            "runtime.dispatch.pct": pct(times["runtime.supervisor"]["self_s"]),
            "journal.bytes": work.get("journal_bytes", 0),
            "markov.states": times["markov.build_chain"].get("states", 0),
            "markov.transitions": times["markov.build_chain"].get("transitions", 0),
            "markov.uniformization.terms": terms,
            "trace.spans": n_spans,
        }
    )
    return values


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_plain(wl, state, seconds: float, expected) -> List[Dict[str, Any]]:
    timer = RepTimer()
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        out, timing = timer(wl, state, wl.workers)
        records.append(_record(len(records), "plain", timing, out, wl.check(out, state, expected)))
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_REPS and elapsed + _median([r["wall_s"] for r in records]) > seconds:
            return records


def run_traced(
    wl, state, seconds: float, expected, recorder: spans_mod.SpanRecorder
) -> List[Dict[str, Any]]:
    # A pooled workload's traced repetition runs one worker; its
    # untraced one-worker twin is the base of the tracing overhead.
    cycle = ["plain", "serial", "traced"] if wl.workers > 1 else ["plain", "traced"]
    timer = RepTimer()
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    cycle_walls: List[float] = []
    while True:
        t_cycle = time.perf_counter()
        for kind in cycle:
            index = len(records)
            workers = wl.workers if kind == "plain" else 1
            if kind == "traced":
                recorder.rep = index
                terms0 = _terms()
                with recorder.installed():
                    out, timing = timer(wl, state, workers)
                terms = _terms() - terms0
            else:
                out, timing = timer(wl, state, workers)
            record = _record(index, kind, timing, out, wl.check(out, state, expected))
            if kind == "traced":
                times = recorder.layer_times(index)
                n_spans = len(recorder.rep_spans(index))
                record["layers"] = layer_metrics(times, n_spans, timing["wall_s"], out, terms)
                record["span_times"] = times
            records.append(record)
        cycle_walls.append(time.perf_counter() - t_cycle)
        if time.perf_counter() - start + _median(cycle_walls) > seconds:
            return records


def _record(index, kind, timing, out, problems) -> Dict[str, Any]:
    return {
        "rep": index,
        "kind": kind,
        **timing,
        "phases": out.phases,
        "counters": out.counters,
        "problems": problems,
    }


def trace_summary(wl, records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced repetitions, plus ratios
    between the repetition kinds of the traced run."""

    def ref_walls(kind):
        return [r["ref_s"] for r in records if r["kind"] == kind]

    def cpus(kind):
        return [r["cpu_s"] for r in records if r["kind"] == kind]

    traced = [r["layers"] for r in records if r["kind"] == "traced"]
    out = {name: _median([layers[name] for layers in traced]) for name in traced[0]}
    base = "serial" if wl.workers > 1 else "plain"
    out["trace.overhead_frac"] = _median(ref_walls("traced")) / _median(ref_walls(base)) - 1.0
    efficiencies = [
        r["counters"]["cpu_seconds"] / (r["counters"]["elapsed_seconds"] * wl.workers)
        for r in records
        if r["kind"] == "plain" and r["counters"].get("elapsed_seconds")
    ]
    out["runtime.parallel_efficiency"] = _median(efficiencies)
    out["runtime.cpu_inflation"] = (
        _median(cpus("plain")) / _median(cpus("serial")) if wl.workers > 1 else 0.0
    )
    return {name: out[name] for name in LAYER_UNITS}


def versions() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": multiprocessing.cpu_count(),
        "machine": platform.machine(),
    }


def measure(
    name: str,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    quick: bool = False,
    expected: Optional[Dict[str, Any]] = None,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up, warm up and measure one workload; returns the run's payload."""
    wl = workloads.WORKLOADS[name]
    seed = workloads.resolve_seed(name, seed)
    if expected is None:
        expected = workloads.load_expected()
    state = wl.setup(seed, quick)
    recorder = spans_mod.SpanRecorder()
    try:
        wl.warmup(state)
        if trace:
            records = run_traced(wl, state, seconds, expected, recorder)
        else:
            records = run_plain(wl, state, seconds, expected)
    finally:
        wl.teardown(state)
    payload: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": workloads.scale_name(quick),
        "trace": trace,
        "seconds": seconds,
        "config": wl.config(seed, quick),
        "versions": versions(),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "records": records,
    }
    if trace:
        payload["layers"] = trace_summary(wl, records)
        if spans_path is not None:
            recorder.export_jsonl(spans_path)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("probe", "measure"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.role == "probe":
        wl = workloads.WORKLOADS[args.workload]
        state = wl.setup(workloads.resolve_seed(args.workload, args.seed), args.quick)
        try:
            wl.warmup(state)
        finally:
            wl.teardown(state)
        return 0
    payload = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        quick=args.quick,
        spans_path=args.spans,
    )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
