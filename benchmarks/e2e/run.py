#!/usr/bin/env python3
"""End-to-end benchmark of the RS memory-reliability reproduction.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--quick] [--out DIR]

For each workload (all of them when ``--workload`` is not given) it
prints one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with it, the per-layer metrics of a traced run.

Each workload is measured in a fresh process (``measure.py``), so set-up
time and peak memory belong to it alone; ``setup_s`` is the median wall
time of ``SETUP_PROBES`` more fresh processes that import, set up and
warm up the workload, each calibrated (see ``SETUP_CALIBRATION``).  ``--out DIR`` also keeps the run's artifacts (see
``artifacts.py``).  The benchmark needs the repository's ``src/``; in a
directory without it, it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.dont_write_bytecode = True

import artifacts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MEASURE = HERE / "measure.py"
SETUP_PROBES = 3
#: The set-up calibration: a fresh interpreter importing the libraries the
#: repository is built on, timed right before each set-up probe.  Like
#: ``rep_s`` (see calibrate.py), ``setup_s`` scales each probe's wall time
#: by ``SETUP_REFERENCE_S`` over it, the seconds it took on the machine the
#: benchmark was built on; a change to the repository cannot move it.
SETUP_CALIBRATION = [
    "-c",
    "import numpy, scipy.sparse, scipy.special, scipy.linalg, scipy.integrate",
]
SETUP_REFERENCE_S = 0.46
#: Every run of one workload ends within this many seconds, or fails.
RUN_DEADLINE_S = 170.0
#: Pinned for every benchmark process: no bytecode written into the
#: checkout, one BLAS/OpenMP thread so timings do not depend on how many
#: threads a shared machine happens to grant.
CHILD_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _python(args: List[str], deadline: float) -> str:
    """Run the interpreter with ``args``; its standard output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **CHILD_ENV},
            timeout=remaining,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def _wall(args: List[str], deadline: float) -> float:
    t0 = time.perf_counter()
    _python(args, deadline)
    return time.perf_counter() - t0


def _metrics(specs, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run_workload(
    name: str, args: argparse.Namespace, benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = [name]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")
    setup_cals: List[float] = []
    setup_walls: List[float] = []
    if not args.trace:
        for _ in range(1 if args.quick else SETUP_PROBES):
            setup_cals.append(_wall(SETUP_CALIBRATION, deadline))
            setup_walls.append(_wall([str(MEASURE), "probe", *common], deadline))
    setup_times = [
        wall * SETUP_REFERENCE_S / cal for wall, cal in zip(setup_walls, setup_cals)
    ]
    run_dir: Optional[Path] = None
    extra: List[str] = []
    if args.out is not None:
        run_dir = artifacts.new_run_dir(args.out, name, bool(args.trace))
        if args.trace:
            extra = ["--spans", str(run_dir / "spans.jsonl")]
    measure_args = ["measure", *common, "--seconds", repr(args.seconds)]
    measure_args += ["--trace", str(args.trace), *extra]
    stdout = _python([str(MEASURE), *measure_args], deadline)
    payload = json.loads(stdout.strip().splitlines()[-1])
    if args.trace:
        metrics = _metrics(benchmark["per_layer"], payload["layers"])
    else:
        plain = [r for r in payload["records"] if r["kind"] == "plain"]
        metrics = _metrics(
            benchmark["end_to_end"],
            {
                "rep_s": statistics.median(r["ref_s"] for r in plain),
                "peak_rss_mb": payload["peak_rss_mb"],
                "setup_s": statistics.median(setup_times),
            },
        )
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    for record in payload["records"]:
        for problem in record["problems"]:
            print(f"{name} rep {record['rep']}: {problem}", file=sys.stderr)
    if run_dir is not None:
        env = {**payload["versions"], "git_sha": artifacts.git_sha(ROOT)}
        settings = {
            "seconds": args.seconds,
            "seed": payload["seed"],
            "scale": payload["scale"],
            "trace": bool(args.trace),
            "setup_wall_s": setup_walls,
            "setup_cal_s": setup_cals,
            "child_env": CHILD_ENV,
        }
        artifacts.save_run(
            args.out, run_dir, payload, result, setup_times, env, settings, benchmark
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} has no src/repro to benchmark", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workload_names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark; prints one JSON result line per workload."
    )
    parser.add_argument("--workload", choices=workload_names, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics of a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the harness self-test")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to keep run artifacts in")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    names = [args.workload] if args.workload else workload_names
    for name in names:
        try:
            result = run_workload(name, args, benchmark)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
