#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are ``--out`` directories of
``run.py``, each holding ten or more plain runs per workload, ideally
made alternately.  For every end-to-end metric of ``BENCHMARK.json`` on
every workload it prints both sides' medians and quartiles and a verdict:

* ``unresolved`` — the quartile spread of either side, as a share of its
  median, exceeds the metric's bound, and not every run of B beats every
  run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least nine tenths of the run pairs (ties count
  for neither) and the medians differ by more than A's quartile spread;
* ``within bound`` — otherwise.

A workload with a run whose output checks failed reads ``failed``.  The
exit status is 1 when any verdict is ``regressed``, ``unresolved`` or
``failed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

sys.dont_write_bytecode = True

import artifacts  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> str:
    sa, sb = artifacts.summarize(a), artifacts.summarize(b)

    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    spread_a = (sa["q3"] - sa["q1"]) / sa["median"]
    spread_b = (sb["q3"] - sb["q1"]) / sb["median"]
    if max(spread_a, spread_b) > bound:
        if all(better(y, x) for x in a for y in b):
            return "improved"
        return "unresolved"
    sign = 1.0 if lower_is_better else -1.0
    if sign * (sb["median"] - sa["median"]) / sa["median"] > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]
    ):
        return "improved"
    return "within bound"


def compare(dir_a: Path, dir_b: Path, benchmark: Dict) -> List[Dict]:
    runs_a, runs_b = artifacts.load_runs(dir_a), artifacts.load_runs(dir_b)
    rows = []
    for wl in benchmark["workloads"]:
        name = wl["name"]
        va = artifacts.metric_values(runs_a, name, False)
        vb = artifacts.metric_values(runs_b, name, False)
        failed = any(
            not r["result"]["correct"] for r in runs_a + runs_b if r["workload"] == name
        )
        for metric in benchmark["end_to_end"]:
            a, b = va.get(metric["name"]), vb.get(metric["name"])
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": artifacts.summarize(a),
                    "b": artifacts.summarize(b),
                    "verdict": "failed"
                    if failed
                    else verdict(a, b, metric["bound"], metric["better"] == "lower"),
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result directories.")
    parser.add_argument("a", type=Path, help="parent's results (--out of run.py)")
    parser.add_argument("b", type=Path, help="change's results")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    rows = compare(args.a, args.b, benchmark)

    def fmt(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"

    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} verdict")
    for row in rows:
        print(
            f"{row['workload']:<20} {row['metric']:<12} {fmt(row['a']):<34} "
            f"{fmt(row['b']):<34} {row['verdict']}"
        )
    bad = {"regressed", "unresolved", "failed"}
    return 1 if any(row["verdict"] in bad for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
