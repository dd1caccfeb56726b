"""Run artifacts of the end-to-end benchmark, and the statistics over them.

``run.py --out DIR`` keeps, for every invocation:

* ``DIR/<workload>/<plain|trace>-<k>/`` with ``summary.json``,
  the raw per-repetition ``metrics.jsonl``, a ``config.json`` snapshot,
  an ``env.json`` stamp and, for a traced run, ``spans.jsonl``;
* one line in ``DIR/runs.jsonl`` (the input of ``compare.py``);
* ``DIR/BENCH_<workload>.json``, rebuilt from every run of the workload
  in ``runs.jsonl`` — the trajectory format the baselines in
  ``results/`` are committed in.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of a sample."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no values to summarize")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def git_sha(root: Path) -> Optional[str]:
    """Commit of a git checkout at ``root``, read from ``.git`` directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def derived_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Phase medians of the plain repetitions, and campaign trials/s.

    Phases are ``campaign``; ``fresh``/``resume`` (journaled campaign);
    ``figures``/``ctmc_build``/``ctmc_solve`` (analytic).  Each phase is
    calibrated like its repetition (``ref_s / wall_s``).
    """
    plain = [r for r in payload["records"] if r["kind"] == "plain"]
    out = {
        f"{phase}_s": statistics.median(
            r["phases"][phase] * r["ref_s"] / r["wall_s"] for r in plain
        )
        for phase in plain[0]["phases"]
    }
    config = payload["config"]
    if config["kind"] == "campaign":
        trials = config["trials_per_cell"] * len(config["cells"])
        out["trials_per_s"] = trials / out.get("campaign_s", out.get("fresh_s"))
    return out


def new_run_dir(out_dir: Path, workload: str, trace: bool) -> Path:
    base = out_dir / workload
    base.mkdir(parents=True, exist_ok=True)
    stem = "trace" if trace else "plain"
    k = 1
    while (base / f"{stem}-{k}").exists():
        k += 1
    run_dir = base / f"{stem}-{k}"
    run_dir.mkdir()
    return run_dir


def _dump(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_run(
    out_dir: Path,
    run_dir: Path,
    payload: Dict[str, Any],
    result: Dict[str, Any],
    setup_times: List[float],
    env: Dict[str, Any],
    settings: Dict[str, Any],
    benchmark: Dict[str, Any],
) -> None:
    """Write one invocation's artifacts and refresh the workload's BENCH file."""
    derived = {} if payload["trace"] else derived_metrics(payload)
    summary = {
        "workload": payload["workload"],
        "seed": payload["seed"],
        "scale": payload["scale"],
        "trace": payload["trace"],
        "result": result,
        "reps": {
            kind: {
                field: summarize(r[field] for r in payload["records"] if r["kind"] == kind)
                for field in ("ref_s", "wall_s", "cpu_s", "cal_s")
            }
            for kind in dict.fromkeys(r["kind"] for r in payload["records"])
        },
        "derived": derived,
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    if setup_times:
        summary["setup_s"] = summarize(setup_times)
    if payload["trace"]:
        traced = [r for r in payload["records"] if r["kind"] == "traced"]
        summary["span_times"] = traced[0]["span_times"]
    _dump(run_dir / "summary.json", summary)
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for record in payload["records"]:
            fh.write(json.dumps(record) + "\n")
    _dump(run_dir / "config.json", {**payload["config"], **settings})
    _dump(run_dir / "env.json", env)
    line = {
        "workload": payload["workload"],
        "seed": payload["seed"],
        "scale": payload["scale"],
        "trace": payload["trace"],
        "run_dir": str(run_dir.relative_to(out_dir)),
        "result": result,
        "derived": derived,
    }
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    bench = bench_summary(load_runs(out_dir), payload["workload"], benchmark)
    bench.update(env=env, config=payload["config"])
    _dump(out_dir / f"BENCH_{payload['workload']}.json", bench)


def load_runs(out_dir: Path) -> List[Dict[str, Any]]:
    path = Path(out_dir) / "runs.jsonl"
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(
    runs: List[Dict[str, Any]], workload: str, trace: bool
) -> Dict[str, List[float]]:
    """``{metric: [value per run]}`` for one workload's plain or traced runs."""
    values: Dict[str, List[float]] = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def bench_summary(
    runs: List[Dict[str, Any]], workload: str, benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    """Medians and quartiles over every run of ``workload``."""
    mine = [r for r in runs if r["workload"] == workload]
    plain = metric_values(runs, workload, False)
    traced = metric_values(runs, workload, True)
    derived: Dict[str, List[float]] = {}
    for run in mine:
        for name, value in run["derived"].items():
            derived.setdefault(name, []).append(value)
    return {
        "workload": workload,
        "runs": sum(1 for r in mine if not r["trace"]),
        "trace_runs": sum(1 for r in mine if r["trace"]),
        "failed_runs": sum(1 for r in mine if not r["result"]["correct"]),
        "seeds": sorted({r["seed"] for r in mine}),
        "end_to_end": {
            m["name"]: {**m, **summarize(plain[m["name"]])}
            for m in benchmark["end_to_end"]
            if m["name"] in plain
        },
        "derived": {name: summarize(vals) for name, vals in derived.items()},
        "per_layer": {
            m["name"]: {"unit": m["unit"], **summarize(traced[m["name"]])}
            for m in benchmark["per_layer"]
            if m["name"] in traced
        },
    }
