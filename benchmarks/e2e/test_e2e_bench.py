"""Self-test of the end-to-end benchmark harness, at ``--quick`` scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--quick", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if trace == "0":
            assert metric["value"] > 0


def test_layer_table_matches_benchmark_json():
    assert list(measure.LAYER_UNITS.items()) == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]


def _corrupt(expected, workload):
    wrong = copy.deepcopy(expected)
    entry = wrong[workload]["quick"]
    if workload == "analytic":
        entry["ctmc"]["p_fail"][-1] *= 1.0 + 1e-6
    else:
        counts = next(iter(entry["outcome_counts"].values()))
        counts["correct"] += 1
    return wrong


@pytest.mark.parametrize("workload", ["mc-dirty", "analytic"])
def test_a_wrong_expected_value_fails_every_repetition(workload):
    expected = workloads.load_expected()
    ok = measure.measure(workload, None, 0.0, False, quick=True, expected=expected)
    assert ok["failed"] == 0
    bad = measure.measure(
        workload, None, 0.0, False, quick=True, expected=_corrupt(expected, workload)
    )
    assert bad["attempted"] >= 1
    assert bad["failed"] / bad["attempted"] == 1.0


def test_traced_child_spans_nest_inside_their_parents(tmp_path):
    from repro.rs.codec import RSCode

    original = RSCode.decode
    path = tmp_path / "spans.jsonl"
    payload = measure.measure(
        "duplex-scrub-replay", None, 0.0, True, quick=True, spans_path=path
    )
    assert payload["failed"] == 0
    assert RSCode.decode is original, "call sites must be restored after tracing"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    nested = 0
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert parent["rep"] == span["rep"]
        nested += 1
    names = {(spans[s["parent"]]["name"], s["name"]) for s in spans if s["parent"] is not None}
    assert ("systems.apply_event", "rs.codec.decode") in names
    assert nested > 0


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, base, 0.1, True) == "within bound"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, True) == "regressed"
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, True) == "improved"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"


def test_without_the_repository_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", ".work")
        )
    proc = _run(tmp_path, "--workload", "mc-dirty", "--quick")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
