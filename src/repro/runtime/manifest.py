"""Machine-readable run manifests for campaign provenance.

A benchmark trajectory is only citable if every number in it can name
the exact run that produced it.  ``repro campaign --manifest out.json``
writes one JSON document per campaign with the full reproducibility key
(seed, engine, chunking, code geometry, cell matrix), the resilience
record (retries, timeouts, crashes, fallbacks, resumed chunks), the
per-cell results, the observability record (chunk heartbeat/progress
events with ETA, a metrics-registry snapshot including the chunk-latency
histogram), and environment provenance (git describe, Python and numpy
versions, wall clock).
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from ..ioutil import atomic_write

# Version 2 added the "progress" heartbeat list and "metrics" snapshot.
# Version 3 added the top-level "scenario" name and per-row fault-pattern
# provenance ("pattern", "schedule") with the robustness counters
# ("silent_miscorrections", "detected_uncorrectable");
# "model_fail_probability" may now be null (out-of-model cells).
# Version 4 changed the "counters" keys: the dirty-word count is now
# "dirty_words_decoded", and the always-zero engine-fallback count is gone.
# Version 5 dropped two "counters" keys with straggler speculation:
# "stragglers_redispatched" and "duplicate_results".
MANIFEST_VERSION = 5


def git_describe(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, if any."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build_manifest(
    *,
    command: str,
    fingerprint: Dict[str, Any],
    rows: Sequence,  # CampaignRow
    counters,  # PerfCounters
    events: Sequence = (),  # SupervisorEvent
    wall_clock_seconds: Optional[float] = None,
    resumed: bool = False,
    checkpoint_path: Optional[str] = None,
    progress_events: Sequence[Dict[str, Any]] = (),  # heartbeat dicts
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,  # registry snapshot
    scenario: Optional[str] = None,  # named preset, if one drove the run
) -> Dict[str, Any]:
    """Assemble the manifest document (pure; no I/O, no clock reads)."""
    import numpy as np

    results = []
    for row in rows:
        est = row.estimate
        results.append(
            {
                "cell": row.cell.label(),
                "pattern": getattr(row.cell, "pattern", None),
                "schedule": getattr(row.cell, "schedule", None),
                "model_fail_probability": row.model_fail_probability,
                "probability": est.probability,
                "failures": est.failures,
                "trials": est.trials,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "outcome_counts": est.outcome_counts,
                "silent_miscorrections": getattr(
                    est, "silent_miscorrections", None
                ),
                "detected_uncorrectable": getattr(
                    est, "detected_uncorrectable", None
                ),
                "stopped_early": getattr(est, "stopped_early", False),
                "consistent": row.consistent,
            }
        )
    return {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "scenario": scenario,
        "fingerprint": fingerprint,
        "resumed": resumed,
        "checkpoint": checkpoint_path,
        "results": results,
        "counters": counters.as_dict(),
        "resilience_events": [
            {
                "kind": ev.kind,
                "chunk": ev.chunk,
                "attempt": ev.attempt,
                "detail": ev.detail,
            }
            for ev in events
        ],
        "progress": list(progress_events),
        "metrics": metrics or {},
        "wall_clock_seconds": wall_clock_seconds,
        "environment": {
            "git_describe": git_describe(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> Path:
    """Write a manifest document as pretty JSON, stamping creation time.

    The write is atomic (temp + fsync + rename): a crash mid-write can
    no longer leave a truncated manifest behind.
    """
    doc = dict(manifest)
    doc.setdefault("created_unix", time.time())
    return atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
