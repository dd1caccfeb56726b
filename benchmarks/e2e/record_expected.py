"""Record the outputs the benchmark checks its runs against.

    python3 benchmarks/e2e/record_expected.py [WORKLOAD ...]

Runs one repetition of each named workload (default: all) at its
default seed, at full and quick scale, and stores the outputs in
``expected.json``: campaign outcome counts per cell, and the analytic
final-BER maps, decoder-complexity table and CTMC results.  Rerun it
only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import workloads  # noqa: E402


def main(names) -> int:
    path = workloads.EXPECTED_PATH
    expected = workloads.load_expected(path) if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        for quick in (False, True):
            state = wl.setup(wl.default_seed, quick)
            try:
                out = wl.rep(state, wl.workers)
                wl.after_rep(state)
            finally:
                wl.teardown(state)
            expected.setdefault(name, {})[state["scale"]] = wl.expected_entry(out, state)
            print(f"recorded {name} ({state['scale']})")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
