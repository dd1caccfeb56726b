"""What a cold start loads: ``import repro`` stops at numpy and scipy.sparse.

A scipy submodule that only one solver or one closed form uses is
imported inside that function (DESIGN.md, "Import placement").  One
top-level import of it would add its load time to every ``repro``
command, every subprocess test and every benchmark set-up probe.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SOLVER_ONLY = ("scipy.integrate", "scipy.linalg", "scipy.special", "scipy.optimize")


def test_fresh_import_loads_no_solver_only_scipy_module():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "import repro\n"
        "import repro.cli\n"
        f"print(sorted(m for m in {SOLVER_ONLY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
