"""Regenerate ``ber_golden.json`` — every paper curve's full BER array.

Run from the repo root::

    PYTHONPATH=src python tests/vectors/make_ber_golden.py

The file pins all 25 grid points of every curve of Figs. 5-10 (31
curves, 775 values) as produced by ``repro.analysis.ALL_FIGURES`` at
their default grids.  JSON floats are written with ``repr``, so the file
holds each value to the last bit; ``tests/test_golden_ber.py`` compares
at its ``RTOL``.

A deliberate modelling change that moves a curve must regenerate this
file in the same change and say why.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import ALL_FIGURES

SCHEMA = 1


def main() -> Path:
    doc = {
        "schema": SCHEMA,
        "generator": "tests/vectors/make_ber_golden.py",
        "figures": {},
    }
    for fig_id, build in ALL_FIGURES.items():
        result = build()
        doc["figures"][fig_id] = {
            "times_hours": [float(t) for t in result.curves[0].times_hours],
            "curves": {c.label: [float(b) for b in c.ber] for c in result.curves},
        }
    path = Path(__file__).resolve().parent / "ber_golden.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    total = sum(
        len(ber)
        for fig in doc["figures"].values()
        for ber in fig["curves"].values()
    )
    print(f"wrote {path} ({len(doc['figures'])} figures, {total} values)")
    return path


if __name__ == "__main__":
    main()
