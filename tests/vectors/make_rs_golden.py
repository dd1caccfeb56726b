"""Regenerate ``rs_golden.json`` — committed RS golden vectors.

Run from the repo root::

    PYTHONPATH=src python tests/vectors/make_rs_golden.py

The vectors pin the *word-level contract* of the batch codec for the
paper's codes: encode output, clean-word detection, at/below/beyond
capacity correction, erasure handling (including over-erasure refusal),
and the exact failure messages.  Expectations are produced by the
pure-python scalar codec — the trusted reference the whole repo
validates against the paper — so a codec that disagrees with this
file disagrees with the reference, not with a previous version of
itself.

The file is committed; this script exists so the vectors are
reproducible (fixed seed, deterministic strata) and extensible.  If you
change it, commit the regenerated JSON with it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.rs import RSCode, RSDecodingError
from repro.rs.syndromes import compute_syndromes

SEED = 20050307
SCHEMA = 1

#: (n, k, m): the paper's shortened RS(18,16) data word, the deepened
#: RS(36,16) variant, and a textbook full-length RS(15,9) over GF(2^4)
#: (odd field width exercises non-byte symbol handling).
CODES = ((18, 16, 8), (36, 16, 8), (15, 9, 4))


def _corrupt(rng, codeword, positions, order):
    """Flip each listed symbol to a different random field element."""
    received = list(codeword)
    for pos in positions:
        old = received[pos]
        new = int(rng.integers(0, order))
        while new == old:
            new = int(rng.integers(0, order))
        received[pos] = new
    return received


def _expectation(code: RSCode, received, erasures):
    """The trusted scalar outcome for one case, as plain JSON."""
    syndromes = compute_syndromes(code.gf, received, code.nsym, code.fcr)
    clean = all(s == 0 for s in syndromes) and len(erasures) <= code.nsym
    try:
        result = code.decode(received, erasure_positions=erasures)
        return {
            "ok": True,
            "clean": clean,
            "data": result.data,
            "codeword": result.codeword,
            "num_errors": result.num_errors,
            "num_erasures": result.num_erasures,
            "corrected": result.corrected,
        }
    except RSDecodingError as exc:
        return {"ok": False, "clean": clean, "error": str(exc)}


def build_cases(code: RSCode, rng) -> list:
    n, k, t, nsym = code.n, code.k, code.t, code.nsym
    order = code.gf.order
    cases = []

    def add(label, data, received, erasures):
        cases.append(
            {
                "label": label,
                "data": list(map(int, data)),
                "codeword": code.encode(list(map(int, data))),
                "received": list(map(int, received)),
                "erasures": list(map(int, erasures)),
                "expect": _expectation(
                    code, list(map(int, received)), list(map(int, erasures))
                ),
            }
        )

    def word():
        return rng.integers(0, order, size=k)

    # Clean words: random and all-zero (the zero codeword).
    data = word()
    add("clean", data, code.encode(data.tolist()), [])
    add("clean-zero", [0] * k, code.encode([0] * k), [])

    # Error strata: one error, at capacity, beyond capacity.
    for num_errors in sorted({1, t, t + 1}):
        data = word()
        cw = code.encode(data.tolist())
        positions = rng.choice(n, size=num_errors, replace=False)
        label = (
            f"errors-{num_errors}-beyond"
            if num_errors > t
            else f"errors-{num_errors}"
        )
        add(label, data, _corrupt(rng, cw, positions, order), [])

    # Erasures at full capability (nsym located, corrupted symbols).
    data = word()
    cw = code.encode(data.tolist())
    positions = rng.choice(n, size=nsym, replace=False)
    add(
        "erasures-at-capacity",
        data,
        _corrupt(rng, cw, positions, order),
        sorted(map(int, positions)),
    )

    # Located-but-benign erasures: flagged positions, unchanged symbols.
    data = word()
    cw = code.encode(data.tolist())
    positions = rng.choice(n, size=min(nsym, 2), replace=False)
    add("erasures-benign", data, cw, sorted(map(int, positions)))

    # Mixed errors+erasures at the 2*re + er = nsym boundary.
    if nsym >= 3:
        data = word()
        cw = code.encode(data.tolist())
        er = nsym - 2
        positions = rng.choice(n, size=1 + er, replace=False)
        received = _corrupt(rng, cw, positions, order)
        add(
            "mixed-boundary",
            data,
            received,
            sorted(map(int, positions[1:])),
        )

    # Over-erased: nsym + 1 declared erasures must be refused.
    data = word()
    cw = code.encode(data.tolist())
    positions = rng.choice(n, size=nsym + 1, replace=False)
    add(
        "over-erased",
        data,
        _corrupt(rng, cw, positions, order),
        sorted(map(int, positions)),
    )

    return cases


def main() -> Path:
    rng = np.random.default_rng(SEED)
    doc = {
        "schema": SCHEMA,
        "seed": SEED,
        "generator": "tests/vectors/make_rs_golden.py",
        "reference": "repro.rs.codec.RSCode (pure-python scalar decoder)",
        "codes": [],
    }
    for n, k, m in CODES:
        code = RSCode(n, k, m=m)
        doc["codes"].append(
            {
                "n": n,
                "k": k,
                "m": m,
                "fcr": code.fcr,
                "nsym": code.nsym,
                "t": code.t,
                "cases": build_cases(code, rng),
            }
        )
    path = Path(__file__).resolve().parent / "rs_golden.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    total = sum(len(c["cases"]) for c in doc["codes"])
    print(f"wrote {path} ({len(doc['codes'])} codes, {total} cases)")
    return path


if __name__ == "__main__":
    main()
