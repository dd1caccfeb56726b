"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same code can run a fifth or more slower or
faster from one minute to the next, and the repository's own timings
move with it.  ``measure.py`` times :func:`calibrate` right before and right after
every repetition and scales the repetition's time by
``REFERENCE_S / calibration``, which reports it in seconds of a machine
running the reference computation in ``REFERENCE_S``.

The computation uses only the standard library, numpy and scipy — never
the repository's code, so a change to the repository cannot move it —
and mixes the kinds of work the workloads do: interpreted table lookups
and XORs (the scalar decoder), small-object and dict churn (chain
exploration and fault replay), vectorized integer arithmetic (the batch
codec) and sparse matrix-vector products (the transient solver).
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy import sparse

#: Seconds :func:`calibrate` took on the reference machine (a 2-vCPU
#: 2.0 GHz Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.14


@functools.lru_cache(maxsize=None)
def _data():
    rng = np.random.default_rng(20050307)
    table = rng.permutation(256).astype(np.int64)
    words = rng.integers(0, 256, size=(4096, 18), dtype=np.int64)
    matrix = sparse.random(4_000, 4_000, density=2.5e-3, random_state=rng, format="csr")
    return table, words, matrix


def _interpreted() -> int:
    exp = list(range(1, 256)) * 2
    log = [0] * 256
    for i, value in enumerate(exp[:255]):
        log[value] = i
    acc = 0
    for i in range(1, 500_000):
        a, b = (i * 7) & 255 or 1, (i * 13) & 255 or 1
        acc ^= exp[log[a] + log[b]]
    return acc


def _objects() -> int:
    total = 0
    for _ in range(4):  # four small explorations keep the peak memory low
        seen = {}
        queue = [(0, 0, ())]
        while queue and len(seen) < 5_000:
            state = queue.pop()
            if state in seen:
                continue
            seen[state] = len(seen)
            er, re, tail = state
            queue.append((er + 1, re, tail[-3:] + (re,)))
            queue.append((er, re + 1, tail[-3:] + (er,)))
        total += len(seen)
    return total


def _vectorized(table: np.ndarray, words: np.ndarray) -> int:
    for _ in range(120):
        words = table[(words * 3 + 1) & 255] ^ words[:, ::-1]
    return int(words.sum())


def _solver(matrix: sparse.csr_matrix) -> float:
    p = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(400):
        p = matrix.T @ p + 0.5 * p
        p /= p.sum()
    return float(p.max())


def calibrate() -> float:
    """Wall seconds of one run of the reference computation."""
    table, words, matrix = _data()
    t0 = time.perf_counter()
    _interpreted()
    _objects()
    _vectorized(table, words)
    _solver(matrix)
    return time.perf_counter() - t0
