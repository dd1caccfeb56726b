"""Monte-Carlo campaign throughput: scalar loop vs batched engine.

Runs the same 10k-trial codec-level fault-injection campaign through the
original one-trial-at-a-time estimator and the chunked batch engine
(single process and ``workers=4``), verifies the batch engine's
worker-count invariance on the fly, and records before/after
trials-per-second in ``benchmarks/results/batch_campaign.txt``.

Two fault environments bracket the regimes the paper cares about:

* ``mc-visible`` — the inflated rate used by the cross-validation
  benches, where nearly half the trials carry faults (the batch engine's
  worst case: heavy scalar fallback);
* ``near-paper`` — a 10x lower rate approaching the paper's operating
  points, where almost every word is clean and the vectorized fast path
  dominates.
"""

import numpy as np

from repro.analysis.tables import _render  # reuse the aligner
from repro.rs import RSCode
from repro.simulator import (
    simulate_fail_probability,
    simulate_fail_probability_batched,
)

from timing import timed

CODE = RSCode(18, 16, m=8)
T_END = 48.0
TRIALS = 10_000
SEED = 2005

ENVIRONMENTS = [
    ("mc-visible", 2e-3 / 24.0),
    ("near-paper", 2e-4 / 24.0),
]


def run_comparison():
    rows = []
    for label, lam in ENVIRONMENTS:
        _, t_scalar = timed(
            simulate_fail_probability,
            "simplex",
            CODE,
            T_END,
            lam,
            0.0,
            TRIALS,
            rng=np.random.default_rng(SEED),
        )
        est1, t_batch = timed(
            simulate_fail_probability_batched,
            "simplex",
            CODE,
            T_END,
            lam,
            0.0,
            TRIALS,
            seed=SEED,
        )
        est4, t_batch4 = timed(
            simulate_fail_probability_batched,
            "simplex",
            CODE,
            T_END,
            lam,
            0.0,
            TRIALS,
            seed=SEED,
            workers=4,
        )
        assert est1 == est4, "batch engine must be worker-count invariant"
        rows.append(
            [
                label,
                f"{TRIALS / t_scalar:,.0f}",
                f"{TRIALS / t_batch:,.0f}",
                f"{TRIALS / t_batch4:,.0f}",
                f"{t_scalar / t_batch:.1f}x",
            ]
        )
        assert t_batch < t_scalar, (
            f"{label}: batch engine slower than scalar "
            f"({t_batch:.2f}s vs {t_scalar:.2f}s)"
        )
    return rows


def test_campaign_throughput(benchmark, save_table):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    save_table(
        "batch_campaign",
        f"{TRIALS:,}-trial simplex RS(18,16) campaign, trials/sec "
        "(before = scalar loop, after = batch engine)",
        _render(
            ["environment", "scalar t/s", "batch t/s", "batch x4 t/s", "speedup"],
            rows,
        ),
    )
