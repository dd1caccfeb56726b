"""Adaptive stopping: trials saved vs estimate quality retained.

``--stop-rel-ci`` trades a controlled amount of interval width for
(sometimes dramatic) savings in Monte-Carlo trials.  This bench sweeps
the target relative halfwidth on a fixed seeded cell, recording how
many trials each target actually consumed, and checks the two promises
that make the feature usable: the full-budget point estimate stays
inside every early stop's reported interval, and tighter targets
consume monotonically more trials.
"""

from repro.analysis.tables import _render, format_ber
from repro.rs import RSCode
from repro.runtime import RuntimeConfig, StoppingRule
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0
BUDGET = 3000
REL_CI_TARGETS = (2.0, 1.0, 0.6, 0.4)


def _simulate(stop=None):
    runtime = RuntimeConfig(stop=stop)  # one worker: serial
    return simulate_fail_probability_batched(
        "simplex",
        CODE,
        48.0,
        LAM,
        0.0,
        BUDGET,
        seed=17,
        chunk_size=100,
        runtime=runtime,
    )


def run_stopping_sweep():
    reference = _simulate()
    rows = []
    for rel_ci in REL_CI_TARGETS:
        stop = StoppingRule(rel_ci=rel_ci, min_trials=200)
        estimate = _simulate(stop=stop)
        rows.append((rel_ci, estimate))
    return reference, rows


def test_adaptive_stopping_savings(benchmark, save_table):
    reference, rows = benchmark(run_stopping_sweep)
    trials_used = []
    table_rows = []
    for rel_ci, estimate in rows:
        # honesty: the full-budget estimate lies inside the early CI
        assert estimate.ci_low <= reference.probability <= estimate.ci_high
        trials_used.append(estimate.trials)
        halfwidth = (estimate.ci_high - estimate.ci_low) / 2.0
        achieved = halfwidth / estimate.probability if estimate.probability else float("inf")
        table_rows.append(
            [
                f"{rel_ci:.1f}",
                str(estimate.trials),
                f"{100.0 * (1.0 - estimate.trials / reference.trials):.0f}%",
                format_ber(estimate.probability),
                f"{achieved:.2f}",
                "yes" if estimate.stopped_early else "no",
            ]
        )
    # tighter targets must consume at least as many trials
    assert all(a <= b for a, b in zip(trials_used, trials_used[1:]))
    # the loosest target must actually save something on this cell
    assert rows[0][1].stopped_early
    save_table(
        "adaptive_stopping",
        f"Adaptive stopping on simplex seu=2e-3 (budget {BUDGET}, "
        f"full-run BER {format_ber(reference.probability)})",
        _render(
            [
                "rel-ci target",
                "trials used",
                "saved",
                "BER",
                "achieved rel-hw",
                "stopped early",
            ],
            table_rows,
        ),
    )
