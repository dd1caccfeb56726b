"""Scenario-engine throughput: i.i.d. fast path vs correlated patterns.

The batch engine keeps a vectorized-XOR fast path for the paper's
i.i.d. physics; correlated fault patterns disable it and replay every
dirty trial through the bit-level systems.  This bench puts a number on
that cost — trials/sec for the legacy i.i.d. path, the same physics
routed through the pattern sampler, and a fully correlated mixture —
and checks the robustness accounting that rides along.  Results land in
``benchmarks/results/scenarios.txt``.
"""

from repro.analysis.tables import _render  # reuse the aligner
from repro.rs import RSCode
from repro.simulator import simulate_fail_probability_batched

from timing import timed

N, K, M = 18, 16, 8
TRIALS = 2000
T_END = 48.0
SEU = 2e-3 / 24.0  # per-bit-hour, MC-visible band

CONFIGS = [
    ("iid (legacy fast path)", None),
    ("iid via pattern sampler", "1BIT"),
    ("mixed correlated field", "0.82*1BIT+0.1*MBU:3+0.05*ROW:4+0.03*COL:6"),
    ("beyond-capacity bursts", "0.4*1BIT+0.35*ROW:6+0.25*MBU:8"),
]


def run_one(pattern):
    return simulate_fail_probability_batched(
        "simplex",
        RSCode(N, K, m=M),
        T_END,
        seu_per_bit=SEU,
        erasure_per_symbol=0.0,
        trials=TRIALS,
        seed=2005,
        chunk_size=512,
        pattern=pattern,
    )


def test_scenario_throughput(benchmark, save_table):
    report = benchmark.pedantic(
        run_one, args=(CONFIGS[2][1],), rounds=1, iterations=1
    )
    assert report.trials == TRIALS

    rows = []
    throughput = {}
    for label, pattern in CONFIGS:
        estimate, seconds = timed(run_one, pattern)
        rate = TRIALS / seconds
        throughput[label] = rate
        rows.append(
            [
                label,
                f"{rate:,.0f}",
                f"{estimate.probability:.4f}",
                str(estimate.silent_miscorrections),
                str(estimate.detected_uncorrectable),
            ]
        )
        # failure mass must split exactly into the two robustness buckets
        assert estimate.failures == (
            estimate.silent_miscorrections + estimate.detected_uncorrectable
        )
    save_table(
        "scenarios",
        f"Scenario engine throughput, RS({N},{K}), {TRIALS} trials "
        f"over {T_END:.0f} h (trials/sec)",
        _render(
            ["physics", "trials/s", "p_fail", "miscorrect", "unreadable"],
            rows,
        ),
    )
    assert all(rate > 0 for rate in throughput.values())
    # the dedicated i.i.d. fast path must not be slower than routing the
    # same physics through the pattern sampler
    assert (
        throughput["iid (legacy fast path)"]
        >= throughput["iid via pattern sampler"]
    )


def test_pattern_estimates_deterministic(benchmark):
    """The timed configuration is seed-deterministic (spot check)."""
    report = benchmark.pedantic(
        run_one, args=(CONFIGS[3][1],), rounds=1, iterations=1
    )
    again = run_one(CONFIGS[3][1])
    assert report.failures == again.failures
    assert report.outcome_counts == again.outcome_counts
