"""Batch codec kernels vs the scalar codec: measured speedups.

Acceptance gate of the batch execution layer: on a clean-word batch
(the dominant case in every memory-reliability regime the paper
studies) ``BatchRSCodec.decode_batch`` must be at least 10x faster than
looping the scalar decoder, on a batch where every word carries an
error (the vectorized errors-and-erasures decoder) at least 5x, and
batch encode must beat scalar encode.  A 3-dirty-word batch — the shape
a near-paper-rate Monte-Carlo chunk sends — is reported, not gated: its
time is the per-call fixed cost.  The numbers land in
``benchmarks/results/batch_codec.txt``.
"""

import numpy as np

from repro.analysis.tables import _render  # reuse the aligner
from repro.rs import BatchRSCodec, RSCode

from timing import timed

N, K, M = 18, 16, 8
BATCH = 4096


def make_inputs():
    code = RSCode(N, K, m=M)
    codec = BatchRSCodec(N, K, m=M, scalar=code)
    rng = np.random.default_rng(2005)
    data = rng.integers(0, code.gf.order, size=(BATCH, K))
    clean = codec.encode_batch(data)
    noisy = clean.copy()
    # one random symbol error in every word: no word takes the clean
    # fast path, so this measures the errata decoder alone.
    rows = np.arange(BATCH)
    cols = rng.integers(0, N, size=BATCH)
    noisy[rows, cols] ^= rng.integers(1, code.gf.order, size=BATCH)
    return code, codec, data, clean, noisy


def test_clean_decode_speedup(benchmark, save_table):
    code, codec, data, clean, noisy = make_inputs()
    clean_lists = [row.tolist() for row in clean]

    report = benchmark(codec.decode_batch, clean)
    assert report.clean.all()

    _, t_batch = timed(codec.decode_batch, clean)
    _, t_scalar = timed(lambda: [code.decode(w) for w in clean_lists])
    speedup = t_scalar / t_batch

    _, t_enc_batch = timed(codec.encode_batch, data)
    _, t_enc_scalar = timed(
        lambda: [code.encode(d) for d in data.tolist()]
    )
    enc_speedup = t_enc_scalar / t_enc_batch

    noisy_lists = [row.tolist() for row in noisy]

    def scalar_noisy():
        out = []
        for w in noisy_lists:
            out.append(code.decode(w))
        return out

    _, t_noisy_batch = timed(codec.decode_batch, noisy)
    _, t_noisy_scalar = timed(scalar_noisy)
    noisy_speedup = t_noisy_scalar / t_noisy_batch

    few = noisy[:3]
    few_lists = noisy_lists[:3]
    calls = 500
    _, t_few_batch = timed(
        lambda: [codec.decode_batch(few) for _ in range(calls)]
    )
    _, t_few_scalar = timed(
        lambda: [[code.decode(w) for w in few_lists] for _ in range(calls)]
    )
    few_words = 3 * calls

    rows = [
        [
            "decode, all words clean",
            f"{BATCH / t_scalar:,.0f}",
            f"{BATCH / t_batch:,.0f}",
            f"{speedup:.1f}x",
        ],
        [
            "decode, 1 error/word (all dirty)",
            f"{BATCH / t_noisy_scalar:,.0f}",
            f"{BATCH / t_noisy_batch:,.0f}",
            f"{noisy_speedup:.1f}x",
        ],
        [
            "decode, batches of 3 dirty words",
            f"{few_words / t_few_scalar:,.0f}",
            f"{few_words / t_few_batch:,.0f}",
            f"{t_few_scalar / t_few_batch:.1f}x",
        ],
        [
            "encode",
            f"{BATCH / t_enc_scalar:,.0f}",
            f"{BATCH / t_enc_batch:,.0f}",
            f"{enc_speedup:.1f}x",
        ],
    ]
    save_table(
        "batch_codec",
        f"Batch vs scalar RS({N},{K}) codec, batch of {BATCH} words (words/sec)",
        _render(["operation", "scalar w/s", "batch w/s", "speedup"], rows),
    )
    assert speedup >= 10.0, (
        f"clean-word batch decode only {speedup:.1f}x faster than scalar"
    )
    assert enc_speedup > 1.0
    assert noisy_speedup >= 5.0, (
        f"dirty-word batch decode only {noisy_speedup:.1f}x faster than scalar"
    )


def test_batch_results_identical_to_scalar(benchmark):
    """The timed configurations really are bit-identical (spot check)."""
    code, codec, data, clean, noisy = make_inputs()
    report = benchmark.pedantic(
        codec.decode_batch, args=(noisy,), rounds=1, iterations=1
    )
    for i in (0, 1, BATCH // 2, BATCH - 1):
        assert report.result(i).codeword == clean[i].tolist()
        assert report.result(i).data == data[i].tolist()
