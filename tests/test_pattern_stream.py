"""Pcg64Draws and SkippedIntegers give the ``Generator``'s bytes.

The batch engine draws pattern arrivals through
:class:`~repro.simulator.patterns.Pcg64Draws`, which recomputes numpy's
``random``, ``uniform`` and bounded scalar ``integers`` from raw PCG64
words.  NumPy keeps raw bit-generator streams stable across releases
but not the streams of ``Generator`` methods, so these tests pin the
replay to the ``Generator`` installed: equal values, an equal
``bit_generator.state`` after :meth:`~Pcg64Draws.close` (buffered
32-bit half included), and equal draws after it.  The same holds for
:class:`~repro.simulator.patterns.SkippedIntegers`, the chunk's data
draw moved past with one ``advance`` and read back row by row.
"""

import numpy as np
import pytest

from repro.simulator.patterns import (
    Pcg64Draws,
    SkippedIntegers,
    arrival_cells,
    parse_pattern,
    parse_schedule,
)

#: Widths ``high - low`` of the scalar ``integers`` draws: the sampler's
#: small ranges; ranges whose Lemire bound rejects about half, a quarter
#: or only a zero leftover of the draws; the full 32-bit range (no
#: rejection step); and a one-value range, which draws no word.
WIDTHS = (1, 2, 3, 18, 144, 256, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32)


def _script(seed):
    """A seeded run of ``(method, args)`` calls mixing all three methods."""
    rng = np.random.default_rng([0x5354, seed])
    calls = []
    for _ in range(int(rng.integers(0, 40))):
        method = int(rng.integers(0, 3))
        if method == 0:
            calls.append(("random", (int(rng.integers(0, 5)),)))
        elif method == 1:
            low = float(rng.choice([0.0, -3.5, 12.25]))
            high = low + float(rng.uniform(0.0, 60.0))
            calls.append(("uniform", (low, high, int(rng.integers(0, 5)))))
        else:
            low = int(rng.choice([0, 1, -2, -17, -(2**31)]))
            width = WIDTHS[int(rng.integers(len(WIDTHS)))]
            calls.append(("integers", (low, low + width)))
    return calls, bool(rng.random() < 0.5), bool(rng.random() < 0.5)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _words_between(start, end, limit=4096):
    """How many raw words lead from PCG64 state ``start`` to ``end``."""
    probe = np.random.PCG64()
    probe.state = start
    for words in range(limit):
        if probe.state["state"] == end["state"]:
            return words
        probe.random_raw()
    raise AssertionError("end state not reached")


def test_interleaved_calls_match_generator():
    """240 seeded call scripts, with a buffered half carried in and out."""
    for seed in range(240):
        calls, carry_in, carry_out = _script(seed)
        want = np.random.default_rng(seed)
        got = np.random.default_rng(seed)
        if carry_in:
            assert want.integers(0, 7) == got.integers(0, 7)
        with Pcg64Draws(got) as draws:
            for method, args in calls:
                expected = getattr(want, method)(*args)
                value = getattr(draws, method)(*args)
                assert _same(value, expected), (seed, method, args)
        assert got.bit_generator.state == want.bit_generator.state, seed
        if carry_out:
            assert got.integers(0, 7) == want.integers(0, 7), seed
        assert _same(got.integers(0, 18, size=7), want.integers(0, 18, size=7))
        assert _same(got.random(3), want.random(3)), seed


@pytest.mark.parametrize("width", [2**31 + 1, 3 * 2**30 + 1])
def test_rejection_loop_consumes_extra_halves(width):
    want = np.random.default_rng(11)
    got = np.random.default_rng(11)
    start = got.bit_generator.state
    with Pcg64Draws(got) as draws:
        values = [draws.integers(-5, width - 5) for _ in range(64)]
    assert values == [int(want.integers(-5, width - 5)) for _ in range(64)]
    assert got.bit_generator.state == want.bit_generator.state
    # 64 draws without a rejection use 32 words.
    assert _words_between(start, got.bit_generator.state) > 32


def test_full_32_bit_range_takes_one_half_per_draw():
    want = np.random.default_rng(12)
    got = np.random.default_rng(12)
    start = got.bit_generator.state
    with Pcg64Draws(got) as draws:
        values = [draws.integers(-(2**31), 2**31) for _ in range(9)]
    assert values == [int(want.integers(-(2**31), 2**31)) for _ in range(9)]
    assert got.bit_generator.state == want.bit_generator.state
    assert _words_between(start, got.bit_generator.state) == 5


@pytest.mark.parametrize("carry_in", [False, True])
def test_one_value_range_and_empty_replay_draw_nothing(carry_in):
    rng = np.random.default_rng(13)
    if carry_in:
        rng.integers(0, 7)
    before = rng.bit_generator.state
    with Pcg64Draws(rng) as draws:
        assert draws.integers(-4, -3) == -4
        assert draws.random(0).shape == (0,)
        assert draws.uniform(0.0, 5.0, 0).shape == (0,)
    assert rng.bit_generator.state == before
    with Pcg64Draws(rng):
        pass
    assert rng.bit_generator.state == before


def test_buffered_half_crosses_both_ends():
    """An odd draw before the replay hands it a half; an odd draw inside
    it leaves one for the generator's next vectorized draw."""
    want = np.random.default_rng(14)
    got = np.random.default_rng(14)
    assert want.integers(0, 9) == got.integers(0, 9)
    assert got.bit_generator.state["has_uint32"] == 1
    with Pcg64Draws(got) as draws:
        assert draws.integers(0, 18) == want.integers(0, 18)  # the carried half
        assert _same(draws.random(2), want.random(2))
        assert draws.integers(0, 18) == want.integers(0, 18)  # a new word
    assert got.bit_generator.state["has_uint32"] == 1
    assert got.bit_generator.state == want.bit_generator.state
    assert _same(got.integers(0, 2, size=5), want.integers(0, 2, size=5))


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.Philox, np.random.MT19937, np.random.SFC64, np.random.PCG64DXSM],
)
def test_other_bit_generators_raise(bit_generator):
    rng = np.random.Generator(bit_generator(1))
    with pytest.raises(TypeError, match=bit_generator.__name__):
        Pcg64Draws(rng)


@pytest.mark.parametrize("low,high", [(0, 2**32 + 1), (-(2**40), 0), (3, 3), (5, 2)])
def test_ranges_it_cannot_draw_raise(low, high):
    with Pcg64Draws(np.random.default_rng(15)) as draws:
        with pytest.raises(ValueError, match="ranges of 1 to 2\\*\\*32"):
            draws.integers(low, high)


PATTERNS = (
    "1BIT",
    "0.82*1BIT+0.1*MBU:3+0.05*ROW:4+0.03*COL:6",
    "0.3*2SYM+0.2*MBU:20!+0.2*COL!+0.1*ROW+0.2*3SYM!",
    "1e-9*1BIT+1*ROW:2+1e-9*COL",
)


@pytest.mark.parametrize("spec", PATTERNS)
def test_shape_picks_equal_generator_choice(spec):
    pattern = parse_pattern(spec)
    for seed in range(50):
        count = seed % 7
        want = np.random.default_rng(seed)
        expected = want.choice(len(pattern.terms), count, p=pattern.probabilities)
        got = np.random.default_rng(seed)
        assert _same(pattern.pick(got, count), expected)
        assert got.bit_generator.state == want.bit_generator.state
        replayed = np.random.default_rng(seed)
        with Pcg64Draws(replayed) as draws:
            assert _same(pattern.pick(draws, count), expected)
        assert replayed.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize(
    "spec", ["42.0h@1.0,6.0h@8.0", "1.5h@1.0,0.5h@0.0,2h@3.0", "7h@2.5"]
)
def test_window_picks_equal_generator_choice(spec):
    """``sample_times`` picks windows as ``Generator.choice(p=)`` does."""
    schedule = parse_schedule(spec)
    t_end = 47.5
    windows = schedule.windows(t_end)
    weights = np.asarray([(e - s) * f for s, e, f in windows])
    starts = np.asarray([s for s, _e, _f in windows])
    spans = np.asarray([e - s for s, e, _f in windows])
    for seed in range(50):
        count = 1 + seed % 6
        want = np.random.default_rng(seed)
        idx = want.choice(len(windows), size=count, p=weights / weights.sum())
        expected = np.sort(starts[idx] + want.uniform(0.0, 1.0, size=count) * spans[idx])
        direct = np.random.default_rng(seed)
        assert _same(schedule.sample_times(direct, t_end, count), expected)
        assert direct.bit_generator.state == want.bit_generator.state
        replayed = np.random.default_rng(seed)
        with Pcg64Draws(replayed) as draws:
            assert _same(schedule.sample_times(draws, t_end, count), expected)
        assert replayed.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("spec", PATTERNS)
def test_arrival_geometry_is_the_same_through_the_replay(spec):
    pattern = parse_pattern(spec)
    for seed in range(40):
        times = list(np.linspace(0.5, 40.0, 1 + seed % 4))
        want = np.random.default_rng(seed)
        expected = arrival_cells(want, pattern, times, 18, 8)
        got = np.random.default_rng(seed)
        with Pcg64Draws(got) as draws:
            assert arrival_cells(draws, pattern, times, 18, 8) == expected
        assert got.bit_generator.state == want.bit_generator.state


# --------------------------------------------------------------------------
# SkippedIntegers: the data draw, skipped and read back
# --------------------------------------------------------------------------


def _row_subsets(rows, k, seed):
    """Random ascending row subsets, plus consecutive rows that share a
    word when ``k`` is odd."""
    pick = np.random.default_rng([0x534B, seed])
    subsets = [np.sort(pick.choice(rows, size=size, replace=False))
               for size in {1, min(rows, 3), rows}]
    if rows > 1:
        start = int(pick.integers(0, rows - 1))
        subsets.append(np.arange(start, start + 2))
    subsets.append(np.arange(rows - 1, rows))  # the last row: a buffered half
    return subsets


@pytest.mark.parametrize("carry_in", [False, True])
@pytest.mark.parametrize("m", [1, 8, 16])
@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("rows", [0, 1, 7, 512])
def test_skip_leaves_the_generator_where_the_draw_does(rows, k, m, carry_in):
    seed = rows * 1000 + k * 10 + m
    want = np.random.default_rng(seed)
    got = np.random.default_rng(seed)
    if carry_in:
        assert want.integers(0, 7) == got.integers(0, 7)
    table = want.integers(0, 1 << m, size=(rows, k))
    skipped = SkippedIntegers(got, rows, k, m)
    assert got.bit_generator.state == want.bit_generator.state
    reader = np.random.PCG64(1)
    for subset in _row_subsets(rows, k, seed) if rows else []:
        assert _same(skipped.take(subset, reader), table[subset]), subset
    assert _same(skipped.table(), table)
    assert skipped.take(np.arange(0), reader).shape == (0, k)
    # Reading back moves nothing on the generator the draw was skipped on.
    assert got.bit_generator.state == want.bit_generator.state
    for _ in range(5):
        assert _same(got.integers(0, 18, size=3), want.integers(0, 18, size=3))
        assert _same(got.random(2), want.random(2))


def test_skip_of_one_value_with_a_carried_half_uses_only_that_half():
    want = np.random.default_rng(16)
    got = np.random.default_rng(16)
    assert want.integers(0, 9) == got.integers(0, 9)
    table = want.integers(0, 256, size=(1, 1))
    skipped = SkippedIntegers(got, 1, 1, 8)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.bit_generator.state["has_uint32"] == 0  # the stale half stays
    assert _same(skipped.table(), table)


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.Philox, np.random.MT19937, np.random.SFC64, np.random.PCG64DXSM],
)
def test_skip_on_other_bit_generators_raises(bit_generator):
    rng = np.random.Generator(bit_generator(1))
    with pytest.raises(TypeError, match=bit_generator.__name__):
        SkippedIntegers(rng, 4, 4, 8)


@pytest.mark.parametrize("m", [33, 40, -1])
def test_skip_of_a_range_it_cannot_draw_raises(m):
    rng = np.random.default_rng(17)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="ranges of 1 to 2\\*\\*32"):
        SkippedIntegers(rng, 4, 4, m)
    assert rng.bit_generator.state == before


def test_rows_outside_the_draw_raise():
    skipped = SkippedIntegers(np.random.default_rng(18), 4, 3, 8)
    for rows in ([4], [-1], [0, 7]):
        with pytest.raises(IndexError):
            skipped.take(np.asarray(rows))
