"""Exact outcome counts of batched Monte-Carlo cells that replay events.

Every cell below has failures of both kinds (corrupted and unreadable)
at both seeds, and together they cover each way a chunk replays its
trials: permanent faults under exponential scrubs (simplex and duplex),
periodic scrubs, a stuck-at (``!``) pattern under scrubs, a pattern
under a rate schedule, and SEU-only trials without scrubs.  The counts
were recorded with the per-trial ``SimplexSystem``/``DuplexSystem``
replay that the array engine replaced; the engine must reproduce them
exactly, because it draws the same streams and runs the same physics.
"""

import pytest

from repro.rs import RSCode
from repro.simulator.montecarlo import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
T_END_HOURS = 48.0
TRIALS = 1024
CHUNK_SIZE = 256

#: name -> (arrangement, SEU /bit/day, permanent /symbol/day,
#: scrub period hours, exponential scrubs, pattern, schedule)
CELLS = {
    "simplex-permanent-exp-scrub": ("simplex", 2e-3, 1e-2, 1.0, True, None, None),
    "duplex-permanent-exp-scrub": ("duplex", 2e-2, 8e-2, 1.0, True, None, None),
    "simplex-periodic-scrub": ("simplex", 2e-3, 1e-2, 6.0, False, None, None),
    "duplex-periodic-scrub": ("duplex", 2e-2, 8e-2, 6.0, False, None, None),
    "duplex-stuck-pattern-scrub": (
        "duplex", 1e-2, 4e-2, 1.0, True, "0.7*1BIT+0.3*MBU:2!", None
    ),
    "simplex-scheduled-pattern": (
        "simplex", 1e-3, 0.0, None, False, "0.8*1BIT+0.2*MBU:3",
        "42.0h@1.0,6.0h@8.0",
    ),
    "simplex-seu-only": ("simplex", 2e-3, 0.0, None, False, None, None),
}

#: (cell, seed) -> (correct, corrupted, unreadable)
PINNED = {
    ("simplex-permanent-exp-scrub", 2005): (948, 12, 64),
    ("simplex-permanent-exp-scrub", 7): (940, 9, 75),
    ("duplex-permanent-exp-scrub", 2005): (831, 15, 178),
    ("duplex-permanent-exp-scrub", 7): (802, 18, 204),
    ("simplex-periodic-scrub", 2005): (926, 15, 83),
    ("simplex-periodic-scrub", 7): (915, 12, 97),
    ("duplex-periodic-scrub", 2005): (600, 62, 362),
    ("duplex-periodic-scrub", 7): (595, 72, 357),
    ("duplex-stuck-pattern-scrub", 2005): (965, 4, 55),
    ("duplex-stuck-pattern-scrub", 7): (977, 1, 46),
    ("simplex-scheduled-pattern", 2005): (893, 6, 125),
    ("simplex-scheduled-pattern", 7): (899, 7, 118),
    ("simplex-seu-only", 2005): (903, 3, 118),
    ("simplex-seu-only", 7): (905, 5, 114),
}


@pytest.mark.parametrize(
    "cell, seed", sorted(PINNED), ids=[f"{c}@{s}" for c, s in sorted(PINNED)]
)
def test_outcome_counts_pinned(cell, seed):
    arrangement, seu, perm, scrub, exponential, pattern, schedule = CELLS[cell]
    estimate = simulate_fail_probability_batched(
        arrangement,
        CODE,
        T_END_HOURS,
        seu / 24.0,
        perm / 24.0,
        TRIALS,
        seed=seed,
        scrub_period=scrub,
        scrub_exponential=exponential,
        chunk_size=CHUNK_SIZE,
        pattern=pattern,
        schedule=schedule,
    )
    correct, corrupted, unreadable = PINNED[cell, seed]
    assert estimate.outcome_counts == {
        "correct": correct,
        "corrupted": corrupted,
        "unreadable": unreadable,
    }
    assert estimate.failures == corrupted + unreadable


def test_every_cell_fails_both_ways():
    """The pins bind: each cell has silent and detected failures."""
    for (_cell, _seed), (_correct, corrupted, unreadable) in PINNED.items():
        assert corrupted > 0 and unreadable > 0
    assert {cell for cell, _seed in PINNED} == set(CELLS)
