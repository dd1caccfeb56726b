"""Discrete-event model of a memory controller with scrub interference.

The analytic overhead model (:mod:`repro.memory.overhead`) assumes the
scrubber's duty cycle translates one-for-one into lost availability.
This DES checks that assumption with queueing in the picture: read
requests arrive as a Poisson stream, each occupying the controller for a
decode latency (:mod:`repro.rs.pipeline`), while a scrubber walks every
word once per period.  The controller serves reads and scrub word-steps
in one FIFO queue, in arrival order, and never preempts a step it has
started; a scrub step takes no priority over a read, nor a read over a
scrub step.

With one queue, arrival order and a constant service time ``s``, the
departure of the ``i``-th arrival is Lindley's recursion
``D_i = max(D_{i-1}, T_i) + s``, which a prefix maximum evaluates for a
whole array at once: ``D_i = (i+1)·s + max_{j<=i}(T_j - j·s)``.

Outputs: measured utilization split (reads / scrub / idle), read latency
statistics (mean and tail), and the effective availability — ready to
compare against the closed-form duty cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..rs.pipeline import decoder_timing

#: Arrivals generated per block of each stream: memory stays bounded
#: whatever the read rate, scrub step or horizon.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ControllerStats:
    """Aggregate results of one controller simulation."""

    simulated_seconds: float
    reads_served: int
    scrub_words_done: int
    read_busy_seconds: float
    scrub_busy_seconds: float
    mean_read_latency_s: float
    p99_read_latency_s: float
    utilization: float          # fraction of time busy (reads + scrub)
    scrub_duty: float           # fraction of time spent scrubbing
    availability: float         # 1 - scrub_duty (analytic comparison)


def _arrival_blocks(gaps: Callable[[], np.ndarray]) -> Iterator[np.ndarray]:
    """Arrival times in sorted blocks: the running sum of ``gaps()`` blocks.

    The first gap of a block is added to the last time of the previous
    one and ``np.cumsum`` adds the rest in order, so each time equals an
    event loop's sequential ``t + gap`` bit for bit.
    """
    t = 0.0
    while True:
        times = gaps()
        times[0] += t
        np.cumsum(times, out=times)
        t = float(times[-1])
        yield times


def _merged_arrivals(
    reads: Iterator[np.ndarray], scrubs: Iterator[np.ndarray], horizon: float
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(times, is_read)`` blocks of both streams in time order, before ``horizon``.

    Each block takes every pending arrival up to the earlier of the two
    streams' pending last times, so no later arrival precedes it.  A read
    and a scrub step at the same instant are served read first.
    """
    r, s = next(reads), next(scrubs)
    while True:
        cut = min(r[-1], s[-1])
        last = cut >= horizon
        bound, side = (horizon, "left") if last else (cut, "right")
        nr = int(np.searchsorted(r, bound, side))
        ns = int(np.searchsorted(s, bound, side))
        times = np.concatenate((r[:nr], s[:ns]))
        order = np.argsort(times, kind="stable")
        yield times[order], order < nr
        if last:
            return
        r = r[nr:] if nr < r.size else next(reads)
        s = s[ns:] if ns < s.size else next(scrubs)


def simulate_controller(
    n: int,
    k: int,
    num_words: int,
    scrub_period_s: float,
    read_rate_per_s: float,
    sim_seconds: float,
    clock_hz: float = 50e6,
    rng: Optional[np.random.Generator] = None,
) -> ControllerStats:
    """Run the controller DES and return measured statistics.

    The scrubber spreads its pass uniformly over the period (one word
    every ``period / num_words`` seconds), the common "patrol scrub"
    policy; each word-step and each read costs one decode latency.
    Read gaps are exponential draws from ``rng``.  Work stops at the
    first arrival whose service would end past ``sim_seconds``: start
    times never decrease, so no later arrival could finish in time.

    Reads are drawn from ``rng`` in blocks of ``_BLOCK``, including some
    past the horizon, so ``rng`` ends in a different state than a loop
    drawing one gap per served read would leave it in; the read times
    themselves are the same.
    """
    if num_words <= 0:
        raise ValueError("num_words must be positive")
    if scrub_period_s <= 0:
        raise ValueError("scrub period must be positive")
    if sim_seconds <= 0:
        raise ValueError("sim_seconds must be positive")
    if read_rate_per_s < 0:
        raise ValueError("read rate must be nonnegative")
    if rng is None:
        rng = np.random.default_rng()

    service_s = decoder_timing(n, k).latency_cycles / clock_hz
    scrub_step_s = scrub_period_s / num_words

    if read_rate_per_s > 0:
        scale = 1.0 / read_rate_per_s
        reads = _arrival_blocks(lambda: rng.exponential(scale, _BLOCK))
    else:
        # no reads: a stream whose one pending arrival never comes
        reads = itertools.repeat(np.full(1, np.inf))
    scrubs = _arrival_blocks(lambda: np.full(_BLOCK, scrub_step_s))

    controller_free_at = 0.0
    latencies: List[np.ndarray] = []
    reads_served = 0
    scrub_done = 0
    for times, is_read in _merged_arrivals(reads, scrubs, sim_seconds):
        # Lindley's recursion from the previous block's last departure
        ahead = np.arange(times.size) * service_s
        departures = np.maximum.accumulate(times - ahead)
        np.maximum(departures, controller_free_at, out=departures)
        departures += ahead + service_s
        late = np.flatnonzero(departures > sim_seconds)
        served = int(late[0]) if late.size else times.size
        read = np.flatnonzero(is_read[:served])
        reads_served += read.size
        scrub_done += served - read.size
        latencies.append(departures[read] - times[read])
        if late.size:
            break
        if served:
            controller_free_at = float(departures[-1])

    lat = np.concatenate(latencies) if reads_served else np.asarray([0.0])
    read_busy = reads_served * service_s
    scrub_busy = scrub_done * service_s
    utilization = (read_busy + scrub_busy) / sim_seconds
    scrub_duty = scrub_busy / sim_seconds
    return ControllerStats(
        simulated_seconds=sim_seconds,
        reads_served=reads_served,
        scrub_words_done=scrub_done,
        read_busy_seconds=read_busy,
        scrub_busy_seconds=scrub_busy,
        mean_read_latency_s=float(lat.mean()),
        p99_read_latency_s=float(np.percentile(lat, 99)),
        utilization=utilization,
        scrub_duty=scrub_duty,
        availability=1.0 - scrub_duty,
    )
