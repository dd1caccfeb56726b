"""Monte-Carlo estimation harnesses.

Three fault-injection validators:

* :func:`gillespie_fail_probability` — stochastic simulation (SSA) of a
  memory model's *own* transition rule.  Converges to the CTMC transient
  solution by construction, so it validates the analytical solvers.
* :func:`simulate_fail_probability` — bit-level fault injection through
  the real codec and arbiter (:mod:`repro.simulator.systems`).  Validates
  that the paper's Markov abstraction (erasures-as-located faults, flags,
  masking, capability conditions) tracks "physical" behaviour, including
  effects the chains idealize away (mis-corrections, benign stuck-ats,
  repeated SEUs on one symbol).  One trial at a time, trusted reference.
* :func:`simulate_fail_probability_batched` — the same physics executed
  by the batch layer.  Trials come in seed blocks of ``chunk_size``;
  each block draws its trials' data, fault events and scrub instants
  vectorized from its own spawned RNG stream (:func:`draw_chunk`);
  correlated-pattern arrivals are drawn from the stream's raw PCG64
  words (:class:`~repro.simulator.patterns.Pcg64Draws`), byte for byte
  what one ``Generator`` call per draw gives.
  Trials without a fault event read back correct by construction, and
  the data draw is skipped, not made: only a trial with a stuck cell
  reads its symbols back from the stream, and a flip-only trial
  replays on the all-zero word, which RS linearity makes equivalent.
  The fault-bearing trials run through one array engine
  (:func:`replay_batch`) that applies
  the events between two scrubs at once, runs each scrub as one batch
  read over every trial that has it (``decode_batch``, plus vectorized
  erasure recovery and :func:`decide_batch` for duplex pairs), and
  decodes every final read in one more batch.  Blocks are dispatched in
  tasks (:class:`TaskSpec`) of consecutive blocks whose fault-bearing
  trials share one replay; the caller's executor (or an opt-in
  ``workers=N`` pool) distributes tasks across processes.  Because
  every block owns an independent spawned ``SeedSequence``, every
  trial's replay depends on its own events alone, and the aggregation
  is a commutative sum over blocks, a fixed ``(seed, trials,
  chunk_size)`` triple yields an identical :class:`FailureEstimate` for
  any executor, worker count and task grouping.

The scalar :class:`SimplexSystem`/:class:`DuplexSystem` replay stays the
oracle of the array engine: :func:`simulate_fail_probability` runs it
one trial at a time (``benchmarks/bench_xval_montecarlo.py`` checks it
against the chains), and the ``mc-replay-scalar`` verify target
compares the two trial by trial on the same events.  Campaigns run the
array engine only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..memory.base import FAIL, MemoryMarkovModel
from ..obs import trace
from ..perf import PerfCounters, merge_counter_dicts
from ..rs import BatchRSCodec, RSCode
from ..runtime import ChunkSupervisor, RuntimeConfig, seed_key
from ..stats import AdaptiveStopper, StreamingEstimator
from ..stats.intervals import wilson_interval  # noqa: F401  (moved; re-exported)
from .arbiter import decide_batch
# Re-exported so that benchmarks/e2e/spans.py, which wraps these call
# sites where it finds them, still finds them bound here.
from .arbiter import decide_from_decodes, recover_erasures  # noqa: F401
from .patterns import expand_arrivals  # noqa: F401
from .faults import (
    merge_event_streams,
    sample_permanent_events,
    sample_seu_events,
    scrub_schedule,
)
from .patterns import (
    IID_1BIT,
    FaultPattern,
    Pcg64Draws,
    RateSchedule,
    SkippedIntegers,
    arrival_cells,
    check_schedule_legs,
    format_pattern,
    format_schedule,
    parse_pattern,
    parse_schedule,
    sample_pattern_events,
)
from .systems import DuplexSystem, ReadOutcome, SimplexSystem

PatternLike = Union[str, FaultPattern, None]
ScheduleLike = Union[str, "RateSchedule", None]


@dataclass(frozen=True)
class FailureEstimate:
    """A Monte-Carlo failure-probability estimate with a Wilson interval."""

    probability: float
    trials: int
    failures: int
    ci_low: float
    ci_high: float
    outcome_counts: Optional[Dict[str, int]] = None
    #: True when an adaptive stopping rule ended the run before the full
    #: trial budget; ``trials`` then counts only the chunks actually used.
    stopped_early: bool = False

    def consistent_with(self, p: float) -> bool:
        """True if ``p`` lies inside the 95% confidence interval."""
        return self.ci_low <= p <= self.ci_high

    @property
    def silent_miscorrections(self) -> Optional[int]:
        """Reads that "succeeded" with wrong data (decoder miscorrected).

        The headline robustness casualty under beyond-capacity
        correlated faults: the i.i.d. analytic model cannot see these.
        ``None`` when the estimator did not classify outcomes.
        """
        if self.outcome_counts is None:
            return None
        return self.outcome_counts.get(ReadOutcome.CORRUPTED.value, 0)

    @property
    def detected_uncorrectable(self) -> Optional[int]:
        """Reads the decoder/arbiter refused — failures, but *detected*."""
        if self.outcome_counts is None:
            return None
        return self.outcome_counts.get(ReadOutcome.UNREADABLE.value, 0)


# --------------------------------------------------------------------------
# SSA on the Markov model itself
# --------------------------------------------------------------------------


def gillespie_fail_probability(
    model: MemoryMarkovModel,
    t_end: float,
    trials: int,
    rng: Optional[np.random.Generator] = None,
) -> FailureEstimate:
    """Estimate ``P_Fail(t_end)`` by direct SSA on the model's transitions.

    Each trial walks the chain with exponential holding times until
    ``t_end`` or absorption into FAIL.  The estimate converges to the
    transient CTMC solution, making this an end-to-end check of the
    chain construction *and* the numerical solvers.
    """
    if rng is None:
        rng = np.random.default_rng()
    failures = 0
    for _ in range(trials):
        state = model.initial_state()
        t = 0.0
        while True:
            moves = list(model.transitions(state))
            total = sum(rate for _s, rate in moves)
            if total <= 0.0:
                break  # absorbing
            t += rng.exponential(1.0 / total)
            if t >= t_end:
                break
            pick = rng.uniform(0.0, total)
            acc = 0.0
            for nxt, rate in moves:
                acc += rate
                if pick <= acc:
                    state = nxt
                    break
        if state == FAIL:
            failures += 1
    low, high = wilson_interval(failures, trials)
    return FailureEstimate(failures / trials, trials, failures, low, high)


# --------------------------------------------------------------------------
# bit-level fault injection through the codec
# --------------------------------------------------------------------------


def simulate_read_outcome(
    arrangement: str,
    code: RSCode,
    t_end: float,
    seu_per_bit: float,
    erasure_per_symbol: float,
    rng: np.random.Generator,
    scrub_period: float | None = None,
    scrub_exponential: bool = False,
    pattern: PatternLike = None,
    schedule: ScheduleLike = None,
) -> ReadOutcome:
    """One fault-injection trial: inject events over ``[0, t_end]``, then read.

    ``arrangement`` is ``"simplex"`` or ``"duplex"``.  Rates share the time
    unit of ``t_end`` and ``scrub_period``.  ``pattern``/``schedule``
    switch the transient process from the paper's i.i.d. SEU model to a
    correlated compound-Poisson mixture (:mod:`repro.simulator.patterns`);
    the base permanent-fault process is unaffected.
    """
    if arrangement == "simplex":
        system: SimplexSystem | DuplexSystem = SimplexSystem(code, rng=rng)
        n_modules = 1
    elif arrangement == "duplex":
        system = DuplexSystem(code, rng=rng)
        n_modules = 2
    else:
        raise ValueError(f"unknown arrangement {arrangement!r}")

    use_patterns = pattern is not None or schedule is not None
    if use_patterns:
        pat = parse_pattern(pattern) if pattern is not None else IID_1BIT
        sched = parse_schedule(schedule)

    streams = []
    for module in range(n_modules):
        if use_patterns:
            streams.append(
                sample_pattern_events(
                    rng,
                    pat,
                    seu_per_bit,
                    code.n,
                    code.m,
                    t_end,
                    module=module,
                    schedule=sched,
                )
            )
        else:
            streams.append(
                sample_seu_events(
                    rng, seu_per_bit, code.n, code.m, t_end, module
                )
            )
        streams.append(
            sample_permanent_events(
                rng, erasure_per_symbol, code.n, code.m, t_end, module
            )
        )
    streams.append(
        scrub_schedule(t_end, scrub_period, rng=rng, exponential=scrub_exponential)
    )
    for event in merge_event_streams(*streams):
        system.apply_event(event)
    return system.read()


def simulate_fail_probability(
    arrangement: str,
    code: RSCode,
    t_end: float,
    seu_per_bit: float,
    erasure_per_symbol: float,
    trials: int,
    rng: Optional[np.random.Generator] = None,
    scrub_period: float | None = None,
    scrub_exponential: bool = False,
    pattern: PatternLike = None,
    schedule: ScheduleLike = None,
) -> FailureEstimate:
    """Monte-Carlo failure probability through the real codec and arbiter."""
    if rng is None:
        rng = np.random.default_rng()
    # Parse specs once; per-trial calls then skip re-validation.
    pattern = None if pattern is None else parse_pattern(pattern)
    schedule = parse_schedule(schedule)
    check_schedule_legs(schedule, t_end)
    counts = {outcome.value: 0 for outcome in ReadOutcome}
    failures = 0
    for _ in range(trials):
        outcome = simulate_read_outcome(
            arrangement,
            code,
            t_end,
            seu_per_bit,
            erasure_per_symbol,
            rng,
            scrub_period=scrub_period,
            scrub_exponential=scrub_exponential,
            pattern=pattern,
            schedule=schedule,
        )
        counts[outcome.value] += 1
        if outcome.is_failure:
            failures += 1
    low, high = wilson_interval(failures, trials)
    return FailureEstimate(
        failures / trials, trials, failures, low, high, outcome_counts=counts
    )


# --------------------------------------------------------------------------
# batched / chunked fault injection through the batch codec
# --------------------------------------------------------------------------

SeedLike = Union[int, np.random.SeedSequence, None]


def spawn_chunk_seeds(
    seed: SeedLike, n_chunks: int
) -> List[np.random.SeedSequence]:
    """Independent per-chunk seed sequences from one root seed.

    Uses ``SeedSequence.spawn``, whose spawn-key mechanism guarantees the
    child streams are non-overlapping regardless of which process or in
    which order each chunk runs — this is the determinism backbone of the
    ``workers=N`` path.
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return root.spawn(n_chunks)


def chunk_sizes(trials: int, chunk_size: int) -> List[int]:
    """Split ``trials`` into fixed-size chunks (last one may be short)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    full, rest = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


#: Most seed blocks one dispatched task holds.
TASK_BLOCKS = 64

#: Most fault-bearing trials a task gathers into one :func:`replay_batch`
#: (a block is never split, so a block with more replays alone).  Bounds
#: the replay's memory, as ``SYNDROME_BLOCK`` bounds the syndrome kernel's.
REPLAY_TRIALS = 1024


def task_spans(pending: List[int], workers: int) -> List[range]:
    """Group pending block indices into the tasks that dispatch them.

    A task is a run of consecutive pending blocks (a journaled block
    ends the run) of at most ``clamp(ceil(len(pending) / (4 * workers)),
    1, TASK_BLOCKS)`` blocks: about four tasks per worker, so a pool
    stays balanced, and few enough blocks per task that a retry stays
    cheap.  Grouping moves no result: every block draws from its own
    seed and returns its own record.
    """
    if not pending:
        return []
    size = min(TASK_BLOCKS, max(1, math.ceil(len(pending) / (4 * workers))))
    spans: List[range] = []
    start = previous = pending[0]
    for index in pending[1:] + [None]:
        if index is not None and index == previous + 1 and index - start < size:
            previous = index
            continue
        spans.append(range(start, previous + 1))
        if index is not None:
            start = previous = index
    return spans


def _cached_batch_codec(n: int, k: int, m: int, fcr: int) -> BatchRSCodec:
    # One codec per (n, k, m, fcr) per process; worker processes rebuild
    # their own copy on first use (tables come from the lru-cached
    # field).  Threads share it: the codec keeps no per-call state, and
    # each chunk passes its own counters to every call.
    key = (n, k, m, fcr)
    codec = _CODEC_CACHE.get(key)
    if codec is None:
        codec = _CODEC_CACHE[key] = BatchRSCodec(n, k, m=m, fcr=fcr)
    return codec


_CODEC_CACHE: Dict[Tuple[int, int, int, int], BatchRSCodec] = {}


class EventTable(NamedTuple):
    """Fault events as flat arrays, one array per :class:`FaultEvent` field.

    Entry ``i`` is ``FaultEvent(time[i], PERMANENT if permanent[i] else
    SEU, module[i], symbol[i], bit[i], value[i], mask[i])`` of trial
    ``trial[i]``; entries may come in any order.
    """

    trial: np.ndarray
    time: np.ndarray
    permanent: np.ndarray
    module: np.ndarray
    symbol: np.ndarray
    bit: np.ndarray
    value: np.ndarray
    mask: np.ndarray

    @classmethod
    def build(cls, trial, time, permanent, module, symbol, bit, value=0, mask=0):
        """A table from per-event sequences; a scalar applies to every event."""
        size = len(time)

        def column(values, dtype):
            values = np.asarray(values, dtype=dtype)
            return values if values.ndim else np.full(size, values)

        return cls(
            column(trial, np.int64),
            column(time, np.float64),
            column(permanent, bool),
            *(column(c, np.int64) for c in (module, symbol, bit, value, mask)),
        )

    @classmethod
    def concat(cls, tables: List["EventTable"]) -> "EventTable":
        if not tables:
            return cls.build((), (), False, 0, (), 0)
        if len(tables) == 1:
            return tables[0]
        return cls(*map(np.concatenate, zip(*tables)))

    def take(self, index) -> "EventTable":
        return EventTable(*(column[index] for column in self))


@dataclass(frozen=True)
class ChunkDraw:
    """Everything a chunk draws from its RNG stream.

    ``symbols`` holds every trial's ``k`` data symbols: an array, or the
    :class:`~repro.simulator.patterns.SkippedIntegers` that
    :func:`draw_chunk` leaves in the stream in their place; :attr:`data`
    is the array either way.  ``scrub_times`` row ``i`` holds trial
    ``i``'s ``scrub_counts[i]`` scrub instants in ascending order,
    padded with ``inf``.
    """

    symbols: Union[np.ndarray, SkippedIntegers]
    events: EventTable
    scrub_counts: np.ndarray
    scrub_times: np.ndarray

    @cached_property
    def data(self) -> np.ndarray:
        """Every trial's data symbols, read back once if the draw skipped
        them."""
        if isinstance(self.symbols, SkippedIntegers):
            return self.symbols.table()
        return self.symbols

    def replay_rows(
        self, trials: np.ndarray, bit_generator: np.random.PCG64
    ) -> "ChunkDraw":
        """The draw of ``trials`` (ascending, holding all its events),
        with data symbols only where a stuck cell can read them.

        A trial with a permanent event gets its drawn symbols (read back
        from the stream through ``bit_generator`` if the draw skipped
        them); every other trial gets the all-zero word, on which
        :func:`replay_batch` gives it the same outcome and ``work``.
        Its events are flips, which add to the stored word, and RS is
        linear, so each of its reads is the written codeword plus a
        pattern that does not depend on the data; every decoder and
        arbiter decision depends on that pattern alone (erasures come
        only from permanent events).
        """
        events = self.events
        k = self.symbols.shape[1]
        data = np.zeros((trials.size, k), dtype=np.int64)
        if events.permanent.any():
            stuck = np.unique(events.trial[events.permanent])
            data[np.searchsorted(trials, stuck)] = (
                self.symbols.take(stuck, bit_generator)
                if isinstance(self.symbols, SkippedIntegers)
                else self.symbols[stuck]
            )
        return ChunkDraw(
            data,
            events._replace(trial=np.searchsorted(trials, events.trial)),
            self.scrub_counts[trials],
            self.scrub_times[trials],
        )

    @classmethod
    def concat(cls, draws: List["ChunkDraw"]) -> "ChunkDraw":
        """One draw of every trial of ``draws``, in order.

        Scrub tables are padded with ``inf`` to the widest; padding
        sorts after every event of its row, so no epoch moves.
        """
        if len(draws) == 1:
            return draws[0]
        starts = np.cumsum([0] + [len(d.scrub_counts) for d in draws])
        times = np.full(
            (starts[-1], max(d.scrub_times.shape[1] for d in draws)), np.inf
        )
        for draw, start, end in zip(draws, starts, starts[1:]):
            times[start:end, : draw.scrub_times.shape[1]] = draw.scrub_times
        return cls(
            np.concatenate([d.data for d in draws]),
            EventTable.concat(
                [
                    d.events._replace(trial=d.events.trial + start)
                    for d, start in zip(draws, starts)
                ]
            ),
            np.concatenate([d.scrub_counts for d in draws]),
            times,
        )


@dataclass(frozen=True)
class TaskSpec:
    """One dispatched task: a cell's physics and a run of its seed blocks.

    ``blocks`` holds consecutive ``(block index, trials, seed)`` entries.
    Each block draws from its own seed exactly as a one-block task
    would, and :func:`_run_injection_chunk` returns one result per block.
    ``pattern``/``schedule`` are canonical spec strings, so a task
    pickles for worker processes.
    """

    arrangement: str
    n: int
    k: int
    m: int
    fcr: int
    t_end: float
    seu_per_bit: float
    erasure_per_symbol: float
    scrub_period: Optional[float] = None
    scrub_exponential: bool = False
    pattern: Optional[str] = None
    schedule: Optional[str] = None
    blocks: Tuple[Tuple[int, int, np.random.SeedSequence], ...] = ()


#: Outcome codes of :func:`replay_batch`: code ``i`` means ``OUTCOMES[i]``.
OUTCOMES = (ReadOutcome.CORRECT, ReadOutcome.CORRUPTED, ReadOutcome.UNREADABLE)
_CORRECT, _CORRUPTED, _UNREADABLE = range(len(OUTCOMES))

_OUTCOME_NAMES = tuple(outcome.value for outcome in OUTCOMES)

#: :class:`PerfCounters` fields of the columns of :func:`replay_batch`'s
#: per-trial ``work`` array.
WORK_FIELDS = ("words_decoded", "clean_fast_path", "decode_failures")

#: A block record's ``counters`` before its own counts go in: every
#: :class:`PerfCounters` field at zero, in ``as_dict`` order.
_BLOCK_COUNTERS = PerfCounters().as_dict()


def _draw_event_table(
    rng: np.random.Generator,
    rate_total: float,
    t_end: float,
    n_trials: int,
    n_symbols: int,
    m: int,
    module: int,
    permanent: bool,
) -> List[EventTable]:
    """Vectorized Poisson event draw for a whole chunk of trials.

    Distribution-identical to running :func:`sample_seu_events` /
    :func:`sample_permanent_events` once per trial.  Returns no table,
    and draws nothing, when the rate or the horizon is zero.
    """
    if rate_total <= 0 or t_end <= 0:
        return []
    counts = rng.poisson(rate_total * t_end, size=n_trials)
    total = int(counts.sum())
    times = rng.uniform(0.0, t_end, size=total)
    symbols = rng.integers(0, n_symbols, size=total)
    bits = rng.integers(0, m, size=total)
    values = (
        rng.integers(0, 2, size=total)
        if permanent
        else np.zeros(total, dtype=np.int64)
    )
    return [
        EventTable(
            np.repeat(np.arange(n_trials, dtype=np.int64), counts),
            times,
            np.full(total, permanent),
            np.full(total, module, dtype=np.int64),
            symbols,
            bits,
            values,
            np.zeros(total, dtype=np.int64),
        )
    ]


def _draw_pattern_events(
    rng: np.random.Generator,
    pattern: FaultPattern,
    schedule: Optional[RateSchedule],
    expected: float,
    t_end: float,
    n_trials: int,
    n: int,
    m: int,
    module: int,
) -> List[EventTable]:
    """One module's compound-Poisson transients for a chunk of trials.

    Arrival counts are drawn vectorized; then, trial by trial, each
    trial's arrival times and shapes (:func:`arrival_cells`).  Those
    draws go through one :class:`Pcg64Draws` over ``rng``, so they are
    the numbers per-trial ``Generator`` calls give, and ``rng`` is left
    where those calls would have left it.
    """
    if expected <= 0:
        return []
    counts = rng.poisson(expected, size=n_trials)
    struck = np.flatnonzero(counts).tolist()
    if not struck:
        return []
    rows = []
    with Pcg64Draws(rng) as draws:
        for trial in struck:
            arrivals = int(counts[trial])
            if schedule is not None:
                times = schedule.sample_times(draws, t_end, arrivals)
            else:
                times = np.sort(draws.uniform(0.0, t_end, size=arrivals))
            rows += [
                (trial, *cell)
                for cell in arrival_cells(draws, pattern, times.tolist(), n, m)
            ]
    trial, time, permanent, symbol, bit, value, mask = zip(*rows)
    return [EventTable.build(trial, time, permanent, module, symbol, bit, value, mask)]


def _draw_scrub_times(
    rng: np.random.Generator,
    t_end: float,
    period: Optional[float],
    exponential: bool,
    n_trials: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial scrub counts and a sorted, ``inf``-padded instant table.

    Matches :func:`scrub_schedule` in law.  The exponential schedule is a
    Poisson process of rate ``1/period``; drawing ``Poisson(t/period)``
    counts and sorting uniform instants is the standard equivalent
    construction, vectorized over the chunk.
    """
    if period is None or period <= 0 or t_end <= 0:
        return np.zeros(n_trials, dtype=np.int64), np.zeros((n_trials, 0))
    if not exponential:
        ticks = np.arange(1, int(t_end / period) + 1) * period
        return (
            np.full(n_trials, ticks.size, dtype=np.int64),
            np.broadcast_to(ticks, (n_trials, ticks.size)),
        )
    counts = rng.poisson(t_end / period, size=n_trials)
    flat = rng.uniform(0.0, t_end, size=int(counts.sum()))
    table = np.full((n_trials, int(counts.max(initial=0))), np.inf)
    table[np.arange(table.shape[1]) < counts[:, None]] = flat
    table.sort(axis=1)
    return counts, table


def draw_chunk(
    rng: np.random.Generator,
    arrangement: str,
    n: int,
    k: int,
    m: int,
    t_end: float,
    seu_per_bit: float,
    erasure_per_symbol: float,
    scrub_period: Optional[float],
    scrub_exponential: bool,
    n_trials: int,
    pattern: Optional[FaultPattern] = None,
    schedule: Optional[RateSchedule] = None,
) -> ChunkDraw:
    """Draw a chunk's data words, fault events and scrub instants.

    The draw order is fixed — data, every module's transients, every
    module's permanent faults, scrubs — so a chunk is a pure function of
    its RNG stream.  The data draw, ``rng.integers(0, 1 << m,
    size=(n_trials, k))``, is skipped rather than made
    (:class:`~repro.simulator.patterns.SkippedIntegers`): the draws
    after it see the same stream, and the draw's symbols are read back
    only where they are asked for.  ``pattern``/``schedule`` switch the
    transients to the compound-Poisson mixture of
    :mod:`repro.simulator.patterns` (a schedule alone means i.i.d.
    ``1BIT`` arrivals).
    """
    modules = 2 if arrangement == "duplex" else 1
    data = SkippedIntegers(rng, n_trials, k, m)
    tables: List[EventTable] = []
    if pattern is not None or schedule is not None:
        expected = seu_per_bit * n * m * (
            schedule.integral(t_end) if schedule is not None else t_end
        )
        for module in range(modules):
            tables += _draw_pattern_events(
                rng,
                IID_1BIT if pattern is None else pattern,
                schedule,
                expected,
                t_end,
                n_trials,
                n,
                m,
                module,
            )
    else:
        for module in range(modules):
            tables += _draw_event_table(
                rng, seu_per_bit * n * m, t_end, n_trials, n, m, module, False
            )
    for module in range(modules):
        tables += _draw_event_table(
            rng, erasure_per_symbol * n, t_end, n_trials, n, m, module, True
        )
    scrub_counts, scrub_times = _draw_scrub_times(
        rng, t_end, scrub_period, scrub_exponential, n_trials
    )
    return ChunkDraw(data, EventTable.concat(tables), scrub_counts, scrub_times)


class _MemoryBatch:
    """The bit-level state of many trials' memory words, as arrays.

    Array form of :class:`~repro.simulator.word.MemoryWord`: each
    ``(trials, modules, n)`` array holds one field of every word — the
    logical value, stuck-cell mask, stuck values and located flag.
    """

    def __init__(self, codewords: np.ndarray, modules: int, m: int):
        self.m = m
        self.logical = np.repeat(codewords[:, None, :], modules, axis=1)
        self.stuck_mask = np.zeros_like(self.logical)
        self.stuck_value = np.zeros_like(self.logical)
        self.located = np.zeros(self.logical.shape, dtype=bool)

    def apply(self, events: EventTable) -> None:
        """Apply faults that no scrub separates.

        Flips commute (a flip of a stuck cell only changes its hidden
        logical bit), so they XOR in at once.  Stuck cells OR in; a cell
        stuck twice keeps the value of the later event in the order the
        table is given.
        """
        _, modules, n = self.logical.shape
        cell = (events.trial * modules + events.module) * n + events.symbol
        cells = np.where(events.mask != 0, events.mask, 1 << events.bit)
        flips = ~events.permanent
        np.bitwise_xor.at(self.logical.reshape(-1), cell[flips], cells[flips])
        if flips.all():
            return
        cell, cells = cell[~flips], cells[~flips]
        stuck = np.where(
            events.mask != 0, events.value, events.value << events.bit
        )[~flips]
        event, bit = np.nonzero((cells[:, None] >> np.arange(self.m)) & 1)
        key = cell[event] * self.m + bit
        order = np.argsort(key, kind="stable")
        last = order[np.append(key[order][1:] != key[order][:-1], True)]
        sites, bits = cell[event[last]], 1 << bit[last]
        np.bitwise_or.at(self.stuck_mask.reshape(-1), sites, bits)
        np.bitwise_and.at(self.stuck_value.reshape(-1), sites, ~bits)
        np.bitwise_or.at(
            self.stuck_value.reshape(-1), sites, stuck[event[last]] & bits
        )
        self.located.reshape(-1)[cell] = True

    def reads(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """The words and erasure masks the codec sees for ``rows``.

        Stuck cells read as their stuck value.  Duplex pairs go through
        the arbiter's erasure-recovery stage
        (:func:`~repro.simulator.arbiter.recover_erasures`): a position
        erased on one side only takes the other side's symbol, and the
        positions erased on both sides are each word's erasures.
        """
        mask = self.stuck_mask[rows]
        words = (self.logical[rows] & ~mask) | (self.stuck_value[rows] & mask)
        located = self.located[rows]
        if words.shape[1] == 1:
            return words, located
        only = located & ~located[:, ::-1]
        words = np.where(only, words[:, ::-1], words)
        shared = located[:, 0] & located[:, 1]
        return words, np.stack([shared, shared], axis=1)


def _read_batch(
    codec: BatchRSCodec,
    words: np.ndarray,
    erasures: np.ndarray,
    counters: Optional[PerfCounters],
    reads: Optional[list] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode ``(trials, modules, n)`` reads in one batch.

    Returns, per trial, whether the memory gives output and the codeword
    it outputs: the decoded word for simplex, the word the Section 3
    arbiter (:func:`decide_batch`) picks for duplex.  ``reads``, if
    given, receives the per-word clean and ok masks of the decode.
    """
    trials, modules, n = words.shape
    report = codec.decode_batch(
        words.reshape(-1, n),
        erasures.reshape(-1, n) if erasures.any() else None,
        counters,
    )
    if reads is not None:
        reads.append((report.clean, report.ok))
    if modules == 1:
        return report.ok, report.codewords
    ok = report.ok.reshape(trials, 2)
    flags = report.corrected.reshape(trials, 2)
    codewords = report.codewords.reshape(trials, 2, n)
    data = codewords[:, :, codec.nsym :]
    source = decide_batch(
        ok[:, 0],
        ok[:, 1],
        flags[:, 0],
        flags[:, 1],
        (data[:, 0] == data[:, 1]).all(axis=1),
    )
    return source >= 0, codewords[np.arange(trials), np.maximum(source, 0)]


def _scrub_epochs(
    trial: np.ndarray, time: np.ndarray, scrub_times: np.ndarray
) -> np.ndarray:
    """Per event, how many of its trial's scrubs come strictly before it.

    A fault at a scrub's exact instant therefore lands before that scrub
    (the ``event_sort_key`` order).  One ``searchsorted`` serves every
    row: ``(trial, time)`` pairs are complex numbers, which numpy orders
    lexicographically, so the row-major table is sorted and its ``inf``
    padding sorts after every event of its row.
    """
    rows, width = scrub_times.shape
    if width == 0:
        return np.zeros(trial.size, dtype=np.int64)
    table = np.empty((rows, width), dtype=complex)
    table.real = np.arange(rows)[:, None]
    table.imag = scrub_times
    keys = np.empty(trial.size, dtype=complex)
    keys.real = trial
    keys.imag = time
    return np.searchsorted(table.reshape(-1), keys) - trial * width


def replay_batch(
    codec: BatchRSCodec,
    arrangement: str,
    data: np.ndarray,
    events: EventTable,
    scrub_counts: np.ndarray,
    scrub_times: np.ndarray,
    counters: Optional[PerfCounters] = None,
    work: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inject events into trials' words, scrub, and read every trial once.

    ``data`` holds each trial's ``k`` data symbols, ``events.trial``
    indexes its rows, and ``scrub_counts``/``scrub_times`` are laid out
    as in :class:`ChunkDraw`.  Returns the final read words and erasure
    masks, both ``(trials, modules, n)`` (duplex: after erasure
    recovery, with the shared erasures on both words), and per-trial
    :data:`OUTCOMES` codes — what :class:`SimplexSystem` /
    :class:`DuplexSystem` give for the same events, trial by trial.
    ``work``, a ``(trials, len(WORK_FIELDS))`` integer array, receives
    each trial's share of the decode counters, so the trials of one
    replay can be accounted to the blocks they came from.

    The events between two scrubs are applied at once, then the scrub
    runs as one batch read over every trial that has it, writing the
    output codeword back wherever the memory gives one.  A scrub after
    an event-free stretch is skipped, because it is a no-op: a scrub
    that gives no output leaves the state unchanged, so the next one
    sees the same words; after one that does, every word the decoder
    sees differs from the written codeword only at its erasures (for
    duplex, the shared ones left by erasure recovery) — at most
    ``n - k`` of them, or no decode would have succeeded — and an
    erasure-only decode returns that codeword unchanged.  The loop
    therefore runs over each trial's event-bearing scrub epochs, not
    over scrub ordinals.
    """
    modules = 2 if arrangement == "duplex" else 1
    memory = _MemoryBatch(codec.encode_batch(data, counters), modules, codec.m)
    events = events.take(
        np.lexsort(
            (
                events.value,
                events.mask,
                events.bit,
                events.symbol,
                events.module,
                events.permanent,
                events.time,
                events.trial,
            )
        )
    )
    trial = events.trial
    epoch = _scrub_epochs(trial, events.time, scrub_times)
    # Step s of a trial is its s-th epoch that holds events.
    new_trial = np.ones(trial.size, dtype=bool)
    new_trial[1:] = trial[1:] != trial[:-1]
    new_epoch = new_trial.copy()
    new_epoch[1:] |= epoch[1:] != epoch[:-1]
    group = np.cumsum(new_epoch) - 1
    step = group - np.maximum.accumulate(np.where(new_trial, group, 0))
    by_step = np.argsort(step, kind="stable")
    bounds = np.searchsorted(step[by_step], np.arange(step.max(initial=-1) + 2))
    # For ``work``: the trials of each read and its decode's word masks.
    read_rows: List[np.ndarray] = []
    reads: Optional[list] = None if work is None else []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        index = by_step[lo:hi]
        memory.apply(events.take(index))
        heads = index[new_epoch[index]]
        rows = trial[heads][epoch[heads] < scrub_counts[trial[heads]]]
        if rows.size:
            readable, codewords = _read_batch(
                codec, *memory.reads(rows), counters, reads
            )
            memory.logical[rows[readable]] = codewords[readable][:, None, :]
            if reads is not None:
                read_rows.append(rows)
    words, erasures = memory.reads(slice(None))
    readable, codewords = _read_batch(codec, words, erasures, counters, reads)
    right = (codewords[:, codec.nsym :] == data).all(axis=1)
    outcome = np.where(
        readable, np.where(right, _CORRECT, _CORRUPTED), _UNREADABLE
    )
    if work is not None:
        read_rows.append(np.arange(len(data)))
        owner = np.repeat(np.concatenate(read_rows), modules)
        clean, ok = (np.concatenate(masks) for masks in zip(*reads))
        work += np.stack(
            [
                np.bincount(owner, minlength=len(data)),
                np.bincount(owner[clean], minlength=len(data)),
                np.bincount(owner[~ok], minlength=len(data)),
            ],
            axis=1,
        )
    return words, erasures, outcome


def _run_injection_chunk(task: TaskSpec) -> List[Dict[str, object]]:
    """Execute one task; picklable, runs in worker processes.

    Draws each block from its own seed (:func:`draw_chunk`) and counts
    every trial without a fault event as ``CORRECT`` (scrubs are no-ops
    on fault-free words, so its read is right by construction).  The
    other trials of consecutive blocks are gathered, up to
    :data:`REPLAY_TRIALS`, into one array replay (:func:`replay_batch`):
    scrub epochs advance in batch steps and every read goes through
    ``decode_batch``.  Only the trials with a permanent event replay on
    their drawn data, read back through the block's own generator once
    the draw is done with it; the others replay on the all-zero word
    (:meth:`ChunkDraw.replay_rows`).  Returns one result per block, in
    block order, each what a one-block task gives: outcome counts, and
    work counters attributed to the block's own trials.  The task's
    busy and kernel time go to its first block, so their sums are kept.
    """
    if task.arrangement not in ("simplex", "duplex"):
        raise ValueError(f"unknown arrangement {task.arrangement!r}")
    codec = _cached_batch_codec(task.n, task.k, task.m, task.fcr)
    pattern = None if task.pattern is None else parse_pattern(task.pattern)
    schedule = parse_schedule(task.schedule)
    counters = PerfCounters()
    # Busy time goes to the additive cpu_seconds axis; true wall clock
    # (elapsed_seconds) is measured by the coordinator.
    t_busy = time.perf_counter()
    tally = np.zeros((len(task.blocks), len(OUTCOMES)), dtype=np.int64)
    work = np.zeros((len(task.blocks), len(WORK_FIELDS)), dtype=np.int64)
    dirty_trials = np.zeros(len(task.blocks), dtype=np.int64)
    gathered: List[ChunkDraw] = []  # dirty rows of blocks not yet replayed
    owners: List[int] = []  # the block slot of each gathered draw

    def replay() -> None:
        slot = np.repeat(owners, dirty_trials[owners])
        draw = ChunkDraw.concat(gathered)
        trial_work = np.zeros((slot.size, len(WORK_FIELDS)), dtype=np.int64)
        _words, _erasures, outcome = replay_batch(
            codec,
            task.arrangement,
            draw.data,
            draw.events,
            draw.scrub_counts,
            draw.scrub_times,
            counters,
            trial_work,
        )
        np.add.at(tally, (slot, outcome), 1)
        np.add.at(work, slot, trial_work)
        gathered.clear()
        owners.clear()

    for slot, (_index, n_trials, seed) in enumerate(task.blocks):
        rng = np.random.default_rng(seed)
        draw = draw_chunk(
            rng,
            task.arrangement,
            task.n,
            task.k,
            task.m,
            task.t_end,
            task.seu_per_bit,
            task.erasure_per_symbol,
            task.scrub_period,
            task.scrub_exponential,
            n_trials,
            pattern,
            schedule,
        )
        dirty = np.flatnonzero(np.bincount(draw.events.trial, minlength=n_trials))
        tally[slot, _CORRECT] = n_trials - dirty.size
        if not dirty.size:
            continue
        if owners and dirty_trials[owners].sum() + dirty.size > REPLAY_TRIALS:
            replay()
        dirty_trials[slot] = dirty.size
        gathered.append(draw.replay_rows(dirty, rng.bit_generator))
        owners.append(slot)
    if owners:
        replay()
    busy = time.perf_counter() - t_busy
    results: List[Dict[str, object]] = []
    encoded, works, tallies = dirty_trials.tolist(), work.tolist(), tally.tolist()
    for slot, (_index, n_trials, _seed) in enumerate(task.blocks):
        decoded, clean, failed = works[slot]
        block = {
            **_BLOCK_COUNTERS,
            "words_encoded": encoded[slot],
            "words_decoded": decoded,
            "clean_fast_path": clean,
            "dirty_words_decoded": decoded - clean,
            "decode_failures": failed,
            "trials": n_trials,
            "chunks": 1,
        }
        if slot == 0:
            block["cpu_seconds"] = busy
            block["kernel_seconds"] = counters.kernel_seconds
        results.append(
            {
                "failures": n_trials - tallies[slot][_CORRECT],
                "counts": dict(zip(_OUTCOME_NAMES, tallies[slot])),
                "trials": n_trials,
                "counters": block,
            }
        )
    return results


def simulate_fail_probability_batched(
    arrangement: str,
    code: RSCode,
    t_end: float,
    seu_per_bit: float,
    erasure_per_symbol: float,
    trials: int,
    seed: SeedLike = 0,
    scrub_period: float | None = None,
    scrub_exponential: bool = False,
    chunk_size: int = 512,
    workers: int = 1,
    counters: Optional[PerfCounters] = None,
    runtime: Optional[RuntimeConfig] = None,
    cell_key: str = "0",
    pattern: PatternLike = None,
    schedule: ScheduleLike = None,
) -> FailureEstimate:
    """Batched Monte-Carlo failure probability through the batch codec.

    Same physics as :func:`simulate_fail_probability`, executed in
    vectorized seed blocks of ``chunk_size`` trials (the journal calls
    them chunks).  The estimate is a deterministic function of ``(seed,
    trials, chunk_size)`` and all physical parameters — and of nothing
    else:

    * each block draws from its own spawned :class:`numpy.random.SeedSequence`
      (:func:`spawn_chunk_seeds`), so streams never overlap;
    * block results are combined by commutative summation, so scheduling
      order, task grouping and ``workers`` cannot change the outcome.

    Pending blocks are dispatched in tasks of consecutive blocks
    (:func:`task_spans`, :class:`TaskSpec`, :func:`_run_injection_chunk`).
    ``workers > 1`` distributes tasks over a supervised process pool
    (:class:`~repro.runtime.ChunkSupervisor`): crashed or hung workers
    are detected and failed tasks retried with bounded backoff; a task
    that fails every attempt raises
    :class:`~repro.runtime.ChunkFailedError` after the other tasks
    finish (and are journaled).  ``counters`` (optional)
    receives the merged work/throughput/resilience counters of all
    blocks, wherever they ran.

    ``runtime`` bundles the resilience options (retry policy, per-chunk
    timeout, chaos injection, checkpoint journal); ``cell_key``
    namespaces this call's chunks inside a shared journal.  Journaled
    chunks are replayed instead of recomputed, which — by the
    commutative-sum property above — makes an interrupted-and-resumed
    run bit-identical to an uninterrupted one.

    ``runtime.executor`` is the dispatch backend
    (:mod:`repro.runtime.executors`), owned by the caller; without one,
    the executor for ``workers`` is built for this call and shut down
    at its end.  Tasks are sized by the executor's ``capacity``;
    neither can affect the estimate.  Every completion streams an
    incremental BER±CI snapshot into the trace (a ``ber_snapshot``
    event) and ``runtime.on_snapshot``, and every task that ran or block
    replayed from the journal leaves a ``chunk_heartbeat`` event and
    advances ``runtime.progress``; ``runtime.stop`` adds the adaptive
    stopping rule: the run ends at the smallest contiguous chunk prefix
    whose cumulative interval satisfies the rule, and the estimate
    aggregates exactly that prefix — so early-stopped results are also
    invariant to executor, worker count, and schedule (``stopped_early``
    marks them, with ``trials`` reduced to the prefix).
    """
    if arrangement not in ("simplex", "duplex"):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Build the codec now, so a code it rejects fails before any work is
    # dispatched rather than once per chunk attempt.
    _cached_batch_codec(code.n, code.k, code.m, code.fcr)
    # Canonicalize pattern/schedule to their spec strings: validated
    # here (ValueError on malformed input, before any work is spawned)
    # and picklable for the worker-process path.
    pattern_spec = (
        None if pattern is None else format_pattern(parse_pattern(pattern))
    )
    parsed_schedule = parse_schedule(schedule)
    check_schedule_legs(parsed_schedule, t_end)
    schedule_spec = (
        None if parsed_schedule is None else format_schedule(parsed_schedule)
    )
    sizes = chunk_sizes(trials, chunk_size)
    seeds = spawn_chunk_seeds(seed, len(sizes))
    cell = TaskSpec(
        arrangement,
        code.n,
        code.k,
        code.m,
        code.fcr,
        t_end,
        seu_per_bit,
        erasure_per_symbol,
        scrub_period,
        scrub_exponential,
        pattern_spec,
        schedule_spec,
    )

    cfg = runtime if runtime is not None else RuntimeConfig()
    journal = cfg.journal
    own_counters = counters if counters is not None else PerfCounters()
    seed_ids = None if journal is None else [seed_key(s) for s in seeds]

    # Streaming aggregation: every completion (journal replays included)
    # folds into an incremental BER±CI snapshot for the trace and
    # ``on_snapshot``, and — when a stopping rule is configured — into
    # the contiguous-prefix stopper whose decision is invariant to
    # scheduling.
    ci_method = cfg.stop.method if cfg.stop is not None else "wilson"
    ci_confidence = cfg.stop.confidence if cfg.stop is not None else 0.95
    streamer = StreamingEstimator(method=ci_method, confidence=ci_confidence)
    stopper = AdaptiveStopper(cfg.stop) if cfg.stop is not None else None

    def observe(index: int, result: Dict[str, object]) -> None:
        chunk_failures = int(result["failures"])  # type: ignore[arg-type]
        chunk_trials = int(result["trials"])  # type: ignore[arg-type]
        snapshot = streamer.offer(index, chunk_failures, chunk_trials)
        if snapshot is not None:
            if trace.current_collector() is not None:
                trace.event("ber_snapshot", cell=cell_key, **snapshot.as_dict())
            if cfg.on_snapshot is not None:
                cfg.on_snapshot(snapshot)
        if stopper is not None:
            stopper.offer(index, chunk_failures, chunk_trials)

    def heartbeat(attrs: Dict[str, object]) -> None:
        """Finished work — a task that ran, or a block replayed from the
        journal — advances the progress estimate and leaves a
        ``chunk_heartbeat`` in the trace; ``attrs`` name it and count
        its ``trials``."""
        if cfg.progress is not None:
            progress_event = cfg.progress.advance(max(attrs["trials"], 1))
            attrs.update(progress_event.as_dict())
            if cfg.on_progress is not None:
                cfg.on_progress(progress_event)
        trace.event("chunk_heartbeat", **attrs)

    results: Dict[int, Dict[str, object]] = {}

    def record(
        first: int, task_results: List[Dict[str, object]], latency_s: float
    ) -> None:
        # A finished task journals and offers its blocks in index order,
        # then leaves one heartbeat.
        for index, result in enumerate(task_results, start=first):
            if journal is not None:
                journal.record_chunk(cell_key, index, seed_ids[index], result)
            results[index] = result
            observe(index, result)
        heartbeat(
            {
                "chunk": first,
                "latency_s": latency_s,
                "trials": sum(int(result["trials"]) for result in task_results),
            }
        )

    pending: List[int] = []
    for index in range(len(sizes)):
        cached = (
            journal.completed(cell_key, index, seed_ids[index])
            if journal is not None
            else None
        )
        if cached is not None:
            results[index] = cached
            own_counters.chunks_resumed += 1
            observe(index, cached)
            heartbeat(
                {"chunk": index, "trials": int(cached["trials"]), "resumed": True}
            )
        else:
            pending.append(index)
    if stopper is not None and stopper.should_stop:
        # Resumed chunks alone satisfied the rule on a complete prefix;
        # everything past the stop index is unnecessary work.
        pending = []
    with cfg.with_executor(workers) as cfg:
        jobs = [
            (
                span,
                replace(cell, blocks=tuple((i, sizes[i], seeds[i]) for i in span)),
            )
            for span in task_spans(pending, cfg.executor.capacity)
        ]

        with trace.span(
            "simulate_fail_probability_batched",
            arrangement=arrangement,
            trials=trials,
            chunk_size=chunk_size,
            workers=workers,
            n_chunks=len(sizes),
            n_tasks=len(jobs),
            chunks_resumed=len(results),
            cell_key=cell_key,
        ):
            t_wall = time.perf_counter()
            try:
                if jobs:
                    supervisor = ChunkSupervisor(
                        retry=cfg.retry,
                        chunk_timeout=cfg.chunk_timeout,
                        chaos=cfg.chaos,
                        counters=own_counters,
                        executor=cfg.executor,
                    )
                    supervisor.run(
                        jobs,
                        primary=_run_injection_chunk,
                        on_complete=record,
                        should_stop=(
                            None if stopper is None else lambda: stopper.should_stop
                        ),
                    )
                    cfg.events.extend(supervisor.events)
            finally:
                own_counters.elapsed_seconds += time.perf_counter() - t_wall

    stop_index = stopper.stop_index if stopper is not None else None
    if stop_index is not None:
        # The estimate uses exactly the contiguous prefix 0..stop_index —
        # a pure function of the chunk results, so it is identical for
        # any executor, worker count, or completion schedule.  Chunks
        # that completed opportunistically past the stop index are
        # discarded (their journal records stay valid for a full run).
        used_indices = [i for i in sorted(results) if i <= stop_index]
        if len(used_indices) != stop_index + 1:
            raise RuntimeError(
                f"internal error: stopped prefix incomplete "
                f"({len(used_indices)} of {stop_index + 1} chunks present)"
            )
        trials_used = sum(sizes[i] for i in used_indices)
    else:
        used_indices = sorted(results)
        trials_used = trials
    counts: Dict[str, int] = {outcome.value: 0 for outcome in ReadOutcome}
    failures = 0
    for index in used_indices:
        res = results[index]
        failures += res["failures"]
        for key, value in res["counts"].items():
            counts[key] += value
    own_counters.merge(
        merge_counter_dicts(
            results[index]["counters"]  # type: ignore[misc]
            for index in used_indices
        )
    )
    low, high = wilson_interval(failures, trials_used)
    # Robustness accounting: split the failure mass into *detected*
    # (decoder/arbiter refused output) vs *silent* (wrong data served) —
    # the axis on which out-of-model correlated faults differ from the
    # i.i.d. analytic picture.
    trace.event(
        "robustness_counts",
        cell=cell_key,
        silent_miscorrections=counts[ReadOutcome.CORRUPTED.value],
        detected_uncorrectable=counts[ReadOutcome.UNREADABLE.value],
        trials=trials_used,
    )
    return FailureEstimate(
        failures / trials_used,
        trials_used,
        failures,
        low,
        high,
        outcome_counts=counts,
        stopped_early=trials_used < trials,
    )


MonteCarloRunner = Callable[..., FailureEstimate]
