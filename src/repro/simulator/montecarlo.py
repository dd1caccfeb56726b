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
  by the batch layer: trials are processed in chunks whose fault events
  are drawn vectorized from per-chunk spawned RNG streams, final reads
  (and duplex replica pairs) go through :class:`~repro.rs.batch.BatchRSCodec`
  in bulk, and an opt-in ``workers=N`` pool distributes chunks across
  processes.  Because every chunk owns an independent spawned
  ``SeedSequence`` and the aggregation is a commutative sum over chunks,
  a fixed ``(seed, trials, chunk_size)`` triple yields an identical
  :class:`FailureEstimate` for any worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..memory.base import FAIL, MemoryMarkovModel
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..perf import PerfCounters, Stopwatch
from ..rs import BatchRSCodec, RSCode
from ..runtime import ChunkSupervisor, RuntimeConfig, seed_key
from ..stats import AdaptiveStopper, BerSnapshot, StreamingEstimator
from ..stats.intervals import wilson_interval  # noqa: F401  (moved; re-exported)
from .arbiter import (  # noqa: F401  (decide_from_decodes: re-exported)
    decide_batch,
    decide_from_decodes,
    recover_erasures,
)
from .faults import (
    FaultEvent,
    FaultKind,
    event_sort_key,
    merge_event_streams,
    sample_permanent_events,
    sample_seu_events,
    scrub_schedule,
)
from .patterns import (
    IID_1BIT,
    FaultPattern,
    RateSchedule,
    expand_arrivals,
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


def _draw_event_table(
    rng: np.random.Generator,
    rate_total: float,
    t_end: float,
    n_trials: int,
    n_symbols: int,
    m: int,
    with_values: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Vectorized Poisson event draw for a whole chunk of trials.

    Returns ``(counts, times, symbols, bits, values, offsets)`` where the
    flat arrays hold the events of every trial back to back and
    ``offsets`` are the per-trial split points (``cumsum`` of counts).
    Distribution-identical to running :func:`sample_seu_events` /
    :func:`sample_permanent_events` once per trial.
    """
    if rate_total <= 0 or t_end <= 0:
        zeros = np.zeros(n_trials, dtype=np.int64)
        empty = np.zeros(0)
        return zeros, empty, empty, empty, (empty if with_values else None), zeros
    counts = rng.poisson(rate_total * t_end, size=n_trials)
    total = int(counts.sum())
    times = rng.uniform(0.0, t_end, size=total)
    symbols = rng.integers(0, n_symbols, size=total)
    bits = rng.integers(0, m, size=total)
    values = rng.integers(0, 2, size=total) if with_values else None
    return counts, times, symbols, bits, values, np.cumsum(counts)


def _trial_events(
    trial: int,
    kind: FaultKind,
    module: int,
    table,
) -> List[FaultEvent]:
    """Materialize one trial's slice of a flat event table."""
    counts, times, symbols, bits, values, offsets = table
    if counts[trial] == 0:
        return []
    hi = offsets[trial]
    lo = hi - counts[trial]
    if values is None:
        return [
            FaultEvent(float(times[i]), kind, module, int(symbols[i]), int(bits[i]))
            for i in range(lo, hi)
        ]
    return [
        FaultEvent(
            float(times[i]),
            kind,
            module,
            int(symbols[i]),
            int(bits[i]),
            int(values[i]),
        )
        for i in range(lo, hi)
    ]


def _draw_scrub_times(
    rng: np.random.Generator,
    t_end: float,
    period: Optional[float],
    exponential: bool,
    n_trials: int,
) -> List[np.ndarray]:
    """Per-trial scrub instants, matching :func:`scrub_schedule` in law.

    The exponential schedule is a Poisson process of rate ``1/period``;
    drawing ``Poisson(t/period)`` counts and sorting uniform instants is
    the standard equivalent construction, vectorized over the chunk.
    """
    if period is None or period <= 0 or t_end <= 0:
        return [np.zeros(0)] * n_trials
    if not exponential:
        ticks = np.arange(1, int(t_end / period) + 1) * period
        return [ticks] * n_trials
    counts = rng.poisson(t_end / period, size=n_trials)
    flat = rng.uniform(0.0, t_end, size=int(counts.sum()))
    out: List[np.ndarray] = []
    offset = 0
    for c in counts:
        out.append(np.sort(flat[offset : offset + int(c)]))
        offset += int(c)
    return out


def _run_injection_chunk(args: tuple) -> Dict[str, object]:
    """Execute one chunk of trials; picklable, runs in worker processes.

    Strategy: draw everything vectorized, skip trials with zero fault
    events outright (their read is trivially ``CORRECT``), replay the few
    dirty trials' event streams through the real bit-level systems, then
    push *all* final reads through one ``decode_batch`` call and classify
    them from the report's arrays (duplex pairs through
    :func:`~repro.simulator.arbiter.decide_batch`).

    When a correlated ``pattern_spec``/``schedule_spec`` is set the
    transient process is the compound-Poisson mixture of
    :mod:`repro.simulator.patterns`: arrival *counts* are still drawn
    vectorized per chunk, but every fault-bearing trial takes the replay
    path (mask events and in-arrival permanents are stateful), keeping
    the fast zero-event shortcut for the clean majority.
    """
    (
        arrangement,
        n,
        k,
        m,
        fcr,
        t_end,
        seu_per_bit,
        erasure_per_symbol,
        scrub_period,
        scrub_exponential,
        n_trials,
        seed_seq,
        pattern_spec,
        schedule_spec,
    ) = args
    codec = _cached_batch_codec(n, k, m, fcr)
    code = codec.scalar
    counters = PerfCounters()
    # Busy time goes to the additive cpu_seconds axis; true wall clock
    # (elapsed_seconds) is owned by the coordinator's Stopwatch.
    t_busy = time.perf_counter()
    rng = np.random.default_rng(seed_seq)
    n_modules = 2 if arrangement == "duplex" else 1
    if arrangement not in ("simplex", "duplex"):
        raise ValueError(f"unknown arrangement {arrangement!r}")

    data = rng.integers(0, code.gf.order, size=(n_trials, k))
    codewords = codec.encode_batch(data, counters)

    use_patterns = pattern_spec is not None or schedule_spec is not None
    if use_patterns:
        pat = (
            parse_pattern(pattern_spec)
            if pattern_spec is not None
            else IID_1BIT
        )
        sched = parse_schedule(schedule_spec)
        expected = seu_per_bit * n * m * (
            sched.integral(t_end) if sched is not None else t_end
        )
        seu_tables: Optional[List[tuple]] = None
        seu_counts = np.zeros(n_trials, dtype=np.int64)
        # Per module: {trial -> expanded events}; counts drawn
        # vectorized, expansion done per dirty trial in trial order
        # so the stream is a pure function of the chunk seed.
        pattern_trial_events: List[Dict[int, List[FaultEvent]]] = []
        for module in range(n_modules):
            mod_counts = (
                rng.poisson(expected, size=n_trials)
                if expected > 0
                else np.zeros(n_trials, dtype=np.int64)
            )
            per_trial: Dict[int, List[FaultEvent]] = {}
            for trial in np.flatnonzero(mod_counts):
                arrivals = int(mod_counts[trial])
                if sched is not None:
                    times = sched.sample_times(rng, t_end, arrivals)
                else:
                    times = np.sort(
                        rng.uniform(0.0, t_end, size=arrivals)
                    )
                per_trial[int(trial)] = expand_arrivals(
                    rng, pat, times, n, m, module
                )
            seu_counts = seu_counts + mod_counts.astype(np.int64)
            pattern_trial_events.append(per_trial)
    else:
        seu_tables = [
            _draw_event_table(
                rng, seu_per_bit * n * m, t_end, n_trials, n, m, False
            )
            for _ in range(n_modules)
        ]
    perm_tables = [
        _draw_event_table(
            rng, erasure_per_symbol * n, t_end, n_trials, n, m, True
        )
        for _ in range(n_modules)
    ]
    scrub_times = _draw_scrub_times(
        rng, t_end, scrub_period, scrub_exponential, n_trials
    )

    counts = {outcome.value: 0 for outcome in ReadOutcome}
    # Trials with no fault events at all read back CORRECT by
    # construction (scrubs are no-ops on fault-free words): count them
    # without touching the codec.
    if not use_patterns:
        seu_counts = sum(t[0] for t in seu_tables)
    perm_counts = sum(t[0] for t in perm_tables)
    fault_counts = seu_counts + perm_counts
    scrubless = np.asarray(
        [len(times) == 0 for times in scrub_times], dtype=bool
    )
    dirty = fault_counts > 0
    counts[ReadOutcome.CORRECT.value] += int(n_trials - dirty.sum())

    # SEU-only trials with no scrubs need no event replay: with no
    # stuck cells and no rewrites, flips commute, so the final stored
    # word is just the codeword XOR the scatter of all flip masks.
    # Pattern events are excluded: mask strikes and in-arrival
    # permanents are stateful, so every pattern-dirty trial replays.
    if use_patterns:
        vector_mask = np.zeros(n_trials, dtype=bool)
    else:
        vector_mask = dirty & (perm_counts == 0) & scrubless
    vec_trials = np.flatnonzero(vector_mask)
    replay_trials = np.flatnonzero(dirty & ~vector_mask)

    # The final reads of every dirty trial, decoded in one batch at
    # the end: the vectorized trials' words, then the replayed ones,
    # n_modules consecutive rows per trial.
    blocks: List[np.ndarray] = []
    replay_words: List[List[int]] = []
    replay_erasures: List[List[int]] = []

    if vec_trials.size:
        compact = np.full(n_trials, -1, dtype=np.int64)
        compact[vec_trials] = np.arange(vec_trials.size)
        received_per_module = []
        for module in range(n_modules):
            mod_counts, _times, symbols, bits, _values, _off = seu_tables[
                module
            ]
            ev_trial = np.repeat(np.arange(n_trials), mod_counts)
            ev_mask = vector_mask[ev_trial]
            rec = codewords[vec_trials].copy()
            np.bitwise_xor.at(
                rec,
                (compact[ev_trial[ev_mask]], symbols[ev_mask]),
                np.int64(1) << bits[ev_mask].astype(np.int64),
            )
            received_per_module.append(rec)
        blocks.append(np.stack(received_per_module, axis=1).reshape(-1, n))

    # Replay the remaining dirty trials (permanent faults and/or
    # scrubs: stateful, order-dependent) through the bit-level
    # systems, still deferring the final read's decode to the batch.
    for trial in replay_trials:
        events: List[FaultEvent] = []
        for module in range(n_modules):
            if use_patterns:
                events += pattern_trial_events[module].get(int(trial), [])
            else:
                events += _trial_events(
                    trial, FaultKind.SEU, module, seu_tables[module]
                )
            events += _trial_events(
                trial, FaultKind.PERMANENT, module, perm_tables[module]
            )
        events += [
            FaultEvent(float(t), FaultKind.SCRUB) for t in scrub_times[trial]
        ]
        events.sort(key=event_sort_key)
        codeword = codewords[trial].tolist()
        if arrangement == "simplex":
            system: SimplexSystem | DuplexSystem = SimplexSystem(
                code, codeword=codeword
            )
        else:
            system = DuplexSystem(code, codeword=codeword)
        for event in events:
            system.apply_event(event)
        if arrangement == "simplex":
            replay_words.append(system.word.read())
            replay_erasures.append(system.word.located_positions)
        else:
            s1, s2, shared, _masked = recover_erasures(
                system.modules[0], system.modules[1]
            )
            replay_words += [s1, s2]
            replay_erasures += [shared, shared]

    if replay_words:
        blocks.append(np.asarray(replay_words, dtype=np.int64))
    if blocks:
        report = codec.decode_batch(
            np.concatenate(blocks),
            [()] * (vec_trials.size * n_modules) + replay_erasures
            if replay_erasures
            else None,
            counters,
        )
        truth = data[np.concatenate([vec_trials, replay_trials])]
        decoded = report.codewords[:, n - k :]
        if arrangement == "simplex":
            readable = report.ok
        else:
            ok = report.ok.reshape(-1, 2)
            flags = report.corrected.reshape(-1, 2)
            first, second = decoded[0::2], decoded[1::2]
            source = decide_batch(
                ok[:, 0],
                ok[:, 1],
                flags[:, 0],
                flags[:, 1],
                (first == second).all(axis=1),
            )
            readable = source >= 0
            decoded = np.where((source == 1)[:, None], second, first)
        right = readable & (decoded == truth).all(axis=1)
        counts[ReadOutcome.UNREADABLE.value] += int((~readable).sum())
        counts[ReadOutcome.CORRECT.value] += int(right.sum())
        counts[ReadOutcome.CORRUPTED.value] += int((readable & ~right).sum())

    failures = sum(
        counts[o.value] for o in ReadOutcome if o.is_failure
    )
    counters.trials += n_trials
    counters.chunks += 1
    counters.cpu_seconds += time.perf_counter() - t_busy
    return {
        "failures": failures,
        "counts": counts,
        "trials": n_trials,
        "counters": counters.as_dict(),
    }


def _run_scalar_chunk(args: tuple) -> Dict[str, object]:
    """Scalar (one-trial-at-a-time) executor for one chunk; the fallback.

    Takes the same args tuple as :func:`_run_injection_chunk` and
    produces the same result payload, but runs every trial through the
    trusted :func:`simulate_read_outcome` reference path.  The chunk's
    spawned ``SeedSequence`` seeds the generator, so the fallback is
    deterministic; it consumes the stream in a different *order* than
    the batch executor, so a degraded chunk is distribution-identical
    (same physics, same seed independence) but not stream-identical to
    its batch counterpart.
    """
    (
        arrangement,
        n,
        k,
        m,
        fcr,
        t_end,
        seu_per_bit,
        erasure_per_symbol,
        scrub_period,
        scrub_exponential,
        n_trials,
        seed_seq,
        pattern_spec,
        schedule_spec,
    ) = args
    code = _cached_batch_codec(n, k, m, fcr).scalar
    t_busy = time.perf_counter()
    rng = np.random.default_rng(seed_seq)
    pattern = None if pattern_spec is None else parse_pattern(pattern_spec)
    schedule = parse_schedule(schedule_spec)
    counts = {outcome.value: 0 for outcome in ReadOutcome}
    failures = 0
    for _ in range(n_trials):
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
    counters = PerfCounters(
        trials=n_trials, chunks=1, cpu_seconds=time.perf_counter() - t_busy
    )
    return {
        "failures": failures,
        "counts": counts,
        "trials": n_trials,
        "counters": counters.as_dict(),
    }


def _publish_ber_snapshot(snapshot: BerSnapshot, cell_key: str) -> None:
    """Mirror an incremental BER±CI snapshot into the obs layer.

    Gauges carry the latest aggregate (last-value semantics match a
    streaming estimate); the trace event stream keeps the full history
    for post-hoc convergence plots.
    """
    registry = obs_metrics.get_registry()
    registry.gauge("repro.mc.ber").set(snapshot.probability)
    registry.gauge("repro.mc.ber_ci_low").set(snapshot.ci_low)
    registry.gauge("repro.mc.ber_ci_high").set(snapshot.ci_high)
    if not math.isinf(snapshot.rel_halfwidth):
        registry.gauge("repro.mc.ber_rel_halfwidth").set(snapshot.rel_halfwidth)
    trace.event("ber_snapshot", cell=cell_key, **snapshot.as_dict())


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
    vectorized chunks (see :func:`_run_injection_chunk`).  The estimate
    is a deterministic function of ``(seed, trials, chunk_size)`` and all
    physical parameters — and of nothing else:

    * each chunk draws from its own spawned :class:`numpy.random.SeedSequence`
      (:func:`spawn_chunk_seeds`), so streams never overlap;
    * chunk results are combined by commutative summation, so scheduling
      order and ``workers`` cannot change the outcome.

    ``workers > 1`` distributes chunks over a supervised process pool
    (:class:`~repro.runtime.ChunkSupervisor`): crashed or hung workers
    are detected, failed chunks retried with bounded backoff, and
    persistently failing chunks degraded to the scalar reference
    executor so the run always completes.  ``counters`` (optional)
    receives the merged work/throughput/resilience counters of all
    chunks, wherever they ran.

    ``runtime`` bundles the resilience options (retry policy, per-chunk
    timeout, chaos injection, checkpoint journal); ``cell_key``
    namespaces this call's chunks inside a shared journal.  Journaled
    chunks are replayed instead of recomputed, which — by the
    commutative-sum property above — makes an interrupted-and-resumed
    run bit-identical to an uninterrupted one.

    ``runtime.executor`` selects the dispatch backend (serial, pool, or
    the journal-adjacent lease board) and ``runtime.straggler`` enables
    speculative re-dispatch — neither can affect the estimate.  Every
    completion streams an incremental BER±CI snapshot into the obs
    layer (and ``runtime.on_snapshot``); ``runtime.stop`` adds the
    adaptive stopping rule: the run ends at the smallest contiguous
    chunk prefix whose cumulative interval satisfies the rule, and the
    estimate aggregates exactly that prefix — so early-stopped results
    are also invariant to executor, worker count, and schedule
    (``stopped_early`` marks them, with ``trials`` reduced to the
    prefix).
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
    schedule_spec = (
        None if parsed_schedule is None else format_schedule(parsed_schedule)
    )
    sizes = chunk_sizes(trials, chunk_size)
    seeds = spawn_chunk_seeds(seed, len(sizes))
    job_args = [
        (
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
            size,
            chunk_seed,
            pattern_spec,
            schedule_spec,
        )
        for size, chunk_seed in zip(sizes, seeds)
    ]

    cfg = runtime if runtime is not None else RuntimeConfig()
    journal = cfg.journal
    own_counters = counters if counters is not None else PerfCounters()
    seed_ids = [seed_key(s) for s in seeds]

    # Streaming aggregation: every completion (journal replays included)
    # folds into an incremental BER±CI snapshot for the obs layer, and —
    # when a stopping rule is configured — into the contiguous-prefix
    # stopper whose decision is invariant to scheduling.
    ci_method = cfg.stop.method if cfg.stop is not None else "wilson"
    ci_confidence = cfg.stop.confidence if cfg.stop is not None else 0.95
    streamer = StreamingEstimator(method=ci_method, confidence=ci_confidence)
    stopper = AdaptiveStopper(cfg.stop) if cfg.stop is not None else None

    def observe(index: int, result: Dict[str, object]) -> None:
        chunk_failures = int(result["failures"])  # type: ignore[arg-type]
        chunk_trials = int(result["trials"])  # type: ignore[arg-type]
        snapshot = streamer.offer(index, chunk_failures, chunk_trials)
        if snapshot is not None:
            _publish_ber_snapshot(snapshot, cell_key)
            if cfg.on_snapshot is not None:
                cfg.on_snapshot(snapshot)
        if stopper is not None:
            stopper.offer(index, chunk_failures, chunk_trials)

    results: Dict[int, Dict[str, object]] = {}
    jobs: List[Tuple[int, tuple]] = []
    for index, args in enumerate(job_args):
        cached = (
            journal.completed(cell_key, index, seed_ids[index])
            if journal is not None
            else None
        )
        if cached is not None:
            results[index] = cached
            own_counters.chunks_resumed += 1
            observe(index, cached)
            # Replayed chunks are finished work too: advance the
            # progress estimate and leave a heartbeat in the trace.
            resumed_trials = int(cached.get("trials", 0))  # type: ignore[union-attr]
            heartbeat_attrs = {
                "chunk": index,
                "trials": resumed_trials,
                "resumed": True,
            }
            if cfg.progress is not None:
                progress_event = cfg.progress.advance(max(resumed_trials, 1))
                heartbeat_attrs.update(progress_event.as_dict())
                if cfg.on_progress is not None:
                    cfg.on_progress(progress_event)
            trace.event("chunk_heartbeat", **heartbeat_attrs)
        else:
            jobs.append((index, args))
    if stopper is not None and stopper.should_stop:
        # Resumed chunks alone satisfied the rule on a complete prefix;
        # everything past the stop index is unnecessary work.
        jobs = []

    with trace.span(
        "simulate_fail_probability_batched",
        arrangement=arrangement,
        trials=trials,
        chunk_size=chunk_size,
        workers=workers,
        n_chunks=len(sizes),
        chunks_resumed=len(results),
        cell_key=cell_key,
    ), Stopwatch(own_counters):
        if jobs:
            board_dir = cfg.board_dir
            if board_dir is None and journal is not None and (
                cfg.executor in ("lease", "fleet")
            ):
                board_dir = Path(str(journal.path) + ".board")
            # An explicit board means external `repro worker` agents do
            # the computing; without one the fleet spawns local agents.
            fleet_spawn = (
                0
                if (cfg.executor == "fleet" and cfg.board_dir is not None)
                else None
            )
            supervisor = ChunkSupervisor(
                workers=workers,
                retry=cfg.retry,
                chunk_timeout=cfg.chunk_timeout,
                chaos=cfg.chaos,
                counters=own_counters,
                progress=cfg.progress,
                on_progress=cfg.on_progress,
                executor=cfg.executor,
                straggler=cfg.straggler,
                board_dir=board_dir,
                worker_ttl=cfg.worker_ttl,
                fleet_spawn=fleet_spawn,
            )

            def record(index: int, result: Dict[str, object]) -> None:
                if journal is not None:
                    journal.record_chunk(cell_key, index, seed_ids[index], result)
                observe(index, result)

            results.update(
                supervisor.run(
                    jobs,
                    primary=_run_injection_chunk,
                    fallback=_run_scalar_chunk,
                    on_complete=record,
                    should_stop=(
                        None
                        if stopper is None
                        else lambda: stopper.should_stop
                    ),
                )
            )
            cfg.events.extend(supervisor.events)

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
            PerfCounters.from_dict(res["counters"])  # type: ignore[arg-type]
        )
    low, high = wilson_interval(failures, trials_used)
    # Robustness accounting: split the failure mass into *detected*
    # (decoder/arbiter refused output) vs *silent* (wrong data served) —
    # the axis on which out-of-model correlated faults differ from the
    # i.i.d. analytic picture.
    corrupted = counts[ReadOutcome.CORRUPTED.value]
    unreadable = counts[ReadOutcome.UNREADABLE.value]
    registry = obs_metrics.get_registry()
    registry.counter("repro.mc.silent_miscorrections").inc(corrupted)
    registry.counter("repro.mc.detected_uncorrectable").inc(unreadable)
    trace.event(
        "robustness_counts",
        cell=cell_key,
        silent_miscorrections=corrupted,
        detected_uncorrectable=unreadable,
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
