"""Correlated fault-pattern grammar and time-varying rate schedules.

The paper's stochastic model is i.i.d. SEU bit flips plus independent
per-symbol stuck-ats; real highly-reliable memories also fail in
*correlated* patterns — multi-bit upsets spanning adjacent cells,
row/column faults taking out many symbols of one codeword, and
mission-phase-dependent SEU rates.  This module is the injection layer
for that physics:

* :func:`parse_pattern` — a composable textual grammar for fault-event
  *shapes*: ``1BIT`` (the paper's SEU), ``kSYM`` adjacent-symbol
  clusters, ``MBU:w`` adjacent-cell bursts, ``ROW``/``COL`` correlated
  multi-symbol events, a ``!`` suffix for the permanent (stuck-at)
  variant of any shape, and weighted mixtures such as
  ``"0.9*1BIT+0.08*MBU:3+0.02*ROW"``.
* :class:`RateSchedule` — piecewise-constant, cyclically repeating
  modulation of the transient arrival rate (orbit/mission profiles),
  mirroring :mod:`repro.memory.mission` phase-for-phase so scheduled
  i.i.d. scenarios stay analytically checkable.
* :func:`sample_pattern_events` — a seeded compound-Poisson event
  generator: arrivals at the *same total rate as the paper's i.i.d.
  model* (``seu_per_bit * n * m``, optionally schedule-modulated), each
  arrival drawn from the mixture and expanded into concrete
  :class:`~repro.simulator.faults.FaultEvent` records.
* :class:`Pcg64Draws` — the handful of ``Generator`` calls the sampler
  makes, answered from the generator's raw PCG64 words with numpy's own
  algorithms.  The batch engine draws a whole chunk's arrivals through
  it, byte for byte the numbers the per-call ``Generator`` gives, and
  without paying numpy's per-call overhead for each of them.
* :class:`SkippedIntegers` — a chunk's data draw moved past with one
  ``advance`` instead of made, its rows read back from the same words
  only where a replay needs them.

Because a pure ``1BIT`` mixture reproduces the i.i.d. model's law
exactly, every i.i.d.-reducible pattern can be cross-validated against
:mod:`repro.memory` analytic chains (differential-verify target
``scenario-analytic-parity``); everything else is deliberately
*out-of-model* physics whose graceful-degradation behaviour the
miscorrection accounting measures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .faults import FaultEvent, FaultKind

__all__ = [
    "PatternKind",
    "PatternTerm",
    "FaultPattern",
    "RateSchedule",
    "IID_1BIT",
    "parse_pattern",
    "format_pattern",
    "parse_schedule",
    "format_schedule",
    "MAX_SCHEDULE_LEGS",
    "check_schedule_legs",
    "Pcg64Draws",
    "SkippedIntegers",
    "arrival_cells",
    "expand_arrivals",
    "sample_pattern_events",
]


class PatternKind(Enum):
    """Shape classes of one correlated fault arrival."""

    BIT = "1BIT"  # single-cell upset: the paper's i.i.d. SEU
    SYM = "SYM"  # cluster of k adjacent symbols, each fully corrupted
    MBU = "MBU"  # burst of w adjacent cells (may straddle symbols)
    ROW = "ROW"  # row fault: a run of symbols of one word (default: all)
    COL = "COL"  # column fault: one bit plane across a run of symbols


@dataclass(frozen=True)
class PatternTerm:
    """One weighted mixture component of a :class:`FaultPattern`.

    ``size`` is the shape parameter (cluster symbols, burst cells, or
    row/column span); ``None`` means the shape's default (3 cells for
    ``MBU``, the whole word for ``ROW``/``COL``).  ``permanent`` selects
    the stuck-at variant (grammar suffix ``!``).
    """

    kind: PatternKind
    size: Optional[int] = None
    permanent: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (self.weight > 0.0 and np.isfinite(self.weight)):
            raise ValueError(
                f"pattern term weight must be positive and finite, "
                f"got {self.weight!r}"
            )
        if self.size is not None and self.size < 1:
            raise ValueError(
                f"pattern term size must be >= 1, got {self.size}"
            )
        if self.kind is PatternKind.BIT and self.size is not None:
            raise ValueError("1BIT takes no size parameter")
        if self.kind is PatternKind.SYM and self.size is None:
            raise ValueError("kSYM terms need an explicit cluster size")

    def token(self) -> str:
        """Canonical token text (without the weight prefix)."""
        if self.kind is PatternKind.BIT:
            base = "1BIT"
        elif self.kind is PatternKind.SYM:
            base = f"{self.size}SYM"
        else:
            base = self.kind.value
            if self.size is not None:
                base += f":{self.size}"
        return base + ("!" if self.permanent else "")


@dataclass(frozen=True)
class FaultPattern:
    """A weighted mixture of correlated fault shapes."""

    terms: Tuple[PatternTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a fault pattern needs at least one term")
        total = sum(t.weight for t in self.terms)
        if not (total > 0.0 and np.isfinite(total)):
            raise ValueError(
                f"pattern term weights must sum to a positive finite "
                f"value, got {total!r}"
            )

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized mixture probabilities, term order preserved."""
        weights = np.asarray([t.weight for t in self.terms], dtype=float)
        return weights / weights.sum()

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _choice_cdf(self.probabilities)

    def pick(self, rng, count: int) -> np.ndarray:
        """Term indices of ``count`` arrivals.

        The numbers ``rng.choice(len(terms), count, p=probabilities)``
        gives: numpy's ``choice`` searches ``rng.random(count)`` in the
        same CDF, which this pattern builds once.
        """
        return self._cdf.searchsorted(rng.random(count), side="right")

    @property
    def iid_reducible(self) -> bool:
        """True when the mixture's law matches the paper's i.i.d. model.

        ``1BIT`` flips one uniformly random cell; ``1SYM`` corrupts one
        uniformly random symbol.  Both corrupt exactly one symbol per
        arrival, which is all the symbol-level Markov chains can see, so
        any transient-only mixture of the two is analytically checkable
        against :mod:`repro.memory`.
        """
        return all(
            not t.permanent
            and (
                t.kind is PatternKind.BIT
                or (t.kind is PatternKind.SYM and t.size == 1)
            )
            for t in self.terms
        )

    def spec(self) -> str:
        """Canonical grammar text; ``parse_pattern`` round-trips it."""
        return format_pattern(self)


#: The paper's own fault model as a pattern: one uniformly random cell
#: flipped per arrival.
IID_1BIT = FaultPattern((PatternTerm(PatternKind.BIT),))

_TOKEN_RE = re.compile(
    r"^(?:(?P<ksym>\d+)SYM|(?P<name>1BIT|MBU|ROW|COL))"
    r"(?::(?P<param>-?\d+))?(?P<perm>!)?$"
)


def _parse_term(text: str) -> PatternTerm:
    weight = 1.0
    token = text
    if "*" in text:
        weight_text, _, token = text.partition("*")
        try:
            weight = float(weight_text)
        except ValueError:
            raise ValueError(
                f"bad pattern weight {weight_text!r} in term {text!r}"
            ) from None
    match = _TOKEN_RE.match(token.strip())
    if match is None:
        raise ValueError(
            f"unknown pattern token {token.strip()!r} (expected 1BIT, "
            f"kSYM, MBU[:w], ROW[:span], or COL[:span], optionally "
            f"suffixed with '!')"
        )
    permanent = match.group("perm") is not None
    param = match.group("param")
    size = int(param) if param is not None else None
    if match.group("ksym") is not None:
        if size is not None:
            raise ValueError(
                f"kSYM terms carry their size in the token name; "
                f"{token.strip()!r} also has a ':' parameter"
            )
        size = int(match.group("ksym"))
        kind = PatternKind.SYM
    else:
        kind = PatternKind(match.group("name")) if match.group(
            "name"
        ) != "1BIT" else PatternKind.BIT
        if kind is PatternKind.BIT and size is not None:
            raise ValueError("1BIT takes no ':' parameter")
    return PatternTerm(kind=kind, size=size, permanent=permanent, weight=weight)


def parse_pattern(spec: Union[str, FaultPattern]) -> FaultPattern:
    """Parse a pattern spec like ``"0.9*1BIT+0.08*MBU:3+0.02*ROW"``.

    Terms are ``[WEIGHT*]TOKEN`` joined by ``+``; a missing weight means
    1.  Malformed specs raise :class:`ValueError` (the CLI maps these to
    exit code 2).
    """
    if isinstance(spec, FaultPattern):
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty fault-pattern spec {spec!r}")
    terms = tuple(
        _parse_term(part.strip()) for part in spec.split("+") if True
    )
    return FaultPattern(terms)


def format_pattern(pattern: FaultPattern) -> str:
    """Canonical text for a pattern; ``parse_pattern`` inverts it exactly.

    Weights are emitted with :func:`repr`, which round-trips Python
    floats bit-for-bit; a weight of exactly 1 on a single-term pattern
    is omitted.
    """
    parts = []
    for term in pattern.terms:
        if len(pattern.terms) == 1 and term.weight == 1.0:
            parts.append(term.token())
        else:
            parts.append(f"{term.weight!r}*{term.token()}")
    return "+".join(parts)


# --------------------------------------------------------------------------
# time-varying rate schedules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant, cyclically repeating rate modulation.

    ``segments`` are ``(duration_hours, factor)`` legs; the transient
    arrival rate inside a leg is ``base_rate * factor``.  Past the total
    cycle duration the schedule repeats from the first leg (periodic
    orbits), exactly like :class:`repro.memory.mission.MissionProfile`.
    """

    segments: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a rate schedule needs at least one segment")
        for duration, factor in self.segments:
            if not (duration > 0.0 and np.isfinite(duration)):
                raise ValueError(
                    f"schedule segment durations must be positive and "
                    f"finite, got {duration!r}"
                )
            if not (factor >= 0.0 and np.isfinite(factor)):
                raise ValueError(
                    f"schedule segment factors must be nonnegative and "
                    f"finite, got {factor!r}"
                )

    @property
    def cycle_hours(self) -> float:
        return sum(d for d, _f in self.segments)

    def integral(self, t_end: float) -> float:
        """``∫₀^t_end factor(t) dt`` with cyclic repetition."""
        if t_end <= 0.0:
            return 0.0
        cycle = self.cycle_hours
        cycle_area = sum(d * f for d, f in self.segments)
        full, rest = divmod(t_end, cycle)
        area = full * cycle_area
        for duration, factor in self.segments:
            if rest <= 0.0:
                break
            step = min(duration, rest)
            area += step * factor
            rest -= step
        return area

    def legs(self, t_end: float) -> float:
        """About how many legs ``[0, t_end]`` spans, counted without listing them.

        :meth:`windows` lists one window per leg and the mission chains
        solve one step per leg.  A float: a short leg over a long horizon
        makes more legs than any list could hold.
        """
        if t_end <= 0.0:
            return 0.0
        full, rest = divmod(t_end, self.cycle_hours)
        started = 0
        for duration, _factor in self.segments:
            if rest <= 0.0:
                break
            started += 1
            rest -= duration
        return full * len(self.segments) + started

    def windows(self, t_end: float) -> List[Tuple[float, float, float]]:
        """Absolute ``(start, end, factor)`` windows covering ``[0, t_end]``.

        Raises ``ValueError`` past :data:`MAX_SCHEDULE_LEGS` windows.
        """
        check_schedule_legs(self, t_end)
        out: List[Tuple[float, float, float]] = []
        t = 0.0
        while t < t_end:
            for duration, factor in self.segments:
                if t >= t_end:
                    break
                end = min(t + duration, t_end)
                out.append((t, end, factor))
                t = end
        return out

    def sample_times(self, rng, t_end: float, count: int) -> np.ndarray:
        """``count`` arrival instants on ``[0, t_end]`` with density ∝ factor.

        Windows are picked as ``rng.choice(len(windows), count,
        p=weights / total)`` picks them, from a CDF built once per
        horizon.
        """
        if count <= 0:
            return np.zeros(0)
        starts, spans, cdf = _window_table(self, t_end)
        idx = cdf.searchsorted(rng.random(count), side="right")
        times = starts[idx] + rng.uniform(0.0, 1.0, size=count) * spans[idx]
        return np.sort(times)

    def mission_phases(self, base_rates, name_prefix: str = "seg"):
        """The schedule as :class:`~repro.memory.mission.MissionPhase` legs.

        Only the transient (SEU) rate is modulated — schedules model the
        radiation environment, not wearout — so permanent and scrub
        rates carry through unchanged.  This is the bridge that keeps
        scheduled i.i.d. scenarios analytically checkable.
        """
        from dataclasses import replace

        from ..memory.mission import MissionPhase

        return [
            MissionPhase(
                name=f"{name_prefix}{i}",
                duration_hours=duration,
                rates=replace(
                    base_rates, seu_per_bit=base_rates.seu_per_bit * factor
                ),
            )
            for i, (duration, factor) in enumerate(self.segments)
        ]

    def spec(self) -> str:
        return format_schedule(self)


@lru_cache(maxsize=32)
def _window_table(
    schedule: RateSchedule, t_end: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, span and ``choice`` CDF of the windows covering ``[0, t_end]``."""
    windows = schedule.windows(t_end)
    weights = np.asarray([(e - s) * f for s, e, f in windows])
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("cannot sample arrival times from an all-zero schedule")
    starts = np.asarray([s for s, _e, _f in windows])
    spans = np.asarray([e - s for s, e, _f in windows])
    table = starts, spans, _choice_cdf(weights / total)
    for array in table:  # every caller shares the cached arrays
        array.flags.writeable = False
    return table


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(..., p=p)`` searches its uniforms in."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


_SEGMENT_RE = re.compile(r"^(?P<dur>[^@]+)h@(?P<factor>.+)$")


def parse_schedule(
    spec: Union[str, RateSchedule, None],
) -> Optional[RateSchedule]:
    """Parse ``"1.36h@1,0.24h@23.3"`` into a :class:`RateSchedule`.

    Each segment is ``<duration-hours>h@<factor>``; segments are joined
    by commas.  ``None`` passes through (no schedule).
    """
    if spec is None or isinstance(spec, RateSchedule):
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty rate-schedule spec {spec!r}")
    segments = []
    for part in spec.split(","):
        match = _SEGMENT_RE.match(part.strip())
        if match is None:
            raise ValueError(
                f"bad schedule segment {part.strip()!r} "
                f"(expected '<hours>h@<factor>')"
            )
        try:
            duration = float(match.group("dur"))
            factor = float(match.group("factor"))
        except ValueError:
            raise ValueError(
                f"bad schedule segment numbers in {part.strip()!r}"
            ) from None
        segments.append((duration, factor))
    return RateSchedule(tuple(segments))


def format_schedule(schedule: RateSchedule) -> str:
    """Canonical text for a schedule; ``parse_schedule`` inverts it."""
    return ",".join(f"{d!r}h@{f!r}" for d, f in schedule.segments)


#: Most legs a rate schedule may span over a horizon.  Listing the
#: windows (:meth:`RateSchedule.windows`) takes one Python step per leg,
#: and the analytic bridge solves one uniformization step per leg
#: (:meth:`~repro.memory.mission.MissionProfile.fail_probability`):
#: about 0.7 ms for the RS(18,16) SEU-only chains and 2.7 ms for the
#: duplex chain with permanent faults and hourly scrubs, so a cell at
#: the bound solves in under 3 s, while a 1e-300 h leg would never
#: finish (DESIGN.md §11).
MAX_SCHEDULE_LEGS = 1000


def check_schedule_legs(schedule, t_end_hours: float) -> None:
    """Parse ``schedule``; refuse one spanning over :data:`MAX_SCHEDULE_LEGS` legs.

    Raises ``ValueError`` for a malformed spec, or one naming the leg
    count over ``[0, t_end_hours]``.
    """
    schedule = parse_schedule(schedule)
    if schedule is None:
        return
    legs = schedule.legs(t_end_hours)
    if legs > MAX_SCHEDULE_LEGS:
        raise ValueError(
            f"schedule {schedule.spec()!r} spans {legs:.4g} legs over the "
            f"{t_end_hours:g} h horizon; at most {MAX_SCHEDULE_LEGS} are "
            f"supported (windows and the model solve take one step per leg)"
        )


# --------------------------------------------------------------------------
# seeded event generation
# --------------------------------------------------------------------------


#: ``Generator.random``'s scale: a double is a word's top 53 bits / 2**53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_UINT32 = 0xFFFFFFFF


class Pcg64Draws:
    """The sampler's ``Generator`` calls, answered from raw PCG64 words.

    ``random(size)``, ``uniform(low, high, size)`` and scalar
    ``integers(low, high)`` return what the same calls on ``rng`` would,
    computed with numpy's algorithms from words pulled in bulk with
    ``random_raw``: a double is a word's top 53 bits over 2**53 (the
    buffered 32-bit half is left alone), and a bounded integer is
    Lemire's multiply-and-reject on 32-bit halves — a word's low half,
    then its high half, buffered in the generator's state between calls.
    :meth:`close` re-seats ``rng`` where those calls would have left it
    (the words used, then the buffered half), so the draws that follow
    on ``rng`` itself see the same stream.  Any other bit generator, or
    a range wider than 32 bits, raises instead of drawing other bytes.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                f"Pcg64Draws replays PCG64 words; the generator runs "
                f"{type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._words: List[int] = []
        self._doubles: List[float] = []
        self._pos = 0  # next unused entry of _words / _doubles
        self._used = 0  # words used before _words[0]

    def __enter__(self) -> "Pcg64Draws":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _refill(self, need: int) -> None:
        fresh = self._bit_generator.random_raw(max(need, 2 * len(self._words), 256))
        self._used += self._pos
        self._words = self._words[self._pos :] + fresh.tolist()
        self._doubles = self._doubles[self._pos :] + (
            (fresh >> np.uint64(11)) * _DOUBLE_SCALE
        ).tolist()
        self._pos = 0

    def random(self, size: int) -> np.ndarray:
        if self._pos + size > len(self._doubles):
            self._refill(size)
        start, self._pos = self._pos, self._pos + size
        return np.array(self._doubles[start : self._pos])

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return low + (high - low) * self.random(size)

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        if self._pos == len(self._words):
            self._refill(1)
        word = self._words[self._pos]
        self._pos += 1
        self._has_half, self._half = 1, word >> 32
        return word & _UINT32

    def integers(self, low: int, high: int) -> int:
        span = high - low - 1  # numpy's ``rng``: the largest offset
        if not 0 <= span <= _UINT32:
            raise ValueError(
                f"Pcg64Draws draws ranges of 1 to 2**32 values, not "
                f"[{low}, {high})"
            )
        if span == 0:
            return low
        if span == _UINT32:
            return low + self._next32()
        bound = span + 1
        product = self._next32() * bound
        if product & _UINT32 < bound:
            threshold = (_UINT32 - span) % bound
            while product & _UINT32 < threshold:
                product = self._next32() * bound
        return low + (product >> 32)

    def close(self) -> None:
        """Leave the generator where the replayed calls would have."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._used + self._pos)
        state = bit_generator.state  # advance() clears the buffered half
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bit_generator.state = state


class SkippedIntegers:
    """``rng.integers(0, 1 << m, size=(rows, k))``, skipped instead of drawn.

    For a power-of-two range numpy's Lemire method never rejects, so the
    draw takes exactly one 32-bit half per value, in :class:`Pcg64Draws`'
    order (a half carried in first, then a word's low half and its high
    half), and keeps the half's top ``m`` bits.  Construction moves
    ``rng`` past the draw with one ``advance`` and re-seats the half the
    draw leaves buffered, stale ``uinteger`` included, so
    ``rng.bit_generator.state`` equals what the draw leaves.  The values
    stay in the stream: :meth:`take` reads rows back from the words they
    come from, :meth:`table` reads every row.  Any other bit generator,
    or a range wider than 32 bits, raises instead of skipping other
    bytes.
    """

    def __init__(self, rng: np.random.Generator, rows: int, k: int, m: int):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                f"SkippedIntegers skips PCG64 words; the generator runs "
                f"{type(bit_generator).__name__}"
            )
        if not 0 <= m <= 32:
            raise ValueError(
                f"SkippedIntegers skips ranges of 1 to 2**32 values, not "
                f"[0, 2**{m})"
            )
        self.shape = (rows, k)
        self.m = m
        self._start = bit_generator.state
        if not rows * k * m:  # no value, or a one-value range: no draw
            return
        fresh = rows * k - self._start["has_uint32"]  # halves of new words
        if fresh:
            bit_generator.advance((fresh - 1) // 2)
            last = int(bit_generator.random_raw())
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = fresh % 2, last >> 32
        else:  # the carried half was the whole draw
            state = bit_generator.state
            state["has_uint32"] = 0
        bit_generator.state = state

    def take(
        self, rows: np.ndarray, bit_generator: Optional[np.random.PCG64] = None
    ) -> np.ndarray:
        """The values of ``rows``, as the draw gives them (``int64``).

        One ``random_raw`` reads the words from the first row's to the
        last one's, through ``bit_generator`` re-seated at the draw's
        start (so one generator serves many reads) or a new ``PCG64``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n_rows, k = self.shape
        if not rows.size or not k * self.m:
            return np.zeros((rows.size, k), dtype=np.int64)
        low, high = int(rows.min()), int(rows.max())
        if low < 0 or high >= n_rows:
            raise IndexError(f"rows {low}..{high} outside a {n_rows}-row draw")
        carried = self._start["has_uint32"]
        # Value v is half v - carried of the new words; half -1 is the
        # carried one.
        first = max(low * k - carried, 0) // 2
        end = ((high + 1) * k - carried + 1) // 2
        if bit_generator is None:
            bit_generator = np.random.PCG64()
        bit_generator.state = self._start
        bit_generator.advance(first)
        words = bit_generator.random_raw(end - first).astype("<u8", copy=False)
        halves = np.empty(2 * words.size + 1, dtype="<u4")
        halves[0] = self._start["uinteger"]
        halves[1:] = words.view("<u4")  # each word's low half, then its high
        index = rows[:, None] * k + np.arange(k) + (1 - carried - 2 * first)
        return (halves[index] >> (32 - self.m)).astype(np.int64)

    def table(self) -> np.ndarray:
        """Every row of the draw."""
        return self.take(np.arange(self.shape[0]))


def _nonzero_mask(rng, m: int) -> int:
    """A uniformly random nonzero m-bit corruption mask."""
    return int(rng.integers(1, 1 << m))


def _expand_term(
    rng, term: PatternTerm, n: int, m: int
) -> List[Tuple[int, int, int, int]]:
    """``(symbol, bit, stuck value, mask)`` of each event of one arrival.

    The fields of the :class:`FaultEvent` records an arrival of shape
    ``term`` makes.  Anchors are uniform over every position whose span
    can intersect the word (the clipped-cluster geometry of
    :mod:`repro.simulator.mbu`), so edge symbols see partial clusters
    exactly as in a physical array.
    """
    cells: List[Tuple[int, int, int, int]] = []
    if term.kind is PatternKind.BIT:
        symbol = int(rng.integers(0, n))
        bit = int(rng.integers(0, m))
        value = int(rng.integers(0, 2)) if term.permanent else 0
        cells.append((symbol, bit, value, 0))
    elif term.kind in (PatternKind.SYM, PatternKind.ROW):
        span = term.size if term.size is not None else n
        span = min(span, n)
        anchor = int(rng.integers(-(span - 1), n)) if span > 1 else int(
            rng.integers(0, n)
        )
        for symbol in range(max(anchor, 0), min(anchor + span, n)):
            if term.permanent:
                # One stuck cell per symbol suffices: the word marks the
                # whole symbol as located (an erasure), the paper's
                # per-symbol stuck-at abstraction.
                bit = int(rng.integers(0, m))
                cells.append((symbol, bit, int(rng.integers(0, 2)), 0))
            else:
                cells.append((symbol, 0, 0, _nonzero_mask(rng, m)))
    elif term.kind is PatternKind.MBU:
        width = term.size if term.size is not None else 3
        n_cells = n * m
        width = min(width, n_cells)
        anchor = int(rng.integers(-(width - 1), n_cells)) if width > 1 else int(
            rng.integers(0, n_cells)
        )
        lo, hi = max(anchor, 0), min(anchor + width, n_cells)
        # Group the burst's cells per symbol into one mask event each.
        by_symbol: dict = {}
        for cell in range(lo, hi):
            by_symbol.setdefault(cell // m, 0)
            by_symbol[cell // m] |= 1 << (cell % m)
        for symbol in sorted(by_symbol):
            mask = by_symbol[symbol]
            value = int(rng.integers(0, 1 << m)) & mask if term.permanent else 0
            cells.append((symbol, 0, value, mask))
    elif term.kind is PatternKind.COL:
        span = term.size if term.size is not None else n
        span = min(span, n)
        bit = int(rng.integers(0, m))
        anchor = int(rng.integers(-(span - 1), n)) if span > 1 else int(
            rng.integers(0, n)
        )
        # A column-driver fault forces the whole plane to one level, so
        # the stuck value is drawn once for the event (a transient draws
        # it too, and drops it).
        value = int(rng.integers(0, 2))
        for symbol in range(max(anchor, 0), min(anchor + span, n)):
            cells.append((symbol, bit, value if term.permanent else 0, 0))
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled pattern kind {term.kind}")
    return cells


def arrival_cells(
    rng,
    pattern: FaultPattern,
    times: Sequence[float],
    n: int,
    m: int,
) -> List[Tuple[float, bool, int, int, int, int]]:
    """``(time, permanent, symbol, bit, stuck value, mask)`` of each event.

    The events of arrivals at ``times``: one shape per arrival from
    :meth:`FaultPattern.pick`, then each arrival's geometry in time
    order.  ``rng`` is a ``Generator`` or a :class:`Pcg64Draws` over
    one; both draw the same numbers.
    """
    if len(times) == 0:
        return []
    cells: List[Tuple[float, bool, int, int, int, int]] = []
    for t, index in zip(times, pattern.pick(rng, len(times)).tolist()):
        term = pattern.terms[index]
        cells += [
            (t, term.permanent, *cell) for cell in _expand_term(rng, term, n, m)
        ]
    return cells


def expand_arrivals(
    rng: np.random.Generator,
    pattern: FaultPattern,
    times: Sequence[float],
    n: int,
    m: int,
    module: int = 0,
) -> List[FaultEvent]:
    """Expand pre-drawn arrival instants into concrete fault events.

    ``times`` must already be sorted ascending: events are expanded in
    time order so the generator's rng consumption (and therefore every
    downstream estimate) is a pure function of the seed.
    """
    return [
        FaultEvent(
            float(t),
            FaultKind.PERMANENT if permanent else FaultKind.SEU,
            module,
            symbol,
            bit,
            value,
            mask,
        )
        for t, permanent, symbol, bit, value, mask in arrival_cells(
            rng, pattern, times, n, m
        )
    ]


def sample_pattern_events(
    rng: np.random.Generator,
    pattern: Union[str, FaultPattern],
    seu_per_bit: float,
    n: int,
    m: int,
    t_end: float,
    module: int = 0,
    schedule: Union[str, RateSchedule, None] = None,
) -> List[FaultEvent]:
    """Correlated fault events over ``[0, t_end]`` for one module.

    Arrivals form a (possibly schedule-modulated) Poisson process at the
    i.i.d. model's total rate ``seu_per_bit * n * m``; each arrival is
    one shape drawn from the mixture.  A pure ``1BIT`` pattern with no
    schedule is distribution-identical to
    :func:`~repro.simulator.faults.sample_seu_events` — the analytic
    cross-validation anchor.
    """
    pattern = parse_pattern(pattern)
    schedule = parse_schedule(schedule)
    base_rate = seu_per_bit * n * m
    if base_rate <= 0 or t_end <= 0:
        return []
    expected = base_rate * (
        schedule.integral(t_end) if schedule is not None else t_end
    )
    if expected <= 0:
        return []
    count = int(rng.poisson(expected))
    if count == 0:
        return []
    if schedule is not None:
        times = schedule.sample_times(rng, t_end, count)
    else:
        times = np.sort(rng.uniform(0.0, t_end, size=count))
    return expand_arrivals(rng, pattern, times, n, m, module)
