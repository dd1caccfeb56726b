"""Markov model of the *duplex* RS-coded memory system (paper Figs. 3-4).

Two replicated modules each store an RS(n, k) codeword of the same data;
an arbiter recovers single-sided erasures by masking (taking the symbol
from the healthy replica) and compares the two independently decoded words
using per-word correction flags (paper Section 3).

Each state is the 6-tuple ``(X, Y, b, e1, e2, ec)`` of paper Fig. 3:

* ``X``  — symbol pairs erased in *both* replicas (unmaskable erasures);
* ``Y``  — symbol pairs erased in exactly one replica, other side clean
  (masked by the arbiter, no capability cost);
* ``b``  — pairs with an erasure on one side and a random error on the
  other (masking copies the error, so these cost like random errors on
  *both* words);
* ``e1``/``e2`` — pairs with a random error only in word 1 / word 2;
* ``ec`` — pairs with random errors in *both* replicas of the symbol.

After erasure recovery, word ``i`` sees ``X`` erasures and
``b + ec + e_i`` random errors, so the per-word capability conditions are

    X + 2*(b + ec + e1) <= n - k      and      X + 2*(b + ec + e2) <= n - k.

The default fail rule (``fail_rule="either"``) absorbs into FAIL as soon
as *either* word exceeds capability — the arbiter cannot discriminate
simultaneous (mis)corrections (paper Section 3, last bullet).  The
alternative ``"both"`` rule (system fails only when both words are beyond
capability, the arbiter trusting whichever word still decodes) is kept as
an ablation; see ``benchmarks/bench_ablation_failrule.py``.

The thirteen transition families (A-I, L-O) of paper Fig. 4 are
implemented verbatim, with one documented correction: the text gives the
rate of family B (erasure landing on the errored partner of an
erasure/error pair) as ``λe * Y`` but Fig. 4 labels the arc ``b * λe``,
which is also what the semantics require; we use ``λe * b``.  They are
written once, in the table :data:`FAMILIES`, which the per-state rule
:meth:`DuplexMarkovModel.transitions` and the array rule
:class:`DuplexFrontier` (used to build the chain) both read.

Scrubbing rewrites corrected data, clearing every random error while
permanent faults persist: ``(X, Y, b, e1, e2, ec) → (X, Y + b, 0, 0, 0, 0)``
at rate ``1/Tsc`` (a ``b`` pair loses its random error and keeps its
single-sided erasure, becoming a ``Y`` pair).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .base import FAIL, MemoryMarkovModel
from .rates import FaultRates

DuplexState = Tuple[int, int, int, int, int, int]  # (X, Y, b, e1, e2, ec)

FAIL_RULES = ("either", "both")

# Rate classes: a move fires at (class rate) x (count of its source pairs).
ERASURE, SEU, SCRUB = range(3)
# Count sources: the six state components, the untouched pairs, and one.
X, Y, B, E1, E2, EC, CLEAN, ONE = range(8)


def _scrub(x, y, b, e1, e2, ec):
    """Scrubbing clears every random error; a b pair keeps its erasure."""
    return (0, b, -b, -e1, -e2, -ec)


#: Paper Fig. 4's transition families, then scrubbing, in emission order:
#: ``(label, rate class, count source, change of (X, Y, b, e1, e2, ec))``.
#: The change is a tuple, or a function of the six components that works
#: on ints and on arrays alike.  :meth:`DuplexMarkovModel.transitions`
#: reads this table per state and :class:`DuplexFrontier` per BFS level.
FAMILIES = (
    # erasure-driven (states A..H)
    ("A", ERASURE, Y, (1, -1, 0, 0, 0, 0)),  # second erasure completes a pair
    ("B", ERASURE, B, (1, 0, -1, 0, 0, 0)),  # erasure on the errored partner of a b pair
    ("C", ERASURE, CLEAN, (0, 1, 0, 0, 0, 0)),  # erasure on an untouched pair
    ("D", ERASURE, E1, (0, 1, 0, -1, 0, 0)),  # erasure lands on the errored symbol
    ("E", ERASURE, E2, (0, 1, 0, 0, -1, 0)),
    ("F", ERASURE, EC, (0, 0, 1, 0, 0, -1)),  # erasure on a doubly-errored pair
    ("G", ERASURE, E1, (0, 0, 1, -1, 0, 0)),  # erasure on the clean partner of an error
    ("H", ERASURE, E2, (0, 0, 1, 0, -1, 0)),
    # random-error-driven (states I, L, M, N, O)
    ("I", SEU, Y, (0, -1, 1, 0, 0, 0)),  # SEU on the clean partner of an erasure
    ("L", SEU, CLEAN, (0, 0, 0, 1, 0, 0)),  # SEU on an untouched pair, word 1
    ("M", SEU, CLEAN, (0, 0, 0, 0, 1, 0)),  # ... word 2
    ("N", SEU, E1, (0, 0, 0, -1, 0, 1)),  # SEU on the partner of an e1 symbol
    ("O", SEU, E2, (0, 0, 0, 0, -1, 1)),
    # scrubbing: random errors cleared, erasures persist
    ("scrub", SCRUB, ONE, _scrub),
)


class DuplexMarkovModel(MemoryMarkovModel):
    """CTMC of a duplex RS(n, k) memory word pair.

    Parameters
    ----------
    n, k, m, rates:
        As in :class:`~repro.memory.base.MemoryMarkovModel`.
    fail_rule:
        ``"either"`` (paper default): FAIL when either word exceeds
        capability.  ``"both"``: FAIL only when both do (ablation).
    """

    def __init__(
        self,
        n: int,
        k: int,
        m: int,
        rates: FaultRates,
        fail_rule: str = "either",
    ):
        if fail_rule not in FAIL_RULES:
            raise ValueError(
                f"fail_rule must be one of {FAIL_RULES}, got {fail_rule!r}"
            )
        super().__init__(n, k, m, rates)
        self.fail_rule = fail_rule

    def initial_state(self) -> DuplexState:
        return (0, 0, 0, 0, 0, 0)

    # -- capability -------------------------------------------------------

    def word_ok(self, state: DuplexState, word: int) -> bool:
        """Per-word capability condition after erasure recovery."""
        x, _y, b, e1, e2, ec = state
        e_own = e1 if word == 1 else e2
        return x + 2 * (b + ec + e_own) <= self.nsym

    def is_valid(self, state: DuplexState) -> bool:
        """Non-FAIL condition under the configured fail rule.

        Also takes a tuple of six component arrays and answers per entry.
        """
        ok1 = self.word_ok(state, 1)
        ok2 = self.word_ok(state, 2)
        if self.fail_rule == "either":
            return ok1 & ok2
        return ok1 | ok2

    # -- dynamics ---------------------------------------------------------

    def _class_rates(self) -> Tuple[float, float, float]:
        """Rate per source pair of each rate class (ERASURE, SEU, SCRUB)."""
        flip = self.m * self.rates.seu_per_bit  # per-symbol SEU rate
        return (self.rates.erasure_per_symbol, flip, self.rates.scrub_rate)

    def transitions(self, state) -> Iterable[Tuple[object, float]]:
        if state == FAIL:
            return []
        counts = (*state, self.n - sum(state), 1)
        class_rates = self._class_rates()
        moves: List[Tuple[object, float]] = []
        for _label, rate_class, source, change in FAMILIES:
            count = counts[source]
            if count <= 0:
                continue
            rate = class_rates[rate_class] * count
            if rate <= 0.0:
                continue
            if callable(change):
                change = change(*state)
            target = tuple(s + d for s, d in zip(state, change))
            if target != state:
                moves.append((target if self.is_valid(target) else FAIL, rate))
        return moves

    def frontier_rule(self) -> "DuplexFrontier | None":
        # keys pack the six components in radix n + 1
        if (self.n + 1) ** 6 >= 2**62:
            return None
        return DuplexFrontier(self)


class DuplexFrontier:
    """:data:`FAMILIES` over a BFS level of packed duplex states.

    A state's key packs ``(X, Y, b, e1, e2, ec)`` in radix ``n + 1``;
    ``FAIL`` is the sink key ``-1``.  Packing is linear, so a family's
    target key is the state's key plus the packed change.  The rates,
    targets and FAIL tests are those :meth:`DuplexMarkovModel.transitions`
    computes state by state, for a whole level of states and every family
    at once.
    """

    SINK = -1

    def __init__(self, model: DuplexMarkovModel):
        self.model = model
        self.radix = model.n + 1
        self.powers = self.radix ** np.arange(5, -1, -1, dtype=np.int64)
        _labels, classes, self.sources, changes = zip(*FAMILIES)
        self.class_rates = np.array(model._class_rates())[list(classes)]
        self.varying = [f for f, change in enumerate(changes) if callable(change)]
        # the fixed changes, one column per family (zero for varying ones)
        fixed = np.array(
            [(0,) * 6 if callable(change) else change for change in changes],
            dtype=np.int64,
        )
        self.change_rows = fixed.T
        self.key_shift = fixed @ self.powers

    def encode(self, state) -> int:
        return self.SINK if state == FAIL else int(np.dot(state, self.powers))

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        """``(len(keys), 6)`` components of non-sink keys."""
        return keys[:, None] // self.powers % self.radix

    def decode(self, keys: np.ndarray) -> List[object]:
        keys = np.asarray(keys, dtype=np.int64)
        # one list per component, zipped into tuples: no list per state
        labels = list(zip(*self._unpack(keys).T.tolist()))
        for i in np.flatnonzero(keys == self.SINK).tolist():
            labels[i] = FAIL
        return labels

    def expand(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        model = self.model
        state = self._unpack(keys)
        counts = np.column_stack(
            [state, model.n - state.sum(axis=1), np.ones_like(keys)]
        )
        # one row per state, one column per family
        count = counts[:, self.sources]
        rates = self.class_rates * count
        target = [state[:, c, None] + self.change_rows[c] for c in range(6)]
        key = keys[:, None] + self.key_shift
        for f in self.varying:
            change = FAMILIES[f][3](*state.T)
            for c, d in enumerate(change):
                target[c][:, f] = state[:, c] + d
            key[:, f] = keys + sum(d * p for d, p in zip(change, self.powers.tolist()))
        live = (count > 0) & ~(rates <= 0.0) & (key != keys[:, None])
        key = np.where(model.is_valid(tuple(target)), key, self.SINK)
        # row-major nonzero: ordered by parent, then by family
        parent, family = np.nonzero(live)
        return parent, key[parent, family], rates[parent, family]


def duplex_model(
    n: int,
    k: int,
    m: int = 8,
    seu_per_bit_day: float = 0.0,
    erasure_per_symbol_day: float = 0.0,
    scrub_period_seconds: float | None = None,
    fail_rule: str = "either",
) -> DuplexMarkovModel:
    """Convenience constructor taking the paper's units directly."""
    rates = FaultRates.from_paper_units(
        seu_per_bit_day=seu_per_bit_day,
        erasure_per_symbol_day=erasure_per_symbol_day,
        scrub_period_seconds=scrub_period_seconds,
    )
    return DuplexMarkovModel(n, k, m, rates, fail_rule=fail_rule)
