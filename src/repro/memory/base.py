"""Shared scaffolding for the memory-system Markov models.

Both arrangements (simplex, duplex) compile a word-level fault model to a
:class:`~repro.markov.chain.CTMC` with a single absorbing ``FAIL`` state
and evaluate the paper's figure of merit

    BER(t) = m * (n - k) / k * P_Fail(t)          (paper Eq. 1)

The models describe *one* memory word (and its replica, for duplex) — the
paper argues the whole-memory extension is a straightforward product and
does not change the comparison (Section 4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..markov import CTMC, FrontierRule, build_chain
from .rates import FaultRates

#: Label of the absorbing unrecoverable-error state.
FAIL = "FAIL"

State = Hashable


def check_code(n: int, k: int, m: int) -> None:
    """Raise ``ValueError`` unless RS(n, k) over GF(2^m) is a code the
    models take: ``0 < k < n <= 2^m - 1``."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
    if m < 1 or n > (1 << m) - 1:
        raise ValueError(f"codeword length n={n} exceeds 2^m - 1 for m={m}")


class MemoryMarkovModel(ABC):
    """Base class: an RS(n, k)-coded memory word under a fault environment.

    Subclasses implement :meth:`initial_state` and :meth:`transitions`
    (the local dynamics); the base class handles chain construction,
    transient solution and BER evaluation.
    """

    def __init__(self, n: int, k: int, m: int, rates: FaultRates):
        check_code(n, k, m)
        self.n = n
        self.k = k
        self.m = m
        self.rates = rates
        self._chain: Optional[CTMC] = None

    # -- model definition (subclass responsibility) -----------------------

    @abstractmethod
    def initial_state(self) -> State:
        """The fault-free Good state."""

    @abstractmethod
    def transitions(self, state: State) -> Iterable[Tuple[State, float]]:
        """Local transition rule: ``(successor, rate)`` pairs from ``state``."""

    def frontier_rule(self) -> Optional[FrontierRule]:
        """:meth:`transitions` in array form, for large chains.

        :attr:`chain` explores with it when a model supplies one; the
        default ``None`` keeps the per-state exploration.
        """
        return None

    # -- derived quantities ----------------------------------------------

    @property
    def nsym(self) -> int:
        """Number of check symbols ``n - k``."""
        return self.n - self.k

    @property
    def ber_factor(self) -> float:
        """The prefactor ``m (n - k) / k`` of paper Eq. 1."""
        return self.m * self.nsym / self.k

    @property
    def chain(self) -> CTMC:
        """The compiled CTMC (built lazily, cached)."""
        if self._chain is None:
            self._chain = build_chain(
                self.initial_state(), self.transitions, frontier=self.frontier_rule()
            )
        return self._chain

    def fail_probability(
        self,
        times: Sequence[float],
        method: str = "uniformization",
        **kwargs,
    ) -> np.ndarray:
        """``P_Fail(t)`` for each time point (hours)."""
        chain = self.chain
        if FAIL not in chain.index:
            # fault rates of zero: Fail is unreachable
            times = np.atleast_1d(np.asarray(times, dtype=float))
            if np.any(times < 0):
                raise ValueError("times must be nonnegative")
            return np.zeros(len(times))
        return chain.state_probability(FAIL, times, method=method, **kwargs)

    def ber(
        self,
        times: Sequence[float],
        method: str = "uniformization",
        **kwargs,
    ) -> np.ndarray:
        """Bit Error Rate over a time grid (hours) — paper Eq. 1."""
        return self.ber_factor * self.fail_probability(
            times, method=method, **kwargs
        )

    def mean_time_to_failure(self) -> float:
        """Expected hours until absorption in FAIL (inf if unreachable)."""
        chain = self.chain
        if FAIL not in chain.index:
            return float("inf")
        return chain.mean_time_to_absorption([FAIL])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, m={self.m}, "
            f"rates={self.rates})"
        )
