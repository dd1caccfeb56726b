"""Continuous-time Markov chain representation.

A :class:`CTMC` holds a finite state space (arbitrary hashable labels), a
sparse set of transition rates and an initial distribution.  It exposes the
infinitesimal generator ``Q`` (``Q[i, j]`` = rate i→j for i != j, rows sum
to zero) and delegates transient solution to :mod:`repro.markov.solvers`.

This is the reproduction's substitute for the NASA SURE solver the paper
used: the memory models of :mod:`repro.memory` compile to a :class:`CTMC`
and are solved exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike
from scipy import sparse

State = Hashable
Transition = Tuple[State, State, float]


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    states:
        Iterable of distinct hashable state labels.  Order defines the
        state indexing of all returned arrays.
    transitions:
        Iterable of ``(src, dst, rate)`` triples with ``rate >= 0`` and
        ``src != dst``.  Parallel triples for the same (src, dst) pair are
        summed.
    initial:
        Either a single state label (probability 1) or a mapping
        ``{state: probability}`` summing to 1.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Iterable[Transition],
        initial: State | Mapping[State, float],
    ):
        states = list(states)
        index = {s: i for i, s in enumerate(states)}
        src, dst, rates = [], [], []
        for s, d, rate in transitions:
            src.append(index[s])
            dst.append(index[d])
            rates.append(rate)
        self._setup(states, index, src, dst, rates, initial)

    @classmethod
    def from_arrays(
        cls,
        states: Sequence[State],
        src: ArrayLike,
        dst: ArrayLike,
        rates: ArrayLike,
        initial: State | Mapping[State, float],
    ) -> "CTMC":
        """The indexed constructor: transition ``i`` runs from
        ``states[src[i]]`` to ``states[dst[i]]`` at ``rates[i]``.

        Validation and summation of parallel transitions are those of the
        triple form, which is parsed into these arrays.  Large chains
        (:func:`~repro.markov.builder.build_chain` with a frontier rule)
        come through here without building a triple per transition.
        """
        chain = cls.__new__(cls)
        states = list(states)
        chain._setup(
            states, {s: i for i, s in enumerate(states)}, src, dst, rates, initial
        )
        return chain

    def _setup(
        self,
        states: List[State],
        index: Dict[State, int],
        src: ArrayLike,
        dst: ArrayLike,
        rates: ArrayLike,
        initial: State | Mapping[State, float],
    ) -> None:
        self.states: List[State] = states
        if len(index) != len(states):
            raise ValueError("duplicate state labels")
        self.index: Dict[State, int] = index
        n = len(states)
        if n == 0:
            raise ValueError("empty state space")

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rates = np.asarray(rates, dtype=float)
        negative = np.flatnonzero(rates < 0)
        if negative.size:
            i = negative[0]
            raise ValueError(
                f"negative rate {rates[i]} on {states[src[i]]!r}->{states[dst[i]]!r}"
            )
        loops = np.flatnonzero(src == dst)
        if loops.size:
            raise ValueError(f"self-loop on state {states[src[loops[0]]]!r}")
        live = rates != 0
        self._rates = sparse.csr_matrix(
            (rates[live], (src[live], dst[live])), shape=(n, n), dtype=float
        )
        self._rates.sum_duplicates()

        self.p0 = np.zeros(n)
        if isinstance(initial, Mapping):
            for s, p in initial.items():
                if p < 0:
                    raise ValueError(f"negative initial probability for {s!r}")
                self.p0[self.index[s]] = p
            if not np.isclose(self.p0.sum(), 1.0):
                raise ValueError(
                    f"initial distribution sums to {self.p0.sum()}, not 1"
                )
        else:
            self.p0[self.index[initial]] = 1.0

    # -- structure ------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def rate_matrix(self) -> sparse.csr_matrix:
        """Off-diagonal transition rates as a CSR matrix."""
        return self._rates

    def generator(self, dense: bool = False) -> np.ndarray | sparse.csr_matrix:
        """Infinitesimal generator ``Q`` (rows sum to zero)."""
        out_rates = np.asarray(self._rates.sum(axis=1)).ravel()
        q = self._rates - sparse.diags(out_rates)
        return q.toarray() if dense else q.tocsr()

    def exit_rates(self) -> np.ndarray:
        """Total outflow rate of each state."""
        return np.asarray(self._rates.sum(axis=1)).ravel()

    def absorbing_states(self) -> List[State]:
        """States with zero outflow."""
        out = self.exit_rates()
        return [s for s, r in zip(self.states, out) if r == 0.0]

    def rate(self, src: State, dst: State) -> float:
        """Transition rate between two states (0 if absent)."""
        return float(self._rates[self.index[src], self.index[dst]])

    # -- solution -------------------------------------------------------

    def transient(
        self, times: Sequence[float], method: str = "uniformization", **kwargs
    ) -> np.ndarray:
        """State probabilities at each time; shape ``(len(times), num_states)``.

        ``method`` is one of ``"uniformization"`` (positive-term series,
        excellent *relative* accuracy even for deep-tail probabilities),
        ``"expm"`` (scipy matrix exponential stepping) or ``"ode"``
        (RK45 integration of the Kolmogorov forward equations).  Keyword
        arguments go to the solver; ``columns=[i, ...]`` keeps only those
        states' columns.
        """
        from . import solvers

        try:
            solver = solvers.TRANSIENT_SOLVERS[method]
        except KeyError:
            raise ValueError(
                f"unknown method {method!r}; choose from "
                f"{sorted(solvers.TRANSIENT_SOLVERS)}"
            ) from None
        return solver(self, np.asarray(times, dtype=float), **kwargs)

    def state_probability(
        self,
        state: State,
        times: Sequence[float],
        method: str = "uniformization",
        **kwargs,
    ) -> np.ndarray:
        """Probability of occupying ``state`` at each time point.

        Only that state's column is asked of the solver (its ``columns``
        argument), with the same bits as the full solution's column.
        """
        column = [self.index[state]]
        return self.transient(times, method=method, columns=column, **kwargs)[:, 0]

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0``, ``sum pi = 1``.

        Solved as a least-squares problem with the normalization row
        appended; meaningful for irreducible chains (for chains with
        absorbing states it returns the absorbed limit).
        """
        q = self.generator(dense=True)
        n = self.num_states
        a = np.vstack([q.T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise np.linalg.LinAlgError("stationary solve degenerate")
        return pi / total

    def mean_time_to_absorption(self, targets: Sequence[State]) -> float:
        """Expected time until first entry into any of ``targets``.

        Solves the standard linear system over the non-target states.
        Returns ``inf`` if some starting mass can never reach a target.
        """
        target_idx = {self.index[s] for s in targets}
        keep = [i for i in range(self.num_states) if i not in target_idx]
        if not keep:
            return 0.0
        q = self.generator(dense=True)
        q_sub = q[np.ix_(keep, keep)]
        try:
            tau = np.linalg.solve(q_sub, -np.ones(len(keep)))
        except np.linalg.LinAlgError:
            return float("inf")
        if np.any(tau < -1e-9):
            return float("inf")
        p0_sub = self.p0[keep]
        absorbed_start = 1.0 - p0_sub.sum()
        return float(p0_sub @ tau + absorbed_start * 0.0)

    def __repr__(self) -> str:
        return (
            f"CTMC(num_states={self.num_states}, "
            f"num_transitions={self._rates.nnz})"
        )
