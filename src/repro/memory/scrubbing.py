"""Deterministic-period scrubbing (extension beyond the paper).

The paper folds scrubbing into the CTMC as an exponential event at rate
``1/Tsc`` — an approximation, since real scrubbers run on a fixed
schedule.  This module solves the *deterministic* variant exactly by
piecewise transient solution: propagate the scrub-free chain across each
period, then apply the scrub mapping (every non-FAIL state jumps to its
scrubbed image) instantaneously, and repeat.

``benchmarks/bench_ablation_scrub_model.py`` quantifies the gap between
the two scrubbing semantics on the paper's Fig. 7 configuration.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np
from scipy import sparse

from ..markov import CTMC
from ..markov.solvers import uniformization_propagate
from .base import FAIL, MemoryMarkovModel
from .duplex import DuplexMarkovModel
from .simplex import SimplexMarkovModel


def scrub_image(model: MemoryMarkovModel, state):
    """The state a configuration lands in after one scrub operation."""
    if state == FAIL:
        return FAIL
    if isinstance(model, SimplexMarkovModel):
        er, _re = state
        return (er, 0)
    if isinstance(model, DuplexMarkovModel):
        x, y, b, _e1, _e2, _ec = state
        return (x, y + b, 0, 0, 0, 0)
    raise TypeError(f"no scrub image defined for {type(model).__name__}")


def _scrub_free_clone(model: MemoryMarkovModel) -> MemoryMarkovModel:
    """Copy of the model with the rate-based scrub transition removed."""
    rates = dataclasses.replace(model.rates, scrub_rate=0.0)
    if isinstance(model, DuplexMarkovModel):
        return DuplexMarkovModel(
            model.n, model.k, model.m, rates, fail_rule=model.fail_rule
        )
    if isinstance(model, SimplexMarkovModel):
        return SimplexMarkovModel(model.n, model.k, model.m, rates)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def deterministic_scrub_fail_probability(
    model: MemoryMarkovModel,
    times_hours: Sequence[float],
    scrub_period_hours: float,
) -> np.ndarray:
    """``P_Fail(t)`` under fixed-schedule scrubbing every ``scrub_period_hours``.

    The model's own ``scrub_rate`` is ignored; fault dynamics between
    scrubs come from the scrub-free chain, and at each multiple of the
    period every state's probability mass moves to its scrub image.
    """
    if scrub_period_hours <= 0:
        raise ValueError("scrub period must be positive")
    times = np.asarray(list(times_hours), dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    free = _scrub_free_clone(model)
    chain = free.chain
    order = np.argsort(times)
    result = np.zeros(len(times))
    fail_idx = chain.index.get(FAIL)

    p = chain.p0.copy()
    epoch = 0  # number of scrubs applied so far
    t_epoch = 0.0  # time at which `p` is valid
    scrub_map = _scrub_matrix(free, chain)
    for pos in order:
        t = times[pos]
        # advance whole scrub periods first
        while (epoch + 1) * scrub_period_hours <= t:
            boundary = (epoch + 1) * scrub_period_hours
            p = _propagate(chain, p, boundary - t_epoch)
            p = p @ scrub_map
            epoch += 1
            t_epoch = boundary
        q = _propagate(chain, p, t - t_epoch)
        result[pos] = 0.0 if fail_idx is None else q[fail_idx]
        # keep p at the epoch boundary; q was a lookahead within the period
    return result


def deterministic_scrub_ber(
    model: MemoryMarkovModel,
    times_hours: Sequence[float],
    scrub_period_hours: float,
) -> np.ndarray:
    """BER(t) (paper Eq. 1) under fixed-schedule scrubbing."""
    return model.ber_factor * deterministic_scrub_fail_probability(
        model, times_hours, scrub_period_hours
    )


def _propagate(chain: CTMC, p: np.ndarray, dt: float) -> np.ndarray:
    """Advance a distribution by ``dt`` under the chain's dynamics."""
    return uniformization_propagate(chain.rate_matrix, p, dt)


@dataclasses.dataclass(frozen=True)
class EmbeddedScrubAnalysis:
    """Long-run behaviour of the scrub-synchronized embedded DTMC.

    Observing the system just after each deterministic scrub yields a
    discrete-time chain with kernel ``K = exp(Q_free * Tsc) . S``.  Once
    transients die out, the surviving probability mass decays geometrically
    at the spectral radius ``rho`` of K's transient block — i.e. the
    system settles into a constant *per-period loss rate* ``1 - rho``.

    Attributes
    ----------
    scrub_period_hours: the period analysed.
    per_period_loss: asymptotic P(fail during one period | alive).
    equivalent_rate_per_hour: the constant hazard matching that loss.
    """

    scrub_period_hours: float
    per_period_loss: float
    equivalent_rate_per_hour: float


def embedded_scrub_analysis(
    model: MemoryMarkovModel, scrub_period_hours: float
) -> EmbeddedScrubAnalysis:
    """Asymptotic per-scrub-period failure rate of a scrubbed memory.

    Complements :func:`deterministic_scrub_fail_probability` (which gives
    the exact transient) with the long-mission steady decay rate — the
    number a designer multiplies by mission length to budget data loss.
    """
    if scrub_period_hours <= 0:
        raise ValueError("scrub period must be positive")
    free = _scrub_free_clone(model)
    chain = free.chain
    if FAIL not in chain.index:
        return EmbeddedScrubAnalysis(scrub_period_hours, 0.0, 0.0)
    n = chain.num_states
    # one-period propagator: rows are post-state distributions
    period = np.vstack(
        [
            uniformization_propagate(
                chain.rate_matrix, _unit_vector(n, i), scrub_period_hours
            )
            for i in range(n)
        ]
    )
    kernel = period @ _scrub_matrix(free, chain)
    transient_idx = [i for i, s in enumerate(chain.states) if s != FAIL]
    block = kernel[np.ix_(transient_idx, transient_idx)]
    eigenvalues = np.linalg.eigvals(block)
    rho = float(np.max(np.abs(eigenvalues)))
    rho = min(rho, 1.0)
    loss = 1.0 - rho
    rate = (
        0.0
        if loss == 0.0
        else -math.log(rho) / scrub_period_hours
    )
    return EmbeddedScrubAnalysis(scrub_period_hours, loss, rate)


def _unit_vector(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _scrub_matrix(model: MemoryMarkovModel, chain: CTMC) -> sparse.csr_matrix:
    """Stochastic matrix applying one scrub to every state's mass: row
    ``i`` holds a single 1, in the column of state ``i``'s scrub image."""
    n = chain.num_states
    images = [chain.index[scrub_image(model, state)] for state in chain.states]
    return sparse.csr_matrix(
        (np.ones(n), images, np.arange(n + 1)), shape=(n, n)
    )
