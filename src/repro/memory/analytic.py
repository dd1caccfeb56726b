"""Closed-form solutions for the no-scrubbing memory models.

The paper's word-level chains are *lumpings* of independent per-symbol
(simplex) or per-symbol-pair (duplex) processes.  When no scrubbing is
active and only one fault class is present, the per-word damage measure is
monotone non-decreasing, so the first-passage probability into FAIL equals
the point-in-time probability of exceeding capability — and that tail can
be evaluated in closed form by dynamic programming over sums of
independent per-symbol damage weights.

These solvers serve two purposes:

* they give *full relative accuracy* arbitrarily deep in the tail (the
  paper's Figs. 8-10 reach BER = 1e-200, far below what a generic matrix
  method resolves in absolute terms), and
* they are an independent derivation that cross-validates the CTMC
  machinery on the overlap region (see tests/test_cross_validation.py).

Scope: pure-transient or pure-permanent environments without scrubbing.
Mixed environments include damage-*reducing* transitions (an erasure
subsuming a random error, paper families D/E/G/H and the simplex
``(er+1, re-1)`` move), which breaks the monotonicity argument; calls in
that regime raise :class:`AnalyticScopeError`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .duplex import DuplexMarkovModel
from .rates import FaultRates
from .simplex import SimplexMarkovModel


class AnalyticScopeError(ValueError):
    """Raised when a model is outside the closed-form solver's validity."""


def _check_scope(rates: FaultRates) -> None:
    if rates.has_scrubbing:
        raise AnalyticScopeError(
            "closed-form solver does not support scrubbing; "
            "use the CTMC transient solvers"
        )
    if rates.seu_per_bit > 0 and rates.erasure_per_symbol > 0:
        raise AnalyticScopeError(
            "closed-form solver covers pure-transient or pure-permanent "
            "environments only (mixed faults have non-monotone damage)"
        )


def _times(times: Sequence[float]) -> np.ndarray:
    """The time grid as a 1-D float array; negative times are refused,
    as the chain solvers refuse them."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    return times


def _binomial_tail(n: int, p: float, threshold: int) -> float:
    """``P(Binomial(n, p) > threshold)`` summed in the log domain.

    Terms are positive, so accumulating from the largest keeps full
    relative accuracy down to the underflow floor (~1e-300).
    """
    if threshold >= n:
        return 0.0
    if threshold < 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    logs = [
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * log_p
        + (n - j) * log_q
        for j in range(threshold + 1, n + 1)
    ]
    peak = max(logs)
    if peak == -math.inf:
        return 0.0
    return math.exp(peak) * sum(math.exp(v - peak) for v in logs)


# --------------------------------------------------------------------------
# simplex
# --------------------------------------------------------------------------


def simplex_fail_probability(
    model: SimplexMarkovModel, times: Sequence[float]
) -> np.ndarray:
    """Exact ``P_Fail(t)`` of the no-scrub simplex chain.

    Pure permanent faults: each symbol is independently erased by time t
    with probability ``1 - exp(-λe t)``; FAIL iff more than ``n - k``
    symbols are erased.  Pure transients: each symbol independently flipped
    with probability ``1 - exp(-m λ t)``; FAIL iff the error count exceeds
    ``t_code = (n - k) // 2`` (i.e. ``2 re > n - k``).
    """
    _check_scope(model.rates)
    times = _times(times)
    out = np.zeros(len(times))
    if model.rates.erasure_per_symbol > 0:
        rate = model.rates.erasure_per_symbol
        threshold = model.nsym
    else:
        rate = model.m * model.rates.seu_per_bit
        threshold = model.nsym // 2
    if rate == 0.0:
        return out
    for i, t in enumerate(times):
        p = -math.expm1(-rate * t)
        out[i] = _binomial_tail(model.n, p, threshold)
    return out


def simplex_ber(model: SimplexMarkovModel, times: Sequence[float]) -> np.ndarray:
    """Closed-form BER(t) (paper Eq. 1) of the no-scrub simplex system."""
    return model.ber_factor * simplex_fail_probability(model, times)


# --------------------------------------------------------------------------
# duplex
# --------------------------------------------------------------------------


def _duplex_permanent_pmf(lam_e: float, t: float) -> list[float]:
    """Per-pair damage weight pmf under pure permanent faults.

    Per the paper's (per-pair) rates, a pair walks clean → Y → X with rate
    ``λe`` at each hop.  Only an ``X`` pair costs capability (weight 1);
    ``Y`` pairs are masked (weight 0).
    """
    from scipy.special import gammainc

    a = lam_e * t
    # P(X) is the Erlang-2 CDF 1 - e^{-a}(1 + a); the naive difference
    # cancels catastrophically for small a, so use the regularized lower
    # incomplete gamma, which scipy evaluates with full relative accuracy.
    p_x = float(gammainc(2, a))
    return [1.0 - p_x, p_x]


def duplex_permanent_fail_probability(
    model: DuplexMarkovModel, times: Sequence[float]
) -> np.ndarray:
    """Exact ``P_Fail(t)`` for duplex under pure permanent faults, no scrub.

    Both per-word conditions degenerate to ``X <= n - k``, so FAIL iff the
    count of doubly-erased pairs exceeds ``n - k``.
    """
    times = _times(times)
    out = np.zeros(len(times))
    lam_e = model.rates.erasure_per_symbol
    if lam_e == 0.0:
        return out
    for i, t in enumerate(times):
        pmf = _duplex_permanent_pmf(lam_e, t)
        # weight pmf has only weights {0, 1}: plain binomial tail
        out[i] = _binomial_tail(model.n, pmf[1], model.nsym)
    return out


def _duplex_transient_pair_probs(flip: float, t: float) -> tuple[float, float, float, float]:
    """Occupancies (clean, e1, e2, ec) of the per-pair transient chain.

    Rates: clean → e1 and clean → e2 each at ``flip = m λ``; e1 → ec and
    e2 → ec at ``flip``.  Closed form: p_clean = exp(-2a), p_e1 = p_e2 =
    exp(-a) - exp(-2a), p_ec = (1 - exp(-a))^2, with a = flip * t.
    """
    a = flip * t
    ea = math.exp(-a)
    p_clean = ea * ea
    p_e = ea * (-math.expm1(-a))  # exp(-a) - exp(-2a), stable for small a
    p_ec = math.expm1(-a) ** 2    # (1 - exp(-a))^2
    return p_clean, p_e, p_e, p_ec


def duplex_transient_fail_probability(
    model: DuplexMarkovModel, times: Sequence[float]
) -> np.ndarray:
    """Exact ``P_Fail(t)`` for duplex under pure transients, no scrub.

    Word i fails when ``e_i + ec > t_code`` with ``t_code = (n-k) // 2``.
    Under the default "either" rule P_Fail = P(fail_1) + P(fail_2) -
    P(fail_1 and fail_2); under the "both" ablation rule it is the joint
    term alone.  The joint term is evaluated by a 2-D convolution DP over
    the per-pair damage vector (w1, w2) in {(0,0), (1,0), (0,1), (1,1)}
    (e1, e2 and ec contributions), with positive accumulations throughout.
    """
    times = _times(times)
    out = np.zeros(len(times))
    flip = model.m * model.rates.seu_per_bit
    if flip == 0.0:
        return out
    t_code = model.nsym // 2
    n = model.n
    for idx, t in enumerate(times):
        p_clean, p_e1, p_e2, p_ec = _duplex_transient_pair_probs(flip, t)
        p_single = -math.expm1(-flip * t)  # marginal per-word error prob
        p1 = _binomial_tail(n, p_single, t_code)
        p2 = p1
        joint = _duplex_joint_tail(n, (p_clean, p_e1, p_e2, p_ec), t_code)
        if model.fail_rule == "both":
            out[idx] = joint
        else:
            out[idx] = p1 + p2 - joint
    return out


def _duplex_joint_tail(
    n: int, probs: tuple[float, float, float, float], t_code: int
) -> float:
    """``P(w1 > t_code and w2 > t_code)`` over n iid pairs, by 2-D DP."""
    p_clean, p_e1, p_e2, p_ec = probs
    cap = t_code + 1
    dist = np.zeros((cap + 1, cap + 1))
    dist[0, 0] = 1.0
    steps = (
        (0, 0, p_clean),
        (1, 0, p_e1),
        (0, 1, p_e2),
        (1, 1, p_ec),
    )
    for _ in range(n):
        nxt = np.zeros_like(dist)
        for w1 in range(cap + 1):
            for w2 in range(cap + 1):
                mass = dist[w1, w2]
                if mass == 0.0:
                    continue
                for d1, d2, p in steps:
                    if p == 0.0:
                        continue
                    nxt[min(cap, w1 + d1), min(cap, w2 + d2)] += mass * p
        dist = nxt
    return float(dist[cap, cap])


def duplex_fail_probability(
    model: DuplexMarkovModel, times: Sequence[float]
) -> np.ndarray:
    """Dispatch to the pure-permanent or pure-transient closed form."""
    _check_scope(model.rates)
    if model.rates.erasure_per_symbol > 0:
        return duplex_permanent_fail_probability(model, times)
    return duplex_transient_fail_probability(model, times)


def duplex_ber(model: DuplexMarkovModel, times: Sequence[float]) -> np.ndarray:
    """Closed-form BER(t) (paper Eq. 1) of the no-scrub duplex system."""
    return model.ber_factor * duplex_fail_probability(model, times)
