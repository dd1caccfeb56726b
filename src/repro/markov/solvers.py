"""Transient CTMC solvers.

Three independent solution methods for ``p(t) = p0 · exp(Q t)``:

* :func:`transient_uniformization` — Jensen's method (randomization), a
  series of *positive* terms.  Because no cancellation occurs, each state
  probability retains near machine *relative* accuracy, which is what lets
  the deep-tail BER curves of the paper's Figs. 8-10 (down to 1e-200) come
  out clean.  This is the default solver.
* :func:`transient_expm` — scipy's Padé matrix exponential with per-step
  propagation; absolute accuracy ~1e-15, used as an independent check.
* :func:`transient_ode` — RK45 integration of the Kolmogorov forward
  equations, the third cross-check.

Every solver is traced (:mod:`repro.obs.trace`): the span attributes
record each truncation decision — terms used, ``L·t``, the Poisson tail
bound at exit, whether the large-``L·t`` fallback ran, expm cache
hits/misses — so cross-solver differential tests can assert on *why*
answers agree, not just that they do.  Aggregate counts also land in the
process metrics registry (:mod:`repro.obs.metrics`) under
``repro.solver.*``.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Dict, Tuple

import numpy as np
from numpy.typing import ArrayLike
from scipy import sparse

from ..obs import metrics, trace
from .chain import CTMC


def uniformization_propagate(
    rates: sparse.spmatrix,
    p0: np.ndarray,
    t: float | np.ndarray,
    rtol: float = 1e-14,
    max_terms: int = 2_000_000,
    min_terms: int | None = None,
    columns: ArrayLike | None = None,
) -> np.ndarray:
    """Advance a distribution ``p0`` by time ``t`` via uniformization.

    ``rates`` is the off-diagonal rate matrix (CSR); the generator's
    diagonal is implied by its row sums.  This is the low-level primitive
    shared by :func:`transient_uniformization` and the deterministic
    scrubbing solver.

    ``t`` is a scalar (the result is one distribution) or a 1-D time grid
    (one row per time, in the grid's order; duplicates and zeros are
    fine).  A grid costs one pass: the terms ``p0 · P^j`` do not depend
    on ``t``, so each is computed once with one sparse product and
    weighted into every time still summing.  Each time keeps its own
    Poisson weights, stopping test and large-``L·t`` fallback, so a grid
    row equals the scalar call for that time bit for bit.

    Truncation preserves *relative* accuracy of small entries.  The
    series for one time stops at the first term ``j`` where either the
    Poisson weight has underflowed to 0, or ``j >= min_terms`` (default
    ``min(num_states + 1, 10_000)``, so every state within that many
    moves receives its leading-order contribution) and the remaining
    Poisson mass is below ``rtol`` times the smallest positive
    accumulated entry.  This is what lets absorbing-state probabilities
    of 1e-200 come out with full significance instead of being lost
    against the O(1) bulk.  On the duplex RS(36,16) chain the weight
    underflow ends every time of a 48-hour grid within 100 terms.

    The span recorded under the name ``"uniformization_propagate"`` (one
    per call, whether scalar or grid) carries the truncation decision of
    each time: ``terms_used``, ``lt``, ``tail_bound`` at exit, and
    ``fallback`` (whether the log-domain large-``L·t`` path ran) —
    scalars for a scalar ``t``, lists aligned with the grid otherwise —
    and ``products``, the sparse kernel products the call performed.

    ``columns`` (a 1-D sequence of state indices) restricts the result to
    those states, in that order: the same bits as the full call's
    ``[..., columns]``.  A series whose length is known before it starts
    (every time's weight underflows by term ``min_terms``, before the
    stopping test first reads a sum) then adds up only those columns; any
    other series sums every state, because the stopping test reads the
    smallest positive entry of the whole distribution.
    """
    grid = np.ndim(t) != 0
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("t must be a scalar or a 1-D time grid")
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    registry = metrics.get_registry()
    with trace.span(
        "uniformization_propagate",
        n_states=rates.shape[0],
        t=times.tolist() if grid else float(times[0]),
        rtol=rtol,
    ) as sp:
        registry.counter("repro.solver.uniformization.calls").inc()
        v = np.asarray(p0, dtype=float)
        if columns is not None:
            columns = np.asarray(columns, dtype=np.intp)
            if columns.ndim != 1:
                raise ValueError("columns must be a 1-D sequence of state indices")
        read = slice(None) if columns is None else columns
        result = np.tile(v[read], (times.size, 1))  # a zero time keeps p0
        info = [
            {"lt": 0.0, "terms_used": 0, "tail_bound": 0.0, "fallback": False}
            for _ in range(times.size)
        ]
        out_rates = np.asarray(rates.sum(axis=1)).ravel()
        lam = float(out_rates.max(initial=0.0))
        # subnormal rates make the kernel division meaningless; any total
        # rate below ~1e-250 cannot move representable probability mass
        moving = [] if lam < 1e-250 else np.flatnonzero(times > 0.0).tolist()
        products = 0
        if moving:
            kernel = (rates + sparse.diags(lam - out_rates)) / lam  # row-stochastic
            if min_terms is None:
                # every state is first reached within num_states terms; cap
                # to keep very large models affordable (their callers can
                # raise it)
                min_terms = min(rates.shape[0] + 1, 10_000)
            summing = []
            for i in moving:
                lt = lam * float(times[i])
                info[i]["lt"] = lt
                if math.exp(-lt) >= sys.float_info.min:
                    summing.append(i)
                    continue
                # e^{-Lt} underflowed to zero OR landed in the subnormal
                # range (Lt in ~(708, 745)), where the starting weight keeps
                # only a handful of mantissa bits and the upward recursion
                # inherits that error for every term: use the windowed
                # fallback, whose relative weights never leave the normal
                # range.
                registry.counter("repro.solver.uniformization.fallbacks").inc()
                full, window = _uniformization_large_lt(v, kernel, lt, rtol)
                result[i] = full[read]
                products += window.pop("products")
                info[i].update(window, fallback=True)
            if summing:
                products += _poisson_series(
                    kernel,
                    v,
                    columns,
                    summing,
                    info,
                    result,
                    rtol,
                    max_terms,
                    min_terms,
                )
        if grid:
            keys = dict.fromkeys(key for entry in info for key in entry)
            sp.set_attrs(**{key: [entry.get(key) for entry in info] for key in keys})
        elif info:
            sp.set_attrs(**info[0])
        sp.set_attr("products", products)
        return result if grid else result[0]


def _poisson_series(
    kernel: sparse.spmatrix,
    v: np.ndarray,
    columns: np.ndarray | None,
    summing: list,
    info: list,
    result: np.ndarray,
    rtol: float,
    max_terms: int,
    min_terms: int,
) -> int:
    """Sum ``Poisson(j; L t) · p0 P^j`` for the times ``summing`` at once.

    Row ``r`` of ``acc`` sums the time with index ``live[r]``.  Every
    array operation below acts on each row as the scalar recursion would
    on that time alone, so each time's weights, sum and stopping test are
    bit-identical to a separate call.  A time that stops leaves the
    arrays, its row (restricted to ``columns``, when given) copied into
    ``result`` and its truncation into ``info``.  Returns the number of
    kernel products.
    """
    # ``v @ kernel`` is ``kernel.T @ v``.  The CSR form of the transpose
    # (sorted indices) gathers each entry's sum in increasing source
    # order, as the CSC form scatters it, so each term has the same bits;
    # the gather is the faster of the two.
    kernel_t = kernel.transpose().tocsr()
    live = np.array(summing)
    lt = np.array([info[i]["lt"] for i in summing])
    # math.exp, not np.exp: the two can differ by an ulp, and the golden
    # BER vectors were computed from math.exp start weights
    weight = np.array([math.exp(-x) for x in lt.tolist()])
    # ``acc`` sums the states ``summed``; ``read`` picks the columns that
    # are read out of it
    summed = read = slice(None)
    if columns is not None:
        if _ends_by_underflow(weight, lt, min_terms):
            summed = columns
        else:
            read = columns
    acc = weight[:, None] * v[summed]
    tail = np.full(live.size, np.inf)
    j = 0
    while live.size and j < max_terms:
        j += 1
        v = kernel_t @ v
        weight *= lt / j
        acc += weight[:, None] * v[summed]
        stop = weight == 0.0
        tail[stop] = 0.0
        if j >= min_terms:
            ratio = lt / (j + 2)
            # Poisson weights decaying: the rest of the mass is below the
            # geometric bound, which must fall below rtol times the
            # smallest positive entry of each time's sum
            test = ~stop & (ratio < 1.0)
            if test.any():
                r = ratio[test]
                tail[test] = bound = weight[test] * r / (1.0 - r)
                rows = acc[test]
                floor = np.where(rows > 0.0, rows, np.inf).min(axis=1)
                floor[floor == np.inf] = 1.0
                stop[test] = bound < np.maximum(rtol * floor, 1e-305)
        if stop.any():
            _finish(stop, j, live, acc[:, read], tail, info, result)
            keep = ~stop
            live, lt, weight = live[keep], lt[keep], weight[keep]
            acc, tail = acc[keep], tail[keep]
    _finish(np.ones(live.size, dtype=bool), j, live, acc[:, read], tail, info, result)
    return j


def _ends_by_underflow(weight: np.ndarray, lt: np.ndarray, min_terms: int) -> bool:
    """Whether every time's Poisson weight underflows to 0 by term
    ``min_terms``.

    Runs :func:`_poisson_series`' own ``weight *= lt / j`` recursion on
    the weights alone, so the answer is exact.  When it holds, each series
    ends at its underflow term and the stopping test never reads a sum: it
    first runs at ``j = min_terms`` and skips a time whose weight is 0.
    """
    weight = weight.copy()
    for j in range(1, min_terms + 1):
        weight *= lt / j
        if not weight.any():
            return True
    return False


def _finish(stop, j, live, acc, tail, info, result) -> None:
    """Record the times ``live[stop]`` as summed to ``j`` terms."""
    terms = metrics.get_registry().counter("repro.solver.uniformization.terms")
    for r in np.flatnonzero(stop).tolist():
        i = int(live[r])
        result[i] = acc[r]
        info[i].update(terms_used=j, tail_bound=float(tail[r]))
        terms.inc(j)


def transient_uniformization(
    chain: CTMC,
    times: np.ndarray,
    rtol: float = 1e-14,
    max_terms: int = 2_000_000,
    columns: ArrayLike | None = None,
) -> np.ndarray:
    """Transient solution by uniformization (Jensen's method).

    With uniformization rate ``L = max_i |Q_ii|`` and DTMC kernel
    ``P = I + Q / L``,

        p(t) = sum_{j>=0} Poisson(j; L t) * p0 P^j.

    All quantities are nonnegative, so the summation never cancels; each
    state probability keeps near machine *relative* accuracy — which is
    what resolves the deep-tail BER curves of the paper's Figs. 8-10.
    Poisson weights are generated in the linear domain by upward recursion
    from ``e^{-Lt}``; for the paper's rates and horizons ``L t`` stays far
    from the underflow regime (a log-domain fallback covers the rest).
    The whole grid is one :func:`uniformization_propagate` pass.
    ``columns`` keeps only those states' columns, as in that function.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    with trace.span(
        "transient_uniformization",
        n_states=chain.num_states,
        n_times=len(times),
    ):
        return uniformization_propagate(
            chain.rate_matrix,
            chain.p0,
            times,
            rtol=rtol,
            max_terms=max_terms,
            columns=columns,
        )


def _uniformization_large_lt(
    p0: np.ndarray,
    kernel: sparse.spmatrix,
    lt: float,
    rtol: float,
) -> Tuple[np.ndarray, Dict[str, Any]]:
    """Uniformization fallback when ``e^{-Lt}`` underflows.

    Sums the series inside a window of Poisson-significant terms around
    ``j = L·t``, rescaling the running weight when it grows large, and
    normalizes by the accumulated Poisson mass at the end (the common
    scale of numerator and denominator cancels, so no log-domain
    bookkeeping is needed).  Only exercised for extreme ``L*t`` (not
    reached by the paper's parameter ranges, but kept for generality).

    Returns the distribution and the window's span attributes
    (``window_lo``, ``window_hi``, ``terms_used``, ``tail_bound``) plus
    the number of sparse kernel ``products`` it performed.
    """
    # The Poisson(lt) mass beyond +-k*sqrt(lt) decays like exp(-k^2/2),
    # so choose k from the caller's rtol (the discarded tail is below it)
    # with a floor of 10 (~1e-22) preserving the historical safety margin.
    k = math.sqrt(-2.0 * math.log(max(rtol, 1e-300)))
    centre = int(lt)
    half = int(max(k, 10.0) * math.sqrt(lt)) + 10
    j_lo = max(0, centre - half)
    j_hi = centre + half
    v = p0.copy()
    products = 0
    n = kernel.shape[0]
    if j_lo > 4096 and n**3 * math.log2(j_lo) < kernel.nnz * j_lo:
        # jump to the window with dense repeated squaring instead of j_lo
        # individual matvecs (j_lo can be 1e7+ when L*t is extreme), where
        # its ~log2(j_lo) dense n x n products cost less than j_lo sparse
        # ones
        v = v @ np.linalg.matrix_power(kernel.toarray(), j_lo)
    else:
        for _ in range(j_lo):
            v = v @ kernel
        products += j_lo
    acc = np.zeros_like(p0)
    total = 0.0
    w = 1.0  # relative weight; overall scale cancels in acc / total
    for j in range(j_lo, j_hi + 1):
        acc += w * v
        total += w
        v = v @ kernel
        products += 1
        w *= lt / (j + 1)
        if w > 1e200:
            acc /= w
            total /= w
            w = 1.0
    window = {
        "window_lo": j_lo,
        "window_hi": j_hi,
        "terms_used": j_hi - j_lo + 1,
        # relative mass outside the window, bounded by the Gaussian tail
        "tail_bound": math.exp(-0.5 * max(k, 10.0) ** 2),
        "products": products,
    }
    return acc / total, window


def transient_expm(
    chain: CTMC, times: np.ndarray, columns: ArrayLike | None = None
) -> np.ndarray:
    """Transient solution by stepping with scipy's matrix exponential.

    Sorts the time grid and propagates ``p`` across each interval with
    ``expm(Q * dt)``; exponentials are cached per distinct ``dt`` so a
    uniform grid costs a single Padé evaluation.  Cache keys are ``dt``
    rounded to 12 significant digits, so the accumulated floating-point
    drift of a nominally uniform grid (``0.1 + 0.1 + ...``) cannot
    silently defeat the cache; reusing a step across a sub-ulp ``dt``
    difference perturbs the result far below the method's own ~1e-15
    accuracy.

    The span ``"transient_expm"`` reports ``pade_evals`` (cache misses)
    and ``cache_hits``; the same counts accumulate in the metrics
    registry under ``repro.solver.expm.*``.  ``columns`` keeps only
    those states' columns of the result.
    """
    from scipy.linalg import expm

    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    registry = metrics.get_registry()
    with trace.span(
        "transient_expm", n_states=chain.num_states, n_times=len(times)
    ) as sp:
        q = chain.generator(dense=True)
        order = np.argsort(times)
        result = np.empty((len(times), chain.num_states))
        cache: Dict[float, np.ndarray] = {}
        pade_evals = 0
        cache_hits = 0
        p = chain.p0.copy()
        t_prev = 0.0
        for pos in order:
            dt = times[pos] - t_prev
            if dt > 0:
                key = float(np.format_float_scientific(dt, precision=12))
                step = cache.get(key)
                if step is None:
                    step = expm(q * dt)
                    cache[key] = step
                    pade_evals += 1
                else:
                    cache_hits += 1
                p = p @ step
                t_prev = times[pos]
            result[pos] = p
        sp.set_attrs(pade_evals=pade_evals, cache_hits=cache_hits)
        registry.counter("repro.solver.expm.pade_evals").inc(pade_evals)
        registry.counter("repro.solver.expm.cache_hits").inc(cache_hits)
        return result if columns is None else result[:, columns]


def transient_ode(
    chain: CTMC,
    times: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-14,
    columns: ArrayLike | None = None,
) -> np.ndarray:
    """Transient solution by integrating ``dp/dt = p Q`` with RK45.

    ``columns`` keeps only those states' columns of the result.
    """
    from scipy.integrate import solve_ivp

    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    qt = chain.generator().transpose().tocsr()

    def rhs(_t: float, p: np.ndarray) -> np.ndarray:
        return qt @ p

    read = slice(None) if columns is None else columns
    t_max = float(times.max())
    if t_max == 0.0:
        return np.tile(chain.p0[read], (len(times), 1))
    with trace.span(
        "transient_ode", n_states=chain.num_states, n_times=len(times)
    ) as sp:
        sol = solve_ivp(
            rhs,
            (0.0, t_max),
            chain.p0,
            t_eval=np.unique(np.concatenate([[0.0], times])),
            rtol=rtol,
            atol=atol,
            method="RK45",
        )
        if not sol.success:
            raise RuntimeError(f"ODE transient solve failed: {sol.message}")
        sp.set_attrs(rhs_evaluations=int(sol.nfev))
        lookup = {t: sol.y[read, i] for i, t in enumerate(sol.t)}
        return np.array([lookup[t] for t in times])


TRANSIENT_SOLVERS: Dict[str, Callable[..., np.ndarray]] = {
    "uniformization": transient_uniformization,
    "expm": transient_expm,
    "ode": transient_ode,
}
