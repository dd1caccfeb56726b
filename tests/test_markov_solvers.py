"""Unit tests for the three transient solvers and their agreement."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import erlang

from repro.markov import CTMC, solvers
from repro.markov.solvers import (
    TRANSIENT_SOLVERS,
    transient_expm,
    transient_ode,
    transient_uniformization,
    uniformization_propagate,
)
from repro.memory import FAIL, duplex_model
from repro.obs import metrics, trace
from repro.verify.generators import build_ctmc_from_case, case_rng, gen_ctmc_case


def erlang_chain(stages: int, rate: float) -> CTMC:
    """A pure birth chain: 0 -> 1 -> ... -> stages, all at ``rate``."""
    states = list(range(stages + 1))
    transitions = [(i, i + 1, rate) for i in range(stages)]
    return CTMC(states, transitions, 0)


def random_chain(rng: np.random.Generator, n: int) -> CTMC:
    states = list(range(n))
    transitions = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < 0.5:
                transitions.append((i, j, float(rng.uniform(0.1, 2.0))))
    return CTMC(states, transitions, 0)


class TestSolverRegistry:
    def test_three_methods_registered(self):
        assert set(TRANSIENT_SOLVERS) == {"uniformization", "expm", "ode"}


class TestAgainstClosedForms:
    @pytest.mark.parametrize("solver", [transient_uniformization, transient_expm])
    def test_erlang_absorption(self, solver):
        """Absorbing-state probability equals the Erlang CDF."""
        stages, rate = 4, 1.5
        chain = erlang_chain(stages, rate)
        times = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        probs = solver(chain, times)
        expected = erlang.cdf(times, stages, scale=1.0 / rate)
        assert np.allclose(probs[:, stages], expected, rtol=1e-9)

    def test_ode_erlang_absorption(self):
        stages, rate = 4, 1.5
        chain = erlang_chain(stages, rate)
        times = np.array([0.5, 2.0])
        probs = transient_ode(chain, times)
        expected = erlang.cdf(times, stages, scale=1.0 / rate)
        assert np.allclose(probs[:, stages], expected, rtol=1e-6)

    def test_uniformization_deep_tail_relative_accuracy(self):
        """The headline property: tiny absorption probabilities keep
        relative accuracy (this is what resolves the paper's Figs. 8-10)."""
        stages, rate = 6, 1e-6
        chain = erlang_chain(stages, rate)
        t = 10.0  # rate * t = 1e-5 per hop -> P ~ (1e-5)^6 / 6! ~ 1e-33
        probs = transient_uniformization(chain, np.array([t]))
        expected = erlang.cdf(t, stages, scale=1.0 / rate)
        assert expected < 1e-30  # confirm we are genuinely deep in the tail
        assert probs[0, stages] == pytest.approx(expected, rel=1e-10, abs=0)


class TestSolverCrossAgreement:
    def test_all_solvers_agree_on_random_chains(self):
        rng = np.random.default_rng(123)
        for trial in range(5):
            chain = random_chain(rng, n=int(rng.integers(3, 8)))
            times = np.array([0.3, 1.7])
            uni = transient_uniformization(chain, times)
            exp = transient_expm(chain, times)
            ode = transient_ode(chain, times)
            assert np.allclose(uni, exp, atol=1e-10), f"trial {trial}"
            assert np.allclose(uni, ode, atol=1e-7), f"trial {trial}"

    def test_rows_remain_distributions(self):
        rng = np.random.default_rng(7)
        chain = random_chain(rng, 6)
        for method in TRANSIENT_SOLVERS:
            probs = chain.transient(np.linspace(0, 4, 5), method=method)
            assert np.all(probs >= -1e-12)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-8)


class TestUniformizationInternals:
    def test_propagate_zero_time_is_identity(self):
        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        p0 = np.array([0.3, 0.7])
        out = uniformization_propagate(rates, p0, 0.0)
        assert np.allclose(out, p0)

    def test_propagate_negative_time_rejected(self):
        rates = sparse.csr_matrix((2, 2))
        with pytest.raises(ValueError):
            uniformization_propagate(rates, np.array([1.0, 0.0]), -1.0)

    def test_propagate_no_rates_is_static(self):
        rates = sparse.csr_matrix((3, 3))
        p0 = np.array([0.2, 0.3, 0.5])
        assert np.allclose(uniformization_propagate(rates, p0, 10.0), p0)

    def test_large_lt_fallback(self):
        """Exercise the log-domain windowed path (L*t > ~709)."""
        chain = CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 1.0)], "A")
        probs = transient_uniformization(chain, np.array([800.0]))
        # equilibrium of the symmetric chain is (1/2, 1/2)
        assert probs[0, 0] == pytest.approx(0.5, rel=1e-6, abs=0)
        assert probs[0].sum() == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_large_lt_fallback_matches_expm_off_equilibrium(self):
        """Pin the windowed fallback against the independent Padé solver
        on a *stiff* chain that has NOT relaxed to equilibrium at
        L*t ~ 800 (the equilibrium check above would pass even for a
        subtly wrong window): a fast A<->B oscillation sets L high while
        absorption into C stays slow."""
        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1000.0), ("B", "A", 1000.0), ("A", "C", 1e-3)],
            "A",
        )
        t = 0.8  # L*t ~ 800 -> e^{-Lt} underflows -> fallback path
        uni = transient_uniformization(chain, np.array([t]))
        exp = transient_expm(chain, np.array([t]))
        assert 0.0 < uni[0, 2] < 1e-3  # genuinely mid-transient
        assert np.allclose(uni, exp, atol=1e-10)

    def test_large_lt_window_honours_rtol(self):
        """A stricter rtol must widen the summation window (the old code
        ignored the caller's rtol and always used the fixed k=10 width)."""
        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p0 = np.array([1.0, 0.0])
        windows = {}
        for rtol in (1e-14, 1e-40):
            collector = trace.TraceCollector()
            with trace.use_collector(collector):
                uniformization_propagate(rates, p0, 800.0, rtol=rtol)
            [span] = collector.spans("uniformization_propagate")
            assert span["attrs"]["fallback"] is True
            attrs = span["attrs"]
            windows[rtol] = attrs["window_hi"] - attrs["window_lo"]
            # the discarded Poisson tail must stay below ~exp(-k^2/2)
            assert attrs["tail_bound"] < 1e-21
        assert windows[1e-40] > windows[1e-14]

    @pytest.mark.parametrize(
        "n, t, dense",
        [(400, 6000.0, False), (2, 10_000.0, True)],
        ids=["400-state-sparse-jump", "2-state-dense-jump"],
    )
    def test_large_lt_jump_to_the_window(self, monkeypatch, n, t, dense):
        """Past 4,096 terms the fallback jumps to its window by dense
        repeated squaring only where that is cheaper than one sparse
        product per term: not on a 400-state birth-death chain, whose
        ~13 dense 400 x 400 products cost more than 5,000 products of its
        800-entry kernel, but on a 2-state chain.  Either way the window
        equals a dense reference.  The slow drift keeps the 400-state
        chain mid-transient, so a window off by one term would show."""
        births = sparse.diags(np.full(n - 1, 0.51), 1)
        deaths = sparse.diags(np.full(n - 1, 0.49), -1)
        rates = sparse.csr_matrix(births + deaths)
        p0 = np.zeros(n)
        p0[0] = 1.0
        powers = []
        real_power = np.linalg.matrix_power

        def spy(matrix, exponent):
            powers.append(exponent)
            return real_power(matrix, exponent)

        monkeypatch.setattr(np.linalg, "matrix_power", spy)
        collector = trace.TraceCollector()
        with trace.use_collector(collector):
            got = uniformization_propagate(rates, p0, t)
        [span] = collector.spans("uniformization_propagate")
        lo, hi = span["attrs"]["window_lo"], span["attrs"]["window_hi"]
        assert lo > 4096
        assert powers == ([lo] if dense else [])
        want = _dense_window_reference(rates, p0, t, lo, hi)
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_composition_property(self):
        """Propagating t1 then t2 equals propagating t1 + t2."""
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 5)
        rates = chain.rate_matrix
        direct = uniformization_propagate(rates, chain.p0, 1.3)
        stepped = uniformization_propagate(
            rates, uniformization_propagate(rates, chain.p0, 0.9), 0.4
        )
        assert np.allclose(direct, stepped, atol=1e-12)


def _dense_window_reference(rates, p0, t, lo, hi):
    """Test-only dense path of the large-``L·t`` fallback: jump to term
    ``lo`` with a dense matrix power of the uniformized kernel, then sum
    terms ``lo..hi`` under Poisson weights taken from log-pmfs and
    normalized over the window."""
    dense = rates.toarray()
    out = dense.sum(axis=1)
    lam = out.max()
    kernel = (dense + np.diag(lam - out)) / lam
    lt = lam * t
    log_w = np.array(
        [j * math.log(lt) - math.lgamma(j + 1) for j in range(lo, hi + 1)]
    )
    weights = np.exp(log_w - log_w.max())
    v = p0 @ np.linalg.matrix_power(kernel, lo)
    acc = np.zeros_like(p0)
    for w in weights:
        acc += w * v
        v = v @ kernel
    return acc / weights.sum()


def _loop_propagate(rates, p0, t, rtol=1e-14):
    """The per-time scalar recursion, one Python float weight at a time:
    the reference the array pass must reproduce bit for bit."""
    out_rates = np.asarray(rates.sum(axis=1)).ravel()
    lam = float(out_rates.max(initial=0.0))
    if t == 0.0:
        return np.asarray(p0, dtype=float).copy()
    kernel = (rates + sparse.diags(lam - out_rates)) / lam
    min_terms = min(rates.shape[0] + 1, 10_000)
    lt = lam * t
    v = np.asarray(p0, dtype=float).copy()
    weight = math.exp(-lt)
    acc = weight * v
    j = 0
    while True:
        j += 1
        v = v @ kernel
        weight *= lt / j
        acc += weight * v
        if weight == 0.0:
            return acc
        if j < min_terms or lt / (j + 2) >= 1.0:
            continue
        ratio = lt / (j + 2)
        tail_bound = weight * ratio / (1.0 - ratio)
        positive = acc[acc > 0.0]
        floor = positive.min() if positive.size else 1.0
        if tail_bound < max(rtol * floor, 1e-305):
            return acc


class TestGridSolve:
    """A time grid is one uniformization pass whose rows equal the
    per-time scalar calls exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_the_scalar_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        chain = random_chain(rng, int(rng.integers(3, 9)))
        times = np.concatenate([[0.0], rng.uniform(0.0, 6.0, 5)])
        grid = uniformization_propagate(chain.rate_matrix, chain.p0, times)
        for row, t in zip(grid, times):
            assert np.array_equal(row, _loop_propagate(chain.rate_matrix, chain.p0, t))

    @staticmethod
    def _stacked(rates, p0, times, **kwargs):
        return np.vstack(
            [uniformization_propagate(rates, p0, float(t), **kwargs) for t in times]
        )

    @staticmethod
    def _traced(rates, p0, t):
        collector = trace.TraceCollector()
        with trace.use_collector(collector):
            out = uniformization_propagate(rates, p0, t)
        [span] = collector.spans("uniformization_propagate")
        return out, span["attrs"]

    @pytest.mark.parametrize("seed", range(4))
    def test_unsorted_duplicate_and_zero_times(self, seed):
        chain = random_chain(np.random.default_rng(seed), 6)
        times = np.array([1.3, 0.0, 0.4, 1.3, 2.9, 0.0, 0.05])
        grid = uniformization_propagate(chain.rate_matrix, chain.p0, times)
        stacked = self._stacked(chain.rate_matrix, chain.p0, times)
        assert grid.shape == (len(times), chain.num_states)
        assert np.array_equal(grid, stacked)

    def test_deep_tail_grid(self):
        chain = erlang_chain(6, 1e-6)
        times = np.array([10.0, 1.0, 5.0])
        grid = transient_uniformization(chain, times)
        assert np.array_equal(grid, self._stacked(chain.rate_matrix, chain.p0, times))
        assert 0.0 < grid[1, 6] < grid[2, 6] < grid[0, 6] < 1e-30

    def test_grid_mixing_a_large_lt_fallback_time(self):
        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1000.0), ("B", "A", 1000.0), ("A", "C", 1e-3)],
            "A",
        )
        times = np.array([0.01, 0.8, 0.0, 0.3, 0.8])  # L*0.8 ~ 800: fallback
        grid, attrs = self._traced(chain.rate_matrix, chain.p0, times)
        assert np.array_equal(
            grid, self._stacked(chain.rate_matrix, chain.p0, times)
        )
        assert attrs["fallback"] == [False, True, False, False, True]
        assert attrs["window_lo"][0] is None and attrs["window_lo"][1] > 0

    def test_span_carries_each_times_truncation(self):
        chain = random_chain(np.random.default_rng(3), 5)
        rates, p0 = chain.rate_matrix, chain.p0
        times = np.array([2.0, 0.0, 0.7])
        _, attrs = self._traced(rates, p0, times)
        scalar = [self._traced(rates, p0, float(t))[1] for t in times]
        for key in ("terms_used", "tail_bound", "fallback", "lt"):
            assert attrs[key] == [a[key] for a in scalar], key
        # one shared pass: the products are those of the longest series
        assert attrs["products"] == max(attrs["terms_used"])
        assert [a["products"] for a in scalar] == [a["terms_used"] for a in scalar]

    def test_terms_counter_adds_each_times_terms(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        chain = random_chain(np.random.default_rng(4), 5)
        times = np.array([0.5, 1.5, 0.0, 1.5])
        counts = []
        for call in (
            lambda: uniformization_propagate(chain.rate_matrix, chain.p0, times),
            lambda: self._stacked(chain.rate_matrix, chain.p0, times),
        ):
            fresh = MetricsRegistry()
            previous = set_registry(fresh)
            try:
                call()
            finally:
                set_registry(previous)
            counts.append(
                (
                    fresh.counter("repro.solver.uniformization.terms").value,
                    fresh.counter("repro.solver.uniformization.calls").value,
                )
            )
        (grid_terms, grid_calls), (scalar_terms, scalar_calls) = counts
        assert grid_terms == scalar_terms > 0
        assert (grid_calls, scalar_calls) == (1, len(times))

    def test_transient_solve_is_one_propagate_call(self):
        chain = random_chain(np.random.default_rng(5), 4)
        collector = trace.TraceCollector()
        with trace.use_collector(collector):
            transient_uniformization(chain, np.linspace(0.0, 3.0, 7))
        [span] = collector.spans("uniformization_propagate")
        assert len(span["attrs"]["terms_used"]) == 7

    def test_scalar_call_keeps_scalar_attrs(self):
        chain = random_chain(np.random.default_rng(6), 4)
        out, attrs = self._traced(chain.rate_matrix, chain.p0, 1.0)
        assert out.shape == (chain.num_states,)
        assert isinstance(attrs["terms_used"], int)
        assert attrs["products"] == attrs["terms_used"]

    def test_grid_shape_and_sign_checked(self):
        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        p0 = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            uniformization_propagate(rates, p0, np.array([0.5, -1.0]))
        with pytest.raises(ValueError, match="1-D"):
            uniformization_propagate(rates, p0, np.ones((2, 2)))
        assert uniformization_propagate(rates, p0, np.array([])).shape == (0, 2)


class TestInputHandling:
    def test_negative_times_rejected_everywhere(self):
        chain = erlang_chain(2, 1.0)
        for solver in (transient_uniformization, transient_expm, transient_ode):
            with pytest.raises(ValueError):
                solver(chain, np.array([-0.5]))

    def test_expm_caches_uniform_grid(self):
        chain = erlang_chain(3, 1.0)
        times = np.linspace(0, 5, 6)
        probs = transient_expm(chain, times)
        # spot-check against uniformization
        uni = transient_uniformization(chain, times)
        assert np.allclose(probs, uni, atol=1e-11)


class TestExpmStepCache:
    @staticmethod
    def _cache_stats(chain, times):
        collector = trace.TraceCollector()
        with trace.use_collector(collector):
            transient_expm(chain, times)
        [span] = collector.spans("transient_expm")
        return span["attrs"]["pade_evals"], span["attrs"]["cache_hits"]

    def test_uniform_grid_costs_one_pade_evaluation(self):
        chain = erlang_chain(3, 1.0)
        pade_evals, cache_hits = self._cache_stats(
            chain, np.linspace(0.5, 5.0, 10)
        )
        assert pade_evals == 1
        assert cache_hits == 9

    def test_fp_drift_does_not_defeat_cache(self):
        """A grid built by repeated ``t += 0.1`` carries sub-ulp drift in
        its differences; keying the cache on the exact float would
        silently re-run Padé for every step."""
        t, grid = 0.0, []
        for _ in range(50):
            t += 0.1
            grid.append(t)
        diffs = np.diff(np.array(grid))
        assert len(set(diffs.tolist())) > 1  # drift genuinely present
        pade_evals, cache_hits = self._cache_stats(
            erlang_chain(3, 1.0), np.array(grid)
        )
        assert pade_evals == 1
        assert cache_hits == 49

    def test_distinct_steps_are_not_conflated(self):
        chain = erlang_chain(3, 1.0)
        pade_evals, _ = self._cache_stats(chain, np.array([0.5, 1.5, 2.0]))
        assert pade_evals == 2  # dt = 0.5 (x2, cached) and dt = 1.0

    def test_cache_misses_accumulate_in_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            transient_expm(erlang_chain(2, 1.0), np.linspace(0.5, 2.0, 4))
        finally:
            set_registry(previous)
        assert fresh.counter("repro.solver.expm.pade_evals").value == 1
        assert fresh.counter("repro.solver.expm.cache_hits").value == 3

    def test_ode_all_zero_times(self):
        chain = erlang_chain(2, 1.0)
        probs = transient_ode(chain, np.array([0.0, 0.0]))
        assert np.allclose(probs, np.tile(chain.p0, (2, 1)))

    def test_scalar_like_single_time(self):
        chain = erlang_chain(2, 2.0)
        probs = chain.transient([1.0])
        assert probs.shape == (1, 3)
        assert probs[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-10, abs=0)


def _reference_series(
    kernel, v, columns, summing, info, result, rtol, max_terms, min_terms
):
    """The Poisson series before the column path: the CSC transpose
    product and every state summed.  It stands in for
    ``solvers._poisson_series`` on a full call (``columns`` None), as the
    reference the column path must reproduce bit for bit."""
    assert columns is None
    kernel_t = kernel.transpose()
    live = np.array(summing)
    lt = np.array([info[i]["lt"] for i in summing])
    weight = np.array([math.exp(-x) for x in lt.tolist()])
    acc = weight[:, None] * v
    tail = np.full(live.size, np.inf)
    j = 0
    while live.size and j < max_terms:
        j += 1
        v = kernel_t @ v
        weight *= lt / j
        acc += weight[:, None] * v
        stop = weight == 0.0
        tail[stop] = 0.0
        if j >= min_terms:
            ratio = lt / (j + 2)
            test = ~stop & (ratio < 1.0)
            if test.any():
                r = ratio[test]
                tail[test] = bound = weight[test] * r / (1.0 - r)
                rows = acc[test]
                floor = np.where(rows > 0.0, rows, np.inf).min(axis=1)
                floor[floor == np.inf] = 1.0
                stop[test] = bound < np.maximum(rtol * floor, 1e-305)
        if stop.any():
            _reference_finish(stop, j, live, acc, tail, info, result)
            keep = ~stop
            live, lt, weight = live[keep], lt[keep], weight[keep]
            acc, tail = acc[keep], tail[keep]
    _reference_finish(np.ones(live.size, dtype=bool), j, live, acc, tail, info, result)
    return j


def _reference_finish(stop, j, live, acc, tail, info, result):
    terms = metrics.get_registry().counter("repro.solver.uniformization.terms")
    for r in np.flatnonzero(stop).tolist():
        i = int(live[r])
        result[i] = acc[r]
        info[i].update(terms_used=j, tail_bound=float(tail[r]))
        terms.inc(j)


def _propagate(rates, p0, times, series=None, underflow=None, **kwargs):
    """One traced ``uniformization_propagate`` call in a fresh metrics
    registry: ``(result, span attributes, terms counter)``.  ``series``
    and ``underflow`` stand in for ``_poisson_series`` and
    ``_ends_by_underflow`` when given."""
    registry = metrics.MetricsRegistry()
    previous = metrics.set_registry(registry)
    collector = trace.TraceCollector()
    try:
        with pytest.MonkeyPatch.context() as patch, trace.use_collector(collector):
            if series is not None:
                patch.setattr(solvers, "_poisson_series", series)
            if underflow is not None:
                patch.setattr(solvers, "_ends_by_underflow", underflow)
            out = uniformization_propagate(rates, p0, times, **kwargs)
    finally:
        metrics.set_registry(previous)
    [span] = collector.spans("uniformization_propagate")
    terms = registry.counter("repro.solver.uniformization.terms").value
    return out, span["attrs"], terms


def _branches(monkeypatch):
    """Record each ``_ends_by_underflow`` answer: True is the column sum."""
    answers = []
    ends_by_underflow = solvers._ends_by_underflow

    def spy(*args):
        answers.append(ends_by_underflow(*args))
        return answers[-1]

    monkeypatch.setattr(solvers, "_ends_by_underflow", spy)
    return answers


def _assert_columns_match_reference(rates, p0, times, columns, **kwargs):
    """The column path against the reference's full solution, sliced."""
    got, attrs, terms = _propagate(rates, p0, times, columns=columns, **kwargs)
    full, ref_attrs, ref_terms = _propagate(
        rates, p0, times, series=_reference_series, **kwargs
    )
    want = full if columns is None else full[..., columns]
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for key in ("terms_used", "tail_bound", "products", "fallback"):
        assert attrs[key] == ref_attrs[key], key
    assert terms == ref_terms
    return attrs


def _duplex_chain(n, scrub):
    return duplex_model(
        n,
        16,
        seu_per_bit_day=1e-3,
        erasure_per_symbol_day=1e-4,
        scrub_period_seconds=scrub,
    ).chain


class TestColumnPath:
    """``columns`` returns the full solution's columns bit for bit: a
    series whose length is known in advance sums only those columns,
    any other sums every state and slices; both use the gather product."""

    GRID = np.array([48.0, 0.0, 12.0, 48.0, 6.0])

    @pytest.mark.parametrize("trial", range(12))
    def test_random_generator_chains(self, trial):
        chain = build_ctmc_from_case(gen_ctmc_case(case_rng(2005, trial)))
        rng = np.random.default_rng(trial)
        times = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 3)])
        rates, p0 = chain.rate_matrix, chain.p0
        subset = rng.choice(chain.num_states, size=2, replace=False)
        for columns in (None, [0], subset, np.arange(chain.num_states)[::-1]):
            _assert_columns_match_reference(rates, p0, times, columns)
            # a min_terms past every underflow term: the column sum runs
            _assert_columns_match_reference(
                rates, p0, times, columns, min_terms=10_000
            )

    @pytest.mark.parametrize("n", [18, 24], ids=["RS(18,16)", "RS(24,16)"])
    @pytest.mark.parametrize("scrub", [None, 3600.0], ids=["no-scrub", "scrub"])
    def test_duplex_chains(self, monkeypatch, n, scrub):
        chain = _duplex_chain(n, scrub)
        answers = _branches(monkeypatch)
        fail = chain.index[FAIL]
        for columns in (None, [fail], [fail, 0, 3]):
            _assert_columns_match_reference(
                chain.rate_matrix, chain.p0, self.GRID, columns
            )
        # RS(24,16)'s 5,293 states make min_terms 5,294, past the weight
        # underflow; RS(18,16)'s 144 states leave the stopping test to fire
        assert answers == [n == 24] * 2

    def test_fail_probability_is_the_full_column(self):
        for n, scrub in [(18, None), (24, 3600.0)]:
            model = duplex_model(
                n, 16, seu_per_bit_day=1e-3, scrub_period_seconds=scrub
            )
            full = model.chain.transient(self.GRID)
            column = full[:, model.chain.index[FAIL]]
            assert np.array_equal(model.fail_probability(self.GRID), column)

    def test_min_terms_below_at_and_above_the_underflow_term(self, monkeypatch):
        chain = _duplex_chain(18, 3600.0)
        rates, p0 = chain.rate_matrix, chain.p0
        # with the stopping test out of reach, each time ends at the term
        # where its weight underflows
        _, attrs, _ = _propagate(rates, p0, self.GRID, min_terms=10**6)
        assert attrs["tail_bound"] == [0.0] * len(self.GRID)
        last = max(attrs["terms_used"])
        answers = _branches(monkeypatch)
        for min_terms, column_sum in [
            (1, False),
            (last - 1, False),
            (last, True),
            (last + 1, True),
        ]:
            answers.clear()
            _assert_columns_match_reference(
                rates, p0, self.GRID, [chain.index[FAIL], 0], min_terms=min_terms
            )
            assert answers == [column_sum], min_terms

    def test_forcing_the_column_sum_where_the_stopping_test_fires_differs(self):
        """Why the full-sum branch exists: the stopping test reads the
        smallest positive entry of the whole sum, so summing only the read
        column stops the series early and changes the bits."""
        chain = _duplex_chain(18, 3600.0)
        rates, p0 = chain.rate_matrix, chain.p0
        kwargs = {"columns": [0], "min_terms": 1}
        honest, honest_attrs, _ = _propagate(rates, p0, self.GRID, **kwargs)
        forced, forced_attrs, _ = _propagate(
            rates, p0, self.GRID, underflow=lambda *args: True, **kwargs
        )
        assert not np.array_equal(forced, honest)
        assert max(forced_attrs["terms_used"]) < max(honest_attrs["terms_used"])
        _assert_columns_match_reference(rates, p0, self.GRID, **kwargs)

    @pytest.mark.parametrize("min_terms", [None, 10_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_unsorted_duplicate_and_zero_times(self, seed, min_terms):
        chain = random_chain(np.random.default_rng(seed), 6)
        times = np.array([1.3, 0.0, 0.4, 1.3, 2.9, 0.0, 0.05])
        for columns in ([5, 0], [2]):
            _assert_columns_match_reference(
                chain.rate_matrix, chain.p0, times, columns, min_terms=min_terms
            )

    @pytest.mark.parametrize("min_terms", [None, 10_000])
    def test_grid_with_a_large_lt_fallback_time(self, monkeypatch, min_terms):
        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1000.0), ("B", "A", 1000.0), ("A", "C", 1e-3)],
            "A",
        )
        times = np.array([0.01, 0.8, 0.0, 0.3, 0.8])  # L*0.8 ~ 800: fallback
        answers = _branches(monkeypatch)
        attrs = _assert_columns_match_reference(
            chain.rate_matrix, chain.p0, times, [2, 0], min_terms=min_terms
        )
        assert attrs["fallback"] == [False, True, False, False, True]
        assert answers == [min_terms is not None]

    def test_scalar_time_keeps_a_1d_result(self):
        chain = random_chain(np.random.default_rng(8), 5)
        rates, p0 = chain.rate_matrix, chain.p0
        out = uniformization_propagate(rates, p0, 1.0, columns=[4, 1])
        assert out.shape == (2,)
        assert np.array_equal(out, uniformization_propagate(rates, p0, 1.0)[[4, 1]])

    def test_columns_must_be_1d(self):
        chain = random_chain(np.random.default_rng(9), 3)
        with pytest.raises(ValueError, match="1-D"):
            uniformization_propagate(chain.rate_matrix, chain.p0, 1.0, columns=1)

    @pytest.mark.parametrize("method", sorted(TRANSIENT_SOLVERS))
    def test_every_solver_honours_columns(self, method):
        chain = random_chain(np.random.default_rng(10), 5)
        times = np.array([0.0, 0.7, 2.0])
        full = chain.transient(times, method=method)
        columns = chain.transient(times, method=method, columns=[3, 0])
        assert np.array_equal(columns, full[:, [3, 0]])
        assert np.array_equal(
            chain.state_probability(3, times, method=method), full[:, 3]
        )
