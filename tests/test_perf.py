"""Perf-counter accounting: wall vs CPU time, merge, Stopwatch guards."""

import pickle
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.perf import PerfCounters, Stopwatch, merge_counter_dicts, timed


class TestMergeAccounting:
    def test_merge_sums_additive_fields(self):
        a = PerfCounters(trials=10, chunks=1, cpu_seconds=0.5, retries=1)
        b = PerfCounters(trials=20, chunks=2, cpu_seconds=1.5, retries=2)
        a.merge(b)
        assert a.trials == 30
        assert a.chunks == 3
        assert a.cpu_seconds == pytest.approx(2.0)
        assert a.retries == 3

    def test_merge_does_not_sum_wall_clock(self):
        """The headline bug: summing per-worker elapsed reported N× the
        true wall time and understated trials/sec by the worker count."""
        coordinator = PerfCounters(elapsed_seconds=2.0)
        for _ in range(4):  # four workers, overlapping in time
            coordinator.merge(PerfCounters(trials=100, elapsed_seconds=2.0))
        assert coordinator.elapsed_seconds == pytest.approx(2.0)
        assert coordinator.trials_per_second == pytest.approx(400 / 2.0)

    def test_merge_counter_dicts_preserves_wall_semantics(self):
        total = merge_counter_dicts(
            iter(
                [
                    PerfCounters(trials=5, cpu_seconds=1.0, elapsed_seconds=1.0).as_dict(),
                    PerfCounters(trials=5, cpu_seconds=1.0, elapsed_seconds=1.0).as_dict(),
                ]
            )
        )
        assert total.trials == 10
        assert total.cpu_seconds == pytest.approx(2.0)
        assert total.elapsed_seconds == 0.0  # coordinator-owned, not merged

    def test_from_dict_tolerates_pre_cpu_seconds_records(self):
        # Journals written before the cpu_seconds split must still load.
        old = PerfCounters(trials=7).as_dict()
        del old["cpu_seconds"]
        restored = PerfCounters.from_dict(old)
        assert restored.trials == 7
        assert restored.cpu_seconds == 0.0

    def test_roundtrip_pickle(self):
        c = PerfCounters(trials=3, cpu_seconds=0.25)
        assert pickle.loads(pickle.dumps(c)) == c


class TestDerived:
    def test_trials_per_second_uses_wall_clock(self):
        c = PerfCounters(trials=100, elapsed_seconds=2.0, cpu_seconds=8.0)
        assert c.trials_per_second == pytest.approx(50.0)

    def test_parallel_speedup(self):
        c = PerfCounters(elapsed_seconds=2.0, cpu_seconds=8.0)
        assert c.parallel_speedup == pytest.approx(4.0)
        assert PerfCounters().parallel_speedup == 0.0

    def test_summary_reports_both_time_axes(self):
        c = PerfCounters(
            trials=10,
            elapsed_seconds=1.0,
            cpu_seconds=4.0,
            words_decoded=8,
            dirty_words_decoded=2,
        )
        text = c.summary()
        assert "elapsed (wall)" in text
        assert "cpu (all workers)" in text
        assert "4.00x" in text
        assert "dirty words decoded: 2 (25.0%)" in text

    def test_publish_mirrors_fields_into_registry(self):
        registry = MetricsRegistry()
        PerfCounters(trials=42, cpu_seconds=1.5).publish(registry)
        assert registry.gauge("repro.perf.trials").value == 42
        assert registry.gauge("repro.perf.cpu_seconds").value == 1.5

    def test_published_gauges_name_the_dirty_words(self):
        registry = MetricsRegistry()
        PerfCounters(words_decoded=8, dirty_words_decoded=3).publish(registry)
        names = set(registry.snapshot())
        assert registry.gauge("repro.perf.dirty_words_decoded").value == 3
        assert not {
            "repro.perf.engine_fallbacks",
            "repro.perf.scalar_fallbacks",
        } & names


class TestStopwatch:
    def test_accumulates_wall_by_default(self):
        c = PerfCounters()
        with Stopwatch(c):
            time.sleep(0.01)
        assert c.elapsed_seconds > 0.0
        assert c.cpu_seconds == 0.0

    def test_attr_selects_cpu_axis(self):
        c = PerfCounters()
        with Stopwatch(c, attr="cpu_seconds"):
            time.sleep(0.01)
        assert c.cpu_seconds > 0.0
        assert c.elapsed_seconds == 0.0

    def test_unknown_attr_rejected(self):
        with pytest.raises(ValueError):
            Stopwatch(PerfCounters(), attr="nonexistent")

    def test_exit_without_enter_raises_runtime_error(self):
        """Must be a real exception, not a bare assert that ``python -O``
        strips (leaving a baffling TypeError on perf_counter() - None)."""
        sw = Stopwatch(PerfCounters())
        with pytest.raises(RuntimeError, match="without __enter__"):
            sw.__exit__(None, None, None)

    def test_reentry_accumulates(self):
        c = PerfCounters()
        sw = Stopwatch(c)
        with sw:
            pass
        with sw:
            pass
        assert c.elapsed_seconds >= 0.0

    def test_timed_returns_result_and_elapsed(self):
        result, elapsed = timed(lambda x: x * 2, 21)
        assert result == 42
        assert elapsed >= 0.0


class TestPooledWallAccounting:
    """workers=1 vs workers=4 must both report the true wall time."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_elapsed_is_coordinator_wall_not_worker_sum(self, workers):
        from repro.rs import RSCode
        from repro.simulator import simulate_fail_probability_batched

        code = RSCode(18, 16, m=8)
        counters = PerfCounters()
        t0 = time.perf_counter()
        estimate = simulate_fail_probability_batched(
            "simplex",
            code,
            48.0,
            seu_per_bit=2e-3 / 24.0,
            erasure_per_symbol=0.0,
            trials=800,
            seed=11,
            chunk_size=100,
            workers=workers,
            counters=counters,
        )
        wall = time.perf_counter() - t0
        assert estimate.trials == 800
        assert counters.trials == 800
        # True wall time: bounded by the coordinator's measurement, never
        # the sum over 8 chunks (the old merge bug would inflate it).
        assert 0.0 < counters.elapsed_seconds <= wall
        assert counters.cpu_seconds > 0.0
        assert counters.trials_per_second == pytest.approx(
            800 / counters.elapsed_seconds
        )
