"""Tests for the memory-controller discrete-event simulation."""

import heapq

import numpy as np
import pytest

from repro.memory.overhead import scrub_overhead
from repro.rs.pipeline import decoder_timing
from repro.simulator import ControllerStats, simulate_controller
from repro.simulator import controller as controller_module


def heap_reference(
    n,
    k,
    num_words,
    scrub_period_s,
    read_rate_per_s,
    sim_seconds,
    rng,
    clock_hz=50e6,
):
    """The event-loop controller: one heap of pending arrivals, popped by time.

    Draws one read gap per served read from ``rng``.  ``simulate_controller``
    must reproduce its counts exactly and its latencies and utilization
    to rounding.
    """
    service_s = decoder_timing(n, k).latency_cycles / clock_hz
    scrub_step_s = scrub_period_s / num_words

    # event queue: (time, seq, kind) with kind in {"read", "scrub"}
    events = []
    seq = 0

    def push(t, kind):
        nonlocal seq
        heapq.heappush(events, (t, seq, kind))
        seq += 1

    if read_rate_per_s > 0:
        push(float(rng.exponential(1.0 / read_rate_per_s)), "read")
    push(scrub_step_s, "scrub")

    controller_free_at = 0.0
    read_busy = 0.0
    scrub_busy = 0.0
    latencies = []
    reads_served = 0
    scrub_done = 0

    while events:
        t, _s, kind = heapq.heappop(events)
        if t >= sim_seconds:
            break
        start = max(t, controller_free_at)
        if start + service_s > sim_seconds:
            # would finish past the horizon; stop scheduling work
            continue
        controller_free_at = start + service_s
        if kind == "read":
            reads_served += 1
            read_busy += service_s
            latencies.append(controller_free_at - t)
            push(t + float(rng.exponential(1.0 / read_rate_per_s)), "read")
        else:
            scrub_done += 1
            scrub_busy += service_s
            push(t + scrub_step_s, "scrub")

    lat = np.asarray(latencies) if latencies else np.asarray([0.0])
    utilization = (read_busy + scrub_busy) / sim_seconds
    scrub_duty = scrub_busy / sim_seconds
    return ControllerStats(
        simulated_seconds=sim_seconds,
        reads_served=reads_served,
        scrub_words_done=scrub_done,
        read_busy_seconds=read_busy,
        scrub_busy_seconds=scrub_busy,
        mean_read_latency_s=float(lat.mean()),
        p99_read_latency_s=float(np.percentile(lat, 99)),
        utilization=utilization,
        scrub_duty=scrub_duty,
        availability=1.0 - scrub_duty,
    )


def run(
    read_rate=1000.0,
    period=60.0,
    words=50_000,
    sim_s=120.0,
    seed=3,
    n=18,
    k=16,
    clock=50e6,
):
    return simulate_controller(
        n,
        k,
        num_words=words,
        scrub_period_s=period,
        read_rate_per_s=read_rate,
        sim_seconds=sim_s,
        clock_hz=clock,
        rng=np.random.default_rng(seed),
    )


class TestValidation:
    def test_parameter_checks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_controller(18, 16, 0, 60.0, 10.0, 10.0, rng=rng)
        with pytest.raises(ValueError):
            simulate_controller(18, 16, 10, 0.0, 10.0, 10.0, rng=rng)
        with pytest.raises(ValueError):
            simulate_controller(18, 16, 10, 60.0, -1.0, 10.0, rng=rng)
        with pytest.raises(ValueError):
            simulate_controller(18, 16, 10, 60.0, 10.0, 0.0, rng=rng)


class TestScrubProgress:
    def test_scrub_walks_the_whole_memory_each_period(self):
        stats = run(read_rate=0.0, words=10_000, period=30.0, sim_s=90.0)
        # three periods -> about 30k word steps
        assert stats.scrub_words_done == pytest.approx(30_000, rel=0.02, abs=0)

    def test_measured_duty_matches_analytic_overhead(self):
        words, period, clock = 50_000, 60.0, 50e6
        stats = run(read_rate=0.0, words=words, period=period, clock=clock)
        analytic = scrub_overhead(
            18,
            16,
            num_words=words,
            scrub_period_seconds=period,
            clock_hz=clock,
            writeback_cycles=0,  # the DES charges decode latency only
        )
        assert stats.scrub_duty == pytest.approx(analytic.duty_cycle, rel=0.02, abs=0)

    def test_availability_complements_duty(self):
        stats = run()
        assert stats.availability == pytest.approx(1.0 - stats.scrub_duty)


class TestReadService:
    def test_read_throughput_matches_arrival_rate(self):
        stats = run(read_rate=2000.0, sim_s=60.0)
        assert stats.reads_served == pytest.approx(2000.0 * 60.0, rel=0.05, abs=0)

    def test_latency_at_least_service_time(self):
        stats = run()
        service = decoder_timing(18, 16).latency_cycles / 50e6
        assert stats.mean_read_latency_s >= service * 0.999
        assert stats.p99_read_latency_s >= stats.mean_read_latency_s * 0.5

    def test_light_load_latency_close_to_service_time(self):
        stats = run(read_rate=10.0, words=1000, period=600.0)
        service = decoder_timing(18, 16).latency_cycles / 50e6
        assert stats.mean_read_latency_s == pytest.approx(service, rel=0.05, abs=0)

    def test_heavy_load_increases_latency(self):
        light = run(read_rate=100.0, sim_s=60.0)
        heavy = run(read_rate=300_000.0, sim_s=60.0)
        assert heavy.mean_read_latency_s > light.mean_read_latency_s
        assert heavy.utilization > light.utilization

    def test_stronger_code_costs_utilization(self):
        weak = run(read_rate=10_000.0, sim_s=60.0, n=18, k=16)
        strong = run(read_rate=10_000.0, sim_s=60.0, n=36, k=16)
        assert strong.utilization > weak.utilization

    def test_no_reads_zero_read_busy(self):
        stats = run(read_rate=0.0)
        assert stats.reads_served == 0
        assert stats.read_busy_seconds == 0.0


#: (read rate /s, scrub period s, words, horizon s) — each run through
#: ``simulate_controller`` and the heap reference from the same seed.
PARITY_CASES = {
    "no-reads": (0.0, 0.5, 20_000, 1.5),
    "light-load": (50.0, 2.0, 2_000, 4.0),
    "reads-outnumber-scrubs": (150_000.0, 1.0, 500, 1.0),
    # offered load 1.5x the service rate: the queue grows until the
    # horizon cuts off a service and every later arrival
    "horizon-cuts-service": (1e6, 0.01, 1_000, 0.05),
}


class TestHeapReferenceParity:
    @pytest.mark.parametrize("block", [None, 7], ids=["block-default", "block-7"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_heap_loop(self, case, block, monkeypatch):
        if block is not None:
            # tiny blocks put every carry across block boundaries to work
            monkeypatch.setattr(controller_module, "_BLOCK", block)
        rate, period, words, sim_s = PARITY_CASES[case]
        args = (18, 16, words, period, rate, sim_s)
        got = simulate_controller(*args, rng=np.random.default_rng(29))
        want = heap_reference(*args, rng=np.random.default_rng(29))
        assert got.reads_served == want.reads_served
        assert got.scrub_words_done == want.scrub_words_done
        for field in ("mean_read_latency_s", "p99_read_latency_s", "utilization"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-8, abs=0
            ), field

    def test_block_arrivals_equal_sequential_sums(self, monkeypatch):
        monkeypatch.setattr(controller_module, "_BLOCK", 7)
        rng = np.random.default_rng(5)
        blocks = controller_module._arrival_blocks(
            lambda: rng.exponential(1e-3, controller_module._BLOCK)
        )
        got = np.concatenate([next(blocks) for _ in range(30)])
        gaps = np.random.default_rng(5)
        t, want = 0.0, []
        for _ in range(got.size):
            t = t + float(gaps.exponential(1e-3))
            want.append(t)
        assert got.tolist() == want

    def test_cases_cover_their_regimes(self):
        def stats(case):
            rate, period, words, sim_s = PARITY_CASES[case]
            return simulate_controller(
                18, 16, words, period, rate, sim_s, rng=np.random.default_rng(29)
            )

        assert stats("no-reads").reads_served == 0
        assert stats("light-load").reads_served < stats("light-load").scrub_words_done
        outnumber = stats("reads-outnumber-scrubs")
        assert outnumber.reads_served > 50 * outnumber.scrub_words_done
        assert outnumber.reads_served > 2 * controller_module._BLOCK
        cut = stats("horizon-cuts-service")
        # busy to the horizon, with far fewer reads served than arrived
        assert cut.utilization > 0.99
        assert cut.reads_served < 0.8 * 1e6 * 0.05
