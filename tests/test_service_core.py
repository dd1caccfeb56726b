"""Campaign service internals: protocol, cache, queue, scheduler.

The HTTP layer is tested separately (``test_service_http.py``); here the
components are exercised directly — spec validation, cache
self-verification and quarantine, queue durability and restart replay,
and scheduler coalescing/caching/tenant caps.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import (
    CampaignScheduler,
    JobQueue,
    ResultCache,
    SpecError,
    parse_spec,
)
from repro.service.queue import QueueError
from repro.simulator import fingerprint_digest


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


SPEC = {
    "cells": [{"arrangement": "simplex", "seu_per_bit_day": 1e-3}],
    "trials": 40,
    "chunk_size": 16,
    "engine": "batch",
}


# --------------------------------------------------------------------------
# protocol
# --------------------------------------------------------------------------


class TestParseSpec:
    def test_minimal_spec(self):
        tenant, spec = parse_spec(SPEC)
        assert tenant == "default"
        assert spec.trials == 40
        assert (spec.n, spec.k, spec.m) == (18, 16, 8)
        assert len(spec.digest()) == 64

    def test_execution_hints_do_not_change_digest(self):
        _, base = parse_spec(SPEC)
        _, hinted = parse_spec(
            {**SPEC, "workers": 4, "executor": "pool", "tenant": "team-a"}
        )
        assert base.digest() == hinted.digest()

    def test_fleet_executor_hint_accepted_and_digest_invariant(self):
        _, base = parse_spec(SPEC)
        _, fleet = parse_spec({**SPEC, "executor": "fleet"})
        assert fleet.executor == "fleet"
        assert fleet.digest() == base.digest()

    def test_engine_choice_does_not_change_digest(self):
        # numpy is another name for the batch engine, so both names
        # must share one cache key
        _, base = parse_spec(SPEC)
        _, pinned = parse_spec({**SPEC, "engine": "numpy"})
        assert pinned.digest() == base.digest()

    def test_identity_fields_change_digest(self):
        _, base = parse_spec(SPEC)
        for delta in (
            {"trials": 41},
            {"seed": 1},
            {"chunk_size": 32},
            {"t_end_hours": 24.0},
            {"stopping": {"rel_ci": 0.5}},
        ):
            _, other = parse_spec({**SPEC, **delta})
            assert other.digest() != base.digest(), delta

    def test_scenario_expands_to_same_digest_as_explicit_cells(self):
        from repro.simulator.scenarios import get_scenario

        scenario = get_scenario("iid-baseline")
        _, by_name = parse_spec({"scenario": "iid-baseline"})
        _, explicit = parse_spec(
            {
                "cells": [
                    {
                        "arrangement": c.arrangement,
                        "seu_per_bit_day": c.seu_per_bit_day,
                        "erasure_per_symbol_day": c.erasure_per_symbol_day,
                        "scrub_period_seconds": c.scrub_period_seconds,
                        "pattern": c.pattern,
                        "schedule": c.schedule,
                    }
                    for c in scenario.cells
                ],
                "n": scenario.n,
                "k": scenario.k,
                "m": scenario.m,
                "t_end_hours": scenario.t_end_hours,
                "trials": scenario.trials,
                "seed": scenario.seed,
            }
        )
        assert by_name.digest() == explicit.digest()

    @pytest.mark.parametrize(
        "bad",
        [
            {},  # no cells, no scenario
            {"cells": []},
            {"cells": "nope"},
            {**SPEC, "bogus": 1},
            {**SPEC, "cells": [{"arrangement": "triplex"}]},
            {**SPEC, "cells": [{"arrangement": "simplex", "nope": 1}]},
            {**SPEC, "scenario": "iid-baseline"},  # exclusive with cells
            {"scenario": "no-such-scenario"},
            {**SPEC, "trials": 0},
            {**SPEC, "trials": 10**9},
            {**SPEC, "trials": 1.5},
            {**SPEC, "seed": -1},
            {**SPEC, "n": 300},  # n > 2^m - 1
            {**SPEC, "k": 18},  # k >= n
            {**SPEC, "m": 17},
            {**SPEC, "engine": "gpu"},
            {**SPEC, "engine": "reference", "stopping": {"rel_ci": 0.5}},
            {**SPEC, "engine": "reference", "executor": "pool"},
            {**SPEC, "stopping": {"min_trials": 5}},  # rel_ci required
            {**SPEC, "stopping": {"rel_ci": 0.5, "method": "exact"}},
            {**SPEC, "stopping": {"rel_ci": 0.5, "confidence": 1.5}},
            {**SPEC, "workers": 0},
            {**SPEC, "executor": "quantum"},
            {**SPEC, "tenant": ""},
            {**SPEC, "tenant": "bad tenant!"},
            {**SPEC, "chunk_size": 0},
            "not-an-object",
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_spec_roundtrips_through_as_dict(self):
        _, spec = parse_spec(
            {**SPEC, "stopping": {"rel_ci": 0.5, "min_trials": 10}}
        )
        _, again = parse_spec(spec.as_dict())
        assert again.digest() == spec.digest()
        assert again == spec


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------


class TestResultCache:
    FP = {"schema": 3, "trials": 10, "cells": []}

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = fingerprint_digest(self.FP)
        assert cache.get(digest) is None
        cache.put(self.FP, {"rows": [1, 2]})
        entry = cache.get(digest)
        assert entry["result"] == {"rows": [1, 2]}
        assert entry["fingerprint"] == self.FP

    def test_bad_digest_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../../etc/passwd")
        with pytest.raises(ValueError):
            cache.path_for("ab" * 31)

    def test_two_level_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(self.FP, {})
        digest = fingerprint_digest(self.FP)
        assert path.parent.name == digest[:2]

    def test_corrupt_entry_quarantined_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(self.FP, {"rows": [1]})
        digest = fingerprint_digest(self.FP)
        text = path.read_text().replace('"rows"', '"cows"')
        path.write_text(text)
        assert cache.get(digest) is None  # body hash mismatch -> miss
        assert not path.exists()
        assert path.with_suffix(".json.quarantine").exists()

    def test_audit_healthy_and_damaged(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, {"rows": []})
        report = cache.audit()
        assert report["healthy"]
        assert [e["verdict"] for e in report["entries"]] == ["healthy"]

        path = cache.path_for(fingerprint_digest(self.FP))
        path.write_text("{broken")
        report = cache.audit()
        assert not report["healthy"]
        assert [e["verdict"] for e in report["entries"]] == ["unreadable"]
        assert path.exists()  # audit is read-only

    def test_audit_detects_misfiled_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(self.FP, {})
        wrong = tmp_path / "00" / ("0" * 64 + ".json")
        wrong.parent.mkdir(exist_ok=True)
        wrong.write_text(path.read_text())
        verdicts = {
            e["path"]: e["verdict"] for e in cache.audit()["entries"]
        }
        assert verdicts[str(wrong)] == "misfiled"
        assert verdicts[str(path)] == "healthy"


# --------------------------------------------------------------------------
# queue
# --------------------------------------------------------------------------


class TestJobQueue:
    def test_jobs_survive_reload(self, tmp_path):
        path = tmp_path / "queue.journal"
        with JobQueue(path) as queue:
            tenant, spec = parse_spec(SPEC)
            job = queue.add(tenant, spec, SPEC)
            queue.mark(job, "running")
            queue.mark(job, "done", result_digest=job.digest)
        with JobQueue(path) as queue:
            again = queue.jobs[job.id]
            assert again.state == "done"
            assert again.result_digest == job.digest
            assert again.digest == job.digest

    def test_running_reverts_to_queued_on_reload(self, tmp_path):
        path = tmp_path / "queue.journal"
        with JobQueue(path) as queue:
            tenant, spec = parse_spec(SPEC)
            job = queue.add(tenant, spec, SPEC)
            queue.mark(job, "running")
        with JobQueue(path) as queue:
            assert queue.jobs[job.id].state == "queued"
            assert queue.queued_jobs()[0].id == job.id

    def test_job_ids_stable_across_restarts(self, tmp_path):
        path = tmp_path / "queue.journal"
        with JobQueue(path) as queue:
            tenant, spec = parse_spec(SPEC)
            first = queue.add(tenant, spec, SPEC)
        with JobQueue(path) as queue:
            tenant, spec = parse_spec({**SPEC, "seed": 9})
            second = queue.add(tenant, spec, {**SPEC, "seed": 9})
        assert first.id == "j00000000"
        assert second.id == "j00000001"

    def test_corrupt_record_quarantined_on_load(self, tmp_path):
        path = tmp_path / "queue.journal"
        with JobQueue(path) as queue:
            tenant, spec = parse_spec(SPEC)
            queue.add(tenant, spec, SPEC)
            queue.add(tenant, parse_spec({**SPEC, "seed": 5})[1],
                      {**SPEC, "seed": 5})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4] + "beef"  # flip bytes mid-file
        path.write_text("\n".join(lines) + "\n")
        with JobQueue(path) as queue:
            assert queue.records_quarantined == 1
        assert path.with_suffix(".journal.quarantine").exists()

    def test_unparseable_spec_skipped_visibly_on_load(self, tmp_path):
        from repro.obs.metrics import get_registry
        from repro.obs.trace import TraceCollector, use_collector
        from repro.runtime.integrity import CHAIN_SEED, frame_record

        # A queued job whose spec names an engine that no longer exists.
        records = [
            {"kind": "header", "queue_schema": 1},
            {
                "kind": "job",
                "id": "j00000000",
                "seq": 0,
                "tenant": "default",
                "digest": "0" * 64,
                "spec": {**SPEC, "engine": "compiled"},
            },
        ]
        lines, chain = [], CHAIN_SEED
        for record in records:
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            line, chain = frame_record(payload, chain)
            lines.append(line)
        path = tmp_path / "queue.journal"
        path.write_text("\n".join(lines) + "\n")

        collector = TraceCollector()
        with use_collector(collector), JobQueue(path) as queue:
            assert queue.jobs == {}
        counter = get_registry().snapshot()["repro.service.queue_specs_skipped"]
        assert counter["value"] == 1
        events = collector.events("queue_spec_skipped")
        assert [event["attrs"]["job"] for event in events] == ["j00000000"]
        assert "'compiled'" in events[0]["attrs"]["error"]

    def test_torn_tail_truncated_silently(self, tmp_path):
        path = tmp_path / "queue.journal"
        with JobQueue(path) as queue:
            tenant, spec = parse_spec(SPEC)
            queue.add(tenant, spec, SPEC)
        with open(path, "a") as fh:
            fh.write("2|deadbeef|torn")  # no newline: torn final write
        with JobQueue(path) as queue:
            assert queue.records_quarantined == 0
            assert len(queue.jobs) == 1

    def test_active_by_digest(self, tmp_path):
        with JobQueue(tmp_path / "q.journal") as queue:
            tenant, spec = parse_spec(SPEC)
            job = queue.add(tenant, spec, SPEC)
            assert queue.active_by_digest(spec.digest()) is job
            queue.mark(job, "done")
            assert queue.active_by_digest(spec.digest()) is None

    def test_unknown_state_rejected(self, tmp_path):
        with JobQueue(tmp_path / "q.journal") as queue:
            tenant, spec = parse_spec(SPEC)
            job = queue.add(tenant, spec, SPEC)
            with pytest.raises(ValueError):
                queue.mark(job, "paused")

    def test_v1_journal_refused(self, tmp_path):
        path = tmp_path / "queue.journal"
        path.write_text(json.dumps({"kind": "header"}) + "\n")
        with pytest.raises(QueueError):
            JobQueue(path)

    def test_second_queue_on_same_path_locked_out(self, tmp_path):
        from repro.runtime.integrity import JournalLockedError

        path = tmp_path / "queue.journal"
        with JobQueue(path):
            with pytest.raises(JournalLockedError):
                JobQueue(path)


# --------------------------------------------------------------------------
# scheduler
# --------------------------------------------------------------------------


def make_scheduler(tmp_path, **kw):
    return CampaignScheduler(tmp_path / "state", **kw)


class TestScheduler:
    def test_run_then_cache_hit_zero_new_trials(self, tmp_path):
        sched = make_scheduler(tmp_path).start()
        try:
            first = sched.submit(SPEC)
            assert not first.cached and not first.coalesced
            assert sched.wait(first.job.id, timeout=120) == "done"
            first_entry = sched.result_entry(first.job)

            # Fresh registry: the cache-hit submit must record zero
            # Monte-Carlo work (the "0 new trials" acceptance check).
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                second = sched.submit(dict(SPEC))
            finally:
                set_registry(previous)
            assert second.cached and second.job.state == "done"
            snapshot = registry.snapshot()
            assert not any(
                name.startswith(("repro.mc.", "repro.perf."))
                for name in snapshot
            )
            assert snapshot["repro.service.cache_hits"]["value"] == 1

            second_entry = sched.result_entry(second.job)
            assert second_entry["result"] == first_entry["result"]
            assert second_entry["body_sha256"] == first_entry["body_sha256"]
        finally:
            sched.stop()

    def test_job_reports_engine_and_per_chunk_kernel_seconds(self, tmp_path):
        from repro.obs.metrics import get_registry
        from repro.runtime.supervisor import CHUNK_KERNEL_METRIC

        sched = make_scheduler(tmp_path).start()
        try:
            out = sched.submit(SPEC)
            assert sched.wait(out.job.id, timeout=120) == "done"
            status = out.job.status_dict()
            assert status["engine"] == "batch"
            assert status["engine_resolved"] == "batch"
            rows = status["kernel_seconds"]
            # 40 trials / 16 per chunk -> 3 chunks for the single cell
            assert [r["chunk"] for r in rows] == [0, 1, 2]
            assert all(r["kernel_seconds"] >= 0.0 for r in rows)
            # /metrics: every chunk with kernel time observed exactly once
            busy = sum(1 for r in rows if r["kernel_seconds"] > 0.0)
            snapshot = get_registry().snapshot()
            if busy:
                assert snapshot[CHUNK_KERNEL_METRIC]["count"] == busy
        finally:
            sched.stop()

    def test_perturbed_spec_misses_cache(self, tmp_path):
        sched = make_scheduler(tmp_path).start()
        try:
            first = sched.submit(SPEC)
            sched.wait(first.job.id, timeout=120)
            second = sched.submit({**SPEC, "seed": 2006})
            assert not second.cached
            assert second.job.id != first.job.id
        finally:
            sched.stop()

    def test_identical_active_submissions_coalesce(self, tmp_path):
        # One worker, so the first job is still queued/running when the
        # duplicates arrive.
        sched = make_scheduler(tmp_path, max_jobs=1).start()
        try:
            first = sched.submit(SPEC)
            dupe = sched.submit(dict(SPEC))
            assert dupe.coalesced
            assert dupe.job.id == first.job.id
            assert sched.wait(first.job.id, timeout=120) == "done"
            assert len(sched.list_jobs()) == 1
        finally:
            sched.stop()

    def test_invalid_spec_raises_spec_error(self, tmp_path):
        sched = make_scheduler(tmp_path)
        try:
            with pytest.raises(SpecError):
                sched.submit({"cells": []})
        finally:
            sched.stop()

    def test_failed_job_reported_not_fatal(self, tmp_path):
        # n/k/m pass spec validation but RSCode construction can still
        # fail for configurations the codec refuses; force a failure by
        # monkeypatching is avoided — use a spec that fails in run:
        # scalar engine with a stopping rule is rejected at parse time,
        # so instead break the runtime via an unsatisfiable chunk size.
        sched = make_scheduler(tmp_path).start()
        try:
            import repro.service.scheduler as sched_mod

            original = sched_mod.run_campaign

            def boom(*a, **k):
                raise RuntimeError("injected failure")

            sched_mod.run_campaign = boom
            try:
                outcome = sched.submit(SPEC)
                assert sched.wait(outcome.job.id, timeout=60) == "failed"
                assert "injected failure" in outcome.job.error
            finally:
                sched_mod.run_campaign = original
        finally:
            sched.stop()

    def test_tenant_cap_limits_concurrency(self, tmp_path):
        sched = make_scheduler(tmp_path, max_jobs=2, tenant_cap=1)
        try:
            tenant, spec_a = parse_spec({**SPEC, "tenant": "acme"})
            job_a = sched.queue.add(tenant, spec_a, {**SPEC, "tenant": "acme"})
            sched.queue.mark(job_a, "running")
            with sched._cv:
                sched._running_by_tenant["acme"] = 1
                tenant_b, spec_b = parse_spec(
                    {**SPEC, "seed": 99, "tenant": "acme"}
                )
                job_b = sched.queue.add(
                    tenant_b, spec_b, {**SPEC, "seed": 99, "tenant": "acme"}
                )
                # acme is at cap: its queued job must not be claimable.
                assert sched._claimable() is None
                tenant_c, spec_c = parse_spec(
                    {**SPEC, "seed": 7, "tenant": "other"}
                )
                job_c = sched.queue.add(
                    tenant_c, spec_c, {**SPEC, "seed": 7, "tenant": "other"}
                )
                assert sched._claimable() is job_c
                assert job_b.state == "queued"
        finally:
            sched.stop()

    def test_restart_resumes_queued_job(self, tmp_path):
        # Submit without workers, "crash" (close without running), then
        # restart with workers: the job must complete from the journal.
        sched = make_scheduler(tmp_path)  # not started: no workers
        outcome = sched.submit(SPEC)
        job_id = outcome.job.id
        sched.queue.close()  # abandon without marking

        sched2 = make_scheduler(tmp_path).start()
        try:
            job = sched2.get_job(job_id)
            assert job is not None
            assert sched2.wait(job_id, timeout=120) == "done"
            assert sched2.result_entry(job)["result"]["rows"]
        finally:
            sched2.stop()
