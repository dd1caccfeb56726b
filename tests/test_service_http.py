"""The campaign service over HTTP: endpoints, streaming, restart-resume.

In-process tests drive :func:`repro.service.start_in_thread` with
``urllib`` (no test client dependency); the chaos-marked restart test
SIGKILLs a real ``repro serve`` subprocess mid-campaign and requires the
resumed result to be bit-identical to an uninterrupted run.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import CampaignScheduler, start_in_thread

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

SPEC = {
    "cells": [{"arrangement": "simplex", "seu_per_bit_day": 1e-3}],
    "trials": 40,
    "chunk_size": 16,
    "engine": "batch",
}


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture()
def service(tmp_path):
    scheduler = CampaignScheduler(tmp_path / "state", max_jobs=2).start()
    server = start_in_thread(scheduler)
    yield f"http://127.0.0.1:{server.port}", scheduler
    server.stop()
    scheduler.stop()


def _post(base, payload, path="/v1/jobs"):
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=data, method="POST")
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def _get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.load(response)


def _get_raw(base, path):
    with urllib.request.urlopen(base + path) as response:
        return response.read().decode()


def _status(base, path, method="GET", data=None):
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestEndpoints:
    def test_submit_poll_result_roundtrip(self, service):
        base, scheduler = service
        out = _post(base, SPEC)
        assert out["state"] == "queued" and not out["cached"]
        job_id = out["job_id"]
        scheduler.wait(job_id, timeout=120)

        status = _get(base, f"/v1/jobs/{job_id}")
        assert status["state"] == "done"
        assert status["fingerprint_digest"] == out["fingerprint_digest"]

        result = _get(base, f"/v1/jobs/{job_id}/result")
        assert result["fingerprint_digest"] == out["fingerprint_digest"]
        rows = result["result"]["rows"]
        assert len(rows) == 1 and rows[0]["trials"] == 40

        listing = _get(base, "/v1/jobs")
        assert [j["id"] for j in listing["jobs"]] == [job_id]

    def test_resubmit_served_from_cache_bit_identical(self, service):
        base, scheduler = service
        first = _post(base, SPEC)
        scheduler.wait(first["job_id"], timeout=120)
        first_result = _get(base, f"/v1/jobs/{first['job_id']}/result")

        second = _post(base, SPEC)
        assert second["cached"] and second["state"] == "done"
        assert second["job_id"] != first["job_id"]
        second_result = _get(base, f"/v1/jobs/{second['job_id']}/result")
        assert second_result["result"] == first_result["result"]
        assert second_result["cached"] is True

    def test_concurrent_identical_submits_coalesce(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "s", max_jobs=1).start()
        server = start_in_thread(scheduler)
        base = f"http://127.0.0.1:{server.port}"
        try:
            slow = {**SPEC, "trials": 4000, "chunk_size": 16}
            first = _post(base, slow)
            dupes = [_post(base, slow) for _ in range(3)]
            assert all(d["coalesced"] for d in dupes)
            assert {d["job_id"] for d in dupes} == {first["job_id"]}
            scheduler.wait(first["job_id"], timeout=300)
            assert len(_get(base, "/v1/jobs")["jobs"]) == 1
        finally:
            server.stop()
            scheduler.stop()

    def test_stream_ndjson_snapshots_then_status(self, service):
        base, scheduler = service
        out = _post(base, SPEC)
        body = _get_raw(base, f"/v1/jobs/{out['job_id']}/stream")
        lines = [json.loads(line) for line in body.splitlines()]
        assert lines, "stream produced no lines"
        assert lines[-1]["kind"] == "status"
        assert lines[-1]["state"] == "done"
        snapshots = [line for line in lines if line["kind"] == "snapshot"]
        # 40 trials / 16 chunk -> 3 chunks -> 3 snapshots, in order.
        assert [s["seq"] for s in snapshots] == list(range(len(snapshots)))
        assert snapshots[-1]["trials"] == 40

    def test_metrics_scrape(self, service):
        base, scheduler = service
        out = _post(base, SPEC)
        scheduler.wait(out["job_id"], timeout=120)
        text = _get_raw(base, "/metrics")
        assert "# TYPE repro_service_jobs_submitted counter" in text
        assert "repro_service_jobs_submitted 1" in text
        assert "repro_service_cache_misses 1" in text
        assert "# TYPE repro_mc_chunk_seconds histogram" in text
        assert 'repro_mc_chunk_seconds_bucket{le="+Inf"}' in text

    def test_trace_export(self, service):
        base, scheduler = service
        out = _post(base, SPEC)
        scheduler.wait(out["job_id"], timeout=120)
        body = _get_raw(base, f"/v1/jobs/{out['job_id']}/trace")
        records = [json.loads(line) for line in body.splitlines()]
        spans = [r for r in records if r.get("name") == "service_job"]
        assert spans and spans[0]["attrs"]["job"] == out["job_id"]

    def test_healthz(self, service):
        base, _ = service
        assert _get(base, "/healthz") == {"ok": True}


class TestErrorPaths:
    def test_invalid_spec_is_400(self, service):
        base, _ = service
        code, body = _status(
            base, "/v1/jobs", "POST", json.dumps({"cells": []}).encode()
        )
        assert code == 400
        assert "cells" in body["error"]

    def test_non_json_body_is_400(self, service):
        base, _ = service
        code, body = _status(base, "/v1/jobs", "POST", b"not json{")
        assert code == 400

    def test_unknown_job_is_404(self, service):
        base, _ = service
        assert _status(base, "/v1/jobs/j99999999")[0] == 404

    def test_unknown_route_is_404(self, service):
        base, _ = service
        assert _status(base, "/nope")[0] == 404

    def test_wrong_method_is_405(self, service):
        base, _ = service
        assert _status(base, "/metrics", "POST", b"{}")[0] == 405

    def test_result_before_done_is_409(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "s")  # no workers
        server = start_in_thread(scheduler)
        base = f"http://127.0.0.1:{server.port}"
        try:
            out = _post(base, SPEC)
            code, body = _status(base, f"/v1/jobs/{out['job_id']}/result")
            assert code == 409
            assert body["state"] == "queued"
        finally:
            server.stop()
            scheduler.stop()

    def test_oversized_body_is_413(self, service):
        base, _ = service
        big = json.dumps({"cells": "x" * (1024 * 1024 + 10)}).encode()
        code, _body = _status(base, "/v1/jobs", "POST", big)
        assert code == 413

    def test_malformed_request_line_is_400(self, service):
        base, _ = service
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            reply = sock.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 400")


# --------------------------------------------------------------------------
# the serve CLI
# --------------------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _serve_cmd(state_dir, *extra):
    return [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state_dir), "--port", "0", *extra,
    ]


class TestServeCli:
    @pytest.mark.parametrize(
        "extra",
        [
            ("--max-jobs", "0"),
            ("--tenant-cap", "0"),
            ("--port", "70000"),
        ],
    )
    def test_misuse_exits_2(self, tmp_path, extra):
        proc = subprocess.run(
            _serve_cmd(tmp_path / "state", *extra),
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_missing_state_dir_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2  # argparse misuse


def _start_server(state_dir):
    """Start ``repro serve`` and return (process, base_url)."""
    proc = subprocess.Popen(
        _serve_cmd(state_dir),
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()  # "repro service on http://host:port ..."
    assert "http://" in line, f"unexpected banner: {line!r}"
    url = line.split()[3]
    return proc, url.rstrip("/")


def _poll_done(base, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = _get(base, f"/v1/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.mark.chaos
class TestRestartResume:
    SPEC = {
        "cells": [{"arrangement": "simplex", "seu_per_bit_day": 1e-3}],
        "trials": 6000,
        "chunk_size": 16,
        "engine": "batch",
    }

    def test_sigkill_restart_resumes_bit_identically(self, tmp_path):
        # Reference: uninterrupted run on its own state dir.
        ref_proc, ref_base = _start_server(tmp_path / "ref-state")
        try:
            out = _post(ref_base, self.SPEC)
            _poll_done(ref_base, out["job_id"])
            reference = _get(ref_base, f"/v1/jobs/{out['job_id']}/result")
        finally:
            ref_proc.send_signal(signal.SIGTERM)
            ref_proc.wait(timeout=30)

        # Victim: SIGKILL mid-campaign (no cleanup of any kind).
        state = tmp_path / "state"
        proc, base = _start_server(state)
        job_id = _post(base, self.SPEC)["job_id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            chunk_journals = list((state / "chunks").glob("*.journal"))
            # A chunk record, not just the header: a kill between the two
            # leaves nothing to resume.
            if chunk_journals and b'"kind": "chunk"' in chunk_journals[0].read_bytes():
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never started journaling chunks")
        proc.kill()  # SIGKILL: no atexit, no journal close, nothing
        proc.wait(timeout=30)

        # Restart on the same state dir: the job must come back (same
        # id), finish, and match the uninterrupted reference exactly.
        proc2, base2 = _start_server(state)
        try:
            status = _get(base2, f"/v1/jobs/{job_id}")
            assert status["state"] in ("queued", "running", "done")
            final = _poll_done(base2, job_id)
            assert final["state"] == "done"
            resumed = _get(base2, f"/v1/jobs/{job_id}/result")
            assert resumed["result"] == reference["result"]
            assert (
                resumed["fingerprint_digest"]
                == reference["fingerprint_digest"]
            )
            # And some chunks were genuinely replayed from the journal.
            metrics = _get_raw(base2, "/metrics")
            resumed_line = [
                line for line in metrics.splitlines()
                if line.startswith("repro_perf_chunks_resumed ")
            ]
            assert resumed_line and float(resumed_line[0].split()[1]) > 0
        finally:
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=30) == 130
