"""One table of engine names, checked at every entry point.

``batch`` (also spelled ``numpy``) and ``reference`` are the only engines.
``run_campaign``, ``repro campaign --engine``, the service's
``parse_spec`` and its ``POST /v1/jobs`` must accept exactly those names
and reject every other one with a message that lists the valid names.
"""

import json
import tempfile
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.supervisor import ResilienceWarning
from repro.service import CampaignScheduler, SpecError, parse_spec, start_in_thread
from repro.simulator import CampaignCell, run_campaign
from repro.simulator.campaign import canonical_engine

VALID = ("batch", "numpy", "reference")
#: ``auto``, ``scalar`` and ``compiled`` were engines once; they are now
#: rejected like any unknown name.
INVALID = ("auto", "scalar", "compiled", "quantum")

CAMPAIGN = ["campaign", "--trials", "20", "--chunk-size", "10"]


def via_run_campaign(engine):
    cells = [CampaignCell("simplex", 2e-3, 0.0)]
    run_campaign(cells, trials=20, chunk_size=10, engine=engine)


def via_cli(engine):
    # argparse rejects a bad --engine with SystemExit(2); exit 1 means the
    # campaign ran but a cell fell outside its interval at 20 trials.
    assert main(CAMPAIGN + ["--engine", engine]) in (0, 1)


def via_parse_spec(engine):
    _, spec = parse_spec({"cells": [{"arrangement": "simplex"}], "engine": engine})
    assert spec.engine == engine


class Rejected(Exception):
    """An HTTP 400 answer; ``str()`` is the service's error message."""


def via_http(engine):
    spec = {
        "cells": [{"arrangement": "simplex"}],
        "trials": 20,
        "chunk_size": 10,
        "engine": engine,
    }
    with tempfile.TemporaryDirectory() as state:
        scheduler = CampaignScheduler(Path(state), max_jobs=1).start()
        server = start_in_thread(scheduler)
        base = f"http://127.0.0.1:{server.port}"
        try:
            request = urllib.request.Request(
                base + "/v1/jobs", data=json.dumps(spec).encode(), method="POST"
            )
            try:
                with urllib.request.urlopen(request) as response:
                    job_id = json.load(response)["job_id"]
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                raise Rejected(json.load(exc)["error"]) from None
            assert scheduler.wait(job_id, timeout=120) == "done"
            with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}") as response:
                status = json.load(response)
        finally:
            server.stop()
            scheduler.stop()
    resolved = "reference" if engine == "reference" else "batch"
    assert status["engine_resolved"] == resolved


#: entry point -> (call, exception it raises for an invalid name)
ENTRY_POINTS = {
    "run_campaign": (via_run_campaign, ValueError),
    "repro campaign": (via_cli, SystemExit),
    "parse_spec": (via_parse_spec, SpecError),
    "POST /v1/jobs": (via_http, Rejected),
}

#: Each name's value in campaign fingerprints, unchanged since the names
#: were collapsed so that older journals, manifests and service cache
#: entries stay valid.
FINGERPRINT_VALUES = {"batch": "batch", "numpy": "batch", "reference": "scalar"}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("engine", VALID)
def test_valid_engine_accepted(entry, engine):
    call, _error = ENTRY_POINTS[entry]
    call(engine)


@pytest.mark.parametrize("engine", VALID)
def test_fingerprint_value(engine):
    assert canonical_engine(engine) == FINGERPRINT_VALUES[engine]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("engine", INVALID)
def test_invalid_engine_rejected_listing_valid_names(entry, engine, capsys):
    call, error = ENTRY_POINTS[entry]
    with pytest.raises(error) as excinfo:
        call(engine)
    if error is SystemExit:
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(excinfo.value)
    assert repr(engine) in message
    for name in VALID:
        assert name in message, (name, message)


def test_default_campaign_emits_no_resilience_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResilienceWarning)
        assert main(CAMPAIGN) in (0, 1)
