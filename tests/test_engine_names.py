"""One table of engine names, checked at every entry point.

``batch`` (also spelled ``numpy``) and ``reference`` are the only engines.
``run_campaign`` and ``repro campaign --engine`` must accept exactly those
names and reject every other one with a message that lists the valid
names.
"""

import warnings

import pytest

from repro.cli import main
from repro.runtime.supervisor import ResilienceWarning
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


#: entry point -> (call, exception it raises for an invalid name)
ENTRY_POINTS = {
    "run_campaign": (via_run_campaign, ValueError),
    "repro campaign": (via_cli, SystemExit),
}

#: Each name's value in campaign fingerprints, unchanged since the names
#: were collapsed, so fingerprints keep their bytes.
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
