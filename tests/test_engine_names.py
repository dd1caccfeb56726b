"""One campaign engine, and the names ``run_campaign`` accepts for it.

Every campaign runs the batch engine.  ``run_campaign`` still takes an
``engine`` argument, but only a name of that engine: ``batch``, or
``numpy``, its other name.  Every other name, the deleted ``reference``
loop included, raises ``ValueError`` listing the valid names before any
work.  ``repro campaign`` has no ``--engine`` flag: any ``--engine X`` is
a usage error.
"""

import warnings

import pytest

import repro.simulator.campaign as campaign
from repro.cli import main
from repro.obs import trace
from repro.runtime.supervisor import ResilienceWarning
from repro.simulator import CampaignCell, run_campaign

VALID = ("batch", "numpy")
#: ``reference``, ``auto``, ``scalar`` and ``compiled`` were engines once;
#: they are now rejected like any unknown name.
INVALID = ("reference", "auto", "scalar", "compiled", "quantum")

CAMPAIGN = ["campaign", "--trials", "20", "--chunk-size", "10"]
CELLS = [CampaignCell("simplex", 2e-3, 0.0)]


def estimates(engine):
    rows = run_campaign(CELLS, trials=20, chunk_size=10, engine=engine)
    return [row.estimate for row in rows]


def test_engine_names():
    assert campaign.ENGINES == VALID


@pytest.mark.parametrize("engine", VALID)
def test_valid_engine_gives_the_batch_rows(engine):
    assert estimates(engine) == estimates("batch")


@pytest.mark.parametrize("engine", VALID)
def test_campaign_cell_span_keeps_the_engine_name(engine):
    collector = trace.TraceCollector()
    with trace.use_collector(collector):
        estimates(engine)
    [span] = collector.spans("campaign_cell")
    assert span["attrs"]["engine"] == engine


@pytest.mark.parametrize("engine", INVALID)
def test_invalid_engine_rejected_before_any_work(engine, monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a model was solved before the engine check")

    monkeypatch.setattr(campaign, "cell_model_probability", no_solve)
    with pytest.raises(ValueError) as excinfo:
        estimates(engine)
    message = str(excinfo.value)
    assert repr(engine) in message
    for name in VALID:
        assert name in message, (name, message)


@pytest.mark.parametrize("engine", VALID + INVALID)
def test_engine_flag_is_a_usage_error(engine, capsys):
    with pytest.raises(SystemExit) as info:
        main(CAMPAIGN + ["--engine", engine])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "unrecognized arguments: --engine" in err


def test_default_campaign_emits_no_resilience_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResilienceWarning)
        assert main(CAMPAIGN) in (0, 1)
