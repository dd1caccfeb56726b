"""Campaign fingerprint schema 3: stopping-rule identity.

The schema-2 fingerprint omitted the adaptive-stopping parameters even
though ``--stop-rel-ci``/``min_trials``/``method`` change the produced
estimates — so a journal written under one stopping rule would happily
resume under another.  Schema 3 folds the rule into the identity; these
tests pin the fingerprint bytes (through a SHA-256 digest of their
sorted, compact JSON), the refusal of a journal whose header carries
another schema, and the end-to-end readback path.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.runtime import CheckpointJournal, CheckpointMismatchError, RuntimeConfig
from repro.simulator import (
    FINGERPRINT_SCHEMA,
    CampaignCell,
    campaign_fingerprint,
    run_campaign,
    stopping_fingerprint,
)
from repro.stats import StoppingRule

CELLS = [CampaignCell("simplex", 1e-3, 0.0)]
ARGS = dict(n=18, k=16, m=8, t_end_hours=48.0, trials=100,
            base_seed=7, engine="batch", chunk_size=50)


#: ``digest(fp(engine=...))`` as recorded before the engine names were
#: collapsed to batch/numpy/reference: the fingerprint bytes that journal
#: headers and manifests carry must not move.
PINNED_DIGESTS = {
    "batch": "f3a79927196714fa1b0798f69a9f3cc4fe359df7382fbdf6d8504ab0d248f384",
    "numpy": "f3a79927196714fa1b0798f69a9f3cc4fe359df7382fbdf6d8504ab0d248f384",
    "reference": "508fbd155027f679f261cbeb8aee3f7dbee5b7ab0a2755362433ee2bec93df03",
}


def digest(fingerprint):
    """SHA-256 hex digest of the sorted, compact fingerprint JSON."""
    text = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fp(stop=None, engine=ARGS["engine"]):
    return campaign_fingerprint(
        CELLS, ARGS["n"], ARGS["k"], ARGS["m"], ARGS["t_end_hours"],
        ARGS["trials"], ARGS["base_seed"], engine,
        ARGS["chunk_size"], stop=stop,
    )


class TestSchema3Identity:
    def test_schema_number(self):
        assert FINGERPRINT_SCHEMA == 3
        assert fp()["schema"] == 3

    def test_stopping_in_fingerprint(self):
        rule = StoppingRule(rel_ci=0.1, min_trials=50, method="jeffreys",
                            confidence=0.99)
        assert fp()["stopping"] is None
        assert fp(rule)["stopping"] == {
            "rel_ci": 0.1, "min_trials": 50, "method": "jeffreys",
            "confidence": 0.99,
        }

    @pytest.mark.parametrize("a,b", [
        (None, StoppingRule(rel_ci=0.1)),
        (StoppingRule(rel_ci=0.1), StoppingRule(rel_ci=0.2)),
        (StoppingRule(rel_ci=0.1), StoppingRule(rel_ci=0.1, min_trials=10)),
        (StoppingRule(rel_ci=0.1), StoppingRule(rel_ci=0.1, method="jeffreys")),
        (StoppingRule(rel_ci=0.1),
         StoppingRule(rel_ci=0.1, confidence=0.99)),
    ])
    def test_every_stopping_field_changes_the_digest(self, a, b):
        assert digest(fp(a)) != digest(fp(b))

    def test_stopping_fingerprint_none_passthrough(self):
        assert stopping_fingerprint(None) is None

    @pytest.mark.parametrize("engine", sorted(PINNED_DIGESTS))
    def test_engine_digest_pinned(self, engine):
        assert digest(fp(engine=engine)) == PINNED_DIGESTS[engine]


def fingerprint_of(**changes):
    """The fingerprint of ``CELLS``/``ARGS`` with some arguments changed."""
    return campaign_fingerprint(**{**ARGS, "cells": CELLS, **changes})


def one_cell(**fields):
    """``CELLS`` with the fields of its one cell changed."""
    return [dataclasses.replace(CELLS[0], **fields)]


#: identity field -> (changed ``campaign_fingerprint`` arguments, the
#: fingerprint key a journal mismatch names)
IDENTITY_CHANGES = {
    "n": ({"n": 20}, "n"),
    "k": ({"k": 14}, "k"),
    "m": ({"m": 9}, "m"),
    "t_end_hours": ({"t_end_hours": 24.0}, "t_end_hours"),
    "trials": ({"trials": 200}, "trials"),
    "base_seed": ({"base_seed": 8}, "base_seed"),
    "engine": ({"engine": "reference"}, "engine"),
    "chunk_size": ({"chunk_size": 25}, "chunk_size"),
    "stopping": ({"stop": StoppingRule(rel_ci=0.5)}, "stopping"),
    "arrangement": ({"cells": one_cell(arrangement="duplex")}, "cells"),
    "seu_per_bit_day": ({"cells": one_cell(seu_per_bit_day=2e-3)}, "cells"),
    "erasure_per_symbol_day": (
        {"cells": one_cell(erasure_per_symbol_day=1e-2)},
        "cells",
    ),
    "scrub_period_seconds": (
        {"cells": one_cell(scrub_period_seconds=3600.0)},
        "cells",
    ),
    "pattern": ({"cells": one_cell(pattern="1BIT")}, "cells"),
    "schedule": (
        {"cells": one_cell(schedule="42.0h@1.0,6.0h@8.0")},
        "cells",
    ),
    "cell-added": (
        {"cells": CELLS + [CampaignCell("duplex", 1e-3, 0.0)]},
        "cells",
    ),
}


class TestIdentityFields:
    """Every estimate-shaping parameter binds the journal; nothing else."""

    @pytest.mark.parametrize("field", IDENTITY_CHANGES)
    def test_each_field_refuses_the_journal(self, tmp_path, field):
        changes, key = IDENTITY_CHANGES[field]
        path = tmp_path / "c.journal"
        with CheckpointJournal(path) as journal:
            journal.ensure_header(fingerprint_of())
        before = path.read_bytes()
        with CheckpointJournal(path) as journal:
            with pytest.raises(
                CheckpointMismatchError, match=rf"mismatched fields: {key}\)"
            ):
                journal.ensure_header(fingerprint_of(**changes))
            assert journal.ensure_header(fingerprint_of()) is True
        assert path.read_bytes() == before

    def test_key_order_is_not_identity(self, tmp_path):
        path = tmp_path / "c.journal"
        with CheckpointJournal(path) as journal:
            journal.ensure_header(fp())
        scrambled = dict(reversed(list(fp().items())))
        with CheckpointJournal(path) as journal:
            assert journal.ensure_header(scrambled) is True

    @pytest.mark.parametrize("engine", sorted(PINNED_DIGESTS))
    def test_journal_header_keeps_the_pinned_digest(self, tmp_path, engine):
        path = tmp_path / "c.journal"
        with CheckpointJournal(path) as journal:
            journal.ensure_header(fp(engine=engine))
        with CheckpointJournal(path) as journal:
            assert digest(journal.header_fingerprint) == PINNED_DIGESTS[engine]


class TestJournalReadback:
    """End-to-end: a journal resumes only under its own fingerprint."""

    def _run(self, journal_path, stop=None, trials=100):
        journal = CheckpointJournal(journal_path)
        try:
            return run_campaign(
                CELLS, trials=trials, base_seed=7, engine="batch",
                chunk_size=50,
                runtime=RuntimeConfig(journal=journal, stop=stop),
            )
        finally:
            journal.close()

    @staticmethod
    def _downgrade_header_to_schema2(path):
        """Rewrite the on-disk journal header to the schema-2 form."""
        from repro.runtime.integrity import rewrite_journal, scan_journal

        records = [record for _line, record in scan_journal(path).records]
        legacy_header = dict(records[0])
        legacy_fp = dict(legacy_header["fingerprint"])
        legacy_fp["schema"] = 2
        del legacy_fp["stopping"]
        legacy_header["fingerprint"] = legacy_fp
        rewrite_journal(path, [legacy_header] + records[1:])

    def test_schema2_journal_refused(self, tmp_path):
        path = tmp_path / "c.journal"
        self._run(path)
        self._downgrade_header_to_schema2(path)

        with pytest.raises(CheckpointMismatchError, match=r"fields: schema\)"):
            self._run(path)

    def test_schema2_journal_rejected_under_stopping_rule(self, tmp_path):
        # A schema-2 journal must never resume into a run whose stopping
        # rule changes the estimate.
        path = tmp_path / "c.journal"
        self._run(path)
        self._downgrade_header_to_schema2(path)

        with pytest.raises(CheckpointMismatchError):
            self._run(path, stop=StoppingRule(rel_ci=0.5, min_trials=10))

    def test_different_stop_rule_rejected_same_schema(self, tmp_path):
        path = tmp_path / "c.journal"
        self._run(path, stop=StoppingRule(rel_ci=0.5))
        with pytest.raises(CheckpointMismatchError):
            self._run(path, stop=StoppingRule(rel_ci=0.25))

    def test_same_stop_rule_resumes(self, tmp_path):
        path = tmp_path / "c.journal"
        rule = StoppingRule(rel_ci=0.5, min_trials=50)
        rows = self._run(path, stop=rule)
        resumed = self._run(path, stop=rule)
        assert [r.estimate.probability for r in resumed] == [
            r.estimate.probability for r in rows
        ]
