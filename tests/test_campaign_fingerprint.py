"""Campaign fingerprint schema 3: stopping-rule identity and migration.

The schema-2 fingerprint omitted the adaptive-stopping parameters even
though ``--stop-rel-ci``/``min_trials``/``method`` change the produced
estimates — so a journal written under one stopping rule would happily
resume under another.  Schema 3 folds the rule into the identity; these
tests pin the canonicalization, the digest, the legacy-journal
migration, and the end-to-end readback path.
"""

import json

import pytest

from repro.runtime import CheckpointJournal, CheckpointMismatchError, RuntimeConfig
from repro.simulator import (
    FINGERPRINT_SCHEMA,
    CampaignCell,
    campaign_fingerprint,
    canonical_fingerprint_json,
    fingerprint_digest,
    run_campaign,
    stopping_fingerprint,
    upgrade_fingerprint,
)
from repro.stats import StoppingRule

CELLS = [CampaignCell("simplex", 1e-3, 0.0)]
ARGS = dict(n=18, k=16, m=8, t_end_hours=48.0, trials=100,
            base_seed=7, engine="batch", chunk_size=50)


#: ``fingerprint_digest(fp(engine=...))`` as recorded before the engine
#: names were collapsed to batch/numpy/reference: journals, manifests and
#: service cache entries written then must keep their identity.
PINNED_DIGESTS = {
    "batch": "f3a79927196714fa1b0798f69a9f3cc4fe359df7382fbdf6d8504ab0d248f384",
    "numpy": "f3a79927196714fa1b0798f69a9f3cc4fe359df7382fbdf6d8504ab0d248f384",
    "reference": "508fbd155027f679f261cbeb8aee3f7dbee5b7ab0a2755362433ee2bec93df03",
}


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
        assert fingerprint_digest(fp(a)) != fingerprint_digest(fp(b))

    def test_stopping_fingerprint_none_passthrough(self):
        assert stopping_fingerprint(None) is None

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_fingerprint_json(fp())
        assert " " not in text
        assert json.loads(text) == fp()
        assert text == canonical_fingerprint_json(json.loads(text))

    def test_digest_is_sha256_hex(self):
        digest = fingerprint_digest(fp())
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_digest_stable_across_key_order(self):
        scrambled = dict(reversed(list(fp().items())))
        assert fingerprint_digest(scrambled) == fingerprint_digest(fp())

    @pytest.mark.parametrize("engine", sorted(PINNED_DIGESTS))
    def test_engine_digest_pinned(self, engine):
        assert fingerprint_digest(fp(engine=engine)) == PINNED_DIGESTS[engine]


class TestUpgrade:
    def test_schema2_gains_null_stopping(self):
        legacy = dict(fp())
        legacy["schema"] = 2
        del legacy["stopping"]
        upgraded = upgrade_fingerprint(legacy)
        assert upgraded["schema"] == 3
        assert upgraded["stopping"] is None
        assert upgraded == fp()

    def test_schema1_gains_iid_cells_and_null_stopping(self):
        legacy = dict(fp())
        legacy["schema"] = 1
        del legacy["stopping"]
        legacy["cells"] = [
            {k: v for k, v in cell.items()
             if k not in ("pattern", "schedule")}
            for cell in legacy["cells"]
        ]
        upgraded = upgrade_fingerprint(legacy)
        assert upgraded == fp()

    def test_current_schema_unchanged(self):
        current = fp(StoppingRule(rel_ci=0.5))
        assert upgrade_fingerprint(current) == current

    def test_unknown_schema_passthrough(self):
        weird = {"schema": 99, "x": 1}
        assert upgrade_fingerprint(weird) == weird

    def test_upgrade_does_not_mutate_input(self):
        legacy = {"schema": 2, "cells": [{"arrangement": "simplex"}]}
        upgrade_fingerprint(legacy)
        assert legacy == {"schema": 2, "cells": [{"arrangement": "simplex"}]}


class TestJournalReadback:
    """End-to-end: journals written under older schemas still resume."""

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
        """Rewrite the on-disk journal header to the legacy schema-2 form."""
        from repro.runtime.integrity import rewrite_journal, scan_journal

        records = [record for _line, record in scan_journal(path).records]
        legacy_header = dict(records[0])
        legacy_fp = dict(legacy_header["fingerprint"])
        legacy_fp["schema"] = 2
        del legacy_fp["stopping"]
        legacy_header["fingerprint"] = legacy_fp
        rewrite_journal(path, [legacy_header] + records[1:])

    def test_schema2_journal_resumes_as_full_budget(self, tmp_path):
        path = tmp_path / "c.journal"
        rows = self._run(path)
        self._downgrade_header_to_schema2(path)

        resumed = self._run(path)
        assert [r.estimate.probability for r in resumed] == [
            r.estimate.probability for r in rows
        ]

    def test_schema2_journal_rejected_under_stopping_rule(self, tmp_path):
        # The bug this PR closes: a legacy journal must NOT silently
        # resume into a run whose stopping rule changes the estimate.
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
