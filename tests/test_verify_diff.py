"""Tests for the differential-target registry in repro.verify.diff.

Every registered target runs a batch of seeded trials and must report no
mismatch (the implementations genuinely agree), while its induced-bug
check must fire on generated cases (the detector detects).  Registry
plumbing and mismatch serialization get direct unit tests.
"""

import json

import pytest

from repro.verify import (
    Mismatch,
    Target,
    all_targets,
    case_rng,
    get_target,
    register_target,
)
from repro.verify.diff import _REGISTRY

EXPECTED_TARGETS = {
    "gf-mul",
    "rs-decode",
    "rs-solver-parity",
    "rs-batch-scalar",
    "markov-transient",
    "memory-analytic",
    "memory-mc-ber",
    "journal-roundtrip",
    "mc-streaming-vs-final",
    "scenario-analytic-parity",
}

# Trial counts tuned so the whole module stays in the seconds range:
# the expensive targets (exhaustive-oracle decode, Monte-Carlo) get
# fewer trials here; the nightly fuzz job gives them depth.
TRIALS = {
    "gf-mul": 40,
    "rs-decode": 12,
    "rs-solver-parity": 30,
    "rs-batch-scalar": 10,
    "markov-transient": 20,
    "memory-analytic": 8,
    "memory-mc-ber": 3,
    "journal-roundtrip": 3,
    "mc-streaming-vs-final": 3,
    "scenario-analytic-parity": 3,
}


class TestRegistry:
    def test_expected_targets_registered(self):
        assert {t.name for t in all_targets()} == EXPECTED_TARGETS

    def test_at_least_six_targets_spanning_layers(self):
        targets = all_targets()
        assert len(targets) >= 6
        layers = {layer for t in targets for layer in t.layers}
        assert {"gf", "rs", "markov", "memory"} <= layers

    def test_all_targets_sorted(self):
        names = [t.name for t in all_targets()]
        assert names == sorted(names)

    def test_get_target_unknown_name(self):
        with pytest.raises(KeyError):
            get_target("no-such-target")

    def test_duplicate_registration_rejected(self):
        existing = all_targets()[0]
        with pytest.raises(ValueError):
            register_target(existing)
        assert _REGISTRY[existing.name] is existing

    def test_targets_have_descriptions(self):
        for t in all_targets():
            assert t.description.strip()
            assert t.layers


class TestMismatch:
    def test_as_dict_json_serializable(self):
        import numpy as np

        m = Mismatch(
            "demo", {"arr": np.arange(3), "x": np.float64(1.5), "s": "ok"}
        )
        payload = m.as_dict()
        text = json.dumps(payload)  # must not raise
        assert "demo" in text

    def test_target_dataclass_frozen(self):
        t = all_targets()[0]
        assert isinstance(t, Target)
        with pytest.raises(AttributeError):
            t.name = "other"


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_target_agrees_on_seeded_trials(name):
    """The differential pair genuinely agrees on a seeded trial batch."""
    target = get_target(name)
    for trial in range(TRIALS[name]):
        rng = case_rng(1234, trial)
        case = target.generate(rng)
        mismatch = target.check(case)
        assert mismatch is None, (
            f"{name} trial {trial}: {mismatch.description} "
            f"{json.dumps(mismatch.as_dict())[:400]}"
        )


def test_rs_batch_scalar_decodes_each_case_as_one_batch(monkeypatch):
    """All words of a case share one decode_batch call, so a per-row
    mask of the vectorized decoder that leaks across rows is reachable."""
    from repro.rs import BatchRSCodec

    sizes = []
    decode_batch = BatchRSCodec.decode_batch

    def spy(self, received, erasure_positions=None):
        sizes.append(len(received))
        return decode_batch(self, received, erasure_positions)

    monkeypatch.setattr(BatchRSCodec, "decode_batch", spy)
    target = get_target("rs-batch-scalar")
    cases = [target.generate(case_rng(1234, trial)) for trial in range(10)]
    for case in cases:
        sizes.clear()
        assert target.check(case) is None
        assert sizes == [len(case["words"])]
    assert max(len(case["words"]) for case in cases) > 1


def test_markov_transient_flags_grid_pass_drift(monkeypatch):
    """A grid solve one ulp off the per-time calls is a mismatch, although
    it still agrees with expm and the Taylor oracle to 1e-9."""
    import numpy as np

    from repro.markov import solvers

    grid = solvers.transient_uniformization

    def drifted(chain, times, **kwargs):
        return np.nextafter(grid(chain, times, **kwargs), np.inf)

    monkeypatch.setattr(solvers, "transient_uniformization", drifted)
    target = get_target("markov-transient")
    mismatch = target.check(target.generate(case_rng(1234, 0)))
    assert isinstance(mismatch, Mismatch)
    assert "grid pass" in mismatch.description


def test_memory_analytic_flags_frontier_build_drift(monkeypatch):
    """A frontier-built duplex chain one ulp off the per-state build is a
    mismatch, although the closed form still agrees to 1e-6."""
    import numpy as np

    from repro.memory.duplex import DuplexFrontier

    expand = DuplexFrontier.expand

    def drifted(self, keys):
        parent, target, rate = expand(self, keys)
        return parent, target, np.nextafter(rate, np.inf)

    monkeypatch.setattr(DuplexFrontier, "expand", drifted)
    target = get_target("memory-analytic")
    case = next(
        case
        for case in (target.generate(case_rng(1234, t)) for t in range(50))
        if case["arrangement"] == "duplex"
    )
    mismatch = target.check(case)
    assert isinstance(mismatch, Mismatch)
    assert "frontier-built" in mismatch.description


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_induced_check_fires(name):
    """Each target's deliberately buggy self-test check detects something.

    The induced predicates are monotone, so among a handful of generated
    cases at least one must trip (most trip immediately).
    """
    target = get_target(name)
    fired = False
    for trial in range(20):
        case = target.generate(case_rng(99, trial))
        if target.induced_check(case) is not None:
            fired = True
            break
    assert fired, f"{name}: induced bug never detected in 20 cases"


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_shrink_candidates_stay_checkable(name):
    """Shrink candidates are structurally valid cases for the checker.

    (The harness tolerates exceptions from invalid candidates, but the
    built-in shrinkers should not produce any on well-formed input.)
    """
    target = get_target(name)
    case = target.generate(case_rng(55, 0))
    for i, candidate in enumerate(target.shrink(case)):
        if i >= 10:
            break
        target.check(candidate)  # must not raise
