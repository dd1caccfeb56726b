"""Adaptive early stopping: determinism, floors, and statistical sanity.

``--stop-rel-ci`` promises three things:

1. an early-stopped estimate is still an honest estimate — the full-run
   reference lands inside the early stop's reported interval, and the
   early-stopped run is bit-identical to simply running the prefix;
2. the stopping point is a pure function of the seeded chunk results:
   the same estimate falls out for any worker count or schedule;
3. the ``min_trials`` floor is honored, and an all-zero prefix can
   *never* fire the rule (relative width is infinite at k = 0).
"""

import itertools

import pytest

from repro.rs import RSCode
from repro.runtime import RuntimeConfig, StoppingRule, make_executor
from repro.simulator import simulate_fail_probability_batched
from repro.stats import AdaptiveStopper

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0


def run(trials=600, seed=17, workers=1, stop=None, lam=LAM):
    with make_executor(workers) as built:
        return simulate_fail_probability_batched(
            "simplex",
            CODE,
            48.0,
            lam,
            0.0,
            trials,
            seed=seed,
            chunk_size=50,
            workers=workers,
            runtime=RuntimeConfig(stop=stop, executor=built),
        )


RULE = StoppingRule(rel_ci=1.0, min_trials=100)


# --------------------------------------------------------------------------
# 1. statistical sanity of the early-stopped estimate
# --------------------------------------------------------------------------


def test_early_stop_fires_and_reports_honest_interval():
    reference = run()
    stopped = run(stop=RULE)
    assert stopped.stopped_early
    assert stopped.trials < reference.trials
    assert stopped.trials >= RULE.min_trials
    # the full-run point estimate lies inside the early stop's CI
    assert stopped.ci_low <= reference.probability <= stopped.ci_high
    assert not reference.stopped_early


def test_early_stop_equals_plain_run_of_the_prefix():
    """Stopping at N trials == having asked for N trials in the first
    place: chunk seeds depend only on the chunk index, so the stopped
    prefix is bit-identical to a fresh run with that exact budget."""
    stopped = run(stop=RULE)
    prefix = run(trials=stopped.trials)
    assert (prefix.failures, prefix.trials, prefix.probability) == (
        stopped.failures,
        stopped.trials,
        stopped.probability,
    )
    assert (prefix.ci_low, prefix.ci_high) == (stopped.ci_low, stopped.ci_high)
    assert prefix.outcome_counts == stopped.outcome_counts


# --------------------------------------------------------------------------
# 2. worker-count invariance
# --------------------------------------------------------------------------


def test_stop_point_invariant_across_worker_counts():
    results = [run(stop=RULE, workers=w) for w in (1, 2, 4)]
    first = results[0]
    assert first.stopped_early
    for other in results[1:]:
        assert (other.failures, other.trials, other.probability) == (
            first.failures,
            first.trials,
            first.probability,
        )
        assert other.outcome_counts == first.outcome_counts


# --------------------------------------------------------------------------
# 3. floors and all-zero prefixes
# --------------------------------------------------------------------------


def test_min_trials_floor_honored():
    eager = run(stop=StoppingRule(rel_ci=10.0))
    floored = run(stop=StoppingRule(rel_ci=10.0, min_trials=300))
    # the loose rule fires as soon as any failure lands...
    assert eager.stopped_early and eager.trials < 300
    # ...but the floor holds it to >= 300 trials regardless
    assert floored.trials >= 300


def test_all_zero_run_never_stops():
    """A rate so low the seeded run sees zero failures: the rule cannot
    fire at k = 0, so the full budget runs even under a loose rule."""
    quiet = run(lam=1e-7 / 24.0, trials=400)
    assert quiet.failures == 0  # precondition for the property
    stopped = run(
        lam=1e-7 / 24.0, trials=400, stop=StoppingRule(rel_ci=10.0)
    )
    assert not stopped.stopped_early
    assert stopped.trials == quiet.trials == 400


def test_stopping_rule_validation():
    with pytest.raises(ValueError, match="rel_ci"):
        StoppingRule(rel_ci=0.0)
    with pytest.raises(ValueError, match="min_trials"):
        StoppingRule(rel_ci=0.1, min_trials=-1)
    with pytest.raises(ValueError, match="method"):
        StoppingRule(rel_ci=0.1, method="clopper")
    rule = StoppingRule(rel_ci=0.5)
    assert not rule.satisfied(0, 10**6)  # k = 0 never satisfies
    assert not rule.satisfied(5, 0)


# --------------------------------------------------------------------------
# AdaptiveStopper unit properties: schedule invariance
# --------------------------------------------------------------------------

_CHUNKS = [(0, 50), (3, 50), (1, 50), (0, 50), (2, 50)]  # (failures, trials)


def _decide(order):
    stopper = AdaptiveStopper(StoppingRule(rel_ci=1.2, min_trials=100))
    for index in order:
        failures, trials = _CHUNKS[index]
        stopper.offer(index, failures, trials)
    return stopper.stop_index, stopper.prefix_failures, stopper.prefix_trials


def test_stopper_invariant_over_all_completion_orders():
    decisions = {
        _decide(order)
        for order in itertools.permutations(range(len(_CHUNKS)))
    }
    assert len(decisions) == 1
    stop_index, failures, trials = decisions.pop()
    # independently recompute: smallest contiguous prefix satisfying the rule
    rule = StoppingRule(rel_ci=1.2, min_trials=100)
    cum_f = cum_t = 0
    expected = None
    for j, (chunk_f, chunk_t) in enumerate(_CHUNKS):
        cum_f += chunk_f
        cum_t += chunk_t
        if expected is None and rule.satisfied(cum_f, cum_t):
            expected = (j, cum_f, cum_t)
    assert (stop_index, failures, trials) == expected


def test_stopper_drops_duplicates_and_post_stop_offers():
    stopper = AdaptiveStopper(StoppingRule(rel_ci=1.2, min_trials=100))
    stopper.offer(0, 0, 50)
    stopper.offer(0, 99, 50)  # duplicate: first result wins
    assert stopper.prefix_failures == 0
    for index in (1, 2, 3):
        stopper.offer(index, _CHUNKS[index][0], _CHUNKS[index][1])
    assert stopper.should_stop
    decided = stopper.stop_index
    stopper.offer(4, 99, 50)  # lands after the decision: ignored
    assert stopper.stop_index == decided
