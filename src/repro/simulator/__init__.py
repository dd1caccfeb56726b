"""Bit-level fault-injection simulator — the "physical" validation substrate.

Public surface:

* :class:`~repro.simulator.word.MemoryWord` — bit-level storage with SEU
  and stuck-at faults.
* :mod:`~repro.simulator.faults` — Poisson event streams and scrub
  schedules.
* :class:`~repro.simulator.systems.SimplexSystem` /
  :class:`~repro.simulator.systems.DuplexSystem` — executable arrangements
  using the real codec and arbiter.
* :func:`~repro.simulator.arbiter.arbitrate` — the Section 3 decision
  procedure.
* :mod:`~repro.simulator.montecarlo` — SSA and fault-injection estimators.
* :mod:`~repro.simulator.patterns` — correlated fault-pattern grammar
  and time-varying rate schedules.
* :mod:`~repro.simulator.scenarios` — named, seeded campaign presets.
"""

from .arbiter import (
    ArbiterDecision,
    ArbiterResult,
    arbitrate,
    decide_batch,
    decide_from_decodes,
    recover_erasures,
)
from .campaign import (
    FINGERPRINT_SCHEMA,
    CampaignCell,
    CampaignRow,
    campaign_fingerprint,
    campaign_summary,
    cell_model_probability,
    default_validation_campaign,
    run_campaign,
    stopping_fingerprint,
)
from .controller import ControllerStats, simulate_controller
from .faults import (
    FaultEvent,
    FaultKind,
    event_sort_key,
    merge_event_streams,
    sample_permanent_events,
    sample_seu_events,
    scrub_schedule,
    sort_events,
)
from .mbu import sample_mbu_strikes, simulate_mbu_read_unreliability
from .montecarlo import (
    FailureEstimate,
    chunk_sizes,
    gillespie_fail_probability,
    simulate_fail_probability,
    simulate_fail_probability_batched,
    simulate_read_outcome,
    spawn_chunk_seeds,
    wilson_interval,
)
from .patterns import (
    IID_1BIT,
    FaultPattern,
    PatternKind,
    PatternTerm,
    RateSchedule,
    format_pattern,
    format_schedule,
    parse_pattern,
    parse_schedule,
    sample_pattern_events,
)
from .policies import ARBITER_POLICIES, compare_policies
from .scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    render_catalog,
    scenario_names,
)
from .systems import DuplexSystem, ReadOutcome, SimplexSystem
from .voting import NMRSystem, simulate_nmr_read_unreliability
from .word import MemoryWord

__all__ = [
    "MemoryWord",
    "FaultEvent",
    "FaultKind",
    "event_sort_key",
    "sort_events",
    "sample_seu_events",
    "sample_permanent_events",
    "scrub_schedule",
    "merge_event_streams",
    "PatternKind",
    "PatternTerm",
    "FaultPattern",
    "RateSchedule",
    "IID_1BIT",
    "parse_pattern",
    "format_pattern",
    "parse_schedule",
    "format_schedule",
    "sample_pattern_events",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
    "render_catalog",
    "ArbiterDecision",
    "ArbiterResult",
    "arbitrate",
    "recover_erasures",
    "SimplexSystem",
    "DuplexSystem",
    "ReadOutcome",
    "FailureEstimate",
    "gillespie_fail_probability",
    "simulate_fail_probability",
    "simulate_fail_probability_batched",
    "simulate_read_outcome",
    "spawn_chunk_seeds",
    "chunk_sizes",
    "decide_batch",
    "decide_from_decodes",
    "wilson_interval",
    "NMRSystem",
    "simulate_nmr_read_unreliability",
    "sample_mbu_strikes",
    "simulate_mbu_read_unreliability",
    "ControllerStats",
    "simulate_controller",
    "ARBITER_POLICIES",
    "compare_policies",
    "CampaignCell",
    "CampaignRow",
    "FINGERPRINT_SCHEMA",
    "campaign_fingerprint",
    "stopping_fingerprint",
    "cell_model_probability",
    "run_campaign",
    "default_validation_campaign",
    "campaign_summary",
]
