"""Config-driven scenario runner.

Downstream users rarely want to write orchestration code for every
what-if; a *scenario* is a JSON-serializable description of one memory
configuration plus an evaluation request, runnable from Python or the
CLI (``python -m repro scenario my.json``).

Schema (all rates in the paper's units)::

    {
      "name": "leo-duplex",                # optional label
      "arrangement": "duplex",             # simplex | duplex
      "n": 18, "k": 16, "m": 8,
      "seu_per_bit_day": 1.7e-5,
      "erasure_per_symbol_day": 0.0,
      "scrub_period_seconds": 3600,        # optional
      "fail_rule": "either",               # duplex only, optional
      "horizon_hours": 48.0,
      "points": 13,                        # grid size, optional
      "ber_budget": 1e-6                   # optional: adds a pass/fail check
    }

:func:`run_scenario` returns a :class:`ScenarioResult` carrying the BER
curve, the summary scalars, and the budget verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ..memory import BERCurve, ber_curve, duplex_model, simplex_model

_REQUIRED_KEYS = ("arrangement", "n", "k", "horizon_hours")
_STR = ((str,), "a string")
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_NUMBER_OR_NULL = ((int, float, type(None)), "a number")
#: Every allowed key -> (accepted types, what an error calls them).  A
#: bool is an int to Python but never a count or a rate here.
_KEY_TYPES = {
    "name": _STR,
    "arrangement": _STR,
    "n": _INT,
    "k": _INT,
    "m": _INT,
    "seu_per_bit_day": _NUMBER,
    "erasure_per_symbol_day": _NUMBER,
    "scrub_period_seconds": _NUMBER_OR_NULL,
    "fail_rule": _STR,
    "horizon_hours": _NUMBER,
    "points": _INT,
    "ber_budget": _NUMBER_OR_NULL,
}


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario evaluation."""

    name: str
    curve: BERCurve
    final_ber: float
    mttf_hours: float
    budget: Optional[float] = None
    meets_budget: Optional[bool] = None
    config: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"scenario : {self.name}",
            f"BER(final): {self.final_ber:.6e}",
            f"MTTF      : {self.mttf_hours:.6g} h",
        ]
        if self.budget is not None:
            verdict = "MEETS" if self.meets_budget else "MISSES"
            lines.append(f"budget    : {verdict} {self.budget:g}")
        return "\n".join(lines)


def validate_scenario(config: Dict[str, Any]) -> Dict[str, Any]:
    """Check keys/types and fill defaults; returns a normalized copy.

    Every problem, a wrongly typed field included, raises ``ValueError``.
    """
    if not isinstance(config, dict):
        raise ValueError(
            f"a scenario is a JSON object, got {type(config).__name__}"
        )
    unknown = set(config) - set(_KEY_TYPES)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in config]
    if missing:
        raise ValueError(f"scenario missing required keys: {missing}")
    normalized = dict(config)
    normalized.setdefault("name", "scenario")
    normalized.setdefault("m", 8)
    normalized.setdefault("seu_per_bit_day", 0.0)
    normalized.setdefault("erasure_per_symbol_day", 0.0)
    normalized.setdefault("scrub_period_seconds", None)
    normalized.setdefault("fail_rule", "either")
    normalized.setdefault("points", 13)
    for key, (types, kind) in _KEY_TYPES.items():
        value = normalized.get(key)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
    if normalized["arrangement"] not in ("simplex", "duplex"):
        raise ValueError(
            f"arrangement must be simplex or duplex, "
            f"got {normalized['arrangement']!r}"
        )
    if normalized["horizon_hours"] <= 0:
        raise ValueError("horizon_hours must be positive")
    if normalized["points"] < 2:
        raise ValueError("points must be >= 2")
    return normalized


def run_scenario(config: Dict[str, Any]) -> ScenarioResult:
    """Validate and evaluate one scenario description."""
    cfg = validate_scenario(config)
    if cfg["arrangement"] == "simplex":
        model = simplex_model(
            cfg["n"],
            cfg["k"],
            m=cfg["m"],
            seu_per_bit_day=cfg["seu_per_bit_day"],
            erasure_per_symbol_day=cfg["erasure_per_symbol_day"],
            scrub_period_seconds=cfg["scrub_period_seconds"],
        )
    else:
        model = duplex_model(
            cfg["n"],
            cfg["k"],
            m=cfg["m"],
            seu_per_bit_day=cfg["seu_per_bit_day"],
            erasure_per_symbol_day=cfg["erasure_per_symbol_day"],
            scrub_period_seconds=cfg["scrub_period_seconds"],
            fail_rule=cfg["fail_rule"],
        )
    times = np.linspace(0.0, cfg["horizon_hours"], cfg["points"])
    curve = ber_curve(model, times, label=cfg["name"])
    budget = cfg.get("ber_budget")
    return ScenarioResult(
        name=cfg["name"],
        curve=curve,
        final_ber=curve.final,
        mttf_hours=model.mean_time_to_failure(),
        budget=budget,
        meets_budget=None if budget is None else bool(curve.final <= budget),
        config=cfg,
    )


def run_scenario_file(path: str | Path) -> ScenarioResult:
    """Load a scenario (or the first of a list) from a JSON file and run it."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, list):
        raise ValueError(
            "file contains a scenario list; use run_scenario_suite"
        )
    return run_scenario(data)


def run_scenario_suite(path: str | Path) -> list[ScenarioResult]:
    """Run every scenario in a JSON list file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        data = [data]
    return [run_scenario(cfg) for cfg in data]
