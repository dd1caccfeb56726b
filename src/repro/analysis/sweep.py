"""Parameter-sweep helpers for design studies.

Utilities the examples and ablation benches share: sweep a model factory
over a parameter, find where a BER curve crosses a budget, and search the
largest scrubbing period meeting a BER target (the design question behind
the paper's Fig. 7 discussion).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..memory import BERCurve, MemoryMarkovModel, ber_curve, duplex_model


def sweep_parameter(
    factory: Callable[[float], MemoryMarkovModel],
    values: Sequence[float],
    times_hours: Sequence[float],
    method: str = "auto",
    label_fn: Callable[[float], str] | None = None,
) -> List[BERCurve]:
    """Evaluate BER(t) for a model built at each parameter value."""
    if label_fn is None:
        label_fn = lambda v: f"{v:.3E}"  # noqa: E731 - tiny adapter
    return [
        ber_curve(factory(v), times_hours, method=method, label=label_fn(v))
        for v in values
    ]


def time_to_ber_budget(curve: BERCurve, budget: float) -> float:
    """First grid time (hours) at which BER exceeds ``budget``.

    Returns ``inf`` when the curve stays within budget — useful for
    "how long can data sit in this memory" sizing questions.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    over = np.nonzero(curve.ber > budget)[0]
    if len(over) == 0:
        return float("inf")
    return float(curve.times_hours[over[0]])


#: The scrubbing periods :func:`max_scrub_period_for_budget` sweeps by
#: default: 5 to 240 minutes, in seconds.
SCRUB_PERIODS_SECONDS = tuple(
    60.0 * step for step in (5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 240)
)


def max_scrub_period_for_budget(
    n: int,
    k: int,
    seu_per_bit_day: float,
    budget: float,
    horizon_hours: float,
    m: int = 8,
    periods_seconds: Sequence[float] = SCRUB_PERIODS_SECONDS,
    fail_rule: str = "either",
) -> float:
    """Largest swept scrubbing period keeping duplex BER within budget.

    Scans the candidate periods from longest to shortest and returns the
    first that meets the budget at the horizon; raises if none does.
    This answers the paper's Fig. 7 design question quantitatively.  An
    answer equal to the longest candidate is a lower bound: a longer
    period, had it been swept, might meet the budget too.
    """
    for period in sorted(periods_seconds, reverse=True):
        model = duplex_model(
            n,
            k,
            m=m,
            seu_per_bit_day=seu_per_bit_day,
            scrub_period_seconds=period,
            fail_rule=fail_rule,
        )
        final = ber_curve(model, [horizon_hours], method="uniformization").final
        if final <= budget:
            return period
    raise ValueError(
        f"no swept scrubbing period meets BER budget {budget:g} "
        f"at {horizon_hours} h"
    )


def feasible_scrub_window(
    n: int,
    k: int,
    num_words: int,
    seu_per_bit_day: float,
    ber_budget: float,
    availability_target: float,
    horizon_hours: float,
    m: int = 8,
    clock_hz: float = 50e6,
) -> tuple[float, float]:
    """The scrubbing periods satisfying *both* constraints of the design.

    Fig. 7 pushes Tsc *down* (BER budget); the Section 2 availability cost
    pushes it *up*.  Returns ``(min_period_s, max_period_s)`` — the
    feasible window — or raises ValueError when the constraints conflict
    (the memory is too large or the budget too tight for this controller).
    """
    from ..memory.overhead import min_scrub_period_for_availability

    max_period = max_scrub_period_for_budget(
        n,
        k,
        seu_per_bit_day=seu_per_bit_day,
        budget=ber_budget,
        horizon_hours=horizon_hours,
        m=m,
    )
    min_period = min_scrub_period_for_availability(
        n,
        k,
        num_words=num_words,
        availability_target=availability_target,
        m=m,
        clock_hz=clock_hz,
    )
    if min_period > max_period:
        raise ValueError(
            f"infeasible: availability needs Tsc >= {min_period:.0f}s but "
            f"the BER budget needs Tsc <= {max_period:.0f}s"
        )
    return (min_period, max_period)
