"""Seeded, deterministic case generators for the verification subsystem.

Every generator takes a :class:`numpy.random.Generator` and produces a
*plain JSON-serializable dict* — a "case".  Cases are the unit of
fuzzing: the harness derives one rng per ``(seed, trial)`` pair via
:func:`case_rng`, so the trial sequence of a fuzz run is a pure function
of its seed, and any case can be embedded verbatim in a failure artifact
and replayed later.

Codec cases stratify the error/erasure mix against the paper's
capability bound ``2·re + er <= n − k``:

* ``"clean"`` — no corruption at all (fast-path coverage);
* ``"below"`` — strictly inside capability;
* ``"at"`` — exactly on the bound, the regime where implementations
  historically diverge.  Note the odd-``n−k`` subtlety: with an odd
  erasure budget a pure-error pattern can spend at most ``n−k−1`` of
  it (``2·re`` is even), so every *exactly-at* pattern for odd ``n−k``
  necessarily contains at least one erasure — the generator guarantees
  this rather than silently rounding the budget;
* ``"beyond"`` — one to three units past the bound, including
  over-erased words (``er > n − k``) that must be rejected before the
  syndrome stage;
* ``"erasure-only"`` — ``re = 0`` with up to the full ``n − k``
  erasures (exercises the erasure-locator path alone).

CTMC cases are random well-formed chains: sparse nonnegative rates,
deliberately including zero-rate (absorbing) rows and occasionally a
fully frozen chain — the ``L = 0`` uniformization edge case.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..markov.chain import CTMC
from ..rs.codec import RSCode

#: Domain-separation prefix for all verify rng streams (so a verify seed
#: can never collide with a Monte-Carlo campaign seed stream).
VERIFY_STREAM = 0x5652_4659  # "VRFY"

#: Capacity strata recognised by :func:`gen_codec_case`.
CAPACITY_STRATA = ("clean", "below", "at", "beyond", "erasure-only")

#: Small codes the exhaustive-oracle targets can afford (``q^k`` bounded;
#: odd and even ``n − k`` both represented).
TINY_CONFIGS: Tuple[Tuple[int, int, int], ...] = (
    (7, 3, 3),   # nsym 4, t 2, codebook 512
    (7, 4, 3),   # nsym 3 (odd), t 1, codebook 4096
    (6, 3, 3),   # nsym 3 (odd), t 1, codebook 512
    (6, 2, 3),   # nsym 4, t 2, codebook 64
    (5, 3, 3),   # nsym 2, t 1, codebook 512
    (15, 3, 4),  # nsym 12, t 6, codebook 4096
)

#: Larger codes for solver-parity and batch/scalar differential targets,
#: including the paper's RS(18,16) / RS(36,16) and an odd-nsym config.
FULL_CONFIGS: Tuple[Tuple[int, int, int], ...] = (
    (7, 3, 3),
    (15, 9, 4),
    (18, 16, 8),
    (21, 16, 8),  # nsym 5 (odd)
    (31, 25, 5),
    (36, 16, 8),
)


def case_rng(seed: int, trial: int) -> np.random.Generator:
    """The deterministic rng of trial ``trial`` of a fuzz run seeded ``seed``.

    Entropy is the triple ``(VERIFY_STREAM, seed, trial)``, so the trial
    sequence is reproducible independently of how many trials ran before
    (replay does not need to fast-forward a shared stream).
    """
    return np.random.default_rng([VERIFY_STREAM, int(seed), int(trial)])


# --------------------------------------------------------------------------
# codec cases
# --------------------------------------------------------------------------


def _pick_mix(
    rng: np.random.Generator, n: int, nsym: int, stratum: str
) -> Tuple[int, int]:
    """Draw ``(re, er)`` for one stratum against budget ``nsym = n − k``.

    Always satisfies ``re + er <= n`` (positions are distinct) and, for
    ``"at"``, exactly ``2·re + er == nsym`` — for odd ``nsym`` this
    forces ``er >= 1`` because ``2·re`` can never reach an odd budget.
    """
    t = nsym // 2
    if stratum == "clean":
        return 0, 0
    if stratum == "below":
        if nsym <= 1:
            return 0, 0
        while True:
            re = int(rng.integers(0, t + 1))
            er = int(rng.integers(0, nsym - 2 * re + 1))
            if 2 * re + er < nsym:
                return re, er
    if stratum == "at":
        re = int(rng.integers(0, t + 1))
        return re, nsym - 2 * re
    if stratum == "erasure-only":
        return 0, int(rng.integers(1, nsym + 1))
    if stratum == "beyond":
        overshoot = int(rng.integers(1, 4))
        budget = nsym + overshoot
        # Mixed or erasure-heavy; cap positions at n.
        for _ in range(32):
            re = int(rng.integers(0, budget // 2 + 1))
            er = budget - 2 * re
            if er >= 0 and re + er <= n:
                return re, er
        # Fallback: pure errors one beyond capability.
        return min(t + 1, n), 0
    raise ValueError(f"unknown stratum {stratum!r}; choose from {CAPACITY_STRATA}")


def gen_codec_case(
    rng: np.random.Generator,
    configs: Sequence[Tuple[int, int, int]] = FULL_CONFIGS,
    stratum: Optional[str] = None,
) -> Dict[str, Any]:
    """One random codec case: data word + stratified error/erasure mix.

    ``erasure_magnitudes`` may contain zeros (a *benign* erasure — the
    position is flagged but happens to hold the correct symbol), which
    is a real read-out scenario the decoder must count but not correct.
    """
    n, k, m = configs[int(rng.integers(0, len(configs)))]
    if stratum is None:
        stratum = CAPACITY_STRATA[int(rng.integers(0, len(CAPACITY_STRATA)))]
    nsym = n - k
    order = 1 << m
    re, er = _pick_mix(rng, n, nsym, stratum)
    positions = rng.choice(n, size=re + er, replace=False).astype(int)
    error_positions = sorted(int(p) for p in positions[:re])
    erasure_positions = sorted(int(p) for p in positions[re:])
    error_magnitudes = [int(rng.integers(1, order)) for _ in error_positions]
    # ~1 in 5 erasures is benign (magnitude 0): flagged but uncorrupted.
    erasure_magnitudes = [
        0 if rng.random() < 0.2 else int(rng.integers(1, order))
        for _ in erasure_positions
    ]
    return {
        "kind": "codec",
        "n": n,
        "k": k,
        "m": m,
        "fcr": 1,
        "stratum": stratum,
        "data": [int(s) for s in rng.integers(0, order, size=k)],
        "error_positions": error_positions,
        "error_magnitudes": error_magnitudes,
        "erasure_positions": erasure_positions,
        "erasure_magnitudes": erasure_magnitudes,
    }


def build_codec(case: Dict[str, Any], key_solver: str = "bm") -> RSCode:
    """The scalar codec a codec case addresses."""
    return RSCode(
        case["n"], case["k"], m=case["m"], fcr=case.get("fcr", 1),
        key_solver=key_solver,
    )


def apply_corruption(
    code: RSCode, case: Dict[str, Any]
) -> Tuple[List[int], List[int]]:
    """Encode the case's data and apply its fault pattern.

    Returns ``(codeword, received)``; the erasure positions are those in
    the case (``case["erasure_positions"]``).
    """
    codeword = code.encode(case["data"])
    received = list(codeword)
    for p, mag in zip(case["error_positions"], case["error_magnitudes"]):
        received[p] ^= mag
    for p, mag in zip(case["erasure_positions"], case["erasure_magnitudes"]):
        received[p] ^= mag
    return codeword, received


def case_within_capability(case: Dict[str, Any]) -> bool:
    """Whether the case's *injected* pattern is inside ``2·re + er <= n−k``.

    Erasures with zero magnitude still occupy erasure budget (the decoder
    is told the position is unreliable), so they count toward ``er``.
    """
    re = len(case["error_positions"])
    er = len(case["erasure_positions"])
    return 2 * re + er <= case["n"] - case["k"]


# --------------------------------------------------------------------------
# CTMC cases
# --------------------------------------------------------------------------


def gen_ctmc_case(
    rng: np.random.Generator,
    max_states: int = 8,
    allow_frozen: bool = True,
) -> Dict[str, Any]:
    """One random well-formed CTMC with a transient evaluation grid.

    Structural edge cases are generated on purpose:

    * zero-rate rows (absorbing states) with probability ~0.4 per state;
    * occasionally a *fully frozen* chain (every row zero) — the
      ``L = 0`` uniformization short-circuit;
    * rates spanning five decades, so stiffness varies trial to trial;
    * both delta and spread initial distributions.
    """
    n = int(rng.integers(2, max_states + 1))
    frozen = allow_frozen and rng.random() < 0.05
    transitions: List[List[float]] = []
    if not frozen:
        density = float(rng.uniform(0.2, 0.9))
        absorbing = rng.random(n) < 0.4
        # keep at least one live row so the typical case is non-trivial
        absorbing[int(rng.integers(0, n))] = False
        for i in range(n):
            if absorbing[i]:
                continue  # zero-rate row
            for j in range(n):
                if i == j or rng.random() > density:
                    continue
                rate = float(10.0 ** rng.uniform(-3.0, 2.0))
                transitions.append([i, j, rate])
    if rng.random() < 0.5:
        initial: Any = int(rng.integers(0, n))
    else:
        w = rng.random(n) + 1e-3
        probs = w / w.sum()
        initial = [float(p) for p in probs]
    horizon = float(10.0 ** rng.uniform(-2.0, 1.0))
    n_times = int(rng.integers(1, 4))
    times = sorted(float(rng.uniform(0.0, horizon)) for _ in range(n_times))
    return {
        "kind": "ctmc",
        "num_states": n,
        "transitions": transitions,
        "initial": initial,
        "times": times,
    }


def build_ctmc_from_case(case: Dict[str, Any]) -> CTMC:
    """Instantiate the :class:`CTMC` a ctmc case describes."""
    n = case["num_states"]
    initial = case["initial"]
    if isinstance(initial, list):
        weights = np.asarray(initial, dtype=float)
        # renormalize exactly: JSON round-tripping may perturb the sum
        weights = weights / weights.sum()
        init: Any = {i: float(p) for i, p in enumerate(weights)}
    else:
        init = int(initial)
    return CTMC(
        states=range(n),
        transitions=[(int(i), int(j), float(r)) for i, j, r in case["transitions"]],
        initial=init,
    )


# --------------------------------------------------------------------------
# memory / scrub-mission parameter cases
# --------------------------------------------------------------------------

#: (n, k) pairs for memory-model cases (m fixed at 8 as in the paper).
MEMORY_CODES: Tuple[Tuple[int, int], ...] = ((18, 16), (12, 8), (36, 16))


def gen_memory_case(
    rng: np.random.Generator,
    pure_regime: bool = True,
    with_scrub: bool = False,
) -> Dict[str, Any]:
    """One memory-system parameter set (arrangement, code, rates, horizon).

    ``pure_regime=True`` keeps exactly one fault class active (the
    closed-form solvers' validity domain); otherwise both rates may be
    nonzero.  ``with_scrub`` draws a finite scrub period.
    """
    n, k = MEMORY_CODES[int(rng.integers(0, len(MEMORY_CODES)))]
    arrangement = "simplex" if rng.random() < 0.5 else "duplex"
    seu = float(10.0 ** rng.uniform(-6.0, -2.5))
    perm = float(10.0 ** rng.uniform(-6.0, -2.5))
    if pure_regime:
        if rng.random() < 0.5:
            perm = 0.0
        else:
            seu = 0.0
    scrub = None
    if with_scrub:
        scrub = float(10.0 ** rng.uniform(2.0, 4.5))  # 100 s .. ~9 h
    horizon = float(rng.uniform(1.0, 48.0))
    n_times = int(rng.integers(1, 4))
    times = sorted(float(rng.uniform(0.1, horizon)) for _ in range(n_times))
    return {
        "kind": "memory",
        "arrangement": arrangement,
        "n": n,
        "k": k,
        "m": 8,
        "seu_per_bit_day": seu,
        "erasure_per_symbol_day": perm,
        "scrub_period_seconds": scrub,
        "times_hours": times,
    }


def gen_mc_case(rng: np.random.Generator) -> Dict[str, Any]:
    """One analytic-vs-Monte-Carlo comparison case.

    Rates are drawn so the failure probability lands in the MC-visible
    window (roughly 0.02 .. 0.7 at the drawn horizon) — outside it a few
    hundred trials cannot falsify anything.
    """
    arrangement = "simplex" if rng.random() < 0.5 else "duplex"
    # per-day SEU rate in a band that makes RS(18,16) failures visible
    lam_day = float(10.0 ** rng.uniform(-3.3, -2.4))
    return {
        "kind": "mc",
        "arrangement": arrangement,
        "n": 18,
        "k": 16,
        "m": 8,
        "seu_per_bit_day": lam_day,
        "t_end_hours": 48.0,
        "trials": 400,
        "mc_seed": int(rng.integers(0, 2**31 - 1)),
    }


def gen_scenario_parity_case(rng: np.random.Generator) -> Dict[str, Any]:
    """One scenario-vs-analytic parity case.

    Draws a random *i.i.d.-reducible* fault-pattern spec (a transient
    mixture of ``1BIT`` and ``1SYM`` terms — the only shapes whose law
    the symbol-level chains can see) and, half the time, a two-segment
    quiet/flare rate schedule.  Scheduled cases pull the rate band down
    a notch so the extra flare fluence keeps the failure probability
    inside the MC-visible window.
    """
    arrangement = "simplex" if rng.random() < 0.5 else "duplex"
    if rng.random() < 0.5:
        pattern = "1BIT" if rng.random() < 0.5 else "1SYM"
    else:
        w = round(float(rng.uniform(0.2, 0.8)), 2)
        pattern = f"{w!r}*1BIT+{round(1.0 - w, 2)!r}*1SYM"
    schedule: Optional[str] = None
    if rng.random() < 0.5:
        quiet = round(float(rng.uniform(24.0, 42.0)), 1)
        flare = round(float(rng.uniform(2.0, 8.0)), 1)
        factor = round(float(rng.uniform(2.0, 8.0)), 1)
        schedule = f"{quiet!r}h@1.0,{flare!r}h@{factor!r}"
        lam_day = float(10.0 ** rng.uniform(-3.3, -2.7))
    else:
        lam_day = float(10.0 ** rng.uniform(-3.3, -2.4))
    return {
        "kind": "scenario-parity",
        "arrangement": arrangement,
        "n": 18,
        "k": 16,
        "m": 8,
        "seu_per_bit_day": lam_day,
        "pattern": pattern,
        "schedule": schedule,
        "t_end_hours": 48.0,
        "trials": 400,
        "mc_seed": int(rng.integers(0, 2**31 - 1)),
    }


#: Codes of the ``mc-replay-scalar`` target: the paper's RS(18,16), a
#: small field, and RS(7,3), whose 21 cells make repeated stuck-ats of
#: one cell and ``n - k`` located symbols common.
REPLAY_CODES = ((18, 16, 8), (15, 9, 4), (7, 3, 3))

#: Transient processes of the ``mc-replay-scalar`` target: the i.i.d.
#: tables, a mixed pattern, a pattern with a permanent (``!``) term, and
#: a pattern under a rate schedule (``{t}`` is filled with the horizon).
REPLAY_TRANSIENTS = {
    "iid": (None, None),
    "mixed": ("0.6*1BIT+0.3*MBU:3+0.1*ROW", None),
    "permanent": ("0.7*1BIT+0.3*MBU:2!", None),
    "scheduled": ("0.8*1BIT+0.2*COL:3", "{quiet}h@1.0,{flare}h@4.0"),
}


def gen_mc_replay_case(rng: np.random.Generator) -> Dict[str, Any]:
    """One chunk for the batch-replay vs scalar-replay comparison.

    Rates give each module a few transient and permanent events per
    trial, so words fail, scrubs find work, and cells get stuck twice.
    ``snap`` moves every other event of a scrubbed trial onto the
    instant of the next scrub, where the order of a fault and a scrub
    that share an instant decides the outcome.  ``task_blocks`` lists
    ``[seed, trials]`` of one or two more seed blocks that run after the
    case's own block in one multi-block task.
    """
    n, k, m = REPLAY_CODES[int(rng.integers(len(REPLAY_CODES)))]
    t_end = float(rng.choice([12.0, 24.0, 48.0]))
    scrub = str(rng.choice(["none", "periodic", "exponential"]))
    transients = str(rng.choice(sorted(REPLAY_TRANSIENTS)))
    pattern, schedule = REPLAY_TRANSIENTS[transients]
    if schedule is not None:
        schedule = schedule.format(quiet=0.75 * t_end, flare=0.25 * t_end)
    seu_events = float(rng.choice([0.5, 1.5, 3.0]))
    perm_events = float(rng.choice([0.0, 0.5, 1.5, 3.0]))
    return {
        "kind": "mc-replay",
        "arrangement": "simplex" if rng.random() < 0.5 else "duplex",
        "n": n,
        "k": k,
        "m": m,
        "t_end_hours": t_end,
        "seu_per_bit": seu_events / (n * m * t_end),
        "erasure_per_symbol": perm_events / (n * t_end),
        "scrub_period": None
        if scrub == "none"
        else t_end / float(rng.choice([2, 4, 8])),
        "scrub_exponential": scrub == "exponential",
        "pattern": pattern,
        "schedule": schedule,
        "snap": scrub != "none" and bool(rng.random() < 0.5),
        "trials": int(rng.integers(20, 61)),
        "seed": int(rng.integers(0, 2**31 - 1)),
        "task_blocks": [
            [int(rng.integers(0, 2**31 - 1)), int(rng.integers(1, 21))]
            for _ in range(int(rng.integers(1, 3)))
        ],
    }


#: Shape tokens of the ``pattern-draw`` target; ``{size}`` is filled
#: with a size that may run past the word (``None`` keeps the default).
PATTERN_DRAW_TOKENS = ("1BIT", "{size}SYM", "MBU{size}", "ROW{size}", "COL{size}")


def _pattern_draw_token(rng: np.random.Generator, template: str, n: int, m: int) -> str:
    if template == "1BIT":
        token = template
    elif template == "{size}SYM":
        token = template.format(size=int(rng.integers(1, n + 3)))
    else:
        cells = n * m if template.startswith("MBU") else n
        size = None if rng.random() < 0.3 else int(rng.integers(1, cells + 4))
        token = template.format(size="" if size is None else f":{size}")
    return token + ("!" if rng.random() < 0.5 else "")


def gen_pattern_draw_case(rng: np.random.Generator) -> Dict[str, Any]:
    """One chunk draw for the batched-vs-per-trial pattern draw comparison.

    A mixture of one to four random shape tokens (every token, with and
    without ``!``, default sizes and sizes past the word) at random
    weights; half the time under a schedule of two to four legs, one of
    them at factor 0, that repeats two to six times over the horizon.
    The transient rate gives 0.1 to 5 expected arrivals per module and
    trial; ``odd_draw`` draws one scalar integer before the chunk, so
    the chunk starts with a buffered 32-bit half.
    """
    n, k, m = REPLAY_CODES[int(rng.integers(len(REPLAY_CODES)))]
    t_end = float(rng.choice([12.0, 24.0, 48.0]))
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        template = PATTERN_DRAW_TOKENS[int(rng.integers(len(PATTERN_DRAW_TOKENS)))]
        weight = round(float(rng.uniform(0.05, 3.0)), 3)
        terms.append(f"{weight!r}*{_pattern_draw_token(rng, template, n, m)}")
    schedule: Optional[str] = None
    area = t_end
    if rng.random() < 0.5:
        legs = int(rng.integers(2, 5))
        cycles = int(rng.integers(2, 7))
        durations = rng.dirichlet(np.ones(legs)) * (t_end / cycles)
        factors = np.round(rng.uniform(0.5, 8.0, size=legs), 2)
        factors[int(rng.integers(legs))] = 0.0
        schedule = ",".join(
            f"{float(d)!r}h@{float(f)!r}" for d, f in zip(durations, factors)
        )
        area = cycles * float(durations @ factors)
    arrivals = float(rng.uniform(0.1, 5.0))
    return {
        "kind": "pattern-draw",
        "arrangement": "simplex" if rng.random() < 0.5 else "duplex",
        "n": n,
        "k": k,
        "m": m,
        "t_end_hours": t_end,
        "pattern": "+".join(terms),
        "schedule": schedule,
        "seu_per_bit": arrivals / (n * m * area),
        "erasure_per_symbol": float(rng.choice([0.0, 0.5, 2.0])) / (n * t_end),
        "scrub_period": None if rng.random() < 0.5 else t_end / 4,
        "trials": int(rng.integers(1, 601)),
        "seed": int(rng.integers(0, 2**31 - 1)),
        "odd_draw": bool(rng.random() < 0.5),
    }
