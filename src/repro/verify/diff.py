"""Pluggable differential-testing targets.

A :class:`Target` bundles everything the fuzz harness needs to drive one
pair (or panel) of independent implementations against each other:

* ``generate(rng)`` — draw one JSON-serializable case;
* ``check(case)`` — run every implementation on the case and return a
  :class:`Mismatch` (structured report) or ``None``;
* ``shrink(case)`` — propose strictly smaller candidate cases for the
  harness's greedy minimizer;
* ``induced_check(case)`` — a deliberately buggy check used by
  ``--induce-bug`` self-test runs, so the *harness machinery itself*
  (detection → shrinking → artifact → replay) is verifiable end to end
  without planting a real bug.

Registered targets (see :func:`all_targets`) span four layers:

========================  =======================  ==========================================
target                    layers                   compares
========================  =======================  ==========================================
``gf-mul``                gf                       table-driven scalar & batch multiply vs
                                                   quadratic carry-less reference
``rs-decode``             gf, rs                   scalar errors-and-erasures decoder vs
                                                   exhaustive minimum-distance oracle
                                                   (+ syndrome-table oracle where feasible)
``rs-solver-parity``      rs                       Berlekamp-Massey vs Euclid key solvers
``rs-batch-scalar``       gf, rs                   batch codec vs scalar codec, word for word
``markov-transient``      markov                   uniformization vs expm vs Taylor oracle,
                                                   and the uniformization grid pass vs
                                                   per-time calls and a column subset vs
                                                   the full solution's columns, exactly
``memory-analytic``       memory, markov           closed-form fail probability vs CTMC,
                                                   and (duplex) the frontier-built chain
                                                   vs the per-state build, exactly
``memory-mc-ber``         memory, simulator        analytic model vs batched Monte-Carlo
                                                   within a 5-sigma Wilson interval
``journal-roundtrip``     runtime, simulator       random single-point corruption of a v3
                                                   checkpoint journal: doctor-repair or
                                                   direct resume must converge to the
                                                   bit-identical campaign estimate
``mc-streaming-vs-final`` stats, simulator         streaming BER snapshots vs the one-shot
                                                   final estimate, and the adaptive
                                                   early-stop prefix vs a literal
                                                   recomputation of the stopping rule
``mc-replay-scalar``      simulator, rs            batch chunk engine vs trial-by-trial
                                                   SimplexSystem/DuplexSystem replay of the
                                                   same events: final words, erasure sets,
                                                   outcomes, exactly; per-block counts of
                                                   a multi-block task vs each block's tally
``pattern-draw``          simulator                batched pattern draws (PCG64 words
                                                   replayed) vs the per-trial Generator
                                                   loop: event tables, data and scrub
                                                   tables, generator state, exactly
``scenario-analytic-parity`` memory, simulator     random i.i.d.-reducible fault-pattern
                                                   mixtures (optionally rate-scheduled) vs
                                                   the campaign's analytic bridge within a
                                                   5-sigma Wilson interval, plus the
                                                   miscorrection/unreadable split invariant
========================  =======================  ==========================================
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import generators as gen
from . import oracles

Case = Dict[str, Any]


@dataclass(frozen=True)
class Mismatch:
    """A structured report of one differential disagreement."""

    description: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"description": self.description, "detail": _plain(self.detail)}


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays into JSON-serializable builtins."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass(frozen=True)
class Target:
    """One registered differential target."""

    name: str
    layers: Tuple[str, ...]
    description: str
    generate: Callable[[np.random.Generator], Case]
    check: Callable[[Case], Optional[Mismatch]]
    shrink: Callable[[Case], Iterator[Case]]
    induced_check: Callable[[Case], Optional[Mismatch]]


_REGISTRY: Dict[str, Target] = {}


def register_target(target: Target) -> Target:
    """Register a target; duplicate names are programming errors."""
    if target.name in _REGISTRY:
        raise ValueError(f"target {target.name!r} already registered")
    _REGISTRY[target.name] = target
    return target


def get_target(name: str) -> Target:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def all_targets() -> List[Target]:
    """Every registered target, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# --------------------------------------------------------------------------
# shrinking helpers
# --------------------------------------------------------------------------


def _shrink_int(value: int) -> Iterator[int]:
    """Candidate smaller values for an integer (toward 0)."""
    if value > 0:
        yield 0
        if value > 1:
            yield value // 2
            yield value - 1


def _shrink_codec_case(case: Case) -> Iterator[Case]:
    """Strictly-smaller variants of a codec case.

    Order matters: dropping whole fault positions first (the biggest
    structural simplification), then zeroing data symbols, then
    shrinking magnitudes bit by bit — greedy descent then finds a
    near-minimal failing pattern in few checks.
    """
    for key in ("error", "erasure"):
        positions = case[f"{key}_positions"]
        for i in range(len(positions)):
            smaller = dict(case)
            smaller[f"{key}_positions"] = (
                positions[:i] + positions[i + 1 :]
            )
            mags = case[f"{key}_magnitudes"]
            smaller[f"{key}_magnitudes"] = mags[:i] + mags[i + 1 :]
            yield smaller
    data = case["data"]
    for i, sym in enumerate(data):
        if sym != 0:
            smaller = dict(case)
            smaller["data"] = data[:i] + [0] + data[i + 1 :]
            yield smaller
    for key in ("error_magnitudes", "erasure_magnitudes"):
        mags = case[key]
        for i, mag in enumerate(mags):
            if mag > 1:
                smaller = dict(case)
                smaller[key] = mags[:i] + [mag >> 1] + mags[i + 1 :]
                yield smaller


def _shrink_pairs_case(case: Case) -> Iterator[Case]:
    """Shrink a gf pair-list case: drop pairs, then halve operand values."""
    pairs = case["pairs"]
    for i in range(len(pairs)):
        if len(pairs) > 1:
            yield {**case, "pairs": pairs[:i] + pairs[i + 1 :]}
    for i, (a, b) in enumerate(pairs):
        for sa in _shrink_int(a):
            yield {**case, "pairs": pairs[:i] + [[sa, b]] + pairs[i + 1 :]}
        for sb in _shrink_int(b):
            yield {**case, "pairs": pairs[:i] + [[a, sb]] + pairs[i + 1 :]}


def _shrink_ctmc_case(case: Case) -> Iterator[Case]:
    """Shrink a ctmc case: drop transitions, then drop time points."""
    transitions = case["transitions"]
    for i in range(len(transitions)):
        yield {
            **case,
            "transitions": transitions[:i] + transitions[i + 1 :],
        }
    times = case["times"]
    for i in range(len(times)):
        if len(times) > 1:
            yield {**case, "times": times[:i] + times[i + 1 :]}


def _no_shrink(_case: Case) -> Iterator[Case]:
    return iter(())


# --------------------------------------------------------------------------
# induced-bug predicates (harness self-test mode)
# --------------------------------------------------------------------------


def _induced_codec_bug(case: Case) -> Optional[Mismatch]:
    """Artificial bug: "fails" whenever any injected error magnitude is odd.

    Monotone under the codec shrinker (dropping other faults keeps one
    odd magnitude failing; halving eventually reaches magnitude 1, which
    is odd), so greedy shrinking provably converges to a single-error
    repro — exactly what the self-test asserts.
    """
    odd = [m for m in case.get("error_magnitudes", []) if m % 2 == 1]
    if odd:
        return Mismatch(
            "induced bug: odd error magnitude present",
            {"odd_magnitudes": odd},
        )
    return None


def _induced_pairs_bug(case: Case) -> Optional[Mismatch]:
    """Artificial bug for gf cases: fails while any operand pair is nonzero."""
    nonzero = [p for p in case.get("pairs", []) if p[0] or p[1]]
    if nonzero:
        return Mismatch(
            "induced bug: nonzero operand pair present",
            {"nonzero_pairs": nonzero[:4]},
        )
    return None


def _induced_ctmc_bug(case: Case) -> Optional[Mismatch]:
    """Artificial bug for ctmc cases: fails while any transition remains."""
    if case.get("transitions"):
        return Mismatch(
            "induced bug: chain has transitions",
            {"num_transitions": len(case["transitions"])},
        )
    return None


def _induced_generic_bug(case: Case) -> Optional[Mismatch]:
    return Mismatch("induced bug: unconditional", {})


# --------------------------------------------------------------------------
# gf layer
# --------------------------------------------------------------------------

_GF_WIDTHS = (3, 4, 5, 8)


def _gen_gf_case(rng: np.random.Generator) -> Case:
    m = _GF_WIDTHS[int(rng.integers(0, len(_GF_WIDTHS)))]
    order = 1 << m
    count = int(rng.integers(1, 33))
    pairs = [
        [int(a), int(b)]
        for a, b in rng.integers(0, order, size=(count, 2))
    ]
    return {"kind": "gf", "m": m, "pairs": pairs}


def _check_gf_mul(case: Case) -> Optional[Mismatch]:
    from ..gf import GF2m
    from ..gf.batch import batch_field

    m = case["m"]
    gf = GF2m(m)
    bgf = batch_field(m)
    refs = [
        oracles.gf_mul_reference(m, a, b, gf.prim_poly)
        for a, b in case["pairs"]
    ]
    for (a, b), ref in zip(case["pairs"], refs):
        got = gf.mul(a, b)
        if got != ref:
            return Mismatch(
                "scalar GF2m.mul disagrees with carry-less reference",
                {"m": m, "a": a, "b": b, "got": got, "expected": ref},
            )
        # division must invert multiplication (checked against the
        # reference product so a shared mul/div table bug cannot cancel)
        if b != 0 and gf.div(ref, b) != a:
            return Mismatch(
                "GF2m.div does not invert the reference product",
                {"m": m, "a": a, "b": b, "product": ref},
            )
    arr = np.asarray(case["pairs"], dtype=np.int64)
    got_batch = bgf.mul(arr[:, 0], arr[:, 1])
    if got_batch.tolist() != refs:
        bad = int(np.nonzero(got_batch != np.asarray(refs))[0][0])
        return Mismatch(
            "BatchGF.mul disagrees with carry-less reference",
            {
                "m": m,
                "pair": case["pairs"][bad],
                "got": int(got_batch[bad]),
                "expected": refs[bad],
            },
        )
    return None


# --------------------------------------------------------------------------
# rs layer
# --------------------------------------------------------------------------


def _decode_or_none(code, received, erasures):
    from ..rs import RSDecodingError

    try:
        result = code.decode(received, erasure_positions=erasures)
        return result, None
    except RSDecodingError as exc:
        return None, str(exc)


def _gen_rs_decode_case(rng: np.random.Generator) -> Case:
    return gen.gen_codec_case(rng, configs=gen.TINY_CONFIGS)


def _check_rs_decode(case: Case) -> Optional[Mismatch]:
    """Scalar decoder vs exhaustive minimum-distance oracle (tiny codes).

    The oracle is definitive: a codeword within the bounded-distance
    sphere exists iff decoding must succeed, and by MDS uniqueness any
    success must return exactly that codeword (even for beyond-capacity
    inputs where the decoder "mis-corrects" — the mis-correction target
    is lawful, and the oracle knows which word it is).
    """
    code = gen.build_codec(case)
    codeword, received = gen.apply_corruption(code, case)
    erasures = case["erasure_positions"]
    result, error = _decode_or_none(code, received, erasures)
    oracle_word, oracle_errors = oracles.exhaustive_decode(
        code, received, erasures
    )
    if result is None and oracle_word is not None:
        return Mismatch(
            "decoder rejected a word with a codeword inside the "
            "bounded-distance sphere",
            {
                "decoder_error": error,
                "oracle_codeword": oracle_word,
                "oracle_num_errors": oracle_errors,
                "received": received,
            },
        )
    if result is not None:
        if oracle_word is None:
            return Mismatch(
                "decoder accepted a word with no codeword inside the "
                "bounded-distance sphere",
                {"decoded": result.codeword, "received": received},
            )
        if result.codeword != oracle_word:
            return Mismatch(
                "decoder and minimum-distance oracle corrected to "
                "different codewords",
                {"decoded": result.codeword, "oracle": oracle_word},
            )
    # Where the textbook syndrome-table oracle is affordable and the
    # pattern is error-only, it must agree too (independent third vote).
    if not erasures:
        try:
            table_word = oracles.syndrome_table_decode(code, received)
        except ValueError:
            table_word = None  # table too large for this config
        else:
            decoded = result.codeword if result is not None else None
            if table_word != decoded:
                return Mismatch(
                    "syndrome-table oracle disagrees with decoder",
                    {"table": table_word, "decoded": decoded},
                )
    return None


def _gen_rs_parity_case(rng: np.random.Generator) -> Case:
    return gen.gen_codec_case(rng, configs=gen.FULL_CONFIGS)


def _check_rs_solver_parity(case: Case) -> Optional[Mismatch]:
    """Berlekamp-Massey vs Euclid: identical success flags and words.

    Inside capability this is a theorem (both solve the same key
    equation).  Beyond capability both decoders still run their full
    verification chain (degree, Chien root count, post-syndromes), and
    empirically agree pattern-for-pattern; a divergence here is either a
    solver bug or a genuinely interesting boundary pattern — both worth
    an artifact.
    """
    bm_code = gen.build_codec(case, key_solver="bm")
    eu_code = gen.build_codec(case, key_solver="euclid")
    _codeword, received = gen.apply_corruption(bm_code, case)
    erasures = case["erasure_positions"]
    bm_result, bm_error = _decode_or_none(bm_code, received, erasures)
    eu_result, eu_error = _decode_or_none(eu_code, received, erasures)
    if (bm_result is None) != (eu_result is None):
        return Mismatch(
            "BM and Euclid disagree on decodability",
            {
                "bm": "failed: " + bm_error if bm_result is None else "decoded",
                "euclid": (
                    "failed: " + eu_error if eu_result is None else "decoded"
                ),
                "received": received,
            },
        )
    if bm_result is not None and bm_result.codeword != eu_result.codeword:
        return Mismatch(
            "BM and Euclid corrected to different codewords",
            {"bm": bm_result.codeword, "euclid": eu_result.codeword},
        )
    if bm_result is not None and (
        bm_result.num_errors != eu_result.num_errors
        or bm_result.error_positions != eu_result.error_positions
    ):
        return Mismatch(
            "BM and Euclid report different correction metadata",
            {
                "bm": [bm_result.num_errors, bm_result.error_positions],
                "euclid": [eu_result.num_errors, eu_result.error_positions],
            },
        )
    return None


def _gen_rs_batch_case(rng: np.random.Generator) -> Case:
    """A small batch of codec cases sharing one configuration."""
    first = gen.gen_codec_case(rng, configs=gen.FULL_CONFIGS)
    n, k, m = first["n"], first["k"], first["m"]
    words = [first]
    for _ in range(int(rng.integers(0, 5))):
        words.append(
            gen.gen_codec_case(rng, configs=[(n, k, m)])
        )
    return {"kind": "codec-batch", "n": n, "k": k, "m": m, "words": words}


def _check_rs_batch_scalar(case: Case) -> Optional[Mismatch]:
    """Batch codec vs scalar codec, word for word, across all strata."""
    from ..rs import BatchRSCodec, RSDecodingError

    scalar = gen.build_codec(case["words"][0])
    batch = BatchRSCodec(case["n"], case["k"], m=case["m"], scalar=scalar)
    encoded_scalar = [scalar.encode(w["data"]) for w in case["words"]]
    encoded_batch = batch.encode_batch([w["data"] for w in case["words"]])
    for i, (row, expected) in enumerate(zip(encoded_batch, encoded_scalar)):
        if row.tolist() != expected:
            return Mismatch(
                "encode_batch row differs from scalar encode",
                {"index": i, "batch": row.tolist(), "scalar": expected},
            )
    received, erasures = [], []
    for word_case in case["words"]:
        _cw, rec = gen.apply_corruption(scalar, word_case)
        received.append(rec)
        erasures.append(word_case["erasure_positions"])
    report = batch.decode_batch(np.asarray(received), erasures)
    for i, rec in enumerate(received):
        expected, error = _decode_or_none(scalar, rec, erasures[i])
        outcome = report[i]
        if isinstance(outcome, RSDecodingError):
            if expected is not None:
                return Mismatch(
                    "batch word failed where scalar decoded",
                    {"index": i, "batch_error": str(outcome)},
                )
            if str(outcome) != error:
                return Mismatch(
                    "batch and scalar raised different messages",
                    {"index": i, "batch": str(outcome), "scalar": error},
                )
        else:
            if expected is None:
                return Mismatch(
                    "batch word decoded where scalar failed",
                    {"index": i, "scalar_error": error},
                )
            if (
                outcome.codeword != expected.codeword
                or outcome.data != expected.data
                or outcome.num_errors != expected.num_errors
                or outcome.num_erasures != expected.num_erasures
                or outcome.corrected != expected.corrected
                or outcome.error_positions != expected.error_positions
            ):
                return Mismatch(
                    "batch and scalar decode results differ",
                    {
                        "index": i,
                        "batch": outcome.codeword,
                        "scalar": expected.codeword,
                    },
                )
    return None


def _shrink_batch_case(case: Case) -> Iterator[Case]:
    words = case["words"]
    for i in range(len(words)):
        if len(words) > 1:
            yield {**case, "words": words[:i] + words[i + 1 :]}
    for i, word in enumerate(words):
        for smaller in _shrink_codec_case(word):
            yield {**case, "words": words[:i] + [smaller] + words[i + 1 :]}


def _induced_batch_bug(case: Case) -> Optional[Mismatch]:
    for word in case.get("words", []):
        mismatch = _induced_codec_bug(word)
        if mismatch is not None:
            return mismatch
    return None


# --------------------------------------------------------------------------
# markov layer
# --------------------------------------------------------------------------

#: Absolute tolerance for three-way transient agreement.  expm/Taylor
#: deliver absolute accuracy ~1e-13 on these small chains; uniformization
#: is relatively accurate, so the absolute gap is bounded by the same.
_TRANSIENT_ATOL = 1e-9

#: A ``min_terms`` past the Poisson-weight underflow term of every time
#: that does not take the large-``L·t`` fallback (the series runs for
#: ``L·t`` below ~708, whose weights underflow within ~2,000 terms), so
#: the series length is fixed in advance and the column path sums only
#: the columns it returns.
_FIXED_LENGTH_MIN_TERMS = 10_000


def _case_columns(case: Case, num_states: int) -> np.ndarray:
    """A random nonempty set of distinct state indices in random order,
    drawn from a generator seeded by the case's own JSON, so a replayed
    or shrunk case needs no extra field."""
    seed = zlib.crc32(json.dumps(case, sort_keys=True).encode())
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, num_states + 1))
    return rng.choice(num_states, size=size, replace=False)


def _check_markov_transient(case: Case) -> Optional[Mismatch]:
    """Uniformization vs scipy expm vs truncated-Taylor oracle.

    The uniformization grid pass must also equal one scalar propagation
    per time exactly: each time keeps its own weights and stopping test.
    Asked for a set of columns, it must return the full solution's
    columns exactly, on the default series (which sums every state when
    the stopping test can fire) and on a fixed-length one (which sums
    only those columns).
    """
    from ..markov.solvers import (
        transient_expm,
        transient_uniformization,
        uniformization_propagate,
    )

    chain = gen.build_ctmc_from_case(case)
    times = np.asarray(case["times"], dtype=float)
    solutions = {
        "uniformization": transient_uniformization(chain, times),
        "expm": transient_expm(chain, times),
        "taylor-oracle": oracles.transient_taylor_oracle(chain, times),
    }
    per_time = np.array(
        [
            uniformization_propagate(chain.rate_matrix, chain.p0, float(t))
            for t in times
        ]
    ).reshape(len(times), chain.num_states)
    if not np.array_equal(solutions["uniformization"], per_time):
        return Mismatch(
            "uniformization grid pass differs from per-time propagation",
            {
                "times": times,
                "max_abs_diff": float(
                    np.abs(solutions["uniformization"] - per_time).max()
                ),
            },
        )
    columns = _case_columns(case, chain.num_states)
    fixed = {"min_terms": _FIXED_LENGTH_MIN_TERMS}
    rates, p0 = chain.rate_matrix, chain.p0
    column_pairs = {
        "default": (
            transient_uniformization(chain, times, columns=columns),
            solutions["uniformization"][:, columns],
        ),
        "fixed-length": (
            uniformization_propagate(rates, p0, times, columns=columns, **fixed),
            uniformization_propagate(rates, p0, times, **fixed)[:, columns],
        ),
    }
    for series, (got, want) in column_pairs.items():
        if not np.array_equal(got, want):
            return Mismatch(
                "uniformization columns differ from the full solution's",
                {
                    "series": series,
                    "columns": columns.tolist(),
                    "times": times,
                    "max_abs_diff": float(np.abs(got - want).max()),
                },
            )
    for name, sol in solutions.items():
        row_sums = sol.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-8):
            return Mismatch(
                f"{name} transient rows do not sum to 1",
                {"solver": name, "row_sums": row_sums},
            )
        if np.any(sol < -1e-12):
            return Mismatch(
                f"{name} produced negative probabilities",
                {"solver": name, "min": float(sol.min())},
            )
    names = sorted(solutions)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = float(np.abs(solutions[a] - solutions[b]).max())
            if diff > _TRANSIENT_ATOL:
                return Mismatch(
                    f"{a} and {b} transient solutions diverge",
                    {"pair": [a, b], "max_abs_diff": diff},
                )
    return None


# --------------------------------------------------------------------------
# memory layer
# --------------------------------------------------------------------------


def _build_memory_model(case: Case):
    from ..memory import duplex_model, simplex_model

    factory = simplex_model if case["arrangement"] == "simplex" else duplex_model
    return factory(
        case["n"],
        case["k"],
        m=case["m"],
        seu_per_bit_day=case["seu_per_bit_day"],
        erasure_per_symbol_day=case["erasure_per_symbol_day"],
        scrub_period_seconds=case["scrub_period_seconds"],
    )


def _chain_arrays(chain) -> Dict[str, np.ndarray]:
    rates = chain.rate_matrix
    return {
        "states": np.fromiter(chain.states, dtype=object, count=chain.num_states),
        "p0": chain.p0,
        "indptr": rates.indptr,
        "indices": rates.indices,
        "data": rates.data,
    }


def _check_frontier_build(model) -> Optional[Mismatch]:
    """The model's frontier-built chain vs the per-state exploration."""
    from ..markov import build_chain

    frontier = _chain_arrays(model.chain)
    per_state = _chain_arrays(build_chain(model.initial_state(), model.transitions))
    differ = [
        name
        for name, array in per_state.items()
        if not np.array_equal(frontier[name], array)
    ]
    if differ:
        return Mismatch(
            "frontier-built and per-state duplex chains differ",
            {
                "arrays": differ,
                "num_states": [len(frontier["states"]), len(per_state["states"])],
            },
        )
    return None


def _gen_memory_analytic_case(rng: np.random.Generator) -> Case:
    return gen.gen_memory_case(rng, pure_regime=True, with_scrub=False)


def _check_memory_analytic(case: Case) -> Optional[Mismatch]:
    """Closed-form fail probability vs the CTMC transient solution.

    Both derivations claim full relative accuracy in their overlap, so
    the gate is a *relative* tolerance plus a deep-tail absolute floor.
    """
    from ..memory import duplex_fail_probability, simplex_fail_probability

    model = _build_memory_model(case)
    times = np.asarray(case["times_hours"], dtype=float)
    if case["arrangement"] == "simplex":
        closed = simplex_fail_probability(model, times)
    else:
        mismatch = _check_frontier_build(model)
        if mismatch is not None:
            return mismatch
        closed = duplex_fail_probability(model, times)
    chain = model.fail_probability(times, method="uniformization")
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(chain)), 1e-280)
    rel = np.abs(closed - chain) / scale
    worst = int(np.argmax(rel))
    if rel[worst] > 1e-6 and abs(closed[worst] - chain[worst]) > 1e-14:
        return Mismatch(
            "closed-form and CTMC fail probabilities diverge",
            {
                "time_hours": float(times[worst]),
                "closed_form": float(closed[worst]),
                "ctmc": float(chain[worst]),
                "relative_error": float(rel[worst]),
            },
        )
    return None


def _gen_memory_mc_case(rng: np.random.Generator) -> Case:
    return gen.gen_mc_case(rng)


#: z for the MC comparison interval: 5 sigma two-sided (~6e-7 per
#: trial), so a correct implementation false-alarms less than once per
#: thousand nightly fuzz runs while any systematic model/physics
#: divergence — which does not shrink with z — still trips reliably.
_MC_Z = 5.0


def _check_memory_mc(case: Case) -> Optional[Mismatch]:
    """Analytic chain vs the batched codec-level Monte-Carlo engine.

    The simplex chain must land inside the (4-sigma) Wilson interval of
    its own physics.  The duplex chain is *documented as conservative*
    (the paper's either-word fail rule over-counts; see EXPERIMENTS.md),
    so its one-sided contract is ``model >= ci_low`` only.
    """
    from ..rs import RSCode
    from ..simulator.montecarlo import (
        simulate_fail_probability_batched,
        wilson_interval,
    )

    model = _build_memory_model(
        {
            **case,
            "erasure_per_symbol_day": 0.0,
            "scrub_period_seconds": None,
        }
    )
    p_model = float(model.fail_probability([case["t_end_hours"]])[0])
    code = RSCode(case["n"], case["k"], m=case["m"])
    estimate = simulate_fail_probability_batched(
        case["arrangement"],
        code,
        case["t_end_hours"],
        seu_per_bit=case["seu_per_bit_day"] / 24.0,
        erasure_per_symbol=0.0,
        trials=case["trials"],
        seed=case["mc_seed"],
        chunk_size=256,
    )
    ci_low, ci_high = wilson_interval(
        estimate.failures, estimate.trials, z=_MC_Z
    )
    detail = {
        "model_probability": p_model,
        "mc_probability": estimate.probability,
        "mc_failures": estimate.failures,
        "mc_trials": estimate.trials,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "z": _MC_Z,
    }
    if case["arrangement"] == "duplex":
        if p_model < ci_low:
            return Mismatch(
                "duplex chain fell below the MC interval (the chain must "
                "be conservative, never optimistic)",
                detail,
            )
        return None
    if not ci_low <= p_model <= ci_high:
        return Mismatch(
            "simplex chain outside the MC Wilson interval", detail
        )
    return None


def _shrink_memory_mc(case: Case) -> Iterator[Case]:
    if case["trials"] > 50:
        yield {**case, "trials": case["trials"] // 2}
    if case["t_end_hours"] > 1.0:
        yield {**case, "t_end_hours": case["t_end_hours"] / 2.0}


def _gen_scenario_parity_case(rng: np.random.Generator) -> Case:
    return gen.gen_scenario_parity_case(rng)


def _check_scenario_parity(case: Case) -> Optional[Mismatch]:
    """I.i.d.-reducible scenario cells vs the analytic bridge.

    The pattern sampler's compound-Poisson law is anchored to the i.i.d.
    total arrival rate, so any transient ``1BIT``/``1SYM`` mixture —
    optionally under a piecewise rate schedule — must agree with the
    same analytic prediction the campaign layer publishes through
    :func:`repro.simulator.campaign.cell_model_probability`.  The gate
    mirrors ``memory-mc-ber``: two-sided 5-sigma Wilson for simplex,
    one-sided (``model >= ci_low``) for the documented-conservative
    duplex chain.  The check also asserts the robustness-accounting
    invariant that every failure lands in exactly one bucket:
    ``failures == silent_miscorrections + detected_uncorrectable``.
    """
    from ..rs import RSCode
    from ..simulator.campaign import CampaignCell, cell_model_probability
    from ..simulator.montecarlo import (
        simulate_fail_probability_batched,
        wilson_interval,
    )
    from ..simulator.patterns import parse_pattern

    pattern = parse_pattern(case["pattern"])
    if not pattern.iid_reducible:
        return Mismatch(
            "generator produced a non-iid-reducible pattern; the parity "
            "contract only covers in-model physics",
            {"pattern": case["pattern"]},
        )
    cell = CampaignCell(
        arrangement=case["arrangement"],
        seu_per_bit_day=case["seu_per_bit_day"],
        erasure_per_symbol_day=0.0,
        scrub_period_seconds=None,
        pattern=case["pattern"],
        schedule=case["schedule"],
    )
    p_model = cell_model_probability(
        cell, case["n"], case["k"], case["m"], case["t_end_hours"]
    )
    if p_model is None:
        return Mismatch(
            "analytic bridge declared an iid-reducible cell out of model",
            {"pattern": case["pattern"], "schedule": case["schedule"]},
        )
    code = RSCode(case["n"], case["k"], m=case["m"])
    estimate = simulate_fail_probability_batched(
        case["arrangement"],
        code,
        case["t_end_hours"],
        seu_per_bit=case["seu_per_bit_day"] / 24.0,
        erasure_per_symbol=0.0,
        trials=case["trials"],
        seed=case["mc_seed"],
        chunk_size=256,
        pattern=case["pattern"],
        schedule=case["schedule"],
    )
    detail = {
        "pattern": case["pattern"],
        "schedule": case["schedule"],
        "model_probability": p_model,
        "mc_probability": estimate.probability,
        "mc_failures": estimate.failures,
        "mc_trials": estimate.trials,
        "silent_miscorrections": estimate.silent_miscorrections,
        "detected_uncorrectable": estimate.detected_uncorrectable,
        "z": _MC_Z,
    }
    split = (estimate.silent_miscorrections or 0) + (
        estimate.detected_uncorrectable or 0
    )
    if estimate.failures != split:
        return Mismatch(
            "failure mass does not split into the two robustness buckets",
            detail,
        )
    ci_low, ci_high = wilson_interval(
        estimate.failures, estimate.trials, z=_MC_Z
    )
    detail["ci_low"] = ci_low
    detail["ci_high"] = ci_high
    if case["arrangement"] == "duplex":
        if p_model < ci_low:
            return Mismatch(
                "duplex chain fell below the scenario MC interval (the "
                "chain must be conservative, never optimistic)",
                detail,
            )
        return None
    if not ci_low <= p_model <= ci_high:
        return Mismatch(
            "simplex chain outside the scenario MC Wilson interval", detail
        )
    return None


def _shrink_scenario_parity(case: Case) -> Iterator[Case]:
    if case["trials"] > 50:
        yield {**case, "trials": case["trials"] // 2}
    if case["t_end_hours"] > 1.0:
        yield {**case, "t_end_hours": case["t_end_hours"] / 2.0}
    if case["schedule"] is not None:
        yield {**case, "schedule": None}
    if case["pattern"] != "1BIT":
        yield {**case, "pattern": "1BIT"}


def _shrink_memory_case(case: Case) -> Iterator[Case]:
    times = case["times_hours"]
    for i in range(len(times)):
        if len(times) > 1:
            yield {**case, "times_hours": times[:i] + times[i + 1 :]}


# --------------------------------------------------------------------------
# journal-roundtrip: corruption -> repair/resume -> bit-identity
# --------------------------------------------------------------------------


def _gen_journal_case(rng: np.random.Generator) -> Case:
    return {
        "trials": int(rng.integers(40, 121)),
        "chunk_size": int(rng.choice([15, 20, 25, 30])),
        "seed": int(rng.integers(0, 2**31)),
        "mode": str(rng.choice(["flip", "truncate"])),
        # Where to hit the journal, as a fraction of its length (the
        # file's byte size varies with timing digits in the payloads, so
        # the case carries a position *fraction*, not an offset).
        "offset_frac": float(rng.uniform(0.0, 1.0)),
        "xor": int(rng.integers(1, 256)),
        "repair": bool(rng.integers(0, 2)),
    }


def _check_journal_roundtrip(case: Case) -> Optional[Mismatch]:
    """Corrupt one point of a recorded journal; healing must be exact.

    The asserted property is universal — *any* single byte flip or
    truncation must leave resume (with or without a prior
    ``repair_journal``) bit-identical to the uninterrupted run and must
    never raise — so it holds regardless of the journal's exact bytes.
    """
    import tempfile
    import warnings as _warnings
    from pathlib import Path

    from ..rs import RSCode
    from ..runtime import CheckpointJournal, RuntimeConfig, repair_journal
    from ..simulator import simulate_fail_probability_batched

    code = RSCode(18, 16, m=8)
    lam = 2e-3 / 24.0

    def run(journal=None):
        runtime = RuntimeConfig(journal=journal) if journal is not None else None
        return simulate_fail_probability_batched(
            "simplex",
            code,
            48.0,
            lam,
            0.0,
            case["trials"],
            seed=case["seed"],
            chunk_size=case["chunk_size"],
            runtime=runtime,
        )

    detail: Dict[str, Any] = dict(case)
    with tempfile.TemporaryDirectory(prefix="journal-roundtrip-") as tmp:
        path = Path(tmp) / "ckpt.jsonl"
        reference = run()
        with CheckpointJournal(path) as journal:
            recorded = run(journal)
        if recorded != reference:
            return Mismatch(
                "journaled run differs from the plain run before any "
                "corruption was injected",
                detail,
            )
        blob = bytearray(path.read_bytes())
        offset = min(len(blob) - 1, int(case["offset_frac"] * len(blob)))
        detail["offset"] = offset
        detail["journal_bytes"] = len(blob)
        if case["mode"] == "flip":
            blob[offset] ^= case["xor"]
            path.write_bytes(bytes(blob))
        else:
            path.write_bytes(bytes(blob[:offset]))
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                if case["repair"]:
                    detail["repair_actions"] = repair_journal(path)
                with CheckpointJournal(path) as journal:
                    resumed = run(journal)
        except Exception as exc:  # never a traceback, whatever the damage
            return Mismatch(
                f"corrupted journal raised {type(exc).__name__} instead "
                "of healing",
                {**detail, "error": repr(exc)},
            )
        if resumed != reference:
            return Mismatch(
                "resume after corruption is not bit-identical to the "
                "uninterrupted run",
                {
                    **detail,
                    "reference_probability": reference.probability,
                    "resumed_probability": resumed.probability,
                    "reference_failures": reference.failures,
                    "resumed_failures": resumed.failures,
                },
            )
    return None


def _shrink_journal_case(case: Case) -> Iterator[Case]:
    if case["trials"] > 40:
        yield {**case, "trials": max(40, case["trials"] // 2)}
    if case["repair"]:
        yield {**case, "repair": False}
    if case["mode"] == "flip" and case["xor"] > 1:
        yield {**case, "xor": 1}


# --------------------------------------------------------------------------
# mc-streaming-vs-final: incremental snapshots vs one-shot aggregation
# --------------------------------------------------------------------------


def _gen_streaming_case(rng: np.random.Generator) -> Case:
    return {
        "arrangement": str(rng.choice(["simplex", "duplex"])),
        "trials": int(rng.integers(60, 201)),
        "chunk_size": int(rng.choice([15, 20, 25, 40])),
        "seed": int(rng.integers(0, 2**31)),
        "seu_per_bit_day": float(rng.choice([1e-3, 2e-3, 4e-3])),
        "rel_ci": float(rng.choice([0.3, 0.5, 1.0, 2.0])),
        "min_trials": int(rng.choice([0, 30, 60])),
        "method": str(rng.choice(["wilson", "jeffreys"])),
    }


def _check_mc_streaming_vs_final(case: Case) -> Optional[Mismatch]:
    """Streaming snapshots vs the final estimate, stop prefix vs a
    literal re-derivation of the stopping rule.

    Three independently-checkable contracts:

    1. the streaming trajectory is internally coherent (monotone
       cumulative counts, ``probability == failures/trials`` exactly,
       intervals reproducible from the published counts);
    2. the *last* snapshot of a full run equals the one-shot final
       estimate bit for bit;
    3. an early-stopped run returns exactly the estimate a straight-line
       scan of the per-chunk deltas predicts — recomputed here without
       :class:`~repro.stats.AdaptiveStopper`'s out-of-order frontier
       machinery, so the two stopping implementations vote.
    """
    from ..rs import RSCode
    from ..runtime import RuntimeConfig
    from ..simulator import simulate_fail_probability_batched
    from ..stats import StoppingRule, binomial_interval, relative_halfwidth

    code = RSCode(18, 16, m=8)
    lam = case["seu_per_bit_day"] / 24.0

    def run(stop=None, on_snapshot=None):
        runtime = RuntimeConfig(stop=stop, on_snapshot=on_snapshot)
        return simulate_fail_probability_batched(
            case["arrangement"],
            code,
            48.0,
            lam,
            0.0,
            case["trials"],
            seed=case["seed"],
            chunk_size=case["chunk_size"],
            runtime=runtime,
        )

    detail: Dict[str, Any] = dict(case)
    snapshots: List[Any] = []
    reference = run(on_snapshot=snapshots.append)

    # 1. trajectory coherence: one snapshot per chunk, monotone counts,
    #    exact ratio, interval reproducible from the published counts.
    if not snapshots:
        return Mismatch("full run produced no streaming snapshots", detail)
    prev_f = prev_t = 0
    deltas: List[Tuple[int, int]] = []
    for snap in snapshots:
        if snap.trials < prev_t or snap.failures < prev_f:
            return Mismatch(
                "streaming snapshot counts are not monotone",
                {**detail, "snapshot": snap.as_dict()},
            )
        expected_p = snap.failures / snap.trials if snap.trials else 0.0
        if snap.probability != expected_p:
            return Mismatch(
                "snapshot probability is not exactly failures/trials",
                {**detail, "snapshot": snap.as_dict()},
            )
        lo, hi = binomial_interval(snap.failures, snap.trials)
        if (lo, hi) != (snap.ci_low, snap.ci_high):
            return Mismatch(
                "snapshot interval not reproducible from its counts",
                {**detail, "snapshot": snap.as_dict(), "recomputed": [lo, hi]},
            )
        deltas.append((snap.failures - prev_f, snap.trials - prev_t))
        prev_f, prev_t = snap.failures, snap.trials

    # 2. last snapshot == one-shot final estimate, bit for bit.
    last = snapshots[-1]
    if (last.failures, last.trials, last.probability) != (
        reference.failures,
        reference.trials,
        reference.probability,
    ):
        return Mismatch(
            "final streaming snapshot differs from the one-shot estimate",
            {
                **detail,
                "snapshot": last.as_dict(),
                "final": [reference.failures, reference.trials],
            },
        )

    # 3. early stop == literal prefix scan of the same deltas.
    stopped = run(
        stop=StoppingRule(
            rel_ci=case["rel_ci"],
            min_trials=case["min_trials"],
            method=case["method"],
        )
    )
    cum_f = cum_t = 0
    expected_f, expected_t = reference.failures, reference.trials
    for chunk_f, chunk_t in deltas:
        cum_f += chunk_f
        cum_t += chunk_t
        if cum_t < case["min_trials"] or cum_f <= 0:
            continue
        lo, hi = binomial_interval(cum_f, cum_t, method=case["method"])
        if relative_halfwidth(cum_f, cum_t, lo, hi) <= case["rel_ci"]:
            expected_f, expected_t = cum_f, cum_t
            break
    detail["expected_failures"] = expected_f
    detail["expected_trials"] = expected_t
    if (stopped.failures, stopped.trials) != (expected_f, expected_t):
        return Mismatch(
            "adaptive stop prefix differs from the literal rule scan",
            {**detail, "got": [stopped.failures, stopped.trials]},
        )
    if stopped.probability != (
        expected_f / expected_t if expected_t else 0.0
    ):
        return Mismatch(
            "early-stopped probability is not exactly failures/trials",
            {**detail, "got": stopped.probability},
        )
    lo, hi = binomial_interval(expected_f, expected_t)
    if (lo, hi) != (stopped.ci_low, stopped.ci_high):
        return Mismatch(
            "early-stopped interval not reproducible from its counts",
            {**detail, "got": [stopped.ci_low, stopped.ci_high]},
        )
    if stopped.stopped_early != (expected_t < reference.trials):
        return Mismatch(
            "stopped_early flag inconsistent with the trials actually used",
            {**detail, "flag": stopped.stopped_early},
        )
    return None


def _shrink_streaming_case(case: Case) -> Iterator[Case]:
    if case["trials"] > 60:
        yield {**case, "trials": max(60, case["trials"] // 2)}
    if case["min_trials"]:
        yield {**case, "min_trials": 0}
    if case["method"] != "wilson":
        yield {**case, "method": "wilson"}


# --------------------------------------------------------------------------
# mc-replay-scalar: the batch chunk engine vs trial-by-trial system replay
# --------------------------------------------------------------------------


def _gen_mc_replay_case(rng: np.random.Generator) -> Case:
    return gen.gen_mc_replay_case(rng)


def _replay_draw(case: Case):
    """The case's chunk draw, with ``snap`` applied to its events."""
    from dataclasses import replace

    from ..simulator.montecarlo import draw_chunk
    from ..simulator.patterns import parse_pattern, parse_schedule

    draw = draw_chunk(
        np.random.default_rng(case["seed"]),
        case["arrangement"],
        case["n"],
        case["k"],
        case["m"],
        case["t_end_hours"],
        case["seu_per_bit"],
        case["erasure_per_symbol"],
        case["scrub_period"],
        case["scrub_exponential"],
        case["trials"],
        None if case["pattern"] is None else parse_pattern(case["pattern"]),
        parse_schedule(case["schedule"]),
    )
    if not case["snap"]:
        return draw
    times = draw.events.time.copy()
    for i in range(0, times.size, 2):
        trial = draw.events.trial[i]
        scrubs = draw.scrub_times[trial, : draw.scrub_counts[trial]]
        nxt = int(np.searchsorted(scrubs, times[i]))
        if nxt < scrubs.size:
            times[i] = scrubs[nxt]
    return replace(draw, events=draw.events._replace(time=times))


def _scalar_replay(case: Case, code, draw, trial: int, buggy: bool):
    """Replay one trial through :class:`SimplexSystem`/:class:`DuplexSystem`.

    Returns the final read words, erasure sets and the read outcome.
    ``buggy`` runs the induced bug instead: a scrub goes before the
    faults that share its instant, and a cell stuck twice keeps its
    first stuck value.
    """
    from ..simulator.arbiter import recover_erasures
    from ..simulator.faults import FaultEvent, FaultKind, event_sort_key
    from ..simulator.systems import DuplexSystem, SimplexSystem

    codeword = code.encode(draw.data[trial].tolist())
    table = draw.events
    events = [
        FaultEvent(
            float(table.time[i]),
            FaultKind.PERMANENT if table.permanent[i] else FaultKind.SEU,
            int(table.module[i]),
            int(table.symbol[i]),
            int(table.bit[i]),
            int(table.value[i]),
            int(table.mask[i]),
        )
        for i in np.flatnonzero(table.trial == trial)
    ]
    events += [
        FaultEvent(float(t), FaultKind.SCRUB)
        for t in draw.scrub_times[trial, : draw.scrub_counts[trial]]
    ]
    if buggy:
        events.sort(
            key=lambda e: (e.time, e.kind is not FaultKind.SCRUB)
            + event_sort_key(e)[1:]
        )
    else:
        events.sort(key=event_sort_key)
    if case["arrangement"] == "simplex":
        system = SimplexSystem(code, codeword=codeword)
    else:
        system = DuplexSystem(code, codeword=codeword)
    stuck: Dict[Tuple[int, int], int] = {}
    for event in events:
        if buggy and event.kind is FaultKind.PERMANENT:
            # Stick only the cells no earlier event stuck.
            if event.mask:
                cells, values = event.mask, event.stuck_value
            else:
                cells, values = 1 << event.bit, event.stuck_value << event.bit
            site = (event.module, event.symbol)
            fresh = cells & ~stuck.get(site, 0)
            stuck[site] = stuck.get(site, 0) | cells
            if not fresh:
                continue
            event = FaultEvent(
                event.time,
                event.kind,
                event.module,
                event.symbol,
                stuck_value=values & fresh,
                mask=fresh,
            )
        system.apply_event(event)
    if case["arrangement"] == "simplex":
        words = [system.word.read()]
        erasures = [system.word.located_positions]
    else:
        s1, s2, shared, _masked = recover_erasures(*system.modules)
        words, erasures = [s1, s2], [shared, shared]
    return words, erasures, system.read().value


def _check_mc_replay(case: Case, buggy: bool = False) -> Optional[Mismatch]:
    """Batch chunk engine vs a trial-by-trial replay through the systems.

    :func:`~repro.simulator.montecarlo.replay_batch` runs every trial of
    the drawn chunk; each trial's final read words, erasure sets and
    read outcome must equal those of the same events (and scrubs)
    applied one by one to a :class:`SimplexSystem`/:class:`DuplexSystem`
    in ``event_sort_key`` order.  Without ``snap`` the case's block and
    its ``task_blocks`` also run as one multi-block task through
    ``_run_injection_chunk``, which replays only the trials that have
    events, the blocks' together: each block's outcome counts must
    equal the scalar replay's tally of that block's own draw.
    """
    from ..rs import BatchRSCodec
    from ..simulator import montecarlo as mc

    draw = _replay_draw(case)
    codec = BatchRSCodec(case["n"], case["k"], m=case["m"])
    words, erasures, outcome = mc.replay_batch(
        codec,
        case["arrangement"],
        draw.data,
        draw.events,
        draw.scrub_counts,
        draw.scrub_times,
    )
    tally = {o.value: 0 for o in mc.OUTCOMES}
    for trial in range(case["trials"]):
        want_words, want_erasures, want = _scalar_replay(
            case, codec.scalar, draw, trial, buggy
        )
        got = mc.OUTCOMES[outcome[trial]].value
        got_erasures = [np.flatnonzero(e).tolist() for e in erasures[trial]]
        tally[want] += 1
        if (words[trial].tolist(), got_erasures, got) != (
            want_words, want_erasures, want
        ):
            return Mismatch(
                "batch replay differs from the scalar system replay",
                {
                    "trial": trial,
                    "batch": [words[trial].tolist(), got_erasures, got],
                    "scalar": [want_words, want_erasures, want],
                },
            )
    if case["snap"]:
        return None
    blocks = [[case["seed"], case["trials"]]] + case.get("task_blocks", [])
    tallies = [tally]
    for seed, trials in blocks[1:]:
        block_case = {**case, "seed": seed, "trials": trials}
        block_draw = _replay_draw(block_case)
        block_tally = {o.value: 0 for o in mc.OUTCOMES}
        for trial in range(trials):
            block_tally[
                _scalar_replay(block_case, codec.scalar, block_draw, trial, buggy)[2]
            ] += 1
        tallies.append(block_tally)
    task = mc.TaskSpec(
        case["arrangement"],
        case["n"],
        case["k"],
        case["m"],
        1,
        case["t_end_hours"],
        case["seu_per_bit"],
        case["erasure_per_symbol"],
        case["scrub_period"],
        case["scrub_exponential"],
        case["pattern"],
        case["schedule"],
        blocks=tuple(
            (index, trials, np.random.SeedSequence(seed))
            for index, (seed, trials) in enumerate(blocks)
        ),
    )
    for index, (result, want_tally) in enumerate(
        zip(mc._run_injection_chunk(task), tallies)
    ):
        if result["counts"] != want_tally:
            return Mismatch(
                "task block outcome counts differ from the scalar replay's "
                "tally of the block's own draw",
                {"block": index, "task": result["counts"], "scalar": want_tally},
            )
    return None


def _induced_mc_replay_bug(case: Case) -> Optional[Mismatch]:
    return _check_mc_replay(case, buggy=True)


def _shrink_mc_replay(case: Case) -> Iterator[Case]:
    if case.get("task_blocks"):
        yield {**case, "task_blocks": case["task_blocks"][:-1]}
    if case["trials"] > 1:
        yield {**case, "trials": case["trials"] // 2}
        yield {**case, "trials": case["trials"] - 1}


# --------------------------------------------------------------------------
# pattern-draw: batched pattern draws vs the per-trial Generator loop
# --------------------------------------------------------------------------


def _gen_pattern_draw_case(rng: np.random.Generator) -> Case:
    return gen.gen_pattern_draw_case(rng)


def _pattern_draw_rng(case: Case) -> np.random.Generator:
    rng = np.random.default_rng(case["seed"])
    if case["odd_draw"]:
        rng.integers(0, 7)
    return rng


def _per_trial_chunk(case: Case, rng: np.random.Generator):
    """The case's chunk drawn with one ``Generator`` call per draw.

    :func:`~repro.simulator.montecarlo.draw_chunk`'s order — data, each
    module's transients, each module's permanent faults, scrubs — with
    the transients drawn on the ``Generator`` itself: Poisson counts,
    then per trial the sorted arrival times and ``expand_arrivals``.
    """
    from ..simulator import montecarlo as mc
    from ..simulator.faults import FaultKind
    from ..simulator.patterns import expand_arrivals, parse_pattern, parse_schedule

    n, k, m, t_end, trials = (
        case[key] for key in ("n", "k", "m", "t_end_hours", "trials")
    )
    pattern = parse_pattern(case["pattern"])
    schedule = parse_schedule(case["schedule"])
    modules = 2 if case["arrangement"] == "duplex" else 1
    data = rng.integers(0, 1 << m, size=(trials, k))
    expected = case["seu_per_bit"] * n * m * (
        schedule.integral(t_end) if schedule is not None else t_end
    )
    tables = []
    for module in range(modules if expected > 0 else 0):
        counts = rng.poisson(expected, size=trials)
        records = []
        for trial in np.flatnonzero(counts).tolist():
            arrivals = int(counts[trial])
            if schedule is not None:
                times = schedule.sample_times(rng, t_end, arrivals)
            else:
                times = np.sort(rng.uniform(0.0, t_end, size=arrivals))
            records += [
                (
                    trial,
                    ev.time,
                    ev.kind is FaultKind.PERMANENT,
                    ev.symbol,
                    ev.bit,
                    ev.stuck_value,
                    ev.mask,
                )
                for ev in expand_arrivals(rng, pattern, times, n, m, module)
            ]
        if records:
            trial, time, permanent, symbol, bit, value, mask = zip(*records)
            tables.append(
                mc.EventTable.build(
                    trial, time, permanent, module, symbol, bit, value, mask
                )
            )
    for module in range(modules):
        tables += mc._draw_event_table(
            rng, case["erasure_per_symbol"] * n, t_end, trials, n, m, module, True
        )
    scrub_counts, scrub_times = mc._draw_scrub_times(
        rng, t_end, case["scrub_period"], True, trials
    )
    return mc.ChunkDraw(data, mc.EventTable.concat(tables), scrub_counts, scrub_times)


def _first_difference(a: np.ndarray, b: np.ndarray) -> Dict[str, Any]:
    if a.dtype != b.dtype or a.shape != b.shape:
        return {"batched": [str(a.dtype), a.shape], "per_trial": [str(b.dtype), b.shape]}
    index = int(np.flatnonzero((a != b).reshape(-1))[0])
    return {
        "index": index,
        "batched": a.reshape(-1)[index].item(),
        "per_trial": b.reshape(-1)[index].item(),
    }


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _check_pattern_draw(case: Case) -> Optional[Mismatch]:
    """Batched pattern draws vs the per-trial ``Generator`` loop.

    :func:`~repro.simulator.montecarlo.draw_chunk` draws each module's
    arrivals through one :class:`~repro.simulator.patterns.Pcg64Draws`;
    the per-trial loop of :func:`_per_trial_chunk` calls the generator
    for each.  Every event column (values and dtype), the data and
    scrub tables, and the generator state afterwards must be equal.
    """
    from ..simulator.montecarlo import draw_chunk
    from ..simulator.patterns import parse_pattern, parse_schedule

    rng = _pattern_draw_rng(case)
    got = draw_chunk(
        rng,
        case["arrangement"],
        case["n"],
        case["k"],
        case["m"],
        case["t_end_hours"],
        case["seu_per_bit"],
        case["erasure_per_symbol"],
        case["scrub_period"],
        True,
        case["trials"],
        parse_pattern(case["pattern"]),
        parse_schedule(case["schedule"]),
    )
    reference = _pattern_draw_rng(case)
    want = _per_trial_chunk(case, reference)
    pairs = [
        *(
            (f"event column {name!r}", a, b)
            for name, a, b in zip(got.events._fields, got.events, want.events)
        ),
        ("data table", got.data, want.data),
        ("scrub counts", got.scrub_counts, want.scrub_counts),
        ("scrub table", got.scrub_times, want.scrub_times),
    ]
    for what, a, b in pairs:
        if not _same_array(a, b):
            return Mismatch(
                f"batched draw_chunk differs from the per-trial Generator loop: {what}",
                _first_difference(a, b),
            )
    if rng.bit_generator.state != reference.bit_generator.state:
        return Mismatch(
            "batched draw_chunk leaves the generator in another state than "
            "the per-trial Generator loop",
            {
                "batched": rng.bit_generator.state,
                "per_trial": reference.bit_generator.state,
            },
        )
    return None


def _induced_pattern_draw_bug(case: Case) -> Optional[Mismatch]:
    """Run the check with a draw class that does not restore the buffered
    32-bit half on close (``advance`` leaves it cleared)."""
    from ..simulator import montecarlo as mc

    class HalfDropped(mc.Pcg64Draws):
        def close(self) -> None:
            super().close()
            state = self._bit_generator.state
            state["has_uint32"] = state["uinteger"] = 0
            self._bit_generator.state = state

    draws = mc.Pcg64Draws
    mc.Pcg64Draws = HalfDropped
    try:
        return _check_pattern_draw(case)
    finally:
        mc.Pcg64Draws = draws


def _shrink_pattern_draw(case: Case) -> Iterator[Case]:
    from ..simulator.patterns import FaultPattern, format_pattern, parse_pattern

    if case["schedule"] is not None:
        yield {**case, "schedule": None}
    terms = parse_pattern(case["pattern"]).terms
    for i in range(len(terms) if len(terms) > 1 else 0):
        rest = FaultPattern(terms[:i] + terms[i + 1 :])
        yield {**case, "pattern": format_pattern(rest)}
    if case["trials"] > 1:
        yield {**case, "trials": case["trials"] // 2}
        yield {**case, "trials": case["trials"] - 1}


# --------------------------------------------------------------------------
# registration
# --------------------------------------------------------------------------

register_target(
    Target(
        name="gf-mul",
        layers=("gf",),
        description=(
            "Scalar GF2m and vectorized BatchGF multiplication/division "
            "vs a quadratic-time carry-less reference multiplier"
        ),
        generate=_gen_gf_case,
        check=_check_gf_mul,
        shrink=_shrink_pairs_case,
        induced_check=_induced_pairs_bug,
    )
)

register_target(
    Target(
        name="rs-decode",
        layers=("gf", "rs"),
        description=(
            "Scalar errors-and-erasures decoder vs the exhaustive "
            "minimum-distance oracle (and the textbook syndrome-table "
            "oracle where affordable) on tiny codes, all capacity strata"
        ),
        generate=_gen_rs_decode_case,
        check=_check_rs_decode,
        shrink=_shrink_codec_case,
        induced_check=_induced_codec_bug,
    )
)

register_target(
    Target(
        name="rs-solver-parity",
        layers=("rs",),
        description=(
            "Berlekamp-Massey vs Euclid key-equation solvers through the "
            "full decode pipeline: identical success flags, words, and "
            "correction metadata"
        ),
        generate=_gen_rs_parity_case,
        check=_check_rs_solver_parity,
        shrink=_shrink_codec_case,
        induced_check=_induced_codec_bug,
    )
)

register_target(
    Target(
        name="rs-batch-scalar",
        layers=("gf", "rs"),
        description=(
            "Batch codec vs scalar codec word-for-word on stratified "
            "batches (clean through beyond-capacity, erasure-heavy)"
        ),
        generate=_gen_rs_batch_case,
        check=_check_rs_batch_scalar,
        shrink=_shrink_batch_case,
        induced_check=_induced_batch_bug,
    )
)

register_target(
    Target(
        name="markov-transient",
        layers=("markov",),
        description=(
            "Uniformization vs scipy expm vs a truncated-Taylor oracle "
            "on random well-formed CTMCs (absorbing rows, frozen chains, "
            "stiff rate spreads); the grid pass vs per-time calls and the "
            "column path vs the full solution's columns exactly"
        ),
        generate=gen.gen_ctmc_case,
        check=_check_markov_transient,
        shrink=_shrink_ctmc_case,
        induced_check=_induced_ctmc_bug,
    )
)

register_target(
    Target(
        name="memory-analytic",
        layers=("memory", "markov"),
        description=(
            "Closed-form no-scrub fail probability vs the CTMC transient "
            "solution on random pure-regime memory configurations; the "
            "frontier-built duplex chain vs the per-state build exactly"
        ),
        generate=_gen_memory_analytic_case,
        check=_check_memory_analytic,
        shrink=_shrink_memory_case,
        induced_check=_induced_generic_bug,
    )
)

register_target(
    Target(
        name="memory-mc-ber",
        layers=("memory", "simulator"),
        description=(
            "Analytic chain fail probability vs the batched codec-level "
            "Monte-Carlo engine within a 5-sigma Wilson interval "
            "(one-sided for the documented-conservative duplex chain)"
        ),
        generate=_gen_memory_mc_case,
        check=_check_memory_mc,
        shrink=_shrink_memory_mc,
        induced_check=_induced_generic_bug,
    )
)

register_target(
    Target(
        name="journal-roundtrip",
        layers=("runtime", "simulator"),
        description=(
            "Random single-point corruption (byte flip or truncation) of "
            "a recorded v3 checkpoint journal: doctor --repair or direct "
            "resume must heal it and reproduce the bit-identical "
            "campaign estimate, never raise"
        ),
        generate=_gen_journal_case,
        check=_check_journal_roundtrip,
        shrink=_shrink_journal_case,
        induced_check=_induced_generic_bug,
    )
)

register_target(
    Target(
        name="mc-streaming-vs-final",
        layers=("stats", "simulator"),
        description=(
            "Streaming BER snapshots vs the one-shot final estimate "
            "(bit-identical last snapshot, reproducible intervals) and "
            "the adaptive early-stop prefix vs a literal straight-line "
            "recomputation of the stopping rule"
        ),
        generate=_gen_streaming_case,
        check=_check_mc_streaming_vs_final,
        shrink=_shrink_streaming_case,
        induced_check=_induced_generic_bug,
    )
)

register_target(
    Target(
        name="mc-replay-scalar",
        layers=("simulator", "rs"),
        description=(
            "Batch chunk engine (scrub epochs replayed in array steps) vs "
            "a trial-by-trial SimplexSystem/DuplexSystem replay of the "
            "same events: final read words, erasure sets and outcomes, "
            "exactly; each block of a multi-block task vs the scalar "
            "tally of its own draw"
        ),
        generate=_gen_mc_replay_case,
        check=_check_mc_replay,
        shrink=_shrink_mc_replay,
        induced_check=_induced_mc_replay_bug,
    )
)

register_target(
    Target(
        name="pattern-draw",
        layers=("simulator",),
        description=(
            "Batched pattern draws (one Pcg64Draws per chunk and module) "
            "vs the per-trial Generator loop on the same seed: every "
            "event column and its dtype, the data and scrub tables, and "
            "the generator state afterwards, exactly"
        ),
        generate=_gen_pattern_draw_case,
        check=_check_pattern_draw,
        shrink=_shrink_pattern_draw,
        induced_check=_induced_pattern_draw_bug,
    )
)

register_target(
    Target(
        name="scenario-analytic-parity",
        layers=("memory", "simulator"),
        description=(
            "Random i.i.d.-reducible fault-pattern mixtures (optionally "
            "under a piecewise rate schedule) vs the campaign layer's "
            "analytic bridge within a 5-sigma Wilson interval, plus the "
            "failures == miscorrections + unreadable split invariant"
        ),
        generate=_gen_scenario_parity_case,
        check=_check_scenario_parity,
        shrink=_shrink_scenario_parity,
        induced_check=_induced_generic_bug,
    )
)
