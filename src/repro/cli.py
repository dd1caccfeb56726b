"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``figure fig5..fig10 [--points N] [--csv DIR]`` — regenerate one (or
  ``all``) of the paper's figures as an ASCII table, optionally exporting
  CSV data.
* ``ber`` — evaluate BER(t) for an ad-hoc configuration (arrangement,
  code, rates, scrub period).
* ``complexity`` — the Section 6 decoder latency/area table.
* ``validate`` — quick Monte-Carlo cross-check of the chains at an
  MC-visible rate.
* ``scrub-design`` — the largest scrubbing period meeting a BER budget,
  with its availability/bandwidth overhead.
* ``report`` — regenerate every artifact into one markdown report.
* ``sensitivity`` — BER elasticities of a configuration.
* ``verify fuzz|replay|list-targets`` — deterministic differential
  fuzzing (``repro verify fuzz --target rs-decode --budget 60``),
  replay of shrunk JSON failure artifacts, and the registered-target
  catalogue (see :mod:`repro.verify`).
* ``campaign`` — bulk model-vs-simulation validation with supervised
  workers, chunk-level checkpoint/resume (``--checkpoint``), run
  manifests (``--manifest``), deterministic fault injection
  (``--chaos``, dev), a JSONL span/event/metric trace (``--trace``),
  and live per-chunk heartbeats with ETA (``--progress``).
* ``doctor PATH [--repair]`` — audit a checkpoint journal or a whole
  state directory (frame CRCs, hash chain, quarantine sidecars, locks,
  manifests) and print a machine-readable JSON report; with
  ``--repair`` truncate torn tails, quarantine corrupt records, and
  rewrite a clean v3 journal.  A file in an older journal format (or no
  journal at all) and a leftover board directory of the deleted fleet
  executor are reported ``unsupported`` and left as they are.

Every subcommand prints to stdout through :func:`_out`, so a reader
that closes the pipe early changes what is printed, never the exit
status or the files a command writes.

Exit codes shared with the runtime: 130 on SIGINT (journal resumable),
75 when another campaign holds the journal lock, 74 when journal writes
failed mid-run (campaign completed; resumable state lost), 70 when a
chunk failed every attempt (completed chunks stay journaled).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

#: ``--chunk-size`` help, shared by ``campaign`` and ``validate``.
CHUNK_SIZE_HELP = (
    "trials per seed block (default 512): the unit of seeding, "
    "journaling and adaptive stopping, and part of the fingerprint, so "
    "a different size runs a different experiment.  It is not the unit "
    "of dispatch: consecutive blocks run together in tasks, which "
    "changes no result"
)


def build_parser() -> argparse.ArgumentParser:
    from .simulator.campaign import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reed-Solomon coded fault-tolerant memory analysis "
            "(DATE 2005 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("ids", nargs="+", help="fig5..fig10 or 'all'")
    fig.add_argument("--points", type=int, default=13, help="time grid size")
    fig.add_argument("--csv", metavar="DIR", help="also export CSV data")

    ber = sub.add_parser("ber", help="BER(t) of an ad-hoc configuration")
    ber.add_argument(
        "--arrangement", choices=("simplex", "duplex"), default="simplex"
    )
    ber.add_argument("--n", type=int, default=18)
    ber.add_argument("--k", type=int, default=16)
    ber.add_argument("--m", type=int, default=8)
    ber.add_argument(
        "--seu", type=float, default=0.0, help="SEU rate, errors/bit/day"
    )
    ber.add_argument(
        "--permanent",
        type=float,
        default=0.0,
        help="permanent fault rate, /symbol/day",
    )
    ber.add_argument(
        "--tsc", type=float, default=None, help="scrub period, seconds"
    )
    ber.add_argument(
        "--hours", type=float, default=48.0, help="storage horizon, hours"
    )
    ber.add_argument("--points", type=int, default=13)

    sub.add_parser("complexity", help="Section 6 decoder cost table")

    val = sub.add_parser("validate", help="Monte-Carlo cross-check")
    val.add_argument("--trials", type=int, default=1000)
    val.add_argument("--seed", type=int, default=2005)
    val.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the batch codec-MC path (results are "
        "seed-deterministic regardless of this value)",
    )
    val.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help=CHUNK_SIZE_HELP,
    )

    report = sub.add_parser(
        "report", help="write the full markdown reproduction report"
    )
    report.add_argument("-o", "--output", default="reproduction_report.md")
    report.add_argument("--points", type=int, default=13)

    sens = sub.add_parser(
        "sensitivity", help="BER elasticities of a configuration"
    )
    sens.add_argument(
        "--arrangement", choices=("simplex", "duplex"), default="duplex"
    )
    sens.add_argument("--n", type=int, default=18)
    sens.add_argument("--k", type=int, default=16)
    sens.add_argument("--seu", type=float, default=1.7e-5)
    sens.add_argument("--permanent", type=float, default=0.0)
    sens.add_argument("--tsc", type=float, default=None)
    sens.add_argument("--hours", type=float, default=48.0)

    scen = sub.add_parser(
        "scenario", help="run JSON scenario file(s)"
    )
    scen.add_argument("path", help="JSON file: one scenario or a list")

    camp = sub.add_parser(
        "campaign", help="bulk model-vs-simulation validation campaign"
    )
    camp.add_argument(
        "--trials",
        type=int,
        default=None,
        help="MC trials per cell (default 300, or the preset's budget "
        "under --scenario)",
    )
    camp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default 2005, or the preset's pinned seed "
        "under --scenario)",
    )
    camp.add_argument(
        "--scenario",
        metavar="NAME",
        help="run a named fault-physics preset instead of the default "
        "validation matrix; see --list-scenarios",
    )
    camp.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario catalog and exit",
    )
    camp.add_argument(
        "--pattern",
        metavar="SPEC",
        help="correlated fault-pattern mixture for every cell of the "
        "default matrix, e.g. '0.9*1BIT+0.08*MBU:3+0.02*ROW' "
        "(exclusive with --scenario)",
    )
    camp.add_argument(
        "--schedule",
        metavar="SPEC",
        help="piecewise-cyclic SEU rate schedule, e.g. "
        "'42.0h@1.0,6.0h@8.0' (exclusive with --scenario)",
    )
    camp.add_argument(
        "--engine",
        choices=ENGINES,
        default="batch",
        help="trial engine: 'batch' (default) runs trials in vectorized "
        "chunks through the batch codec ('numpy' is another name for "
        "it); 'reference' runs one trial at a time through the scalar "
        "codec, the oracle the batch engine is checked against",
    )
    camp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the batch engine; 1 runs in-process "
        "(estimates are seed-deterministic regardless of this value)",
    )
    camp.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help=CHUNK_SIZE_HELP,
    )
    camp.add_argument(
        "--perf",
        action="store_true",
        help="print batch-engine work/throughput counters",
    )
    camp.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="append-only JSONL journal of completed chunks; rerunning "
        "the same command against an existing journal resumes it with "
        "bit-identical results (batch engine only)",
    )
    camp.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a machine-readable JSON run manifest (seed, engine, "
        "retry counts, git describe, wall clock, results)",
    )
    camp.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline; a task of b chunks gets b x SECONDS. "
        "An overdue worker is presumed hung, killed, and its task retried "
        "(default: no timeout)",
    )
    camp.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per chunk before the campaign fails with exit 70 "
        "(default 3)",
    )
    camp.add_argument(
        "--chaos",
        metavar="SPEC",
        help="[dev] deterministic fault injection, e.g. "
        "'crash@0;hang@2:30;poison@1;slow@*:0.1' — proves the "
        "supervisor's retry and fail-loud machinery end to end; journal "
        "faults 'bitrot@i[:mask]', 'torn@i[:frac]', 'enospc@i[:n]' "
        "corrupt/tear/fail checkpoint appends to prove quarantine, "
        "torn-tail truncation, and ENOSPC degradation",
    )
    camp.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL observability trace: solver spans (terms "
        "used, tail bounds, expm cache hits), chunk heartbeat events "
        "with ETA, and a metrics snapshot (chunk-latency histogram)",
    )
    camp.add_argument(
        "--progress",
        action="store_true",
        help="print per-chunk heartbeats (done/total, rate, ETA) and "
        "streaming BER±CI snapshots to stderr as the campaign runs "
        "(batch engine only)",
    )
    camp.add_argument(
        "--stop-rel-ci",
        type=float,
        default=None,
        metavar="WIDTH",
        help="adaptive stopping: finish each cell once the relative CI "
        "halfwidth ((hi-lo)/2 divided by the estimate) of the contiguous "
        "chunk prefix reaches WIDTH (e.g. 0.1 = ±10%%); the stopping "
        "point is a deterministic function of the seed, identical for "
        "any --workers (batch engine only)",
    )
    camp.add_argument(
        "--min-trials",
        type=int,
        default=0,
        metavar="N",
        help="floor for --stop-rel-ci: never stop before the cumulative "
        "prefix holds at least N trials (guards against spuriously "
        "tight intervals on lucky early chunks)",
    )
    camp.add_argument(
        "--ci-method",
        choices=("wilson", "jeffreys"),
        default="wilson",
        help="interval family for streaming snapshots and the "
        "--stop-rel-ci rule; 'jeffreys' is preferred at extreme BER "
        "(final estimates always also report the classic Wilson "
        "interval)",
    )

    verify = sub.add_parser(
        "verify",
        help="deterministic fuzzing & differential-oracle verification",
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    vfuzz = verify_sub.add_parser(
        "fuzz", help="fuzz differential targets with a time/trial budget"
    )
    vfuzz.add_argument(
        "--target",
        "-t",
        action="append",
        dest="targets",
        metavar="NAME",
        help="target to fuzz (repeatable); see 'verify list-targets'",
    )
    vfuzz.add_argument(
        "--all-targets",
        action="store_true",
        help="fuzz every registered target (budget split evenly)",
    )
    vfuzz.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="total time budget; same seed always yields the same trial "
        "sequence, the budget only decides how far it runs",
    )
    vfuzz.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="per-target trial budget (may be combined with --budget)",
    )
    vfuzz.add_argument("--seed", type=int, default=2005)
    vfuzz.add_argument(
        "--artifact-dir",
        default="verify_artifacts",
        metavar="DIR",
        help="where shrunk failure artifacts are written (default "
        "./verify_artifacts)",
    )
    vfuzz.add_argument(
        "--induce-bug",
        action="store_true",
        help="[dev] swap in each target's deliberately buggy self-test "
        "check to demonstrate detect->shrink->artifact->replay end to end",
    )
    vreplay = verify_sub.add_parser(
        "replay", help="replay a failure artifact or regression case"
    )
    vreplay.add_argument("artifacts", nargs="+", metavar="ARTIFACT.json")
    vreplay.add_argument(
        "--original",
        action="store_true",
        help="replay the original (pre-shrink) case of a failure artifact",
    )
    verify_sub.add_parser(
        "list-targets", help="list registered differential targets"
    )

    doctor = sub.add_parser(
        "doctor",
        help="audit (and with --repair, heal) campaign state on disk",
    )
    doctor.add_argument(
        "path",
        help="checkpoint journal file or state directory to audit",
    )
    doctor.add_argument(
        "--repair",
        action="store_true",
        help="truncate torn tails, quarantine corrupt records, and "
        "rewrite a clean checksummed v3 journal; the rewrite is atomic "
        "and a file in any other format is left untouched",
    )

    design = sub.add_parser(
        "scrub-design", help="slowest scrub meeting a BER budget"
    )
    design.add_argument("--budget", type=float, default=1e-6)
    design.add_argument("--seu", type=float, default=1.7e-5)
    design.add_argument("--hours", type=float, default=48.0)
    design.add_argument("--words", type=int, default=1 << 20)
    design.add_argument("--clock-mhz", type=float, default=50.0)
    return parser


def _stdout_gone() -> None:
    """Send the rest of stdout to ``os.devnull``: its reader has closed.

    The Python docs' recipe for a closed pipe: output still buffered, and
    any printed later, is dropped instead of raising ``BrokenPipeError``
    again at the next print or at interpreter exit.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _out(text: str = "") -> None:
    """``print(text)`` to stdout that outlives the reader closing the pipe."""
    try:
        print(text)
    except BrokenPipeError:
        _stdout_gone()


def _bad_hours(hours: float) -> Optional[str]:
    """The usage error for a ``--hours`` horizon, if it is not one."""
    if not 0 <= hours < math.inf:
        return "--hours must be finite and >= 0"
    return None


def _bad_physics(
    seu: float,
    permanent: float = 0.0,
    tsc: Optional[float] = None,
    code: Optional[Tuple[int, int, int]] = None,
) -> Optional[str]:
    """The usage error for a rate, scrub period or ``(n, k, m)`` code the
    models refuse, if any: rates must be finite and >= 0, ``--tsc``
    finite and > 0, and the code one :func:`check_code` takes."""
    from .memory.base import check_code

    for flag, rate in (("--seu", seu), ("--permanent", permanent)):
        if not 0 <= rate < math.inf:
            return f"{flag} must be finite and >= 0"
    if tsc is not None and not 0 < tsc < math.inf:
        return "--tsc must be finite and > 0"
    if code is not None:
        try:
            check_code(*code)
        except ValueError as exc:
            return str(exc)
    return None


def _refuse(*problems: Optional[str]) -> bool:
    """Print the first usage error of ``problems`` on stderr, if any."""
    for problem in problems:
        if problem is not None:
            print(problem, file=sys.stderr)
            return True
    return False


def _too_few_points(points: int) -> bool:
    """Print the usage error for a time grid without t = 0 and the
    horizon, if ``points`` gives one."""
    if points < 2:
        print("--points must be >= 2 (t = 0 and the horizon)", file=sys.stderr)
        return True
    return False


def cmd_figure(args: argparse.Namespace) -> int:
    from .analysis import ALL_FIGURES, render_ber_table
    from .analysis.export import experiment_to_csv
    from .memory import HOURS_PER_MONTH

    if _too_few_points(args.points):
        return 2
    ids = list(ALL_FIGURES) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for fig_id in ids:
        result = ALL_FIGURES[fig_id](points=args.points)
        monthly = fig_id in ("fig8", "fig9", "fig10")
        scale = HOURS_PER_MONTH if monthly else 1.0
        label = "months" if monthly else "hours"
        _out(f"\n{fig_id}: {result.title}")
        _out(render_ber_table(result.curves, time_label=label, time_scale=scale))
        failed = result.failed_expectations()
        _out(
            "expectations: "
            + ("all hold" if not failed else f"FAILED - {failed}")
        )
        if args.csv:
            path = experiment_to_csv(
                result, args.csv, time_label=label, time_scale=scale
            )
            _out(f"csv: {path}")
        if failed:
            return 1
    return 0


def cmd_ber(args: argparse.Namespace) -> int:
    from .analysis import render_ber_table
    from .memory import ber_curve, duplex_model, simplex_model

    if _too_few_points(args.points) or _refuse(
        _bad_hours(args.hours),
        _bad_physics(
            args.seu, args.permanent, args.tsc, (args.n, args.k, args.m)
        ),
    ):
        return 2
    factory = simplex_model if args.arrangement == "simplex" else duplex_model
    model = factory(
        args.n,
        args.k,
        m=args.m,
        seu_per_bit_day=args.seu,
        erasure_per_symbol_day=args.permanent,
        scrub_period_seconds=args.tsc,
    )
    times = np.linspace(0.0, args.hours, args.points)
    curve = ber_curve(model, times, label=args.arrangement)
    _out(render_ber_table([curve]))
    _out(f"\nBER({args.hours:g} h) = {curve.final:.6e}")
    return 0


def cmd_complexity(_args: argparse.Namespace) -> int:
    from .analysis import render_cost_table, table_decoder_complexity

    _out(render_cost_table(table_decoder_complexity()))
    return 0


def _bad_count(
    trials: Optional[int],
    chunk_size: int,
    workers: int,
    seed: Optional[int] = None,
) -> Optional[str]:
    """The usage error for a count flag below its floor, if any."""
    if trials is not None and trials <= 0:
        return "--trials must be positive"
    if chunk_size <= 0:
        return "--chunk-size must be positive"
    if workers < 1:
        return "--workers must be >= 1"
    if seed is not None and seed < 0:
        return "--seed must be >= 0"
    return None


def cmd_validate(args: argparse.Namespace) -> int:
    from .memory import duplex_model, simplex_model
    from .rs import RSCode
    from .simulator import (
        gillespie_fail_probability,
        simulate_fail_probability_batched,
    )

    if _refuse(_bad_count(args.trials, args.chunk_size, args.workers, args.seed)):
        return 2
    rng = np.random.default_rng(args.seed)
    lam_day = 2e-3
    code = RSCode(18, 16, m=8)
    ok = True
    for name, model in (
        ("simplex", simplex_model(18, 16, seu_per_bit_day=lam_day)),
        ("duplex", duplex_model(18, 16, seu_per_bit_day=lam_day)),
    ):
        p = model.fail_probability([48.0])[0]
        ssa = gillespie_fail_probability(model, 48.0, args.trials, rng)
        mc = simulate_fail_probability_batched(
            name,
            code,
            48.0,
            seu_per_bit=lam_day / 24.0,
            erasure_per_symbol=0.0,
            trials=max(200, args.trials // 4),
            seed=args.seed,
            chunk_size=args.chunk_size,
            workers=args.workers,
        )
        agree = ssa.consistent_with(p)
        ok = ok and agree
        _out(
            f"{name:8s} chain={p:.4f}  SSA={ssa.probability:.4f} "
            f"[{ssa.ci_low:.4f},{ssa.ci_high:.4f}] "
            f"{'OK' if agree else 'DISAGREES'}  codec-MC={mc.probability:.4f}"
        )
    _out(
        "note: the duplex codec-MC sits below its chain by design - the "
        "paper's either-word fail rule is conservative (see EXPERIMENTS.md)."
    )
    return 0 if ok else 1


def cmd_scrub_design(args: argparse.Namespace) -> int:
    from .analysis import max_scrub_period_for_budget
    from .memory import scrub_overhead

    if not 0 < args.budget < math.inf:
        print("--budget must be finite and > 0", file=sys.stderr)
        return 2
    if _refuse(_bad_hours(args.hours), _bad_physics(args.seu)):
        return 2
    period = max_scrub_period_for_budget(
        18,
        16,
        seu_per_bit_day=args.seu,
        budget=args.budget,
        horizon_hours=args.hours,
    )
    overhead = scrub_overhead(
        18,
        16,
        num_words=args.words,
        scrub_period_seconds=period,
        clock_hz=args.clock_mhz * 1e6,
        num_decoders=2,
    )
    _out(
        f"budget {args.budget:g} over {args.hours:g} h at "
        f"lambda={args.seu:g}/bit/day:"
    )
    _out(f"  slowest admissible Tsc : {period:.0f} s ({period / 60:.0f} min)")
    _out(f"  scrub pass duration    : {overhead.pass_seconds:.3f} s")
    _out(f"  availability           : {overhead.availability:.6f}")
    _out(
        f"  scrub bandwidth        : "
        f"{overhead.scrub_bandwidth_bits_per_s / 8e3:.1f} kB/s"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis import write_report

    if _too_few_points(args.points):
        return 2
    path = write_report(args.output, points=args.points)
    _out(f"wrote {path}")
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis import memory_system_sensitivities

    if _refuse(
        _bad_hours(args.hours),
        _bad_physics(args.seu, args.permanent, args.tsc, (args.n, args.k, 8)),
    ):
        return 2
    results = memory_system_sensitivities(
        args.arrangement,
        args.n,
        args.k,
        args.hours,
        seu_per_bit_day=args.seu,
        erasure_per_symbol_day=args.permanent,
        scrub_period_seconds=args.tsc,
    )
    if not results:
        _out("no active parameters to differentiate")
        return 1
    _out(
        f"{args.arrangement} RS({args.n},{args.k}), "
        f"BER({args.hours:g} h) = {results[0].base_ber:.3e}"
    )
    for s in results:
        _out(
            f"  {s.parameter:<24} base={s.base_value:<12g} "
            f"elasticity={s.elasticity:+.3f}"
        )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from .analysis import render_ber_table
    from .analysis.scenario import run_scenario_suite

    try:
        results = run_scenario_suite(args.path)
    except (OSError, ValueError) as exc:
        print(f"bad scenario file: {exc}", file=sys.stderr)
        return 2
    failed_budget = False
    for result in results:
        _out(result.summary())
        _out(render_ber_table([result.curve]))
        _out()
        if result.meets_budget is False:
            failed_budget = True
    return 1 if failed_budget else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import time as _time

    from .obs import metrics as obs_metrics
    from .obs import trace as obs_trace
    from .obs.progress import ProgressTracker, format_progress
    from .perf import PerfCounters
    from .runtime import (
        CHUNK_FAILED_EXIT_CODE,
        LOCK_CONTENTION_EXIT_CODE,
        STATE_LOST_EXIT_CODE,
        CheckpointError,
        CheckpointJournal,
        CheckpointMismatchError,
        ChunkFailedError,
        JournalLockedError,
        RetryPolicy,
        RuntimeConfig,
        StoppingRule,
        build_manifest,
        chaos_from_arg,
        make_executor,
        write_manifest,
    )
    from .simulator import (
        campaign_fingerprint,
        campaign_summary,
        default_validation_campaign,
        get_scenario,
        render_catalog,
        run_campaign,
    )
    from .simulator.patterns import (
        check_schedule_legs,
        parse_pattern,
        parse_schedule,
    )

    if args.list_scenarios:
        _out(render_catalog())
        return 0
    if args.scenario is not None and (
        args.pattern is not None or args.schedule is not None
    ):
        print(
            "--scenario presets pin their own pattern/schedule; "
            "--pattern/--schedule apply to the default matrix only",
            file=sys.stderr,
        )
        return 2
    scenario = None
    if args.scenario is not None:
        try:
            scenario = get_scenario(args.scenario)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    try:
        if args.pattern is not None:
            parse_pattern(args.pattern)
        parse_schedule(args.schedule)
    except ValueError as exc:
        print(f"bad fault-physics spec: {exc}", file=sys.stderr)
        return 2
    if _refuse(_bad_count(args.trials, args.chunk_size, args.workers, args.seed)):
        return 2

    batch = args.engine != "reference"
    if args.checkpoint and not batch:
        print(
            "--checkpoint requires the batch engine (the reference "
            "loop has no chunk structure to journal)",
            file=sys.stderr,
        )
        return 2
    if args.progress and not batch:
        print(
            "--progress requires the batch engine (heartbeats are "
            "emitted per chunk; the reference loop has none)",
            file=sys.stderr,
        )
        return 2
    if args.stop_rel_ci is not None and not batch:
        print(
            "--stop-rel-ci requires the batch engine (adaptive "
            "stopping consumes per-chunk results)",
            file=sys.stderr,
        )
        return 2
    if args.stop_rel_ci is not None and args.stop_rel_ci <= 0:
        print("--stop-rel-ci must be > 0", file=sys.stderr)
        return 2
    if args.min_trials < 0:
        print("--min-trials must be >= 0", file=sys.stderr)
        return 2
    if args.min_trials and args.stop_rel_ci is None:
        print(
            "--min-trials is a floor for --stop-rel-ci; pass both",
            file=sys.stderr,
        )
        return 2
    if args.ci_method != "wilson" and args.stop_rel_ci is None:
        print(
            "--ci-method selects the --stop-rel-ci interval family; "
            "pass both",
            file=sys.stderr,
        )
        return 2
    if args.max_retries < 1:
        print("--max-retries must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_timeout is not None and not 0 < args.chunk_timeout < math.inf:
        print("--chunk-timeout must be finite and > 0", file=sys.stderr)
        return 2
    try:
        chaos = chaos_from_arg(args.chaos)
    except ValueError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return 2

    if scenario is not None:
        cells = list(scenario.cells)
        n, k, m = scenario.n, scenario.k, scenario.m
        t_end_hours = scenario.t_end_hours
        trials = args.trials if args.trials is not None else scenario.trials
        seed = args.seed if args.seed is not None else scenario.seed
    else:
        cells = default_validation_campaign()
        if args.pattern is not None or args.schedule is not None:
            from dataclasses import replace as _replace

            cells = [
                _replace(
                    cell, pattern=args.pattern, schedule=args.schedule
                )
                for cell in cells
            ]
        n, k, m, t_end_hours = 18, 16, 8, 48.0
        trials = args.trials if args.trials is not None else 300
        seed = args.seed if args.seed is not None else 2005
    try:
        for cell in cells:
            check_schedule_legs(cell.schedule, t_end_hours)
    except ValueError as exc:
        print(f"bad fault-physics spec: {exc}", file=sys.stderr)
        return 2
    counters = PerfCounters()
    try:
        journal = (
            CheckpointJournal(args.checkpoint, chaos=chaos)
            if args.checkpoint
            else None
        )
    except JournalLockedError as exc:
        print(f"checkpoint locked: {exc}", file=sys.stderr)
        return LOCK_CONTENTION_EXIT_CODE
    except CheckpointError as exc:
        print(f"checkpoint unusable: {exc}", file=sys.stderr)
        return 2
    # One executor for the whole campaign; every cell shares it.
    executor = make_executor(args.workers) if batch else None
    resumed = journal is not None and journal.n_chunks > 0
    if resumed:
        _out(
            f"resuming from {args.checkpoint}: "
            f"{journal.n_chunks} chunk(s) already journaled"
        )
    if journal is not None and journal.records_quarantined:
        print(
            f"journal damage: {journal.records_quarantined} corrupt "
            f"record(s) quarantined to {args.checkpoint}.quarantine; "
            "the affected chunks will be recomputed",
            file=sys.stderr,
        )

    collector = obs_trace.TraceCollector() if args.trace else None
    if collector is not None:
        obs_trace.install_collector(collector)
    heartbeats: list = []

    def on_progress(event) -> None:
        heartbeats.append(event.as_dict())
        if args.progress:
            print(f"  {format_progress(event)}", file=sys.stderr)

    def on_snapshot(snap) -> None:
        rel = (
            ""
            if snap.rel_halfwidth == float("inf")
            else f" (±{100.0 * snap.rel_halfwidth:.1f}%)"
        )
        print(
            f"  ber={snap.probability:.3e} "
            f"ci=[{snap.ci_low:.3e}, {snap.ci_high:.3e}]{rel} "
            f"n={snap.trials}",
            file=sys.stderr,
        )

    stop = None
    if args.stop_rel_ci is not None:
        stop = StoppingRule(
            rel_ci=args.stop_rel_ci,
            min_trials=args.min_trials,
            method=args.ci_method,
        )
    tracker = None
    if batch and (args.progress or args.trace or args.manifest):
        tracker = ProgressTracker(
            total=trials * len(cells), unit="trials"
        )
    runtime = RuntimeConfig(
        retry=RetryPolicy(max_attempts=args.max_retries),
        chunk_timeout=args.chunk_timeout,
        chaos=chaos,
        journal=journal,
        executor=executor,
        stop=stop,
        on_snapshot=on_snapshot if args.progress else None,
        progress=tracker,
        on_progress=on_progress if tracker is not None else None,
    )
    t0 = _time.perf_counter()
    try:
        rows = run_campaign(
            cells,
            n=n,
            k=k,
            m=m,
            t_end_hours=t_end_hours,
            trials=trials,
            base_seed=seed,
            engine=args.engine,
            workers=args.workers,
            chunk_size=args.chunk_size,
            counters=counters,
            runtime=runtime if batch else None,
        )
    except CheckpointMismatchError as exc:
        print(f"checkpoint refused: {exc}", file=sys.stderr)
        return 2
    except JournalLockedError as exc:
        print(f"checkpoint locked: {exc}", file=sys.stderr)
        return LOCK_CONTENTION_EXIT_CODE
    except ChunkFailedError as exc:
        hint = ""
        if journal is not None and not journal.degraded:
            hint = "; completed chunks are journaled; rerun to resume"
        print(f"campaign failed: {exc}{hint}", file=sys.stderr)
        return CHUNK_FAILED_EXIT_CODE
    except KeyboardInterrupt:
        if journal is not None:
            print(
                f"\ninterrupted; {journal.n_chunks} completed chunk(s) "
                f"checkpointed in {args.checkpoint} — rerun the same "
                "command to resume",
                file=sys.stderr,
            )
        else:
            print(
                "\ninterrupted (no --checkpoint given; progress lost)",
                file=sys.stderr,
            )
        return 130
    finally:
        if executor is not None:
            executor.shutdown()
        if journal is not None:
            journal.close()
            counters.io_errors += journal.io_errors
            counters.records_quarantined += journal.records_quarantined
        # Mirror the counters into the metrics registry so both the
        # trace export and the manifest carry one coherent snapshot.
        counters.publish(obs_metrics.get_registry())
        if collector is not None:
            obs_trace.install_collector(None)
            trace_path = collector.export_jsonl(
                args.trace, metrics=obs_metrics.get_registry().snapshot()
            )
            print(f"trace: {trace_path}", file=sys.stderr)
    wall = _time.perf_counter() - t0

    # Write the manifest and settle the exit status before printing, so
    # a reader that closes stdout early changes neither.
    summary = campaign_summary(rows)
    all_ok = all(ok == total for ok, total in summary.values())
    manifest_path = None
    if args.manifest:
        manifest = build_manifest(
            command="campaign",
            scenario=args.scenario,
            fingerprint=campaign_fingerprint(
                cells,
                n,
                k,
                m,
                t_end_hours,
                trials,
                seed,
                args.engine,
                args.chunk_size,
                stop=stop,
            ),
            rows=rows,
            counters=counters,
            events=runtime.events,
            wall_clock_seconds=wall,
            resumed=resumed,
            checkpoint_path=args.checkpoint,
            progress_events=heartbeats,
            metrics=obs_metrics.get_registry().snapshot(),
        )
        manifest_path = write_manifest(args.manifest, manifest)
    degraded = journal is not None and journal.degraded
    status = STATE_LOST_EXIT_CODE if degraded else (0 if all_ok else 1)

    for row in rows:
        mark = "OK " if row.consistent else "!! "
        est = row.estimate
        early = (
            f" (stopped early: {est.trials}/{trials} trials)"
            if est.stopped_early
            else ""
        )
        # Out-of-model cells (correlated patterns) have no analytic
        # prediction: degrade the column gracefully instead of failing.
        model_text = (
            "   -- "
            if row.model_fail_probability is None
            else f"{row.model_fail_probability:.4f}"
        )
        _out(
            f"{mark}{row.cell.label():<40} model={model_text} "
            f"mc={est.probability:.4f} [{est.ci_low:.4f},{est.ci_high:.4f}] "
            f"miscorrect={est.silent_miscorrections} "
            f"unreadable={est.detected_uncorrectable}{early}"
        )
    _out()
    for arrangement, (ok, total) in summary.items():
        _out(f"{arrangement}: {ok}/{total} cells consistent")
    if counters.had_faults:
        _out("\nresilience:")
        _out(counters.resilience_summary())
    if args.perf and batch:
        _out(f"\nbatch engine ({args.workers} worker(s)):")
        _out(counters.summary())
    if manifest_path is not None:
        _out(f"manifest: {manifest_path}")
    if degraded:
        print(
            f"\njournal degraded ({journal.degraded_reason}): "
            f"{journal.appends_lost} chunk record(s) were not persisted; "
            "the campaign completed but cannot be resumed from "
            f"{args.checkpoint}",
            file=sys.stderr,
        )
    return status


def cmd_doctor(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .runtime import audit_path, repair_journal

    target = Path(args.path)
    if not target.exists():
        print(f"doctor: {target}: no such file or directory", file=sys.stderr)
        return 2
    report = audit_path(target)
    if args.repair:
        repairs = []
        for journal in report["journals"]:
            # repair_journal logs an unsupported file as skipped.
            repairable = ("corrupt", "torn-tail", "unsupported")
            if journal["classification"] in repairable:
                repairs.append(repair_journal(journal["path"]))
        # Re-audit so the report reflects the healed state, and keep the
        # action log alongside it.
        report = audit_path(target)
        report["repairs"] = repairs
    _out(_json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["healthy"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        all_targets,
        fuzz_target,
        get_target,
        replay_artifact,
    )

    if args.verify_command == "list-targets":
        targets = all_targets()
        width = max(len(t.name) for t in targets)
        for t in targets:
            layers = ",".join(t.layers)
            _out(f"{t.name:<{width}}  [{layers}]  {t.description}")
        return 0

    if args.verify_command == "replay":
        all_ok = True
        for path in args.artifacts:
            try:
                result = replay_artifact(path, use_shrunk=not args.original)
            except (OSError, ValueError, KeyError) as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                all_ok = False
                continue
            _out(result.summary())
            if result.mismatch is not None:
                _out(f"  detail: {result.mismatch.detail}")
            all_ok = all_ok and result.as_recorded
        return 0 if all_ok else 1

    # fuzz
    if args.budget is None and args.trials is None:
        print(
            "verify fuzz: need --budget SECONDS and/or --trials N",
            file=sys.stderr,
        )
        return 2
    if args.all_targets:
        if args.targets:
            print(
                "verify fuzz: --target and --all-targets are exclusive",
                file=sys.stderr,
            )
            return 2
        targets = all_targets()
    else:
        if not args.targets:
            print(
                "verify fuzz: pick --target NAME (repeatable) or "
                "--all-targets",
                file=sys.stderr,
            )
            return 2
        try:
            targets = [get_target(name) for name in args.targets]
        except KeyError as exc:
            print(f"verify fuzz: {exc.args[0]}", file=sys.stderr)
            return 2
    per_budget = (
        None if args.budget is None else args.budget / len(targets)
    )
    failed = False
    for target in targets:
        report = fuzz_target(
            target,
            seed=args.seed,
            budget_seconds=per_budget,
            max_trials=args.trials,
            artifact_dir=args.artifact_dir,
            induce_bug=args.induce_bug,
        )
        _out(report.summary())
        if report.failed:
            failed = True
            _out(f"  mismatch: {report.mismatch.detail}")
            _out(f"  artifact: {report.artifact_path}")
            _out(
                f"  replay:   python -m repro verify replay "
                f"{report.artifact_path}"
            )
    return 1 if failed else 0


_COMMANDS = {
    "figure": cmd_figure,
    "report": cmd_report,
    "campaign": cmd_campaign,
    "scenario": cmd_scenario,
    "sensitivity": cmd_sensitivity,
    "ber": cmd_ber,
    "complexity": cmd_complexity,
    "validate": cmd_validate,
    "verify": cmd_verify,
    "doctor": cmd_doctor,
    "scrub-design": cmd_scrub_design,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    status = _COMMANDS[args.command](args)
    try:
        # a closed pipe surfaces here, not as a traceback at exit
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_gone()
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
