"""CLI: run any paper experiment and print its rendered output.

Usage::

    python -m repro.experiments.runner figure16
    python -m repro.experiments.runner figure16 --full --jobs 8
    python -m repro.experiments.runner all --cache-dir /tmp/t3-cache
    python -m repro.experiments.runner figure16 --no-cache
    python -m repro.experiments.runner profile figure16 --config fc2
    python -m repro.experiments.runner figure16 --profile overlap.json
    python -m repro.experiments.runner scaleout --trace run.trace.json
    python -m repro.experiments.runner trace run.trace.json --json -
    python -m repro.experiments.runner surrogate --cases 10000 --jobs 8

Sub-layer sweep cases are cached persistently (content-addressed, under
``~/.cache/repro-t3`` unless ``--cache-dir`` / ``$REPRO_T3_CACHE_DIR``
says otherwise) and cache misses fan out over ``--jobs`` worker
processes.  Each experiment's timing line reports the sweep-cache
activity it caused, e.g. ``sweep cache: 16 hits, 0 misses, 0 simulated``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict

from repro.experiments import (
    adaptive, chaos, dp_overlap, extensions, fault_sweep, figure4,
    figure6, figure15, figure16, figure17, figure18, figure19, figure20,
    profile, related_work, scaleout, sublayer_sweep, tables, validation,
)

EXPERIMENTS: Dict[str, Callable] = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "table3": tables.run_table3,
    "figure4": figure4.run,
    "figure6": figure6.run,
    "figure14": validation.run,
    "figure15": figure15.run,
    "figure16": figure16.run,
    "figure16-large": lambda fast=True: figure16.run(fast=fast, large=True),
    "figure17": figure17.run,
    "figure18": figure18.run,
    "figure19": figure19.run,
    "figure20": figure20.run,
    # Section 7 extension studies (beyond the paper's figures).
    "generation": extensions.run_generation,
    "precision": extensions.run_precision,
    "following-ops": extensions.run_following_ops,
    "consumer-fusion": extensions.run_consumer_fusion,
    "in-switch": related_work.run,
    "dp-overlap": dp_overlap.run,
    "scaleout": scaleout.run,
    # Robustness study: speedup degradation under injected faults.
    "fault-sweep": fault_sweep.run,
    # Resilience study: in-run recovery vs a seeded fault campaign.
    "chaos": chaos.run,
    # Overlap-policy study: static vs adaptive MCA control.
    "adaptive": adaptive.run,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep execution flags, shared with scripts/capture_results."""
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for sweep cases that miss "
                             "the cache (default: 1, fully serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent sweep-cache directory (default: "
                             "$REPRO_T3_CACHE_DIR or ~/.cache/repro-t3)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the persistent "
                             "sweep cache")


def configure_sweep(args: argparse.Namespace) -> None:
    sublayer_sweep.configure(jobs=args.jobs, cache_dir=args.cache_dir,
                             disk_cache=not args.no_cache)


#: sweeps the ``profile`` subcommand knows how to profile.
PROFILE_TARGETS = ("figure16", "figure16-large")


def run_surrogate_command(args: argparse.Namespace) -> int:
    """The ``surrogate`` subcommand: a triaged design-space sweep.

    Scores a synthetic hyperparameter grid (default: 10k cases) with the
    calibrated analytic surrogate and full-simulates only the predicted
    speedup frontier plus a random audit slice; prints the frontier and
    the audit-error report.  See docs/performance.md.
    """
    from repro.surrogate.grid import synthetic_cases

    cases = synthetic_cases(n=args.cases, seed=args.seed)
    if not cases:
        print("surrogate: the synthetic grid produced no valid cases",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    before = sublayer_sweep.cache_stats().snapshot()
    result = sublayer_sweep.run_sweep(
        fast=not args.full, cases=cases, triage="surrogate",
        triage_options=dict(frontier=args.frontier,
                            audit_fraction=args.audit_fraction,
                            seed=args.seed))
    sweep = sublayer_sweep.cache_stats().delta(before)
    print(result.render())
    if args.surrogate_out:
        import json
        import pathlib
        path = pathlib.Path(args.surrogate_out)
        path.write_text(json.dumps(result.to_dict(), indent=2,
                                   sort_keys=True))
        print(f"[triage report written to {path}]")
    line = f"[surrogate finished in {time.perf_counter() - started:.1f}s"
    if sweep.hits or sweep.misses:
        line += f"; sweep cache: {sweep.render()}"
    print(line + "]")
    return 0


def run_profile_command(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: overlap decomposition of sweep cases."""
    target = args.target or "figure16"
    if target not in PROFILE_TARGETS:
        print(f"profile target must be one of {PROFILE_TARGETS}, "
              f"got {target!r}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    report = profile.run(fast=not args.full,
                         large=(target == "figure16-large"),
                         case_filter=args.config)
    print(report.render())
    if args.profile_out:
        path = profile.write_report(report, args.profile_out)
        print(f"[profile report written to {path}]")
    print(f"[profile finished in {time.perf_counter() - started:.1f}s; "
          f"{len(report.cases)} case(s), cache bypassed]")
    return 0


def _trace_capable(name: str) -> bool:
    """True when ``EXPERIMENTS[name]`` accepts a ``trace_out`` path."""
    try:
        signature = inspect.signature(EXPERIMENTS[name])
    except (TypeError, ValueError):
        return False
    return "trace_out" in signature.parameters


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        # The trace subcommand has its own option surface — delegate the
        # whole tail to repro.trace.cli rather than double-parsing it.
        from repro.trace.cli import main as trace_main
        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="T3 reproduction experiment runner",
        epilog="Additional subcommand: 'trace FILE [...]' — query a "
               "saved execution trace (analysis passes, JSON reports); "
               "see 'trace --help'.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "profile",
                                                       "surrogate"],
                        help="which table/figure to regenerate, "
                             "'profile' for the overlap profiler, or "
                             "'surrogate' for a triaged design-space "
                             "sweep (score 10k cases analytically, "
                             "simulate only the frontier + audit slice)")
    parser.add_argument("target", nargs="?", default=None,
                        help="profile only: which sweep to profile "
                             f"({' / '.join(PROFILE_TARGETS)}; "
                             "default figure16)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale shapes (slower); default is a "
                             "token-scaled fast mode with identical "
                             "compute:communication balance")
    parser.add_argument("--config", default=None, metavar="FILTER",
                        help="profile only: restrict to cases whose label "
                             "matches FILTER (case/punctuation ignored, "
                             "e.g. 'fc2' matches '.../FC-2/TP8')")
    parser.add_argument("--profile", dest="profile_out", default=None,
                        metavar="FILE",
                        help="write the overlap-profile report JSON to "
                             "FILE (with 'profile', dumps that report; "
                             "with other experiments, additionally "
                             "profiles their sweep cases)")
    parser.add_argument("--trace", dest="trace_out", default=None,
                        metavar="FILE",
                        help="save an execution trace of the experiment's "
                             "representative run to FILE (supported by: "
                             + ", ".join(sorted(
                                 name for name in EXPERIMENTS
                                 if "trace_out" in inspect.signature(
                                     EXPERIMENTS[name]).parameters))
                             + "); explore it with the 'trace' subcommand")
    parser.add_argument("--cases", type=_positive_int, default=10_000,
                        metavar="N",
                        help="surrogate only: synthetic grid size to "
                             "score (default: 10000)")
    parser.add_argument("--frontier", type=_positive_int, default=32,
                        metavar="K",
                        help="surrogate only: predicted-speedup frontier "
                             "cases to full-simulate (default: 32)")
    parser.add_argument("--audit-fraction", type=float, default=0.005,
                        metavar="F",
                        help="surrogate only: random audit slice as a "
                             "fraction of the scored grid (default: "
                             "0.005; at least 8 cases)")
    parser.add_argument("--seed", type=int, default=0,
                        help="surrogate only: grid shuffle + audit "
                             "sampling seed (default: 0)")
    parser.add_argument("--surrogate-out", default=None, metavar="FILE",
                        help="surrogate only: write the full triage "
                             "report (scores, factors, audit) to FILE "
                             "as JSON")
    parser.add_argument("--policy", default=None,
                        choices=("static", "adaptive"),
                        help="overlap policy every simulated run defaults "
                             "to (default: static, the paper's fixed "
                             "thresholds; 'adaptive' enables the EWMA "
                             "controller of docs/adaptive.md).  Policy "
                             "selection is part of the sweep-cache key, "
                             "so runs never collide across policies")
    add_sweep_arguments(parser)
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete every persistent sweep-cache entry "
                             "before running")
    args = parser.parse_args(argv)
    if args.policy is not None:
        from repro.config import set_default_overlap_policy
        set_default_overlap_policy(args.policy)
    configure_sweep(args)
    if args.clear_cache:
        removed = sublayer_sweep.clear_disk_cache()
        print(f"[cleared {removed} sweep-cache entries]")

    if args.experiment == "profile":
        return run_profile_command(args)
    if args.experiment == "surrogate":
        return run_surrogate_command(args)
    if args.target is not None:
        print(f"positional target {args.target!r} is only valid with the "
              "'profile' subcommand", file=sys.stderr)
        return 2

    if args.trace_out is not None:
        if args.experiment == "all":
            print("--trace needs a single experiment, not 'all'",
                  file=sys.stderr)
            return 2
        if not _trace_capable(args.experiment):
            supported = sorted(name for name in EXPERIMENTS
                               if _trace_capable(name))
            print(f"--trace is not supported by {args.experiment!r} "
                  f"(supported: {', '.join(supported)})", file=sys.stderr)
            return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        started = time.perf_counter()
        before = sublayer_sweep.cache_stats().snapshot()
        if args.trace_out is not None:
            result = EXPERIMENTS[name](fast=not args.full,
                                       trace_out=args.trace_out)
        else:
            result = EXPERIMENTS[name](fast=not args.full)
        sweep = sublayer_sweep.cache_stats().delta(before)
        print(result.render())
        line = f"[{name} finished in {time.perf_counter() - started:.1f}s"
        if sweep.hits or sweep.misses:
            line += f"; sweep cache: {sweep.render()}"
        if args.trace_out is not None:
            line += f"; trace saved to {args.trace_out}"
        print(line + "]\n")

    if args.profile_out:
        report = profile.run(fast=not args.full, case_filter=args.config)
        path = profile.write_report(report, args.profile_out)
        print(f"[profile report written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
