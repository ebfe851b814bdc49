"""Command-line front end.

Subcommands: ``run`` an experiment config and persist the trace, ``analyze``
a trace file, ``montecarlo`` a batch of seeded trials, and ``sample`` an
objective onto a CSV grid.  Exit codes: 0 success, 1 expectation failure
(--expect-gap mismatch, lemma check failure, incomplete escape), 2 input or
config error, 3 runtime objective error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys

# analysis and traceio load in the commands that use them, so that a fresh
# process loads only what its command runs; their functions are called
# through the module, where perfbench's tracer rebinds them.
from . import engine
from .configfile import load_experiment_config
from .engine import EVALUATOR_FAILURES, InitializationError, ObjectiveError
from .objective import InputError, get_objective, grid_axis

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_OBJECTIVE_ERROR = 3

# Rows that ``sample`` builds before each write.
_SAMPLE_BLOCK = 4096


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    from . import traceio

    experiment = load_experiment_config(args.config)
    objective = get_objective(experiment.objective_name)
    path = experiment.trace_path
    # Opened before the run, so that a path that cannot be written fails
    # before any work; no partial or stale trace is left behind.
    open(path, "wb").close()
    try:
        trace = engine.run(experiment.algo, objective)
        traceio.write_trace(trace, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    print(f"wrote {path}: {len(trace.records)} iterations, termination={trace.termination}")
    return EXIT_OK


def _format_vector(v: tuple[float, ...]) -> str:
    if len(v) == 1:
        return repr(v[0])
    return "[" + ", ".join(repr(c) for c in v) + "]"


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analysis, traceio

    if args.expect_gap is not None and not math.isfinite(args.expect_gap):
        return _fail(f"--expect-gap must be finite, got {args.expect_gap}", EXIT_INPUT_ERROR)
    if not 0.0 <= args.tol < math.inf:
        return _fail(f"--tol must be finite and >= 0, got {args.tol}", EXIT_INPUT_ERROR)
    # The replay reads the file once, holding no record past the one being
    # read; a trace that turns out corrupt prints no result.
    config, objective, records = traceio.replay_trace(args.trace)
    report = analysis.extract_refining(records, objective)
    if args.verify_lemma is not None:
        # A file that replays is the run its header names.
        if not analysis.verify_counterexample_closed_form(engine.iterate(config, objective), args.verify_lemma):
            print(f"closed-form verification failed for q=0..{args.verify_lemma}")
            return EXIT_EXPECTATION_FAILED
        print(f"lemma-verified q=0..{args.verify_lemma}")
    print(f"unsuccessful_iterations: {report.n_unsuccessful}")
    print(f"refined_point: {_format_vector(report.refined_point)}")
    print(f"alpha_tail: {report.alpha_tail!r}")
    print(f"f_limit: {report.f_limit!r}")
    print(f"f_refined: {report.f_refined!r}")
    print(f"gap: {report.gap!r}")
    print("f_tail: " + ", ".join(repr(v) for v in report.f_tail))
    print("refining_directions: " + ", ".join(_format_vector(d) for d in report.refining_directions))
    if args.expect_gap is not None:
        if abs(report.gap - args.expect_gap) > args.tol:
            print(f"gap {report.gap!r} differs from expected {args.expect_gap!r} by more than {args.tol!r}")
            return EXIT_EXPECTATION_FAILED
    return EXIT_OK


def cmd_montecarlo(args: argparse.Namespace) -> int:
    from . import analysis

    experiment = load_experiment_config(args.config)
    objective = get_objective(experiment.objective_name)
    stats = analysis.monte_carlo_escape(experiment.algo, objective, args.trials, args.master_seed)
    print(f"escaped: {stats.n_escaped}/{stats.n_trials}")
    print(f"converged: {stats.n_converged}/{stats.n_trials}")
    print("first_escape_histogram:")
    for iteration, count in stats.first_escape_histogram:
        print(f"  {iteration}: {count}")
    if stats.n_escaped < stats.n_trials:
        return EXIT_EXPECTATION_FAILED
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    objective = get_objective(args.objective)
    if objective.dimension != 1:
        return _fail(f"objective {args.objective!r} is not one-dimensional", EXIT_INPUT_ERROR)
    if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
        return _fail(f"x_min and x_max must be finite, got {args.x_min}, {args.x_max}", EXIT_INPUT_ERROR)
    if not args.x_min < args.x_max:
        return _fail(f"x_min must be < x_max, got {args.x_min} >= {args.x_max}", EXIT_INPUT_ERROR)
    if args.n_points < 2:
        return _fail(f"n_points must be >= 2, got {args.n_points}", EXIT_INPUT_ERROR)
    n = args.n_points
    if n - 1 > sys.float_info.max:
        return _fail(f"grid of {n} points over [{args.x_min}, {args.x_max}] overflows", EXIT_INPUT_ERROR)
    grid, evaluator = grid_axis(args.x_min, args.x_max, n), objective.evaluator
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("x,f\n")
            # One write per block of rows, so memory does not grow with n.
            for _ in range(0, n, _SAMPLE_BLOCK):
                rows = []
                for x in itertools.islice(grid, _SAMPLE_BLOCK):
                    try:
                        value = evaluator((x,))
                    except EVALUATOR_FAILURES as exc:
                        raise ObjectiveError(objective.name, (x,)) from exc
                    rows.append(f"{x!r},{value!r}\n")
                handle.write("".join(rows))
    except ObjectiveError:
        # No partial CSV is left behind.
        with contextlib.suppress(FileNotFoundError):
            os.remove(args.out)
        raise
    print(f"wrote {args.out}: {n} rows")
    return EXIT_OK


_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddsearch",
        description="Directional direct search with a randomized revealing poll.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config and write its trace")
    p_run.add_argument("config", help="path to an experiment .cfg file")
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="extract the refining subsequence from a trace")
    p_analyze.add_argument("trace", help="path to a trace file written by 'run'")
    p_analyze.add_argument(
        "--verify-lemma",
        type=int,
        metavar="Q_MAX",
        help="check the dyadic closed-form trajectory bit-exactly for q=0..Q_MAX",
    )
    p_analyze.add_argument("--expect-gap", type=float, help="expected discontinuity gap")
    p_analyze.add_argument("--tol", type=float, default=1e-6, help="tolerance for --expect-gap")
    p_analyze.set_defaults(func=cmd_analyze)

    p_mc = sub.add_parser("montecarlo", help="run independent seeded trials and report escape statistics")
    p_mc.add_argument("config", help="experiment config with the revealing poll enabled")
    p_mc.add_argument("--trials", type=int, required=True, help="number of independent trials")
    p_mc.add_argument("--master-seed", type=int, required=True, help="seed from which per-trial seeds derive")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_sample = sub.add_parser("sample", help="evaluate a 1-D objective on a uniform grid into a CSV file")
    p_sample.add_argument("objective", help="objective registry name")
    # Read negative numbers in exponent form (-1e-3) and -inf, -nan as values,
    # not options, so that non-finite bounds get the "must be finite" error.
    p_sample._negative_number_matcher = _NEGATIVE_NUMBER
    p_sample.add_argument("x_min", type=float)
    p_sample.add_argument("x_max", type=float)
    p_sample.add_argument("n_points", type=int)
    p_sample.add_argument("out", help="output CSV path")
    p_sample.set_defaults(func=cmd_sample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    except (InitializationError, ObjectiveError) as exc:
        return _fail(str(exc), EXIT_OBJECTIVE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
