"""Line-delimited trace files.

Layout: a header object carrying the config and objective name, one object
per iteration record, and a trailer carrying the termination reason.  Floats
are serialized as Python's shortest round-trip decimals, and +inf survives as
the JSON-extension token ``Infinity``.

The engine is the one definition of a valid trace: a trace is valid if and
only if the engine, run from its header, writes exactly its lines.  Reading
parses the header only, replays the run, and compares each line the engine
writes with the file's line, so no logged value is taken on trust and a
reformatted trace (other separators, ``2`` for ``2.0``) is rejected.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterator

from . import engine
from . import objective as objectives
from .engine import AlgoConfig, InitializationError, IterationRecord, ObjectiveError, StepOutcome, Trace
from .objective import ObjectiveSpec

FORMAT_NAME = "ddsearch-trace"
FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file is missing, truncated, or differs from the run its
    header names."""


def _outcome_to_dict(outcome: StepOutcome) -> dict[str, Any]:
    return {
        "step": outcome.kind,
        "trials": [
            {"point": list(t.point), "value": t.value, "in_domain": t.in_domain}
            for t in outcome.trials
        ],
        "winner": outcome.winner,
        "success": outcome.success,
    }


def _record_to_dict(record: IterationRecord) -> dict[str, Any]:
    return {
        "k": record.k,
        "x": list(record.x),
        "alpha": record.alpha,
        "f": record.f_x,
        "outcomes": [_outcome_to_dict(o) for o in record.outcomes],
        "success": record.success,
        "x_next": list(record.x_next),
        "alpha_next": record.alpha_next,
    }


_line = json.JSONEncoder(separators=(",", ":")).encode


def _header(config: AlgoConfig, objective_name: str) -> dict[str, Any]:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "objective": objective_name,
        "config": dataclasses.asdict(config),
    }


def trace_lines(trace: Trace) -> Iterator[str]:
    yield _line(_header(trace.config, trace.objective_name))
    for record in trace.records:
        yield _line(_record_to_dict(record))
    yield _line({"termination": trace.termination})


def write_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in trace_lines(trace):
            handle.write(line)
            handle.write("\n")


def read_trace(path: str | Path, objective: ObjectiveSpec | None = None) -> Trace:
    """Read a trace file: parse its header, replay the run it names, and
    return the replayed trace if the engine writes exactly the file's
    non-blank lines; else TraceFormatError naming the first line that
    differs.  ``objective`` overrides the registry lookup of the header's
    objective name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    try:
        return _replay(lines, objective)
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace file {path}: {exc}") from exc


def validate_trace(trace: Trace, objective: ObjectiveSpec | None = None) -> None:
    """Raise TraceFormatError unless the engine, run from the trace's config,
    writes exactly ``trace_lines(trace)``: the check ``read_trace`` applies
    to a file."""
    _replay(list(enumerate(trace_lines(trace), 1)), objective)


def _replay(lines: list[tuple[int, str]], objective: ObjectiveSpec | None) -> Trace:
    """The trace the engine writes as ``lines`` (numbered as in the file),
    replayed from the header on the first line and compared line by line.

    The replay runs at most one iteration past the records the file holds,
    so its work is bounded by the file plus one iteration, whose cost
    ``engine.validate_config`` bounds (``MAX_REVEALING_COUNT`` points per
    revealing poll).  No genuine trace replays into an error of the run, so
    such an error is one of the header.
    """
    if not lines:
        raise TraceFormatError("the trace is empty")
    rest = iter(lines)
    number, head = next(rest)
    config, name = _read_header(head)
    records: list[IterationRecord] = []
    try:
        if objective is None:
            # Through the module at call time, so that a rebinding of
            # objective.get_objective (perfbench's tracer) reaches the replay.
            objective = objectives.get_objective(name)
        # Validated before it is written back: a value nested deep enough
        # would overflow the recursion of dataclasses.asdict.
        engine.validate_config(config)
        if head != _line(_header(config, objective.name)):
            raise TraceFormatError(f"line {number} differs from the replayed run")
        for record in engine.iterate(config, objective):
            _expect(rest, _line(_record_to_dict(record)))
            records.append(record)
    except TraceFormatError:
        raise
    except (ValueError, LookupError, InitializationError, ObjectiveError) as exc:
        raise TraceFormatError(f"the header on line {number} does not replay: {exc}") from exc
    trace = engine.trace_of(config, objective.name, tuple(records))
    _expect(rest, _line({"termination": trace.termination}))
    _expect(rest, None)
    return trace


def _read_header(line: str) -> tuple[AlgoConfig, str]:
    """The config and the objective name of a header line."""
    try:
        header = json.loads(line)
    # Not JSON, an integer too long to convert, or arrays nested too deep.
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"the header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"no {FORMAT_NAME} header")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported trace version {header.get('version')!r}")
    name, config = header.get("objective"), header.get("config")
    if not isinstance(name, str) or not isinstance(config, dict):
        raise TraceFormatError("the header lacks an objective name or a config object")
    if isinstance(config.get("x0"), list):
        config["x0"] = tuple(config["x0"])
    try:
        return AlgoConfig(**config), name
    except TypeError as exc:  # an unknown field, or no x0 or alpha0
        raise TraceFormatError(f"the header's config does not fit AlgoConfig: {exc}") from exc


def _expect(lines: Iterator[tuple[int, str]], expected: str | None) -> None:
    """Take the next file line; TraceFormatError unless it is ``expected``
    (None: the end of the file)."""
    number, line = next(lines, (None, None))
    if line == expected:
        return
    if number is None:
        raise TraceFormatError("truncated: the file ends before the replayed run does")
    raise TraceFormatError(f"line {number} differs from the replayed run")
