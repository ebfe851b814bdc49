"""Line-delimited trace files.

Layout: a header object carrying the config and objective name, one object
per iteration record, and a trailer carrying the termination reason.  Floats
are serialized as Python's shortest round-trip decimals, and +inf survives as
the JSON-extension token ``Infinity``.  Records are written by one direct
encoder (``_encoded``) that gives the bytes ``json`` would give for the
record's fields; the header and the trailer are written by ``json``.  The
encoder writes each value's text once and reuses it: by identity for a
value the engine hands on to the next record, and by equality for a nonzero
float within a record, such as a poll trial at step 0.0, which is its
incumbent.  Equal zeros are not reused, as ``0.0 == -0.0``, and a NaN
equals nothing.

The engine is the one definition of a valid trace: a trace is valid if and
only if the engine, run from its header, writes exactly its lines.  Reading
parses the header only, replays the run, and compares each line the engine
writes with the file's line, so no logged value is taken on trust and a
reformatted trace (other separators, ``2`` for ``2.0``) is rejected.

``replay_trace`` is the one reader: it reads the file one line at a time and
yields each record once verified, so its memory does not grow with the
trace.  ``read_trace`` collects its records into a ``Trace``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import engine
from . import objective as objectives
from .engine import AlgoConfig, InitializationError, IterationRecord, ObjectiveError, Trace
from .objective import InputError, ObjectiveSpec

FORMAT_NAME = "ddsearch-trace"
FORMAT_VERSION = 1


class TraceFormatError(ValueError, InputError):
    """A trace file is missing, truncated, or differs from the run its
    header names."""


_line = json.JSONEncoder(separators=(",", ":")).encode
_float_repr = float.__repr__


def _encoded(records: Iterable[IterationRecord]) -> Iterator[tuple[IterationRecord, str]]:
    """Each record with its trace line: the bytes ``json`` writes for its
    fields with compact separators.  Every coordinate, value and step size
    is a float (``np.float64`` included) and is written by ``float.__repr__``.

    The text of a value already written is reused, by identity where the
    engine hands the value on: a record's ``x``, ``alpha`` and ``f`` are the
    objects of the last record's ``x_next``, ``alpha_next`` and (without a
    success) ``f``, and an unsuccessful ``x_next`` is its ``x``.  Within a
    record, a trial point equal to ``x``, a trial value equal to ``f`` and
    an ``alpha_next`` equal to ``alpha`` take their text by equality, since
    equal nonzero floats have one shortest repr.  Zeros are excluded, as
    ``0.0 == -0.0`` and the two are written apart; a NaN equals nothing, so
    it is always written anew."""
    last_x = last_x_text = last_f = last_f_text = last_alpha = last_alpha_text = None
    for record in records:
        k, x, alpha, f_x, outcomes, success, x_next, alpha_next = record
        x_text = last_x_text if x is last_x else "[" + ",".join(map(_float_repr, x)) + "]"
        f_text = last_f_text if f_x is last_f else _float_repr(f_x)
        alpha_text = last_alpha_text if alpha is last_alpha else _float_repr(alpha)
        x_reusable = 0.0 not in x
        steps = []
        for kind, trials, winner, step_success in outcomes:
            trial_texts = [
                f'{{"point":{x_text if point == x and x_reusable else "[" + ",".join(map(_float_repr, point)) + "]"},'
                f'"value":{f_text if value == f_x != 0.0 else _float_repr(value)},'
                f'"in_domain":{"true" if in_domain else "false"}}}'
                for point, value, in_domain in trials
            ]
            steps.append(
                f'{{"step":"{kind}","trials":[{",".join(trial_texts)}],"winner":{"null" if winner is None else winner},'
                f'"success":{"true" if step_success else "false"}}}'
            )
        last_x, last_f, last_f_text, last_alpha = x_next, f_x, f_text, alpha_next
        last_x_text = x_text if x_next is x else "[" + ",".join(map(_float_repr, x_next)) + "]"
        last_alpha_text = alpha_text if alpha_next == alpha != 0.0 else _float_repr(alpha_next)
        line = (
            f'{{"k":{k},"x":{x_text},"alpha":{alpha_text},"f":{f_text},'
            f'"outcomes":[{",".join(steps)}],"success":{"true" if success else "false"},'
            f'"x_next":{last_x_text},"alpha_next":{last_alpha_text}}}'
        )
        # float.__repr__ writes inf, -inf, nan for json's Infinity, -Infinity, NaN; no
        # key, literal or step name holds "inf" or "nan", so one replace maps them all.
        if "inf" in line or "nan" in line:
            line = line.replace("inf", "Infinity").replace("nan", "NaN")
        yield record, line


def _header(config: AlgoConfig, objective_name: str) -> dict[str, Any]:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "objective": objective_name,
        "config": dataclasses.asdict(config),
    }


def trace_lines(trace: Trace) -> Iterator[str]:
    yield _line(_header(trace.config, trace.objective_name))
    for _, line in _encoded(trace.records):
        yield line
    yield _line({"termination": trace.termination})


def write_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in trace_lines(trace):
            handle.write(line)
            handle.write("\n")


def replay_trace(
    path: str | Path, objective: ObjectiveSpec | None = None
) -> tuple[AlgoConfig, ObjectiveSpec, Iterator[IterationRecord]]:
    """Replay a trace file lazily: the config and the objective of its
    header, and an iterator of its records.

    The header is checked at the call.  The iterator reads the file one
    non-blank line at a time and yields each record once the engine,
    replaying the run, has written exactly that line; when exhausted it has
    checked the trailer and the end of the file.  Any difference raises
    TraceFormatError naming the file and the first line that differs.
    ``objective`` overrides the registry lookup of the header's objective
    name.

    The replay runs at most one iteration past the records the file holds,
    so its work is bounded by the file plus one iteration, whose cost
    ``engine.validate_config`` bounds (``MAX_REVEALING_COUNT`` points per
    revealing poll).  No genuine trace replays into an error of the run, so
    such an error is one of the header.
    """
    lines = _file_lines(path)
    try:
        number, head = next(lines, (None, None))
        if head is None:
            raise TraceFormatError("the trace is empty")
        config, name = _read_header(head)
        try:
            if objective is None:
                # Through the module at call time, so that a rebinding of
                # objective.get_objective (perfbench's tracer) reaches the replay.
                objective = objectives.get_objective(name)
            # Validated before it is written back: a value nested deep enough
            # would overflow the recursion of dataclasses.asdict.
            engine.validate_config(config)
        except (ValueError, LookupError) as exc:
            raise TraceFormatError(f"the header on line {number} does not replay: {exc}") from exc
        if head != _line(_header(config, objective.name)):
            raise TraceFormatError(f"line {number} differs from the replayed run")
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace file {path}: {exc}") from exc
    return config, objective, _replayed_records(path, lines, number, config, objective)


def read_trace(path: str | Path, objective: ObjectiveSpec | None = None) -> Trace:
    """Read a trace file: parse its header, replay the run it names, and
    return the replayed trace if the engine writes exactly the file's
    non-blank lines; else TraceFormatError naming the first line that
    differs.  ``objective`` overrides the registry lookup of the header's
    objective name."""
    config, objective, records = replay_trace(path, objective)
    return Trace(config, objective.name, tuple(records))


def _file_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a file, numbered as in the file, read one at a
    time; an unreadable file or line is a TraceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    yield number, line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read: {exc}") from exc


def _replayed_records(
    path: str | Path, lines: Iterator[tuple[int, str]], header_number: int, config: AlgoConfig, objective: ObjectiveSpec
) -> Iterator[IterationRecord]:
    count, alpha = 0, config.alpha0
    try:
        for record, line in _encoded(engine.iterate(config, objective)):
            _expect(lines, line)
            yield record
            count, alpha = count + 1, record.alpha_next
        _expect(lines, _line({"termination": engine.stop_reason(count, alpha, config)}))
        _expect(lines, None)
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace file {path}: {exc}") from exc
    except (ValueError, LookupError, InitializationError, ObjectiveError) as exc:
        raise TraceFormatError(f"trace file {path}: the header on line {header_number} does not replay: {exc}") from exc


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
