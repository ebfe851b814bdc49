"""Line-delimited trace files.

Layout: a header object carrying the config and objective name, one object
per iteration record, and a trailer carrying the termination reason.  Floats
are serialized as Python's shortest round-trip decimals, and the non-finite
values as the JSON-extension tokens ``Infinity``, ``-Infinity`` and ``NaN``.
Records are written by one direct encoder (``_encoded``) that gives the
bytes ``json`` would give for the record's fields; the header and the
trailer are written by ``json``.  The encoder writes each value's text once,
mapping the tokens on that text as it is made, and reuses it: by identity
for a value the engine hands on to the next record and for the incumbent's
trial, which every trial at the incumbent is, such as a poll trial at step
0.0, and by equality for a nonzero step size that a record keeps.  Equal
zeros are not reused, as ``0.0 == -0.0``, and a NaN equals nothing.
``write_trace`` hands every line to the file in one ``writelines`` call.

The engine is the one definition of a valid trace: a valid trace is exactly
the bytes ``write_trace`` writes for the run its header names, each line
ended by a line feed.  Reading parses the header only, replays the run, and
compares each line the engine writes with the file's line, so no logged
value is taken on trust, and a reformatted trace (other separators, ``2``
for ``2.0``, another line ending, a blank line) is rejected.

``replay_trace`` is the one reader: it reads the file one line at a time and
yields each record once verified, so its memory does not grow with the
trace.  No read takes more of a line than the replay can match: the header
is read up to ``HEADER_LIMIT`` = 2**20 characters, which hold an ``x0`` of
about 40 000 coordinates, and a longer header is a TraceFormatError; every
other line up to one character past the line the engine writes and its line
feed.  ``read_trace`` collects its records into a ``Trace``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Generator, Iterable, Iterator

from . import engine
from . import objective as objectives
from .engine import AlgoConfig, InitializationError, IterationRecord, ObjectiveError, Trace
from .objective import InputError, ObjectiveSpec

FORMAT_NAME = "ddsearch-trace"
FORMAT_VERSION = 1
HEADER_LIMIT = 2**20


class TraceFormatError(ValueError, InputError):
    """A trace file is missing, truncated, or differs from the run its
    header names."""


_line = json.JSONEncoder(separators=(",", ":")).encode
_float_repr = float.__repr__


# float.__repr__ writes inf, -inf and nan for json's Infinity, -Infinity and
# NaN, and the repr of a finite float holds no "n"; so a number text is
# mapped only where it holds one.
def _number_text(value: float) -> str:
    """``value`` as ``json`` writes it."""
    text = _float_repr(value)
    return text if "n" not in text else text.replace("inf", "Infinity").replace("nan", "NaN")


def _vector_text(vector: Iterable[float]) -> str:
    """``vector`` as ``json`` writes it, an array of its coordinates."""
    text = "[" + ",".join(map(_float_repr, vector)) + "]"
    return text if "n" not in text else text.replace("inf", "Infinity").replace("nan", "NaN")


def _encoded(records: Iterable[IterationRecord]) -> Iterator[tuple[IterationRecord, str]]:
    """Each record with its trace line: the bytes ``json`` writes for its
    fields with compact separators.  Every coordinate, value and step size
    is a float (``np.float64`` included) and is written by ``float.__repr__``,
    with ``json``'s tokens for the non-finite values mapped on each value's
    text as it is written (``_number_text``, ``_vector_text``); a reused text
    is already mapped, so a finished line is not scanned again.

    The text of a value already written is reused, by identity where the
    engine hands the value on: a record's ``x``, ``alpha`` and ``f`` are the
    objects of the last record's ``x_next``, ``alpha_next`` and (without a
    success) ``f``, and an unsuccessful ``x_next`` is its ``x``.  So is the
    text of the latest trial whose point is its record's ``x``: every trial
    at the incumbent is the incumbent's own ``TrialPoint`` (``engine.iterate``),
    written once while it stays the incumbent.  An ``alpha_next`` equal to
    ``alpha`` takes its text by equality, since equal nonzero floats have one
    shortest repr; zeros are excluded, as ``0.0 == -0.0`` and the two are
    written apart, and a NaN equals nothing, so it is always written anew."""
    last_x = last_x_text = last_f = last_f_text = last_alpha = last_alpha_text = held = held_text = None
    for record in records:
        k, x, alpha, f_x, outcomes, success, x_next, alpha_next = record
        x_text = last_x_text if x is last_x else _vector_text(x)
        f_text = last_f_text if f_x is last_f else _number_text(f_x)
        alpha_text = last_alpha_text if alpha is last_alpha else _number_text(alpha)
        steps = []
        for kind, trials, winner, step_success in outcomes:
            trial_texts = []
            for trial in trials:
                if trial is not held:
                    point, value, in_domain = trial
                    text = (
                        f'{{"point":{_vector_text(point)},"value":{_number_text(value)},'
                        f'"in_domain":{"true" if in_domain else "false"}}}'
                    )
                    if point is x:
                        held, held_text = trial, text
                    trial_texts.append(text)
                else:
                    trial_texts.append(held_text)
            steps.append(
                f'{{"step":"{kind}","trials":[{",".join(trial_texts)}],"winner":{"null" if winner is None else winner},'
                f'"success":{"true" if step_success else "false"}}}'
            )
        last_x, last_f, last_f_text, last_alpha = x_next, f_x, f_text, alpha_next
        last_x_text = x_text if x_next is x else _vector_text(x_next)
        last_alpha_text = alpha_text if alpha_next == alpha != 0.0 else _number_text(alpha_next)
        yield record, (
            f'{{"k":{k},"x":{x_text},"alpha":{alpha_text},"f":{f_text},'
            f'"outcomes":[{",".join(steps)}],"success":{"true" if success else "false"},'
            f'"x_next":{last_x_text},"alpha_next":{last_alpha_text}}}'
        )


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
        handle.writelines(line + "\n" for line in trace_lines(trace))


def replay_trace(
    path: str | Path, objective: ObjectiveSpec | None = None
) -> tuple[AlgoConfig, ObjectiveSpec, Iterator[IterationRecord]]:
    """Replay a trace file lazily: the config and the objective of its
    header, and an iterator of its records.

    The header is checked at the call.  The iterator reads the file one
    line at a time and yields each record once the engine, replaying the
    run, has written exactly that line and its line feed; when exhausted it
    has checked the trailer and the end of the file, so a file that
    replays is exactly the bytes ``write_trace`` writes.  Any difference
    raises TraceFormatError naming the file and the first line that
    differs, the header being line 1 and the record of iteration k line
    k + 2; so does, unread, a path that exists but is not a regular file.
    ``objective`` overrides the registry lookup of the header's objective
    name.

    The replay runs at most one iteration past the records the file holds,
    so its work is bounded by the file plus one iteration, whose cost
    ``engine.validate_config`` bounds (``MAX_REVEALING_COUNT`` points per
    revealing poll).  No genuine trace replays into an error of the run, so
    such an error is one of the header.
    """
    lines = _file_lines(path)
    next(lines)
    try:
        # A directory or a device (/dev/zero) holds no trace, and a device
        # may never end.
        if Path(path).exists() and not Path(path).is_file():
            raise TraceFormatError("not a regular file")
        head = lines.send(HEADER_LIMIT + 1)
        if not head:
            raise TraceFormatError("the trace is empty")
        if len(head) > HEADER_LIMIT and not head.endswith("\n"):
            raise TraceFormatError(f"the header on line 1 is longer than {HEADER_LIMIT} characters")
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
            raise TraceFormatError(f"the header on line 1 does not replay: {exc}") from exc
        if head != _line(_header(config, objective.name)) + "\n":
            raise TraceFormatError("line 1 differs from the replayed run")
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace file {path}: {exc}") from exc
    return config, objective, _replayed_records(path, lines, config, objective)


def read_trace(path: str | Path, objective: ObjectiveSpec | None = None) -> Trace:
    """Read a trace file: parse its header, replay the run it names, and
    return the replayed trace if the file is exactly the bytes
    ``write_trace`` writes for it; else TraceFormatError naming the first
    line that differs.  ``objective`` overrides the registry lookup of the
    header's objective name."""
    config, objective, records = replay_trace(path, objective)
    return Trace(config, objective.name, tuple(records))


def _file_lines(path: str | Path) -> Generator[str, int, None]:
    """The lines of a file as they are on disk, each with its line feed: the
    file is opened without newline translation, so a line ends at a line
    feed only.  Primed with ``next``, each ``send(limit)`` reads at most
    ``limit`` characters of the next line; "" at the end of the file.  The
    file is opened at the first ``send``; an unreadable file or line is a
    TraceFormatError."""
    limit = yield ""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            while True:
                limit = yield handle.readline(limit)
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read: {exc}") from exc


def _replayed_records(
    path: str | Path,
    lines: Generator[str, int, None],
    config: AlgoConfig,
    objective: ObjectiveSpec,
) -> Iterator[IterationRecord]:
    count, alpha = 0, config.alpha0
    try:
        for record, line in _encoded(engine.iterate(config, objective)):
            _expect(lines, count + 2, line)
            yield record
            count, alpha = count + 1, record.alpha_next
        _expect(lines, count + 2, _line({"termination": engine.stop_reason(count, alpha, config)}))
        if lines.send(1):
            raise TraceFormatError(f"line {count + 3} differs from the replayed run")
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace file {path}: {exc}") from exc
    except (ValueError, LookupError, InitializationError, ObjectiveError) as exc:
        raise TraceFormatError(f"trace file {path}: the header on line 1 does not replay: {exc}") from exc


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


def _expect(lines: Generator[str, int, None], number: int, expected: str) -> None:
    """Read file line ``number`` up to one character past ``expected`` and
    its line feed; TraceFormatError unless it is exactly those."""
    line = lines.send(len(expected) + 2)
    if line == expected + "\n":
        return
    if not line:
        raise TraceFormatError("truncated: the file ends before the replayed run does")
    raise TraceFormatError(f"line {number} differs from the replayed run")
