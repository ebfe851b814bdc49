"""Line-delimited trace files.

Layout: a header object carrying the config and objective name, one object
per iteration record, and a trailer carrying the termination reason.  Floats
are serialized as Python's shortest round-trip decimals, so a written trace
re-reads to bit-identical values, and +inf survives as the JSON-extension
token ``Infinity``.  Reading a trace checks it against the engine's
iteration rules (``validate_trace``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable

from . import engine, steps
from .engine import AlgoConfig, IterationRecord, StepOutcome, Trace, TrialPoint

FORMAT_NAME = "ddsearch-trace"
FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file is missing, truncated, structurally invalid, or breaks
    the iteration rules of the engine."""


def config_to_dict(config: AlgoConfig) -> dict[str, Any]:
    data = dataclasses.asdict(config)
    data["x0"] = list(config.x0)
    return data


def config_from_dict(data: dict[str, Any]) -> AlgoConfig:
    fields = {f.name for f in dataclasses.fields(AlgoConfig)}
    unknown = set(data) - fields
    if unknown:
        raise TraceFormatError(f"unknown config fields in trace header: {sorted(unknown)}")
    missing = fields - set(data)
    if missing:
        raise TraceFormatError(f"missing config fields in trace header: {sorted(missing)}")
    prepared = dict(data)
    prepared["x0"] = tuple(data["x0"])
    return AlgoConfig(**prepared)


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


def _typed(value: Any, types: frozenset[type], field: str) -> Any:
    """``value`` if its JSON type is in ``types``, else TypeError; a JSON
    boolean is never an integer here."""
    if type(value) not in types:
        raise TypeError(f"{field} has the wrong type: {value!r}")
    return value


_NUMBER = frozenset((int, float))
_INTEGER = frozenset((int,))
_OPTIONAL_INTEGER = frozenset((int, type(None)))
_BOOLEAN = frozenset((bool,))


def _number(value: Any, field: str) -> float:
    if type(value) not in _NUMBER:
        raise TypeError(f"{field} has the wrong type: {value!r}")
    return float(value)


def _vector(values: Any, field: str) -> tuple[float, ...]:
    if type(values) is not list or not _NUMBER.issuperset(map(type, values)):
        raise TypeError(f"{field} has the wrong type: {values!r}")
    return tuple(map(float, values))


def _outcome_from_dict(data: dict[str, Any]) -> StepOutcome:
    trials = tuple(
        TrialPoint(
            point=_vector(t["point"], "point"),
            value=_number(t["value"], "value"),
            in_domain=_typed(t["in_domain"], _BOOLEAN, "in_domain"),
        )
        for t in data["trials"]
    )
    return StepOutcome(
        kind=data["step"],
        trials=trials,
        winner=_typed(data["winner"], _OPTIONAL_INTEGER, "winner"),
        success=_typed(data["success"], _BOOLEAN, "step success"),
    )


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


def _record_from_dict(data: dict[str, Any]) -> IterationRecord:
    return IterationRecord(
        k=_typed(data["k"], _INTEGER, "k"),
        x=_vector(data["x"], "x"),
        alpha=_number(data["alpha"], "alpha"),
        f_x=_number(data["f"], "f"),
        outcomes=tuple(_outcome_from_dict(o) for o in data["outcomes"]),
        success=_typed(data["success"], _BOOLEAN, "success"),
        x_next=_vector(data["x_next"], "x_next"),
        alpha_next=_number(data["alpha_next"], "alpha_next"),
    )


def trace_lines(trace: Trace) -> Iterable[str]:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "objective": trace.objective_name,
        "config": config_to_dict(trace.config),
    }
    yield json.dumps(header, separators=(",", ":"))
    for record in trace.records:
        yield json.dumps(_record_to_dict(record), separators=(",", ":"))
    yield json.dumps({"termination": trace.termination}, separators=(",", ":"))


def write_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in trace_lines(trace):
            handle.write(line)
            handle.write("\n")


def read_trace(path: str | Path) -> Trace:
    """Read a trace file and check it with ``validate_trace``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    if len(lines) < 2:
        raise TraceFormatError(f"trace file {path} is truncated")
    try:
        parsed = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"trace file {path} is not valid line-delimited JSON: {exc}") from exc

    header, body, trailer = parsed[0], parsed[1:-1], parsed[-1]
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"trace file {path} has no {FORMAT_NAME} header")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported trace version {header.get('version')!r}")
    if not isinstance(trailer, dict) or "termination" not in trailer:
        raise TraceFormatError(f"trace file {path} has no termination trailer")
    try:
        trace = Trace(
            config=config_from_dict(header["config"]),
            objective_name=str(header["objective"]),
            records=tuple(_record_from_dict(r) for r in body),
            termination=str(trailer["termination"]),
        )
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"malformed trace record in {path}: {exc}") from exc
    try:
        validate_trace(trace)
    except TraceFormatError as exc:
        raise TraceFormatError(f"inconsistent trace {path}: {exc}") from None
    return trace


def validate_trace(trace: Trace) -> None:
    """Raise TraceFormatError unless the trace obeys the rules ``engine.run``
    follows when it writes one.

    Checks the header config, that every record continues from the one
    before it (``k``, ``x``, ``alpha``, ``f``), that its steps are a prefix
    of ``engine.step_kinds`` ending at the first success, every logged
    ``winner``/``success`` against ``engine.verdict``, that out-of-domain
    trials carry +inf, the update rule of ``engine.update`` (exact
    in ``alpha_next``), and the termination against ``engine.stop_reason``.
    The objective is never evaluated, so trial points are taken as logged.
    """
    config = trace.config
    try:
        engine.validate_config(config)
        dimension = len(config.x0)
        steps.get_search_schedule(config.search_schedule, dimension)
        steps.get_poll_directions(config.poll_directions, dimension)
        forcing = steps.get_forcing(config.forcing)
    except (ValueError, LookupError, ArithmeticError) as exc:
        raise TraceFormatError(f"invalid config in trace header: {exc}") from None
    kinds = engine.step_kinds(config)
    records = trace.records
    # The objective is never evaluated, so the value at x0 is taken as logged.
    x, alpha, f_x = tuple(config.x0), config.alpha0, records[0].f_x if records else 0.0
    if not math.isfinite(f_x):
        raise TraceFormatError(f"record 0 has a non-finite incumbent value {f_x}")
    for index, record in enumerate(records):
        if (record.k, record.x, record.alpha, record.f_x) != (index, x, alpha, f_x):
            raise TraceFormatError(f"record {index} does not continue from the one before it (k, x, alpha or f)")
        if engine.stop_reason(index, alpha, config) is not None:
            raise TraceFormatError(f"record {index} follows the end of the run")
        _check_steps(record, kinds, dimension, forcing)
        if engine.update(x, alpha, record.outcomes, config) != (record.success, record.x_next, record.alpha_next):
            raise TraceFormatError(f"record {index} breaks the update rule (success, x_next or alpha_next)")
        x, alpha, f_x = record.x_next, record.alpha_next, record.f_next
    if engine.stop_reason(len(records), alpha, config) != trace.termination:
        raise TraceFormatError(
            f"termination {trace.termination!r} does not match {len(records)} records and alpha {alpha}"
        )


def _check_steps(
    record: IterationRecord, kinds: tuple[str, ...], dimension: int, forcing: steps.ForcingFunction
) -> None:
    """The steps of one record: their order, trials and verdicts."""
    outcomes = record.outcomes
    if not 0 < len(outcomes) <= len(kinds):
        raise TraceFormatError(f"record {record.k} has {len(outcomes)} steps")
    last = len(outcomes) - 1
    for i, outcome in enumerate(outcomes):
        if outcome.kind != kinds[i]:
            raise TraceFormatError(f"record {record.k}: step {i} is {outcome.kind!r}, expected {kinds[i]!r}")
        for trial in outcome.trials:
            if len(trial.point) != dimension:
                raise TraceFormatError(
                    f"record {record.k}: {outcome.kind} trial point has dimension {len(trial.point)}, not {dimension}"
                )
            if not trial.in_domain and trial.value != math.inf:
                raise TraceFormatError(f"record {record.k}: out-of-domain {outcome.kind} trial has value {trial.value}")
        if (outcome.winner, outcome.success) != engine.verdict(outcome.trials, record.x, record.f_x, forcing):
            raise TraceFormatError(f"record {record.k}: {outcome.kind} winner or success differs from the verdict")
        if outcome.success and i < last:
            raise TraceFormatError(f"record {record.k}: steps continue after the {outcome.kind} success")
    if not outcomes[last].success and last < len(kinds) - 1:
        raise TraceFormatError(f"record {record.k}: steps stop before a success")
