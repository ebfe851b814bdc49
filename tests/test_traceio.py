"""Trace persistence.  The reader's one rule, that a file is accepted exactly
when it is the bytes ``write_trace`` writes for the run its header names, has
one oracle here, ``test_reader_raises_only_trace_format_error``, and criterion
9 round-trips 1000 drawn runs.  The other tests check the encoder's bytes and
what the oracle does not draw: header edits, line ends and bounded reads."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsearch import AlgoConfig, get_objective, objective, read_trace, run, write_trace
from ddsearch.cli import main
from ddsearch.engine import MAX_REVEALING_COUNT, POLL, REVEALING_POLL, IterationRecord, StepOutcome, Trace, TrialPoint
from ddsearch.objective import ObjectiveSpec
from ddsearch.traceio import TraceFormatError, replay_trace, trace_lines

from helpers import counterexample_config, peak_memory, random_config, revealing_config


def test_a_cut_trace_is_written_without_a_termination_and_does_not_replay(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    write_trace(dataclasses.replace(vanilla_trace_52, records=vanilla_trace_52.records[:10]), path)
    assert path.read_text().splitlines()[-1] == '{"termination":null}'
    with pytest.raises(TraceFormatError, match=r"line 12\b"):
        read_trace(path)


def test_round_trip_preserves_infinite_values(tmp_path):
    spec = ObjectiveSpec("right_half", 1, lambda p: p[0] * p[0], domain_oracle=lambda p: p[0] >= 0.0)
    trace = run(counterexample_config(x0=(0.25,), alpha0=0.5, search_schedule="none", max_iterations=6), spec)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    recovered = read_trace(path, spec)
    assert recovered == trace
    values = [t.value for r in recovered.records for o in r.outcomes for t in o.trials]
    assert math.inf in values


@pytest.mark.parametrize(
    "overrides", [dict(revealing_radius=2.0, max_iterations=0), dict(revealing_radius=None, max_iterations=5)]
)
def test_round_trip_of_a_run_that_never_draws(tmp_path, counterexample_objective, overrides):
    # No revealing poll runs, so the trace logs none of the points a poll would draw.
    config = revealing_config(revealing_count=MAX_REVEALING_COUNT, **overrides)
    trace = run(config, counterexample_objective)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert path.stat().st_size < MAX_REVEALING_COUNT
    assert read_trace(path) == trace


def _holds(parsed, value) -> bool:
    """Whether a parsed JSON value holds ``value``, a record, which is the
    nested tuple of its fields; an object is read as its values in order:
    numbers of the same type and value, NaN for NaN, zeros with their
    sign."""
    if isinstance(parsed, dict):
        parsed = tuple(parsed.values())
    if isinstance(parsed, list):
        parsed = tuple(parsed)
    if isinstance(value, tuple):
        return isinstance(parsed, tuple) and len(parsed) == len(value) and all(map(_holds, parsed, value))
    if isinstance(value, float):
        same = parsed == value and math.copysign(1.0, parsed) == math.copysign(1.0, value)
        return type(parsed) is float and (same or math.isnan(parsed) and math.isnan(value))
    return type(parsed) is type(value) and parsed == value


# Numbers at the edges of what the encoder writes, in a hand-built record:
# np.float64 coordinates, signed zero, the least subnormal, a float that
# Python writes in exponent form, and the three non-finite values.
_EDGE_RECORD = IterationRecord(
    k=7,
    x=(np.float64(0.1), -0.0),
    alpha=5e-324,
    f_x=1e16,
    outcomes=(
        StepOutcome(
            REVEALING_POLL,
            (
                TrialPoint((np.float64(1e-7), 2.5), math.inf, True),
                TrialPoint((1e16, -0.0), -math.inf, True),
                TrialPoint((5e-324, np.float64(-1e-7)), math.nan, False),
            ),
            None,
            False,
        ),
    ),
    success=False,
    x_next=(np.float64(0.1), -0.0),
    alpha_next=1e-7,
)
# After it, a record whose x, f, alpha, x_next and alpha_next are each
# non-finite and none the object of a value written before, so each is
# written anew.
_EDGE_NEXT = IterationRecord(
    k=8, x=(math.inf, -0.0), alpha=math.nan, f_x=-math.inf, outcomes=(), success=False,
    x_next=(math.nan, -math.inf), alpha_next=math.inf,
)


# The encoder reuses the text of what it has written by identity, where the
# engine hands a value or a trial on.  Each record puts next to a written
# value an equal one of another object, type or sign.  Record 0's alpha_next
# equals its alpha and its x_next is the winning trial's point.  Record 1's
# x is -0.0 after that x_next of 0.0, its f is the winning trial's value
# object, its poll trial (0.0,) at (-0.0,) has value -0.0 under f 0.0, and
# its x_next is 0.0 again.  Record 2's x_next is its x and holds NaN, as do
# its f and trial value.  Record 3 is the n-D form, with a zero coordinate
# in x and a trial value 0.0 under f -0.0, and its step 0.0 goes to -0.0.
# Record 4's trial point, trial value and alpha_next are np.float64 values
# equal to its Python floats.  Records 5 and 6 write an inf and a NaN f next
# to trial values of other objects.  Record 7 holds two trials whose point
# is its x object, with other values, and record 8 repeats the first of
# them, now away from its x, beside a trial of the same point and another
# value.  Record 9 fails with f 0.0, and record 10 has f -0.0 and the alpha
# object of record 9, whose alpha_next differs.
_ORIGIN, _NAN_POINT, _AT, _ALPHA = (0.0,), (math.nan,), (0.75,), 0.375
_WON = StepOutcome(POLL, (TrialPoint(_ORIGIN, 0.0, True),), 0, True)
_LOST = StepOutcome(POLL, (TrialPoint(_NAN_POINT, math.nan, True),), None, False)
_AT_X = StepOutcome(POLL, (TrialPoint(_AT, 1.0, True), TrialPoint(_AT, 2.0, True)), None, False)


def _polled(*trials):
    return (StepOutcome(POLL, tuple(TrialPoint(point, value, True) for point, value in trials), None, False),)


_REUSE_RECORDS = (
    IterationRecord(0, (0.5,), 0.5, 0.25, (_WON,), True, _ORIGIN, 0.5),
    IterationRecord(1, (-0.0,), 0.5, _WON.trials[0].value, _polled(((0.0,), -0.0)), False, (0.0,), 0.25),
    IterationRecord(2, _NAN_POINT, 0.25, math.nan, (_LOST,), False, _NAN_POINT, 0.125),
    IterationRecord(
        3, (0.5, -0.0), 0.0, -0.0, _polled(((0.5, 0.0), 0.0), ((0.5, -0.0), -0.0)), False, (0.5, -0.0), -0.0
    ),
    IterationRecord(
        4, (0.75, 2.0), 0.125, 1.5, _polled(((np.float64(0.75), np.float64(2.0)), np.float64(1.5))), False,
        (0.75, 2.0), np.float64(0.125),
    ),
    IterationRecord(
        5, (0.75,), 0.125, math.inf, _polled(((0.75,), float("inf")), ((1.0,), -math.inf)), False, (0.75,), 0.125
    ),
    IterationRecord(
        6, (0.75,), 0.125, float("nan"), _polled(((0.75,), math.nan), ((0.75,), float("nan"))), False, (0.75,), 0.0625
    ),
    IterationRecord(7, _AT, 0.0625, 1.0, (_AT_X,), False, _AT, 0.03125),
    IterationRecord(
        8, (0.5,), 0.03125, 1.0, (_AT_X._replace(trials=(_AT_X.trials[0], TrialPoint(_AT, 3.0, True))),), False,
        (0.5,), 0.015625,
    ),
    IterationRecord(9, (0.5,), _ALPHA, 0.0, _polled(((0.25,), 1.0)), False, (0.5,), 0.1875),
    IterationRecord(10, (0.5,), _ALPHA, -0.0, _polled(((0.25,), 1.0)), False, (0.5,), 0.1875),
)


def _bowl(point):
    return point[0] * point[0] + 2.0 * point[1] * point[1]


@pytest.mark.parametrize(
    "make_trace, first_line_holds",
    [
        # alpha0 and gamma as Python ints: the engine's step size is a float
        # all the same.
        (
            lambda: run(
                AlgoConfig(x0=(3.0,), alpha0=1, gamma=1, poll_directions="pm1", max_iterations=6),
                get_objective("quadratic_1d"),
            ),
            '"alpha":1.0,',
        ),
        (
            lambda: Trace(counterexample_config(), "counterexample", (_EDGE_RECORD, _EDGE_NEXT)),
            '"x":[0.1,-0.0],"alpha":5e-324,"f":1e+16,',
        ),
        (
            lambda: run(
                revealing_config(
                    x0=(1.5, -0.5), revealing_count=3, poll_directions="coordinate", search_schedule="none"
                ),
                ObjectiveSpec("bowl_2d", 2, _bowl),
            ),
            '"x":[1.5,-0.5],',
        ),
        (
            lambda: Trace(counterexample_config(), "counterexample", _REUSE_RECORDS),
            '"x_next":[0.0],',
        ),
    ],
    ids=["int step sizes", "edge numbers", "n-D run", "reused vectors"],
)
def test_record_lines_are_the_json_of_the_record(make_trace, first_line_holds):
    trace = make_trace()
    assert first_line_holds in list(trace_lines(trace))[1]
    _assert_lines_hold(trace)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(drawn=random_config())
def test_record_lines_of_drawn_runs_are_the_json_of_the_record(drawn):
    config, objective_name = drawn
    _assert_lines_hold(run(config, get_objective(objective_name)))


def _assert_lines_hold(trace):
    """Each record line of ``trace`` is compact ``json`` that holds its record."""
    lines = list(trace_lines(trace))[1:-1]
    assert len(lines) == len(trace.records)
    for line, record in zip(lines, trace.records):
        assert json.dumps(json.loads(line), separators=(",", ":")) == line
        assert _holds(json.loads(line), record)


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        read_trace(tmp_path / "absent.jsonl")


def test_read_truncated_file_raises(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n")
    with pytest.raises(TraceFormatError, match="truncated"):
        read_trace(path)


def test_read_corrupt_json_raises(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    path.write_text(path.read_text() + "{not json\n")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_read_wrong_header_raises(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"format":"something-else"}\n{"termination":"max_iterations"}\n')
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(path)


def test_read_unknown_config_field_raises(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    text = path.read_text().replace('"alpha0":', '"alpha_zero":', 1)
    path.write_text(text)
    with pytest.raises(TraceFormatError):
        read_trace(path)


def _assert_rejected(path, message, monkeypatch, capsys):
    """Reading ``path`` raises TraceFormatError matching ``message``, and
    ``analyze`` exits 2 without printing a gap."""
    with pytest.raises(TraceFormatError, match=message):
        read_trace(path)
    monkeypatch.chdir(path.parent)
    assert main(["analyze", path.name, "--expect-gap", "1.5", "--tol", "1e-3"]) == 2
    assert "gap" not in capsys.readouterr().out


def _write_parsed(path, parsed):
    """Write parsed lines as ``trace_lines`` does, so that an edit is the
    only difference from the genuine trace."""
    path.write_text("".join(json.dumps(data, separators=(",", ":")) + "\n" for data in parsed))


# Each corruption edits the parsed lines of the 52-iteration trace: line 0 is
# the header, line 1 + k the record of iteration k, line 53 the trailer; in
# the file, parsed line i is line i + 1.  An edit of one record line is the
# fuzz oracle's (test_reader_raises_only_trace_format_error); the two kept
# here are a line that analyze reaches after nearly every record, and the
# trailer.  Each header edit reaches a rejection of its own.
CORRUPTIONS = {
    "f on an unsuccessful record": (lambda t: t[51].update(f=0.5), r"line 52\b"),
    "termination": (lambda t: t[53].update(termination="alpha_min"), r"line 54\b"),
    "header beta2 = 7": (lambda t: t[0]["config"].update(beta2=7.0), "beta2"),
    'header alpha0 = "abc"': (lambda t: t[0]["config"].update(alpha0="abc"), "alpha0"),
    "unknown forcing": (lambda t: t[0]["config"].update(forcing="cubic"), "cubic"),
    "header gamma = 10**400": (lambda t: t[0]["config"].update(gamma=10**400), "gamma"),
    # A field with a default replays from the default, and the header the
    # engine writes then names it.
    "header without seed": (lambda t: t[0]["config"].pop("seed"), r"line 1\b"),
    "header without x0": (lambda t: t[0]["config"].pop("x0"), "x0"),
    "header x0 = []": (lambda t: t[0]["config"].update(x0=[]), "x0 must have at least one component"),
    "header config null": (lambda t: t[0].update(config=None), "lacks an objective name or a config object"),
    # The replay stops at the trailer, one iteration past the last record.
    "max_iterations = 10**12 over 5 records": (
        lambda t: (t[0]["config"].update(max_iterations=10**12), t.__delitem__(slice(6, 53))),
        r"line 7\b",
    ),
    # Beyond the file length, and beyond MAX_REVEALING_COUNT.
    "revealing_count beyond the file length": (
        lambda t: t[0]["config"].update(revealing_radius=2.0, revealing_count=10**5),
        "revealing_count",
    ),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_inconsistent_trace_is_rejected(tmp_path, monkeypatch, capsys, vanilla_trace_52, name):
    corrupt, message = CORRUPTIONS[name]
    parsed = [json.loads(line) for line in trace_lines(vanilla_trace_52)]
    assert len(parsed) == 54
    corrupt(parsed)
    path = tmp_path / "trace.jsonl"
    _write_parsed(path, parsed)
    _assert_rejected(path, message, monkeypatch, capsys)


@pytest.mark.parametrize("depth,message", [(600, "seed"), (100_000, "not valid JSON")])
def test_deeply_nested_header_value_is_rejected(tmp_path, monkeypatch, capsys, vanilla_trace_52, depth, message):
    # 600 levels parse, but would overflow the recursion of writing the
    # header back; 100 000 overflow the JSON parser itself.
    lines = list(trace_lines(vanilla_trace_52))
    lines[0] = lines[0].replace('"seed":0', '"seed":' + "[" * depth + "]" * depth)
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _assert_rejected(path, message, monkeypatch, capsys)


def test_integer_valued_rewrite_is_rejected(tmp_path, monkeypatch, capsys):
    trace = run(
        counterexample_config(x0=(2.0,), alpha0=1.0, search_schedule="none", max_iterations=4),
        get_objective("quadratic_1d"),
    )
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    text, count = re.subn(r"(\d)\.0\b", r"\1", path.read_text())
    assert count > 10
    path.write_text(text)
    # The header's integers replay as they read; the engine logs floats.
    _assert_rejected(path, r"line 2\b", monkeypatch, capsys)


def test_reformatted_trace_is_rejected(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in trace_lines(vanilla_trace_52)))
    with pytest.raises(TraceFormatError, match=r"line 1\b"):
        read_trace(path)


def _inserted(text, index, insert):
    """``text`` with ``insert`` put ahead of its line ``index`` (from 0)."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:index] + [insert] + lines[index:])


# Each edit changes the bytes of the 52-iteration trace in a way a lenient
# line reader would forgive: file line 1 is the header, line k + 2 the record
# of iteration k, line 54 the trailer.
LINE_EDITS = {
    "CRLF line endings": (lambda text: text.replace("\n", "\r\n"), r"line 1\b"),
    "CR line endings": (lambda text: text.replace("\n", "\r"), "the header is not valid JSON"),
    "a blank line 6": (lambda text: _inserted(text, 5, "\n"), r"line 6\b"),
    "a blank line after the trailer": (lambda text: text + "\n", r"line 55\b"),
    "no final newline": (lambda text: text[:-1], r"line 54\b"),
    # More blanks than the read of line 4 takes.
    "blanks ahead of a record": (lambda text: _inserted(text, 3, " \t" * 2000), r"line 4\b"),
}


@pytest.mark.parametrize("name", list(LINE_EDITS))
def test_a_trace_is_exactly_the_bytes_write_trace_writes(tmp_path, monkeypatch, capsys, vanilla_trace_52, name):
    edit, message = LINE_EDITS[name]
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    _assert_rejected(path, message, monkeypatch, capsys)


def test_wide_x0_header_is_rejected_within_bounded_time_and_memory(tmp_path, monkeypatch, capsys, vanilla_trace_52):
    # A 2000-wide coordinate poll set would hold 4000 x 2000 floats; the
    # dimension check of the replay runs before any poll set is built.
    parsed = [json.loads(line) for line in trace_lines(vanilla_trace_52)]
    parsed[0]["config"].update(x0=[1.25] * 2000, search_schedule="none", poll_directions="coordinate")
    path = tmp_path / "trace.jsonl"
    _write_parsed(path, parsed)
    start = time.perf_counter()
    rejection, peak = peak_memory(lambda: pytest.raises(TraceFormatError, read_trace, path))
    rejection.match("dimension")
    assert time.perf_counter() - start < 1.0
    assert peak < 20 * 2**20
    _assert_rejected(path, "dimension", monkeypatch, capsys)


def test_a_file_with_no_newline_is_rejected_within_bounded_memory(tmp_path):
    # 64 MiB of NULs on one line: the header is read up to its limit only.
    path = tmp_path / "no_newline.jsonl"
    with open(path, "wb") as handle:
        handle.truncate(64 * 2**20)
    rejection, peak = peak_memory(lambda: pytest.raises(TraceFormatError, replay_trace, path))
    rejection.match(r"the header on line 1 is longer than 1048576 characters")
    assert peak < 8 * 2**20


def test_a_record_line_with_no_newline_is_rejected_within_bounded_memory(tmp_path, vanilla_trace_52):
    # A valid header and first record, then 64 MiB of spaces on line 3: the
    # line is read up to one character past the record the engine writes.
    header, first = list(trace_lines(vanilla_trace_52))[:2]
    path = tmp_path / "no_newline.jsonl"
    with open(path, "wb") as handle:
        handle.write(f"{header}\n{first}\n".encode())
        for _ in range(64):
            handle.write(b" " * 2**20)
    rejection, peak = peak_memory(lambda: pytest.raises(TraceFormatError, read_trace, path))
    rejection.match(r"line 3 differs")
    assert peak < 8 * 2**20


def test_header_at_the_revealing_count_cap_is_rejected_within_bounded_time_and_memory(
    tmp_path, monkeypatch, capsys, vanilla_trace_52
):
    # A short trace whose header asks for the most points one revealing poll
    # may draw: the replay draws them once, then differs on the first record.
    parsed = [json.loads(line) for line in trace_lines(vanilla_trace_52)][:5] + [{"termination": "max_iterations"}]
    parsed[0]["config"].update(revealing_radius=2.0, revealing_count=MAX_REVEALING_COUNT)
    path = tmp_path / "trace.jsonl"
    _write_parsed(path, parsed)
    start = time.perf_counter()
    rejection, peak = peak_memory(lambda: pytest.raises(TraceFormatError, read_trace, path))
    rejection.match(r"line 2\b")
    assert time.perf_counter() - start < 1.0
    assert peak < 20 * 2**20
    _assert_rejected(path, r"line 2\b", monkeypatch, capsys)


def test_read_trace_replays_with_a_passed_objective(tmp_path, vanilla_trace_52):
    spec = ObjectiveSpec("right_half", 1, lambda p: p[0] * p[0], domain_oracle=lambda p: p[0] >= 0.0)
    trace = run(counterexample_config(x0=(0.25,), alpha0=0.5, search_schedule="none", max_iterations=6), spec)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert read_trace(path, spec) == trace
    with pytest.raises(TraceFormatError, match="unknown objective 'right_half'"):
        read_trace(path)
    write_trace(vanilla_trace_52, path)
    with pytest.raises(TraceFormatError, match=r"line 1\b"):
        read_trace(path, spec)


def test_replay_looks_the_objective_up_at_call_time(tmp_path, monkeypatch, vanilla_trace_52):
    # A rebinding of objective.get_objective, as perfbench's tracer makes,
    # must reach the replay's registry lookup.
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    looked_up = []
    get = objective.get_objective
    monkeypatch.setattr(objective, "get_objective", lambda name: looked_up.append(name) or get(name))
    assert read_trace(path) == vanilla_trace_52
    assert looked_up == ["counterexample"]


def _json_paths(value, prefix=()):
    """Every path into a parsed JSON value, the value itself included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


# Half of the replacements are values at the edges of what the reader converts.
_EDGE_VALUES = [math.inf, -math.inf, math.nan, 10**400, -1, 0, 0.5, "abc", "cubic", [], {}]
_JSON_VALUES = st.sampled_from(_EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def small_trace(counterexample_objective) -> Trace:
    return run(revealing_config(seed=3, max_iterations=6), counterexample_objective)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_reader_raises_only_trace_format_error(tmp_path_factory, small_trace, data):
    # An edit that keeps the header keeps the run, so the file is accepted
    # only unchanged; else the error names the first line that differs from
    # the run's, or the truncation where the file is a prefix of them.  An
    # accepted file is the bytes written for what was read.
    original = list(trace_lines(small_trace))
    lines = list(original)
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    action = data.draw(st.sampled_from(["replace", "drop", "duplicate"]), label="action")
    if action == "drop":
        del lines[index]
    elif action == "duplicate":
        lines.insert(index, lines[index])
    else:
        parsed = json.loads(lines[index])
        path = data.draw(st.sampled_from(list(_json_paths(parsed))), label="path")
        value = data.draw(_JSON_VALUES, label="value")
        if path:
            target = parsed
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            parsed = value
        lines[index] = json.dumps(parsed, separators=(",", ":"))
    path = tmp_path_factory.mktemp("fuzz") / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        read = read_trace(path)
    except TraceFormatError as exc:
        assert lines != original
        if lines[0] == original[0]:
            first = next(i for i, pair in enumerate(itertools.zip_longest(lines, original)) if pair[0] != pair[1])
            assert ("truncated" if first == len(lines) else f": line {first + 1} differs") in str(exc)
    else:
        assert list(trace_lines(read)) == lines
        assert lines[0] != original[0] or read == small_trace
