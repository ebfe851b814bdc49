"""Trace persistence: write -> read must be the identity on the data model,
and reading must reject, with TraceFormatError only, any trace that breaks
the engine's iteration rules."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsearch import read_trace, run, write_trace
from ddsearch.cli import main
from ddsearch.objective import ObjectiveSpec
from ddsearch.traceio import TraceFormatError, config_from_dict, config_to_dict, trace_lines

from helpers import counterexample_config, revealing_config


def test_round_trip_identity_on_vanilla_trace(tmp_path, vanilla_trace_52):
    path = tmp_path / "trace.jsonl"
    write_trace(vanilla_trace_52, path)
    assert read_trace(path) == vanilla_trace_52


def test_round_trip_identity_on_revealing_trace(tmp_path, counterexample_objective):
    trace = run(revealing_config(seed=13), counterexample_objective)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_round_trip_preserves_infinite_values(tmp_path):
    spec = ObjectiveSpec("right_half", 1, lambda p: p[0] * p[0], domain_oracle=lambda p: p[0] >= 0.0)
    trace = run(counterexample_config(x0=(0.25,), alpha0=0.5, search_schedule="none", max_iterations=6), spec)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    recovered = read_trace(path)
    assert recovered == trace
    values = [t.value for r in recovered.records for o in r.outcomes for t in o.trials]
    assert math.inf in values


def test_written_bytes_are_deterministic(tmp_path, vanilla_trace_52):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(vanilla_trace_52, first)
    write_trace(vanilla_trace_52, second)
    assert first.read_bytes() == second.read_bytes()


def test_config_dict_round_trip():
    config = revealing_config(seed=2**63 - 1)
    assert config_from_dict(config_to_dict(config)) == config


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


# Each corruption edits the parsed lines of the 52-iteration trace: line 0 is
# the header, line 1 + k the record of iteration k, line 53 the trailer.
# Even iterations fail after search and poll; odd ones succeed through their
# search step.
CORRUPTIONS = {
    "x": (lambda t: t[11].update(x=[0.05]), "does not continue"),
    "f on an unsuccessful record": (lambda t: t[51].update(f=0.5), "does not continue"),
    "alpha": (lambda t: t[11].update(alpha=0.5), "does not continue"),
    "alpha_next one ulp off": (lambda t: t[11].update(alpha_next=2**-8 * (1 + 2**-52)), "update rule"),
    "k": (lambda t: t[11].update(k=11), "does not continue"),
    "record success": (lambda t: t[11].update(success=True), "update rule"),
    "step winner": (lambda t: t[11]["outcomes"][1].update(winner=1), "verdict"),
    "step success": (lambda t: t[12]["outcomes"][0].update(success=False), "verdict"),
    "finite out-of-domain value": (
        lambda t: t[11]["outcomes"][1]["trials"][0].update(in_domain=False),
        "out-of-domain",
    ),
    "swapped steps": (lambda t: t[11]["outcomes"].reverse(), "step 0 is 'poll'"),
    "extra step after a success": (
        lambda t: t[12]["outcomes"].append({**t[12]["outcomes"][0], "step": "poll"}),
        "continue after",
    ),
    "extra step": (lambda t: t[11]["outcomes"].append(t[11]["outcomes"][1]), "has 3 steps"),
    "missing step": (lambda t: t[11]["outcomes"].pop(), "stop before a success"),
    "termination": (lambda t: t[53].update(termination="alpha_min"), "termination"),
    "header beta2 = 7": (lambda t: t[0]["config"].update(beta2=7.0), "beta2"),
    'header alpha0 = "abc"': (lambda t: t[0]["config"].update(alpha0="abc"), "alpha0"),
    "unknown forcing": (lambda t: t[0]["config"].update(forcing="cubic"), "cubic"),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_inconsistent_trace_is_rejected(tmp_path, monkeypatch, capsys, vanilla_trace_52, name):
    corrupt, message = CORRUPTIONS[name]
    parsed = [json.loads(line) for line in trace_lines(vanilla_trace_52)]
    assert len(parsed) == 54 and parsed[11]["alpha_next"] == 2**-8
    corrupt(parsed)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(data) + "\n" for data in parsed))
    with pytest.raises(TraceFormatError, match=message):
        read_trace(path)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "trace.jsonl", "--expect-gap", "1.5", "--tol", "1e-3"]) == 2
    assert "gap" not in capsys.readouterr().out


# Each edit keeps the value and changes only its JSON type, on the parsed
# lines of the 52-iteration trace: line 2 is the record of iteration 1 (a
# search success), line 3 the record of iteration 2 (search and poll fail).
WRONG_TYPES = {
    'k "2"': lambda t: t[3].update(k="2"),
    "k 2.0": lambda t: t[3].update(k=2.0),
    "k true": lambda t: t[2].update(k=True),
    'alpha "0.125"': lambda t: t[3].update(alpha="0.125"),
    'x ["0.625"]': lambda t: t[3].update(x=["0.625"]),
    "x a number": lambda t: t[3].update(x=0.625),
    'f "0.47265625"': lambda t: t[3].update(f="0.47265625"),
    'x_next [true]': lambda t: t[2].update(x_next=[True]),
    'alpha_next "0.0625"': lambda t: t[3].update(alpha_next="0.0625"),
    'record success "abc"': lambda t: t[2].update(success="abc"),
    "record success 0": lambda t: t[3].update(success=0),
    "step success 0": lambda t: t[3]["outcomes"][1].update(success=0),
    "winner false": lambda t: t[3]["outcomes"][1].update(winner=False),
    "winner 0.0": lambda t: t[3]["outcomes"][1].update(winner=0.0),
    "in_domain 0.5": lambda t: t[3]["outcomes"][1]["trials"][0].update(in_domain=0.5),
    "in_domain 1": lambda t: t[3]["outcomes"][1]["trials"][0].update(in_domain=1),
    'value "0.5"': lambda t: t[3]["outcomes"][1]["trials"][0].update(value="0.5"),
    'point ["0.5"]': lambda t: t[3]["outcomes"][1]["trials"][0].update(point=["0.5"]),
}


@pytest.mark.parametrize("name", list(WRONG_TYPES))
def test_wrong_typed_value_is_rejected(tmp_path, monkeypatch, capsys, vanilla_trace_52, name):
    parsed = [json.loads(line) for line in trace_lines(vanilla_trace_52)]
    assert parsed[2]["success"] and not parsed[3]["success"]
    assert parsed[3]["outcomes"][1]["trials"][0] == {"point": [0.5], "value": 0.5, "in_domain": True}
    WRONG_TYPES[name](parsed)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(data) + "\n" for data in parsed))
    with pytest.raises(TraceFormatError, match="wrong type"):
        read_trace(path)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "trace.jsonl", "--expect-gap", "1.5", "--tol", "1e-3"]) == 2
    assert "gap" not in capsys.readouterr().out


def test_integer_valued_numbers_are_read_as_floats(tmp_path):
    spec = ObjectiveSpec("square", 1, lambda p: p[0] * p[0])
    trace = run(counterexample_config(x0=(2.0,), alpha0=1.0, search_schedule="none", max_iterations=4), spec)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    text, count = re.subn(r"(\d)\.0\b", r"\1", path.read_text())
    assert count > 10
    path.write_text(text)
    recovered = read_trace(path)
    assert recovered == trace
    assert all(type(v) is float for r in recovered.records for v in (*r.x, r.alpha, r.f_x, *r.x_next))


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
def small_trace_lines(counterexample_objective) -> list[str]:
    trace = run(revealing_config(seed=3, max_iterations=6), counterexample_objective)
    return list(trace_lines(trace))


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
)
@given(data=st.data())
def test_reader_raises_only_trace_format_error(tmp_path_factory, small_trace_lines, data):
    lines = list(small_trace_lines)
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
        read_trace(path)
    except TraceFormatError:
        pass
