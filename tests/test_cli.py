"""CLI contract tests: subcommands, exit codes, file outputs, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsearch import AlgoConfig, cli, engine, get_objective, read_trace, run, write_trace
from ddsearch.cli import main
from ddsearch.objective import ObjectiveSpec, counterexample_value
from ddsearch.traceio import trace_lines

from helpers import CONFIGS_DIR, peak_memory


def write_config(path: Path, source: str = "counterexample.cfg", **rows) -> Path:
    """Write the bundled config ``source`` to ``path`` with the value of each
    row named in ``rows`` (``name`` is the objective's) replaced; a row the
    file lacks goes into ``[algorithm]``.  The trace goes to trace.jsonl
    unless ``trace_path`` names another file."""
    rows = {"trace_path": "trace.jsonl", **{key: str(value) for key, value in rows.items()}}
    lines = (CONFIGS_DIR / source).read_text().splitlines()
    present = {line.split(" = ")[0] for line in lines}
    written = []
    for line in lines:
        key = line.split(" = ")[0]
        written.append(f"{key} = {rows[key]}" if key in rows else line)
        if line == "[algorithm]":
            written += [f"{key} = {value}" for key, value in rows.items() if key not in present]
    path.write_text("\n".join(written) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("path", [os.devnull, "."])
def test_run_of_a_path_that_is_not_a_regular_file_exits_2(workdir, capsys, path):
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: config file is not a regular file: {path}\n"


@pytest.mark.parametrize("command", [["run"], ["montecarlo", "--trials", "2", "--master-seed", "1"]])
def test_a_config_that_is_not_utf8_exits_2(workdir, capsys, command):
    path = workdir / "bad.cfg"
    path.write_bytes((CONFIGS_DIR / "revealing.cfg").read_bytes() + b"# \xff\n")
    assert main([command[0], "bad.cfg", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse bad.cfg: ") and "utf-8" in captured.err


@pytest.mark.parametrize(
    ("trace_path", "message"),
    [("", "[output] trace_path"), ("missing_dir/t.jsonl", "No such file or directory: 'missing_dir/t.jsonl'")],
    ids=["empty", "missing directory"],
)
def test_run_trace_path_that_cannot_be_written_exits_2_before_the_solver_starts(
    workdir, capsys, monkeypatch, trace_path, message
):
    config = write_config(workdir / "bad.cfg", trace_path=trace_path)
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("the solver ran"))
    assert main(["run", str(config)]) == 2
    assert message in capsys.readouterr().err


def test_run_objective_error_exits_3(workdir, capsys):
    # (1e200 + 1)^2 overflows, so the starting value is not finite.  The
    # stale trace of an earlier run is removed, and no new one is left.
    (workdir / "trace.jsonl").write_text("stale\n")
    config = write_config(workdir / "overflow.cfg", name="quadratic_1d", x0="1e200", search_schedule="none")
    assert main(["run", str(config)]) == 3
    assert "finite" in capsys.readouterr().err
    assert not (workdir / "trace.jsonl").exists()


@pytest.mark.parametrize(
    "line,code",
    [
        ("revealing_radius = inf", 2),
        ("alpha0 = inf", 2),
        ("gamma = inf", 2),
        # The step expands to inf, and the run stops there.
        ("gamma = 1e308", 0),
        # Beyond MAX_REVEALING_COUNT: one poll would ask numpy for 10**20 points.
        ("revealing_count = 100000000000000000000", 2),
    ],
)
def test_run_extreme_revealing_parameters_exit_without_traceback(workdir, capsys, line, code):
    key, value = line.split(" = ")
    config = write_config(workdir / "extreme.cfg", "revealing.cfg", **{key: value})
    assert main(["run", str(config)]) == code
    if code == 0:
        assert "3 iterations, termination=alpha_overflow" in capsys.readouterr().out
        assert main(["analyze", "trace.jsonl"]) == 0
    else:
        assert key in capsys.readouterr().err


# Values at the edges of what the parser and validate_config convert.
_EDGE_LITERALS = ["inf", "-nan", "1e400", "-0", "100000000000000000000", "1" + "0" * 4999, "abc", "", "1.25 1.25"]
_ALGORITHM_KEYS = [field.name for field in dataclasses.fields(AlgoConfig)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(key=st.sampled_from(_ALGORITHM_KEYS), value=st.sampled_from(_EDGE_LITERALS) | st.text())
def test_run_of_a_fuzzed_config_exits_without_traceback(tmp_path_factory, key, value):
    # One [algorithm] value of a 20-iteration revealing.cfg replaced by a drawn string.
    directory = tmp_path_factory.mktemp("fuzz")
    rows = {"max_iterations": "20", "trace_path": directory / "trace.jsonl", key: value}
    config = write_config(directory / "fuzzed.cfg", "revealing.cfg", **rows)
    assert cli.main(["run", str(config)]) in (0, 2, 3)


def test_analyze_gap_mismatch_exits_1(workdir, capsys):
    write_config(workdir / "c.cfg")
    assert main(["run", str(workdir / "c.cfg")]) == 0
    assert main(["analyze", "trace.jsonl", "--expect-gap", "0.0", "--tol", "1e-3"]) == 1


def test_analyze_quadratic_gap_is_zero(workdir):
    write_config(
        workdir / "q.cfg", name="quadratic_1d", x0=0.5, alpha0=0.5, search_schedule="none",
        max_iterations=200, alpha_min=1e-9,
    )
    assert main(["run", str(workdir / "q.cfg")]) == 0
    assert main(["analyze", "trace.jsonl", "--expect-gap", "0", "--tol", "1e-6"]) == 0


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--expect-gap", "5", "--tol", "nan"], "--tol"),
        (["--expect-gap", "nan"], "--expect-gap"),
        (["--expect-gap", "inf"], "--expect-gap"),
        (["--expect-gap", "1.0", "--tol", "-1"], "--tol"),
        (["--expect-gap", "1.0", "--tol", "inf"], "--tol"),
    ],
)
def test_analyze_invalid_numeric_flags_exit_2(workdir, capsys, flags, named):
    write_config(workdir / "c.cfg")
    assert main(["run", str(workdir / "c.cfg")]) == 0
    capsys.readouterr()
    assert main(["analyze", "trace.jsonl", *flags]) == 2
    captured = capsys.readouterr()
    assert "gap:" not in captured.out
    assert named in captured.err


def _run_lines(workdir: Path, source: str, **rows) -> list[str]:
    """The lines of the trace.jsonl that ``run`` writes for ``source`` with ``rows``."""
    write_config(workdir / "run.cfg", source, **rows)
    assert main(["run", "run.cfg"]) == 0
    return (workdir / "trace.jsonl").read_text().splitlines()


# The exit codes of analyze, in order of precedence: a corrupt trace 2, no
# unsuccessful iteration 2, a false lemma 1, too few records for a lemma
# that still holds 2.  The replay reads the file as the analysis goes, and
# the lemma is checked on the run once the file has replayed.


def test_analyze_false_lemma_on_a_corrupt_trace_exits_2(workdir, capsys):
    lines = _run_lines(workdir, "revealing.cfg")
    lines[-2] = lines[-2].replace('"k":', '"k":1', 1)  # the last record
    (workdir / "trace.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["analyze", "trace.jsonl", "--verify-lemma", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {len(lines) - 1} differs" in captured.err


def test_analyze_false_lemma_on_a_run_without_a_refining_subsequence_exits_2(workdir, capsys):
    # Every iteration succeeds, and x0 = 1 departs from the closed form.
    config = AlgoConfig(x0=(1.0,), alpha0=0.25, gamma=2.0, poll_directions="pm1", max_iterations=5)
    write_trace(run(config, get_objective("neg_abs")), workdir / "trace.jsonl")
    assert main(["analyze", "trace.jsonl", "--verify-lemma", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no unsuccessful iteration" in captured.err


def test_analyze_false_lemma_on_a_trace_shorter_than_its_prefix_exits_1(workdir, capsys):
    # The revealing trace departs at iteration 2, long before its 41
    # records run out of the 2002 that q = 0..1000 asks for.
    _run_lines(workdir, "revealing.cfg")
    capsys.readouterr()
    assert main(["analyze", "trace.jsonl", "--verify-lemma", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "closed-form verification failed for q=0..1000\n"
    assert captured.err == ""


def test_analyze_invalid_utf8_on_a_late_line_exits_2(workdir, capsys):
    lines = _run_lines(workdir, "revealing.cfg", alpha_min=0.0, max_iterations=400)
    path = workdir / "trace.jsonl"
    path.write_bytes("\n".join(lines[:-2]).encode() + b"\n\xff" + "\n".join(lines[-2:]).encode() + b"\n")
    # Well past the first block that the reader decodes.
    assert path.stat().st_size > 2**16
    capsys.readouterr()
    assert main(["analyze", "trace.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read" in captured.err and "utf-8" in captured.err


@pytest.mark.parametrize("path", ["/dev/zero", "."])
def test_analyze_of_a_path_that_is_not_a_regular_file_exits_2(workdir, capsys, path):
    # /dev/zero has no end of line nor of file, so reading it would not stop.
    if not os.path.exists(path):
        pytest.skip(f"{path} is absent")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == f"error: trace file {path}: not a regular file\n"


def test_analyze_trace_truncated_after_the_lemma_prefix_exits_2(workdir, capsys):
    lines = _run_lines(workdir, "counterexample.cfg")
    # The header and the 26 records that the lemma for q = 0..12 reads.
    (workdir / "trace.jsonl").write_text("\n".join(lines[:27]) + "\n")
    capsys.readouterr()
    assert main(["analyze", "trace.jsonl", "--verify-lemma", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncated" in captured.err


def test_analyze_lemma_past_the_index_range_exits_2(workdir, capsys):
    _run_lines(workdir, "counterexample.cfg")
    capsys.readouterr()
    # The least q for which 2q + 2 exceeds sys.maxsize on 64-bit builds.
    assert main(["analyze", "trace.jsonl", "--verify-lemma", "4611686018427387903"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "52 iterations, need 9223372036854775808" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_int_step_size_past_the_float_range_replays_as_floats(workdir, capsys):
    # An int step size doubles with each success on neg_abs until it passes
    # the float range; the engine's step size is a float, so the run and its
    # trace are those of the float spelling of the config.  The run stops
    # once the step size is inf.
    config = AlgoConfig(x0=(0.0,), alpha0=2**1000, gamma=2, poll_directions="pm1", max_iterations=40)
    trace = run(config, get_objective("neg_abs"))
    floats = run(dataclasses.replace(config, alpha0=2.0**1000, gamma=2.0), get_objective("neg_abs"))
    assert len(trace.records) == 24
    assert trace.termination == "alpha_overflow"
    assert list(trace_lines(trace))[1:] == list(trace_lines(floats))[1:]
    write_trace(trace, workdir / "trace.jsonl")
    assert read_trace(workdir / "trace.jsonl") == trace
    # Every iteration succeeded, so there is no refining subsequence.
    assert main(["analyze", "trace.jsonl"]) == 2
    assert "no unsuccessful iteration" in capsys.readouterr().err


def _analyze_peaks(workdir: Path, source: str, counts: tuple[int, int], *flags: str, code: int = 0) -> list[int]:
    """``tracemalloc`` peaks of ``analyze`` on the traces of ``source`` run
    for ``counts`` iterations with ``alpha_min = 0``; each must exit with
    ``code``."""
    for n in counts:
        write_config(workdir / "run.cfg", source, max_iterations=n, alpha_min=0.0, trace_path=f"{n}.jsonl")
        assert main(["run", "run.cfg"]) == 0
    # The first replay of a process imports and caches what later ones reuse.
    assert main(["analyze", f"{counts[0]}.jsonl", *flags]) == code
    runs = [peak_memory(lambda: main(["analyze", f"{n}.jsonl", *flags])) for n in counts]
    assert [exit_code for exit_code, _ in runs] == [code, code]
    return [peak for _, peak in runs]


def test_analyze_memory_does_not_hold_the_records(workdir):
    # A replayed record costs about 2.5 kB, and the report keeps none of the
    # 6000 unsuccessful iterations added between the two traces.
    small, large = _analyze_peaks(workdir, "revealing.cfg", (2000, 8000))
    assert large - small < 2**17, (small, large)


def test_analyze_memory_with_the_lemma_does_not_hold_the_records(workdir):
    # The lemma's check reads the run that the replay has verified, and
    # must keep none of the records it has checked.
    small, large = _analyze_peaks(workdir, "counterexample.cfg", (200, 2000), "--verify-lemma", "3")
    assert large - small < 2**19, (small, large)


def test_analyze_memory_with_a_lemma_longer_than_the_trace_does_not_hold_the_records(workdir):
    # The lemma's check reads every record of a run shorter than its
    # prefix before it exits 2, and must keep none of them.
    small, large = _analyze_peaks(workdir, "counterexample.cfg", (200, 2000), "--verify-lemma", "1000000000", code=2)
    assert large - small < 2**19, (small, large)


def test_montecarlo_exit_code_counts_escapes_only(workdir, capsys):
    # Trial 161 escapes at iteration 31 after its step has halved 15 times;
    # with gamma = 1 it ends at max_iterations outside 1e-3 of -1.
    config = workdir / "revealing.cfg"
    config.write_text((CONFIGS_DIR / "revealing.cfg").read_text())
    assert main(["montecarlo", str(config), "--trials", "200", "--master-seed", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["escaped: 200/200", "converged: 199/200"]


def test_montecarlo_incomplete_escape_exits_1(workdir, capsys):
    # A single-iteration budget leaves most trials no room to escape.
    write_config(workdir / "short.cfg", "revealing.cfg", max_iterations=1)
    assert main(["montecarlo", str(workdir / "short.cfg"), "--trials", "5", "--master-seed", "0"]) == 1
    assert "escaped: 1/5" in capsys.readouterr().out


def test_sample_band_endpoints(workdir):
    assert main(["sample", "counterexample", "1", "2", "3", "p.csv"]) == 0
    assert (workdir / "p.csv").read_text().splitlines() == ["x,f", "1.0,1.0", "1.5,1.125", "2.0,2.0"]


def test_sample_invalid_range_exits_2(workdir, capsys):
    assert main(["sample", "counterexample", "2", "1", "10", "bad.csv"]) == 2
    assert main(["sample", "counterexample", "0", "1", "1", "bad.csv"]) == 2
    assert main(["sample", "counterexample", "-2", "inf", "5", "bad.csv"]) == 2
    for bound in ["-inf", "-Infinity", "-INF", "-nan", "-NaN"]:
        assert main(["sample", "counterexample", bound, "1", "5", "bad.csv"]) == 2
        assert "must be finite" in capsys.readouterr().err
    assert not (workdir / "bad.csv").exists()


def test_sample_overflowing_grid_exits_2(workdir, capsys):
    # Weighted sums past the float range, grid points within it: the rows of the formula.
    assert main(["sample", "counterexample", "--", "-1e308", "1e308", "5", "f.csv"]) == 0
    rows = "".join(f"{x!r},{counterexample_value(x)!r}\n" for x in (-1e308, -5e307, 0.0, 5e307, 1e308))
    assert (workdir / "f.csv").read_text() == "x,f\n" + rows
    assert main(["sample", "counterexample", "0", "1", str(10**309), "bad.csv"]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not (workdir / "bad.csv").exists()


def test_sample_evaluator_error_exits_3(workdir, capsys, monkeypatch):
    def broken(point):
        raise ValueError("no value here")

    monkeypatch.setattr(cli, "get_objective", lambda name: ObjectiveSpec(name, 1, broken))
    assert main(["sample", "counterexample", "0", "1", "3", "f.csv"]) == 3
    assert "no value here" in capsys.readouterr().err
    assert not (workdir / "f.csv").exists()


def test_sample_evaluator_error_after_a_written_block_exits_3(workdir, capsys, monkeypatch):
    rows = itertools.count()
    size_at_failure = []

    def fails_at_row_5000(point):
        if next(rows) == 5000:
            size_at_failure.append((workdir / "f.csv").stat().st_size)
            raise ValueError("no value here")
        return 0.0

    monkeypatch.setattr(cli, "get_objective", lambda name: ObjectiveSpec(name, 1, fails_at_row_5000))
    assert main(["sample", "counterexample", "0", "1", "10001", "f.csv"]) == 3
    assert "no value here" in capsys.readouterr().err
    # The first block of rows was on disk when the evaluator failed.
    assert size_at_failure[0] > 0
    assert not (workdir / "f.csv").exists()


@pytest.mark.parametrize(
    "argv, path",
    [(["run", "c.cfg"], "trace.jsonl"), (["sample", "counterexample", "0", "1", "3", "f.csv"], "f.csv")],
    ids=["run", "sample"],
)
def test_an_objective_error_is_reported_when_the_output_file_is_already_gone(
    workdir, capsys, monkeypatch, argv, path
):
    # The evaluator removes the output file and then fails: the cleanup that
    # finds no file must not report it in place of the objective's error.
    def remove_and_fail(point):
        os.remove(path)
        raise ValueError("no value here")

    write_config(workdir / "c.cfg")
    failing = dataclasses.replace(get_objective("counterexample"), evaluator=remove_and_fail)
    monkeypatch.setattr(cli, "get_objective", lambda name: failing)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: objective 'counterexample' failed at ") and err.endswith(": no value here\n")
    assert not os.path.exists(path)


def test_sample_memory_does_not_grow_with_the_grid(workdir, monkeypatch):
    # In blocks of 64 rows the two peaks differ by about 1 kB; a writer that
    # held every row would add about 1.5 MB for the 9000 more rows.
    monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 64)
    assert main(["sample", "counterexample", "-2", "2", "1000", "f.csv"]) == 0
    (small_code, small), (large_code, large) = (
        peak_memory(lambda: main(["sample", "counterexample", "-2", "2", str(n), "f.csv"])) for n in (1000, 10_000)
    )
    assert small_code == large_code == 0
    assert large - small < 2**16, (small, large)


@pytest.mark.parametrize("x_min", ["-1e-3", "-1E+2", "-.5", "-0.5", "-2"])
@pytest.mark.parametrize("separator", [[], ["--"]])
def test_sample_accepts_negative_bounds(workdir, x_min, separator):
    assert main(["sample", "counterexample", *separator, x_min, "1", "3", "f.csv"]) == 0
    assert (workdir / "f.csv").read_text().splitlines()[1].startswith(f"{float(x_min)!r},")


# Configs that differ from counterexample.cfg in the rows given.
_BAD_CONFIGS = {
    "betas.cfg": dict(beta1="0.9", beta2="0.5"),
    "gamm.cfg": dict(gamm=2),
    "mystery.cfg": dict(name="mystery"),
    "hex.cfg": dict(alpha0="0x1p-2"),
    "half_seed.cfg": dict(seed="1.5"),
    "empty_x0.cfg": dict(x0=","),
    "infinite_x0.cfg": dict(x0="inf"),
    "quadratic.cfg": dict(name="quadratic_1d", search_schedule="none", revealing_radius=2.0),
}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ("run absent.cfg", "config file not found: absent.cfg"),
        ("run junk.cfg", "cannot parse junk.cfg"),
        ("run betas.cfg", "beta1, beta2 must satisfy"),
        ("run gamm.cfg", "unknown field [algorithm] gamm"),
        ("run no_alpha0.cfg", "missing field [algorithm] alpha0"),
        ("run mystery.cfg", "unknown objective 'mystery'"),
        ("run hex.cfg", "field [algorithm] alpha0: '0x1p-2' is not a decimal number"),
        ("run half_seed.cfg", "field [algorithm] seed: '1.5' is not a decimal integer"),
        ("run empty_x0.cfg", "field [algorithm] x0: empty vector"),
        ("run infinite_x0.cfg", "x0 must be finite"),
        ("run extra_section.cfg", "unknown section [extra]"),
        ("run no_output.cfg", "missing section [output]"),
        ("analyze junk.jsonl", "the header is not valid JSON"),
        ("analyze empty.jsonl", "the trace is empty"),
        ("analyze version_2.jsonl", "unsupported trace version 2"),
        ("montecarlo counterexample.cfg --trials 3 --master-seed 1", "requires a config with the revealing poll"),
        ("montecarlo quadratic.cfg --trials 5 --master-seed 1", "requires the counterexample objective"),
        ("montecarlo revealing.cfg --trials 5 --master-seed -1", "master_seed must be >= 0, got -1"),
        ("montecarlo revealing.cfg --trials 0 --master-seed 7", "n_trials must be >= 1, got 0"),
        ("sample mystery 0 1 10 bad.csv", "unknown objective 'mystery'"),
    ],
)
def test_each_input_error_exits_2_with_its_message(workdir, capsys, argv, message):
    (workdir / "junk.cfg").write_text("this is not an ini file\n")
    (workdir / "junk.jsonl").write_text("not a trace\n")
    (workdir / "empty.jsonl").write_text("")
    (workdir / "version_2.jsonl").write_text('{"format":"ddsearch-trace","version":2}\n')
    for name, rows in _BAD_CONFIGS.items():
        write_config(workdir / name, **rows)
    bundled = (CONFIGS_DIR / "counterexample.cfg").read_text()
    (workdir / "no_alpha0.cfg").write_text(bundled.replace("alpha0 = 0.25\n", ""))
    (workdir / "extra_section.cfg").write_text(bundled + "[extra]\n")
    (workdir / "no_output.cfg").write_text(bundled.split("[output]")[0])
    for name in ("counterexample.cfg", "revealing.cfg"):
        shutil.copy(CONFIGS_DIR / name, workdir)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# What a fresh process loads


def _fresh_python(workdir: Path, code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter in ``workdir``, on
    this interpreter's import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=workdir, capture_output=True, text=True, env=env)


_LAZY_MODULES = ("ddsearch.analysis", "ddsearch.traceio", "json", "numpy")


@pytest.mark.parametrize(
    ("statement", "loaded"),
    [
        # The set-up probe of perfbench/run.py.
        (
            "import ddsearch.cli, ddsearch.configfile as c; c.load_experiment_config('counterexample.cfg'); status = 0",
            [],
        ),
        ("import ddsearch.cli as cli; status = cli.main(['sample', 'counterexample', '-2', '2', '5', 's.csv'])", []),
        ("import ddsearch.cli as cli; status = cli.main(['run', 'counterexample.cfg'])", ["ddsearch.traceio", "json"]),
        # Every command on the trap, whose config has no revealing poll, draws nothing.
        (
            "import ddsearch.cli as cli; status = cli.main(['run', 'counterexample.cfg']) "
            "or cli.main(['analyze', 'counterexample_trace.jsonl', '--verify-lemma', '25']) "
            "or cli.main(['sample', 'counterexample', '-2', '2', '4001', 'f.csv'])",
            ["ddsearch.analysis", "ddsearch.traceio", "json"],
        ),
        # numpy loads at a run's first draw.
        (
            "import ddsearch.cli as cli; status = cli.main(['run', 'revealing.cfg'])",
            ["ddsearch.traceio", "json", "numpy"],
        ),
        (
            "from ddsearch.analysis import covering_radius; "
            "covering_radius([(0.5,)], (0.0,), 1.0, 5); covering_radius([(0.5, 0.0)], (0.0, 0.0), 1.0, 5); status = 0",
            ["ddsearch.analysis"],
        ),
    ],
    ids=["set-up probe", "sample", "run", "trap", "run with draws", "covering radius"],
)
def test_a_fresh_process_loads_analysis_and_traceio_only_for_the_commands_that_use_them(workdir, statement, loaded):
    for name in ("counterexample.cfg", "revealing.cfg"):
        shutil.copy(CONFIGS_DIR / name, workdir)
    code = f"import sys\n{statement}\nprint(status, [name for name in {_LAZY_MODULES!r} if name in sys.modules])"
    result = _fresh_python(workdir, code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"0 {loaded}"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ("analyze truncated.jsonl", "truncated: the file ends before the replayed run does"),
        ("analyze trace.jsonl --verify-lemma -1", "q_max must be >= 0, got -1"),
        ("run unknown_field.cfg", "unknown field [algorithm] gamm"),
        ("run invalid.cfg", "gamma must be finite and >= 1"),
        ("sample mystery 0 1 10 s.csv", "unknown objective 'mystery'"),
    ],
    ids=["TraceFormatError", "AnalysisError", "ConfigFileError", "ConfigError", "UnknownNameError"],
)
def test_every_input_error_exits_2_from_a_fresh_process(workdir, argv, message):
    # Each class is caught as an InputError, before or after its module loads.
    lines = _run_lines(workdir, "counterexample.cfg")
    (workdir / "truncated.jsonl").write_text("\n".join(lines[:20]) + "\n")
    write_config(workdir / "unknown_field.cfg", gamm=2)
    write_config(workdir / "invalid.cfg", gamma="0.5")
    result = _fresh_python(workdir, "import sys, ddsearch.cli as cli; sys.exit(cli.main(sys.argv[1:]))", *argv.split())
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "Traceback" not in result.stderr


def test_every_public_name_resolves_in_a_fresh_process(workdir):
    code = (
        "import sys, ddsearch\n"
        "listed = set(ddsearch.__all__) <= set(dir(ddsearch))\n"
        "found = [getattr(ddsearch, name) for name in ddsearch.__all__]\n"
        "defined = all(getattr(sys.modules[value.__module__], name) is value for name, value in zip(ddsearch.__all__, found))\n"
        "star = {}\n"
        "exec('from ddsearch import *', star)\n"
        "print(listed, defined, set(star) >= set(ddsearch.__all__), hasattr(ddsearch, 'absent'), len(found))"
    )
    result = _fresh_python(workdir, code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True True True False 23"
