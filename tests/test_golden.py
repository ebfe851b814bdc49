"""Golden traces for the engine paths the bundled configs do not reach.

Replay checks a trace against the engine that wrote it, so a change in the
engine's behaviour still replays; only pinned hashes catch it.  The CSVs that
``sample`` writes are pinned the same way, on grids that reach the
discontinuity, subnormal bands and bands up to 1e304.  The two
bundled configs are pinned by acceptance criterion 8.  The configs here
cover what those skip: the n-D ball sampler (batched and single draws),
2-D ``coordinate`` polls, domain rejects, ``inf`` values, ``quadratic``
forcing, ``gamma > 1``, ``revealing_count > 1``, a seed of more than 64
bits, the ``alpha_min`` stop and the step-0 regime: with ``alpha_min = 0``
the step underflows to 0.0, and from then on every poll trial is the
incumbent and no iteration succeeds.  The covering radii of the calibration
pilot are pinned by their ``float.hex``, and the script's stdout by its hash.
Every digest is read from ``tests/pins.json``, one case per key of its section:
a re-pin edits one value there, and the failing assertion shows the new one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import runpy
import sys
from collections import Counter

import pytest

from ddsearch import AlgoConfig, get_objective, run
from ddsearch.cli import main
from ddsearch.configfile import load_experiment_config
from ddsearch.engine import POLL, TERMINATED_ALPHA_MIN, TERMINATED_MAX_ITERATIONS
from ddsearch.objective import ObjectiveSpec
from ddsearch.traceio import trace_lines

from helpers import CALIBRATION_SCRIPT, CONFIGS_DIR, PINS


def _valley(point):
    """A 2-D bowl with a downward step on x <= 0 and value inf above y = 1."""
    x, y = point
    if y > 1.0:
        return math.inf
    return (x - 0.5) * (x - 0.5) + 2.0 * (y + 0.25) * (y + 0.25) - (0.5 if x <= 0.0 else 0.0)


def _strip(point):
    return -1.5 <= point[0] <= 2.5


VALLEY = ObjectiveSpec("valley_2d", 2, _valley, _strip)

# name -> (config, objective, termination); PINS["golden_trace"] holds the
# sha256 of each trace file.
GOLDEN = {
    "valley_batched": (
        AlgoConfig(
            x0=(2.0, 0.75), alpha0=1.0, gamma=2.0, revealing_radius=1.5, revealing_count=3,
            poll_directions="coordinate", forcing="quadratic", seed=2024, max_iterations=400, alpha_min=1e-6,
        ),
        VALLEY,
        TERMINATED_ALPHA_MIN,
    ),
    "valley_single": (
        AlgoConfig(
            x0=(-1.25, 0.5), alpha0=0.5, beta1=0.25, beta2=0.75, revealing_radius=0.75, revealing_count=1,
            poll_directions="coordinate", seed=7, max_iterations=60,
        ),
        VALLEY,
        TERMINATED_MAX_ITERATIONS,
    ),
    "counterexample_batched": (
        AlgoConfig(
            x0=(1.25,), alpha0=0.25, gamma=1.5, revealing_radius=2.0, revealing_count=4,
            search_schedule="counterexample", poll_directions="pm1", forcing="quadratic", seed=99,
            max_iterations=500, alpha_min=1e-7,
        ),
        get_objective("counterexample"),
        TERMINATED_ALPHA_MIN,
    ),
    "abs_coordinate_long_seed": (
        AlgoConfig(
            x0=(0.3,), alpha0=0.5, gamma=1.25, revealing_radius=0.5, revealing_count=1,
            poll_directions="coordinate", seed=2**64 + 3, max_iterations=80,
        ),
        get_objective("abs"),
        TERMINATED_MAX_ITERATIONS,
    ),
    # perfbench's long.cfg at benchmark seed 1: 2 912 of its 4 000
    # iterations run at step 0.0.  CI's benchmark golden checks run it too,
    # and require its zero gap.
    "revealing_step_zero": (
        dataclasses.replace(
            load_experiment_config(CONFIGS_DIR / "revealing.cfg").algo,
            seed=577090037, max_iterations=4000, alpha_min=0.0,
        ),
        get_objective("counterexample"),
        TERMINATED_MAX_ITERATIONS,
    ),
}


def test_every_pin_has_a_reader():
    # Each golden test runs one case per key of its section, so a deleted key
    # would drop its case silently; these counts catch it.
    assert GOLDEN.keys() == PINS["golden_trace"].keys()
    counts = {"bundled_trace": 2, "golden_trace": 5, "sample_csv": 4, "stdout": 3, "pilot_radii": 1, "calibration_stdout": 1}
    assert {section: len(pins) for section, pins in PINS.items()} == counts


@pytest.mark.parametrize("name", sorted(PINS["golden_trace"]))
def test_golden_trace(name):
    config, objective, termination = GOLDEN[name]
    trace = run(config, objective)
    assert trace.termination == termination
    data = "".join(line + "\n" for line in trace_lines(trace)).encode()
    assert hashlib.sha256(data).hexdigest() == PINS["golden_trace"][name]


def test_golden_traces_reach_the_paths_they_pin():
    seen = Counter()
    for config, objective, _ in GOLDEN.values():
        for record in run(config, objective).records:
            polled = {trial.point for outcome in record.outcomes if outcome.kind == POLL for trial in outcome.trials}
            seen["step-0 polls at the incumbent"] += record.alpha == 0.0 and polled == {record.x}
            for outcome in record.outcomes:
                seen[outcome.kind, "wins"] += outcome.success
                seen["no winner among trials"] += outcome.winner is None and bool(outcome.trials)
                for trial in outcome.trials:
                    seen["domain rejects"] += not trial.in_domain
                    seen["inf values"] += trial.in_domain and math.isinf(trial.value)
    assert all(seen[key] > 0 for key in [("search", "wins"), ("revealing_poll", "wins"), ("poll", "wins")])
    assert seen["domain rejects"] > 0 and seen["inf values"] > 0 and seen["no winner among trials"] > 0
    assert seen["step-0 polls at the incumbent"] > 0


# PINS["sample_csv"]: grid -> sha256 of the CSV that `ddsearch sample
# counterexample <grid> f.csv` writes.  CI checks README's grid, "-2 2 4001".
@pytest.mark.parametrize("grid", list(PINS["sample_csv"]))
def test_golden_sample(grid, tmp_path):
    out = tmp_path / "f.csv"
    assert main(["sample", "counterexample", *grid.split(), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["sample_csv"][grid]


# PINS["stdout"]: command -> sha256 of its stdout, run where `ddsearch run`
# has written the traces of both bundled configs.
@pytest.mark.parametrize("command", list(PINS["stdout"]))
def test_golden_stdout(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("counterexample.cfg", "revealing.cfg"):
        (tmp_path / name).write_text((CONFIGS_DIR / name).read_text())
        assert main(["run", name]) == 0
    capsys.readouterr()
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS["stdout"][command]


# PINS["pilot_radii"]: seed count -> sha256 of the comma-joined float.hex of
# the covering radii that the calibration script's pilot returns.
@pytest.mark.parametrize("seeds", list(PINS["pilot_radii"]))
def test_golden_pilot_radii(seeds):
    radii = runpy.run_path(str(CALIBRATION_SCRIPT))["pilot"](int(seeds))
    data = ",".join(float(radius).hex() for radius in radii).encode()
    assert hashlib.sha256(data).hexdigest() == PINS["pilot_radii"][seeds]


# PINS["calibration_stdout"]: arguments -> sha256 of the calibration script's
# stdout, run as its command line.
@pytest.mark.parametrize("arguments", list(PINS["calibration_stdout"]))
def test_golden_calibration_stdout(arguments, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(CALIBRATION_SCRIPT), *arguments.split()])
    runpy.run_path(str(CALIBRATION_SCRIPT), run_name="__main__")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS["calibration_stdout"][arguments]
