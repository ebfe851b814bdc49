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

from helpers import CALIBRATION_SCRIPT, CONFIGS_DIR


def _valley(point):
    """A 2-D bowl with a downward step on x <= 0 and value inf above y = 1."""
    x, y = point
    if y > 1.0:
        return math.inf
    return (x - 0.5) * (x - 0.5) + 2.0 * (y + 0.25) * (y + 0.25) - (0.5 if x <= 0.0 else 0.0)


def _strip(point):
    return -1.5 <= point[0] <= 2.5


VALLEY = ObjectiveSpec("valley_2d", 2, _valley, _strip)

# name -> (config, objective, termination, sha256 of the trace file)
GOLDEN = {
    "valley_batched": (
        AlgoConfig(
            x0=(2.0, 0.75), alpha0=1.0, gamma=2.0, revealing_radius=1.5, revealing_count=3,
            poll_directions="coordinate", forcing="quadratic", seed=2024, max_iterations=400, alpha_min=1e-6,
        ),
        VALLEY,
        TERMINATED_ALPHA_MIN,
        "ffd98b7f47ff2294f4a325e3fc9c7ae774852760bce72f5390a6f12ac19bf980",
    ),
    "valley_single": (
        AlgoConfig(
            x0=(-1.25, 0.5), alpha0=0.5, beta1=0.25, beta2=0.75, revealing_radius=0.75, revealing_count=1,
            poll_directions="coordinate", seed=7, max_iterations=60,
        ),
        VALLEY,
        TERMINATED_MAX_ITERATIONS,
        "a284315d1ff63e64430c3174c900ad8bd7ddd2a6f0ccdf1b196d9cb2656eb5c5",
    ),
    "counterexample_batched": (
        AlgoConfig(
            x0=(1.25,), alpha0=0.25, gamma=1.5, revealing_radius=2.0, revealing_count=4,
            search_schedule="counterexample", poll_directions="pm1", forcing="quadratic", seed=99,
            max_iterations=500, alpha_min=1e-7,
        ),
        get_objective("counterexample"),
        TERMINATED_ALPHA_MIN,
        "2e004adbc5b1af5e2cd57c9ef9d9597e85479ec7427ad0afe1fe9cfa3b7825b3",
    ),
    "abs_coordinate_long_seed": (
        AlgoConfig(
            x0=(0.3,), alpha0=0.5, gamma=1.25, revealing_radius=0.5, revealing_count=1,
            poll_directions="coordinate", seed=2**64 + 3, max_iterations=80,
        ),
        get_objective("abs"),
        TERMINATED_MAX_ITERATIONS,
        "114ecb411d234883aa953640a19b20c1110de2defeca3fa6ac5ca4402258b8c4",
    ),
    # perfbench's long.cfg at benchmark seed 1: 2 912 of its 4 000
    # iterations run at step 0.0.  CI checks this pin too.
    "revealing_step_zero": (
        dataclasses.replace(
            load_experiment_config(CONFIGS_DIR / "revealing.cfg").algo,
            seed=577090037, max_iterations=4000, alpha_min=0.0,
        ),
        get_objective("counterexample"),
        TERMINATED_MAX_ITERATIONS,
        "4d8ada9670399f183b14cd38eba4e5e9e1cf0580379701cba78b88eb860e0702",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name):
    config, objective, termination, digest = GOLDEN[name]
    trace = run(config, objective)
    assert trace.termination == termination
    data = "".join(line + "\n" for line in trace_lines(trace)).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_golden_traces_reach_the_paths_they_pin():
    seen = Counter()
    for config, objective, _, _ in GOLDEN.values():
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


# grid -> sha256 of the CSV that `ddsearch sample counterexample <grid> f.csv`
# writes.  CI checks README's grid against the first entry.
SAMPLE_SHA256 = {
    "-2 2 4001": "c05fb4995ce2391df66e6ff2689216abaa8f75793e7555629221a0f1f14536b7",
    "-2 2 40001": "9041b672eec72b7494bf7834ff38741c5da16bdc6bf93c9a328142919be4e6d1",
    "1e-310 1e-300 4097": "fdd9deaa6ff4d30f598e8606ba43ac7cf3234837c24917cb4f41108817efc0ce",
    "1 1e304 4097": "462fc13f0ea3eb3f19987197dd214c2f811f6dcb61d53e28b1f00e96356e7ad1",
}


@pytest.mark.parametrize("grid", list(SAMPLE_SHA256))
def test_golden_sample(grid, tmp_path):
    out = tmp_path / "f.csv"
    assert main(["sample", "counterexample", *grid.split(), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_SHA256[grid]


# command -> sha256 of its stdout, run where `ddsearch run` has written the
# traces of both bundled configs.
STDOUT_SHA256 = {
    "analyze counterexample_trace.jsonl --verify-lemma 25": "253c7a6b344be6f112a438d525b7d698e1bc98daceb775a5b2234114c8f42c32",
    "analyze revealing_trace.jsonl": "e0e52d41df78733f378aae8f1769311344d02c6e8dbefe113d574f4b18b89f44",
    "montecarlo revealing.cfg --trials 200 --master-seed 7": "b5d5d476dca3836fcf202e739b268a075f2b1bffebe35bee2ff88eaaf346001b",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_golden_stdout(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("counterexample.cfg", "revealing.cfg"):
        (tmp_path / name).write_text((CONFIGS_DIR / name).read_text())
        assert main(["run", name]) == 0
    capsys.readouterr()
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[command]


# sha256 of the comma-joined float.hex of the covering radii that the
# calibration script's pilot(20) returns.
PILOT_RADII_SHA256 = "5944d1af42968644dfc95a97bbaeb2971e7bf3758373177915c6e5e7b607d0d4"


def test_golden_pilot_radii():
    radii = runpy.run_path(str(CALIBRATION_SCRIPT))["pilot"](20)
    data = ",".join(float(radius).hex() for radius in radii).encode()
    assert hashlib.sha256(data).hexdigest() == PILOT_RADII_SHA256


# arguments -> sha256 of the calibration script's stdout.  CI checks the
# first entry.
CALIBRATION_STDOUT_SHA256 = {
    "--seeds 5": "b9c6f1f8cafc0458aa9ea258e763184602e0ed484533b6a142280aa5a78f9c5a",
}


@pytest.mark.parametrize("arguments", list(CALIBRATION_STDOUT_SHA256))
def test_golden_calibration_stdout(arguments, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(CALIBRATION_SCRIPT), *arguments.split()])
    runpy.run_path(str(CALIBRATION_SCRIPT), run_name="__main__")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CALIBRATION_STDOUT_SHA256[arguments]
