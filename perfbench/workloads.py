"""Workload inputs and passes of the ddsearch benchmark.

``prepare`` writes a workload's inputs (configs and a plan) from the
benchmark seed; ``run_pass`` executes one pass of it through the public
entry points and checks every output against the paper's golden results.
The bundled-config trace hashes do not depend on the seed.  ddsearch is
imported inside the passes only, because run.py imports this module without
the checkout's src/ on its path.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("montecarlo", "trace_roundtrip", "density_clarke")

# sha256 of the traces that `ddsearch run` writes for the bundled configs.
BUNDLED_TRACE_SHA256 = {
    "counterexample": "d71b019ec01a60acceeb81e113021e8029c655b89f56ddeb4c3b1b190ff1a36a",
    "revealing": "d37f814d725741a2f55949297248b62a2c7afcbb5bcaf5bf5ca6c90eb3a89a00",
}

MC_TRIALS = 200
LONG_ITERATIONS = 4000
LEMMA_Q = 25
# Pilot of scripts/calibrate_covering_threshold.py and its frozen threshold.
PILOT_COUNT = 6
PILOT_REVEALING_COUNT = 4
PILOT_ITERATIONS = 128
COVERING_RADIUS = 2.0
COVERING_GRID = 201
COVERING_THRESHOLD = 0.25
CLARKE_H = (1e-6, 1e-2)
CLARKE_SAMPLES = 3000
# At the minimizer -1 of the smooth branch the quotient is at most
# |f'| + 3*h_max, far below the tolerance.
CLARKE_TOL = 0.05
SAMPLE_POINTS = 40001

# The config a fresh interpreter loads when setup_s is measured.
SETUP_CONFIG = {"montecarlo": "revealing.cfg", "trace_roundtrip": "long.cfg", "density_clarke": "pilot.cfg"}


def _derived_config(source: Path, target: Path, algorithm: dict, trace_path: str) -> None:
    """Write ``source`` with some [algorithm] keys and the trace path replaced."""
    parser = configparser.ConfigParser()
    parser.read(source, encoding="utf-8")
    for key, value in algorithm.items():
        parser["algorithm"][key] = str(value)
    parser["output"]["trace_path"] = trace_path
    with open(target, "w", encoding="utf-8") as handle:
        parser.write(handle)


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the inputs of ``workload`` for benchmark ``seed`` into ``workdir``
    and return its plan; every seed the program sees derives from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    workdir.mkdir(parents=True)
    for name in ("counterexample.cfg", "revealing.cfg"):
        shutil.copyfile(root / "configs" / name, workdir / name)
    long_seed = rng.randrange(2**31)
    _derived_config(
        root / "configs" / "revealing.cfg",
        workdir / "long.cfg",
        {"seed": long_seed, "max_iterations": LONG_ITERATIONS, "alpha_min": 0.0},
        "long_trace.jsonl",
    )
    _derived_config(
        root / "configs" / "revealing.cfg",
        workdir / "pilot.cfg",
        {
            "revealing_radius": COVERING_RADIUS,
            "revealing_count": PILOT_REVEALING_COUNT,
            "max_iterations": PILOT_ITERATIONS,
            "alpha_min": 0.0,
        },
        "pilot_trace.jsonl",
    )
    plan = {
        "workload": workload,
        "seed": seed,
        "master_seed": rng.randrange(2**31),
        "long_seed": long_seed,
        "pilot_seeds": [rng.randrange(2**63) for _ in range(PILOT_COUNT)],
    }
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


class Checks:
    """Operations attempted in a pass and the ones that failed.

    An operation is one CLI command or library call; it fails on a nonzero
    exit, an exception, or an output that misses its golden value.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def cli(self, name: str, argv: list[str], expect_lines: tuple[str, ...] = ()) -> str:
        """Run ``ddsearch.cli.main(argv)``; it must exit 0 and print every expected line."""
        from ddsearch import cli

        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            self.record(name, False, f"raised {exc!r}")
            return ""
        text = out.getvalue()
        missing = [line for line in expect_lines if line not in text.splitlines()]
        self.record(name, code == 0 and not missing, f"exit {code}, missing {missing}: {text[-300:]!r}")
        return text


def _sha256(path: str) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        return repr(exc)


def _gap(text: str) -> float:
    for line in text.splitlines():
        if line.startswith("gap: "):
            return float(line[5:])
    return math.nan


def _pass_montecarlo(plan: dict, checks: Checks) -> None:
    checks.cli(
        "montecarlo",
        ["montecarlo", "revealing.cfg", "--trials", str(MC_TRIALS), "--master-seed", str(plan["master_seed"])],
        (f"escaped: {MC_TRIALS}/{MC_TRIALS}", f"converged: {MC_TRIALS}/{MC_TRIALS}"),
    )


def _pass_trace_roundtrip(plan: dict, checks: Checks) -> None:
    for name in ("counterexample", "revealing"):
        checks.cli(f"run {name}", ["run", f"{name}.cfg"])
        digest = _sha256(f"{name}_trace.jsonl")
        checks.record(f"hash {name}", digest == BUNDLED_TRACE_SHA256[name], digest)
    text = checks.cli(
        "analyze counterexample",
        ["analyze", "counterexample_trace.jsonl", "--verify-lemma", str(LEMMA_Q), "--expect-gap", "1.0", "--tol", "1e-3"],
        (f"lemma-verified q=0..{LEMMA_Q}",),
    )
    checks.record("unit gap", abs(_gap(text) - 1.0) <= 1e-3, f"gap {_gap(text)!r}")
    checks.cli("analyze revealing", ["analyze", "revealing_trace.jsonl", "--expect-gap", "0", "--tol", "1e-3"])
    checks.cli("run long", ["run", "long.cfg"], (f"wrote long_trace.jsonl: {LONG_ITERATIONS} iterations, termination=max_iterations",))
    checks.cli("analyze long", ["analyze", "long_trace.jsonl", "--expect-gap", "0", "--tol", "1e-3"])


def _pass_density_clarke(plan: dict, checks: Checks) -> None:
    from ddsearch import analysis, configfile, engine, objective

    experiment = configfile.load_experiment_config("pilot.cfg")
    spec = objective.get_objective(experiment.objective_name)
    for seed in plan["pilot_seeds"]:
        trace = engine.run(dataclasses.replace(experiment.algo, seed=seed), spec)
        points = analysis.trial_points(trace, kinds=("revealing_poll",), unsuccessful_only=True)
        limit = trace.final_incumbent()
        radius = analysis.covering_radius(points, limit, COVERING_RADIUS, COVERING_GRID)
        checks.record("covering_radius", radius < COVERING_THRESHOLD, f"radius {radius!r} for seed {seed}")
        for direction in (1.0, -1.0):
            value = analysis.clarke_estimate(spec, limit, (direction,), *CLARKE_H, CLARKE_SAMPLES)
            checks.record("clarke_estimate", math.isfinite(value) and abs(value) <= CLARKE_TOL, f"{value!r} at {limit}")
    checks.cli(
        "sample",
        ["sample", "counterexample", "-2", "2", str(SAMPLE_POINTS), "samples.csv"],
        (f"wrote samples.csv: {SAMPLE_POINTS} rows",),
    )
    # The grid hits -1 and 0 exactly: the left-branch minimum -2 and the
    # value -1 at the discontinuity.
    rows = Path("samples.csv").read_text(encoding="utf-8").splitlines()
    ok = len(rows) == SAMPLE_POINTS + 1 and "-1.0,-2.0" in rows and "0.0,-1.0" in rows
    checks.record("sample grid", ok, f"{len(rows)} rows")


_PASSES = {
    "montecarlo": _pass_montecarlo,
    "trace_roundtrip": _pass_trace_roundtrip,
    "density_clarke": _pass_density_clarke,
}


def run_pass(plan: dict) -> Checks:
    """One pass of the plan's workload, run in the workload's directory."""
    checks = Checks()
    try:
        _PASSES[plan["workload"]](plan, checks)
    except Exception as exc:  # a library call that raises fails its pass
        checks.record("pass", False, f"raised {exc!r}")
    return checks
