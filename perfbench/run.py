#!/usr/bin/env python3
"""ddsearch benchmark: end-to-end metrics, or per-layer metrics of a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0

``--workload`` is montecarlo, trace_roundtrip, density_clarke, or ``all``,
which runs every workload with their passes interleaved.  The inputs derive
from ``--seed``.  Each workload runs in a worker process under a temporary
directory of the checkout that is removed at exit.  Passes repeat, round-robin
over the workers, until ``--seconds`` have passed.  With ``--trace 1`` an
untraced and a traced worker alternate, and the per-layer metrics come from
the traced one.  Times are scaled to the speed of the host at the moment
they were taken, by a reference probe timed next to each of them (see
reference.py).  The last line of stdout is the JSON result; see README.md
for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_SETUP
from tracing import LAYER_UNITS, REPORTED, median_metrics
from workloads import SETUP_CONFIG, WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
# The watchdog kills every process this long after the measuring should end.
DEADLINE_MARGIN_S = 140.0
# Reported times are in reference seconds: seconds on a host on which the
# reference pass takes REFERENCE_PASS_S and a fresh interpreter that imports
# numpy takes REFERENCE_SETUP_S: the fastest medians measured on the 2-vCPU
# sandbox the benchmark was written on, so that reference seconds are about
# the seconds of that sandbox at its fastest.
REFERENCE_PASS_S = 0.011
REFERENCE_SETUP_S = 0.12
SETUP_PROBE = "import sys, ddsearch.cli, ddsearch.configfile as c; c.load_experiment_config(sys.argv[1])"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_environment() -> dict[str, str]:
    """ddsearch from this checkout's src/, and single-threaded numerics."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


class Worker:
    """A worker.py process and the replies to its passes."""

    def __init__(self, workload: str, traced: bool, directory: Path, env: dict[str, str], started: list) -> None:
        self.workload, self.traced = workload, traced
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(directory / "plan.json"), "--trace", str(int(traced))],
            cwd=directory,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        started.append(self.process)
        self.passes: list[dict] = []
        self.warmup = self._receive()

    def _receive(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise HarnessError(f"{self.workload} worker exited with code {self.process.wait()}")
        return json.loads(line)

    def _send(self, line: str) -> None:
        try:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            raise HarnessError(f"{self.workload} worker exited with code {self.process.wait()}") from None

    def run_pass(self) -> None:
        self._send("pass")
        self.passes.append(self._receive())

    def stop(self) -> float:
        """End the worker and return its peak resident memory in MB."""
        self._send("stop")
        peak = self._receive()["peak_rss_mb"]
        self.process.wait()
        return peak

    def operations(self) -> tuple[int, list[str]]:
        replies = [self.warmup, *self.passes]
        return sum(r["attempted"] for r in replies), [f for r in replies for f in r["failures"]]


def probe(directory: Path, code: str, args: list[str], env: dict[str, str], started: list) -> float:
    """Wall time of a fresh interpreter running ``code`` with ``args``."""
    start = perf_counter()
    process = subprocess.Popen([sys.executable, "-c", code, *args], cwd=directory, env=env)
    started.append(process)
    # A blocking wait: waiting with a timeout polls in steps of up to 50 ms.
    if process.wait() != 0:
        raise HarnessError(f"probe {code!r} exited with code {process.returncode}")
    return perf_counter() - start


def kill_all(processes: list) -> None:
    for process in list(processes):
        if process.poll() is None:
            process.kill()


def scaled_wall(passes: list[dict]) -> float:
    """Median pass time in reference seconds."""
    return statistics.median(p["wall_s"] / p["reference_s"] for p in passes) * REFERENCE_PASS_S


def run_benchmark(workloads: list[str], seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    env = child_environment()
    kinds = (False, True) if trace else (False,)
    directories = {(w, traced): workdir / w / ("traced" if traced else "untraced") for w in workloads for traced in kinds}
    plans = {w: prepare(w, seed, ROOT, directory) for (w, _), directory in directories.items()}
    # Each round of set-up probes ends with a reference probe, which scales
    # the round's set-up probes.
    setup: dict[str, list[float]] = {w: [] for w in workloads}
    references: list[float] = []
    started: list[subprocess.Popen] = []
    workers: list[Worker] = []

    def probe_setup() -> None:
        for w in workloads:
            setup[w].append(probe(directories[w, False], SETUP_PROBE, [SETUP_CONFIG[w]], env, started))
        references.append(probe(workdir, REFERENCE_SETUP, [], env, started))

    watchdog = threading.Timer(seconds + DEADLINE_MARGIN_S, kill_all, [started])
    watchdog.start()
    try:
        probe_setup()  # untimed: warms the file cache
        for times in (*setup.values(), references):
            times.clear()
        for (workload, traced), directory in directories.items():
            workers.append(Worker(workload, traced, directory, env, started))
        # Round-robin over the workers and the set-up probes, so that drift in
        # machine speed hits every measurement alike.
        start = perf_counter()
        while perf_counter() - start < seconds or min(len(w.passes) for w in workers) < MIN_PASSES:
            for worker in workers:
                worker.run_pass()
            probe_setup()
        peaks = {id(w): w.stop() for w in workers}
    finally:
        watchdog.cancel()
        kill_all(started)
        for process in started:
            process.wait()

    results = {}
    for workload in workloads:
        untraced = next(w for w in workers if w.workload == workload and not w.traced)
        wall = scaled_wall(untraced.passes)
        setup_scaled = [s / r for s, r in zip(setup[workload], references)]
        attempted, failures = 0, []
        for worker in workers:
            if worker.workload == workload:
                a, f = worker.operations()
                attempted += a
                failures += f
        result = {
            "plan": plans[workload],
            "passes": len(untraced.passes),
            "iterations": untraced.warmup["iterations"],
            "unscaled": {
                "setup_s": statistics.median(setup[workload]),
                "wall_s": statistics.median(p["wall_s"] for p in untraced.passes),
                "reference setup probe s": statistics.median(references),
                "reference pass s": statistics.median(p["reference_s"] for p in untraced.passes),
            },
            "attempted": attempted,
            "failures": failures,
            "end_to_end": {
                "setup_s": statistics.median(setup_scaled) * REFERENCE_SETUP_S,
                "wall_s": wall,
                "iters_per_s": untraced.warmup["iterations"] / wall,
                "peak_rss_mb": peaks[id(untraced)],
            },
        }
        if trace:
            traced = next(w for w in workers if w.workload == workload and w.traced)
            layers = median_metrics([p["layers"] for p in traced.passes])
            layers["trace.overhead_ratio"] = scaled_wall(traced.passes) / wall
            result["layers"] = layers
        results[workload] = result
    return results


def report(results: dict, seed: int, trace: bool) -> dict:
    """Print the human-readable report and return the JSON result."""
    metrics, attempted, failed = {}, 0, 0
    for workload, result in results.items():
        prefix = f"{workload}." if len(results) > 1 else ""
        attempted += result["attempted"]
        failed += len(result["failures"])
        print(f"workload {workload}, seed {seed}: {result['passes']} untraced passes, {result['iterations']} solver iterations per pass")
        print(f"  inputs: {json.dumps(result['plan'])}")
        print("  unscaled medians: " + ", ".join(f"{k} {v:.4g}" for k, v in result["unscaled"].items()))
        for name, value in result["end_to_end"].items():
            print(f"  {name:<44} {value:.6g} {END_TO_END_UNITS[name]}")
            if not trace:
                metrics[prefix + name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        error_rate = len(result["failures"]) / result["attempted"]
        print(f"  {'error_rate':<44} {error_rate:.6g} ({len(result['failures'])} of {result['attempted']} operations failed)")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
        if trace:
            for name, value in sorted(result["layers"].items()):
                marker = "" if name in REPORTED else "   (table only)"
                print(f"  {name:<44} {value:.6g} {LAYER_UNITS[name]}{marker}")
                if name in REPORTED:
                    metrics[prefix + name] = {"value": value, "unit": LAYER_UNITS[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="ddsearch benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    required = [ROOT / "src" / "ddsearch" / "cli.py", ROOT / "configs" / "counterexample.cfg", ROOT / "configs" / "revealing.cfg"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"run.py: not a ddsearch checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        results = run_benchmark(workloads, args.seed, args.seconds, bool(args.trace), workdir)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(report(results, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
