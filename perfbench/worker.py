"""Benchmark worker: runs passes of one workload on request.

Usage: worker.py PLAN.json --trace 0|1, started by run.py in the workload's
own directory.  The worker answers each line ``pass`` on stdin with one JSON
line on stdout, and ``stop`` with its peak resident memory.  A pass is timed
between two timed reference passes (see reference.py), so that run.py can
scale it to the host's speed at that moment.  Before the first request the
worker runs one traced warm-up pass, which counts the solver iterations of a
pass; an untraced worker then removes the wrappers again.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from reference import reference_pass
from tracing import Tracer
from workloads import run_pass


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    plan = json.loads(args.plan.read_text(encoding="utf-8"))

    import ddsearch

    source = Path(ddsearch.__file__).resolve().parent
    expected = Path(__file__).resolve().parent.parent / "src" / "ddsearch"
    if source != expected:
        print(f"worker: imported ddsearch from {source}, expected {expected}", file=sys.stderr)
        return 2

    def timed_reference() -> float:
        start = perf_counter()
        reference_pass()
        return perf_counter() - start

    tracer = Tracer()
    tracer.install()
    timed_reference()
    warmup = run_pass(plan)
    iterations = tracer.counts["iterations"]
    if not args.trace:
        tracer.uninstall()
    _send({"iterations": iterations, "attempted": warmup.attempted, "failures": warmup.failures})

    for line in sys.stdin:
        if line.strip() == "stop":
            break
        tracer.reset()
        before = timed_reference()
        start = perf_counter()
        checks = run_pass(plan)
        wall = perf_counter() - start
        reference = (before + timed_reference()) / 2
        reply = {"wall_s": wall, "reference_s": reference, "attempted": checks.attempted, "failures": checks.failures}
        if args.trace:
            reply["layers"] = tracer.layer_metrics()
        _send(reply)
    # ru_maxrss is in KiB on Linux.
    _send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


if __name__ == "__main__":
    sys.exit(main())
