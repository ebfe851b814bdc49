"""Per-layer spans and counters for the traced benchmark run.

Nothing in ``src/`` knows about tracing: ``Tracer.install`` rebinds the
public functions of each ddsearch module (layer) to timing wrappers, and
``uninstall`` restores the originals.  A wrapper records the span's
duration and charges it to the enclosing span, so a layer's self time is its
duration minus the time spent in the layers it called.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# name -> unit of every per-layer metric.  REPORTED metrics go into the JSON
# result; the others stay at exactly 0 on the workloads that bypass their
# layer, so they are printed in the per-layer table only.
REPORTED = {
    "engine.iteration_rng.us": "us",
    "engine.iteration_rng.calls": "count",
    "steps.sample_ball_uniform.us": "us",
    "steps.sample_ball_uniform.calls": "count",
    "steps.draws": "count",
    "engine.run.self_s": "s",
    "engine.self_us_per_iter": "us",
    "engine.iterations": "count",
    "engine.run.calls": "count",
    "engine.run.p50_s": "s",
    "engine.run.p95_s": "s",
    "engine.evaluate.calls": "count",
    "engine.evaluate.self_us": "us",
    "objective.evals": "count",
    "objective.eval_us": "us",
    "engine.search.win_ratio": "ratio",
    "engine.revealing.win_ratio": "ratio",
    "engine.poll.win_ratio": "ratio",
    "engine.evals_per_iter": "evals/iter",
    "analysis.self_s": "s",
    "configfile.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
TABLE_ONLY = {
    "objective.domain_rejects": "count",
    "traceio.write_trace.s": "s",
    "traceio.read_trace.s": "s",
    "traceio.bytes": "B",
    "traceio.write_mb_per_s": "MB/s",
    "traceio.read_mb_per_s": "MB/s",
    "analysis.extract_refining.s": "s",
    "analysis.verify_counterexample_closed_form.s": "s",
    "analysis.covering_radius.s": "s",
    "analysis.clarke_estimate.s": "s",
    "analysis.trial_points.s": "s",
    "analysis.monte_carlo_escape.self_s": "s",
}
LAYER_UNITS = {**REPORTED, **TABLE_ONLY}

# Analysis kernels reported by inclusive time; the Monte Carlo harness, which
# drives whole solver runs, is reported by self time.
ANALYSIS_KERNELS = (
    "extract_refining",
    "verify_counterexample_closed_form",
    "covering_radius",
    "clarke_estimate",
    "trial_points",
)
ANALYSIS_FUNCTIONS = ANALYSIS_KERNELS + ("monte_carlo_escape",)
STEP_KINDS = {"search": "search", "revealing_poll": "revealing", "poll": "poll"}


class Tracer:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._specs: dict[str, object] = {}
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts: Counter[str] = Counter()
        self.run_durations: list[float] = []
        self._children = [0.0]  # time spent in child spans, one entry per open span

    def reset(self) -> None:
        """Forget what was recorded; installed wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()
        self.run_durations.clear()
        self._children[:] = [0.0]

    def _span(self, name: str, function, after=None):
        spans, children = self.spans, self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = children.pop()
                children[-1] += duration
                span = spans[name]
                span[0] += 1
                span[1] += duration
                span[2] += duration - inner
            if after is not None:
                after(args, result, duration)
            return result

        return traced

    def _rebind(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _traced_spec(self, spec):
        """The objective with its evaluator and domain oracle counted."""
        if spec.name not in self._specs:
            oracle = spec.domain_oracle

            def counted_oracle(point):
                inside = oracle(point)
                if not inside:
                    self.counts["objective.domain_rejects"] += 1
                return inside

            self._specs[spec.name] = dataclasses.replace(
                spec, evaluator=self._span("objective", spec.evaluator), domain_oracle=counted_oracle
            )
        return self._specs[spec.name]

    def _after_run(self, args, trace, duration) -> None:
        self.run_durations.append(duration)
        for record in trace.records:
            self.counts["iterations"] += 1
            for outcome in record.outcomes:
                kind = STEP_KINDS[outcome.kind]
                self.counts[f"{kind}.attempts"] += 1
                self.counts[f"{kind}.wins"] += outcome.success
                self.counts["trials"] += len(outcome.trials)

    def _after_io(self, direction: str, path_index: int):
        def after(args, result, duration) -> None:
            self.counts[f"{direction}.bytes"] += os.path.getsize(args[path_index])

        return after

    def _after_sample(self, args, result, duration) -> None:
        self.counts["draws"] += len(result)

    def install(self) -> None:
        from ddsearch import analysis, cli, configfile, engine, objective, steps, traceio

        get_objective = objective.get_objective

        def traced_get_objective(name):
            return self._traced_spec(get_objective(name))

        for module in (objective, cli, analysis):
            self._rebind(module, "get_objective", traced_get_objective)
        load = self._span("configfile.load_experiment_config", configfile.load_experiment_config)
        self._rebind(configfile, "load_experiment_config", load)
        self._rebind(cli, "load_experiment_config", load)
        self._rebind(cli, "main", self._span("cli.main", cli.main))
        self._rebind(engine, "run", self._span("engine.run", engine.run, self._after_run))
        self._rebind(engine, "evaluate", self._span("engine.evaluate", engine.evaluate))
        self._rebind(engine, "iteration_rng", self._span("engine.iteration_rng", engine.iteration_rng))
        sampler = self._span("steps.sample_ball_uniform", steps.sample_ball_uniform, self._after_sample)
        self._rebind(steps, "sample_ball_uniform", sampler)
        self._rebind(traceio, "write_trace", self._span("traceio.write_trace", traceio.write_trace, self._after_io("write", 1)))
        self._rebind(traceio, "read_trace", self._span("traceio.read_trace", traceio.read_trace, self._after_io("read", 0)))
        for name in ANALYSIS_FUNCTIONS:
            self._rebind(analysis, name, self._span(f"analysis.{name}", getattr(analysis, name)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        self._specs.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans[name][0] if name in spans else 0

        def total(name):
            return spans[name][1] if name in spans else 0.0

        def self_time(name):
            return spans[name][2] if name in spans else 0.0

        def per_call_us(name):
            return 1e6 * self_time(name) / calls(name) if calls(name) else 0.0

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        iterations = counts["iterations"]
        durations = sorted(self.run_durations)
        write_s, read_s = total("traceio.write_trace"), total("traceio.read_trace")
        metrics = {
            "engine.iteration_rng.us": per_call_us("engine.iteration_rng"),
            "engine.iteration_rng.calls": calls("engine.iteration_rng"),
            "steps.sample_ball_uniform.us": per_call_us("steps.sample_ball_uniform"),
            "steps.sample_ball_uniform.calls": calls("steps.sample_ball_uniform"),
            "steps.draws": counts["draws"],
            "engine.run.self_s": self_time("engine.run"),
            "engine.self_us_per_iter": ratio(1e6 * self_time("engine.run"), iterations),
            "engine.iterations": iterations,
            "engine.run.calls": calls("engine.run"),
            "engine.run.p50_s": _percentile(durations, 0.50),
            "engine.run.p95_s": _percentile(durations, 0.95),
            "engine.evaluate.calls": calls("engine.evaluate"),
            "engine.evaluate.self_us": per_call_us("engine.evaluate"),
            "objective.evals": calls("objective"),
            "objective.eval_us": per_call_us("objective"),
            "objective.domain_rejects": counts["objective.domain_rejects"],
            "engine.evals_per_iter": ratio(counts["trials"], iterations),
            "analysis.self_s": sum(self_time(f"analysis.{name}") for name in ANALYSIS_FUNCTIONS),
            "configfile.load_s": total("configfile.load_experiment_config"),
            "cli.self_s": self_time("cli.main"),
            "traceio.write_trace.s": write_s,
            "traceio.read_trace.s": read_s,
            "traceio.bytes": counts["write.bytes"],
            "traceio.write_mb_per_s": ratio(counts["write.bytes"] / 1e6, write_s),
            "traceio.read_mb_per_s": ratio(counts["read.bytes"] / 1e6, read_s),
            "analysis.monte_carlo_escape.self_s": self_time("analysis.monte_carlo_escape"),
        }
        for kind in STEP_KINDS.values():
            metrics[f"engine.{kind}.win_ratio"] = ratio(counts[f"{kind}.wins"], counts[f"{kind}.attempts"])
        for name in ANALYSIS_KERNELS:
            metrics[f"analysis.{name}.s"] = total(f"analysis.{name}")
        return metrics


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of every metric."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
