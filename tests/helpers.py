"""Shared test machinery: config factories, a counting objective wrapper, and
a randomized config generator for the property suite and the acceptance
gate.  Whether a trace is one the engine writes is decided by replaying it
(``traceio.validate_trace``), not by rules kept here."""

from __future__ import annotations

import dataclasses

import numpy as np

from ddsearch import AlgoConfig, ObjectiveSpec, Trace


def counterexample_config(**overrides) -> AlgoConfig:
    """The dyadic-trap instance: x0=5/4, alpha0=1/4, halve on failure."""
    base = AlgoConfig(
        x0=(1.25,),
        alpha0=0.25,
        beta1=0.5,
        beta2=0.5,
        gamma=1.0,
        search_schedule="counterexample",
        poll_directions="pm1",
        forcing="zero",
        seed=0,
        max_iterations=52,
        alpha_min=0.0,
    )
    return dataclasses.replace(base, **overrides)


def revealing_config(**overrides) -> AlgoConfig:
    """The repaired instance: same trap plus a radius-2 revealing poll."""
    base = counterexample_config(
        revealing_radius=2.0,
        revealing_count=1,
        max_iterations=500,
        alpha_min=1e-9,
        seed=42,
    )
    return dataclasses.replace(base, **overrides)


class CountingObjective:
    """Wrap an ObjectiveSpec and count evaluator calls."""

    def __init__(self, inner: ObjectiveSpec):
        self.calls = 0
        self._inner = inner
        self.spec = ObjectiveSpec(
            name=inner.name,
            dimension=inner.dimension,
            evaluator=self._evaluate,
            domain_oracle=inner.domain_oracle,
        )

    def _evaluate(self, point):
        self.calls += 1
        return self._inner.evaluator(point)


def random_config(rng: np.random.Generator) -> tuple[AlgoConfig, str]:
    """Draw one valid config over the bundled 1-D objectives."""
    objective_name = str(rng.choice(["counterexample", "neg_abs", "abs", "quadratic_1d"]))
    beta1 = float(rng.uniform(0.05, 0.9))
    beta2 = float(rng.uniform(beta1, 0.95))
    revealing = bool(rng.random() < 0.5)
    config = AlgoConfig(
        x0=(float(rng.uniform(-3.0, 3.0)),),
        alpha0=float(rng.uniform(0.01, 2.0)),
        beta1=beta1,
        beta2=beta2,
        gamma=float(rng.uniform(1.0, 2.0)),
        revealing_radius=float(rng.uniform(0.5, 3.0)) if revealing else None,
        revealing_count=int(rng.integers(1, 5)) if revealing else 1,
        search_schedule=str(rng.choice(["none", "counterexample"])),
        poll_directions=str(rng.choice(["pm1", "coordinate"])),
        forcing=str(rng.choice(["zero", "quadratic"])),
        seed=int(rng.integers(0, 2**63)),
        max_iterations=int(rng.integers(1, 25)),
        alpha_min=float(rng.choice([0.0, 1e-6])),
    )
    return config, objective_name


def evaluation_count(trace: Trace) -> int:
    """Number of evaluator calls a run performs: one for the starting point
    plus one per in-domain trial point."""
    return 1 + sum(
        sum(1 for t in o.trials if t.in_domain) for r in trace.records for o in r.outcomes
    )
