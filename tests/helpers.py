"""Shared test machinery: the bundled instances as configs, a counting
objective wrapper, a 2-D objective with a domain oracle, a strategy of random
configs for the acceptance gate, the band quartic in exact arithmetic, and
the peak memory of a call.
Whether a trace is one the engine writes is decided by writing it and
reading it back (``traceio.read_trace`` replays it), and whether a config is
valid by ``engine.validate_config``, not by rules kept here."""

from __future__ import annotations

import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hypothesis import strategies as st

from ddsearch import AlgoConfig, ConfigError, ObjectiveSpec, Trace, get_objective, objective, steps
from ddsearch.configfile import load_experiment_config
from ddsearch.engine import validate_config
from ddsearch.objective import BAND_QUARTIC

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
CALIBRATION_SCRIPT = CONFIGS_DIR.parent / "scripts" / "calibrate_covering_threshold.py"


@functools.cache
def _bundled(name: str) -> AlgoConfig:
    return load_experiment_config(CONFIGS_DIR / name).algo


def counterexample_config(**overrides) -> AlgoConfig:
    """The dyadic-trap instance of ``configs/counterexample.cfg``."""
    return dataclasses.replace(_bundled("counterexample.cfg"), **overrides)


def revealing_config(**overrides) -> AlgoConfig:
    """The repaired instance of ``configs/revealing.cfg``: the same trap
    plus a radius-2 revealing poll."""
    return dataclasses.replace(_bundled("revealing.cfg"), **overrides)


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


def wedge_value(point):
    """A 2-D kink with a step down across y = 0 and value inf above x + y = 0.05."""
    x, y = point
    if x + y > 0.05:
        return math.inf
    return abs(x) - 0.5 * abs(y) + (0.25 if y < 0.0 else 0.0)


def _above(point):
    return point[1] >= -0.05


#: ``wedge_value`` restricted to y >= -0.05 by its domain oracle.
WEDGE = ObjectiveSpec("wedge_2d", 2, wedge_value, _above)


def exact_band_quartic(x: Fraction, order: int = 0) -> Fraction:
    """The ``order``-th derivative of the band quartic at ``x``, in exact
    rational arithmetic over the coefficients of ``BAND_QUARTIC``."""
    terms = enumerate(BAND_QUARTIC[order:], order)
    return sum(math.perm(k, order) * Fraction(c) * x ** (k - order) for k, c in terms)


def _is_valid(drawn: tuple[AlgoConfig, str]) -> bool:
    try:
        validate_config(drawn[0])
    except ConfigError:
        return False
    return True


# Each range bounds the cost of a run and straddles the bounds of
# validate_config, so that the filter, not the ranges, decides validity.
# The betas are drawn as an ordered pair in [0, 1], so that their order,
# which would fail about half the draws, is not left to the filter.
_OBJECTIVE_NAMES = st.sampled_from(sorted(objective._REGISTRY))
_COORDINATES = st.floats(-3.0, 3.0)
_BETAS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)
_FIELDS = {
    "alpha0": st.floats(0.0, 2.0) | st.integers(1, 2),
    "gamma": st.floats(0.5, 2.0) | st.integers(1, 2),
    "revealing_radius": st.none() | st.floats(0.0, 3.0),
    "revealing_count": st.integers(0, 4),
    "search_schedule": st.sampled_from(sorted(steps._SEARCH_SCHEDULES)),
    "poll_directions": st.sampled_from(sorted(steps._POLL_DIRECTIONS)),
    "forcing": st.sampled_from(sorted(steps._FORCING)),
    "seed": st.integers(0, 2**128),
    "max_iterations": st.integers(0, 24),
    "alpha_min": st.sampled_from([0.0, 1e-6]),
}


@st.composite
def _drawn_config(draw) -> tuple[AlgoConfig, str]:
    objective_name = draw(_OBJECTIVE_NAMES)
    x0 = tuple(draw(_COORDINATES) for _ in range(get_objective(objective_name).dimension))
    beta1, beta2 = draw(_BETAS)
    fields = {name: draw(values) for name, values in _FIELDS.items()}
    return AlgoConfig(x0=x0, beta1=beta1, beta2=beta2, **fields), objective_name


def random_config() -> st.SearchStrategy[tuple[AlgoConfig, str]]:
    """Valid configs over the registry's objectives, drawn with their
    objective's name."""
    return _drawn_config().filter(_is_valid)


def evaluation_count(trace: Trace) -> int:
    """Number of evaluator calls a run performs: one for the starting point
    plus one per in-domain trial point, except a trial at its record's
    incumbent ``x`` where ``x`` holds no zero, which takes the incumbent's
    value unevaluated."""
    return 1 + sum(
        sum(1 for t in o.trials if t.in_domain and (t.point != r.x or 0.0 in r.x))
        for r in trace.records
        for o in r.outcomes
    )


def peak_memory(call: Callable[[], object]) -> tuple[object, int]:
    """What ``call()`` returns, and the peak in bytes that ``tracemalloc``
    traces while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
