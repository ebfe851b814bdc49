"""Schedules, direction sets, the uniform ball sampler, and forcing functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ddsearch.engine import iteration_rng
from ddsearch.objective import UnknownNameError
from ddsearch.steps import (
    _POLL_DIRECTIONS,
    get_forcing,
    get_poll_directions,
    get_search_schedule,
    sample_ball_uniform,
)

from reference import leaves, uniform_ball


@pytest.mark.parametrize(
    "name,dimension",
    # Each registered set in each dimension it allows, up to 4 for any.
    [(name, n) for name, (_, required) in _POLL_DIRECTIONS.items() for n in ([required] if required else range(1, 5))],
)
def test_bundled_direction_sets_positively_span(name, dimension):
    # A certificate of positive spanning (Davis, 1954): with rank n, any
    # vector is some combination of the directions, and with a zero sum,
    # adding one constant to every coefficient keeps the vector, so the
    # coefficients can all be made nonnegative.
    directions = np.array(get_poll_directions(name, dimension))
    assert np.linalg.matrix_rank(directions) == dimension
    assert not directions.sum(axis=0).any()


def test_sample_ball_one_dimensional_is_uniform():
    # Kolmogorov-Smirnov distance against the uniform CDF on [-2, 2]; the
    # 0.01 bound is far above the 1.36/sqrt(n) ~ 0.0043 critical value at
    # the 5% level for n = 1e5.
    n = 100_000
    draws = np.array([p[0] for p in sample_ball_uniform(iteration_rng(17, 0), 1, 2.0, n)])
    draws.sort()
    cdf = (draws + 2.0) / 4.0
    grid = np.arange(n, dtype=float)
    distance = max(np.max(cdf - grid / n), np.max((grid + 1.0) / n - cdf))
    assert distance <= 0.01


@pytest.mark.parametrize("radius", [2.0, 0.3, 1e-300])
@pytest.mark.parametrize("count", [1, 4])
def test_sample_ball_is_the_general_formula(radius, count):
    # The general formula scales the points of the unit ball by the radius.
    # Streams: of 2000 seeds in 1-D, where the sampler has a closed form of
    # its own, of 100 in 2-D and 3-D, and of iterations 0, 0 and 4 of runs
    # at seeds 123, 5 and 9, as ``iteration_rng`` draws them.
    for dimension, seeds in ((1, 2000), (2, 100), (3, 100)):
        for entropy in [*range(seeds), (123, 0), (5, 0), (9, 4)]:
            fast, general = np.random.default_rng(entropy), np.random.default_rng(entropy)
            points = sample_ball_uniform(fast, dimension, radius, count)
            assert leaves(points) == leaves(uniform_ball(general, dimension, radius, count))
            # Both consumed the same draws.
            assert fast.bit_generator.state == general.bit_generator.state
            assert all(math.hypot(*point) <= radius for point in points)


class _ScriptedGenerator:
    """Stands in for a Generator, returning fixed normals and uniforms in
    order: a float for a call without ``size``, else an array."""

    def __init__(self, normals, uniforms):
        self._normals, self._uniforms = list(normals), list(uniforms)

    def standard_normal(self, size=None):
        if size is None:
            return self._normals.pop(0)
        n = int(np.prod(size))
        values, self._normals = self._normals[:n], self._normals[n:]
        return np.array(values, dtype=float).reshape(size)

    def random(self, size=None):
        if size is None:
            return self._uniforms.pop(0)
        values, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        return np.array(values, dtype=float)

    def exhausted(self):
        return not self._normals and not self._uniforms


def test_sample_ball_one_dimensional_redraws_and_signed_zeros():
    # Zero normals (and 1e-200, whose square underflows) are redrawn in the
    # same batches; a uniform of 0 gives a zero signed like its normal.
    normals = [0.0, -1.5, 1e-200, 2.0, 0.0, 3.0, -0.5]
    uniforms = [0.5, 0.0, 0.25, 0.0]
    scripted = _ScriptedGenerator(normals, uniforms)
    fast = sample_ball_uniform(scripted, 1, 2.0, 4)
    general = uniform_ball(_ScriptedGenerator(normals, uniforms), 1, 2.0, 4)
    assert leaves(fast) == leaves(general)
    assert [repr(p[0]) for p in fast] == ["-1.0", "-0.0", "0.5", "0.0"]
    assert scripted.exhausted()


@pytest.mark.parametrize(
    "normals,uniforms,expected",
    [
        ([0.0, 1e-200, -0.75], [0.0], "-0.0"),
        ([1e-200, 0.0, 3.0], [0.0], "0.0"),
        ([-1.5], [0.5], "-1.0"),
    ],
)
def test_sample_ball_one_dimensional_single_draw_redraws_and_signed_zeros(normals, uniforms, expected):
    # One point is drawn with scalar calls; it takes the same draws as the
    # batched formula, redraws included.
    scripted = _ScriptedGenerator(normals, uniforms)
    fast = sample_ball_uniform(scripted, 1, 2.0, 1)
    general = uniform_ball(_ScriptedGenerator(normals, uniforms), 1, 2.0, 1)
    assert leaves(fast) == leaves(general)
    assert [repr(p[0]) for p in fast] == [expected]
    assert scripted.exhausted()


def test_sample_ball_rejects_bad_arguments():
    rng = iteration_rng(0, 0)
    with pytest.raises(ValueError):
        sample_ball_uniform(rng, 1, 2.0, 0)
    with pytest.raises(ValueError):
        sample_ball_uniform(rng, 1, 0.0, 1)
    with pytest.raises(ValueError):
        sample_ball_uniform(rng, 1, -1.0, 1)


@pytest.mark.parametrize("name", ["zero", "quadratic"])
def test_forcing_is_nondecreasing_and_sublinear(name):
    # engine.iterate skips the forcing test on a step whose best value is
    # not below the incumbent's, which is sound only if no forcing is
    # negative: so the grid runs from 0, the least subnormal and the least
    # normal distance to one whose square overflows, and inf.
    forcing = get_forcing(name)
    grid = [0.0, 5e-324, 2.2250738585072014e-308, *(10.0**-k for k in range(8, 0, -1))]
    grid += [0.5, 1.0, 2.0, 1e200, math.inf]
    values = [forcing(t) for t in grid]
    assert all(v >= 0.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    ratios = [forcing(10.0**-k) / 10.0**-k for k in range(1, 9)]
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] <= 1e-8


def test_lookup_errors_list_valid_names():
    with pytest.raises(UnknownNameError, match="zero"):
        get_forcing("cubic")
    with pytest.raises(UnknownNameError, match="counterexample"):
        get_search_schedule("random", 1)
    with pytest.raises(UnknownNameError, match="pm1"):
        get_poll_directions("dense", 1)


def test_dimension_constraints():
    with pytest.raises(ValueError, match="dimension 1"):
        get_search_schedule("counterexample", 2)
    with pytest.raises(ValueError, match="dimension 1"):
        get_poll_directions("pm1", 3)
    assert get_search_schedule("none", 5)(0, (0.0,) * 5, 1.0) == []
