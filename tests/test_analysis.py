"""Analysis tests: refining-subsequence extraction, closed-form verification,
covering radii, the Clarke estimator, and the Monte Carlo escape harness.

The acceptance gate holds the headline cases: the trap's exact refinement
report (criterion 2), its starved left half-ball (criterion 3), the density
of revealing points (criterion 6) and the Clarke estimates of ``-|x|`` and
the smooth branch (criterion 7).  Two kernels rest on an oracle.  Each
covering radius of 150 drawn balls in 1 to 3 dimensions, and of 19 listed
ones, must equal the brute-force max over in-ball grid points of the min
over samples of ``math.dist``, at radii from 1e-300 to 1e300, with grid
points, subnormal offsets and far samples among the samples; the oracle
writes its grid by the formula, not by ``objective.grid_axis``.  The
Clarke estimator must evaluate the points of the scalar stream
(``_van_der_corput``) in order, and its ``float.hex`` pins at n = 1, 4095,
4096, 4097 and 9000 cross the block edges.  ``monte_carlo_escape``, which
ends each trial at its first incumbent within 1e-3 of -1, must give the
statistics of an oracle that runs every trial in full, over a fixed grid
of twelve cells."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddsearch import AlgoConfig, ConfigError, analysis, engine, get_objective, run, steps
from ddsearch.analysis import (
    AnalysisError,
    EscapeStats,
    clarke_estimate,
    covering_radius,
    derive_trial_seed,
    extract_refining,
    monte_carlo_escape,
    trial_points,
    verify_counterexample_closed_form,
)
from ddsearch.engine import IterationRecord, ObjectiveError
from ddsearch.objective import ObjectiveSpec, counterexample_value

from helpers import WEDGE, CountingObjective, counterexample_config, peak_memory, revealing_config, wedge_value


# --------------------------------------------------------------------------
# extract_refining


def test_extract_refining_counterexample_30(vanilla_trace_30, counterexample_objective):
    report = extract_refining(vanilla_trace_30.records, counterexample_objective)
    assert [r.k for r in vanilla_trace_30.records if not r.success] == list(range(0, 30, 2))
    assert report.n_unsuccessful == 15
    # The incumbents contract geometrically, so the limit estimate collapses
    # to the true refined point 0 while the raw tail incumbent is 5/4*2^-14.
    assert abs(report.refined_point[0] - 1.25 * 2.0**-14) <= 1e-4
    assert report.refined_point == (0.0,)
    assert report.refining_directions == ((-1.0,), (1.0,))
    assert report.f_limit == 2.0**-14 * (121 / 128)
    assert report.alpha_tail == 0.25 * 2.0**-14
    assert report.f_refined == -1.0
    assert abs(report.gap - 1.0) <= 1e-3


def test_extract_refining_quadratic_gap_is_zero():
    config = AlgoConfig(x0=(0.5,), alpha0=0.5, poll_directions="pm1", max_iterations=200, alpha_min=1e-9)
    spec = get_objective("quadratic_1d")
    report = extract_refining(run(config, spec).records, spec)
    assert abs(report.gap) <= 1e-6
    assert abs(report.refined_point[0] + 1.0) <= 1e-6


def test_extract_refining_gap_small_on_abs():
    config = AlgoConfig(x0=(0.5,), alpha0=0.5, poll_directions="pm1", max_iterations=200, alpha_min=1e-9)
    spec = get_objective("abs")
    report = extract_refining(run(config, spec).records, spec)
    assert abs(report.gap) <= 1e-6


def test_extract_refining_evaluates_a_passed_objective():
    # The dyadic objective shifted up by 3, under a name outside the registry:
    # the same trap, and the refined value is read from the passed evaluator.
    shifted = ObjectiveSpec("shifted_counterexample", 1, lambda p: counterexample_value(p[0]) + 3.0)
    trace = run(counterexample_config(max_iterations=30), shifted)
    report = extract_refining(trace.records, shifted)
    assert report.f_refined == 2.0
    assert abs(report.gap - 1.0) <= 1e-3


@pytest.mark.parametrize("max_iterations", [52, 1080, 2146])
def test_extract_refining_trap_gap_is_one_to_the_end_of_binary64(counterexample_objective, max_iterations):
    # From about 1080 iterations on, the last three distinct incumbents are
    # below 1e-162, so the Aitken correction must not square the step first.
    records = run(counterexample_config(max_iterations=max_iterations), counterexample_objective).records
    assert abs(extract_refining(records, counterexample_objective).gap - 1.0) <= 1e-3


def test_extract_refining_requires_an_unsuccessful_iteration():
    # On neg_abs every poll from 0 succeeds (f(x +- alpha) = -alpha < 0).
    config = AlgoConfig(x0=(0.0,), alpha0=1.0, gamma=2.0, poll_directions="pm1", max_iterations=10)
    spec = get_objective("neg_abs")
    trace = run(config, spec)
    assert all(r.success for r in trace.records)
    with pytest.raises(AnalysisError, match="unsuccessful"):
        extract_refining(trace.records, spec)


def test_extract_refining_f_tail_follows_the_incumbents(vanilla_trace_30, counterexample_objective):
    report = extract_refining(vanilla_trace_30.records, counterexample_objective)
    values = [r.f_x for r in vanilla_trace_30.records if not r.success]
    assert len(values) == 15
    for q, value in enumerate(values):
        assert value == 2.0**-q * (121 / 128)
    assert report.f_tail == tuple(values[-5:])
    assert report.f_limit == values[-1]


def test_extract_refining_folds_a_stream_with_repeated_incumbents(vanilla_trace_30, counterexample_objective):
    # Each record twice, from a one-shot generator: a stalled incumbent
    # repeats, and the limit is extrapolated from the distinct ones.
    doubled = extract_refining((r for r in vanilla_trace_30.records for _ in range(2)), counterexample_objective)
    report = extract_refining(vanilla_trace_30.records, counterexample_objective)
    assert doubled.refined_point == report.refined_point == (0.0,)
    assert doubled.refining_directions == report.refining_directions
    assert doubled.n_unsuccessful == 2 * report.n_unsuccessful
    assert doubled.f_tail == tuple(r.f_x for r in vanilla_trace_30.records if not r.success for _ in range(2))[-5:]


@pytest.mark.parametrize("ratio,kept", [(0.5, True), (0.9, True), (0.95, False), (0.99, False)])
def test_extract_refining_keeps_an_aitken_correction_within_ten_steps(ratio, kept):
    # Unsuccessful incumbents 1, r, r**2: the Aitken correction of a
    # geometric tail is r / (1 - r) last steps, 1 and 9 for the kept ratios
    # and 19 and 99 for the others, whose last incumbent stands.
    tail = [1.0, ratio, ratio * ratio]
    records = [IterationRecord(k, (x,), 1.0, x, (), False, (x,), 0.5) for k, x in enumerate(tail)]
    (refined,) = extract_refining(records, get_objective("abs")).refined_point
    if kept:
        assert abs(refined) <= 1e-12
    else:
        assert refined == tail[-1]


def test_refining_directions_are_unit_vectors(vanilla_trace_30, counterexample_objective):
    trace = run(revealing_config(seed=8, max_iterations=80), counterexample_objective)
    for report_trace in (vanilla_trace_30, trace):
        report = extract_refining(report_trace.records, counterexample_objective)
        poll_set = steps.get_poll_directions(report_trace.config.poll_directions, counterexample_objective.dimension)
        for direction in report.refining_directions:
            norm = math.sqrt(sum(c * c for c in direction))
            assert abs(norm - 1.0) <= 1e-9
            assert direction in poll_set


def _assert_refining_directions_are_finite_unit_vectors(config: AlgoConfig, objective: ObjectiveSpec) -> None:
    # Each finite nonzero offset normalizes to a coordinate direction, and
    # an infinite or zero one is skipped.
    report = extract_refining(run(config, objective).records, objective)
    assert 0 < len(report.refining_directions) <= 2 * objective.dimension
    for direction in report.refining_directions:
        assert all(math.isfinite(c) for c in direction)
        assert math.sqrt(sum(c * c for c in direction)) == 1.0


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_refining_directions_stay_unit_vectors_when_offsets_overflow(dimension):
    # The step size doubles from 1e301: v . v of a poll offset overflows,
    # and then the offsets become infinite.
    objective = ObjectiveSpec(f"neg_l1_{dimension}d", dimension, lambda p: -sum(map(abs, p)))
    config = AlgoConfig(
        x0=(0.0,) * dimension, alpha0=1e301, gamma=2.0, poll_directions="coordinate", max_iterations=40, alpha_min=0.0
    )
    _assert_refining_directions_are_finite_unit_vectors(config, objective)


def test_refining_directions_stay_unit_vectors_when_offsets_underflow():
    # The step size halves from 1e-160 at the minimizer 0: v . v of a poll
    # offset is subnormal, then zero, and then the offsets vanish.
    config = AlgoConfig(x0=(3e-160,), alpha0=1e-160, poll_directions="pm1", max_iterations=400, alpha_min=0.0)
    _assert_refining_directions_are_finite_unit_vectors(config, get_objective("abs"))


def test_refining_directions_skip_offsets_from_an_infinite_incumbent():
    # The first poll moves x2 to +inf, where the incumbent stays: every later
    # poll offset holds inf - inf = NaN, which max() can pass over.
    objective = ObjectiveSpec("inf_wins_2d", 2, lambda p: -1.0 if p[1] == math.inf else 0.0)
    config = AlgoConfig(x0=(0.0, 1e308), alpha0=1e308, poll_directions="coordinate", max_iterations=6, alpha_min=0.0)
    report = extract_refining(run(config, objective).records, objective)
    assert report.n_unsuccessful == 5
    assert report.refining_directions == ()


def test_refining_directions_skip_poll_trials_at_the_incumbent():
    # Hand-built failures whose poll trials sit at the incumbent: a 2-D
    # point equal to x but another object, (-0.0,) at (0.0,), x's own NaN
    # point, and a NaN point that is not x's; next to them, offsets that
    # normalize.  The successful record's trials do not count.  The last
    # three incumbents, whose limit is evaluated, are 1-D.
    nan_point = (math.nan,)

    def failed(k, x, *points, success=False):
        trials = tuple(engine.TrialPoint(point, 0.0, True) for point in points)
        outcome = engine.StepOutcome(engine.POLL, trials, None, success)
        return IterationRecord(k, x, 0.5, 1.0, (outcome,), success, x, 0.25)

    records = [
        failed(0, (1.0, 2.0), (1.0, 2.0), (4.0, 6.0), (1.0, 6.0)),
        failed(1, (0.0,), (-0.0,), (0.5,), (-0.25,)),
        failed(2, nan_point, nan_point, (math.nan,), (0.5,)),
        failed(3, (0.5,), (math.nan,), (0.5,)),
        failed(4, (0.0, 0.0), (0.0, -3.0), success=True),
    ]
    expected = {}
    for record in records[:-1]:
        for trial in record.outcomes[0].trials:
            offset = [p - c for p, c in zip(trial.point, record.x)]
            norm = math.hypot(*offset)
            if 0.0 < norm < math.inf:
                expected[tuple(c / norm for c in offset)] = None
    report = extract_refining(records, get_objective("abs"))
    assert report.refining_directions == tuple(expected) == ((0.6, 0.8), (0.0, 1.0), (1.0,), (-1.0,))


def _sphere_3d_run(max_iterations: int) -> tuple[tuple[engine.IterationRecord, ...], ObjectiveSpec]:
    """The records of a 3-D revealing run on x1^2 + x2^2 + x3^2, with
    coordinate polls and eight radius-1 revealing offsets per iteration, and
    its objective."""
    objective = ObjectiveSpec("sphere_3d", 3, lambda p: sum(c * c for c in p))
    config = AlgoConfig(
        x0=(1.0, 1.0, 1.0),
        alpha0=0.5,
        revealing_radius=1.0,
        revealing_count=8,
        poll_directions="coordinate",
        seed=3,
        max_iterations=max_iterations,
        alpha_min=0.0,
    )
    return run(config, objective).records, objective


def test_refining_directions_of_a_3d_revealing_run_are_its_poll_directions():
    report = extract_refining(*_sphere_3d_run(2000))
    assert 0 < len(report.refining_directions) <= 6
    assert set(report.refining_directions) <= set(steps.get_poll_directions("coordinate", 3))


def test_extract_refining_memory_does_not_grow_with_a_3d_revealing_run():
    runs = [_sphere_3d_run(n) for n in (500, 2000)]
    # The first traced call also traces one-off allocations.
    peak_memory(lambda: extract_refining(*runs[0]))
    peaks = [peak_memory(lambda: extract_refining(*args))[1] for args in runs]
    assert peaks[1] <= peaks[0] + 1024


# --------------------------------------------------------------------------
# verify_counterexample_closed_form


def test_closed_form_fails_once_the_revealing_poll_succeeds(counterexample_objective):
    trace = run(revealing_config(seed=42), counterexample_objective)
    assert len(trace.records) >= 26
    assert not verify_counterexample_closed_form(trace.records, 12)


def test_closed_form_holds_until_the_step_underflows(counterexample_objective):
    # At q = 1072 the step is 2**-1074, the smallest subnormal; its halving
    # rounds to 0.0 at k = 2145, so iteration 2145 departs.
    records = run(counterexample_config(max_iterations=2146), counterexample_objective).records
    assert verify_counterexample_closed_form(records, 1071)
    assert not verify_counterexample_closed_form(records, 1072)
    # At an odd k nothing but the check of x sees a moved incumbent.
    moved = (records[0], records[1]._replace(x=(0.625,)), *records[2:52])
    assert verify_counterexample_closed_form(moved, 0) is False
    # An even record without its poll departs; it has no poll trials to read.
    unpolled = (records[0]._replace(outcomes=()), *records[1:52])
    assert verify_counterexample_closed_form(unpolled, 0) is False


@pytest.mark.parametrize(
    "q_max, message",
    [
        (26, "52 iterations, need 54"),
        # 2 * q_max + 2 is past sys.maxsize, which itertools.islice refuses.
        (2**70, "52 iterations, need 2361183241434822606850"),
        (-1, "q_max must be >= 0, got -1"),
    ],
    ids=["short trace", "past the index range", "negative"],
)
def test_closed_form_rejects_a_q_max_it_cannot_check(vanilla_trace_52, q_max, message):
    with pytest.raises(AnalysisError, match=message):
        verify_counterexample_closed_form(vanilla_trace_52.records, q_max)


def test_closed_form_check_stops_at_the_first_departing_record(counterexample_objective):
    # The revealing poll succeeds at iteration 2, where the closed form has
    # the poll fail.  The check returns there, reading no further record,
    # although the run's 41 records fall far short of the 2q + 2 it asks for.
    records = run(revealing_config(seed=42), counterexample_objective).records
    assert verify_counterexample_closed_form(records[:2], 0)
    remaining = iter(records)
    assert not verify_counterexample_closed_form(remaining, len(records))
    assert next(remaining) == records[3]


def test_closed_form_verification_pulls_no_record_past_its_prefix(vanilla_trace_52):
    records = iter(vanilla_trace_52.records)
    assert verify_counterexample_closed_form(records, 12)
    assert next(records) == vanilla_trace_52.records[26]


# --------------------------------------------------------------------------
# covering_radius


def test_covering_radius_empty_points():
    assert covering_radius([], (0.0,), 2.0, 11) == math.inf


def test_covering_radius_rejects_bad_arguments():
    cases = [
        ("grid_resolution", ([(0.0,)], (0.0,), 1.0, 1)),
        ("grid_resolution", ([(0.0,)], (0.0,), 1.0, 2.5)),
        ("grid_resolution", ([(0.0,)], (0.0,), 1.0, True)),
        ("radius", ([(0.0,)], (0.0,), 0.0, 11)),
        ("radius", ([(0.0,)], (0.0,), math.inf, 5)),
        ("center", ([(0.0,)], (math.nan,), 1.0, 5)),
        ("center", ([], (math.nan,), 1.0, 5)),
        ("center", ([()], (), 1.0, 5)),
        ("points", ([(0.0, 0.0)], (0.0,), 1.0, 5)),
        ("points", ([(math.nan,)], (0.0,), 1.0, 5)),
    ]
    for name, arguments in cases:
        with pytest.raises(ValueError, match=f"^{name} "):
            covering_radius(*arguments)


def test_text_is_not_a_vector():
    # A str iterates over characters that float() takes one by one.
    with pytest.raises(ValueError, match="^center "):
        covering_radius([(0.0, 0.0)], "12", 1.0, 5)
    with pytest.raises(ValueError, match="^points "):
        covering_radius(["12"], (0.0, 0.0), 1.0, 5)
    with pytest.raises(ValueError, match="^x "):
        clarke_estimate(get_objective("abs"), "1", (1.0,), 1e-6, 1e-2, 10)


@pytest.mark.parametrize(
    "arguments",
    [
        # Rounding puts both ends of the 1-D grid outside the ball.
        ([(126.49110640673517,)], (94.86832980505137,), 31.622776601683793, 2),
        ([(126.49110640673517, 0.0)], (94.86832980505137, 0.0), 31.622776601683793, 2),
        # In 2-D a 2-point grid has only the corners of the square.
        ([(0.0, 0.0)], (0.0, 0.0), 1.0, 2),
    ],
)
def test_covering_radius_rejects_a_grid_with_no_point_in_the_ball(arguments):
    with pytest.raises(ValueError, match="^the grid of 2 points per axis has no point in the ball"):
        covering_radius(*arguments)


@pytest.mark.parametrize("dimension", [1, 2])
def test_covering_radius_takes_the_radius_as_a_float(dimension):
    # In float32 arithmetic c +- r, and the result, would round to float32.
    origin = (0.0,) * dimension
    sample = (0.1, *origin[1:])
    found = covering_radius([sample], origin, np.float32(0.3), 5)
    assert type(found) is float
    assert found == covering_radius([sample], origin, float(np.float32(0.3)), 5) == 0.40000001192092893


@pytest.mark.parametrize("dimension", [1, 2])
def test_covering_radius_of_a_ball_at_the_end_of_the_float_range(dimension):
    # (G - 1) * (c +- r) passes the float range, although the ball lies inside it.
    tail = (0.0,) * (dimension - 1)
    # The sample is 3.4e308 from every grid point, farther than any float.
    assert covering_radius([(1.7e308, *tail)], (-1.7e308, *tail), 1.0, 3) == math.inf
    # Every grid point, c +- r/2 and c +- r among them, is exact.
    center, radius = -(2.0**1023), 2.0**1022
    assert covering_radius([(center, *tail)], (center, *tail), radius, 5) == radius


def test_covering_radius_grid_past_the_float_range_is_its_formula_at_a_smaller_scale():
    # The same roundings at a scale of 2**-200, where nothing overflows: a
    # sample on every such point leaves no grid point uncovered.
    center, radius, resolution, scale = -1.7e308, 5e306, 21, 2.0**-200

    def axis(c):
        lo, hi = (c - radius) * scale, (c + radius) * scale
        return [((resolution - 1 - i) * lo + i * hi) / (resolution - 1) / scale for i in range(resolution)]

    assert covering_radius([(g,) for g in axis(center)], (center,), radius, resolution) == 0.0
    lattice = [(g, h) for g in axis(center) for h in axis(0.0)]
    assert covering_radius(lattice, (center, 0.0), radius, resolution) == 0.0


_SCATTERED, _UNIFORM = random.Random(12), random.Random(11)
_AXIS_POINTS = [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
# (samples, center, radius, grid resolution), each an @example of the oracle.
_COVERING_EXAMPLES = [
    # 300 samples over a 2-D ball and around it.
    ([(_SCATTERED.uniform(-2, 2), _SCATTERED.uniform(-2, 2)) for _ in range(300)], (0.1, -0.2), 1.5, 21),
    # One sample, at the center or off it, in one and two dimensions.
    ([(0.0,)], (0.0,), 1.0, 201),
    ([(0.0, 0.0)], (0.0, 0.0), 1.0, 21),
    ([(0.5,)], (0.0,), 1.0, 5),
    ([(0.5, 0.0)], (0.0, 0.0), 1.0, 5),
    # A sample on every grid point.
    ([(((100 - i) * -1.0 + i * 1.0) / 100,) for i in range(101)], (0.0,), 1.0, 101),
    # 1 to 3000 uniform samples of the ball.
    *[([(_UNIFORM.uniform(-1.75, 2.25),) for _ in range(n)], (0.25,), 2.0, 201) for n in (1, 2, 17, 600, 3000)],
    # The square of the radius overflows at 1e200 and underflows at 1e-170.
    *[([origin], origin, radius, 3) for origin in ((0.0,), (0.0, 0.0)) for radius in (1e200, 1e-170)],
    # 1e600 radii away: in units of the radius its offset overflows.
    ([(1e300,)], (0.0,), 1e-300, 3),
    ([(1e300, 0.0)], (0.0, 0.0), 1e-300, 3),
    # In units of the radius the square of 1e-200 underflows to 0.
    ([(1e-200, 0.0), *_AXIS_POINTS], (0.0, 0.0), 1.0, 3),
    ([(0.0, 0.0), *_AXIS_POINTS], (0.0, 0.0), 1.0, 3),
]


def _axis(lo, hi, resolution):
    """The grid of [lo, hi] by its convex-combination formula, not by
    ``objective.grid_axis``, so that the oracle does not agree with a wrong
    grid.  No ball drawn or listed here is far enough out for the weighted
    sums to overflow; the grid of such a ball has tests of its own."""
    return [((resolution - 1 - i) * lo + i * hi) / (resolution - 1) for i in range(resolution)]


@st.composite
def _covering(draw):
    """A ball in 1 to 3 dimensions at a radius from 1e-300 to 1e300, and
    samples: grid points, grid points with one coordinate moved by a
    subnormal offset, points of the ball and around it, and points at any
    magnitude, most of them far outside the ball.  Up to 201, 31 and 9 grid
    points per axis and 600, 200 and 60 samples in 1, 2 and 3 dimensions."""
    dimension = draw(st.integers(1, 3))
    radius = 10.0 ** draw(st.floats(-300.0, 300.0))
    center = tuple(radius * draw(st.floats(-3.0, 3.0)) for _ in range(dimension))
    resolution = draw(st.integers(2, (201, 31, 9)[dimension - 1]))
    axes = [_axis(c - radius, c + radius, resolution) for c in center]
    draw_sample = random.Random(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for _ in range(draw(st.integers(1, (600, 200, 60)[dimension - 1]))):
        kind = draw_sample.randrange(4)
        if kind < 2:
            sample = [draw_sample.choice(axis) for axis in axes]
            if kind == 1:
                offset = math.ldexp(draw_sample.randrange(1, 2**52), -1074)
                sample[draw_sample.randrange(dimension)] += draw_sample.choice((-offset, offset))
        elif kind == 2:
            sample = [c + radius * draw_sample.uniform(-1.5, 1.5) for c in center]
        else:
            sample = [draw_sample.choice((-1.0, 1.0)) * 10.0 ** draw_sample.uniform(-300.0, 300.0) for _ in center]
        samples.append(tuple(sample))
    return samples, center, radius, resolution


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_covering())
def test_covering_radius_is_the_brute_force_radius_in_one_to_three_dimensions(case):
    samples, center, radius, resolution = case
    grid = itertools.product(*(_axis(c - radius, c + radius, resolution) for c in center))
    in_ball = [g for g in grid if math.dist(g, center) <= radius]
    if not in_ball:
        with pytest.raises(ValueError, match="no point in the ball"):
            covering_radius(samples, center, radius, resolution)
        return
    expected = max(min(math.dist(g, s) for s in samples) for g in in_ball)
    assert covering_radius(samples, center, radius, resolution) == expected


for _case in _COVERING_EXAMPLES:
    example(_case)(test_covering_radius_is_the_brute_force_radius_in_one_to_three_dimensions)


def test_covering_radius_memory_is_bounded():
    # One 31 700 x 2000 x 2 difference block would be about 1 GB.
    draw = random.Random(13)
    points = [(draw.uniform(-2, 2), draw.uniform(-2, 2)) for _ in range(2000)]
    radius, peak = peak_memory(lambda: covering_radius(points, (0.0, 0.0), 2.0, 201))
    assert 0.0 < radius < 0.5
    assert peak < 32 * 2**20


def test_covering_radius_memory_is_bounded_in_three_dimensions():
    # The whole res^3 lattice at res 101 holds 1 030 301 x 3 coordinates; built
    # at once, with its in-ball test, it peaked near 90 MB.
    radius, peak = peak_memory(lambda: covering_radius([(0.0, 0.0, 0.0)], (0.0, 0.0, 0.0), 1.0, 101))
    assert radius == 1.0
    assert peak < 16 * 2**20


def test_vanilla_run_starves_the_left_half_ball(vanilla_trace_52):
    points = trial_points(vanilla_trace_52)
    assert points and all(p[0] > 0.0 for p in points)
    assert covering_radius(points, (0.0,), 2.0, 201) >= 1.0


# --------------------------------------------------------------------------
# clarke_estimate


@pytest.mark.parametrize(
    "message, arguments",
    [
        ("^x ", ((0.5, 0.5), (1.0,), 1e-6, 1e-2, 10)),
        ("^x ", ((), (1.0,), 1e-6, 1e-2, 10)),
        ("^x ", ((math.nan,), (1.0,), 1e-6, 1e-2, 10)),
        ("^x ", (("a",), (1.0,), 1e-6, 1e-2, 10)),
        ("^direction ", ((0.0,), (1.0, 0.0), 1e-6, 1e-2, 10)),
        ("^direction ", ((0.0,), (math.inf,), 1e-6, 1e-2, 10)),
        ("h_max < inf, got h_min=1e-06, h_max=inf$", ((0.0,), (1.0,), 1e-6, math.inf, 10)),
        ("h_max < inf, got h_min=1e-06, h_max=1000", ((0.0,), (1.0,), 1e-6, 10**400, 10)),
        ("^h_max / h_min ", ((0.0,), (1.0,), 1e-300, 1e300, 10)),
        ("^n_samples ", ((0.0,), (1.0,), 1e-6, 1e-2, True)),
        ("^n_samples ", ((0.0,), (1.0,), 1e-6, 1e-2, 10.0)),
        ("^n_samples ", ((0.0,), (1.0,), 1e-6, 1e-2, np.int64(10))),
        ("^n_samples ", ((0.0,), (1.0,), 1e-6, 1e-2, 2**63)),
        ("^h_min must be a real number, got '1e-6'$", ((0.0,), (1.0,), "1e-6", 1e-2, 10)),
        ("^h_max must be a real number, got None$", ((0.0,), (1.0,), 1e-6, None, 10)),
        ("^need 0 < h_min < h_max", ((0.0,), (1.0,), 1e-2, 1e-6, 10)),
        ("^n_samples ", ((0.0,), (1.0,), 1e-6, 1e-2, 0)),
    ],
)
def test_clarke_estimate_rejects_bad_input(message, arguments):
    with pytest.raises(ValueError, match=message):
        clarke_estimate(get_objective("abs"), *arguments)


# float.hex of the estimates on the counterexample with h in [1e-6, 1e-2],
# recorded with the scalar stream the block stream replaced, at n = 1, 4095,
# 4096, 4097 and 9000 (across the 4096-sample block boundary).
MINUS_ONE = ["0x1.6974467d367a2p-16"] + ["0x1.ce06b8be4752ap-6"] * 3 + ["0x1.da056ba5a3655p-6"]
CLARKE_PINNED = [
    ((-1.0,), (1.0,), MINUS_ONE),
    ((-1.0,), (-1.0,), MINUS_ONE),
    ((0.0,), (1.0,), ["0x1.6aa137ada54f5p+15"] * 5),
    ((0.0,), (-1.0,), ["-0x1.fffe968bb499fp+0"] + ["0x1.51b14c9b6a811p-2"] * 4),
]


@pytest.mark.parametrize("x, direction, expected", CLARKE_PINNED)
def test_clarke_estimate_pinned_values(counterexample_objective, x, direction, expected):
    counts = (1, 4095, 4096, 4097, 9000)
    assert [clarke_estimate(counterexample_objective, x, direction, 1e-6, 1e-2, n).hex() for n in counts] == expected


def test_clarke_estimate_takes_float32_window_bounds_as_floats(counterexample_objective):
    # float32 arithmetic would round the steps, the points and the estimate;
    # the suite turns the overflow warning of a float32 bound check into an error.
    estimate = clarke_estimate(counterexample_objective, (-1.0,), (1.0,), np.float32(0.5), np.float32(0.75), 50)
    assert type(estimate) is float
    assert estimate == clarke_estimate(counterexample_objective, (-1.0,), (1.0,), 0.5, 0.75, 50) == 3.4807958887947237


def test_clarke_estimates_over_one_window_share_its_stream(counterexample_objective):
    spec, window, other = counterexample_objective, (1e-6, 1e-2), (1e-5, 0.1)
    alternating = [(spec, (-1.0,), (1.0,), *w, 5000) for w in (window, other, window)]
    # The pattern of the density pass: several limit points, both directions.
    density = [(spec, (x,), (d,), *window, 3000) for x in (-1.0, -0.5, 0.0, 0.25) for d in (1.0, -1.0)]
    for calls in (alternating, density):
        fresh = []
        for call in calls:
            analysis._clarke_block.cache_clear()
            fresh.append(clarke_estimate(*call).hex())
        analysis._clarke_block.cache_clear()
        assert [clarke_estimate(*call).hex() for call in calls] == fresh
    # The density pattern builds its one block once, and keeps it read-only.
    assert analysis._clarke_block.cache_info()[:2] == (len(density) - 1, 1)
    offsets, step_column, _ = analysis._clarke_block(1, 3001, *window)
    assert not offsets.flags.writeable and not step_column.flags.writeable
    # A float32 window is keyed by its binary64 value.
    analysis._clarke_block.cache_clear()
    clarke_estimate(spec, (0.0,), (1.0,), np.float32(0.5), np.float32(0.75), 50)
    clarke_estimate(spec, (0.0,), (1.0,), 0.5, 0.75, 50)
    assert analysis._clarke_block.cache_info()[:2] == (1, 1)


def test_clarke_estimate_pinned_values_in_two_dimensions():
    # The segment crosses the oracle's boundary, the inf region and the step.
    up = clarke_estimate(WEDGE, (0.0, 0.0), (0.6, 0.8), 1e-6, 0.1, 5000)
    down = clarke_estimate(WEDGE, (0.0, 0.0), (-0.6, -0.8), 1e-6, 0.1, 5000)
    assert (up.hex(), down.hex()) == ("0x1.99999999a62b9p-3", "0x1.50a4966d0984cp+12")


def test_clarke_estimate_reports_the_first_failing_point():
    def fails_far_left(point):
        if point[0] < -0.9999:
            raise ValueError("left of the window")
        return -abs(point[0])

    spec = ObjectiveSpec("fails_far_left", 1, fails_far_left)
    # Sample 16384 = 2**14 is the first whose base point lies left of -0.9999.
    with pytest.raises(ObjectiveError) as failure:
        clarke_estimate(spec, (0.0,), (1.0,), 1e-6, 1.0, 20000)
    assert failure.value.point == (-1.0 + 2.0**-14,)


def _van_der_corput(index, base):
    """The scalar radical inverse, the reference for analysis._radical_inverses."""
    value, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        value += digit / denom
    return value


@pytest.mark.parametrize("base", [2, 3])
def test_radical_inverses_equal_the_scalar_recurrence(base):
    expected = [_van_der_corput(i, base) for i in range(1, 200_001)]
    assert analysis._radical_inverses(1, 200_001, base).tolist() == expected
    for start in (2**40 - 5, 2**53 - 5, 2**62 - 5, 2**63 - 10):
        expected = [_van_der_corput(i, base) for i in range(start, start + 10)]
        assert analysis._radical_inverses(start, start + 10, base).tolist() == expected


def test_clarke_estimate_evaluates_the_scalar_stream_in_order():
    x, direction, h_min, n = (0.0, 0.0), (0.6, 0.8), 1e-6, 4097
    # At h_max = 0.07, 3586 of the 4097 steps differ between log(h_max / h_min)
    # and log(h_max) - log(h_min); at 0.1 none do.
    for h_max in (0.1, 0.07):
        log_ratio = math.log(h_max / h_min)
        expected = []
        for i in range(1, n + 1):
            offset = 2.0 * _van_der_corput(i, 2) - 1.0
            t = h_min * math.exp(_van_der_corput(i, 3) * log_ratio)
            y = tuple(xj + h_max * offset * dj for xj, dj in zip(x, direction))
            expected += [y, tuple(yj + t * dj for yj, dj in zip(y, direction))]
        evaluated = []

        def recording_wedge(point):
            evaluated.append(point)
            return wedge_value(point)

        # No domain oracle, so that every point of the stream reaches the evaluator.
        clarke_estimate(ObjectiveSpec("wedge_2d", 2, recording_wedge), x, direction, h_min, h_max, n)
        assert len(evaluated) == 2 * n
        assert [tuple(map(float.hex, p)) for p in evaluated] == [tuple(map(float.hex, p)) for p in expected]


def test_clarke_estimate_memory_does_not_grow_with_the_sample_count():
    # A constant evaluator keeps tracemalloc's per-allocation cost off the
    # evaluation; what is measured is the stream.
    spec = dataclasses.replace(get_objective("abs"), evaluator=lambda point: 0.0)
    peaks = [peak_memory(lambda: clarke_estimate(spec, (0.0,), (1.0,), 1e-6, 1e-2, n))[1] for n in (5_000, 200_000)]
    # One 4096-sample block peaks near 1 MB; all 200 000 samples at once
    # would hold tens of MB.
    assert peaks[1] <= peaks[0] + 64 * 2**10


# --------------------------------------------------------------------------
# monte_carlo_escape


def test_monte_carlo_requires_revealing_poll(counterexample_objective):
    with pytest.raises(ConfigError, match="revealing"):
        monte_carlo_escape(counterexample_config(), counterexample_objective, 3, 0)


def test_monte_carlo_counts_are_consistent(counterexample_objective):
    # The second config starts in the nonpositive region and runs no
    # iteration, so its trials escape at x_0.
    for config in (revealing_config(), revealing_config(x0=(-1.0,), max_iterations=0)):
        stats = monte_carlo_escape(config, counterexample_objective, 10, 3)
        assert stats.n_converged <= stats.n_escaped <= stats.n_trials
        assert sum(count for _, count in stats.first_escape_histogram) == stats.n_escaped
    assert stats.first_escape_histogram == ((0, 10),)


def test_monte_carlo_memory_does_not_grow_with_the_trials(counterexample_objective):
    # Trials that start in the nonpositive region run no iteration and all
    # escape at x_0, so each one costs the same and the histogram is the
    # only state that could grow.  600 trials already fill the engine's memo
    # of 64 seeds, as 4600 do.
    config = revealing_config(x0=(-1.0,), max_iterations=0)
    peaks = [peak_memory(lambda: monte_carlo_escape(config, counterexample_objective, n, 7))[1] for n in (600, 4600)]
    # A tuple of every first escape raised the peak by about 20 KB here.
    assert peaks[1] < peaks[0] + 8 * 2**10, peaks


def test_vanilla_run_never_escapes(vanilla_trace_52):
    records = vanilla_trace_52.records
    assert min(r.f_x for r in records) > 0.0
    assert records[-1].f_next > 0.0


def test_incumbents_never_increase(counterexample_objective):
    records = run(revealing_config(seed=21), counterexample_objective).records
    assert all(r.f_next <= r.f_x for r in records)
    assert all(b.f_x == a.f_next for a, b in zip(records, records[1:]))


# configs/revealing.cfg at three master seeds and three radii, and three
# variants at master seed 7.  A miss is a finding about the stop, not a
# reason to change the grid.
_ESCAPE_GRID = [
    *[(seed, dict(revealing_radius=radius)) for seed in (7, 8, 6102) for radius in (0.5, 2.0, 16.0)],
    (7, dict(gamma=2.0)),
    (7, dict(revealing_count=4, forcing="quadratic")),
    (7, dict(alpha_min=0.0, max_iterations=300)),
]


@pytest.mark.parametrize(
    "master_seed, overrides",
    _ESCAPE_GRID,
    ids=[f"{seed} " + " ".join(f"{key}={value}" for key, value in rows.items()) for seed, rows in _ESCAPE_GRID],
)
def test_monte_carlo_stop_changes_no_statistic(counterexample_objective, master_seed, overrides):
    # The oracle runs each trial in full and restates both rules: a trial
    # escapes at the first incumbent of value <= 0 (index 0 for x0, k + 1
    # after record k), and converges if its last incumbent is within 1e-3
    # of -1.
    counting = CountingObjective(counterexample_objective)
    spec, config = counting.spec, revealing_config(**overrides)
    n_escaped, n_converged, first_escapes = 0, 0, {}
    for trial in range(200):
        records = run(dataclasses.replace(config, seed=derive_trial_seed(master_seed, trial)), spec).records
        values = [records[0].f_x] + [record.f_next for record in records]
        escaped_at = next((i for i, value in enumerate(values) if value <= 0.0), None)
        if escaped_at is not None:
            n_escaped += 1
            first_escapes[escaped_at] = first_escapes.get(escaped_at, 0) + 1
        n_converged += abs(records[-1].x_next[0] + 1.0) <= 1e-3
    oracle_calls, counting.calls = counting.calls, 0
    stats = monte_carlo_escape(config, spec, 200, master_seed)
    assert stats == EscapeStats(200, n_escaped, n_converged, tuple(sorted(first_escapes.items())))
    if (master_seed, overrides) == (7, dict(revealing_radius=2.0)):
        # Equal counts alone would not notice a stop that was dropped.
        assert counting.calls < oracle_calls / 2, (counting.calls, oracle_calls)
