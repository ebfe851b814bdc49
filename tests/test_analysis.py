"""Analysis tests: refining-subsequence extraction, closed-form verification,
covering radii, the Clarke estimator, and the Monte Carlo escape harness."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from ddsearch import AlgoConfig, ConfigError, analysis, get_objective, run
from ddsearch.analysis import (
    AnalysisError,
    clarke_estimate,
    covering_radius,
    derive_trial_seed,
    extract_refining,
    incumbent_values,
    monte_carlo_escape,
    trial_points,
    verify_counterexample_closed_form,
)

from helpers import counterexample_config, revealing_config


# --------------------------------------------------------------------------
# extract_refining


def test_extract_refining_counterexample_30(vanilla_trace_30):
    report = extract_refining(vanilla_trace_30)
    assert report.unsuccessful_indices == tuple(range(0, 30, 2))
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
    config = AlgoConfig(
        x0=(0.5,),
        alpha0=0.5,
        beta1=0.5,
        beta2=0.5,
        gamma=1.0,
        poll_directions="pm1",
        max_iterations=200,
        alpha_min=1e-9,
    )
    trace = run(config, get_objective("quadratic_1d"))
    report = extract_refining(trace)
    assert abs(report.gap) <= 1e-6
    assert abs(report.refined_point[0] + 1.0) <= 1e-6


def test_extract_refining_gap_small_on_abs():
    config = AlgoConfig(x0=(0.5,), alpha0=0.5, poll_directions="pm1", max_iterations=200, alpha_min=1e-9)
    trace = run(config, get_objective("abs"))
    report = extract_refining(trace)
    assert abs(report.gap) <= 1e-6


def test_extract_refining_requires_an_unsuccessful_iteration():
    # On neg_abs every poll from 0 succeeds (f(x +- alpha) = -alpha < 0).
    config = AlgoConfig(x0=(0.0,), alpha0=1.0, gamma=2.0, poll_directions="pm1", max_iterations=10)
    trace = run(config, get_objective("neg_abs"))
    assert all(r.success for r in trace.records)
    with pytest.raises(AnalysisError, match="unsuccessful"):
        extract_refining(trace)


def test_extract_refining_rejects_bad_tolerance(vanilla_trace_30):
    with pytest.raises(AnalysisError, match="cluster_tol"):
        extract_refining(vanilla_trace_30, cluster_tol=0.0)


def test_extract_refining_f_values_follow_the_tail(vanilla_trace_30):
    report = extract_refining(vanilla_trace_30)
    assert len(report.f_values) == 15
    for q, value in enumerate(report.f_values):
        assert value == 2.0**-q * (121 / 128)


def test_refining_directions_are_unit_vectors(vanilla_trace_30, counterexample_objective):
    trace = run(revealing_config(seed=8, max_iterations=80), counterexample_objective)
    for report_trace in (vanilla_trace_30, trace):
        report = extract_refining(report_trace)
        for direction in report.refining_directions:
            norm = math.sqrt(sum(c * c for c in direction))
            assert abs(norm - 1.0) <= 1e-9


# --------------------------------------------------------------------------
# verify_counterexample_closed_form


def test_closed_form_verifies_on_vanilla_trace(vanilla_trace_52):
    assert verify_counterexample_closed_form(vanilla_trace_52, 12)
    assert verify_counterexample_closed_form(vanilla_trace_52, 25)


def test_closed_form_spot_values(vanilla_trace_52):
    record = vanilla_trace_52.records[6]
    assert record.x == (5 / 32,)
    assert record.alpha == 1 / 32


def test_closed_form_fails_once_the_revealing_poll_succeeds(counterexample_objective):
    trace = run(revealing_config(seed=42), counterexample_objective)
    assert len(trace.records) >= 26
    assert not verify_counterexample_closed_form(trace, 12)


def test_closed_form_rejects_short_trace(vanilla_trace_52):
    with pytest.raises(AnalysisError, match="iterations"):
        verify_counterexample_closed_form(vanilla_trace_52, 26)


def test_closed_form_rejects_negative_q(vanilla_trace_52):
    with pytest.raises(AnalysisError):
        verify_counterexample_closed_form(vanilla_trace_52, -1)


# --------------------------------------------------------------------------
# covering_radius


def test_covering_radius_single_center_point():
    assert covering_radius([(0.0,)], (0.0,), 1.0, 201) == 1.0


def test_covering_radius_of_grid_is_zero():
    n = 101
    grid = [(((n - 1 - i) * -1.0 + i * 1.0) / (n - 1),) for i in range(n)]
    assert covering_radius(grid, (0.0,), 1.0, n) == 0.0


def test_covering_radius_empty_points():
    assert covering_radius([], (0.0,), 2.0, 11) == math.inf


def test_covering_radius_two_dimensional():
    assert covering_radius([(0.0, 0.0)], (0.0, 0.0), 1.0, 21) == 1.0


def test_covering_radius_rejects_bad_arguments():
    with pytest.raises(ValueError):
        covering_radius([(0.0,)], (0.0,), 1.0, 1)
    with pytest.raises(ValueError):
        covering_radius([(0.0,)], (0.0,), 0.0, 11)


def test_covering_radius_matches_sorted_gaps_in_one_dimension():
    # On [lo, hi] the exact radius is the larger end gap or half the largest
    # gap between neighbours; the grid sees it to within half a spacing.
    draw = random.Random(11)
    center, radius, resolution = 0.25, 2.0, 201
    lo, hi = center - radius, center + radius
    spacing = 2 * radius / (resolution - 1)
    for count in (1, 2, 17, 600, 3000):
        points = sorted(draw.uniform(lo, hi) for _ in range(count))
        gaps = [(b - a) / 2 for a, b in zip(points, points[1:])]
        exact = max(points[0] - lo, hi - points[-1], *gaps)
        found = covering_radius([(p,) for p in points], (center,), radius, resolution)
        assert exact - spacing / 2 - 1e-12 <= found <= exact + 1e-12, count


def test_covering_radius_does_not_depend_on_the_block_size(monkeypatch):
    draw = random.Random(12)
    points = [(draw.uniform(-2, 2), draw.uniform(-2, 2)) for _ in range(300)]
    expected = covering_radius(points, (0.1, -0.2), 1.5, 21)
    for block in (64, 4096, 1 << 24):
        monkeypatch.setattr(analysis, "_COVERING_BLOCK", block)
        assert covering_radius(points, (0.1, -0.2), 1.5, 21) == expected, block


def test_covering_radius_memory_is_bounded():
    # One 31 700 x 2000 x 2 difference block would be about 1 GB.
    draw = random.Random(13)
    points = [(draw.uniform(-2, 2), draw.uniform(-2, 2)) for _ in range(2000)]
    tracemalloc.start()
    try:
        radius = covering_radius(points, (0.0, 0.0), 2.0, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < radius < 0.5
    assert peak < 32 * 2**20


def test_covering_radius_memory_is_bounded_in_three_dimensions(monkeypatch):
    # The whole res^3 lattice at res 101 holds 1 030 301 x 3 coordinates; built
    # at once, with its in-ball test, it peaked near 90 MB.
    tracemalloc.start()
    try:
        radius = covering_radius([(0.0, 0.0, 0.0)], (0.0, 0.0, 0.0), 1.0, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert radius == 1.0
    assert peak < 16 * 2**20
    draw = random.Random(14)
    points = [tuple(draw.uniform(-1, 1) for _ in range(3)) for _ in range(40)]
    expected = covering_radius(points, (0.1, 0.0, -0.1), 1.0, 11)
    monkeypatch.setattr(analysis, "_COVERING_BLOCK", 64)
    assert covering_radius(points, (0.1, 0.0, -0.1), 1.0, 11) == expected


def test_vanilla_run_starves_the_left_half_ball(vanilla_trace_52):
    points = trial_points(vanilla_trace_52)
    assert points and all(p[0] > 0.0 for p in points)
    assert covering_radius(points, (0.0,), 2.0, 201) >= 1.0


# --------------------------------------------------------------------------
# clarke_estimate


def test_clarke_neg_abs_is_plus_one_in_both_directions():
    spec = get_objective("neg_abs")
    for direction in ((1.0,), (-1.0,)):
        estimate = clarke_estimate(spec, (0.0,), direction, 1e-6, 1e-2, 200)
        assert abs(estimate - 1.0) <= 0.05


def test_clarke_smooth_quadratic_matches_classical_derivative():
    spec = get_objective("quadratic_1d")
    up = clarke_estimate(spec, (0.0,), (1.0,), 1e-6, 1e-2, 200)
    down = clarke_estimate(spec, (0.0,), (-1.0,), 1e-6, 1e-2, 200)
    assert abs(up - 2.0) <= 0.05
    assert abs(down + 2.0) <= 0.05


def test_clarke_estimate_monotone_in_sample_count():
    spec = get_objective("neg_abs")
    estimates = [clarke_estimate(spec, (0.0,), (1.0,), 1e-6, 1e-2, n) for n in (10, 25, 50, 100, 200)]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))


def test_clarke_estimate_rejects_bad_window():
    spec = get_objective("neg_abs")
    with pytest.raises(ValueError):
        clarke_estimate(spec, (0.0,), (1.0,), 1e-2, 1e-6, 10)
    with pytest.raises(ValueError):
        clarke_estimate(spec, (0.0,), (1.0,), 1e-6, 1e-2, 0)


# --------------------------------------------------------------------------
# monte_carlo_escape


def test_monte_carlo_requires_revealing_poll(counterexample_objective):
    with pytest.raises(ConfigError, match="revealing"):
        monte_carlo_escape(counterexample_config(), counterexample_objective, 3, 0)


def test_monte_carlo_is_deterministic(counterexample_objective):
    first = monte_carlo_escape(revealing_config(), counterexample_objective, 5, 7)
    second = monte_carlo_escape(revealing_config(), counterexample_objective, 5, 7)
    assert first == second


def test_monte_carlo_counts_are_consistent(counterexample_objective):
    stats = monte_carlo_escape(revealing_config(), counterexample_objective, 10, 3)
    assert stats.n_converged <= stats.n_escaped <= stats.n_trials
    assert len(stats.first_escape_iterations) == stats.n_escaped


def test_vanilla_run_never_escapes(vanilla_trace_52):
    values = incumbent_values(vanilla_trace_52)
    assert len(values) == len(vanilla_trace_52.records) + 1
    assert min(values) > 0.0


def test_incumbent_values_monotone(counterexample_objective):
    trace = run(revealing_config(seed=21), counterexample_objective)
    values = incumbent_values(trace)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_derive_trial_seed_is_stable_and_spread():
    assert derive_trial_seed(7, 0) == derive_trial_seed(7, 0)
    seeds = {derive_trial_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


def test_derive_trial_seed_is_word_0_of_the_seed_sequence_of_the_pair():
    draw = random.Random(28)
    masters = [0, 7, 12345, 2**31 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**100 + 3]
    masters += [draw.randrange(2**64) for _ in range(20)]
    trials = list(range(200)) + [2**32 - 1, 2**32, 2**40 + 7]
    for master in masters:
        for trial in trials:
            reference = np.random.SeedSequence(entropy=(master, trial)).generate_state(1, dtype=np.uint64)
            assert derive_trial_seed(master, trial) == int(reference[0]), (master, trial)
    with pytest.raises(ValueError):
        derive_trial_seed(-1, 0)
