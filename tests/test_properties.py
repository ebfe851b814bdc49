"""Statistical density properties of the revealing poll."""

from __future__ import annotations

import dataclasses
import runpy

from ddsearch import run
from ddsearch.analysis import covering_radius, trial_points

from helpers import CALIBRATION_SCRIPT, DENSITY_THRESHOLD, revealing_config


def test_covering_radius_of_revealing_points_is_non_increasing(counterexample_objective):
    config = revealing_config(revealing_count=4, max_iterations=128, alpha_min=0.0, seed=31)
    trace = run(config, counterexample_objective)
    center = trace.final_incumbent()
    radii = []
    for cutoff in range(16, 129, 16):
        prefix = dataclasses.replace(trace, records=trace.records[:cutoff])
        points = trial_points(prefix, kinds=("revealing_poll",), unsuccessful_only=True)
        radii.append(covering_radius(points, center, 2.0, 101))
    assert all(b <= a for a, b in zip(radii, radii[1:]))


def test_revealing_points_cover_the_ball_across_seeds():
    # The pilot behind the frozen threshold: the covering radius of the
    # accumulated revealing points should drop below it in at least 99 of
    # 100 seeded runs (the pilot saw a maximum of ~0.06).
    radii = runpy.run_path(str(CALIBRATION_SCRIPT))["pilot"](100)
    assert (radii < DENSITY_THRESHOLD).sum() >= 99
