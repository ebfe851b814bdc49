#!/usr/bin/env python3
"""Pilot simulation behind the density acceptance threshold.

Runs the revealing-poll instance of configs/revealing.cfg (R=2) with 4
points per revealing poll, 128 iterations and no step-size stop, across
independent master seeds and reports the distribution of the covering radius
of the accumulated revealing-poll trial points inside the radius-2 ball
around the final incumbent.

Usage: python scripts/calibrate_covering_threshold.py [--seeds 100]
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from ddsearch import get_objective, run
from ddsearch.analysis import covering_radius, derive_trial_seed, trial_points
from ddsearch.configfile import load_experiment_config

REVEALING_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "revealing.cfg"


def pilot(n_seeds: int) -> np.ndarray:
    """Covering radii of ``configs/revealing.cfg`` with 4 points per
    revealing poll, 128 iterations and no step-size stop, one per seed."""
    experiment = load_experiment_config(REVEALING_CONFIG)
    objective = get_objective(experiment.objective_name)
    base = dataclasses.replace(experiment.algo, revealing_count=4, max_iterations=128, alpha_min=0.0)
    radii = []
    for index in range(n_seeds):
        config = dataclasses.replace(base, seed=derive_trial_seed(900, index))
        trace = run(config, objective)
        points = trial_points(trace, kinds=("revealing_poll",), unsuccessful_only=True)
        radii.append(covering_radius(points, trace.final_incumbent(), 2.0, 201))
    return np.array(radii)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    radii = pilot(args.seeds)
    print(f"seeds: {args.seeds}")
    print(f"min: {radii.min():.4f}  median: {np.median(radii):.4f}  mean: {radii.mean():.4f}")
    print(f"p95: {np.percentile(radii, 95):.4f}  p99: {np.percentile(radii, 99):.4f}  max: {radii.max():.4f}")
    for threshold in (0.25, 0.15, 0.10):
        share = float((radii < threshold).mean())
        print(f"below {threshold}: {share:.2%}")


if __name__ == "__main__":
    main()
