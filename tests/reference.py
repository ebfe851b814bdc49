"""A textbook directional direct search with a revealing poll: the oracle
that the engine's records are compared with, leaf by leaf.

It is written from the method's statement and imports nothing from
``ddsearch``, since a rule shared with the library would agree with a wrong
library rule.  It evaluates every trial, draws iteration k's revealing
points from a fresh ``Generator(PCG64(SeedSequence((seed, k))))`` by the
general normal-and-radius ball formula, and restates the search schedules,
the poll sets and the forcing functions.  It takes the config and the
objective of a run that starts at a feasible point of finite value.
"""

from __future__ import annotations

import math

import numpy as np

FORCING = {"zero": lambda t: 0.0, "quadratic": lambda t: 1e-4 * t * t}


def search(name, k, x, alpha):
    """counterexample proposes x - 5*alpha at odd k, none nothing."""
    return [(x[0] - 5.0 * alpha,)] if name == "counterexample" and k % 2 else []


def poll_directions(name, n):
    """pm1 is -1 then +1; coordinate is every +e_i, then every -e_i."""
    if name == "pm1":
        return [(-1.0,), (1.0,)]
    plus = [tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n)]
    return plus + [tuple(-v for v in d) for d in plus]


def uniform_ball(rng, dimension, radius, count):
    """``count`` points uniform in the ball of ``radius``: normal vectors,
    a zero one redrawn, put on the unit sphere and scaled by ``U**(1/n)``."""
    gauss = rng.standard_normal((count, dimension))
    norms = np.sqrt(np.sum(gauss * gauss, axis=1))
    degenerate = norms == 0.0
    while degenerate.any():
        gauss[degenerate] = rng.standard_normal((int(degenerate.sum()), dimension))
        norms = np.sqrt(np.sum(gauss * gauss, axis=1))
        degenerate = norms == 0.0
    radial = rng.random(count) ** (1.0 / dimension)
    points = radius * (gauss / norms[:, None] * radial[:, None])
    return [tuple(float(v) for v in row) for row in points]


def trial(objective, point):
    """(point, value, in domain): a point outside the domain is valued +inf."""
    inside = objective.domain_oracle(point)
    return point, float(objective.evaluator(point)) if inside else math.inf, inside


def iterate(config, objective):
    """The records of a run, as plain tuples of the engine's fields."""
    x, alpha = tuple(float(v) for v in config.x0), float(config.alpha0)
    f_x = trial(objective, x)[1]
    directions, forcing = poll_directions(config.poll_directions, len(x)), FORCING[config.forcing]
    k = 0
    while k < config.max_iterations and config.alpha_min <= alpha < math.inf:
        steps = [("search", search(config.search_schedule, k, x, alpha))]
        if config.revealing_radius is not None:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, k))))
            offsets = uniform_ball(rng, len(x), config.revealing_radius, config.revealing_count)
            steps.append(("revealing_poll", [tuple(a + b for a, b in zip(x, d)) for d in offsets]))
        steps.append(("poll", [tuple(a + alpha * b for a, b in zip(x, d)) for d in directions]))
        outcomes, x_next, f_next, alpha_next = [], x, f_x, config.beta2 * alpha
        for kind, points in steps:
            trials = [trial(objective, point) for point in points]
            # The least finite value wins, the first of equal ones.
            finite = [i for i, t in enumerate(trials) if math.isfinite(t[1])]
            winner = min(finite, key=lambda i: trials[i][1], default=None)
            success = winner is not None and trials[winner][1] < f_x - forcing(math.dist(trials[winner][0], x))
            outcomes.append((kind, tuple(trials), winner, success))
            if success:
                x_next, f_next, _ = trials[winner]
                alpha_next = config.gamma * alpha
                break
        yield k, x, alpha, f_x, tuple(outcomes), success, x_next, alpha_next
        x, f_x, alpha = x_next, f_next, alpha_next
        k += 1


def leaves(value):
    """``value`` with each leaf of its nested tuples and lists replaced by
    its ``repr``: equal exactly when two values agree bit for bit, signed
    zeros included, whatever their tuple classes."""
    if isinstance(value, (tuple, list)):
        return [leaves(v) for v in value]
    return repr(value)
