"""Post-hoc trace analysis.

Covers extraction of the refining subsequence (unsuccessful iterations with a
limit estimate for the incumbents), discontinuity-gap measurement, covering
radii of trial-point sets, a sampled lower approximation of the Clarke
directional derivative, and the Monte Carlo harness measuring how reliably
the revealing poll pulls runs off the discontinuous branch of the dyadic
objective.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import AlgoConfig, ConfigError, Trace
from .objective import ObjectiveSpec, Vector, get_objective


class AnalysisError(ValueError):
    """A trace does not support the requested analysis."""


GLOBAL_MINIMIZER = (-1.0,)
CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class RefinementReport:
    """Refining subsequence summary extracted from one trace.

    ``refined_point`` estimates the limit of the incumbents over the
    unsuccessful iterations; ``gap`` is ``f_limit`` minus a fresh objective
    evaluation at that estimate, so a markedly positive gap flags a
    discontinuity the run slid into without sampling across it.
    """

    unsuccessful_indices: tuple[int, ...]
    refined_point: Vector
    alpha_tail: float
    refining_directions: tuple[Vector, ...]
    f_limit: float
    f_refined: float
    gap: float
    f_values: tuple[float, ...]


@dataclass(frozen=True)
class EscapeStats:
    """Aggregate of independent randomized runs on the dyadic objective."""

    n_trials: int
    n_escaped: int
    n_converged: int
    first_escape_iterations: tuple[int, ...]


def _dedupe_consecutive(points: list[Vector]) -> list[Vector]:
    out: list[Vector] = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    return out


def _extrapolate_limit(points: list[Vector]) -> Vector:
    """Estimate the limit of a convergent tail by Aitken delta-squared.

    Uses the last three distinct points componentwise.  A geometric tail with
    ratio r contracts to its limit exactly; the correction is kept only while
    it stays within 10x the last step (valid for r up to ~0.9), otherwise the
    last point stands.
    """
    if len(points) < 3:
        return points[-1]
    y0, y1, y2 = points[-3], points[-2], points[-1]
    estimate = []
    for a, b, c in zip(y0, y1, y2):
        step = c - b
        curvature = c - 2.0 * b + a
        value = c
        if curvature != 0.0:
            correction = step * step / curvature
            if math.isfinite(correction) and abs(correction) <= 10.0 * abs(step):
                value = c - correction
        estimate.append(value)
    return tuple(estimate)


def _cluster_directions(directions: list[Vector], tol: float) -> tuple[Vector, ...]:
    """Greedy angular clustering, representatives in order of first appearance."""
    reps: list[Vector] = []
    for u in directions:
        for rep in reps:
            # Clipped so that a NaN cosine stays NaN and never joins a cluster.
            cosine = min(max(sum(a * b for a, b in zip(u, rep)), -1.0), 1.0)
            if math.acos(cosine) <= tol:
                break
        else:
            reps.append(u)
    return tuple(reps)


def extract_refining(
    trace: Trace, cluster_tol: float = 1e-3, objective: ObjectiveSpec | None = None
) -> RefinementReport:
    """Extract the refining subsequence (all unsuccessful iterations) from a trace.

    The refined point is the extrapolated limit of the unsuccessful
    incumbents; the refining directions are angular-cluster representatives
    of the normalized trial directions from poll and revealing-poll steps at
    those iterations.  ``objective`` overrides the registry lookup for the
    fresh evaluation at the refined point.
    """
    if not cluster_tol > 0.0:
        raise AnalysisError(f"cluster_tol must be > 0, got {cluster_tol}")
    unsuccessful = [r for r in trace.records if not r.success]
    if not unsuccessful:
        raise AnalysisError("trace has no unsuccessful iteration; no refining subsequence exists")
    if objective is None:
        objective = get_objective(trace.objective_name)

    indices = tuple(r.k for r in unsuccessful)
    f_values = tuple(r.f_x for r in unsuccessful)
    refined = _extrapolate_limit(_dedupe_consecutive([r.x for r in unsuccessful]))

    directions: list[Vector] = []
    for record in unsuccessful:
        for outcome in record.outcomes:
            if outcome.kind == engine.SEARCH:
                continue
            for trial in outcome.trials:
                v = tuple(p - x for p, x in zip(trial.point, record.x))
                # sqrt(v . v), not math.hypot, which rounds differently where
                # the squares underflow (the tails of alpha_min = 0 runs).
                norm = math.sqrt(sum(c * c for c in v))
                if norm > 0.0:
                    directions.append(tuple(c / norm for c in v))

    f_refined = engine.evaluate(objective, refined).value
    f_limit = f_values[-1]
    return RefinementReport(
        unsuccessful_indices=indices,
        refined_point=refined,
        alpha_tail=unsuccessful[-1].alpha,
        refining_directions=_cluster_directions(directions, cluster_tol),
        f_limit=f_limit,
        f_refined=f_refined,
        gap=f_limit - f_refined,
        f_values=f_values,
    )


def verify_counterexample_closed_form(trace: Trace, q_max: int) -> bool:
    """Check a trace against the closed-form dyadic trajectory, bit-exactly.

    For every q up to ``q_max`` the incumbents must satisfy
    ``x_{2q} = x_{2q+1} = 5/4 * 2**-q`` with steps
    ``alpha_{2q} = 1/4 * 2**-q = 2 * alpha_{2q+1}``; iteration 2q must fail
    after evaluating both poll points ``x +- alpha``, and iteration 2q+1 must
    succeed through its search step.
    """
    if q_max < 0:
        raise AnalysisError(f"q_max must be >= 0, got {q_max}")
    needed = 2 * q_max + 2
    if len(trace.records) < needed:
        raise AnalysisError(f"trace has {len(trace.records)} iterations, need {needed} for q_max={q_max}")
    for q in range(q_max + 1):
        x_expected = 1.25 * 2.0**-q
        alpha_expected = 0.25 * 2.0**-q
        even = trace.records[2 * q]
        odd = trace.records[2 * q + 1]
        if even.x != (x_expected,) or odd.x != (x_expected,):
            return False
        if even.alpha != alpha_expected or odd.alpha != 0.5 * alpha_expected:
            return False
        if even.success:
            return False
        polls = [o for o in even.outcomes if o.kind == engine.POLL]
        if len(polls) != 1 or len(polls[0].trials) != 2:
            return False
        polled = {t.point for t in polls[0].trials if t.in_domain}
        if polled != {(x_expected - alpha_expected,), (x_expected + alpha_expected,)}:
            return False
        if not odd.success:
            return False
        searches = [o for o in odd.outcomes if o.kind == engine.SEARCH]
        if len(searches) != 1 or not searches[0].success:
            return False
    return True


# Coordinates in one difference block of covering_radius (2 MB of float64);
# a 1-D pilot of up to 1304 samples on a 201-point grid is a single block.
_COVERING_BLOCK = 1 << 18


def covering_radius(
    points: list[Vector] | tuple[Vector, ...], center: Vector, radius: float, grid_resolution: int
) -> float:
    """Largest distance from a grid point of the ball around ``center`` to its
    nearest element of ``points``; +inf when ``points`` is empty.

    The grid is the per-axis convex-combination lattice of
    ``[center - radius, center + radius]`` intersected with the closed ball,
    so endpoints and midpoints land exactly.
    """
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if len(points) == 0:
        return math.inf
    n = len(center)
    weights = np.arange(grid_resolution, dtype=float)
    axes = [
        ((grid_resolution - 1 - weights) * (c - radius) + weights * (c + radius)) / (grid_resolution - 1)
        for c in center
    ]
    center_array = np.asarray(center, dtype=float)
    samples = np.asarray(points, dtype=float).reshape(len(points), n)
    # Enumerate the grid a block of lattice points at a time, and chunk over
    # samples, so that no block of grid coordinates or of differences holds
    # more than _COVERING_BLOCK coordinates; a max of mins over chunks is exact.
    columns = max(1, min(len(samples), _COVERING_BLOCK // n))
    rows = max(1, _COVERING_BLOCK // (columns * n))
    lattice_size = grid_resolution**n
    radius_found = 0.0
    for row in range(0, lattice_size, rows):
        index = np.unravel_index(np.arange(row, min(row + rows, lattice_size)), (grid_resolution,) * n)
        mesh = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
        part = mesh[np.linalg.norm(mesh - center_array, axis=1) <= radius]
        if len(part) == 0:
            continue
        nearest = np.full(len(part), math.inf)
        for column in range(0, len(samples), columns):
            block = samples[column : column + columns]
            # Squared distances summed coordinate by coordinate, in the order
            # np.linalg.norm sums them; sqrt is monotone, so it is taken last.
            squared = np.zeros((len(part), len(block)))
            for i in range(n):
                difference = part[:, i, None] - block[:, i]
                squared += difference * difference
            nearest = np.minimum(nearest, squared.min(axis=1))
        radius_found = max(radius_found, float(np.sqrt(nearest.max())))
    return radius_found


def trial_points(trace: Trace, kinds: tuple[str, ...] | None = None, unsuccessful_only: bool = False) -> list[Vector]:
    """All trial points logged in a trace, optionally filtered by step kind
    and restricted to unsuccessful iterations."""
    out: list[Vector] = []
    for record in trace.records:
        if unsuccessful_only and record.success:
            continue
        for outcome in record.outcomes:
            if kinds is not None and outcome.kind not in kinds:
                continue
            out.extend(t.point for t in outcome.trials)
    return out


def _van_der_corput(index: int, base: int) -> float:
    value, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        value += digit / denom
    return value


def clarke_estimate(
    objective: ObjectiveSpec,
    x: Vector,
    direction: Vector,
    h_min: float,
    h_max: float,
    n_samples: int,
) -> float:
    """Sampled lower approximation of the Clarke directional derivative at x.

    Maximizes the difference quotient ``(f(y + t*d) - f(y)) / t`` over a
    deterministic low-discrepancy stream of pairs: base points ``y`` on a
    nested dyadic lattice of the segment of half-length ``h_max`` through x
    along d, and steps ``t`` log-spaced over ``[h_min, h_max]``.  Prefixes of
    the stream are nested, so the estimate is non-decreasing in
    ``n_samples``.  Only meaningful where the objective is locally Lipschitz.
    """
    if not 0.0 < h_min < h_max:
        raise ValueError(f"need 0 < h_min < h_max, got h_min={h_min}, h_max={h_max}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    log_ratio = math.log(h_max / h_min)
    best = -math.inf
    for i in range(1, n_samples + 1):
        offset = 2.0 * _van_der_corput(i, 2) - 1.0
        t = h_min * math.exp(_van_der_corput(i, 3) * log_ratio)
        y = tuple(xj + h_max * offset * dj for xj, dj in zip(x, direction))
        y_step = tuple(yj + t * dj for yj, dj in zip(y, direction))
        f_y = engine.evaluate(objective, y)
        f_y_step = engine.evaluate(objective, y_step)
        if math.isfinite(f_y.value) and math.isfinite(f_y_step.value):
            best = max(best, (f_y_step.value - f_y.value) / t)
    return best


def incumbent_values(trace: Trace) -> list[float]:
    """Objective values of the incumbents x_0 .. x_T (T = iteration count)."""
    values = [r.f_x for r in trace.records]
    if trace.records:
        values.append(trace.records[-1].f_next)
    return values


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial run seed mixed from (master seed, trial index):
    word 0 of ``SeedSequence((master_seed, trial_index))``'s uint64 state,
    read from the engine's memo of iteration seed words."""
    return int(engine.iteration_seed_words(master_seed, trial_index)[0])


def monte_carlo_escape(
    base_config: AlgoConfig, objective: ObjectiveSpec, n_trials: int, master_seed: int
) -> EscapeStats:
    """Run independent seeded trials of the revealing-poll solver on the
    dyadic objective and count escapes and convergences.

    A trial escapes when some incumbent reaches objective value <= 0, which
    on this objective is equivalent to entering [-sqrt(2)-1, 0]; it converges
    when its final incumbent is within 1e-3 of the global minimizer -1.
    Results depend only on (master_seed, trial index), so aggregation order
    is deterministic.  Both tests fit the dyadic objective only, so any other
    objective raises ConfigError.
    """
    if objective.name != "counterexample":
        raise ConfigError(f"monte_carlo_escape requires the counterexample objective, got {objective.name!r}")
    if base_config.revealing_radius is None:
        raise ConfigError("monte_carlo_escape requires a config with the revealing poll enabled")
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    n_escaped = 0
    n_converged = 0
    first_escape: list[int] = []
    for trial in range(n_trials):
        config = dataclasses.replace(base_config, seed=derive_trial_seed(master_seed, trial))
        trace = engine.run(config, objective)
        values = incumbent_values(trace)
        escaped_at = next((k for k, v in enumerate(values) if v <= 0.0), None)
        if escaped_at is not None:
            n_escaped += 1
            first_escape.append(escaped_at)
        if math.dist(trace.final_incumbent(), GLOBAL_MINIMIZER) <= CONVERGENCE_TOL:
            n_converged += 1
    return EscapeStats(
        n_trials=n_trials,
        n_escaped=n_escaped,
        n_converged=n_converged,
        first_escape_iterations=tuple(first_escape),
    )
