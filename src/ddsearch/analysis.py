"""Post-hoc trace analysis.

Covers extraction of the refining subsequence (unsuccessful iterations with a
limit estimate for the incumbents), the bit-exact check of a run against the
paper's closed-form dyadic trajectory (``verify_counterexample_closed_form``),
discontinuity-gap measurement, covering radii of trial-point sets, a sampled
lower approximation of the Clarke directional derivative, and the Monte Carlo
harness measuring how reliably the revealing poll pulls runs off the
discontinuous branch of the dyadic objective.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import numbers
import operator
import typing
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import engine
from .engine import AlgoConfig, ConfigError, IterationRecord, Trace
# get_objective stays a name of this module: perfbench's tracer rebinds it here.
from .objective import InputError, ObjectiveSpec, Vector, get_objective, grid_axis

if typing.TYPE_CHECKING:
    import numpy as np


class AnalysisError(ValueError, InputError):
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
    ``n_unsuccessful`` counts the unsuccessful iterations, and ``f_tail``
    holds the incumbent values of the last five of them, oldest first.
    ``refining_directions`` are the distinct unit poll directions tried at
    those iterations; search and revealing-poll trials do not count.
    """

    n_unsuccessful: int
    refined_point: Vector
    alpha_tail: float
    refining_directions: tuple[Vector, ...]
    f_limit: float
    f_refined: float
    gap: float
    f_tail: tuple[float, ...]


@dataclass(frozen=True)
class EscapeStats:
    """Aggregate of independent randomized runs on the dyadic objective."""

    n_trials: int
    n_escaped: int
    n_converged: int
    first_escape_histogram: tuple[tuple[int, int], ...]  # sorted (iteration, trials) pairs


def _extrapolate_limit(points: Sequence[Vector]) -> Vector:
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
            # step * (step / curvature): step * step underflows to 0 once
            # |step| < 1e-162, long before the correction itself does.
            correction = step * (step / curvature)
            if math.isfinite(correction) and abs(correction) <= 10.0 * abs(step):
                value = c - correction
        estimate.append(value)
    return tuple(estimate)


def extract_refining(records: Iterable[IterationRecord], objective: ObjectiveSpec) -> RefinementReport:
    """Extract the refining subsequence (all unsuccessful iterations) from
    the records of a run, in one pass over them.

    The refined point is the extrapolated limit of the unsuccessful
    incumbents; the refining directions are the distinct normalized offsets
    ``point - x`` of the poll step's trials at those iterations, in order of
    first appearance: at most 2n for the ``coordinate`` set.  Search and
    revealing-poll trials do not count, since their offsets do not shrink
    with the step size, nor does a poll trial equal to its incumbent, which
    has no direction; it is skipped before any arithmetic, and on a run
    stuck at step size 0.0 it is every poll trial.  ``objective`` gives the
    fresh evaluation at the refined point.  The pass keeps a count, the last
    five unsuccessful incumbent values, the last three distinct unsuccessful
    incumbents and the directions, so ``records`` may be a stream such as
    ``traceio.replay_trace`` yields.
    """
    n_unsuccessful = 0
    f_tail: deque[float] = deque(maxlen=5)
    tail: deque[Vector] = deque(maxlen=3)
    directions: dict[Vector, None] = {}
    alpha_tail = math.nan
    inf = math.inf
    for record in records:
        if record.success:
            continue
        x = record.x
        n_unsuccessful += 1
        f_tail.append(record.f_x)
        alpha_tail = record.alpha
        if not tail or x != tail[-1]:
            tail.append(x)
        for outcome in record.outcomes:
            if outcome.kind != engine.POLL:
                continue
            for trial in outcome.trials:
                point = trial.point
                # Equal to x (== holds for equal infinities and for a NaN
                # that is x's own object), a point's offset holds zeros and
                # NaNs only, whose scale below is 0.0 or NaN: it would be
                # dropped there.
                if point == x:
                    continue
                v = tuple(map(operator.sub, point, x))
                # Scaled to largest |coordinate| 1 first, v . v neither
                # overflows nor underflows, so a poll offset along +-e_i
                # normalizes to exactly +-e_i.
                scale = max(map(abs, v))
                if not 0.0 < scale < inf:
                    continue
                v = tuple(map(operator.truediv, v, itertools.repeat(scale)))
                norm = math.sqrt(sum(map(operator.mul, v, v)))
                # A NaN coordinate that max() passed over fails this.
                if norm >= 1.0:
                    directions[tuple(map(operator.truediv, v, itertools.repeat(norm)))] = None
    if not n_unsuccessful:
        raise AnalysisError("trace has no unsuccessful iteration; no refining subsequence exists")

    refined = _extrapolate_limit(tail)
    f_refined = engine.value_at(objective, refined)
    f_limit = f_tail[-1]
    return RefinementReport(
        n_unsuccessful=n_unsuccessful,
        refined_point=refined,
        alpha_tail=alpha_tail,
        refining_directions=tuple(directions),
        f_limit=f_limit,
        f_refined=f_refined,
        gap=f_limit - f_refined,
        f_tail=tuple(f_tail),
    )


def _follows_closed_form(record: IterationRecord, k: int) -> bool:
    """Whether iteration k of a run is the one the closed form gives (see
    ``verify_counterexample_closed_form``)."""
    q, odd = divmod(k, 2)
    x_expected = 1.25 * 2.0**-q
    alpha_expected = 0.25 * 2.0**-q
    if record.x != (x_expected,):
        return False
    if odd:
        searches = [o for o in record.outcomes if o.kind == engine.SEARCH]
        return (
            record.alpha == 0.5 * alpha_expected
            and record.success
            and len(searches) == 1
            and searches[0].success
        )
    if record.alpha != alpha_expected or record.success:
        return False
    polls = [o for o in record.outcomes if o.kind == engine.POLL]
    if len(polls) != 1 or len(polls[0].trials) != 2:
        return False
    polled = {t.point for t in polls[0].trials if t.in_domain}
    return polled == {(x_expected - alpha_expected,), (x_expected + alpha_expected,)}


def verify_counterexample_closed_form(records: Iterable[IterationRecord], q_max: int) -> bool:
    """Check the records of a run against the closed-form dyadic trajectory,
    bit-exactly.

    For every q up to ``q_max`` the incumbents must satisfy
    ``x_{2q} = x_{2q+1} = 5/4 * 2**-q`` with steps
    ``alpha_{2q} = 1/4 * 2**-q = 2 * alpha_{2q+1}``; iteration 2q must fail
    after evaluating both poll points ``x +- alpha``, and iteration 2q+1 must
    succeed through its search step.  At most the first ``2*q_max + 2``
    records are taken from ``records``: False at the first that departs,
    and AnalysisError if they run out while the closed form still holds.
    """
    if q_max < 0:
        raise AnalysisError(f"q_max must be >= 0, got {q_max}")
    needed = 2 * q_max + 2
    count = 0
    # zip takes range's item first, so no record past the prefix is pulled,
    # and range takes any int (islice stops at sys.maxsize).
    for k, record in zip(range(needed), records):
        if not _follows_closed_form(record, k):
            return False
        count += 1
    if count < needed:
        raise AnalysisError(f"trace has {count} iterations, need {needed} for q_max={q_max}")
    return True


def covering_radius(
    points: list[Vector] | tuple[Vector, ...], center: Vector, radius: float, grid_resolution: int
) -> float:
    """Largest distance from a grid point of the ball around ``center`` to its
    nearest element of ``points``; +inf when ``points`` is empty.

    The grid is the product, over the axes, of the convex-combination grid
    of ``[c - radius, c + radius]`` (``objective.grid_axis``, also where the
    formula's weighted sums would pass the float range), and a grid point
    ``g`` is in the ball if and only if ``math.dist(g, center) <= radius``.
    ``radius`` and ``center`` are taken as binary64 floats.  ValueError
    unless ``grid_resolution`` is an ``int`` >= 2, ``radius`` is finite and
    > 0, ``center`` holds at least one finite number, ``points`` are
    NaN-free and of the dimension of ``center``, and some grid point lies in
    the ball (rounding can leave none, and in n-D a 2-point grid has only
    corners).

    Every distance is ``math.dist``, which neither overflows nor underflows
    at any scale and in 1-D is ``abs(g - s)``.  The samples are sorted by
    their first coordinate once.  A grid point whose distance to the
    previous grid point's nearest sample is at most the running maximum
    cannot raise it and is skipped; any other bisects the first coordinates
    and scans outward both ways while the first-coordinate gap, which never
    exceeds ``math.dist``, is below its best distance.  Memory is O(S + nG)
    for S samples and G points per axis.
    """
    if type(grid_resolution) is not int or grid_resolution < 2:
        raise ValueError(f"grid_resolution must be an int >= 2, got {grid_resolution!r}")
    radius = _binary64("radius", radius)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    n = len(center)
    middle = _finite_vector("center", center, max(n, 1))
    try:
        samples = sorted(map(_floats, points))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"points must be {n}-vectors of numbers") from exc
    if any(len(sample) != n for sample in samples):
        raise ValueError(f"points must be {n}-vectors of numbers")
    if any(map(math.isnan, itertools.chain.from_iterable(samples))):
        raise ValueError("points must not hold NaN")
    if not samples:
        return math.inf
    firsts = [sample[0] for sample in samples]
    dist, found, last = math.dist, -1.0, samples[0]
    axes = [list(grid_axis(c - radius, c + radius, grid_resolution)) for c in middle]
    for g in itertools.product(*axes):
        if dist(g, middle) > radius or dist(g, last) <= found:
            continue
        first, best = g[0], math.inf
        j = bisect.bisect_left(firsts, first)
        for side in (range(j, len(samples)), range(j - 1, -1, -1)):
            for i in side:
                if not abs(first - firsts[i]) < best:
                    break
                d = dist(g, samples[i])
                if d < best:
                    best, last = d, samples[i]
        found = max(found, best)
    if found < 0.0:
        raise _empty_grid(center, radius, grid_resolution)
    return found


def _empty_grid(center: Vector, radius: float, grid_resolution: int) -> ValueError:
    return ValueError(
        f"the grid of {grid_resolution} points per axis has no point in the ball of radius "
        f"{radius!r} around {tuple(center)!r}"
    )


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


# Samples in one block of the Clarke stream: bounds the memory of
# clarke_estimate (two points and a step per sample) for any n_samples.
_CLARKE_BLOCK = 4096


def _radical_inverses(start: int, stop: int, base: int) -> np.ndarray:
    """Radical inverses of the indices ``start, ..., stop - 1`` in ``base``.

    Each element is the value of the digit-by-digit recurrence
    ``index, digit = divmod(index, base); denom *= base; value += digit /
    denom`` run on that index alone: the operations are the same IEEE ones in
    the same order, and an index whose digits are exhausted adds ``0.0``.
    """
    import numpy as np

    index = start + np.arange(stop - start, dtype=np.int64)
    value = np.zeros(len(index))
    denom = 1.0
    while index.any():
        index, digit = np.divmod(index, base)
        denom *= base
        value += digit / denom
    return value


@functools.lru_cache(maxsize=1)
def _clarke_block(
    start: int, stop: int, h_min: float, h_max: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """Samples ``start, ..., stop - 1`` of the Clarke stream of the window
    ``[h_min, h_max]``: the read-only columns of base offsets ``h_max * (2u
    - 1)`` and of steps, and the steps as floats.  The latest block is kept,
    so the estimates over one window build it once; the key is binary64, as
    ``clarke_estimate`` passes it."""
    import numpy as np

    offsets = (h_max * (2.0 * _radical_inverses(start, stop, 2) - 1.0))[:, None]
    log_ratio = math.log(h_max / h_min)
    # math.exp per step: numpy's exp need not round as libm's does.
    steps = tuple([h_min * math.exp(u * log_ratio) for u in _radical_inverses(start, stop, 3).tolist()])
    step_column = np.array(steps)[:, None]
    offsets.flags.writeable = step_column.flags.writeable = False
    return offsets, step_column, steps


def _binary64(name: str, value: float) -> float:
    """``value`` as a Python float, +-inf where it is too large for one;
    ValueError naming the argument unless it is a real number."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(values: Vector) -> tuple[float, ...]:
    """``values`` as a tuple of floats; TypeError for a str or bytes, whose
    characters ``float`` would take one by one."""
    if isinstance(values, (str, bytes)):
        raise TypeError(f"{values!r} is not a vector")
    return tuple(map(float, values))


def _finite_vector(name: str, values: Vector, dimension: int) -> tuple[float, ...]:
    """``values`` as a tuple of floats; ValueError naming the argument unless
    it holds ``dimension`` finite numbers."""
    message = f"{name} must hold {dimension} finite numbers, got {values!r}"
    try:
        vector = _floats(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(message) from exc
    if len(vector) != dimension or not all(map(math.isfinite, vector)):
        raise ValueError(message)
    return vector


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
    ``n_samples``; it is ``-inf`` when no sampled pair has two finite values.
    Only meaningful where the objective is locally Lipschitz.

    The stream is built in blocks of at most ``_CLARKE_BLOCK`` samples, so
    memory does not grow with ``n_samples``, and the latest block is kept
    for the next estimate over the same window (``_clarke_block``).
    ``h_min`` and ``h_max`` are taken as binary64 floats, and each point and
    step is bit for bit the value of its formula in Python floats; the points are
    evaluated one at a time, y before ``y + t*d``, in stream order, by
    ``engine.value_at``, which builds no record.  ValueError unless x and
    direction hold ``objective.dimension`` finite numbers each,
    ``0 < h_min < h_max`` with ``h_max`` and ``h_max / h_min`` finite, and
    ``n_samples`` is an ``int`` in ``[1, 2**63)``.
    """
    import numpy as np

    point = _finite_vector("x", x, objective.dimension)
    d = _finite_vector("direction", direction, objective.dimension)
    lower, upper = _binary64("h_min", h_min), _binary64("h_max", h_max)
    if not 0.0 < lower < upper < math.inf:
        raise ValueError(f"need 0 < h_min < h_max < inf, got h_min={h_min}, h_max={h_max}")
    if not upper / lower < math.inf:
        raise ValueError(f"h_max / h_min must be finite, got h_min={h_min}, h_max={h_max}")
    if type(n_samples) is not int or not 1 <= n_samples < 2**63:
        raise ValueError(f"n_samples must be an int in [1, 2**63), got {n_samples!r}")
    value_at, isfinite = engine.value_at, math.isfinite
    best = -math.inf
    for start in range(1, n_samples + 1, _CLARKE_BLOCK):
        offsets, step_column, steps = _clarke_block(start, min(start + _CLARKE_BLOCK, n_samples + 1), lower, upper)
        # Overflow to inf stays silent, as with Python floats.
        with np.errstate(over="ignore", invalid="ignore"):
            bases = point + offsets * d
            stepped = bases + step_column * d
        # Points as tuples zipped from the coordinate columns, which is
        # faster than a tuple per row.
        for y, y_step, t in zip(zip(*bases.T.tolist()), zip(*stepped.T.tolist()), steps):
            f_y = value_at(objective, y)
            f_y_step = value_at(objective, y_step)
            if isfinite(f_y) and isfinite(f_y_step):
                # Both values are finite and t > 0, so the quotient is never
                # NaN and this keeps what max() would.
                quotient = (f_y_step - f_y) / t
                if quotient > best:
                    best = quotient
    return best


# Trials per engine.hash_seed_blocks pass; with their master seed they fit
# in the engine's memo, which holds the latest span of 64 seeds.
_SEED_BATCH = 32


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial run seed mixed from (master seed, trial index):
    word 0 of ``SeedSequence((master_seed, trial_index))``'s uint64 state,
    read from the engine's memo, whose spans hold the seeds of 64 to 512 trials."""
    return int(engine.iteration_seed_words(master_seed, trial_index)[0])


def monte_carlo_escape(
    base_config: AlgoConfig, objective: ObjectiveSpec, n_trials: int, master_seed: int
) -> EscapeStats:
    """Run independent seeded trials of the revealing-poll solver on the
    dyadic objective and count escapes and convergences.

    A trial escapes when some incumbent reaches objective value <= 0, which
    on this objective is equivalent to entering [-sqrt(2)-1, 0]; it converges
    when an incumbent comes within 1e-3 of the global minimizer -1, and it
    ends there.  That stop changes no count: incumbent values strictly
    decrease, the right branch is positive (least value 121/128 * 2**l on
    band l), and on the left branch the float value ``(x+1)*(x+1) - 2`` is
    monotone in |fl(x + 1)|, ``math.dist``'s value in 1-D.  So no later
    incumbent leaves the ball, and the first escape (f <= 0) came no later.
    Results depend only on (master_seed, trial index), so aggregation order
    is deterministic.  Both tests fit the dyadic objective only, so any other
    objective raises ConfigError.  Trials run through ``engine.run`` in groups
    of ``_SEED_BATCH``, whose first span, iterations 0 to 63,
    ``engine.hash_seed_blocks`` hashes in one pass; the histogram has at most
    ``max_iterations + 1`` pairs, so memory does not grow with ``n_trials``.
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
    first_escapes: dict[int, int] = {}

    def converged(x: Vector) -> bool:
        return math.dist(x, GLOBAL_MINIMIZER) <= CONVERGENCE_TOL

    for start in range(0, n_trials, _SEED_BATCH):
        seeds = [derive_trial_seed(master_seed, trial) for trial in range(start, min(start + _SEED_BATCH, n_trials))]
        engine.hash_seed_blocks(seeds, 0)
        for seed in seeds:
            config = dataclasses.replace(base_config, seed=seed)
            trace = engine.run(config, objective, until=lambda record: converged(record.x_next))
            records, final = trace.records, trace.final_incumbent()
            # Incumbent values never increase, so the first escape is at 0 if
            # f(x_0) <= 0, else at k + 1 for the first record with f_next <= 0.
            f_start = records[0].f_x if records else engine.value_at(objective, final)
            escaped_at = 0 if f_start <= 0.0 else next((r.k + 1 for r in records if r.f_next <= 0.0), None)
            if escaped_at is not None:
                n_escaped += 1
                first_escapes[escaped_at] = first_escapes.get(escaped_at, 0) + 1
            if converged(final):
                n_converged += 1
    return EscapeStats(
        n_trials=n_trials,
        n_escaped=n_escaped,
        n_converged=n_converged,
        first_escape_histogram=tuple(sorted(first_escapes.items())),
    )
