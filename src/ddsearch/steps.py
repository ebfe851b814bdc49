"""Pluggable pieces of the search loop: search schedules, poll direction sets,
the uniform-ball sampler behind the revealing poll, and forcing functions.

Everything here is pure except the ball sampler, which owns no state of its
own but advances the generator it is handed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .objective import Vector, lookup

if TYPE_CHECKING:
    import numpy as np

SearchSchedule = Callable[[int, Vector, float], list[Vector]]
ForcingFunction = Callable[[float], float]


def _lookup_sized(registry: dict[str, tuple[object, int | None]], kind: str, name: str, dimension: int):
    """Registry lookup for entries that may require one dimension."""
    entry, required = lookup(registry, kind, name)
    if required is not None and dimension != required:
        raise ValueError(f"{kind} {name!r} requires dimension {required}, got {dimension}")
    return entry


# --------------------------------------------------------------------------
# Search schedules


def no_search(k: int, x: Vector, alpha: float) -> list[Vector]:
    """The empty schedule: the search step never proposes a point."""
    return []


def counterexample_search(k: int, x: Vector, alpha: float) -> list[Vector]:
    """1-D schedule that proposes ``x - 5*alpha`` at odd iterations only.

    Iteration indices start at 0 and index 0 counts as even, so the first
    search proposal happens at k = 1.  On the dyadic band objective started
    at 5/4 with step 1/4 this lands exactly on the next local minimizer to
    the left each time.
    """
    if k % 2 == 0:
        return []
    return [(x[0] - 5.0 * alpha,)]


# name -> (schedule, required dimension or None for any)
_SEARCH_SCHEDULES: dict[str, tuple[SearchSchedule, int | None]] = {
    "none": (no_search, None),
    "counterexample": (counterexample_search, 1),
}


def get_search_schedule(name: str, dimension: int) -> SearchSchedule:
    return _lookup_sized(_SEARCH_SCHEDULES, "search schedule", name, dimension)


# --------------------------------------------------------------------------
# Poll direction sets
#
# A set is the same at every iteration.  Its order breaks ties in candidate
# selection, so it decides the trajectory.


def pm1_directions(dimension: int) -> tuple[Vector, ...]:
    """The 1-D positive spanning set {-1, +1}, -1 first."""
    return ((-1.0,), (1.0,))


def coordinate_directions(dimension: int) -> tuple[Vector, ...]:
    """{+-e_i} in any dimension: all positive axes first, then all negative ones."""
    plus = tuple(tuple(1.0 if j == i else 0.0 for j in range(dimension)) for i in range(dimension))
    return plus + tuple(tuple(-v for v in d) for d in plus)


# name -> (builder, required dimension or None for any)
_POLL_DIRECTIONS: dict[str, tuple[Callable[[int], tuple[Vector, ...]], int | None]] = {
    "pm1": (pm1_directions, 1),
    "coordinate": (coordinate_directions, None),
}


def get_poll_directions(name: str, dimension: int) -> tuple[Vector, ...]:
    """Return the named poll direction set; both bundled sets positively
    span their space."""
    return _lookup_sized(_POLL_DIRECTIONS, "poll directions", name, dimension)(dimension)


# --------------------------------------------------------------------------
# Uniform sampling in a ball


def sample_ball_uniform(rng: np.random.Generator, dimension: int, radius: float, count: int) -> list[Vector]:
    """Draw ``count`` independent points uniformly from the closed ball of
    ``radius`` around the origin.

    Each draw takes a standard normal vector, normalizes it onto the unit
    sphere, and scales by ``U**(1/n)`` with U uniform on [0, 1]; in dimension
    1 this reduces to the uniform distribution on [-radius, radius].  Points
    are computed in the unit ball and then multiplied by ``radius``, so
    samples at radius R equal R times the samples the same generator state
    yields at radius 1.  Only dimensions above 1 import numpy.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if not radius > 0.0:
        raise ValueError(f"ball radius must be > 0, got {radius}")
    if dimension == 1:
        return _sample_interval_uniform(rng, radius, count)
    import numpy as np

    gauss = rng.standard_normal((count, dimension))
    norms = np.sqrt(np.sum(gauss * gauss, axis=1))
    # A zero normal vector cannot be normalized; redraw those rows.
    degenerate = norms == 0.0
    while degenerate.any():
        gauss[degenerate] = rng.standard_normal((int(degenerate.sum()), dimension))
        norms = np.sqrt(np.sum(gauss * gauss, axis=1))
        degenerate = norms == 0.0
    radial = rng.random(count) ** (1.0 / dimension)
    unit_ball = gauss / norms[:, None] * radial[:, None]
    points = radius * unit_ball
    return [tuple(float(v) for v in row) for row in points]


def _sample_interval_uniform(rng: np.random.Generator, radius: float, count: int) -> list[Vector]:
    """The general sampler in dimension 1, in closed form and bit for bit.

    It takes the same draws in the same order.  A standard normal g never
    underflows ``g*g``, so its norm is exactly ``|g|``, the unit direction is
    exactly ``copysign(1, g)``, ``U**(1/1)`` is U, and ``radius * (+-1 * U)``
    equals ``copysign(radius * U, g)``, signed zeros included.  A single
    point is drawn with scalar calls, which take the same draws as arrays of
    size 1.
    """
    if count == 1:
        g = rng.standard_normal()
        while g * g == 0.0:
            g = rng.standard_normal()
        return [(math.copysign(radius * rng.random(), g),)]
    gauss = rng.standard_normal(count).tolist()
    degenerate = [i for i, g in enumerate(gauss) if g * g == 0.0]
    while degenerate:
        for i, g in zip(degenerate, rng.standard_normal(len(degenerate)).tolist()):
            gauss[i] = g
        degenerate = [i for i in degenerate if gauss[i] * gauss[i] == 0.0]
    return [(math.copysign(radius * u, g),) for g, u in zip(gauss, rng.random(count).tolist())]


# --------------------------------------------------------------------------
# Forcing functions


def zero_forcing(t: float) -> float:
    """Simple decrease: no forcing at any distance."""
    return 0.0


def quadratic_forcing(t: float) -> float:
    """Sufficient decrease proportional to the squared step: 1e-4 * t**2."""
    return 1e-4 * t * t


_FORCING: dict[str, ForcingFunction] = {
    "zero": zero_forcing,
    "quadratic": quadratic_forcing,
}


def get_forcing(name: str) -> ForcingFunction:
    """Look up a forcing function; both bundled choices are continuous,
    nondecreasing on the nonnegative axis, and o(t) as t drops to 0.

    No forcing is negative at any distance, so only a trial value below the
    incumbent's can give sufficient decrease: ``engine.iterate`` tests a
    step's forcing only when its best value is below.
    """
    return lookup(_FORCING, "forcing function", name)
