"""Test objectives, centered on a discontinuous 1-D function with exact dyadic structure.

The main objective is piecewise: a convex quadratic ``(x+1)^2 - 2`` on the
closed left half-line, and a quartic bump rescaled onto every dyadic band
``2^l * [1, 2)`` on the positive axis.  Every band copy has its local minimum
at ``5/4 * 2^l``, the function is continuous on the open positive axis, and
the only discontinuity is at 0 (value -1, right-limit 0, hence lower
semicontinuous there).  All band arithmetic is by powers of two so that the
values at dyadic points are bit-exact in binary64.

``grid_axis`` is the grid of ``sample`` and of ``covering_radius``; it sits
here because ``cli`` and ``analysis`` both load this module without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, TypeVar

Vector = tuple[float, ...]
T = TypeVar("T")


class InputError(Exception):
    """Base of the errors that a bad input raises: a config, a trace file, a
    registry name, or an analysis argument.  The command line exits 2 on
    these (and on OSError), so catching this base states that contract once."""


class UnknownNameError(LookupError, InputError):
    """Raised when a registry lookup names no known entry."""


def lookup(registry: Mapping[str, T], kind: str, name: str) -> T:
    """Return ``registry[name]``; an unknown name raises UnknownNameError
    naming every registered entry in sorted order."""
    try:
        return registry[name]
    except KeyError:
        valid = ", ".join(sorted(registry))
        raise UnknownNameError(f"unknown {kind} {name!r}; valid names: {valid}") from None


def grid_axis(lo: float, hi: float, grid_resolution: int) -> Iterator[float]:
    """The points ``((G - 1 - i) * lo + i * hi) / (G - 1)``, i = 0 .. G - 1,
    of the convex-combination grid of ``[lo, hi]``, where ``G`` is
    ``grid_resolution``: a symmetric range hits its midpoint exactly.

    Where the weighted sums could pass the float range, the ends are scaled
    by a power of two ``s`` that keeps the sums below a quarter of the
    range, and each point is scaled back.  An end at least ``2**-1022 / s``
    in magnitude scales exactly, and rounding commutes with ``s``: each
    point is then the formula's value without overflow, and a point that
    fits does not move.  A smaller end is rounded to a multiple of
    ``2**-1074 / s``.  ``G - 1`` must not pass the float range.
    """
    intervals = grid_resolution - 1
    scale = 1.0
    if not 4.0 * intervals * max(abs(lo), abs(hi)) < math.inf:
        scale = math.ldexp(1.0, -2 - intervals.bit_length())
    lo, hi = lo * scale, hi * scale
    return (((intervals - i) * lo + i * hi) / intervals / scale for i in range(grid_resolution))


#: Ascending coefficients of the quartic q used on the band [1, 2): value 1
#: at 1 and 2 at 2, stationary at 1, 5/4 and 2, with the unique interior
#: local minimum at 5/4 (value exactly 121/128).
BAND_QUARTIC = (-18.0, 60.0, -69.0, 34.0, -6.0)
_Q0, _Q1, _Q2, _Q3, _Q4 = BAND_QUARTIC


def _counterexample(point: Vector) -> float:
    """``counterexample_value(point[0])`` in one frame: the registry's
    evaluator of the ``counterexample`` objective."""
    x = point[0]
    if x <= 0.0:
        return (x + 1.0) * (x + 1.0) - 2.0
    if not x < math.inf:
        raise ValueError(f"counterexample_value requires x < inf, got {x!r}")
    # x = m * 2**e with m in [0.5, 1), so its band is l = e - 1 even where
    # x is exactly a power of two; frexp extracts it without rounding.
    scale = math.ldexp(1.0, math.frexp(x)[1] - 1)
    y = x / scale
    # q(y) by Horner's rule over BAND_QUARTIC, highest degree inward.
    return scale * ((((_Q4 * y + _Q3) * y + _Q2) * y + _Q1) * y + _Q0)


def counterexample_value(x: float) -> float:
    """The discontinuous piecewise objective, total on the reals below +inf.

    ``(x+1)^2 - 2`` for x <= 0; ``2^l * q(x / 2^l)`` for x > 0, with q the
    band quartic and l the band of x, the integer with ``2^l <= x <
    2^(l+1)``.  The scaling and descaling by ``2^l`` are exact
    floating-point operations, so dyadic inputs map to bit-exact outputs.
    ValueError at +inf and NaN.
    """
    return _counterexample((x,))


def _always_in_domain(point: Vector) -> bool:
    return True


@dataclass(frozen=True)
class ObjectiveSpec:
    """An evaluatable extended-real objective with a domain membership oracle.

    ``evaluator`` and ``domain_oracle`` must be deterministic and
    side-effect free: replay re-evaluates every trial, and the solver may
    ask the oracle about a point more than once.  ``evaluator`` may return
    ``math.inf`` to mark an extended-real value.  Points rejected by
    ``domain_oracle`` are never evaluated by the solver.
    """

    name: str
    dimension: int
    evaluator: Callable[[Vector], float]
    domain_oracle: Callable[[Vector], bool] = field(default=_always_in_domain)


def _neg_abs_1d(point: Vector) -> float:
    return -abs(point[0])


def _abs_1d(point: Vector) -> float:
    return abs(point[0])


def _quadratic_1d(point: Vector) -> float:
    x = point[0]
    return (x + 1.0) * (x + 1.0) - 2.0


_REGISTRY: dict[str, ObjectiveSpec] = {
    "counterexample": ObjectiveSpec("counterexample", 1, _counterexample),
    "neg_abs": ObjectiveSpec("neg_abs", 1, _neg_abs_1d),
    "abs": ObjectiveSpec("abs", 1, _abs_1d),
    "quadratic_1d": ObjectiveSpec("quadratic_1d", 1, _quadratic_1d),
}


def get_objective(name: str) -> ObjectiveSpec:
    """Look up a bundled objective by identifier."""
    return lookup(_REGISTRY, "objective", name)
