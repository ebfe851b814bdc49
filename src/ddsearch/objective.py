"""Test objectives, centered on a discontinuous 1-D function with exact dyadic structure.

The main objective is piecewise: a convex quadratic ``(x+1)^2 - 2`` on the
closed left half-line, and a quartic bump rescaled onto every dyadic band
``2^l * [1, 2)`` on the positive axis.  Every band copy has its local minimum
at ``5/4 * 2^l``, the function is continuous on the open positive axis, and
the only discontinuity is at 0 (value -1, right-limit 0, hence lower
semicontinuous there).  All band arithmetic is by powers of two so that the
values at dyadic points are bit-exact in binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeVar

Vector = tuple[float, ...]
T = TypeVar("T")


class UnknownNameError(LookupError):
    """Raised when a registry lookup names no known entry."""


def lookup(registry: Mapping[str, T], kind: str, name: str) -> T:
    """Return ``registry[name]``; an unknown name raises UnknownNameError
    naming every registered entry in sorted order."""
    try:
        return registry[name]
    except KeyError:
        valid = ", ".join(sorted(registry))
        raise UnknownNameError(f"unknown {kind} {name!r}; valid names: {valid}") from None


#: Ascending coefficients of the quartic q used on the band [1, 2): value 1
#: at 1 and 2 at 2, stationary at 1, 5/4 and 2, with the unique interior
#: local minimum at 5/4 (value exactly 121/128).
BAND_QUARTIC = (-18.0, 60.0, -69.0, 34.0, -6.0)
_Q0, _Q1, _Q2, _Q3, _Q4 = BAND_QUARTIC


def band_index(x: float) -> int:
    """Return the unique integer l with ``2^l <= x < 2^(l+1)`` for x > 0.

    Uses binary exponent extraction rather than a logarithm so that dyadic
    boundary points (x exactly a power of two) classify into the left-closed
    band without rounding.
    """
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"band_index requires a finite x > 0, got {x!r}")
    mantissa, exponent = math.frexp(x)  # x = mantissa * 2**exponent, mantissa in [0.5, 1)
    return exponent - 1


def counterexample_value(x: float) -> float:
    """The discontinuous piecewise objective, total on the reals.

    ``(x+1)^2 - 2`` for x <= 0; ``2^l * q(x / 2^l)`` with q the band quartic
    and l = band_index(x) for x > 0.  The scaling and descaling by ``2^l``
    are exact floating-point operations, so dyadic inputs map to bit-exact
    outputs.
    """
    if x <= 0.0:
        return (x + 1.0) * (x + 1.0) - 2.0
    scale = math.ldexp(1.0, band_index(x))
    y = x / scale
    # q(y) by Horner's rule over BAND_QUARTIC, highest degree inward.
    return scale * ((((_Q4 * y + _Q3) * y + _Q2) * y + _Q1) * y + _Q0)


def _always_in_domain(point: Vector) -> bool:
    return True


@dataclass(frozen=True)
class ObjectiveSpec:
    """An evaluatable extended-real objective with a domain membership oracle.

    ``evaluator`` must be deterministic and side-effect free; it may return
    ``math.inf`` to mark an extended-real value.  Points rejected by
    ``domain_oracle`` are never evaluated by the solver.
    """

    name: str
    dimension: int
    evaluator: Callable[[Vector], float]
    domain_oracle: Callable[[Vector], bool] = field(default=_always_in_domain)


def _counterexample_1d(point: Vector) -> float:
    return counterexample_value(point[0])


def _neg_abs_1d(point: Vector) -> float:
    return -abs(point[0])


def _abs_1d(point: Vector) -> float:
    return abs(point[0])


def _quadratic_1d(point: Vector) -> float:
    x = point[0]
    return (x + 1.0) * (x + 1.0) - 2.0


_REGISTRY: dict[str, ObjectiveSpec] = {
    "counterexample": ObjectiveSpec("counterexample", 1, _counterexample_1d),
    "neg_abs": ObjectiveSpec("neg_abs", 1, _neg_abs_1d),
    "abs": ObjectiveSpec("abs", 1, _abs_1d),
    "quadratic_1d": ObjectiveSpec("quadratic_1d", 1, _quadratic_1d),
}


def get_objective(name: str) -> ObjectiveSpec:
    """Look up a bundled objective by identifier."""
    return lookup(_REGISTRY, "objective", name)
