"""Objective-module tests: exact quartic identities, band classification,
and the piecewise structure of the dyadic objective."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsearch import objective
from ddsearch.objective import (
    BAND_QUARTIC,
    UnknownNameError,
    counterexample_value,
    get_objective,
)

from helpers import exact_band_quartic


def test_quartic_interior_values_match_rational_oracle():
    # [1, 2) is band 0, whose scale is 1: counterexample_value is q there.
    for x in (Fraction(5, 4), Fraction(3, 2), Fraction(9, 8), Fraction(7, 4)):
        assert Fraction(counterexample_value(float(x))) == exact_band_quartic(x)


def _band(x: float) -> int:
    """The band of x > 0, the l with ``2^l <= x < 2^(l+1)``, in exact
    arithmetic: x is p / 2^k with ``2^(a-1) <= p < 2^a``, so l = a - 1 - k."""
    exact = Fraction(x)
    return exact.numerator.bit_length() - exact.denominator.bit_length()


@pytest.mark.parametrize("x,expected", [(3.0, 1), (1.0, 0), (0.75, -1)])
def test_band_index_examples(x, expected):
    # The value at x is the band quartic scaled to band `expected`; x sits
    # where the neighbouring bands' quartics differ.
    assert _band(x) == expected
    scale = Fraction(2) ** expected
    assert Fraction(counterexample_value(x)) == scale * exact_band_quartic(Fraction(x) / scale)


def test_band_index_exact_at_dyadic_boundaries():
    # A power of two opens its band, and the float below it closes the band
    # beneath; the registry's evaluator scales by that band, bit for bit.
    evaluator = get_objective("counterexample").evaluator
    for level in range(-40, 41):
        boundary = 2.0**level
        below, above = math.nextafter(boundary, 0.0), math.nextafter(boundary, math.inf)
        for x, band in ((boundary, level), (below, level - 1), (above, level)):
            assert _band(x) == band
            assert evaluator((x,)).hex() == _band_quartic_reference(x).hex(), x


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.25, math.inf, math.nan])
def test_band_index_rejects_nonpositive(bad):
    # No band holds a nonpositive x, which takes the quadratic, nor +inf or
    # NaN, which raise.
    if bad <= 0.0:
        assert counterexample_value(bad) == (bad + 1.0) * (bad + 1.0) - 2.0
    else:
        with pytest.raises(ValueError):
            counterexample_value(bad)


@pytest.mark.parametrize(
    "x,expected",
    [(0.0, -1.0), (1.0, 1.0), (1.25, 121 / 128), (-1.0, -2.0), (0.75, 9 / 16)],
)
def test_value_examples(x, expected):
    assert counterexample_value(x) == expected


def test_dyadic_exactness_down_to_q50():
    base = counterexample_value(1.25)
    assert base == 121 / 128
    for q in range(51):
        scale = 2.0**-q
        assert counterexample_value(1.25 * scale) == scale * base


def _band_quartic_reference(x: float) -> float:
    scale = math.ldexp(1.0, _band(x))
    y = x / scale
    acc = BAND_QUARTIC[-1]
    for c in reversed(BAND_QUARTIC[:-1]):
        acc = acc * y + c
    return scale * acc


_POSITIVE_FLOATS = st.one_of(
    st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.min, allow_subnormal=True),
    st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max, allow_subnormal=True),
)


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(_POSITIVE_FLOATS)
def test_counterexample_value_is_the_scaled_band_quartic(x):
    # counterexample_value writes the quartic's Horner steps out; they must
    # round exactly as a Horner loop over BAND_QUARTIC does.
    assert counterexample_value(x).hex() == _band_quartic_reference(x).hex()


def test_counterexample_value_is_the_scaled_band_quartic_at_every_band_edge():
    for exponent in range(-1074, 1024):
        power = math.ldexp(1.0, exponent)
        for x in (power, math.nextafter(power, 0.0)):
            if x > 0.0:
                assert counterexample_value(x).hex() == _band_quartic_reference(x).hex(), x


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_counterexample_value_rejects_non_finite_input(bad):
    # The scalar form fails as the registry's point evaluator does.
    with pytest.raises(ValueError, match="requires x < inf") as expected:
        get_objective("counterexample").evaluator((bad,))
    with pytest.raises(ValueError) as actual:
        counterexample_value(bad)
    assert str(actual.value) == str(expected.value)


def test_band_minimizers_are_local_minimizers():
    for level in range(-20, 21):
        x_min = 1.25 * 2.0**level
        best = counterexample_value(x_min)
        for delta in (2.0 ** (level - 2), -(2.0 ** (level - 2)), 2.0 ** (level - 3), -(2.0 ** (level - 3))):
            assert counterexample_value(x_min + delta) > best


def test_continuity_at_band_boundaries():
    # The quartic is stationary at both band endpoints, so the one-sided
    # differences shrink quadratically in the relative offset, down to the
    # Horner rounding floor of a few 1e-14 relative to the band scale.
    for level in range(-20, 21):
        boundary = 2.0**level
        reference = counterexample_value(boundary)
        diffs = []
        for k in range(3, 11):
            eps = boundary * 10.0**-k
            diff = abs(counterexample_value(boundary - eps) - reference)
            assert diff <= boundary * (30.0 * 10.0 ** (-2 * k) + 1e-13)
            diffs.append(diff)
        assert diffs[-1] <= diffs[0]


def test_lower_semicontinuous_at_zero():
    assert counterexample_value(0.0) == -1.0
    right_values = [counterexample_value(2.0**-k) for k in range(1, 40)]
    assert all(v > 0.0 for v in right_values)
    assert right_values[-1] < 1e-11
    assert min(counterexample_value(0.0), right_values[-1]) == -1.0


def test_quadratic_branch_on_nonpositive_samples():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-50.0, 0.0, size=1000):
        x = float(x)
        assert counterexample_value(x) == (x + 1.0) * (x + 1.0) - 2.0


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (1e-320, 1.7e308, [1e-320, 8.5e307, 1.7e308]),
        (1.7e308, -1e-320, [1.7e308, 8.5e307, -1e-320]),
        (-5e-324, -1.7e308, [-5e-324, -8.5e307, -1.7e308]),
        (-1.7e308, -1.6e308, [-1.7e308, -1.6499999999999999e308, -1.6e308]),
    ],
)
def test_grid_axis_keeps_a_tiny_end_beside_a_huge_one(lo, hi, expected):
    # The weighted sums pass the float range, so the ends are scaled by
    # 2**-4, which rounds a subnormal end; its own point is still the
    # formula's value.  Both ends of the last grid are huge.
    points = list(objective.grid_axis(lo, hi, 3))
    assert points == expected
    assert [math.copysign(1.0, p) for p in points] == [math.copysign(1.0, p) for p in expected]


def test_registry_counterexample_discontinuity():
    spec = get_objective("counterexample")
    assert spec.dimension == 1
    assert spec.evaluator((0.0,)) == -1.0


def test_registry_auxiliary_objectives():
    assert get_objective("neg_abs").evaluator((2.0,)) == -2.0
    assert get_objective("abs").evaluator((-3.0,)) == 3.0
    assert get_objective("quadratic_1d").evaluator((0.5,)) == 0.25


def test_registry_unknown_name_lists_valid_names():
    with pytest.raises(UnknownNameError) as excinfo:
        get_objective("bogus")
    message = str(excinfo.value)
    for name in sorted(objective._REGISTRY):
        assert name in message


def test_domain_oracle_defaults_to_total():
    spec = get_objective("counterexample")
    assert spec.domain_oracle((1e300,))
    assert spec.domain_oracle((-1e300,))
