import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from pabi._util import _Wide

OPS = {"+": operator.add, "*": operator.mul, "/": operator.truediv}
TINY = sys.float_info.min  # the least normal float, 2^-1022
finite = st.floats(allow_nan=False, allow_infinity=False)
exponents = st.integers(-4000, 4000)


def _exact(w: _Wide) -> Fraction:
    return Fraction(w.m) * Fraction(2) ** w.e


def _assert_rounded(w: _Wide, exact: Fraction) -> None:
    """w is exact rounded to 53 bits at an unbounded exponent: a normalized mantissa, within half an ulp."""
    if exact == 0:
        assert w.m == 0.0
    else:
        assert 0.5 <= abs(w.m) < 1.0
        assert abs(_exact(w) - exact) <= Fraction(2) ** (w.e - 54)


@pytest.mark.parametrize(
    "a, op, b",
    [
        # zero operands
        (_Wide(0.0), "+", _Wide(0.75, 3000)),
        (_Wide(0.75, -3000), "+", _Wide(0.0, 5)),
        (_Wide(0.0, 7), "+", _Wide(0.0, -7)),
        (_Wide(0.0), "*", _Wide(0.75, 3000)),
        (_Wide(0.0, 2000), "/", _Wide(0.75, -3000)),
        # exponent gaps past 2^1074: the smaller addend is below half an ulp of the larger
        (_Wide(1.0), "+", _Wide(1.0, -1100)),
        (_Wide(1.0, -1100), "+", _Wide(1.0)),
        (_Wide(-0.6, 3000), "+", _Wide(0.9, 1000)),
        # sums that carry into the next binade
        (_Wide(0.75, 500), "+", _Wide(0.75, 500)),
        (_Wide(1.0 - 2.0**-53, -2000), "+", _Wide(2.0**-54, -2000)),
        (_Wide(1.0 - 2.0**-53, 2000), "+", _Wide(1.5, 1947)),
        # results below the normal floats
        (_Wide(1e-200), "*", _Wide(1e-200)),
        (_Wide(3.0, -1100), "+", _Wide(5.0, -1101)),
        (_Wide(1e-300), "/", _Wide(1e300)),
        # results past 2^1024
        (_Wide(1e300), "*", _Wide(1e300)),
        (_Wide(1.7e308), "+", _Wide(1.7e308)),
        (_Wide(1e300), "/", _Wide(1e-300)),
    ],
)
def test_wide_edge_cases_round_as_the_exact_result(a, op, b):
    w = OPS[op](a, b)
    exact = OPS[op](_exact(a), _exact(b))
    _assert_rounded(w, exact)
    try:
        want = float(exact)  # Fraction division by integers: correctly rounded, subnormals included
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    assert float(w) == want


@given(x=finite, ex=exponents, y=finite, ey=exponents, op=st.sampled_from(sorted(OPS)))
@example(x=1.0, ex=0, y=1.0, ey=-1100, op="+")
@example(x=0.75, ex=-1200, y=-0.75, ey=-1200, op="+")
def test_wide_operations_round_to_nearest_at_any_exponent(x, ex, y, ey, op):
    a, b = _Wide(x, ex), _Wide(y, ey)
    assume(op != "/" or y != 0.0)
    _assert_rounded(OPS[op](a, b), OPS[op](_exact(a), _exact(b)))
    if op != "+":  # by a plain float, as bounds.py multiplies and divides
        _assert_rounded(OPS[op](a, y), OPS[op](_exact(a), Fraction(y)))


@given(x=finite, y=finite, op=st.sampled_from(sorted(OPS)))
@example(x=1.0, y=5e-324, op="+")
@example(x=5e-324, y=1e300, op="*")
@example(x=1.5, y=1.5, op="+")
def test_wide_operations_keep_the_float_bits_where_the_result_is_normal(x, y, op):
    assume(op != "/" or y != 0.0)
    want = OPS[op](x, y)
    assume(TINY <= abs(want) < math.inf or OPS[op](Fraction(x), Fraction(y)) == 0)
    assert float(OPS[op](_Wide(x), _Wide(y))) == want


@given(x=finite, e=exponents)
@example(x=1.5, e=-1074)
@example(x=-0.75, e=1025)
def test_wide_to_float_rounds_once_and_reads_inf_past_the_range(x, e):
    exact = Fraction(x) * Fraction(2) ** e
    try:
        want = float(exact)
    except OverflowError:
        want = math.copysign(math.inf, x)
    assert float(_Wide(x, e)) == want
