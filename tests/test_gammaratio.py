"""Symbolic Gamma-ratio coefficients: canonical reduction and arithmetic."""
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from projdunkl import GammaRatio, pochhammer


def test_pochhammer_basic():
    assert pochhammer(F(3), 0) == 1
    assert pochhammer(F(3), 2) == 12
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)


def test_integer_class_reduces_to_factorials():
    # G(4)/G(2) = 3!/1! = 6, fully rational
    r = GammaRatio(1, num=[F(4)], den=[F(2)])
    assert r.is_rational()
    assert r.as_fraction() == 6


def test_large_integer_arguments_cancel_before_any_factorial():
    # G(n + 1)/G(n + 2) is 1/(n + 1) by one Pochhammer step; (10^6)! is
    # never formed, which took seconds
    start = time.perf_counter()
    r = GammaRatio(1, num=[10**6 + 1], den=[10**6 + 2])
    assert r == F(1, 10**6 + 1)
    assert GammaRatio(1, num=[10**6, 3], den=[10**6, 2]) == 2
    # members far apart: one Pochhammer product of 20000 factors
    assert GammaRatio(1, num=[1], den=[20001]) == F(1, math.factorial(20000))
    assert time.perf_counter() - start < 1.0


def test_same_class_reduces_via_pochhammer():
    # G(7/2)/G(1/2) = (1/2)(3/2)(5/2) = 15/8
    r = GammaRatio(1, num=[F(7, 2)], den=[F(1, 2)])
    assert r.is_rational()
    assert r.as_fraction() == F(15, 8)


def test_distinct_classes_stay_symbolic():
    r = GammaRatio(1, num=[F(1, 2)], den=[F(1, 3)])
    assert not r.is_rational()
    with pytest.raises(ValueError):
        r.as_fraction()


def test_is_one_after_cancellation():
    r = GammaRatio(F(15, 8), num=[F(1, 2)], den=[F(7, 2)])
    assert r == 1
    assert GammaRatio.one() == 1
    assert GammaRatio(2) != 1


def test_mul_and_div_recanonicalize():
    a = GammaRatio(1, num=[F(5, 2)])
    b = GammaRatio(1, den=[F(1, 2)])
    prod = a * b
    assert prod.is_rational()
    assert prod.as_fraction() == F(3, 4)  # G(5/2)/G(1/2) = (1/2)(3/2)
    quot = a / GammaRatio(1, num=[F(5, 2)])
    assert quot == 1


def test_scalar_mul():
    r = GammaRatio(1, num=[F(3, 2)]) * F(2)
    assert r == GammaRatio(2, num=[F(3, 2)])


def test_pole_rejected():
    with pytest.raises(ValueError):
        GammaRatio(1, num=[F(0)])
    with pytest.raises(ValueError):
        GammaRatio(1, den=[F(-2)])
    with pytest.raises(ValueError, match="pole at argument -1"):
        GammaRatio(1, num=[F(-1)], den=[F(-1)])  # even where it would cancel


def test_to_float():
    r = GammaRatio(1, num=[F(1, 2)])
    assert r.to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    r2 = GammaRatio(F(3), num=[F(5, 2)], den=[F(1, 2)])
    assert r2.to_float() == pytest.approx(3 * (0.5 * 1.5), rel=1e-15)


def test_str_forms():
    assert str(GammaRatio(2, den=[F(7, 2)])) == "2/G(7/2)"
    assert str(GammaRatio(F(1, 2), num=[F(7, 2)])) == "1/2*G(7/2)"
    assert str(GammaRatio(1, den=[F(7, 2)])) == "1/G(7/2)"
    assert str(GammaRatio(1, num=[F(7, 2)], den=[F(1, 3)])) == "G(7/2)/G(1/3)"
    assert str(GammaRatio(F(3, 4))) == "3/4"


positive_args = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
shifts = st.integers(min_value=0, max_value=8)


@given(positive_args, shifts)
def test_shift_identity_reduces(a, n):
    # G(a + n)/G(a) is the rising factorial, always rational
    r = GammaRatio(1, num=[a + n], den=[a])
    assert r.is_rational()
    assert r.as_fraction() == pochhammer(a, n)


@given(positive_args, positive_args, shifts, shifts)
def test_product_cancellation(a, b, m, n):
    # (G(a+m)/G(a)) * (G(b)/G(b+n)) * inverse pair collapses to 1
    r = GammaRatio(1, num=[a + m], den=[a]) * GammaRatio(1, num=[b], den=[b + n])
    inv = GammaRatio(1, num=[a], den=[a + m]) * GammaRatio(1, num=[b + n], den=[b])
    assert r * inv == 1


@given(positive_args, shifts)
def test_float_agrees_with_lgamma(a, n):
    r = GammaRatio(1, num=[a + n], den=[a])
    expect = math.exp(math.lgamma(float(a + n)) - math.lgamma(float(a)))
    assert r.to_float() == pytest.approx(expect, rel=1e-12)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(positive_args, shifts, rationals)
def test_equal_values_compare_and_hash_equal(a, n, c):
    # G(a + n) = (a)_n G(a): the same value from two constructions
    r1 = GammaRatio(c, den=[a + n])
    r2 = GammaRatio(c / pochhammer(a, n), den=[a])
    assert r1 == r2
    assert hash(r1) == hash(r2)


def test_hash_contract():
    # a rational ratio is its Fraction, in sets and dicts too
    assert 2 in {GammaRatio(2)}
    for q in (0, 2, -7, F(3, 4), F(-5, 9)):
        assert GammaRatio(q) == q
        assert hash(GammaRatio(q)) == hash(q)
    assert {GammaRatio(F(15, 8), num=[F(1, 2)], den=[F(7, 2)]): "one"}[1] == "one"
    # 2/G(7/2) = (8/15)/G(3/2), G(11/2)/G(35/6) = (567/667) G(7/2)/G(23/6),
    # G(1/2)/G(4/3) = 4 G(5/2)/G(1/3), the classes met in the other order,
    # and G(-1/2) = -2 G(1/2)
    pairs = [(GammaRatio(1, num=[F(1, 2)], den=[F(4, 3)]),
              GammaRatio(4, num=[F(5, 2)], den=[F(1, 3)])),
             (GammaRatio(2, den=[F(7, 2)]), GammaRatio(F(8, 15), den=[F(3, 2)])),
             (GammaRatio(1, num=[F(11, 2)], den=[F(35, 6)]),
              GammaRatio(F(567, 667), num=[F(7, 2)], den=[F(23, 6)])),
             (GammaRatio(1, num=[F(-1, 2)]), GammaRatio(-2, num=[F(1, 2)])),
             (GammaRatio(1, num=[F(7, 2)], den=[F(1, 3)]),
              GammaRatio(F(15, 8), num=[F(1, 2)], den=[F(1, 3)]))]
    for r1, r2 in pairs:
        assert r1 == r2
        assert hash(r1) == hash(r2)
    assert GammaRatio(2, den=[F(7, 2)]) != GammaRatio(2, den=[F(3, 2)])
