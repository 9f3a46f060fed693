"""Sparse exact polynomials and the projection difference quotients."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from projdunkl import (
    LinearMap,
    MPoly,
    RationalVector,
    classical_dunkl,
    compose_linear,
    directional_derivative,
    divided_difference,
    exact_div_linear,
    partial_derivative,
    poly_eval,
    reflection_difference,
)
from projdunkl.polycore import exact_div_var_power, substitute_zero


def rv(*coords):
    return RationalVector([F(c) for c in coords])


def P(text, nvars=None):
    return MPoly.from_text(text, nvars)


def test_text_roundtrip_and_grlex_order():
    p = P("2*x1^2*x2 - x2^3 + 1/3*x1 - 4")
    assert P(p.to_text(), p.nvars) == p
    # graded lex: total degree first, then lexicographic on exponents
    assert p.to_text() == "2*x1^2*x2 - x2^3 + 1/3*x1 - 4"


def test_parser_rejects_garbage():
    for bad in ("x0", "2**x1", "x1^-2", "1/0*x1", "x1 +", ""):
        with pytest.raises(ValueError):
            P(bad)


def test_parser_infers_nvars():
    assert P("x3").nvars == 3
    assert P("x1 + x2^2").nvars == 2
    assert P("5").nvars == 1


def test_constructors():
    assert MPoly.zero(2).is_zero()
    assert MPoly.constant(2, F(1, 2)).to_text() == "1/2"
    assert MPoly.variable(1, 3).to_text() == "x2"
    assert MPoly.monomial((1, 2), F(3)).to_text() == "3*x1*x2^2"


def test_arithmetic_collects_and_drops_zeros():
    p = P("x1^2 + x2", 2)
    q = P("x1^2 - x2", 2)
    assert (p - q).to_text() == "2*x2"
    assert (p + q).to_text() == "2*x1^2"
    assert (p * q).to_text() == "x1^4 - x2^2"
    assert (p - p).is_zero()


def test_pow():
    p = P("x1 + 1", 1)
    assert p ** 3 == P("x1^3 + 3*x1^2 + 3*x1 + 1", 1)
    assert (p ** 0).to_text() == "1"
    with pytest.raises(ValueError):
        p ** -1


def test_poly_eval_exact_and_float():
    p = P("x1^2*x2 - 1/2", 2)
    assert poly_eval(p, [F(2), F(3)]) == F(23, 2)
    assert poly_eval(p, [2.0, 3.0]) == pytest.approx(11.5)


def test_directional_and_partial_derivative():
    p = P("x1^2*x2", 2)
    assert partial_derivative(p, 0) == P("2*x1*x2", 2)
    assert partial_derivative(p, 1) == P("x1^2", 2)
    assert directional_derivative(p, rv(1, -2)) == P("2*x1*x2 - 2*x1^2", 2)


def test_compose_linear_with_reflection():
    alpha = rv(1, -1)
    tau = LinearMap.reflection_map(alpha)
    p = P("x1^2 + 3*x2", 2)
    # tau swaps the coordinates for alpha = e1 - e2
    assert compose_linear(p, tau) == P("x2^2 + 3*x1", 2)


def test_exact_div_linear():
    alpha = rv(1, -1, 0)
    p = P("x1^2 - x2^2", 3)  # (x1 - x2)(x1 + x2), and <x, alpha> = x1 - x2
    assert exact_div_linear(p, alpha) == P("x1 + x2", 3)


def test_exact_div_linear_rejects_remainder():
    with pytest.raises(ValueError):
        exact_div_linear(P("x1^2 + x2", 2), rv(1, -1))


def test_substitute_zero_and_var_power_division():
    p = P("x1^2*x2 + x2^3 + 4", 2)
    assert substitute_zero(p, 0) == P("x2^3 + 4", 2)
    assert exact_div_var_power(P("x1^2*x2 + x1^3", 2), 0, 2) == P("x2 + x1", 2)
    with pytest.raises(ValueError):
        exact_div_var_power(p, 0, 1)


def test_divided_difference_example():
    # wall projection tau halves the alpha component, so for alpha = e1 - e2:
    # tau(x1^2) = ((x1+x2)/2)^2 and (x1^2 - tau(x1^2))/<x,alpha> = 3/4*x1 + 1/4*x2
    alpha = rv(1, -1)
    assert divided_difference(P("x1^2", 2), alpha) == P("3/4*x1 + 1/4*x2", 2)
    # wall-invariant polynomials are annihilated
    assert divided_difference(P("x1 + x2", 2), alpha).is_zero()
    assert divided_difference(P("7", 2), alpha).is_zero()


def test_reflection_difference_example():
    # alpha = e1 - e2 swaps coordinates; (x1^3 - x2^3)/(x1 - x2)
    alpha = rv(1, -1)
    p = P("x1^3", 2)
    assert reflection_difference(p, alpha) == P("x1^2 + x1*x2 + x2^2", 2)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def random_poly(draw, nvars, max_deg=4, max_terms=5):
    terms = draw(st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=max_deg), min_size=nvars, max_size=nvars),
            coeffs),
        min_size=1, max_size=max_terms))
    p = MPoly.zero(nvars)
    for exps, c in terms:
        p = p + MPoly.monomial(tuple(exps), c)
    return p


@st.composite
def polys(draw, nvars=2):
    return random_poly(draw, nvars)


@given(polys())
@settings(max_examples=60)
def test_divided_difference_multiplies_back(p):
    # the quotient is exact: rho * <x, alpha> == p - p o tau
    alpha = rv(1, -1)
    rho = divided_difference(p, alpha)
    lin = P("x1 - x2", 2)
    tau = LinearMap.projection_map(alpha)
    assert rho * lin == p - compose_linear(p, tau)


@given(polys())
@settings(max_examples=60)
def test_reflection_difference_multiplies_back(p):
    alpha = rv(1, -1)
    s = LinearMap.reflection_map(alpha)
    lin = P("x1 - x2", 2)
    assert reflection_difference(p, alpha) * lin == p - compose_linear(p, s)


def test_classical_dunkl_rank_one():
    # full A1 operator on x^2 in 1 variable: d/dx + kappa (f - f(-x))/x
    p = P("x1^2", 1)
    out = classical_dunkl(p, [rv(2)], [F(1, 2)], rv(1))
    assert out == P("2*x1", 1)  # even part drops out of the difference term


def test_classical_dunkl_known_value():
    # odd monomial picks up the multiplicity: T x^3 = 3 x^2 + kappa * 2 x^2
    p = P("x1^3", 1)
    out = classical_dunkl(p, [rv(1)], [F(3, 2)], rv(1))
    assert out == P("6*x1^2", 1)
