"""Sparse exact polynomials and the difference quotient along a root.

The difference term of T is a moment sequence on a segment expansion (as is
chi's per-root factor); it is checked here against its definition at
rational points, p(x) - p(tau x) over <x, alpha>. The text form is held to
frozen tables of accepted and rejected inputs, recorded before its parser
and printer were last rewritten.
"""
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from projdunkl import (
    MPoly,
    RationalVector,
    directional_derivative,
    partial_derivative,
    project,
    rho_poly,
)
from projdunkl.polycore import (
    _monomial_text,
    _segment_expansion,
    exact_div_var_power,
    poly_eval,
    substitute_zero,
)


def rv(*coords):
    return RationalVector([F(c) for c in coords])


def P(text, nvars=None):
    return MPoly.from_text(text, nvars)


def test_text_roundtrip_and_grlex_order():
    p = P("2*x1^2*x2 - x2^3 + 1/3*x1 - 4")
    assert P(p.to_text(), p.nvars) == p
    # graded lex: total degree first, then lexicographic on exponents
    assert p.to_text() == "2*x1^2*x2 - x2^3 + 1/3*x1 - 4"


# Accepted inputs that are not canonical, with their canonical text: factors
# may be juxtaposed or repeated, in any order, with blanks around '*' and '^'.
NON_CANONICAL = [
    ("2x1", "2*x1"),
    ("x1*2", "2*x1"),
    ("x1 ^ 2", "x1^2"),
    ("x2*x1*x2", "x1*x2^2"),
    ("- 3", "-3"),
    ("+ 3/2*x1^2*x3", "3/2*x1^2*x3"),
    ("3*2*x1", "6*x1"),
    ("3 2", "6"),
    ("x1x2", "x1*x2"),
    ("x1 2 x2", "2*x1*x2"),
    ("x1^2x2", "x1^2*x2"),
    ("x1^ 2 * x2 ^3", "x1^2*x2^3"),
    ("x1^02", "x1^2"),
    ("x01", "x1"),
    ("7/14*x1", "1/2*x1"),
    ("x1^0*x2^0", "1"),
    ("2/4*x1^2 + 1/2*x1^2", "x1^2"),
    ("x1 - x1", "0"),
    ("0*x1", "0"),
    ("x1\t+\nx2", "x1 + x2"),
    ("-x2 + x1", "x1 - x2"),
    ("1 + x1 + x1^2", "x1^2 + x1 + 1"),
]


def test_parser_canonicalizes_accepted_input():
    for text, canonical in NON_CANONICAL:
        p = P(text)
        assert p.to_text() == canonical, text
        assert P(canonical, p.nvars) == p


# Rejected inputs with their exact messages; positions count from 0.
REJECTED = [
    ("x0", "variable indices start at x1, got 'x0'"),
    ("x00", "variable indices start at x1, got 'x00'"),
    ("2**x1", "parse error at position 1: factor expected after '*'"),
    ("x1*", "parse error at position 2: factor expected after '*'"),
    ("x1*+x2", "parse error at position 2: factor expected after '*'"),
    ("*x1", "parse error at position 0: '*' with no left factor"),
    ("x1^-2", "parse error at position 0: integer exponent expected after ^"),
    ("x1^2/3", "parse error at position 0: integer exponent expected after ^"),
    ("x1^", "parse error at position 0: integer exponent expected after ^"),
    ("x1^x2", "parse error at position 0: integer exponent expected after ^"),
    ("2^3", "parse error at position 1: unexpected '^'"),
    ("1/0*x1", "zero denominator at position 0"),
    ("x1 +", "dangling sign with no term"),
    ("x1 (", "parse error at position 3: unexpected '('"),
    ("(x1)", "parse error at position 0: unexpected '('"),
    ("--x1", "parse error at position 1: consecutive signs"),
    ("x1 - - x2", "parse error at position 5: consecutive signs"),
    ("x", "parse error at position 0: 'x'"),
    ("y1", "parse error at position 0: 'y1'"),
    ("1 / 2", "parse error at position 2: '/ 2'"),
    ("x1^2/", "parse error at position 4: '/'"),
    ("", "empty polynomial text"),
    ("   ", "empty polynomial text"),
]


def test_parser_rejects_garbage():
    for bad, message in REJECTED:
        with pytest.raises(ValueError) as err:
            P(bad)
        assert str(err.value) == message, bad
    # a declared count is checked before the grammar
    with pytest.raises(ValueError, match="^variable x3 exceeds declared count 2$"):
        P("x3 + (", 2)


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
    assert rho_poly(P("x1^2", 2), alpha) == P("3/4*x1 + 1/4*x2", 2)
    # wall-invariant polynomials are annihilated
    assert rho_poly(P("x1 + x2", 2), alpha).is_zero()
    assert rho_poly(P("7", 2), alpha).is_zero()


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


# A-type and non-A roots, a coordinate root among them
roots = st.sampled_from([rv(1, -1), rv(1, 2), rv(3, F(-1, 2)), rv(0, 1)])
points = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                  min_size=2, max_size=2).map(RationalVector)


@given(polys(), roots, points)
@settings(max_examples=60)
def test_divided_difference_multiplies_back(p, alpha, x):
    # the quotient is exact: rho(x) * <x, alpha> == p(x) - p(tau x)
    want = poly_eval(p, x.coords) - poly_eval(p, project(x, alpha).coords)
    assert poly_eval(rho_poly(p, alpha), x.coords) * x.dot(alpha) == want


@given(st.lists(st.integers(0, 4), min_size=2, max_size=2), roots, points,
       st.fractions(min_value=-2, max_value=3, max_denominator=5), st.integers(0, 1))
@settings(max_examples=60)
def test_segment_expansion_is_the_monomial_on_the_segment(exps, alpha, x, u, order):
    # the expansion at (x, u) is d_alpha^order x^exps at
    # x - u <x, alpha> / |alpha|^2 alpha, on the support block of alpha
    y = x - alpha.scale(u * x.dot(alpha) / alpha.norm_sq())
    support = [i for i in range(2) if alpha[i]]
    block = tuple(exps[i] for i in support)
    alpha_block = RationalVector([alpha[i] for i in support])
    want = MPoly.monomial(block)
    for _ in range(order):
        want = directional_derivative(want, alpha_block)
    got = poly_eval(_segment_expansion(alpha_block.coords, block, order),
                    [x[i] for i in support] + [u])
    assert got == poly_eval(want, [y[i] for i in support])


def test_difference_block_miss_builds_one_expansion():
    # a cold rho block is one expansion, of d_alpha x^e
    from projdunkl.opengine import _rho_block
    alpha = (1, F(2, 7901), -3)  # a root no other test uses
    for exps in ((3, 2, 1), (1, 2, 4)):
        misses = _segment_expansion.cache_info().misses
        block_misses = _rho_block.cache_info().misses
        _rho_block(alpha, exps)
        assert _rho_block.cache_info().misses == block_misses + 1
        assert _segment_expansion.cache_info().misses == misses + 1


# ---- integer numerators over one denominator, against plain Fraction dicts ----

def _ref_clean(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _ref_clean(out)


def _ref_derivative(a, xi):
    out = {}
    for e, c in a.items():
        for i, k in enumerate(e):
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1:]
                out[e2] = out.get(e2, 0) + c * k * xi[i]
    return _ref_clean(out)


def _assert_canonical(p, want):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert dict(p.terms) == want
    assert MPoly.from_text(p.to_text(), p.nvars) == p


NV = 3
wide_coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
term_dicts = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * NV), wide_coeffs, max_size=5)
vectors = st.lists(small_coeffs, min_size=NV, max_size=NV)


@given(term_dicts, term_dicts, wide_coeffs, vectors, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_integer_layer_matches_fraction_reference(da, db, q, xi, k):
    a, b = _ref_clean(da), _ref_clean(db)
    pa, pb = MPoly(NV, da), MPoly(NV, db)
    _assert_canonical(pa, a)
    _assert_canonical(pa + pb, _ref_add(a, b))
    _assert_canonical(pa - pb, _ref_add(a, b, -1))
    _assert_canonical(-pa, _ref_add({}, a, -1))
    _assert_canonical(pa * pb, _ref_mul(a, b))
    _assert_canonical(pa * q, _ref_clean({e: c * q for e, c in a.items()}))
    _assert_canonical(q * pa, _ref_clean({e: c * q for e, c in a.items()}))
    power = {(0,) * NV: F(1)}
    for _ in range(k):
        power = _ref_mul(power, a)
    _assert_canonical(pa ** k, power)
    _assert_canonical(directional_derivative(pa, RationalVector(xi)), _ref_derivative(a, xi))


big_coeffs = st.builds(F, st.integers(-10**60, 10**60), st.integers(1, 10**40))


@given(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=4)] * NV),
                       big_coeffs, max_size=6))
@settings(max_examples=60, deadline=None)
def test_text_roundtrip_with_large_coefficients(d):
    p = MPoly(NV, d)
    _assert_canonical(p, _ref_clean(d))
    # every printed coefficient is a reduced fraction
    for top, bottom in re.findall(r"(\d+)/(\d+)", p.to_text()):
        assert math.gcd(int(top), int(bottom)) == 1


@st.composite
def six_variable_polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=5)] * 6), big_coeffs, max_size=12))
    return MPoly(6, terms)


@given(six_variable_polys())
@settings(max_examples=80, deadline=None)
def test_six_variable_text_roundtrip(p):
    text = p.to_text()
    assert MPoly.from_text(text, 6) == p
    assert MPoly.from_text(text, 6).to_text() == text
    if p.is_zero():
        assert text == "0"
        return
    # terms come out highest total degree first, then by exponents descending
    printed = []
    for piece in re.split(r" [-+] ", text):
        e = [0] * 6
        for i, k in re.findall(r"x(\d+)(?:\^(\d+))?", piece):
            e[int(i) - 1] += int(k or 1)
        printed.append(tuple(e))
    assert printed == sorted(p.num, key=lambda e: (-sum(e), [-k for k in e]))


def test_monomial_table_is_bounded_and_evicts_cleanly():
    p = P("3*x1^2*x2*x6^12 - 1/7*x3^4 + x2*x5 - 2/3", 6)
    text = p.to_text()
    maxsize = _monomial_text.cache_info().maxsize
    assert maxsize is not None
    # more distinct monomials than the table holds push every entry of p out
    for j in range(maxsize + 100):
        _monomial_text((j, 0, 1, 0, 0, 7))
    assert _monomial_text.cache_info().currsize <= maxsize
    assert p.to_text() == text == "3*x1^2*x2*x6^12 - 1/7*x3^4 + x2*x5 - 2/3"


def test_gpoly_text_of_a_one_variable_chi_image():
    # recorded before the printers shared their ordering and monomial table
    from projdunkl.intertwine import chi_one_var
    g = chi_one_var(P("3*x1^4 - 1/2*x1^2 + 5/3*x1 - 7", 1), F(1, 3))
    assert g.to_text() == ("[729/455/G(4/3)]*x1^4 + [-9/28/G(4/3)]*x1^2"
                           " + [5/4/G(4/3)]*x1 + [-7/G(4/3)]")
    assert chi_one_var(P("0", 1), F(1, 3)).to_text() == "0"
