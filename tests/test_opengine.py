"""Operator core: exact application, decomposition, commutators, Laplacian."""
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projdunkl import (
    MPoly,
    RationalVector,
    apply_T_numeric,
    apply_T_poly,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    commutator_poly,
    directional_derivative,
    laplacian_expanded,
    laplacian_sum_sq,
    one_var_T,
    one_var_T_squared,
    rho_poly,
)
from projdunkl.functions import from_poly, get_function


def rv(*coords):
    return RationalVector([F(c) for c in coords])


def P(text, nvars=None):
    return MPoly.from_text(text, nvars)


def test_rho_is_projection_quotient():
    sub = build_subsystem_coordinate(2, [F(1, 2), F(0)])
    assert rho_poly(P("x1^2", 2), sub.roots[0]) == P("x1", 2)
    # invariant directions pass through untouched in the quotient
    assert rho_poly(P("x1*x2^3", 2), sub.roots[0]) == P("x2^3", 2)


def test_apply_T_poly_coordinate():
    sub = build_subsystem_coordinate(1, [F(1, 2)])
    assert apply_T_poly(sub, rv(1), P("x1^2", 1)) == P("5/2*x1", 1)
    assert apply_T_poly(sub, rv(1), P("x1", 1)) == P("3/2", 1)
    assert apply_T_poly(sub, rv(1), P("7", 1)).is_zero()


def test_apply_T_poly_B2_value():
    # T_e1 x1 = 1 + kappa_minus / 2 * |a|^2 ... = 1 + (k1 + k2)/2 on B roots
    sub = build_subsystem_B(2, [F(1, 2)], [F(1)])
    out = apply_T_poly(sub, rv(1, 0), P("x1", 2))
    assert out == P("7/4", 2)


def test_linearity_in_xi():
    sub = build_subsystem_B(2, [F(1, 2)], [F(3, 2)])
    p = P("x1^2*x2 - x2^3", 2)
    a = apply_T_poly(sub, rv(1, 0), p)
    b = apply_T_poly(sub, rv(0, 1), p)
    combo = apply_T_poly(sub, rv(2, -3), p)
    assert combo == a * F(2) - b * F(3)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def polys2(draw, max_deg=4):
    terms = draw(st.lists(
        st.tuples(st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)), coeffs),
        min_size=1, max_size=5))
    p = MPoly.zero(2)
    for exps, c in terms:
        p = p + MPoly.monomial(exps, c)
    return p


def apply_T_poly_decomposed(sub, xi, p):
    """T_xi p from xi = sum_i xi_i alpha_i + xi_hat as sum_i xi_i T_alpha_i + d_xi_hat."""
    coeffs = [xi.dot(a) / a.norm_sq() for a in sub.roots]
    xi_hat = xi
    for c, a in zip(coeffs, sub.roots):
        xi_hat = xi_hat - a.scale(c)
    out = directional_derivative(p, xi_hat)
    for c, alpha, kappa in zip(coeffs, sub.roots, sub.kappas):
        if c:
            t_alpha = directional_derivative(p, alpha)
            if kappa:
                t_alpha = t_alpha + rho_poly(p, alpha) * (kappa * alpha.norm_sq())
            out = out + t_alpha * c
    return out


@given(polys2(), st.lists(coeffs, min_size=2, max_size=2))
@settings(max_examples=50)
def test_decomposed_assembly_agrees(p, xi_coords):
    sub = build_subsystem_B(2, [F(1, 2)], [F(2)])
    xi = RationalVector(xi_coords)
    assert apply_T_poly_decomposed(sub, xi, p) == apply_T_poly(sub, xi, p)


@given(polys2())
@settings(max_examples=40)
def test_commutator_vanishes_B2(p):
    sub = build_subsystem_B(2, [F(1, 2)], [F(1)])
    assert commutator_poly(sub, rv(1, "1/2"), rv(-1, 2), p).is_zero()


def test_commutator_vanishes_A3():
    sub = build_subsystem_A(3, [F(3, 2)])
    p = P("x1^2*x3 - 2*x2*x3 + x1*x2*x3", 3)
    assert commutator_poly(sub, rv(1, 0, -1), rv("1/2", 1, 1), p).is_zero()


def test_commutator_validates_dim():
    sub = build_subsystem_coordinate(2, [F(1), F(1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator_poly(sub, rv(1, 0), rv(1, 0, 0), P("x1", 2))


def test_numeric_matches_poly_path():
    sub = build_subsystem_B(2, [F(1, 2)], [F(1)])
    p = P("x1^3 - x1*x2^2 + 2*x2", 2)
    f = from_poly(p)
    xi = rv(1, -2)
    exact = apply_T_poly(sub, xi, p)
    for x in ([0.7, 0.2], [-1.3, 0.9], [2.0, -0.5]):
        got = apply_T_numeric(sub, xi, f, np.array(x))
        from projdunkl import poly_eval
        assert got == pytest.approx(poly_eval(exact, x), rel=1e-12, abs=1e-12)


def test_numeric_accepts_float_direction():
    sub = build_subsystem_coordinate(2, [F(1, 2), F(1)])
    f = from_poly(P("x1^2 + x2^2", 2))
    a = apply_T_numeric(sub, rv(1, 1), f, np.array([0.4, 0.6]))
    b = apply_T_numeric(sub, np.array([1.0, 1.0]), f, np.array([0.4, 0.6]))
    assert a == pytest.approx(b, rel=1e-15)


def test_numeric_wall_guard_is_continuous():
    # crossing the hyperplane <x, alpha> = 0 must not blow up
    sub = build_subsystem_B(2, [F(1, 2)], [F(1)])
    f = from_poly(P("x1^3 - x1*x2^2 + 2*x2", 2))
    xi = rv(1, 1)
    on_wall = apply_T_numeric(sub, xi, f, np.array([0.8, 0.8]))
    near_wall = apply_T_numeric(sub, xi, f, np.array([0.8 + 1e-12, 0.8 - 1e-12]))
    assert on_wall == pytest.approx(near_wall, rel=1e-6)


def one_var_T_poly(kappa, p):
    """The exact one-variable operator x^n -> (n + kappa) x^(n-1)."""
    return apply_T_poly(build_subsystem_coordinate(1, [kappa]), rv(1), p)


def test_one_var_T_poly_shift():
    assert one_var_T_poly(F(1, 2), P("x1^4", 1)) == P("9/2*x1^3", 1)
    assert one_var_T_poly(F(2), P("x1 + 3", 1)) == P("3", 1)


def test_one_var_T_matches_poly():
    f = from_poly(P("x1^3 + 2*x1", 1))
    shifted = one_var_T_poly(F(3, 2), P("x1^3 + 2*x1", 1))
    from projdunkl import poly_eval
    for x in (0.5, -1.2, 2.0):
        assert one_var_T(1.5, f, x) == pytest.approx(poly_eval(shifted, [x]), rel=1e-13)


def test_one_var_T_origin_limit():
    f = from_poly(P("x1^2 + 4*x1", 1))
    # limit (1 + kappa) f'(0)
    assert one_var_T(0.5, f, 0.0) == pytest.approx(6.0)
    assert one_var_T(0.5, f, 1e-13) == pytest.approx(6.0)


def test_one_var_T_squared_matches_double_application():
    kappa = F(3, 2)
    p = P("x1^4 - 2*x1^2", 1)
    twice = one_var_T_poly(kappa, one_var_T_poly(kappa, p))
    f = from_poly(p)
    from projdunkl import poly_eval
    for x in (0.4, -1.1, 2.3):
        got = one_var_T_squared(1.5, f, x)
        assert got == pytest.approx(poly_eval(twice, [x]), rel=1e-11)


def test_one_var_T_squared_origin_limit():
    p = P("x1^2", 1)
    kappa = F(1, 2)
    twice = one_var_T_poly(kappa, one_var_T_poly(kappa, p))
    from projdunkl import poly_eval
    want = poly_eval(twice, [0.0])
    f = from_poly(p)
    assert one_var_T_squared(0.5, f, 0.0) == pytest.approx(want)


def test_one_var_T_squared_needs_second_derivative():
    ind = get_function("indicator")
    with pytest.raises(ValueError, match="second derivative"):
        one_var_T_squared(0.5, ind, 0.5)


def test_laplacian_split_agreement():
    p = P("x1^4*x2 - 3*x1^2*x2^3 + x2^5 + x1*x2", 2)
    assert laplacian_sum_sq(p, [F(1, 2), F(2)]) == laplacian_expanded(p, [F(1, 2), F(2)])
    # and the zero-multiplicity case is the plain Laplacian
    from projdunkl import partial_derivative
    lap = MPoly.zero(2)
    for j in range(2):
        lap = lap + partial_derivative(partial_derivative(p, j), j)
    assert laplacian_sum_sq(p, [F(0), F(0)]) == lap
    assert laplacian_expanded(p, [F(0), F(0)]) == lap


def test_laplacian_fault_hook_breaks_match():
    # the laplacian suite's fault: a shifted multiplicity on the expansion side only
    p = P("x1^3*x2 + x2^4", 2)
    assert laplacian_sum_sq(p, [F(1, 2), F(1)]) != laplacian_expanded(p, [F(3, 5), F(1)])


def test_laplacian_needs_one_multiplicity_per_coordinate():
    p = P("x1^3*x2 + x2^4", 2)
    for assemble in (laplacian_sum_sq, laplacian_expanded):
        with pytest.raises(ValueError, match="one multiplicity per coordinate"):
            assemble(p, [F(1, 2)])
