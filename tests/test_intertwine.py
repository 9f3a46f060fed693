"""Forward map, inverses, fractional integrals, and the adjoint map."""
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projdunkl import (
    GPoly,
    MPoly,
    RationalVector,
    apply_T_poly,
    apply_T_poly_decomposed,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    chi_inverse_numeric,
    chi_inverse_one_var,
    chi_numeric,
    chi_one_var,
    chi_one_var_numeric,
    chi_poly_scaled,
    classical_dunkl,
    divided_difference,
    dual_chi,
    duality_pairing,
    ek_left_inverse_D,
    erdelyi_kober_I,
    erdelyi_kober_I_numeric,
    h_map,
    laplacian_direct,
    rho_poly,
)
from projdunkl.functions import get_function
from projdunkl.gammaratio import GammaRatio
from projdunkl.kummer import bold_M_derivative


def rv(*coords):
    return RationalVector([F(c) for c in coords])


def P(text, nvars=None):
    return MPoly.from_text(text, nvars)


# ---- deformation map ----

def test_h_map_exact_single_root():
    # alpha = e1 - e2, t = 1/2: the alpha component of (3, 1) is halved
    sub = build_subsystem_A(2, [F(1, 2)])
    out = h_map(sub, [F(1, 2)], rv(3, 1))
    assert out == rv(F(5, 2), F(3, 2))
    # t = 1 is the identity, t = 0 lands on the wall
    assert h_map(sub, [1], rv(3, 1)) == rv(3, 1)
    assert h_map(sub, [0], rv(3, 1)) == rv(2, 2)


def test_h_map_float_path_matches_exact():
    sub = build_subsystem_A(4, [F(1, 2), F(2)])
    x = rv(1, -2, F(1, 3), 5)
    exact = h_map(sub, [F(1, 4), F(2, 3)], x)
    approx = h_map(sub, [0.25, 2.0 / 3.0], [1.0, -2.0, 1.0 / 3.0, 5.0])
    assert np.allclose(approx, [float(c) for c in exact], rtol=1e-15, atol=0)


def test_h_map_wrong_t_length():
    sub = build_subsystem_A(2, [F(1, 2)])
    with pytest.raises(ValueError):
        h_map(sub, [F(1, 2), F(1, 2)], rv(1, 0))


# ---- exact polynomial forward map ----

def test_chi_one_var_monomials():
    # x^m picks up m! / Gamma(kappa + m + 1)
    g = chi_one_var(P("x1^2"), 1)
    assert g == GPoly(1, {(2,): GammaRatio(2, den=[4])})
    # kappa = 1 makes every factor rational: 2/Gamma(4) = 1/3
    assert g.terms[(2,)].to_float() == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_chi_poly_scaled_coordinate_square():
    # single coordinate root, kappa = 1: scaled image of x1^2 is
    # 2!/(kappa+1)_2 * x1^2 = 1/3 x1^2, scale 1/Gamma(2) = 1
    sub = build_subsystem_coordinate(1, [F(1)])
    img, scale = chi_poly_scaled(sub, P("x1^2"))
    assert img == P("1/3*x1^2")
    assert scale.to_float() == pytest.approx(1.0)


def test_chi_poly_scaled_skips_zero_kappa():
    sub = build_subsystem_coordinate(2, [F(0), F(1)])
    img, scale = chi_poly_scaled(sub, P("x1^2*x2", 2))
    # x1 untouched, x2 -> 1/2 x2
    assert img == P("1/2*x1^2*x2", 2)
    assert scale.is_one()


def test_chi_poly_scaled_dimension_mismatch():
    sub = build_subsystem_coordinate(2, [F(1), F(1)])
    with pytest.raises(ValueError):
        chi_poly_scaled(sub, P("x1^2"))


def test_chi_poly_scaled_matches_tensor_quadrature():
    # the exact per-root algebra against the straightforward tensor integral
    sub = build_subsystem_A(2, [F(3, 2)])
    p = P("x1^3 + 2*x1*x2^2 - x2", 2)
    img, scale = chi_poly_scaled(sub, p)
    x = [0.7, -0.4]
    from projdunkl.polycore import poly_eval
    want = chi_numeric(sub, lambda pt: poly_eval(p, pt), x)
    # chi = scale * img where scale = 1/prod Gamma(kappa_j + 1)
    got = float(poly_eval(img, x)) * scale.to_float()
    assert got == pytest.approx(want, rel=1e-12)


# Frozen exact outputs: (term count, sha256 of to_text()) of chi_poly_scaled
# and of T_xi applied to that image, and on the input itself of the
# decomposed T_xi, the classical Dunkl operator over the same roots, the
# divided difference along the last root and, for the coordinate layout, both
# Laplacian assemblies. Non-dyadic multiplicities; the input has terms off
# every root's support, a constant among them.
FROZEN_POLY = ("3/2*x1^3*x2^2*x5 - 2/5*x2*x3^2*x4 + 7*x3^4*x6^3 + 4/3*x1*x6^2"
               " - 1/7*x4^2*x5 + x5^3 - 5")
FROZEN_XI = (1, F(-2, 3), F(1, 2), 0, F(3, 5), -1)
FROZEN = {
    "A": (build_subsystem_A(6, [F(3, 7), F(5, 4), F(2, 9)]), {
        "chi": (57, "3ac65a280de8b174b56a23b6975187d1272fbde3c2727f78cda5f99b7dd8580b"),
        "T_of_chi": (67, "1f29be03ac92dbb4a9daef9d281715b2f28dccba4239d816b5ca819441f72f59"),
        "T_decomposed": (25, "9faf29f9e6a786cb7946214bd742995a5faf1ec4e2becd2ab3f9b4c6d0b63864"),
        "classical_dunkl": (20, "8c92b4b120f79ce6e6bc58c335450c339f046eae8ecfdf932edb9ab4fdae1c2e"),
        "divided_difference": (10, "b46ea98adb5baf2d4b17b557267bdf3a86410d35a52d02b73cc21b1dd5443839"),
    }),
    "B": (build_subsystem_B(6, [F(3, 7), F(5, 4), F(1, 3)],
                            [F(2, 5), F(7, 3), F(5, 6)]), {
        "chi": (57, "ee32bca738a7a175ff6a5313f4e006bcff8d353e834ee7c2d9039acef6d6e743"),
        "T_of_chi": (67, "ab8ea703375c014dc5d13c3a75c7ff79f2711f95d52dbee785539b129d176549"),
        "T_decomposed": (25, "d2fd142eabec5ef88026faa70a73afe8a2df2472d7fc74c6c5fd81c1bdaf9638"),
        "classical_dunkl": (20, "905c10b417b32895d5306387747e582ce23ebca1b907ffc1b9014f34f34d49eb"),
        "divided_difference": (10, "44fa042348335c66de853dd0986ded616e0b8fee4a51c5fbc8347d4959be5e80"),
    }),
    "coordinate": (build_subsystem_coordinate(
                       6, [F(3, 7), F(5, 4), F(2, 9), F(1, 3), F(7, 3), F(5, 6)]), {
        "chi": (7, "a143a9395eb381c6dddb239da79a15f36514f35b6c93c1beef250001ac2cad9d"),
        "T_of_chi": (11, "1008bd01c952212b3cc5bf953b2d6886c89c5c808427e852c24debaadea72262"),
        "T_decomposed": (11, "a149f02565046b2f9f6b8a5e7dc3a9dc64ccefc7f512e55b525c2d40e16f6e33"),
        "classical_dunkl": (11, "2df60fd55b8231e0db09eae1b373b540b7861f5103efef69aedbfe7009539165"),
        "divided_difference": (2, "5464df3a8f4ee2033d59200b5310e8c4fa68cf05e6b433161eddd69565f28048"),
        "laplacian_sum_sq": (7, "27f00a6cea53408b1a5aaf09a516070ef50ea5cfd914750750429afca509e862"),
        "laplacian_expanded": (7, "27f00a6cea53408b1a5aaf09a516070ef50ea5cfd914750750429afca509e862"),
    }),
}


@pytest.mark.parametrize("layout", sorted(FROZEN))
def test_exact_layer_frozen_outputs(layout):
    sub, want = FROZEN[layout]
    p = P(FROZEN_POLY, 6)
    xi = rv(*FROZEN_XI)
    img, _ = chi_poly_scaled(sub, p)
    got = {
        "chi": img,
        "T_of_chi": apply_T_poly(sub, xi, img),
        "T_decomposed": apply_T_poly_decomposed(sub, xi, p),
        "classical_dunkl": classical_dunkl(p, sub.roots, sub.kappas, xi),
        "divided_difference": divided_difference(p, sub.roots[-1]),
    }
    if layout == "coordinate":
        lap = laplacian_direct(p, sub.kappas)
        got["laplacian_sum_sq"], got["laplacian_expanded"] = lap.sum_sq, lap.expanded
    assert got.keys() == want.keys()
    for name, q in got.items():
        text = q.to_text()
        assert (len(q.terms), hashlib.sha256(text.encode()).hexdigest()) == want[name], name


def test_block_caches_stay_bounded():
    # fresh multiplicities and roots add entries; the caches evict instead of
    # growing without limit
    from projdunkl.intertwine import _chi_block
    from projdunkl.opengine import _rho_block
    for cache, fill in ((_chi_block, lambda j: chi_poly_scaled(
                             build_subsystem_coordinate(1, [F(j, 7919)]), P("x1^2", 1))),
                        (_rho_block, lambda j: rho_poly(P("x1^2", 1), rv(F(j, 7919))))):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        misses = cache.cache_info().misses
        for j in range(1, maxsize + 100):
            fill(j)
        info = cache.cache_info()
        assert info.misses - misses >= maxsize + 99
        assert info.currsize <= maxsize


def test_rho_poly_of_block_invariant_is_zero():
    alpha = rv(1, -1, 0, 0, 0, 0)
    # no variable of the support, and a tau-invariant block (x1 + x2)^2
    assert rho_poly(P("x3^2*x5 - 4", 6), alpha).is_zero()
    assert rho_poly((P("x1", 6) + P("x2", 6)) ** 2 * P("x4", 6), alpha).is_zero()


# ---- GPoly container ----

def test_gpoly_text_and_equality():
    g = GPoly(1, {(2,): GammaRatio(2, den=[F(7, 2)])})
    assert g.to_text() == "[2/G(7/2)]*x1^2"
    assert g == GPoly(1, {(2,): GammaRatio(2, den=[F(7, 2)])})
    assert g != GPoly(1, {(2,): GammaRatio(3, den=[F(7, 2)])})
    # rational-only coefficients compare equal to the plain polynomial
    assert GPoly.from_mpoly(P("1/3*x1^2")) == P("1/3*x1^2")


def test_gpoly_addition_merges_like_structures():
    a = GPoly(1, {(1,): GammaRatio(1, den=[F(5, 2)])})
    b = GPoly(1, {(1,): GammaRatio(2, den=[F(5, 2)])})
    assert (a + b) == GPoly(1, {(1,): GammaRatio(3, den=[F(5, 2)])})
    c = GPoly(1, {(1,): GammaRatio(1, den=[F(1, 3)])})
    with pytest.raises(ValueError):
        a + c


def test_gpoly_eval_float():
    g = chi_one_var(P("x1^3"), F(1, 2))
    want = math.factorial(3) / math.gamma(0.5 + 3 + 1) * 0.5 ** 3
    assert g.eval_float([0.5]) == pytest.approx(want, rel=1e-15)


# ---- fractional integrals, exact diagonal action ----

def test_erdelyi_kober_monomial_factor():
    g = erdelyi_kober_I(P("x1^2"), F(1, 2), F(1, 2))
    assert g == GPoly(1, {(2,): GammaRatio(1, num=[F(7, 2)], den=[4])})


def test_erdelyi_kober_validation():
    with pytest.raises(ValueError):
        erdelyi_kober_I(P("x1"), 0, F(-1, 2))
    with pytest.raises(ValueError):
        erdelyi_kober_I(P("1"), -2, F(1, 2))  # gamma + 0 + 1 <= 0


@pytest.mark.parametrize("gamma", [F(0), F(1, 2), F(1)])
@pytest.mark.parametrize("delta", [F(1, 2), F(1), F(3, 2)])
def test_ek_left_inverse_roundtrip(gamma, delta):
    p = P("x1^4 - 3*x1^2 + 1/2*x1 + 2")
    forward = erdelyi_kober_I(p, gamma, delta)
    back = ek_left_inverse_D(forward, gamma, delta)
    assert back == p


@pytest.mark.parametrize("kappa", [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)])
@pytest.mark.parametrize("m", range(7))
def test_chi_inverse_one_var_exact_roundtrip(kappa, m):
    p = MPoly.monomial((m,), F(1))
    back = chi_inverse_one_var(chi_one_var(p, kappa), kappa)
    assert back == p


def test_chi_inverse_one_var_kappa_zero_is_identity():
    p = P("x1^3 - x1")
    assert chi_inverse_one_var(p, 0) == p


@given(st.integers(0, 8), st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]))
@settings(max_examples=40, deadline=None)
def test_chi_roundtrip_property(m, kappa):
    p = MPoly.monomial((m,), F(3))
    assert chi_inverse_one_var(chi_one_var(p, kappa), kappa) == p


# ---- numeric layer ----

def test_erdelyi_kober_numeric_matches_exact():
    gamma, delta = 0.5, 1.5
    x = 0.8
    got = erdelyi_kober_I_numeric(gamma, delta, lambda t: t ** 3, x)
    want = math.gamma(gamma + 3 + 1) / math.gamma(gamma + 3 + delta + 1) * x ** 3
    assert got == pytest.approx(want, rel=1e-13)
    # delta = 0 short-circuits to the identity
    assert erdelyi_kober_I_numeric(0.5, 0.0, lambda t: t ** 2, x) == x ** 2


def test_chi_one_var_numeric_matches_exact():
    kappa = 0.75
    for m in (0, 1, 2, 5):
        for x in (0.3, -1.2):
            got = chi_one_var_numeric(kappa, lambda t, m=m: t ** m, x)
            want = math.factorial(m) / math.gamma(kappa + m + 1) * x ** m
            assert got == pytest.approx(want, rel=1e-13)


def test_chi_numeric_matches_exact_polynomial_layer():
    sub = build_subsystem_coordinate(2, [F(1, 2), F(3, 2)])
    p = P("x1^2*x2 + x2^2", 2)
    img, scale = chi_poly_scaled(sub, p)
    from projdunkl.polycore import poly_eval
    x = [1.1, -0.6]
    got = chi_numeric(sub, lambda pt: poly_eval(p, pt), x)
    want = float(poly_eval(img, x)) * scale.to_float()
    assert got == pytest.approx(want, rel=1e-11)


def test_chi_numeric_rejects_zero_kappa():
    sub = build_subsystem_coordinate(1, [F(0)])
    with pytest.raises(ValueError):
        chi_numeric(sub, lambda pt: 1.0, [0.5])


def test_chi_inverse_numeric_polynomial_jet():
    # inverse of the forward image of x^2 at kappa = 1/2 recovers x^2
    kappa = 0.5
    c = math.factorial(2) / math.gamma(kappa + 3)

    def f(t):
        return c * t * t

    def fp(t):
        return 2 * c * t

    for x in (0.4, -1.3, 2.0):
        got = chi_inverse_numeric(kappa, [f, fp], x)
        assert got == pytest.approx(x * x, rel=1e-12)


def test_chi_inverse_numeric_exponential_jet():
    # forward map of exp is the kernel series; its jet inverts back to exp
    kappa = 1.5
    derivs = [lambda t, n=n: bold_M_derivative(kappa, t, n).real for n in range(3)]
    for x in (0.5, 1.0, -0.8):
        got = chi_inverse_numeric(kappa, derivs, x)
        assert got == pytest.approx(math.exp(x), rel=1e-8)


def test_chi_inverse_numeric_validation():
    assert chi_inverse_numeric(0.0, [math.exp], 0.3) == math.exp(0.3)
    with pytest.raises(ValueError):
        chi_inverse_numeric(-0.5, [math.exp], 0.3)
    with pytest.raises(ValueError):
        chi_inverse_numeric(1.5, [math.exp], 0.3)  # jet too short


def test_chi_inverse_numeric_integer_kappa():
    # kappa = n skips the fractional stage and runs Euler factors alone
    got = chi_inverse_numeric(1.0, [math.exp, math.exp], 0.7)
    want = math.exp(0.7) + 0.7 * math.exp(0.7)
    assert got == pytest.approx(want, rel=1e-14)


# ---- adjoint map ----

def test_dual_chi_frozen_value():
    # smooth plateau supported on [1, 3], kappa = 1, evaluated at x = 2;
    # reference from 50-digit adaptive integration
    g = get_function("ind13")
    got = dual_chi(1.0, g, 2.0, support_bound=3.0)
    assert got == pytest.approx(0.3180083644326823, abs=5e-13)


def test_dual_chi_polynomial_cross_check():
    # g(t) = t^3 on [0, A]: the integral is elementary
    # (1/G(k)) int_x^A (t-x)^(k-1) t^(3-k) dt with k = 1 gives (A^3-x^3)/3... use k=1
    A, x = 2.0, 0.5

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0) & (t <= A), t, 0.0) ** 3

    got = dual_chi(1.0, g, x, support_bound=A)
    assert got == pytest.approx((A ** 3 - x ** 3) / 3.0, rel=1e-12)


def test_dual_chi_outside_support_and_validation():
    g = get_function("bump")
    assert dual_chi(0.5, g, 1.0) == 0.0
    assert dual_chi(0.5, g, -3.2) == 0.0
    with pytest.raises(ValueError):
        dual_chi(0.5, g, 0.0)
    with pytest.raises(ValueError):
        dual_chi(0.0, g, 0.5)
    with pytest.raises(ValueError):
        dual_chi(0.5, lambda t: t, 0.5)  # no support bound anywhere


def test_dual_chi_negative_side_symmetry():
    # even g makes the adjoint map even
    g = get_function("bump")
    assert dual_chi(0.5, g, -0.4) == pytest.approx(dual_chi(0.5, g, 0.4), rel=1e-13)


def test_duality_pairing_frozen_value():
    # f = x^2, g = smooth bump on [-1, 1], kappa = 1/2; both sides agree with
    # the 50-digit reference
    g = get_function("bump")
    lhs, rhs = duality_pairing(0.5, lambda t: t * t, g, 1.0)
    assert lhs == pytest.approx(0.114840352575153, abs=1e-12)
    assert rhs == pytest.approx(0.114840352575153, abs=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_duality_pairing_plateau():
    # kappa = 1, f = x, g = the [1, 3] plateau: adjoint side must match
    g = get_function("ind13")
    lhs, rhs = duality_pairing(1.0, lambda t: t, g, 3.0)
    assert lhs == pytest.approx(rhs, rel=1e-11)
