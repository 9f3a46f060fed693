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
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    chi_inverse_numeric,
    chi_inverse_one_var,
    chi_numeric,
    chi_one_var,
    chi_poly_scaled,
    dual_chi,
    ek_left_inverse_D,
    erdelyi_kober_I,
    erdelyi_kober_I_numeric,
    h_map,
    laplacian_expanded,
    laplacian_sum_sq,
    rho_poly,
)
from projdunkl import intertwine, quadrature
from projdunkl.functions import get_function
from projdunkl.gammaratio import GammaRatio
from projdunkl.kummer import _bold_M_reference, bold_M_jet


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


def test_h_map_rejects_point_of_wrong_length():
    sub = build_subsystem_A(2, [F(1, 2)])
    for x in ([1.0], [1.0, 0.5, 2.0]):
        with pytest.raises(ValueError, match=r"point must have shape \(2,\)"):
            h_map(sub, [0.5], x)


# ---- exact polynomial forward map ----

def test_chi_one_var_monomials():
    # x^m picks up m! / Gamma(kappa + m + 1)
    g = chi_one_var(P("x1^2"), 1)
    assert g == GPoly(P("x1^2"), GammaRatio(2, den=[4]))
    # kappa = 1 makes every factor rational: 2/Gamma(4) = 1/3
    assert g.eval_float([1.0]) == pytest.approx(1.0 / 3.0, rel=1e-15)


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
# and of T_xi applied to that image, and on the input itself of T_xi, the
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
        "T": (25, "9faf29f9e6a786cb7946214bd742995a5faf1ec4e2becd2ab3f9b4c6d0b63864"),
        "divided_difference": (10, "b46ea98adb5baf2d4b17b557267bdf3a86410d35a52d02b73cc21b1dd5443839"),
    }),
    "B": (build_subsystem_B(6, [F(3, 7), F(5, 4), F(1, 3)],
                            [F(2, 5), F(7, 3), F(5, 6)]), {
        "chi": (57, "ee32bca738a7a175ff6a5313f4e006bcff8d353e834ee7c2d9039acef6d6e743"),
        "T_of_chi": (67, "ab8ea703375c014dc5d13c3a75c7ff79f2711f95d52dbee785539b129d176549"),
        "T": (25, "d2fd142eabec5ef88026faa70a73afe8a2df2472d7fc74c6c5fd81c1bdaf9638"),
        "divided_difference": (10, "44fa042348335c66de853dd0986ded616e0b8fee4a51c5fbc8347d4959be5e80"),
    }),
    "coordinate": (build_subsystem_coordinate(
                       6, [F(3, 7), F(5, 4), F(2, 9), F(1, 3), F(7, 3), F(5, 6)]), {
        "chi": (7, "a143a9395eb381c6dddb239da79a15f36514f35b6c93c1beef250001ac2cad9d"),
        "T_of_chi": (11, "1008bd01c952212b3cc5bf953b2d6886c89c5c808427e852c24debaadea72262"),
        "T": (11, "a149f02565046b2f9f6b8a5e7dc3a9dc64ccefc7f512e55b525c2d40e16f6e33"),
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
        "T": apply_T_poly(sub, xi, p),
        "divided_difference": rho_poly(p, sub.roots[-1]),
    }
    if layout == "coordinate":
        got["laplacian_sum_sq"] = laplacian_sum_sq(p, sub.kappas)
        got["laplacian_expanded"] = laplacian_expanded(p, sub.kappas)
    assert got.keys() == want.keys()
    for name, q in got.items():
        text = q.to_text()
        assert (len(q.terms), hashlib.sha256(text.encode()).hexdigest()) == want[name], name


def test_block_caches_stay_bounded():
    # fresh multiplicities and roots add entries; the caches evict instead of
    # growing without limit
    from projdunkl.intertwine import _chi_block
    from projdunkl.opengine import _rho_block
    from projdunkl.polycore import _segment_expansion
    for cache, fill in ((_chi_block, lambda j: chi_poly_scaled(
                             build_subsystem_coordinate(1, [F(j, 7919)]), P("x1^2", 1))),
                        (_rho_block, lambda j: rho_poly(P("x1^2", 1), rv(F(j, 7919)))),
                        (_segment_expansion,
                         lambda j: _segment_expansion((F(j, 7919),), (2,), 0))):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        misses = cache.cache_info().misses
        for j in range(1, maxsize + 100):
            fill(j)
        info = cache.cache_info()
        assert info.misses - misses >= maxsize + 99
        assert info.currsize <= maxsize


def test_fresh_kappa_reuses_segment_expansions():
    # the segment expansion does not depend on kappa: the chi image at a
    # second fresh multiplicity only contracts the expansions of the first
    from projdunkl.intertwine import _chi_block
    from projdunkl.polycore import _segment_expansion
    p = P(FROZEN_POLY, 6)
    chi_poly_scaled(build_subsystem_A(6, [F(1, 7907), F(2, 7907), F(3, 7907)]), p)
    chi_misses = _chi_block.cache_info().misses
    misses = _segment_expansion.cache_info().misses
    chi_poly_scaled(build_subsystem_A(6, [F(4, 7907), F(5, 7907), F(6, 7907)]), p)
    assert _chi_block.cache_info().misses > chi_misses
    assert _segment_expansion.cache_info().misses == misses


def test_rho_poly_of_block_invariant_is_zero():
    alpha = rv(1, -1, 0, 0, 0, 0)
    # no variable of the support, and a tau-invariant block (x1 + x2)^2
    assert rho_poly(P("x3^2*x5 - 4", 6), alpha).is_zero()
    assert rho_poly((P("x1", 6) + P("x2", 6)) ** 2 * P("x4", 6), alpha).is_zero()


# ---- GPoly container ----

def test_gpoly_text_and_equality():
    g = GPoly(P("2*x1^2"), GammaRatio(1, den=[F(7, 2)]))
    assert g.to_text() == "[2/G(7/2)]*x1^2"
    assert g == GPoly(P("x1^2"), GammaRatio(2, den=[F(7, 2)]))
    assert g != GPoly(P("x1^2"), GammaRatio(3, den=[F(7, 2)]))
    # equal by value: 2/G(7/2) = (8/15)/G(3/2)
    assert g == GPoly(P("8/15*x1^2"), GammaRatio(1, den=[F(3, 2)]))
    # a rational scale compares equal to the plain polynomial
    assert GPoly(P("x1^2"), GammaRatio(F(1, 3))) == P("1/3*x1^2")


def test_gpoly_addition_merges_like_structures():
    a = GPoly(P("x1"), GammaRatio(1, den=[F(5, 2)]))
    b = GPoly(P("x1"), GammaRatio(2, den=[F(5, 2)]))
    assert (a + b) == GPoly(P("x1"), GammaRatio(3, den=[F(5, 2)]))
    c = GPoly(P("x1"), GammaRatio(1, den=[F(1, 3)]))
    with pytest.raises(ValueError):
        a + c


def test_gpoly_addition_across_rationally_related_scales():
    # the scales G(7/2)/G(23/6) and G(11/2)/G(35/6) differ by a rational factor
    a = erdelyi_kober_I(P("x1^2 + x1^4"), F(1, 2), F(1, 3))
    b = erdelyi_kober_I(P("x1^2"), F(5, 2), F(1, 3))
    total = a + b
    assert total.to_text() == ("[567/667*G(7/2)/G(23/6)]*x1^4 + "
                               "[1234/667*G(7/2)/G(23/6)]*x1^2")
    for x in (0.7, -1.3, 2.0):
        want = a.eval_float([x]) + b.eval_float([x])
        assert total.eval_float([x]) == pytest.approx(want, rel=1e-15)


def test_gpoly_eval_float():
    g = chi_one_var(P("x1^3"), F(1, 2))
    want = math.factorial(3) / math.gamma(0.5 + 3 + 1) * 0.5 ** 3
    assert g.eval_float([0.5]) == pytest.approx(want, rel=1e-15)


# ---- fractional integrals, exact diagonal action ----

def test_erdelyi_kober_monomial_factor():
    g = erdelyi_kober_I(P("x1^2"), F(1, 2), F(1, 2))
    assert g == GPoly(P("x1^2"), GammaRatio(1, num=[F(7, 2)], den=[4]))


def test_erdelyi_kober_validation():
    with pytest.raises(ValueError):
        erdelyi_kober_I(P("x1"), 0, F(-1, 2))
    with pytest.raises(ValueError):
        erdelyi_kober_I(P("1"), -2, F(1, 2))  # gamma + 0 + 1 <= 0


@pytest.mark.parametrize("diagonal_map", [erdelyi_kober_I, ek_left_inverse_D])
@pytest.mark.parametrize("gamma, delta", [(F(0), F(1, 2)), (F(1, 2), F(1, 3)),
                                          (F(-1, 3), F(5, 2)), (F(2), F(3))])
def test_diagonal_maps_act_term_by_term(diagonal_map, gamma, delta):
    # the image walks the degrees from the lowest one; each monomial's own
    # image starts at its degree
    p = P("x1^7 - 3*x1^4 + 1/2*x1^3 + 2*x1")
    parts = [diagonal_map(MPoly.monomial(e, c), gamma, delta) for e, c in p.terms.items()]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    assert diagonal_map(p, gamma, delta) == total


def test_ek_left_inverse_domain():
    # the domain of the forward map: gamma + m + 1 > 0 for the lowest degree m
    with pytest.raises(ValueError, match="degree 0"):
        ek_left_inverse_D(P("x1^2 + 1"), -1, F(1, 2))
    p = P("x1^3 + x1^2")
    assert ek_left_inverse_D(erdelyi_kober_I(p, -1, F(1, 2)), -1, F(1, 2)) == p


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
    # t^m against the exact Gamma ratio, at whole and fractional gamma and
    # with (1-t)^(delta-1) singular or not
    for gamma, delta in ((0.5, 1.5), (0.5, 0.5), (1.37, 0.63), (3.05, 0.95),
                         (0.05, 0.95)):
        for m in (0, 1, 3, 7):
            for x in (0.8, -1.3):
                got = erdelyi_kober_I_numeric(gamma, delta, lambda t, m=m: t ** m, x)
                want = math.gamma(gamma + m + 1) / math.gamma(gamma + m + delta + 1) * x ** m
                assert got == pytest.approx(want, rel=1e-14)
    # the forward map of e^(c t) is 1F1(1; kappa + 1; c x) / Gamma(kappa + 1),
    # up to frequency 8 on [-2.5, 2.5]; measured at most 6.1e-15 (kappa 1.3)
    import mpmath as mp

    for kappa in (0.05, 0.13, 0.37, 0.5, 0.75, 1.3, 2.7):
        for c in (1, 1j, 3j, 4j, 8j):
            for x in (2.5, -2.5, 1.0, 0.5):
                with mp.workdps(40):
                    k = mp.mpf(kappa)
                    want = complex(mp.hyp1f1(1, k + 1, mp.mpc(c) * x) / mp.gamma(k + 1))
                got = erdelyi_kober_I_numeric(0, kappa, lambda t, c=c: np.exp(c * t), x)
                assert abs(got - want) <= 2e-14 * abs(want), (kappa, c, x)
    # delta = 0 short-circuits to the identity
    assert erdelyi_kober_I_numeric(0.5, 0.0, lambda t: t ** 2, 0.8) == 0.8 ** 2


def test_erdelyi_kober_numeric_takes_an_array_of_points():
    # one call on an array agrees with the calls at its points, in its shape;
    # a complex image stays complex only where f is complex
    xs = np.array([[0.8, -1.3, 0.0], [2.5, -0.4, 1.1]])
    for f in (lambda t: t ** 3 - t, lambda t: np.exp(3j * t)):
        got = erdelyi_kober_I_numeric(0.37, 1.3, f, xs)
        assert got.shape == xs.shape
        want = [erdelyi_kober_I_numeric(0.37, 1.3, f, x) for x in xs.ravel().tolist()]
        assert np.iscomplexobj(got) == any(isinstance(v, complex) for v in want)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-15, atol=1e-300)
    with pytest.raises(ValueError, match="not finite"):
        erdelyi_kober_I_numeric(0, 0.5, np.exp, np.array([0.3, math.nan]))


def test_numeric_maps_reject_non_finite_input():
    g = get_function("bump")
    sub = build_subsystem_coordinate(2, [F(1, 2), F(3, 2)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"x = {bad}"):
            erdelyi_kober_I_numeric(0, 0.5, np.exp, bad)
        with pytest.raises(ValueError, match=f"= {bad}"):
            erdelyi_kober_I_numeric(bad, 0.5, np.exp, 0.3)
        with pytest.raises(ValueError, match=f"= {bad}"):
            erdelyi_kober_I_numeric(0, bad, np.exp, 0.3)
        with pytest.raises(ValueError, match=f"kappa = {bad}"):
            dual_chi(bad, g, 0.5)
        with pytest.raises(ValueError, match=f"kappa = {bad}"):
            chi_inverse_numeric(bad, [np.exp, np.exp], 0.3)
        with pytest.raises(ValueError, match=f"x = {bad}"):
            chi_inverse_numeric(0.5, [np.exp, np.exp], bad)
        with pytest.raises(ValueError, match="not a finite point"):
            chi_numeric(sub, lambda pt: 1.0, [0.5, bad])


def test_chi_one_var_numeric_matches_exact():
    kappa = 0.75
    for m in (0, 1, 2, 5):
        for x in (0.3, -1.2):
            got = erdelyi_kober_I_numeric(0, kappa, lambda t, m=m: t ** m, x)
            want = math.factorial(m) / math.gamma(kappa + m + 1) * x ** m
            assert got == pytest.approx(want, rel=1e-13)
            assert isinstance(got, float)
    # kappa = 0 is the identity
    assert erdelyi_kober_I_numeric(0, 0, np.exp, 0.7) == np.exp(0.7)


# bound on the relative error of chi(e^t) and chi(e^(i t)) against the
# 40-digit kernel; measured at most 1.1e-15 (kappa 0.05)
_CHI_EXP_BOUND = 4e-15


@pytest.mark.parametrize("kappa", [0.05, 0.13, 0.37, 0.5, 0.75, 1.0, 1.5, 2.7])
def test_chi_one_var_numeric_of_exp_is_the_kernel(kappa):
    bound = _CHI_EXP_BOUND
    for x in np.linspace(-2.5, 2.5, 51):
        x = float(x)
        want = _bold_M_reference(kappa, x)
        assert erdelyi_kober_I_numeric(0, kappa, np.exp, x) == pytest.approx(want, rel=bound)
        want = _bold_M_reference(kappa, 1j * x)
        got = erdelyi_kober_I_numeric(0, kappa, lambda t: np.exp(1j * t), x)
        assert abs(got - want) <= bound * abs(want)


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
    # the image of x, whose derivative callable returns a scalar
    c1 = 1.0 / math.gamma(kappa + 2)
    for x in (0.4, -1.3, 2.0):
        got = chi_inverse_numeric(kappa, [lambda t: c1 * t, lambda t: c1], x)
        assert got == pytest.approx(x, rel=1e-12)


def test_chi_inverse_numeric_exponential_jet():
    # forward map of exp is the kernel series; its jet inverts back to exp
    kappa = 1.5
    derivs = [lambda t, n=n: bold_M_jet(kappa, t, n)[n].real for n in range(3)]
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


def _dual_chi_mesh_per_call(kappa, g, x, order=32):
    """dual_chi as it read with one graded_panels build per segment."""
    bound = g.support_bound
    ax, sgn = abs(x), math.copysign(1.0, x)

    def smooth(u):
        return (u + ax) ** (-kappa) * np.asarray(g.value(sgn * (u + ax)))

    span = bound - ax
    cuts = sorted({span} | {sgn * c - ax for c in g.corners if 0.0 < sgn * c - ax < span})
    h = min(ax, cuts[0] / 2.0)
    head_s, head_w = quadrature.get_rule(12, 4, kappa - 1.0)
    total = h ** kappa * float(np.dot(head_w, smooth(h * head_s)))
    pts = [h] + cuts
    for lo, hi in zip(pts[:-1], pts[1:]):
        xs, ws = quadrature.graded_panels(lo, hi, order)
        total += float(np.dot(ws, xs ** (kappa - 1.0) * smooth(xs)))
    return total / math.gamma(kappa)


@pytest.mark.parametrize("name", ["bump", "ind13"])
def test_dual_chi_unit_mesh_matches_mesh_per_call(name):
    # the cached unit mesh mapped onto each segment is the per-segment build
    # up to rounding in the affine map
    g = get_function(name)
    rng = np.random.default_rng(14)
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(0.99), 200))
    xs *= rng.choice([-1.0, 1.0], 200)
    if name == "ind13":
        xs = np.abs(xs) * 3.0
    worst = 0.0
    for kappa in (0.37, 0.5, 2.7):
        for x in xs:
            want = _dual_chi_mesh_per_call(kappa, g, float(x))
            got = dual_chi(kappa, g, float(x))
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-15


@pytest.mark.parametrize("name", ["bump", "indicator", "ind13", "gaussian"])
def test_dual_chi_array_matches_per_point_calls(name):
    # signed points across the support and past its end; ind13's corners
    # inside the support give rows of one to four segments
    g = get_function(name)
    rng = np.random.default_rng(18)
    a = g.support_bound
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(1.05 * a), 150))
    xs *= rng.choice([-1.0, 1.0], xs.size)
    for kappa in (0.37, 0.5, 2.7):
        got = dual_chi(kappa, g, xs)
        want = np.array([dual_chi(kappa, g, float(x)) for x in xs])
        assert got.shape == xs.shape
        nonzero = want != 0.0
        assert np.array_equal(got == 0.0, ~nonzero)
        assert np.max(np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])) <= 1e-15
    assert isinstance(dual_chi(0.5, g, 0.5 * a), float)
    assert dual_chi(0.5, g, xs.reshape(10, 15)).shape == (10, 15)


def test_dual_chi_array_calls_g_once_per_block():
    # bump has no corner inside its support: every point has one segment
    # [h, 1 - |x|], with h = |x| below |x| = 1/3 and half the way to 1 - |x|
    # from there on, graded to a depth set by its width. Rows of one segment
    # count and one depth share blocks of at most _DUAL_NODES nodes, with one
    # call of g each
    g = get_function("bump")
    calls = []

    def value(t):
        calls.append(t.size)
        return g.value(t)

    xs = np.concatenate([np.linspace(0.01, 0.45, 40), np.linspace(0.30, 0.31, 40),
                         np.linspace(0.55, 0.95, 10)])
    got = dual_chi(0.5, value, xs, support_bound=1.0)
    head = intertwine._END_ORDER * (intertwine._END_DEPTH + 1)
    h = np.minimum(xs, (1.0 - xs) / 2.0)
    fit = np.ceil(np.log2((1.0 - xs - h) / (4.0 * h))) + 4
    depths = np.clip(fit, 0, intertwine._DUAL_DEPTH).astype(int).tolist()
    layouts = [(depths.count(d), head + intertwine._segment_mesh(d)[0].size)
               for d in sorted(set(depths))]
    want = []
    for nrows, row in layouts:
        per_block = intertwine._DUAL_NODES // row
        want += [row * min(per_block, nrows - k) for k in range(0, nrows, per_block)]
    assert len(set(depths)) > 3 and len(want) > len(layouts)
    assert sorted(calls) == sorted(want)
    assert max(calls) <= intertwine._DUAL_NODES
    assert np.array_equal(got, dual_chi(0.5, g, xs))


@pytest.mark.parametrize("depth", [0, 1, 9, 24])
def test_segment_mesh_grades_toward_zero_only(depth, monkeypatch):
    # graded_panels' first cell and two middle cells at this depth, then a
    # plain cell where graded_panels grades toward 1; the first cell is the
    # graded rule of this depth, and reads no deeper one
    monkeypatch.setattr(quadrature, "_cache", {})
    order = intertwine._DUAL_ORDER
    x, w = intertwine._segment_mesh(depth)
    assert [key for key in quadrature._cache if key[1]] == (
        [((order + 1) // 2, depth, 0.0)] if depth else [])
    assert np.all(np.diff(x) > 0) and 0.0 < x[0] and x[-1] < 1.0
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    gx, gw = quadrature.graded_panels(0.0, 1.0, order, depth=depth)
    kept = (depth + 1) * ((order + 1) // 2) + 2 * order
    assert x.size == kept + order
    assert np.array_equal(x[:kept], gx[:kept]) and np.array_equal(w[:kept], gw[:kept])
    nodes, weights = quadrature.get_rule(order)
    assert np.array_equal(x[kept:], 0.75 + 0.25 * nodes)
    assert np.array_equal(w[kept:], 0.25 * weights)


def test_dual_chi_nodes_on_the_factorization_mesh(monkeypatch):
    # the 960 dual points of transform_through_dual on bump took 849,408 nodes
    # with every segment graded toward both ends at full depth
    from projdunkl import transform

    bump = get_function("bump")
    seen = []
    monkeypatch.setattr(transform, "dual_chi",
                        lambda kappa, f, x, support_bound: seen.append(x) or np.zeros(x.shape))
    transform.transform_through_dual(bump, 0.5, [0.5])
    (xs,) = seen
    nodes = []

    def value(t):
        nodes.append(t.size)
        return bump.value(t)

    got = dual_chi(0.5, value, xs, support_bound=bump.support_bound)
    assert xs.size == 960 and sum(nodes) <= 360_000
    assert np.array_equal(got, dual_chi(0.5, bump, xs))


def test_dual_chi_array_validation():
    g = get_function("bump")
    with pytest.raises(ValueError, match="away from the origin"):
        dual_chi(0.5, g, np.array([0.3, 0.0]))
    with pytest.raises(ValueError, match="nan"):
        dual_chi(0.5, g, np.array([0.3, math.nan]))
    assert np.array_equal(dual_chi(0.5, g, np.array([1.0, -2.0, math.inf])), np.zeros(3))
    assert dual_chi(0.5, g, np.zeros((0,))).shape == (0,)


@pytest.mark.parametrize("kappa", [0.37, 0.5, 1.3, 2.7])
def test_dual_chi_leading_term_at_zero(kappa):
    # near 0 the dual image of bump (f(0) = 1, support 1) is
    # (log(1/s) - psi(kappa) - gamma + J) / Gamma(kappa) + O(s), with
    # J = int_0^1 (f(t) - 1) / t dt taken from mpmath, not from the package
    import mpmath as mp

    g = get_function("bump")
    with mp.workdps(30):
        j = float(mp.quad(lambda t: (mp.exp(1 - 1 / (1 - t * t)) - 1) / t, [0, 0.5, 1]))
    assert j == pytest.approx(-0.58678, abs=1e-5)
    const = float(mp.digamma(kappa)) + float(mp.euler)
    residuals = []
    for s in (1e-3, 1e-4, 1e-5):
        lead = (math.log(1.0 / s) - const + j) / math.gamma(kappa)
        for x in (s, -s):
            residual = abs(dual_chi(kappa, g, x) - lead)
            assert residual <= 3.0 * s
        residuals.append(residual)
    # the remainder is O(s): ten times smaller per decade
    for big, small in zip(residuals, residuals[1:]):
        assert 5.0 < big / small < 20.0


def duality_pairing(kappa, f, g, x_bound):
    """Both sides of integral (chi f) g dx = integral f (dual chi g) dx on [-B, B].

    g must vanish outside [-B, B]; f only needs values on [-B, B]. The outer
    mesh splits at 0, where the dual side has a kink, and at the corner
    points of g.
    """
    bnd = float(x_bound)
    pts = sorted({-bnd, 0.0, bnd} | {float(c) for c in getattr(g, "corners", ())
                                     if -bnd < float(c) < bnd})
    lhs = 0.0
    rhs = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        xs, ws = quadrature.graded_panels(lo, hi, 32)
        chis = erdelyi_kober_I_numeric(0, kappa, f, xs)
        duals = dual_chi(kappa, g, xs, support_bound=bnd)
        lhs += float(np.dot(ws, chis * np.broadcast_to(g(xs), xs.shape)))
        rhs += float(np.dot(ws, np.broadcast_to(f(xs), xs.shape) * duals))
    return lhs, rhs


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
