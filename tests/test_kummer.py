"""Confluent kernel regimes, eigenfunctions, and the spectral identities."""
import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from projdunkl import (
    RationalVector,
    apply_T_numeric,
    bold_M,
    bold_M_derivative,
    bold_M_on_imaginary,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    eigen_multivar,
    eigen_rank_one,
    generalized_ode_residual,
    kernel_grid_csv,
    kummer_M,
    kummer_M_derivative,
    one_var_T,
)
from projdunkl.kummer import _bold_M_reference, _cf_bold

# reference values from an 80-digit series evaluation, across both regimes and
# argument classes (small/mid imaginary, real positive/negative)
KERNEL_GOLDENS = [
    (0.5, 1j, 0.84605678672415291 + 0.66968425957766357j),
    (0.5, 30j, -0.10795271230479536 - 0.12867731483578215j),
    (1.0, 5j, -0.19178485493262769 + 0.14326756290735475j),
    (2.0, 10j, 0.018390715290764525 + 0.1054402111088937j),
    (1.5, 7j, 0.0076600867482442213 + 0.10810141731431469j),
    (0.5, 2.0, 4.9871195441298133),
    (1.0, 1.0, 1.7182818284590452),
    (2.0, -3.0, 0.22775411870754044),
]


@pytest.mark.parametrize("kappa,z,want", KERNEL_GOLDENS)
def test_kernel_golden_values(kappa, z, want):
    got = bold_M(kappa, z)
    assert abs(got - want) < 5e-13


def test_kernel_decay_along_imaginary_axis():
    # |bold M_kappa(i lam)| falls off like lam^(-kappa); frozen reference values
    for lam, want in [(10.0, 0.33500214248), (100.0, 0.0945433080012),
                      (1000.0, 0.0317328611279)]:
        assert abs(bold_M(0.5, 1j * lam)) == pytest.approx(want, rel=1e-10)


def test_kappa_zero_collapses_to_exp():
    for z in (0.3, -2.0, 1j, 3 - 4j, 50j):
        assert bold_M(0.0, z) == pytest.approx(np.exp(z), rel=1e-14)
        assert kummer_M(0.0, z) == pytest.approx(np.exp(z), rel=1e-14)


def test_normalizations_at_origin_and_classic_value():
    # non-bold is 1 at 0; bold is 1/Gamma(kappa+1); at kappa=1 the kernel is
    # (e^z - 1)/z
    assert kummer_M(0.75, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert bold_M(0.75, 0.0) == pytest.approx(1.0 / math.gamma(1.75), rel=1e-15)
    assert kummer_M(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert bold_M(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_nonbold_bounded_on_imaginary_axis(kappa):
    # the Poisson integral bounds |M_kappa(iy)| by 1 for every real y
    for y in np.linspace(-120.0, 120.0, 961):
        assert abs(kummer_M(kappa, 1j * y)) <= 1.0 + 1e-12


def test_derivative_matches_term_by_term_series():
    # inside the series radius, differentiate the defining series directly
    kappa, z = 0.8, 1.5 - 0.7j
    want = sum(n * z ** (n - 1) / math.gamma(kappa + 1 + n) for n in range(1, 60))
    assert abs(bold_M_derivative(kappa, z, 1) - want) < 1e-13
    want2 = sum(n * (n - 1) * z ** (n - 2) / math.gamma(kappa + 1 + n)
                for n in range(2, 60))
    assert abs(bold_M_derivative(kappa, z, 2) - want2) < 1e-13


def test_derivative_validation_and_nonbold_scaling():
    with pytest.raises(ValueError):
        bold_M_derivative(0.5, 1.0, -1)
    z = 0.4j
    assert kummer_M_derivative(0.5, z, 1) == pytest.approx(
        math.gamma(1.5) * bold_M_derivative(0.5, z, 1), rel=1e-15)


def test_vectorized_kernel_matches_scalar_across_regimes():
    # straddle the regime switch at |y| = max(4, kappa), both signs
    for kappa in (0.5, 80.5):
        r = max(4.0, kappa)
        ys = np.array([-200.0, -1.01 * r, -0.99 * r, -0.5,
                       0.5, 0.99 * r, 1.01 * r, 30.0, 200.0])
        got = bold_M_on_imaginary(kappa, ys)
        want = np.array([bold_M(kappa, 1j * y) for y in ys])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    assert bold_M_on_imaginary(0.0, np.array([2.0]))[0] == pytest.approx(
        np.exp(2j), rel=1e-15)


# the golden kappa and two large ones, then 14 that are not exact binary
# fractions, across [1e-3, 150]
SWEEP_KAPPAS = [0.5, 1.0, 2.0, 80.5, 150.0,
                0.001, 0.0037, 0.013, 0.047, 0.13, 0.37, 0.83, 1.61, 2.7, 7.3,
                19.9, 44.1, 80.3, 149.9]
# the positive real z = 200 is where z^-kappa alone underflows at large kappa
SWEEP_Z = ([1j * y for y in np.geomspace(0.01, 500.0, 60)]
           + [cmath.rect(r, t) for r in (3.9, 20.0, 200.0)
              for t in (0.0, 0.3, -1.2, 2.0 * math.pi / 3)])


@pytest.mark.parametrize("kappa", SWEEP_KAPPAS)
def test_series_against_integral_regime(kappa):
    # 40-digit 1F1 reference against the double-precision evaluator over the
    # domain: the imaginary axis up to 500 and points off it at
    # |arg z| <= 2 pi / 3, on both sides of the regime switch
    zs = SWEEP_Z + [1j * max(4.0, kappa) * f for f in (0.999, 1.001)]
    for z in zs:
        ref = _bold_M_reference(kappa, z)
        assert abs(bold_M(kappa, z) - ref) < 1e-13 * abs(ref), (kappa, z)


def test_precision_validation():
    with pytest.raises(ValueError):
        bold_M(-0.5, 1.0)
    # outside the domain the continued fraction does not converge, and past
    # kappa = 170 Gamma(kappa + 1) overflows: both refuse with the domain
    with pytest.raises(ValueError, match="domain"):
        bold_M(0.5, -10)
    with pytest.raises(ValueError, match="domain"):
        bold_M_on_imaginary(171.0, np.array([1.0, 100.0]))
    # the reference agrees with double inside the series radius
    assert _bold_M_reference(0.5, 2j) == pytest.approx(
        bold_M(0.5, 2j), rel=1e-13)


def test_kernel_past_exp_overflow():
    # e^(z/2) overflows past Re z = 1419.6 although bold M_170(1500) ~ e^257
    # is finite; below that point every value keeps its bits
    assert bold_M(170.0, 1400.0) == 1.480841576395195e+73
    assert bold_M(150.0, 1419.5) == 4.57833463366469e+143
    for kappa, z in ((170.0, 1400.0), (170.0, 1500.0), (150.0, 1420.0),
                     (170.0, 2000.0 + 300.0j)):
        ref = _bold_M_reference(kappa, z)
        assert abs(bold_M(kappa, z) - ref) < 1e-13 * abs(ref), (kappa, z)
    got = _cf_bold(170.0, np.array([1500.0 + 0j, 2000.0 + 300.0j]), np.exp, np.angle)
    want = np.array([bold_M(170.0, 1500.0), bold_M(170.0, 2000.0 + 300.0j)])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    # where the value itself overflows, a clear error instead of inf or nan
    for kappa, z in ((0.5, 1500.0), (170.0, 3000.0), (170.0, 1e6), (0.0, 800.0)):
        with pytest.raises(ValueError, match="overflows"):
            bold_M(kappa, z)
    with pytest.raises(ValueError, match="overflows"):
        kummer_M(170.0, 1500.0)  # Gamma(171) bold M_170(1500) ~ e^963


# ---- rank-one eigenfunctions ----

@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("lam", [1.0, 3.0, 10.0])
def test_rank_one_eigen_equation(kappa, lam):
    e = eigen_rank_one(kappa, lam)
    for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        resid = abs(one_var_T(kappa, e, x) - 1j * lam * e.value(x))
        assert resid < 1e-12


def test_rank_one_normalization_and_derivative():
    e = eigen_rank_one(0.5, 2.0)
    assert e.value(0.0) == pytest.approx(1.0, rel=1e-15)
    h = 1e-6
    fd = (e.value(0.3 + h) - e.value(0.3 - h)) / (2 * h)
    assert abs(e.derivative(0.3) - fd) < 1e-8


@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("lam", [1.0, 3.0, 10.0])
def test_generalized_ode_residual(kappa, lam):
    for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        assert generalized_ode_residual(kappa, lam, x) < 1e-10


# ---- multivariate eigenfunctions ----

def _residual(sub, efunc, xi, x):
    got = apply_T_numeric(sub, xi, efunc, np.asarray(x, dtype=float))
    want = efunc.eigenvalue(xi) * efunc.value(x)
    return abs(got - want)


def test_eigen_multivar_difference_pairs():
    sub = build_subsystem_A(4, [F(1, 2), F(3, 2)])
    e = eigen_multivar(sub, [1.0, -0.5, 2.0, 0.7])
    assert e.variant == "A"
    assert e.value([0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(1, 2, -1, 1/2)")
    for x in ([0.3, -0.8, 1.1, 0.6], [1.0, 2.0, -0.4, 0.9]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_split_pairs():
    sub = build_subsystem_B(2, [F(1, 2)], [F(2)])
    e = eigen_multivar(sub, [1.3, 0.4])
    assert e.variant == "B"
    assert e.value([0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(1, -3)")
    for x in ([0.5, 0.2], [-1.1, 0.8], [2.0, -0.7]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_coordinate_layout():
    sub = build_subsystem_coordinate(3, [F(1, 2), F(1), F(3, 2)])
    e = eigen_multivar(sub, [0.9, -1.2, 2.0])
    assert e.variant == "direct"
    assert e.value([0.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(2, 1, -1)")
    for x in ([0.4, 0.7, -0.3], [1.5, -0.9, 0.6]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_variant_checks():
    sub = build_subsystem_A(2, [F(1, 2)])
    with pytest.raises(ValueError):
        eigen_multivar(sub, [1.0, 2.0], variant="B")
    with pytest.raises(ValueError):
        eigen_multivar(sub, [1.0])  # wrong spectral length
    # an unrecognized layout is rejected
    from projdunkl import OrthogonalSubsystem
    odd = OrthogonalSubsystem(3, [RationalVector.parse("(1, 1, 1)")], [F(1, 2)])
    with pytest.raises(ValueError):
        eigen_multivar(odd, [1.0, 0.0, 0.0])


def test_eigen_multivar_odd_trailing_coordinate():
    # odd ambient dimension: the unpaired coordinate rides along as a phase
    sub = build_subsystem_A(3, [F(1)])
    e = eigen_multivar(sub, [1.0, 0.5, -2.0])
    xi = RationalVector.parse("(0, 0, 1)")
    x = [0.3, -0.4, 0.8]
    assert _residual(sub, e, xi, x) < 1e-10


def test_kernel_grid_csv_shape():
    out = kernel_grid_csv([0.5, 1.0], [1.0, 2.0], [0.0, 0.5, 1.0])
    lines = out.strip().split("\n")
    assert lines[0] == "kappa,lambda,x,re,im,abs"
    assert len(lines) == 1 + 2 * 2 * 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5 and float(first[2]) == 0.0
    # bold M at 0 is 1/Gamma(kappa+1)
    assert float(first[3]) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-15)
