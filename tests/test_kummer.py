"""Confluent kernel regimes, eigenfunctions, and the spectral identities."""
import cmath
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from projdunkl import kummer
from projdunkl import (
    OrthogonalSubsystem,
    RationalVector,
    apply_T_numeric,
    bold_M,
    bold_M_array,
    bold_M_derivative,
    bold_M_jet,
    bold_M_on_imaginary,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    eigen_multivar,
    eigen_rank_one,
    generalized_ode_residual,
    kummer_M,
    one_var_T,
)
from projdunkl.kummer import (
    _CF_DEPTH,
    MAX_ARG,
    _bold_M_reference,
    _cf_bold,
    _cf_depth,
    _cf_g,
    _cf_g_sorted,
    _series_nonbold,
    gamma_plus_one,
)

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
    # the array path runs each point of the fraction at its own depth, in one
    # sweep sorted by depth: shuffled, |z| from the regime switch out to 1000
    # interleave, and each point still matches its own scalar call
    rng = np.random.default_rng(7)
    for kappa in (0.013, 0.37, 2.7, 80.5):
        ys = np.geomspace(1.001 * max(4.0, kappa), 1000.0, 1500)
        ys = np.concatenate([ys, -ys])
        rng.shuffle(ys)
        got = bold_M_on_imaginary(kappa, ys)
        want = np.array([bold_M(kappa, 1j * y) for y in ys])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-15, kappa


def test_fraction_sweep_keeps_the_bits_of_one_depth_per_array():
    # each far point runs the fraction from its own depth; the values are
    # those of the whole array started at the depth of its deepest point (on
    # the axis, that of its smallest |y|), and of the point called alone
    def one_depth(kappa, y):
        z = 1j * y
        r = np.abs(z)
        g = _cf_g(kappa, z, int(_cf_depth(kappa, z).max()))
        half = np.exp(z / 2) * (r ** (-kappa / 2) * np.exp(-0.5j * kappa * np.angle(z)))
        return half * half - g / math.gamma(kappa)

    rng = np.random.default_rng(11)
    for kappa in (0.001, 0.013, 0.37, 2.7, 80.5, 170.0):
        ys = np.geomspace(np.nextafter(max(4.0, kappa), np.inf), 1000.0, 300)
        ys = np.concatenate([ys, -ys])
        rng.shuffle(ys)
        got = bold_M_on_imaginary(kappa, ys)
        assert np.array_equal(got, one_depth(kappa, ys)), kappa
        alone = np.array([bold_M_on_imaginary(kappa, ys[i:i + 1])[0]
                          for i in range(ys.size)])
        assert np.array_equal(got, alone), kappa


def test_fraction_sweep_runs_each_point_from_its_own_depth():
    # at depths short of convergence each start gives other bits, so every
    # point must join the sweep exactly at its own depth
    rng = np.random.default_rng(5)
    for kappa in (0.013, 0.37, 2.7):
        z = 1j * np.sort(rng.uniform(4.0, 60.0, 200) * rng.choice([-1.0, 1.0], 200))
        z = z[np.argsort(np.abs(z), kind="stable")]
        depth = np.sort(rng.integers(1, 30, z.size))[::-1]
        want = np.array([_cf_g(kappa, z[i:i + 1], int(d))[0] for i, d in enumerate(depth)])
        assert np.array_equal(_cf_g_sorted(kappa, z, depth), want), kappa


def test_kernel_on_the_axis_is_conjugate_symmetric_bit_for_bit():
    # bold M_kappa(-i y) = conj bold M_kappa(i y) for real kappa, and the
    # evaluator keeps it to the last bit: the series, the fraction and the
    # prefactor all round symmetrically in the sign of y
    rng = np.random.default_rng(31)
    for kappa in (0.0, 0.001, 0.013, 0.37, 1.0, 2.7, 19.9, 80.5, 170.0):
        y = np.concatenate([np.linspace(0.0, 1.2 * max(4.0, kappa), 500),
                            np.geomspace(max(4.0, kappa), 1200.0, 500),
                            rng.uniform(0.0, 1200.0, 1000)])
        got = bold_M_on_imaginary(kappa, -y)
        assert np.array_equal(got, np.conj(bold_M_on_imaginary(kappa, y))), kappa
        assert all(bold_M(kappa, -1j * v) == bold_M(kappa, 1j * v).conjugate()
                   for v in y[::20].tolist()), kappa


@pytest.mark.parametrize("kappa", [5e-309, 5e-324])
def test_kernel_at_kappa_where_gamma_overflows(kappa):
    # below kappa = 5.6e-309 Gamma(kappa) overflows a double, although the
    # kernel is within an ulp of e^z; every entry point stays finite
    for y in (1.0, 5.0, -30.0, 900.0):
        ref = _bold_M_reference(kappa, 1j * y)
        for got in (bold_M(kappa, 1j * y), kummer_M(kappa, 1j * y),
                    bold_M_array(kappa, np.array([1j * y]))[0],
                    bold_M_on_imaginary(kappa, np.array([y]))[0]):
            assert abs(got - ref) <= 2e-16 * abs(ref), (y, got, ref)
    assert gamma_plus_one(kappa) == 1.0


def test_vectorized_kernel_rejects_non_finite_input():
    for kappa in (0.0, 0.37):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"y = {bad} is not finite"):
                bold_M_on_imaginary(kappa, [1.0, bad, 100.0])


def test_series_stops_early_with_the_same_bits():
    # the sum stops once its term bound drops below 1e-30; against the full
    # max(70, 12 sqrt(kappa)) terms not one bit moves, on the axis and off it
    def full(kappa, z):
        acc = term = 1.0 + 0.0j
        for n in range(max(70, int(12.0 * math.sqrt(kappa)))):
            term = term * z / (kappa + 1.0 + n)
            acc += term
        return acc

    rng = np.random.default_rng(3)
    for kappa in (0.001, 0.37, 2.7, 19.9, 149.9, 170.0):
        r = max(4.0, kappa)
        z = 1j * rng.uniform(-r, r, 300)
        assert np.array_equal(_series_nonbold(kappa, z), full(kappa, z))
        for _ in range(50):
            z = cmath.rect(rng.uniform(0.0, r), rng.uniform(-math.pi, math.pi))
            assert _series_nonbold(kappa, z) == full(kappa, z)
    assert _series_nonbold(0.37, 0j) == 1.0
    assert _series_nonbold(0.37, np.zeros(0, dtype=complex)).size == 0


def test_gamma_plus_one_against_mpmath():
    # kappa + 1.0 rounds for most kappa, and Gamma scales that rounding by
    # its log-derivative: math.gamma(kappa + 1.0) is off by 7e-14 near 127
    import mpmath as mp

    kappas = np.concatenate([np.geomspace(1e-3, 170.0, 1200),
                             np.linspace(1e-3, 170.0, 1200), [0.37, 2.7, 127.3]])
    worst = 0.0
    with mp.workdps(30):
        for k in kappas.tolist():
            ref = mp.gamma(mp.mpf(k) + 1)
            worst = max(worst, float(abs(gamma_plus_one(k) - ref) / ref))
    assert worst <= 1e-15
    assert gamma_plus_one(0.0) == 1.0 and gamma_plus_one(4.0) == 24.0


def _depth_grid():
    """(kappa, z) over the fraction's domain, as flat arrays.

    37 kappa in [1e-3, 170], dyadic and not, times 25 radii from max(4, kappa)
    to 1000, times 9 arguments in [0, 2 pi / 3]; then the imaginary axis out
    to 1000 at kappa like those of the transform benchmark.
    """
    kappas = sorted({*np.geomspace(1e-3, 170.0, 30).tolist(),
                     0.37, 2.7, 0.5, 1.0, 2.0, 80.5, 150.0})
    kap, z = [], []
    for k in kappas:
        for r in np.geomspace(max(4.0, k), 1000.0, 25):
            for t in np.linspace(0.0, MAX_ARG, 9):
                kap.append(k)
                z.append(cmath.rect(r, t))
    for k in (0.0101, 0.0513, 0.1307, 0.1999, 0.2301, 0.6173, 0.8299, 1.6101,
              2.3457, 2.9999):
        for r in np.geomspace(4.0, 1000.0, 60):
            kap.append(k)
            z.append(1j * r)
    return np.array(kap), np.array(z)


def test_cf_depth_rule_covers_domain():
    # converged: the least depth from which every start up to the cap agrees
    # with a start at depth 400 to 2^-53 relative; cap + 1 where the cap
    # itself does not (next to |z| = 4 at arg 2 pi / 3, as before the rule)
    kap, z = _depth_grid()
    ref = _cf_g(kap, z, 400)
    converged = np.ones(z.size, dtype=int)
    for d in range(1, _CF_DEPTH + 1):
        off = np.abs(_cf_g(kap, z, d) - ref) > 2.0 ** -53 * np.abs(ref)
        converged[off] = d + 1
    depth = np.array([_cf_depth(k, v) for k, v in zip(kap, z)])
    assert np.array_equal(_cf_depth(kap, z), depth)  # the array form
    short = np.flatnonzero(depth < np.minimum(converged, _CF_DEPTH))
    assert short.size == 0, [(kap[i], z[i], depth[i], converged[i]) for i in short[:5]]
    assert depth.max() == _CF_DEPTH and depth.min() < 10


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than a double here, so truncation "
                           "below 2^-53 cannot be told from rounding")
def test_cf_depth_axis_rule_covers_truncation():
    # on the imaginary axis the rule answers for truncation, measured in long
    # double (64-bit mantissa): every start from the point's depth on, up to
    # 100, stays within 2^-53 relative of a start at depth 400. In double,
    # rounding makes starts differ by an ulp long after the fraction has
    # converged, which would read as a deeper depth than truncation needs
    rng = np.random.default_rng(29)
    kappas = np.concatenate([np.geomspace(1e-3, 170.0, 40), [1, 2, 3, 4, 7, 12, 50, 170],
                             [0.0101, 0.37, 1.6101, 2.7, 2.9999]])
    kap, y = [], []
    for k in kappas.tolist():
        edge = max(4.0, k)
        ys = np.geomspace(edge, 1000.0, 40)
        ys[0] = np.nextafter(edge, np.inf)
        kap += [k] * ys.size
        y += ys.tolist()
    # random points, a tenth of them at integer kappa, where the fraction ends
    k = np.exp(rng.uniform(math.log(1e-3), math.log(170.0), 1200))
    k[:120] = rng.integers(1, 171, 120)
    edge = np.nextafter(np.maximum(4.0, k), np.inf)
    kap = np.concatenate([kap, k])
    y = np.concatenate([y, edge * (1000.0 / edge) ** rng.uniform(0.0, 1.0, k.size)])
    y *= rng.choice([-1.0, 1.0], y.size)

    z = 1j * y
    depth = _cf_depth(kap, z)
    assert np.array_equal(depth, [_cf_depth(a, b) for a, b in zip(kap, z)])
    kap_l = kap.astype(np.longdouble)
    z_l = (1j * y.astype(np.longdouble)).astype(np.clongdouble)
    ref = _cf_g(kap_l, z_l, 400)
    converged = np.ones(z.size, dtype=int)
    for d in range(1, 101):
        off = np.abs(_cf_g(kap_l, z_l, d) - ref) > np.longdouble(2.0) ** -53 * np.abs(ref)
        converged[off] = d + 1
    short = np.flatnonzero(depth < converged)
    assert short.size == 0, [(kap[i], y[i], depth[i], converged[i]) for i in short[:5]]
    # at the benchmark's kappa <= 3 even the edge of the disk starts short of the cap
    assert depth[kap <= 3.0].max() <= 63 and converged.max() < _CF_DEPTH


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


@pytest.mark.parametrize("kappa", SWEEP_KAPPAS)
def test_array_kernel_against_reference(kappa):
    # the array entry over the same domain sweep, in one call per kappa
    zs = np.array(SWEEP_Z + [1j * max(4.0, kappa) * f for f in (0.999, 1.001)])
    ref = np.array([_bold_M_reference(kappa, z) for z in zs])
    got = bold_M_array(kappa, zs)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_array_kernel_matches_scalar():
    # mixed arrays across the regime switch, off the axis and on the negative
    # reals inside the disk, each point against its own scalar call
    rng = np.random.default_rng(19)
    for kappa in (0.0, 0.013, 0.37, 2.7, 80.5):
        r = max(4.0, kappa)
        z = np.concatenate([
            [cmath.rect(f * r, t) for f in (0.5, 0.99, 1.01, 3.0)
             for t in (0.0, 0.4, -1.1, 0.999 * MAX_ARG, -0.999 * MAX_ARG)],
            [-0.99 * r, -0.3, 0.0, 0.2j, -r + 0j],
            r * np.sqrt(rng.uniform(0.0, 1.0, 60)) * np.exp(1j * rng.uniform(-3.1, 3.1, 60))])
        if kappa == 0:
            z = np.concatenate([z, [-40.0, -25.0 + 30.0j]])
        got = bold_M_array(kappa, z)
        want = np.array([bold_M(kappa, v) for v in z.tolist()])
        assert got.dtype == complex and got.shape == z.shape
        # numpy's complex division rounds otherwise than Python's; in the
        # disk, where the series bounds its absolute error by 1e-14, a small
        # value can carry that as a larger relative gap
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0)), kappa
    # a real array inside the disk keeps the bits of the scalar path, and so
    # does each entry of the jet built on it
    for kappa in (0.37, 0.5, 1.5, 2.7, 19.9):
        r = max(4.0, kappa)
        t = rng.uniform(-r, r, 200)
        assert np.array_equal(bold_M_array(kappa, t),
                              [bold_M(kappa, v) for v in t.tolist()]), kappa
        jet = bold_M_jet(kappa, t, 3)
        for n in range(4):
            want = [bold_M_derivative(kappa, v, n) for v in t.tolist()]
            assert np.array_equal(jet[n], want), (kappa, n)
    # the transform's imaginary-axis entry is the same evaluator
    y = np.linspace(-300.0, 300.0, 601)
    for kappa in (0.0, 0.37, 80.5):
        assert np.array_equal(bold_M_on_imaginary(kappa, y), bold_M_array(kappa, 1j * y))


def test_array_kernel_validation():
    with pytest.raises(ValueError, match="domain"):
        bold_M_array(0.5, np.array([1.0, -10.0]))
    with pytest.raises(ValueError, match="domain"):
        bold_M_array(0.5, np.array([2.0, cmath.rect(5.0, 2.2)]))
    with pytest.raises(ValueError, match="domain"):
        bold_M_array(170.5, np.array([1.0]))
    for kappa, z in ((0.5, 1500.0), (170.0, 3000.0), (0.0, 800.0)):
        with pytest.raises(ValueError, match="overflows"):
            bold_M_array(kappa, np.array([1.0, z]))
    with pytest.raises(ValueError, match="negative derivative order"):
        bold_M_jet(0.5, np.array([1.0]), -1)
    assert bold_M_array(0.5, np.zeros(0)).shape == (0,)


def test_non_finite_input_is_named():
    # the scalar entries used to call nan "outside the domain" and inf an
    # overflow; every entry now names it
    for kappa in (0.0, 0.5):
        for bad in (complex(1.0, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)):
            for fn in (bold_M, kummer_M):
                with pytest.raises(ValueError, match="is not finite"):
                    fn(kappa, bad)
            with pytest.raises(ValueError, match="is not finite"):
                bold_M_array(kappa, np.array([0.5, bad, 100.0]))
        with pytest.raises(ValueError, match="z = nan is not finite"):
            bold_M_array(kappa, np.array([0.5, math.nan]))
    with pytest.raises(ValueError, match=r"^z = \(1\+nanj\) is not finite$"):
        bold_M(0.5, complex(1.0, math.nan))


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



def test_kappa_zero_overflow_off_the_real_axis():
    # past Re z = 709.8, e^z overflows whatever Im z is: the same error as on
    # the real axis, and no RuntimeWarning from numpy on the way
    for z in (800.0 + 1.0j, 800.0 - 1.0j, 1e5 + 3.0j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                bold_M(0.0, z)
            with pytest.raises(ValueError, match="overflows"):
                kummer_M(0.0, z)


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
    assert e.value([0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(1, 2, -1, 1/2)")
    for x in ([0.3, -0.8, 1.1, 0.6], [1.0, 2.0, -0.4, 0.9]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_split_pairs():
    sub = build_subsystem_B(2, [F(1, 2)], [F(2)])
    e = eigen_multivar(sub, [1.3, 0.4])
    assert e.value([0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(1, -3)")
    for x in ([0.5, 0.2], [-1.1, 0.8], [2.0, -0.7]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_coordinate_layout():
    sub = build_subsystem_coordinate(3, [F(1, 2), F(1), F(3, 2)])
    e = eigen_multivar(sub, [0.9, -1.2, 2.0])
    assert e.value([0.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)
    xi = RationalVector.parse("(2, 1, -1)")
    for x in ([0.4, 0.7, -0.3], [1.5, -0.9, 0.6]):
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_input_checks():
    sub = build_subsystem_A(2, [F(1, 2)])
    with pytest.raises(ValueError):
        eigen_multivar(sub, [1.0])  # wrong spectral length
    for lam, bad in (([math.nan, 1.0], 0), ([1.0, math.inf], 1)):
        with pytest.raises(ValueError, match=rf"lam\[{bad}\]"):
            eigen_multivar(sub, lam)
    e = eigen_multivar(sub, [1.0, 0.5])
    for x in ([0.3], [0.3, 0.1, 0.2]):
        for evaluate in (e.value, e.gradient):
            with pytest.raises(ValueError, match=r"point must have shape \(2,\)"):
                evaluate(x)
        with pytest.raises(ValueError, match=r"direction must have shape \(2,\)"):
            e.eigenvalue(x)


SKEW_3 = OrthogonalSubsystem(3, [RationalVector((1, 2, 2)), RationalVector((2, 1, -2))],
                             [F(3, 7), F(5, 4)])


@pytest.mark.parametrize("sub", [
    OrthogonalSubsystem(3, [RationalVector((1, 1, 1))], [F(1, 2)]),
    SKEW_3,
], ids=["diagonal-root", "skew-3"])
def test_eigen_multivar_any_orthogonal_subsystem(sub):
    # roots in no coordinate or paired layout
    rng = np.random.default_rng(7)
    for _ in range(10):
        e = eigen_multivar(sub, rng.uniform(-2.0, 2.0, sub.dim))
        assert e.value(np.zeros(sub.dim)) == 1.0
        x = rng.uniform(-2.0, 2.0, sub.dim)
        xi = rng.uniform(-2.0, 2.0, sub.dim)
        assert _residual(sub, e, xi, x) < 1e-10


def test_eigen_multivar_rank_one_factor():
    # a single coordinate root is the rank-one eigenfunction itself
    for kappa, lam in ((F(37, 100), 1.7), (F(5, 2), -3.0), (F(0), 0.8)):
        e = eigen_multivar(build_subsystem_coordinate(1, [kappa]), [lam])
        r = eigen_rank_one(float(kappa), lam)
        for x in (-1.3, 0.0, 0.4, 2.2):
            assert abs(e.value([x]) - r.value(x)) <= 1e-15 * abs(r.value(x))
            assert abs(e.gradient([x])[0] - r.derivative(x)) <= 1e-14 * abs(lam)


def test_eigen_multivar_root_scale_invariant():
    # E depends on each root only through its line
    doubled = OrthogonalSubsystem(3, [SKEW_3.roots[0].scale(2), SKEW_3.roots[1]],
                                  SKEW_3.kappas)
    lam = [0.9, -1.4, 0.6]
    e, e2 = eigen_multivar(SKEW_3, lam), eigen_multivar(doubled, lam)
    for x in ([0.3, -1.1, 0.7], [1.9, 0.2, -0.5]):
        assert abs(e.value(x) - e2.value(x)) < 1e-15
        assert np.abs(e.gradient(x) - e2.gradient(x)).max() < 1e-14


def test_eigen_multivar_without_roots_is_a_plane_wave():
    sub = OrthogonalSubsystem(3, [], [])
    lam = np.array([0.9, -1.4, 0.6])
    e = eigen_multivar(sub, lam)
    for x in ([0.3, -1.1, 0.7], [0.0, 0.0, 0.0], [1.9, 0.2, -0.5]):
        want = cmath.exp(1j * float(lam @ np.array(x)))
        assert abs(e.value(x) - want) < 1e-15
        assert np.abs(e.gradient(x) - 1j * lam * want).max() < 1e-15


def test_eigen_multivar_gradient_central_differences():
    e = eigen_multivar(SKEW_3, [1.3, -0.8, 1.7])
    h = 1e-5
    for x in ([0.3, -1.1, 0.7], [1.9, 0.2, -0.5], [-0.6, 1.4, 1.0]):
        x = np.array(x)
        fd = [(e.value(x + h * u) - e.value(x - h * u)) / (2 * h) for u in np.eye(3)]
        assert np.abs(e.gradient(x) - np.array(fd)).max() < 1e-8


def test_eigen_multivar_gradient_evaluates_the_kernel_twice_per_root(monkeypatch):
    # M'_j comes from the value M_j already computed plus one shifted kernel
    sub = build_subsystem_B(4, [F(1, 2), F(3, 2)], [F(1), F(5, 2)])
    e = eigen_multivar(sub, [0.7, -1.2, 0.4, 1.9])
    calls = []
    real_eval = kummer._eval
    monkeypatch.setattr(kummer, "_eval", lambda k, z: calls.append(k) or real_eval(k, z))
    e.gradient([0.3, -0.5, 1.1, 0.2])
    assert len(calls) == 2 * sub.nroots


def test_eigen_multivar_odd_trailing_coordinate():
    # odd ambient dimension: the unpaired coordinate rides along as a phase
    sub = build_subsystem_A(3, [F(1)])
    e = eigen_multivar(sub, [1.0, 0.5, -2.0])
    xi = RationalVector.parse("(0, 0, 1)")
    x = [0.3, -0.4, 0.8]
    assert _residual(sub, e, xi, x) < 1e-10
