"""Catalog sanity: derivatives match finite differences, supports hold."""
import math

import mpmath as mp
import numpy as np
import pytest

from projdunkl import MPoly, catalog, get_function
from projdunkl.functions import from_poly


SMOOTH_POINTS = [-1.7, -0.4, 0.31, 0.9, 1.6, 2.2]


@pytest.mark.parametrize("name", ["exp", "gaussian", "bump", "ind13"])
def test_gradient_matches_finite_differences(name):
    # central differences against the analytic derivative, relative to the
    # larger of the two (floored at 1e-9 where both vanish)
    f = get_function(name)
    h = 1e-6
    for x in SMOOTH_POINTS:
        fd = (f.value(x + h) - f.value(x - h)) / (2 * h)
        an = f.derivative(x)
        gap = abs(an - fd) / max(abs(an), abs(fd), 1e-9)
        assert gap <= 2e-5, f"{name}: gradient mismatch {gap:.3e} at x={x}"


@pytest.mark.parametrize("name", ["exp", "gaussian", "bump"])
def test_second_derivative_matches_finite_differences(name):
    f = get_function(name)
    h = 1e-5
    for x in SMOOTH_POINTS:
        fd = (f.value(x + h) - 2 * f.value(x) + f.value(x - h)) / h ** 2
        an = f.second_derivative(x)
        assert an == pytest.approx(fd, rel=3e-5, abs=3e-5)


def test_ind13_derivative_matches_mpmath():
    # closed-form derivative of the smoothed [1, 3] indicator on both
    # transitions, against a 40-digit numerical derivative
    def step(u):
        if u <= 0:
            return mp.mpf(0)
        if u >= 1:
            return mp.mpf(1)
        a, b = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
        return a / (a + b)

    f = get_function("ind13")
    xs = np.concatenate([np.linspace(1.01, 1.49, 25), np.linspace(2.51, 2.99, 25)])
    with mp.workdps(40):
        for x in xs:
            want = float(mp.diff(lambda t: step((t - 1) * 2) * step((3 - t) * 2),
                                 mp.mpf(float(x))))
            assert f.gradient(float(x)) == pytest.approx(want, rel=1e-13)
    np.testing.assert_array_equal(f.gradient(np.array([0.5, 2.0, 3.5])), 0.0)


def test_support_bounds_hold():
    for name in ("bump", "indicator"):
        f = get_function(name)
        a = f.support_bound
        for x in (a + 1e-9, -a - 1e-9, a + 2.5):
            assert f.value(x) == 0.0
    ind13 = get_function("ind13")
    assert ind13.value(0.99) == 0.0
    assert ind13.value(3.01) == 0.0
    assert ind13.value(-2.0) == 0.0
    assert ind13.value(2.0) == 1.0


def test_corner_metadata():
    assert get_function("bump").corners == (-1.0, 1.0)
    assert get_function("indicator").corners == (-1.0, 1.0)
    assert get_function("ind13").corners == (1.0, 1.5, 2.5, 3.0)
    assert get_function("gaussian").corners == ()


def test_bump_normalization():
    f = get_function("bump")
    assert f.value(0.0) == 1.0
    assert f.value(np.array([0.5]))[0] == pytest.approx(math.exp(1 - 1 / 0.75))


def test_indicator_flags():
    f = get_function("indicator")
    assert f.value(0.3) == 1.0
    assert f.gradient(0.3) == 0.0


def test_vectorized_value():
    f = get_function("gaussian")
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(f.value(xs), np.exp(-xs ** 2 / 2), rtol=1e-15)


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog function"):
        get_function("nope")


def test_catalog_names_are_keys():
    for name, f in catalog().items():
        assert f.name == name


def test_from_poly_one_var():
    f = from_poly(MPoly.from_text("x1^3 - 2*x1"))
    assert f.value(2.0) == pytest.approx(4.0)
    assert f.gradient(2.0) == pytest.approx(10.0)
    assert f.second_derivative(2.0) == pytest.approx(12.0)


def test_from_poly_multivar_gradient():
    f = from_poly(MPoly.from_text("x1^2*x2", 2))
    g = f.gradient(np.array([1.0, 3.0]))
    np.testing.assert_allclose(g, [6.0, 1.0])


def test_scalar_derivative_guard():
    f = from_poly(MPoly.from_text("x1*x2", 2))
    with pytest.raises(ValueError):
        f.derivative(np.array([1.0, 2.0]))
