"""Cached Gauss-Jacobi rules and the graded composite mesh."""
import math
import threading
from fractions import Fraction as F

import numpy as np
import pytest

from projdunkl.quadrature import (
    MAX_ORDER,
    JacobiQuadrature,
    get_rule,
    graded_panels,
    legendre_rule,
)


def beta_moment(kappa, beta, k):
    # integral_0^1 t^(beta + k) (1-t)^(kappa - 1) dt
    return math.exp(math.lgamma(beta + k + 1) + math.lgamma(kappa)
                    - math.lgamma(beta + k + kappa + 1))


@pytest.mark.parametrize("kappa,beta", [(F(1, 2), 0), (1, 0), (F(5, 2), 0),
                                        (1, F(1, 2)), (F(3, 2), 2)])
def test_moments_match_beta_function(kappa, beta):
    rule = get_rule(kappa, 40, beta=beta)
    for k in range(0, 20, 3):
        got = float(np.dot(rule.weights, rule.nodes ** k))
        want = beta_moment(float(kappa), float(beta), k)
        assert got == pytest.approx(want, rel=1e-13)


def test_rule_is_exact_on_polynomials():
    # order n integrates degree 2n - 1 exactly
    rule = get_rule(F(1, 2), 6)
    got = float(np.dot(rule.weights, rule.nodes ** 11))
    assert got == pytest.approx(beta_moment(0.5, 0.0, 11), rel=1e-14)


def test_float_kappa_accepted():
    # numeric layers pass plain floats; binary floats are exact fractions
    a = get_rule(0.5, 12)
    b = get_rule(F(1, 2), 12)
    assert a is b


def test_validation():
    with pytest.raises(ValueError, match="integrable"):
        JacobiQuadrature(F(0), 10)
    with pytest.raises(ValueError, match="integrable"):
        JacobiQuadrature(1, 10, beta=-1)
    with pytest.raises(ValueError, match="order"):
        JacobiQuadrature(1, 0)
    with pytest.raises(ValueError, match="order"):
        JacobiQuadrature(1, MAX_ORDER + 1)
    with pytest.raises(TypeError):
        get_rule(object(), 10)


def test_integrate_callable_and_values():
    rule = get_rule(1, 30)
    assert complex(rule.integrate(lambda t: t * 0 + 1)).real == pytest.approx(1.0, rel=1e-14)
    vals = np.exp(rule.nodes)
    assert rule.integrate_values(vals).real == pytest.approx(math.e - 1, rel=1e-14)


def test_cache_identity_and_threading():
    rules = []

    def grab():
        rules.append(get_rule(F(3, 2), 25))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is rules[0] for r in rules)


def test_legendre_rule_unit_interval():
    nodes, weights = legendre_rule(16)
    assert np.all((nodes > 0) & (nodes < 1))
    assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-15)
    # odd moment about the midpoint vanishes by symmetry
    assert float(np.dot(weights, (nodes - 0.5) ** 3)) == pytest.approx(0.0, abs=1e-17)


def test_graded_panels_weights_sum_to_length():
    x, w = graded_panels(-2.0, 3.0, 16)
    assert float(np.sum(w)) == pytest.approx(5.0, rel=1e-14)
    assert np.all((x > -2.0) & (x < 3.0))


def test_graded_panels_resolve_endpoint_flatness():
    # exp(-1/u) is C-infinity but flat at 0; uniform panels stall on it
    x, w = graded_panels(0.0, 1.0, 24)
    got = float(np.dot(w, np.exp(-1.0 / x)))
    # reference: substitution-free adaptive value
    import scipy.integrate as si
    want, _ = si.quad(lambda u: math.exp(-1.0 / u) if u > 0 else 0.0, 0, 1,
                      epsabs=1e-14, epsrel=1e-14)
    assert got == pytest.approx(want, abs=1e-13)


def test_graded_panels_rejects_empty_range():
    with pytest.raises(ValueError):
        graded_panels(1.0, 1.0, 8)
