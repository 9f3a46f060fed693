"""Cached Gauss-Jacobi rules and the graded composite mesh."""
import math
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest

from projdunkl import quadrature
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
    # a string spelling finds the same rule, for kappa and beta alike
    assert get_rule("1/2", 12) is a
    rule = get_rule(F(3, 4), 18, beta=F(1, 2))
    assert get_rule(0.75, 18, beta=0.5) is get_rule("3/4", 18, beta="1/2") is rule


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
    # threads that miss together must still share one rule per key; a short
    # switch interval makes them interleave inside get_rule
    keys = [(F(3, 2), 25)] + [(F(k, 89), 7) for k in range(1, 25)]
    rules = []

    def grab():
        rules.append([get_rule(*key) for key in keys])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(rules) == 8
    assert all(r is first for got in rules for r, first in zip(got, rules[0]))


def test_cache_stays_bounded(monkeypatch):
    # a private table, so the shared one is left as the other tests expect it
    monkeypatch.setattr(quadrature, "_cache", {})
    first = get_rule(F(1, 997), 3)
    for k in range(1, quadrature._CACHE_SIZE + 40):
        get_rule(F(k, 991), 3)
        assert len(quadrature._cache) <= quadrature._CACHE_SIZE
    # the oldest rule went first and is rebuilt on the next lookup
    again = get_rule(F(1, 997), 3)
    assert again is not first
    assert np.array_equal(again.nodes, first.nodes)
    assert get_rule(F(1, 997), 3) is again


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


def test_graded_panels_half_order_slivers():
    # four cells of 24 nodes on [-1, 3]; each end cell is 25 slivers of 12
    depth = 24
    x, w = graded_panels(-1.0, 3.0, 24, depth=depth)
    assert x.size == 2 * 24 + 2 * (depth + 1) * 12
    assert np.all(np.diff(x) > 0) and x[0] > -1.0 and x[-1] < 3.0
    assert float(np.sum(w)) == pytest.approx(4.0, rel=1e-15)
    # the sliver k halvings in from the left end cell's inner edge spans
    # [-1 + 2^-(k+1), -1 + 2^-k] and carries at most 2^-k of the cell's mass
    for k in range(depth):
        inside = (x > -1.0 + 2.0 ** -(k + 1)) & (x < -1.0 + 2.0 ** -k)
        assert np.count_nonzero(inside) == 12
        assert float(np.sum(w[inside])) == pytest.approx(2.0 ** -(k + 1), rel=1e-14)
    # mirror image at the right end
    assert np.allclose(x[-12 * (depth + 1):], 2.0 - x[:12 * (depth + 1)][::-1],
                       rtol=0, atol=1e-15)
    # 12 nodes integrate degree 23 exactly, so degree 11 is exact on every cell
    assert float(np.dot(w, (x + 1.0) ** 11)) == pytest.approx(4.0 ** 12 / 12, rel=1e-13)


def test_sliver_templates_stay_bounded(monkeypatch):
    # a private table, so the shared one is left as the other tests expect it
    monkeypatch.setattr(quadrature, "_slivers", {})
    first = quadrature._sliver_template(24, 3)
    for depth in range(4, 4 + quadrature._SLIVER_CACHE_SIZE + 10):
        graded_panels(0.0, 1.0, 24, depth=depth)
        assert len(quadrature._slivers) <= quadrature._SLIVER_CACHE_SIZE
    again = quadrature._sliver_template(24, 3)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert quadrature._sliver_template(24, 3) is again
