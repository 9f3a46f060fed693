"""The graded rule builder and the graded composite mesh."""
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from projdunkl import quadrature
from projdunkl.quadrature import get_rule, graded_panels
from projdunkl.transform import _digamma


@pytest.mark.parametrize("power", [-0.95, -0.5, 0.0, 0.5, 2.0])
def test_rule_moments(power):
    # integral_0^1 s^(power + k) ds = 1 / (power + k + 1); the 12-node rule
    # is within 2e-15 on every moment at every depth
    for depth in (0, 4, 24):
        s, w = get_rule(12, depth, power)
        assert s.size == 12 * (depth + 1) and np.all(np.diff(s) > 0)
        assert 0.0 < s[0] and s[-1] < 1.0
        for k in range(24):
            got = float(np.dot(w, s ** k))
            assert got == pytest.approx(1.0 / (power + k + 1), rel=1e-14), (depth, k)


@pytest.mark.parametrize("power", [-0.95, -0.5, 0.0, 0.63, 2.0])
@pytest.mark.parametrize("n", [12, 16, 24, 32, 64])
def test_jacobi_cell_matches_40_digit_rule(n, power):
    # mpmath's weight on [-1, 1] is (1 + x)^power; s = (1 + x) / 2 maps it
    # to 2^(power + 1) s^power. Measured: every node within 2^-53 (the bound
    # is one ulp of 1), every weight within 0.53 n^2 1e-16 relative; next to
    # s = 0 a node is accurate in absolute terms, not relative ones
    with mp.workdps(40):
        x, wx = mp.gauss_quadrature(n, "jacobi", 0, power)
        scale = mp.mpf(2) ** -(mp.mpf(power) + 1)
        want_s = np.array([float((1 + v) / 2) for v in x])
        want_w = np.array([float(v * scale) for v in wx])
    s, w = get_rule(n, 0, power)
    assert np.max(np.abs(s - want_s)) <= 2.0 ** -52
    assert np.max(np.abs(w - want_w) / want_w) <= n * n * 1e-16


def test_digamma_matches_mpmath():
    # absolute next to the root 1.4616 of psi, relative away from it
    kappas = np.concatenate([np.geomspace(1e-3, 170.0, 300), np.linspace(1.3, 1.6, 61)])
    for kappa in kappas.tolist():
        with mp.workdps(40):
            want = float(mp.digamma(kappa))
        assert abs(_digamma(kappa) - want) <= 8e-16 * max(1.0, abs(want)), kappa


def beta_moment(kappa, beta, k):
    # integral_0^1 t^(beta + k) (1-t)^(kappa - 1) dt
    return math.exp(math.lgamma(beta + k + 1) + math.lgamma(kappa)
                    - math.lgamma(beta + k + kappa + 1))


@pytest.mark.parametrize("kappa,beta", [(F(1, 2), 0), (1, 0), (F(5, 2), 0),
                                        (1, F(1, 2)), (F(3, 2), 2)])
def test_moments_match_beta_function(kappa, beta):
    # the weight t^beta (1-t)^(kappa-1) of the fractional integrals: [0, 1]
    # split at 1/2, each half on the graded rule toward its own end
    kappa, beta = float(kappa), float(beta)
    s, ws = get_rule(12, 4, beta)
    r, wr = get_rule(12, 4, kappa - 1.0)
    t = np.concatenate([s / 2.0, 1.0 - r / 2.0])
    w = np.concatenate([2.0 ** -(beta + 1.0) * ws * (1.0 - s / 2.0) ** (kappa - 1.0),
                        2.0 ** -kappa * wr * (1.0 - r / 2.0) ** beta])
    for k in range(0, 20, 3):
        got = float(np.dot(w, t ** k))
        assert got == pytest.approx(beta_moment(kappa, beta, k), rel=1e-14)


def test_rule_is_exact_on_polynomials():
    # n nodes integrate s^power times degree 2n - 1 exactly
    s, w = get_rule(6, 0, -0.5)
    got = float(np.dot(w, s ** 11))
    assert got == pytest.approx(1.0 / 11.5, rel=2e-15)


def test_legendre_rule_unit_interval():
    # get_rule(n) is the n-node Gauss-Legendre rule on [0, 1]; at n = 16
    # numpy's weights are 2e-16 off a 40-digit rule, and ours 2.3e-16 off numpy's
    nodes, weights = get_rule(16)
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.allclose(nodes, (x + 1.0) / 2.0, rtol=0, atol=2e-16)
    assert np.allclose(weights, w / 2.0, rtol=0, atol=5e-16)
    assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-15)
    # odd moment about the midpoint vanishes by symmetry
    assert float(np.dot(weights, (nodes - 0.5) ** 3)) == pytest.approx(0.0, abs=1e-17)


@pytest.mark.parametrize("n", [12, 16, 32])
def test_power_zero_rule_is_the_end_cell_of_graded_panels(n, monkeypatch):
    # the Legendre cell [0, 2^-depth] and slivers [2^-(k+1), 2^-k], built as
    # graded_panels built its sliver template, bit for bit
    nodes, weights = get_rule(n)
    for depth in (0, 1, 4, 24):
        edges = np.concatenate([[0.0], 2.0 ** -np.arange(depth, -1, -1)])
        widths = np.diff(edges)
        want_s = (edges[:-1, None] + widths[:, None] * nodes).ravel()
        want_w = (widths[:, None] * weights).ravel()
        s, w = get_rule(n, depth)
        assert np.array_equal(s, want_s) and np.array_equal(w, want_w)
        # graded_panels at order 2n on [0, 4] has the end cell [0, 1]
        monkeypatch.setattr(quadrature, "_PANEL_DEPTH", depth)
        x, xw = graded_panels(0.0, 4.0, 2 * n)
        assert np.array_equal(x[:s.size], s) and np.array_equal(xw[:s.size], w)


def test_package_runs_without_scipy():
    # the rule builder and the dual core need numpy and math only; a fresh
    # interpreter that imports the package, builds a rule and runs a
    # transform must not have loaded scipy on the way
    code = (
        "import sys\n"
        "import projdunkl\n"
        "from projdunkl.functions import get_function\n"
        "from projdunkl.quadrature import get_rule\n"
        "from projdunkl.transform import transform_grid\n"
        "get_rule(7, 3, -0.3)\n"
        "transform_grid(get_function('gaussian'), 0.37, [0.0, 7.5])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_validation():
    for power in (math.nan, -1.0, -1.5, math.inf):
        with pytest.raises(ValueError, match=f"power = {power}"):
            get_rule(12, 4, power)
    with pytest.raises(ValueError, match="n = 0"):
        get_rule(0)
    with pytest.raises(ValueError, match="depth = -1"):
        get_rule(12, -1)


def test_rules_are_read_only():
    s, w = get_rule(12, 4, 0.25)
    with pytest.raises(ValueError):
        s[0] = 0.5
    with pytest.raises(ValueError):
        w[0] = 0.5


def test_cache_identity_and_threading():
    # threads that miss together must still share one rule per key; a short
    # switch interval makes them interleave inside get_rule
    keys = [(25, 3, 0.5)] + [(7, 2, k / 89 - 1.0) for k in range(1, 25)]
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
    first = get_rule(3, 2, 1 / 997 - 1.0)
    for k in range(1, quadrature._CACHE_SIZE + 40):
        get_rule(3, 2, k / 991 - 1.0)
        assert len(quadrature._cache) <= quadrature._CACHE_SIZE
    # the oldest rule went first and is rebuilt on the next lookup
    again = get_rule(3, 2, 1 / 997 - 1.0)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert get_rule(3, 2, 1 / 997 - 1.0) is again


def test_sliver_templates_stay_bounded(monkeypatch):
    # graded_panels keeps its slivers in the one rule table, keyed by depth;
    # many depths must not grow it past its bound
    monkeypatch.setattr(quadrature, "_cache", {})
    first = get_rule(12, 3)
    for depth in range(4, 4 + quadrature._CACHE_SIZE + 10):
        monkeypatch.setattr(quadrature, "_PANEL_DEPTH", depth)
        graded_panels(0.0, 1.0, 24)
        assert len(quadrature._cache) <= quadrature._CACHE_SIZE
    again = get_rule(12, 3)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert get_rule(12, 3) is again


def test_graded_panels_weights_sum_to_length():
    x, w = graded_panels(-2.0, 3.0, 16)
    assert float(np.sum(w)) == pytest.approx(5.0, rel=1e-14)
    assert np.all((x > -2.0) & (x < 3.0))


def test_graded_panels_resolve_endpoint_flatness():
    # exp(-1/u) is C-infinity but flat at 0; uniform panels stall on it
    x, w = graded_panels(0.0, 1.0, 24)
    got = float(np.dot(w, np.exp(-1.0 / x)))
    # reference: tanh-sinh at 30 digits, which never evaluates the end 0
    with mp.workdps(30):
        want = float(mp.quad(lambda u: mp.exp(-1 / u), [0, 1]))
    assert got == pytest.approx(want, abs=1e-15)


def test_graded_panels_rejects_empty_range():
    with pytest.raises(ValueError):
        graded_panels(1.0, 1.0, 8)


def test_graded_panels_half_order_slivers():
    # four cells of 24 nodes on [-1, 3]; each end cell is 25 slivers of 12
    depth = quadrature._PANEL_DEPTH
    assert depth == 24
    x, w = graded_panels(-1.0, 3.0, 24)
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
