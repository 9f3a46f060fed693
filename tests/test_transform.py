"""Deformed Fourier transform: frozen values, norm bounds, factorization."""
import math
import re

import mpmath as mp
import numpy as np
import pytest

from projdunkl import (
    TransformRequest,
    dual_chi,
    kummer_transform,
    l1_norm,
    transform_csv,
    transform_grid,
    transform_through_dual,
)
from projdunkl import bold_M_on_imaginary, quadrature, transform
from projdunkl import functions
from projdunkl.functions import get_function
from projdunkl.kummer import gamma_plus_one

# F_kappa(bump)(lam) from 50-digit adaptive integration of the series kernel
BUMP_GOLDENS = {
    0.5: [(0.0, 1.36184118059976), (1.0, 1.30562788086254),
          (3.0, 0.933899306069032), (5.0, 0.497450087277233)],
    1.0: [(0.0, 1.20690032243788), (1.0, 1.17562313629807),
          (3.0, 0.960036602417697), (5.0, 0.671848380136836)],
    2.0: [(0.0, 0.603450161218938), (1.0, 0.59558714389282),
          (3.0, 0.538604620447112), (5.0, 0.450749898828547)],
}


@pytest.mark.parametrize("kappa", sorted(BUMP_GOLDENS))
def test_transform_golden_values(kappa):
    bump = get_function("bump")
    for lam, want in BUMP_GOLDENS[kappa]:
        got = kummer_transform(bump, kappa, lam)
        # the transform of an even real function against this kernel has a
        # real part carrying all the mass at these spectral points
        assert abs(got.real - want) < 2e-9
        assert abs(got - want) < 2e-9


def test_transform_zero_frequency_is_scaled_mass():
    # at lam = 0 the kernel is the constant 1/Gamma(kappa+1); ind13 has mass
    # 1.5 and corners inside its support, where the mesh must split
    bump = get_function("bump")
    ind13 = get_function("ind13")
    for kappa in (0.5, 1.0, 2.0):
        for f, mass in ((bump, l1_norm(bump)), (ind13, 1.5)):  # both >= 0
            got = kummer_transform(f, kappa, 0.0)
            want = mass / math.gamma(kappa + 1.0)
            assert got.real == pytest.approx(want, rel=1e-12)
            assert abs(got.imag) < 1e-15


def test_classical_limit_hard_edges():
    # kappa = 0 on the indicator of [-1, 1]: F_0(lam) = 2 sin(lam) / lam
    ind = get_function("indicator")
    got = kummer_transform(ind, 0.0, 2.0)
    assert abs(got - math.sin(2.0)) < 1e-12
    got_pi = kummer_transform(ind, 0.0, math.pi)
    assert abs(got_pi) < 1e-12


def test_l1_norm_frozen_value():
    assert l1_norm(get_function("bump")) == pytest.approx(
        1.2069003224378762, abs=1e-13)
    assert l1_norm(get_function("ind13")) == pytest.approx(1.5, abs=1e-13)


def test_transform_adds_no_quadrature_rule():
    # the kernel needs no kappa-dependent rule, so fresh kappa leave the
    # rule cache as the first call left it; the keys are compared, so a new
    # rule shows even where it would evict an old one from a full table
    bump = get_function("bump")
    kummer_transform(bump, 0.5, 30.0)
    before = set(quadrature._cache)
    for kappa in (0.137, 0.613, 1.29, 2.71, 7.77):
        kummer_transform(bump, kappa, 30.0)
    assert set(quadrature._cache) <= before


# exact outputs, (function, kappa, lam, re, im) as float.hex, pinned so that a
# change of the kernel's depth or of which nodes it visits shows in the last bit
FROZEN_BITS = [
    ("bump", 0.37, 0.0, "0x1.5b6bdc5b65e09p+0", "0x0.0p+0"),
    ("bump", 0.37, 7.5, "0x1.3705c856b8defp-3", "0x1.f000000000000p-59"),
    ("bump", 0.37, 120.0, "0x1.677ea72e0486ep-7", "-0x1.9c00000000000p-55"),
    ("bump", 2.7, 0.0, "0x1.28530c8cc6876p-2", "0x0.0p+0"),
    ("bump", 2.7, 7.5, "0x1.8cae228d2bb72p-3", "0x1.f800000000000p-62"),
    ("bump", 2.7, 120.0, "0x1.106091237b62cp-6", "0x1.6000000000000p-61"),
    ("indicator", 0.37, 0.0, "0x1.1fdccc18f8368p+1", "0x0.0p+0"),
    ("indicator", 0.37, 7.5, "0x1.03314ba912c9cp-2", "0x1.1400000000000p-58"),
    ("indicator", 0.37, 120.0, "0x1.6960acf4dfb65p-7", "-0x1.4800000000000p-55"),
    ("indicator", 2.7, 0.0, "0x1.eb0ce373c490bp-2", "0x0.0p+0"),
    ("indicator", 2.7, 7.5, "0x1.db9058bf1f042p-3", "-0x1.3000000000000p-60"),
    ("indicator", 2.7, 120.0, "0x1.132daa476814ap-6", "-0x1.b000000000000p-62"),
    ("gaussian", 0.37, 0.0, "0x1.68c83980a61edp+1", "0x0.0p+0"),
    ("gaussian", 0.37, 7.5, "0x1.80e49e160fcc0p-3", "-0x1.c000000000000p-53"),
    ("gaussian", 0.37, 120.0, "0x1.666c671a8b8e4p-7", "0x1.0000000000000p-57"),
    ("gaussian", 2.7, 0.0, "0x1.33b85d126c83ep-1", "0x0.0p+0"),
    ("gaussian", 2.7, 7.5, "0x1.ccefb2638eaf4p-3", "-0x1.4000000000000p-60"),
    ("gaussian", 2.7, 120.0, "0x1.128e1fbd353e6p-6", "-0x1.8000000000000p-64"),
    ("ind13", 0.37, 0.0, "0x1.afcb32257451cp+0", "0x0.0p+0"),
    ("ind13", 0.37, 7.5, "0x1.8c2e3df82e95ap-11", "-0x1.e0ad53679a5d6p-8"),
    ("ind13", 0.37, 120.0, "-0x1.e18188fb94300p-18", "0x1.67250633b1e31p-9"),
    ("ind13", 2.7, 0.0, "0x1.7049aa96d36c8p-2", "0x0.0p+0"),
    ("ind13", 2.7, 7.5, "0x1.21cff47bcd3e8p-7", "0x1.1599c27aece2ep-4"),
    ("ind13", 2.7, 120.0, "0x1.19c86ad0b26b7p-15", "0x1.175d2e85bc74ap-8"),
]


def test_transform_frozen_bits():
    got = [(name, kappa, lam, v.real.hex(), v.imag.hex())
           for name, kappa, lam, _, _ in FROZEN_BITS
           for v in [kummer_transform(get_function(name), kappa, lam)]]
    assert got == FROZEN_BITS


def _closed_form(name, kappa, lam):
    """F_kappa f(lam) for indicator and gaussian as hypergeometric series."""
    k, lam, half = mp.mpf(kappa), mp.mpf(lam), mp.mpf(1) / 2
    if name == "indicator":
        v = 2 * mp.hyper([half, 1], [3 * half, (k + 1) / 2, (k + 2) / 2], -lam**2 / 4)
    else:
        v = mp.sqrt(2 * mp.pi) * mp.hyper([half, 1], [(k + 1) / 2, (k + 2) / 2],
                                          -lam**2 / 2)
    return complex(v / mp.gamma(k + 1))


def _smoothstep_mp(u):
    if u <= 0:
        return mp.mpf(0)
    if u >= 1:
        return mp.mpf(1)
    a, b = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
    return a / (a + b)


def _quad_reference(name, kappa, lam):
    """F_kappa f(lam) by mpmath.quad over the pieces of f, cut every two periods."""
    if name == "bump":  # even and real: twice the real part over [0, 1]
        cuts = [0, 1]

        def f(x):
            return mp.exp(1 - 1 / (1 - x * x)) if x < 1 else 0
    else:  # ind13 vanishes on [-3, 1]
        cuts = [1, 1.5, 2.5, 3]

        def f(x):
            return _smoothstep_mp(2 * (x - 1)) * _smoothstep_mp(2 * (3 - x))
    pts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, math.ceil((hi - lo) * lam / (4 * math.pi)))
        pts.extend(mp.linspace(lo, hi, n + 1)[:-1])
    pts.append(mp.mpf(cuts[-1]))
    k = mp.mpf(kappa)
    v = mp.quad(lambda x: f(x) * mp.hyp1f1(1, k + 1, 1j * lam * x), pts) / mp.gamma(k + 1)
    return complex(2 * v.real) if name == "bump" else complex(v)


def test_transform_against_independent_references():
    # closed forms on a lam grid for the two functions that have one, 20-digit
    # quadrature at the frozen points for the other two; errors are scaled by
    # ||f||_1 / Gamma(kappa + 1), the sup bound of |F|, as in the benchmark
    lams = np.arange(0.0, 301.0, 5.0).tolist()
    closed, quad = {}, {}
    with mp.workdps(30):
        for name, l1 in (("indicator", 2.0), ("gaussian", math.sqrt(2 * math.pi))):
            for kappa in (0.01, 0.37, 2.7, 7.3):
                got = transform_grid(get_function(name), kappa, lams)
                want = np.array([_closed_form(name, kappa, lam) for lam in lams])
                closed[name, kappa] = (np.max(np.abs(got - want))
                                       * math.gamma(kappa + 1.0) / l1)
    with mp.workdps(20):
        for name, l1 in (("bump", 1.2069003224378762), ("ind13", 1.5)):
            for kappa in (0.37, 2.7):
                for lam in (0.0, 7.5, 120.0):
                    err = abs(kummer_transform(get_function(name), kappa, lam)
                              - _quad_reference(name, kappa, lam))
                    quad[name, kappa, lam] = err * math.gamma(kappa + 1.0) / l1
    assert max(closed.values()) <= 3.5e-15, closed
    assert max(quad.values()) <= 2e-15, quad


# nodes of the mesh kummer_transform builds: panels of two periods with 24
# nodes, and 25 half-order slivers at each end of each piece of the support
NODE_BUDGET = {
    7.5: {"bump": 744, "indicator": 744, "gaussian": 792, "ind13": 2640},
    120.0: {"bump": 1032, "indicator": 1032, "gaussian": 4224, "ind13": 3624},
}


@pytest.mark.parametrize("lam", sorted(NODE_BUDGET))
def test_transform_node_budget(monkeypatch, lam):
    sizes = []

    def panels(*args, **kwargs):
        x, w = quadrature.graded_panels(*args, **kwargs)
        sizes.append(x.size)
        return x, w

    monkeypatch.setattr(transform, "graded_panels", panels)
    for name, budget in NODE_BUDGET[lam].items():
        sizes.clear()
        # a private, empty mesh table, so each call builds its mesh
        monkeypatch.setattr(transform, "_meshes", {})
        kummer_transform(get_function(name), 0.37, lam)
        assert 0 < sum(sizes) <= budget, (name, sum(sizes))


def test_transform_grid_builds_one_mesh_per_cell_count(monkeypatch):
    # below lam = 16 pi every bump panel is a/4 wide, so the grid's 64
    # transforms share one mesh
    calls = []

    def panels(*args, **kwargs):
        calls.append(args)
        return quadrature.graded_panels(*args, **kwargs)

    monkeypatch.setattr(transform, "graded_panels", panels)
    monkeypatch.setattr(transform, "_meshes", {})
    transform_grid(get_function("bump"), 0.37, np.linspace(0.0, 40.0, 64))
    assert len(calls) == 1


def test_mesh_table_stays_bounded_and_read_only(monkeypatch):
    # every kept mesh is the one a fresh build gives, whatever filled the
    # table before; a caller cannot write into a kept mesh
    monkeypatch.setattr(transform, "_meshes", {})
    for name in ("bump", "gaussian", "ind13"):
        f = get_function(name)
        for lam in np.linspace(0.0, 300.0, 41):
            width = transform._panel_width(lam)
            x, w = transform._panel_nodes(f, f.support_bound, width)
            assert len(transform._meshes) <= transform._MESH_CACHE_SIZE
            assert not x.flags.writeable and not w.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0
            kept = dict(transform._meshes)
            monkeypatch.setattr(transform, "_meshes", {})
            fresh = transform._panel_nodes(f, f.support_bound, width)
            assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
            monkeypatch.setattr(transform, "_meshes", kept)


def test_transform_rejects_non_finite_lambda():
    bump = get_function("bump")
    for lam in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"lam = {lam} is not finite"):
            kummer_transform(bump, 0.37, lam)
    with pytest.raises(ValueError, match="grid stop = nan is not finite"):
        TransformRequest("bump", 0.37, (0.0, math.nan, 3)).lambdas
    with pytest.raises(ValueError, match="grid start = -inf is not finite"):
        TransformRequest("bump", 0.37, (-math.inf, 1.0, 3)).run()


@pytest.mark.parametrize("name", ["ind13", "bump"])
def test_transform_skips_kernel_where_f_vanishes(monkeypatch, name):
    # ind13 is 0 on its whole [-3, 1] piece, bump underflows next to its ends
    f = get_function(name)
    seen = []

    def kernel(kappa, y):
        seen.append(np.array(y))
        return bold_M_on_imaginary(kappa, y)

    monkeypatch.setattr(transform, "bold_M_on_imaginary", kernel)
    for lam in (1.0, 7.5, 120.0):
        seen.clear()
        kummer_transform(f, 0.37, lam)
        x, _ = transform._panel_nodes(f, f.support_bound, transform._panel_width(lam))
        assert sum(y.size for y in seen) == np.count_nonzero(f.value(x)) < x.size
        if lam == 1.0:  # the kernel arguments are the nodes themselves
            assert np.all(f.value(np.concatenate(seen)) != 0)


def test_l1_norm_requires_support():
    with pytest.raises(ValueError):
        l1_norm(lambda x: np.exp(-x * x))
    # explicit bound overrides the missing attribute
    v = l1_norm(lambda x: np.ones_like(x), bound=2.0)
    assert v == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 0.0])
@pytest.mark.parametrize("call", [
    lambda f, a: dual_chi(0.5, f, 0.5, support_bound=a),
    lambda f, a: kummer_transform(f, 0.5, 1.0, bound=a),
    lambda f, a: l1_norm(f, bound=a),
    lambda f, a: transform_through_dual(f, 0.5, [1.0], bound=a),
], ids=["dual_chi", "kummer_transform", "l1_norm", "transform_through_dual"])
def test_support_bound_must_be_positive_and_finite(call, bad):
    with pytest.raises(ValueError, match=re.escape(f"support bound {bad} ")):
        call(get_function("bump"), bad)


def test_transform_grid_and_csv_format():
    bump = get_function("bump")
    lams = [0.0, 1.0, 2.0]
    grid = transform_grid(bump, 0.5, lams)
    assert grid.shape == (3,)
    out = transform_csv(bump, 0.5, lams)
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re,im,abs"
    assert len(lines) == 4
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[1]) == pytest.approx(grid[0].real, rel=1e-15)
    assert float(row[3]) == pytest.approx(abs(grid[0]), rel=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
def test_sup_norm_bound(kappa):
    bump = get_function("bump")
    lams = np.linspace(0.0, 5.0, 41).tolist()
    observed = np.abs(transform_grid(bump, kappa, lams))
    allowed = l1_norm(bump) / gamma_plus_one(kappa)
    assert np.all(observed <= allowed + 1e-9)
    # the bound is attained at lam = 0 for a nonnegative function
    assert observed.max() == pytest.approx(allowed, rel=1e-10)


def _factorization_gap(f, kappa, lams, dual_kappa=None, **kwargs):
    """max |F_kappa f - F_0(dual chi f)| over lams, the dual side at dual_kappa."""
    through = transform_through_dual(f, kappa if dual_kappa is None else dual_kappa,
                                     lams, **kwargs)
    return float(np.max(np.abs(transform_grid(f, kappa, lams) - through)))


def test_factorization_through_dual_map():
    bump = get_function("bump")
    through = transform_through_dual(bump, 0.5, [0.5, 2.0])
    assert through.shape == (2,) and through.dtype == complex
    assert _factorization_gap(bump, 0.5, [0.5, 2.0]) < 1e-10


def test_factorization_detects_wrong_dual_parameter():
    # the agreement is specific to matching parameters; a perturbed dual side
    # must drift by far more than the check tolerance
    bump = get_function("bump")
    assert _factorization_gap(bump, 0.5, [0.5, 2.0], dual_kappa=0.6) > 1e-3


@pytest.mark.parametrize("kappa", [0.37, 0.5, 1.3, 2.0, 2.7])
def test_factorization_gate_over_domain(kappa):
    bump = get_function("bump")
    assert _factorization_gap(bump, kappa, [0.0, 0.5, 1.0, 2.0, 3.5, 5.0]) < 1e-10


def test_factorization_core_remainder_is_second_order():
    # with the core in closed form what is left is O(xmin^2): a decade of
    # xmin takes about two decades off the gap
    bump = get_function("bump")
    coarse = _factorization_gap(bump, 0.5, [0.5, 2.0], xmin=1e-4)
    fine = _factorization_gap(bump, 0.5, [0.5, 2.0], xmin=1e-5)
    assert 50.0 <= coarse / fine <= 200.0


def test_factorization_rejects_corner_at_zero():
    tent = functions.TestFunction("tent", 1, lambda x: np.maximum(0.0, 1.0 - np.abs(x)),
                                  lambda x: -np.sign(x), 1.0, corners=(-1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="corner at 0"):
        transform_through_dual(tent, 0.5, [1.0])


def test_factorization_rejects_non_positive_kappa():
    # checked before the closed-form core, whose Gamma(kappa) would fail first
    bump = get_function("bump")
    for kappa in (0.0, -0.5):
        with pytest.raises(ValueError, match="kappa must be positive"):
            transform_through_dual(bump, kappa, [1.0])


def test_factorization_xmin_validation():
    bump = get_function("bump")
    with pytest.raises(ValueError):
        transform_through_dual(bump, 0.5, [1.0], xmin=2.0)
    with pytest.raises(ValueError):
        transform_through_dual(bump, 0.5, [1.0], xmin=0.0)


def test_c0_decay():
    bump = get_function("bump")
    values = np.abs(transform_grid(bump, 0.5, [10.0, 100.0, 1000.0]))
    assert values[0] > values[-1]
    assert values[-1] < 0.05 * l1_norm(bump)
    # the kernel envelope gives roughly lam^(-1/2) falloff at kappa = 1/2
    assert values[-1] < 5e-3


def test_transform_request_runs_catalog_function():
    req = TransformRequest("bump", 0.5, (0.0, 2.0, 5))
    assert np.allclose(req.lambdas, np.linspace(0.0, 2.0, 5))
    out = req.run()
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re,im,abs"
    assert len(lines) == 6
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(1.36184118059976, abs=2e-9)


def test_transform_request_at_kappa_where_gamma_overflows():
    # Gamma(kappa) overflows a double below kappa = 5.6e-309; the transform is
    # then the classical one to within rounding
    lams = (0.0, 20.0, 5)
    classical = np.array(transform_grid(get_function("gaussian"), 0.0, np.linspace(*lams).tolist()))
    for kappa in (5e-309, 5e-324):
        rows = TransformRequest("gaussian", kappa, lams).run().strip().split("\n")[1:]
        got = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows])
        assert np.max(np.abs(got - classical)) < 1e-15, kappa


def test_transform_request_grid_validation():
    with pytest.raises(ValueError):
        TransformRequest("bump", 0.5, (0.0, 1.0, 0)).lambdas
