"""Deformed Fourier transform: frozen values, norm bounds, factorization."""
import math

import numpy as np
import pytest

from projdunkl import (
    TransformRequest,
    c0_decay_check,
    factorization_check,
    kummer_transform,
    l1_norm,
    sup_norm_bound_check,
    transform_csv,
    transform_grid,
)
from projdunkl import bold_M_on_imaginary, quadrature, transform
from projdunkl.functions import get_function

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
    ("bump", 0.37, 0.0, "0x1.5b6bdc5b65e08p+0", "0x0.0p+0"),
    ("bump", 0.37, 7.5, "0x1.3705c856b8deep-3", "-0x1.7480000000000p-58"),
    ("bump", 0.37, 120.0, "0x1.677ea72e04878p-7", "0x1.bcbb910000000p-56"),
    ("bump", 2.7, 0.0, "0x1.28530c8cc6876p-2", "0x0.0p+0"),
    ("bump", 2.7, 7.5, "0x1.8cae228d2bb72p-3", "0x1.1400000000000p-62"),
    ("bump", 2.7, 120.0, "0x1.106091237b62cp-6", "0x1.e3bc37fc00000p-61"),
    ("indicator", 0.37, 0.0, "0x1.1fdccc18f8367p+1", "0x0.0p+0"),
    ("indicator", 0.37, 7.5, "0x1.03314ba912c9bp-2", "-0x1.6b00000000000p-58"),
    ("indicator", 0.37, 120.0, "0x1.6960acf4dfb88p-7", "0x1.c3d4000000000p-56"),
    ("indicator", 2.7, 0.0, "0x1.eb0ce373c490cp-2", "0x0.0p+0"),
    ("indicator", 2.7, 7.5, "0x1.db9058bf1f042p-3", "0x1.e000000000000p-64"),
    ("indicator", 2.7, 120.0, "0x1.132daa476814ap-6", "-0x1.7c56000000000p-59"),
    ("gaussian", 0.37, 0.0, "0x1.68c83980a61eep+1", "0x0.0p+0"),
    ("gaussian", 0.37, 7.5, "0x1.80e49e160fcb4p-3", "0x1.700c79bf9bf10p-54"),
    ("gaussian", 0.37, 120.0, "0x1.666c671a8b8cdp-7", "0x1.0000000000000p-58"),
    ("gaussian", 2.7, 0.0, "0x1.33b85d126c83ep-1", "0x0.0p+0"),
    ("gaussian", 2.7, 7.5, "0x1.ccefb2638eaf3p-3", "0x1.86a58512522d0p-59"),
    ("gaussian", 2.7, 120.0, "0x1.128e1fbd353e6p-6", "-0x1.0000000000000p-55"),
    ("ind13", 0.37, 0.0, "0x1.afcb32257451bp+0", "0x0.0p+0"),
    ("ind13", 0.37, 7.5, "0x1.8c2e3df82eaeap-11", "-0x1.e0ad53679a5c6p-8"),
    ("ind13", 0.37, 120.0, "-0x1.e18188fb88ef2p-18", "0x1.67250633b1d3dp-9"),
    ("ind13", 2.7, 0.0, "0x1.7049aa96d36c8p-2", "0x0.0p+0"),
    ("ind13", 2.7, 7.5, "0x1.21cff47bcd3e4p-7", "0x1.1599c27aece2fp-4"),
    ("ind13", 2.7, 120.0, "0x1.19c86ad0b26bap-15", "0x1.175d2e85bc74bp-8"),
]


def test_transform_frozen_bits():
    got = [(name, kappa, lam, v.real.hex(), v.imag.hex())
           for name, kappa, lam, _, _ in FROZEN_BITS
           for v in [kummer_transform(get_function(name), kappa, lam)]]
    assert got == FROZEN_BITS


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
        x, _ = transform._panel_nodes(f, f.support_bound, math.pi / lam)
        assert sum(y.size for y in seen) == np.count_nonzero(f.value(x)) < x.size
        if lam == 1.0:  # the kernel arguments are the nodes themselves
            assert np.all(f.value(np.concatenate(seen)) != 0)


def test_l1_norm_requires_support():
    with pytest.raises(ValueError):
        l1_norm(lambda x: np.exp(-x * x))
    # explicit bound overrides the missing attribute
    v = l1_norm(lambda x: np.ones_like(x), bound=2.0)
    assert v == pytest.approx(4.0, rel=1e-14)


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
    ok, observed, allowed = sup_norm_bound_check(bump, kappa, lams)
    assert ok
    assert observed <= allowed
    # the bound is attained at lam = 0 for a nonnegative function
    assert observed == pytest.approx(allowed - 1e-9, rel=1e-10)


def test_factorization_through_dual_map():
    bump = get_function("bump")
    report = factorization_check(bump, 0.5, [0.5, 2.0])
    assert report.max_diff < 1e-7
    assert len(report.direct) == len(report.through_dual) == 2


def test_factorization_detects_wrong_dual_parameter():
    # the agreement is specific to matching parameters; a perturbed dual side
    # must drift by far more than the check tolerance
    bump = get_function("bump")
    bad = factorization_check(bump, 0.5, [0.5, 2.0], dual_kappa=0.6)
    assert bad.max_diff > 1e-3


def test_factorization_xmin_validation():
    bump = get_function("bump")
    with pytest.raises(ValueError):
        factorization_check(bump, 0.5, [1.0], xmin=2.0)
    with pytest.raises(ValueError):
        factorization_check(bump, 0.5, [1.0], xmin=0.0)


def test_c0_decay():
    bump = get_function("bump")
    report = c0_decay_check(bump, 0.5)
    assert report.ok
    assert report.values[0] > report.values[-1]
    assert report.values[-1] < report.threshold
    # the kernel envelope gives roughly lam^(-1/2) falloff at kappa = 1/2
    assert report.values[-1] < 5e-3


def test_transform_request_runs_catalog_function():
    req = TransformRequest("bump", 0.5, (0.0, 2.0, 5))
    assert np.allclose(req.lambdas, np.linspace(0.0, 2.0, 5))
    out = req.run()
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re,im,abs"
    assert len(lines) == 6
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(1.36184118059976, abs=2e-9)


def test_transform_request_grid_validation():
    with pytest.raises(ValueError):
        TransformRequest("bump", 0.5, (0.0, 1.0, 0)).lambdas
