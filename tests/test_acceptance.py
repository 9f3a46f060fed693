"""Acceptance gate: the nine headline guarantees, one verdict line each.

Every criterion prints `[PASS] ...` or `[FAIL] ...` with its observed worst
case and wall time; the assertion carries the same line. Budgets are wall-time
ceilings, tolerances are the advertised ones -- neither is adjusted here.
"""
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from projdunkl import (
    MPoly,
    OrthogonalSubsystem,
    RationalVector,
    apply_T_numeric,
    apply_T_poly,
    bold_M,
    bold_M_on_imaginary,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    chi_inverse_numeric,
    chi_inverse_one_var,
    chi_one_var,
    chi_poly_scaled,
    commutator_poly,
    eigen_multivar,
    eigen_rank_one,
    generalized_ode_residual,
    l1_norm,
    laplacian_expanded,
    laplacian_sum_sq,
    one_var_T,
    run_suites,
    transform_grid,
    transform_through_dual,
)
from projdunkl.functions import get_function
from projdunkl.kummer import _bold_M_reference, bold_M_jet, gamma_plus_one
from projdunkl.polycore import directional_derivative
from projdunkl.prng import SplitMix64
from projdunkl.suites import SUITE_NAMES, SuiteConfig


def _verdict(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    ok = ok and elapsed < budget
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    print(line)
    assert ok, line


def _worse(worst: float, err: float) -> float:
    """max(worst, err), NaN once either is NaN: Python's max keeps its first
    value against a NaN, so a NaN error would vanish from the verdict, and
    every verdict's `worst < tol` is false for NaN and inf alike."""
    return float(np.maximum(worst, err))


def _random_vector(rng: SplitMix64, dim: int) -> RationalVector:
    while True:
        v = RationalVector([rng.fraction(3, 2) for _ in range(dim)])
        if not v.is_zero():
            return v


def _random_poly(rng: SplitMix64, nvars: int, max_deg: int, nterms: int) -> MPoly:
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randint(0, nvars - 1)] += 1
        terms[tuple(e)] = rng.fraction(4, 3, nonzero=True)
    return MPoly(nvars, terms)


def test_criterion_1_operators_commute():
    # [T_xi, T_eta] p = 0 exactly for >= 200 random (subsystem, xi, eta, p)
    t0 = time.monotonic()
    rng = SplitMix64(101)
    subs = [
        build_subsystem_A(2, [F(1, 2)]),
        build_subsystem_A(4, [F(1, 2), F(2)]),
        build_subsystem_B(2, [F(1, 2)], [F(3, 2)]),
        build_subsystem_coordinate(3, [F(1), F(1, 2), F(2)]),
    ]
    checked = 0
    failures = 0
    for i in range(240):
        sub = subs[i % len(subs)]
        xi = _random_vector(rng, sub.dim)
        eta = _random_vector(rng, sub.dim)
        p = _random_poly(rng, sub.dim, 5, 6)
        c = commutator_poly(sub, xi, eta, p)
        checked += 1
        failures += not c.is_zero()
    _verdict("commutativity", checked >= 200 and failures == 0,
             f"{checked} random tuples, {failures} nonzero commutators",
             time.monotonic() - t0, 60.0)


def test_criterion_2_intertwining_exact():
    # T_xi(chi p) = chi(d_xi p) exactly on every monomial of degree <= 8
    t0 = time.monotonic()
    kappas = [F(1, 2), F(1), F(3, 2), F(2)]
    directions = [RationalVector.parse("(1, 0)"), RationalVector.parse("(1, -1)")]
    monomials = [MPoly.monomial((i, j), F(1))
                 for i in range(9) for j in range(9 - i)]
    checked = 0
    failures = 0
    for kap in kappas:
        families = [
            build_subsystem_A(2, [kap]),
            build_subsystem_B(2, [kap], [kap]),
            build_subsystem_coordinate(2, [kap, kap]),
        ]
        for sub in families:
            for m in monomials:
                img, _ = chi_poly_scaled(sub, m)
                for xi in directions:
                    lhs = apply_T_poly(sub, xi, img)
                    rhs, _ = chi_poly_scaled(sub, directional_derivative(m, xi))
                    checked += 1
                    failures += lhs != rhs
    _verdict("intertwining", failures == 0,
             f"{checked} monomial cases (deg <= 8, 3 families, 4 multiplicities), "
             f"{failures} mismatches",
             time.monotonic() - t0, 120.0)


def test_criterion_3_inverse_map():
    # exact: inverse(forward(x^m)) = x^m; numeric: the jet inverse recovers exp
    t0 = time.monotonic()
    failures = 0
    cases = 0
    for kap in (F(1, 2), F(1), F(3, 2), F(2), F(5, 2)):
        for m in range(7):
            p = MPoly.monomial((m,), F(1))
            cases += 1
            failures += chi_inverse_one_var(chi_one_var(p, kap), kap) != p
    worst = 0.0
    for kap in (0.5, 1.5):
        n_jet = math.ceil(kap) + 1
        derivs = [lambda t, n=n, k=kap: bold_M_jet(k, t, n)[n].real
                  for n in range(n_jet)]
        for x in (0.5, 1.0, -0.8):
            err = abs(chi_inverse_numeric(kap, derivs, x) - math.exp(x))
            worst = _worse(worst, err)
    _verdict("inverse-map", failures == 0 and worst < 1e-8,
             f"{cases} exact monomial roundtrips, {failures} misses; "
             f"jet inverse of exp worst |err| = {worst:.2e} (tol 1e-08)",
             time.monotonic() - t0, 10.0)


def test_criterion_4_rank_one_eigenfunctions():
    t0 = time.monotonic()
    worst_eig = 0.0
    worst_ode = 0.0
    for kap in (0.5, 1.0, 1.5):
        for lam in (1.0, 3.0, 10.0):
            e = eigen_rank_one(kap, lam)
            for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                worst_eig = _worse(worst_eig,
                                   abs(one_var_T(kap, e, x) - 1j * lam * e.value(x)))
                worst_ode = _worse(worst_ode, generalized_ode_residual(kap, lam, x))
    _verdict("rank-one-eigen", worst_eig < 1e-12 and worst_ode < 1e-10,
             f"eigen residual {worst_eig:.2e} (tol 1e-12), "
             f"second-order residual {worst_ode:.2e} (tol 1e-10)",
             time.monotonic() - t0, 5.0)


def test_criterion_5_kernel_bound_and_agreement():
    t0 = time.monotonic()
    ys = np.linspace(-100.0, 100.0, 1001)
    worst_mod = 0.0
    for kap in (0.5, 1.0, 2.0):
        vals = np.abs(bold_M_on_imaginary(kap, ys)) * math.gamma(kap + 1.0)
        worst_mod = _worse(worst_mod, float(np.max(vals)))
    worst_gap = 0.0
    for kap in (0.5, 1.0, 2.0):
        for y in (2.0, 6.0, 10.0, 30.0, 400.0):  # series, continued fraction
            ref = _bold_M_reference(kap, 1j * y)
            worst_gap = _worse(worst_gap, abs(ref - bold_M(kap, 1j * y)) / abs(ref))
    _verdict("kernel-bound", worst_mod <= 1.0 and worst_gap < 1e-13,
             f"sup |M| = {worst_mod:.15f} on 1001-point grid (bound 1), "
             f"relative gap to 40-digit 1F1 {worst_gap:.2e} (tol 1e-13)",
             time.monotonic() - t0, 10.0)


def test_criterion_6_transform_bounds():
    t0 = time.monotonic()
    bump = get_function("bump")
    ind = get_function("indicator")
    lams = np.linspace(0.0, 5.0, 21).tolist()
    ok_sup = True
    worst_margin = math.inf
    for f in (bump, ind):
        for kap in (0.0, 0.5, 1.0, 2.0):
            observed = np.abs(transform_grid(f, kap, lams))
            allowed = l1_norm(f) / gamma_plus_one(kap) + 1e-9
            ok_sup = ok_sup and bool(np.all(observed <= allowed))
            worst_margin = float(np.minimum(worst_margin, allowed - np.max(observed)))
    worst_fact = 0.0
    fact_lams = [0.0, 0.5, 1.0, 2.0, 3.5, 5.0]
    for kap in (0.5, 2.0):
        gap = np.max(np.abs(transform_grid(bump, kap, fact_lams)
                            - transform_through_dual(bump, kap, fact_lams)))
        worst_fact = _worse(worst_fact, gap)
    _verdict("transform-bounds", ok_sup and worst_fact < 1e-10,
             f"sup-norm bound holds (min margin {worst_margin:.2e}); "
             f"factorization max diff {worst_fact:.2e} (tol 1e-10)",
             time.monotonic() - t0, 60.0)


def test_criterion_7_laplacian_split():
    # sum_j T_j^2 assembled two ways agrees exactly on random polynomials
    t0 = time.monotonic()
    rng = SplitMix64(707)
    kap_pool = [F(0), F(1, 2), F(1)]
    checked = 0
    failures = 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        kappas = [rng.choice(kap_pool) for _ in range(dim)]
        p = _random_poly(rng, dim, 6, 6)
        checked += 1
        failures += laplacian_sum_sq(p, kappas) != laplacian_expanded(p, kappas)
    _verdict("laplacian-split", failures == 0,
             f"{checked} random polynomials (deg <= 6, dim <= 4), "
             f"{failures} mismatches",
             time.monotonic() - t0, 30.0)


def test_criterion_8_multivar_eigenfunctions():
    t0 = time.monotonic()
    rng = SplitMix64(808)
    kap_pool = [F(1, 2), F(1), F(3, 2), F(2)]
    families = []
    for dim in (2, 3, 4, 5):
        pairs = dim // 2
        families.append(build_subsystem_A(dim, [rng.choice(kap_pool)
                                                for _ in range(pairs)]))
        families.append(build_subsystem_coordinate(dim, [rng.choice(kap_pool)
                                                         for _ in range(dim)]))
        if dim % 2 == 0:
            families.append(build_subsystem_B(dim,
                                              [rng.choice(kap_pool) for _ in range(pairs)],
                                              [rng.choice(kap_pool) for _ in range(pairs)]))
    # orthogonal roots in no coordinate or paired layout
    families.append(OrthogonalSubsystem(3, [RationalVector((1, 2, 2)),
                                            RationalVector((2, 1, -2))], [F(3, 7), F(5, 4)]))
    worst = 0.0
    origin_ok = True
    for sub in families:
        lam = [rng.uniform(-2.0, 2.0) for _ in range(sub.dim)]
        e = eigen_multivar(sub, lam)
        origin_ok = origin_ok and abs(e.value([0.0] * sub.dim) - 1.0) < 1e-14
        for _ in range(20):
            while True:
                x = np.array([rng.uniform(-2.0, 2.0) for _ in range(sub.dim)])
                if all(abs(float(np.dot(x, a.to_floats()))) > 0.05
                       for a in sub.roots):
                    break
            xi = _random_vector(rng, sub.dim)
            got = apply_T_numeric(sub, xi, e, x)
            want = e.eigenvalue(xi) * e.value(x)
            worst = _worse(worst, abs(got - want))
    _verdict("multivar-eigen", worst < 1e-10 and origin_ok,
             f"{len(families)} families x 20 points, residual {worst:.2e} "
             f"(tol 1e-10), E(0) = 1 {'holds' if origin_ok else 'fails'}",
             time.monotonic() - t0, 20.0)


def test_criterion_9_suites_catch_faults():
    t0 = time.monotonic()
    silent = []
    witnessless = []
    for name in SUITE_NAMES:
        cfg = SuiteConfig(faults=frozenset([name]))
        report = run_suites([name], config=cfg)
        if report.ok:
            silent.append(name)
        elif not all(r.witness for r in report.records if not r.ok):
            witnessless.append(name)
    _verdict("fault-sensitivity", not silent and not witnessless,
             f"{len(SUITE_NAMES)} designated faults each flip their suite "
             f"with a witness (silent: {silent or 'none'})",
             time.monotonic() - t0, 30.0)


def test_a_non_finite_error_fails_its_verdict():
    # the NaN stays whichever case it came from, and fails every `< tol`
    for errs in ([math.nan, 1e-16], [1e-16, math.nan], [0.0, math.inf]):
        worst = 0.0
        for err in errs:
            worst = _worse(worst, err)
        assert not worst < 1e-8
        with pytest.raises(AssertionError, match=r"^\[FAIL\] probe"):
            _verdict("probe", worst < 1e-8, f"worst {worst}", 0.0, 1.0)
