"""Verification suites: seeded spot checks of every advertised identity.

Each suite emits one CheckRecord row per check. A check is a generator of
cases, one (observed, tolerance, where) triple each; where is a zero-argument
callable naming the case, so a passing case formats no text, and an exact
check yields 1 for a mismatch and 0 for a match against tolerance 0. _check
alone compares: a check fails at the first case where observed <= tolerance
does not hold, a NaN included, and draws no further case. Its witness is
where() followed by "(observed O, tolerance T)" in %.3e; a raised exception
fails the check with the exception's type and message.

Tolerances and fault injection live here only: the library modules return
values, and a check compares them. Fault injection replaces one quantity
with a deliberately wrong one so the suite's sensitivity itself is
testable: a healthy suite must go red under its designated fault.

Reports are deterministic for a fixed seed: no timestamps, no float formatting
that depends on platform, fixed suite order.
"""
from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .functions import get_function
from .intertwine import (
    chi_inverse_numeric,
    chi_inverse_one_var,
    chi_one_var,
    chi_poly_scaled,
    ek_left_inverse_D,
    erdelyi_kober_I,
)
from .kummer import (
    MAX_ARG,
    _bold_M_reference,
    _cf_bold,
    _series_nonbold,
    _series_radius,
    bold_M,
    bold_M_derivative,
    bold_M_jet,
    bold_M_on_imaginary,
    eigen_multivar,
    eigen_rank_one,
    gamma_plus_one,
    generalized_ode_residual,
)
from .opengine import (
    apply_T_numeric,
    apply_T_poly,
    commutator_poly,
    laplacian_expanded,
    laplacian_sum_sq,
    one_var_T,
)
from .polycore import MPoly, directional_derivative, partial_derivative
from .prng import SplitMix64
from .quadrature import get_rule, graded_panels
from .rootgeom import (
    OrthogonalSubsystem,
    RationalVector,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    reflect,
    project,
)
from .transform import kummer_transform, l1_norm, transform_grid, transform_through_dual


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 12345
    faults: frozenset = frozenset()
    workers: int = 1

    def fault(self, name: str) -> bool:
        return name in self.faults


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    ok: bool
    witness: str = ""


def _check(records: list, suite: str, name: str,
           cases: Iterable[tuple[float, float, Callable[[], str]]]) -> None:
    """Record one check: it fails at the first case with observed <= tolerance
    false, a NaN included, and draws no further case."""
    try:
        for observed, tolerance, where in cases:
            if not observed <= tolerance:
                records.append(CheckRecord(suite, name, False, f"{where()} (observed "
                                           f"{observed:.3e}, tolerance {tolerance:.3e})"))
                return
    except Exception as exc:  # a raised invariant is a failure with that witness
        records.append(CheckRecord(suite, name, False,
                                   f"raised {type(exc).__name__}: {exc}"))
        return
    records.append(CheckRecord(suite, name, True))


def _rng(cfg: SuiteConfig, suite: str) -> SplitMix64:
    return SplitMix64(cfg.seed * 1000003 + SUITE_NAMES.index(suite))


def _random_vector(rng: SplitMix64, dim: int, nonzero: bool = True) -> RationalVector:
    while True:
        v = RationalVector(rng.fraction(3, 2) for _ in range(dim))
        if not nonzero or not v.is_zero():
            return v


def _random_poly(rng: SplitMix64, nvars: int, max_deg: int, nterms: int) -> MPoly:
    terms = {}
    for _ in range(nterms):
        deg = rng.randint(0, max_deg)
        e = [0] * nvars
        for _ in range(deg):
            e[rng.randint(0, nvars - 1)] += 1
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + rng.fraction(4, 3, nonzero=True)
    return MPoly(nvars, terms)


def _standard_subsystems() -> list[OrthogonalSubsystem]:
    return [
        build_subsystem_coordinate(3, [Fraction(1, 2), Fraction(1), Fraction(2)]),
        build_subsystem_A(4, [Fraction(1, 2), Fraction(3, 2)]),
        build_subsystem_B(2, [Fraction(1, 2)], [Fraction(1)]),
    ]


# ---- geometry -----------------------------------------------------------------

def suite_geometry(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "geometry")
    rec: list[CheckRecord] = []
    dim = 3
    base = [RationalVector([1, -1, 0]), RationalVector([1, 1, 0]),
            RationalVector([0, 0, 1])]
    if cfg.fault("geometry"):
        base[0] = base[0] + RationalVector.unit(1, dim).scale(Fraction(1, 97))

    def involution():
        for _ in range(5):
            alpha = _random_vector(rng, dim)
            x = _random_vector(rng, dim, nonzero=False)
            yield (reflect(reflect(x, alpha), alpha) != x, 0,
                   lambda: f"s_a s_a x != x at alpha={alpha}, x={x}")

    def wall():
        for _ in range(5):
            alpha = _random_vector(rng, dim)
            x = _random_vector(rng, dim, nonzero=False)
            t = project(x, alpha)
            yield (t.dot(alpha) != 0, 0,
                   lambda: f"<tau x, alpha> = {t.dot(alpha)} at alpha={alpha}, x={x}")
            yield (project(t, alpha) != t, 0,
                   lambda: f"tau not idempotent at alpha={alpha}, x={x}")

    def midpoint():
        for _ in range(5):
            alpha = _random_vector(rng, dim)
            x = _random_vector(rng, dim, nonzero=False)
            yield (project(x, alpha) != (x + reflect(x, alpha)).scale(Fraction(1, 2)), 0,
                   lambda: f"tau != (id + s)/2 at alpha={alpha}, x={x}")

    def orthogonality():
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                d = base[i].dot(base[j])
                yield d != 0, 0, lambda: f"<alpha_{i + 1}, alpha_{j + 1}> = {d}"

    def decomposition():
        for _ in range(5):
            xi = _random_vector(rng, dim, nonzero=False)
            coeffs = [xi.dot(a) / a.norm_sq() for a in base]
            hat = xi
            for c, a in zip(coeffs, base):
                hat = hat - a.scale(c)
            for k, a in enumerate(base):
                yield (hat.dot(a) != 0, 0,
                       lambda: f"<xi_hat, alpha_{k + 1}> = {hat.dot(a)} for xi={xi}")

    def json_roundtrip():
        for sub in _standard_subsystems():
            yield (OrthogonalSubsystem.from_json(sub.to_json()) != sub, 0,
                   lambda: f"roundtrip mismatch for {sub.to_json()}")

    _check(rec, "geometry", "reflection-involution", involution())
    _check(rec, "geometry", "projection-wall", wall())
    _check(rec, "geometry", "projection-midpoint", midpoint())
    _check(rec, "geometry", "root-orthogonality", orthogonality())
    _check(rec, "geometry", "direction-decomposition", decomposition())
    _check(rec, "geometry", "json-roundtrip", json_roundtrip())
    return rec


# ---- commutativity ---------------------------------------------------------------

def suite_commutativity(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "commutativity")
    rec: list[CheckRecord] = []
    faulted = cfg.fault("commutativity")

    for sub in _standard_subsystems():
        name = f"commutator-dim{sub.dim}-{sub.nroots}roots"

        def run(sub=sub):
            perturbed = None
            if faulted:
                kap = list(sub.kappas)
                kap[0] += Fraction(1, 10)
                perturbed = OrthogonalSubsystem(sub.dim, sub.roots, kap)
            for _ in range(4):
                xi = _random_vector(rng, sub.dim)
                eta = _random_vector(rng, sub.dim)
                p = _random_poly(rng, sub.dim, 4, 5)
                if perturbed is None:
                    c = commutator_poly(sub, xi, eta, p)
                else:
                    # mixed multiplicities between the two factors
                    c = (apply_T_poly(sub, xi, apply_T_poly(perturbed, eta, p))
                         - apply_T_poly(sub, eta, apply_T_poly(perturbed, xi, p)))
                yield (not c.is_zero(), 0,
                       lambda: (f"[T_xi, T_eta] p = {c.to_text()[:120]} for xi={xi}, "
                                f"eta={eta}, p={p.to_text()[:80]}"))

        _check(rec, "commutativity", name, run())
    return rec


# ---- intertwining -----------------------------------------------------------------

def suite_intertwining(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "intertwining")
    rec: list[CheckRecord] = []
    faulted = cfg.fault("intertwining")

    for sub in _standard_subsystems():
        name = f"chain-rule-dim{sub.dim}-{sub.nroots}roots"
        # faulted: T on the left loses the first root's difference term
        lhs_sub = (OrthogonalSubsystem(sub.dim, sub.roots[1:], sub.kappas[1:])
                   if faulted else sub)

        def run(sub=sub, lhs_sub=lhs_sub):
            for _ in range(6):
                p = _random_poly(rng, sub.dim, 5, 4)
                xi = _random_vector(rng, sub.dim)
                img, _ = chi_poly_scaled(sub, p)
                lhs = apply_T_poly(lhs_sub, xi, img)
                rhs, _ = chi_poly_scaled(sub, directional_derivative(p, xi))
                yield (lhs != rhs, 0,
                       lambda: (f"T(chi p) != chi(d p) for p={p.to_text()[:80]}, xi={xi}; "
                                f"difference {(lhs - rhs).to_text()[:120]}"))

        _check(rec, "intertwining", name, run())
    return rec


# ---- inverse ------------------------------------------------------------------------

def suite_inverse(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "inverse")
    rec: list[CheckRecord] = []
    faulted = cfg.fault("inverse")
    kappas = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    bump = Fraction(1, 10) if faulted else Fraction(0)

    def monomials():
        for kap in kappas:
            for m in range(7):
                x_m = MPoly.monomial((m,))
                back = chi_inverse_one_var(chi_one_var(x_m, kap), kap + bump)
                yield (back != x_m, 0,
                       lambda: (f"D(chi x^{m}) coefficient "
                                f"{back.scale * back.poly.terms.get((m,), 0)} at kappa={kap}"))

    def ek_roundtrip():
        for gamma in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for delta in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                p = _random_poly(rng, 1, 5, 3)
                back = ek_left_inverse_D(erdelyi_kober_I(p, gamma, delta),
                                         gamma, delta + bump)
                yield (back != p, 0,
                       lambda: (f"D I != id for gamma={gamma}, delta={delta}, "
                                f"p={p.to_text()[:60]}"))

    def numeric_exp():
        # chi(exp) has the kernel's integral form, so its jet is available
        for kap in (0.5, 1.5, 2.5):
            kk = kap + float(bump)
            # kk is never an integer, so each callable sees a node array
            derivs = [lambda t, n=n, k=kap: bold_M_jet(k, t, n)[n].real
                      for n in range(4)]
            for x in (0.3, 1.0, -0.75):
                got = chi_inverse_numeric(kk, derivs, x)
                yield (abs(got - math.exp(x)), 1e-8,
                       lambda: f"inverse of chi(exp) = {got!r} != e^{x} (kappa={kap})")

    _check(rec, "inverse", "monomial-roundtrip", monomials())
    _check(rec, "inverse", "fractional-roundtrip", ek_roundtrip())
    _check(rec, "inverse", "numeric-exp", numeric_exp())
    return rec


# ---- kummer --------------------------------------------------------------------------

_KERNEL_GOLDENS = {
    (0.5, 1j): 0.84605678672415291 + 0.66968425957766357j,
    (0.5, 30j): -0.10795271230479536 - 0.12867731483578215j,
    (1.0, 5j): -0.19178485493262769 + 0.14326756290735475j,
    (2.0, 10j): 0.018390715290764525 + 0.1054402111088937j,
    (1.5, 7j): 0.0076600867482442213 + 0.10810141731431469j,
    (0.5, 2.0): 4.9871195441298133,
    (1.0, 1.0): 1.7182818284590452,
    (2.0, -3.0): 0.22775411870754044,
}

_DECAY_GOLDENS = {10.0: 0.33500214248, 100.0: 0.0945433080012, 1000.0: 0.0317328611279}


def suite_kummer(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "kummer")
    rec: list[CheckRecord] = []
    bump = 0.1 if cfg.fault("kummer") else 0.0

    def goldens():
        for (kap, z), want in _KERNEL_GOLDENS.items():
            got = bold_M(kap, z)
            yield (abs(got - want), 5e-13,
                   lambda: f"bold M_{kap}({z}) = {got!r}, expected {want!r}")

    def modulus_bound():
        for kap in (0.5, 1.0, 2.0):
            ys = np.array([rng.uniform(-50, 50) for _ in range(200)])
            worst = float(np.abs(bold_M_on_imaginary(kap, ys)).max()) * gamma_plus_one(kap)
            yield worst, 1.0 + 1e-12, lambda: f"sup |M| on 200 points at kappa={kap}"

    def decay():
        for lam, want in _DECAY_GOLDENS.items():
            got = abs(bold_M(0.5, 1j * lam))
            yield (abs(got - want), 1e-9,
                   lambda: f"|bold M_(1/2)({lam} i)| = {got!r}, expected {want!r}")

    def zero_kappa_exp():
        for _ in range(10):
            z = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
            yield bold_M(0.0, z) != np.exp(z), 0, lambda: f"bold M_0({z}) != exp({z})"

    def derivative_cross():
        # shift identity against the weighted-rule form of the same
        # derivative, d/dz bold M = (e^z / Gamma(kappa)) *
        # integral_0^1 v^(kappa - 1) (1 - v) e^(-z v) dv: the graded end rule
        # on [0, c] and panels two periods of e^(-z v) wide on [c, 1]
        for kap in (0.5, 1.5):
            s, ws = get_rule(12, 4, kap - 1.0)
            for y in (3.0, 12.0, 40.0):
                two_periods = 4.0 * math.pi / y
                c = min(1.0, two_periods) / 2.0
                px, pw = graded_panels(c, 1.0, 24, max_width=two_periods)
                v = np.concatenate([c * s, px])
                w = np.concatenate([c ** kap * ws, pw * px ** (kap - 1.0)])
                via_shift = bold_M_derivative(kap, 1j * y, 1)
                via_rule = (np.exp(1j * y) * complex(np.dot(w, (1.0 - v) * np.exp(-1j * y * v)))
                            / math.gamma(kap))
                yield (abs(via_shift - via_rule), 1e-12,
                       lambda: f"derivative mismatch at kappa={kap}, z={y}i")

    def eigen_residual():
        for kap in (0.5, 1.0, 1.5):
            e = eigen_rank_one(kap, 3.0)
            for x in (0.5, -1.0, 2.0):
                got = one_var_T(kap + bump, e, x)
                yield (abs(got - 3j * e.value(x)), 1e-12,
                       lambda: f"|T E - i lam E| at kappa={kap}, x={x}")

    def ode_residual():
        for kap in (0.5, 1.5):
            for lam in (1.0, 10.0):
                for x in (0.5, -2.0):
                    yield (generalized_ode_residual(kap, lam, x), 1e-10,
                           lambda: f"ode residual at kappa={kap}, lam={lam}, x={x}")

    def regime_switch():
        # the two regime helpers agree on either side of |z| = max(4, kappa)
        for kap in (0.37, 2.0, 80.5):
            for y in (-1.001, -0.999, 0.999, 1.001):
                z = 1j * y * _series_radius(kap)
                series = _series_nonbold(kap, z) / gamma_plus_one(kap)
                cf = _cf_bold(kap, z, cmath.exp, cmath.phase)
                yield (abs(series - cf), 1e-13 * abs(cf),
                       lambda: f"series/continued-fraction gap at kappa={kap}, z={z}")

    def kernel_domain():
        # 16 seeded points against the 40-digit reference: log-uniform kappa
        # in [1e-3, 150] and |z| in [1, 500], every fourth one off the axis
        for i in range(16):
            kap = 10.0 ** rng.uniform(-3.0, math.log10(150.0))
            r = 500.0 ** rng.uniform()
            t = rng.uniform(-MAX_ARG, MAX_ARG) if i % 4 == 3 else math.pi / 2
            z = cmath.rect(r, t)
            ref = _bold_M_reference(kap, z)
            yield (abs(bold_M(kap, z) - ref), 1e-13 * abs(ref),
                   lambda: f"kernel error at kappa={kap!r}, z={z!r}")

    _check(rec, "kummer", "kernel-goldens", goldens())
    _check(rec, "kummer", "modulus-bound", modulus_bound())
    _check(rec, "kummer", "kernel-decay", decay())
    _check(rec, "kummer", "zero-kappa-exp", zero_kappa_exp())
    _check(rec, "kummer", "derivative-crosscheck", derivative_cross())
    _check(rec, "kummer", "eigen-residual", eigen_residual())
    _check(rec, "kummer", "ode-residual", ode_residual())
    _check(rec, "kummer", "regime-switch", regime_switch())
    _check(rec, "kummer", "kernel-domain", kernel_domain())
    return rec


# ---- laplacian ------------------------------------------------------------------------

def suite_laplacian(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "laplacian")
    rec: list[CheckRecord] = []
    faulted = cfg.fault("laplacian")
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]

    def run():
        for n in (2, 3):
            for _ in range(4):
                kappas = [rng.choice(pool) for _ in range(n)]
                # faulted: the expansion sees a shifted first multiplicity
                shifted = [kappas[0] + Fraction(1, 10), *kappas[1:]] if faulted else kappas
                p = _random_poly(rng, n, 5, 5)
                sum_sq = laplacian_sum_sq(p, kappas)
                expanded = laplacian_expanded(p, shifted)
                yield (sum_sq != expanded, 0,
                       lambda: (f"assemblies differ by {(sum_sq - expanded).to_text()[:120]} "
                                f"for kappas={[str(k) for k in kappas]}, p={p.to_text()[:60]}"))

    def classical_limit():
        p = _random_poly(rng, 3, 5, 5)
        lap = MPoly.zero(3)
        for j in range(3):
            lap = lap + partial_derivative(partial_derivative(p, j), j)
        zero = [0, 0, 0]
        yield (laplacian_sum_sq(p, zero) != lap or laplacian_expanded(p, zero) != lap, 0,
               lambda: "zero-multiplicity case disagrees with the plain Laplacian")

    _check(rec, "laplacian", "split-agreement", run())
    _check(rec, "laplacian", "classical-limit", classical_limit())
    return rec


# ---- multivariate eigenfunctions ---------------------------------------------------------

def _eigen_families() -> list[tuple[str, OrthogonalSubsystem]]:
    return [
        ("direct-3", build_subsystem_coordinate(3, [Fraction(1, 2), Fraction(1), Fraction(3, 2)])),
        ("pairs-3", build_subsystem_A(3, [Fraction(1, 2)])),
        ("pairs-4", build_subsystem_A(4, [Fraction(1, 2), Fraction(2)])),
        ("split-2", build_subsystem_B(2, [Fraction(1, 2)], [Fraction(1)])),
        ("split-3", build_subsystem_B(3, [Fraction(3, 2)], [Fraction(1, 2)])),
        # no layout of coordinate or paired roots: the general form alone
        ("skew-3", OrthogonalSubsystem(3, [RationalVector((1, 2, 2)), RationalVector((2, 1, -2))],
                                       [Fraction(3, 7), Fraction(5, 4)])),
    ]


def _point_off_walls(rng: SplitMix64, sub: OrthogonalSubsystem) -> np.ndarray:
    for _ in range(50):
        x = np.array([rng.uniform(-2, 2) for _ in range(sub.dim)])
        ok = True
        for alpha in sub.roots:
            a = np.array(alpha.to_floats())
            if abs(float(np.dot(x, a))) < 0.05 * np.linalg.norm(a):
                ok = False
                break
        if ok:
            return x
    raise RuntimeError("could not sample a point away from the walls")


def suite_multivar_eigen(cfg: SuiteConfig) -> list[CheckRecord]:
    rng = _rng(cfg, "multivar_eigen")
    rec: list[CheckRecord] = []
    fault_shift = 0.1 if cfg.fault("multivar_eigen") else 0.0

    for label, sub in _eigen_families():
        def run(sub=sub):
            lam = [rng.uniform(-2, 2) for _ in range(sub.dim)]
            e = eigen_multivar(sub, lam)
            at_zero = e.value(np.zeros(sub.dim))
            yield abs(at_zero - 1.0), 1e-14, lambda: f"E(0) = {at_zero!r} != 1"
            expected_lam = list(lam)
            expected_lam[0] += fault_shift
            for _ in range(4):
                x = _point_off_walls(rng, sub)
                xi = _random_vector(rng, sub.dim)
                got = apply_T_numeric(sub, xi, e, x)
                want = 1j * sum(l * float(c) for l, c in
                                zip(expected_lam, xi.to_floats())) * e.value(x)
                yield (abs(got - want), 1e-10,
                       lambda: f"|T E - i<lam,xi> E| at x={x.tolist()}, xi={xi}")

        _check(rec, "multivar_eigen", f"eigen-{label}", run())
    return rec


# ---- transform ------------------------------------------------------------------------------

_TRANSFORM_GOLDENS = {
    0.5: {0.0: 1.36184118059976, 1.0: 1.30562788086254,
          3.0: 0.933899306069032, 5.0: 0.497450087277233},
    1.0: {0.0: 1.20690032243788, 1.0: 1.17562313629807,
          3.0: 0.960036602417697, 5.0: 0.671848380136836},
    2.0: {0.0: 0.603450161218938, 1.0: 0.59558714389282,
          3.0: 0.538604620447112, 5.0: 0.450749898828547},
}


def suite_transform(cfg: SuiteConfig) -> list[CheckRecord]:
    rec: list[CheckRecord] = []
    faulted = cfg.fault("transform")
    bump = get_function("bump")

    def goldens():
        for kap, table in _TRANSFORM_GOLDENS.items():
            for lam, want in table.items():
                got = kummer_transform(bump, kap, lam)
                yield (abs(got - want), 2e-9,
                       lambda: f"F_{kap}(bump)({lam}) = {got!r}, expected {want}")

    def zero_frequency():
        l1 = l1_norm(bump)
        for kap in (0.5, 1.0, 2.0):
            got = kummer_transform(bump, kap, 0.0)
            want = l1 / gamma_plus_one(kap)
            yield (abs(got - want), 1e-10,
                   lambda: f"F_{kap}(bump)(0) = {got!r}, expected ||f||_1 / Gamma = {want}")

    def sup_bound():
        lams = [0.5 * k for k in range(11)]
        for kap in (0.5, 1.0):
            # ||f||_1 / Gamma(kappa + 1) with a rounding allowance
            allowed = l1_norm(bump) / gamma_plus_one(kap) + 1e-9
            yield (float(np.max(np.abs(transform_grid(bump, kap, lams)))), allowed,
                   lambda: f"sup |F_{kap}(bump)| on lam = 0, 0.5, ..., 5")

    def factorization():
        lams = [0.5, 2.0]
        # faulted: the dual side sees a shifted multiplicity
        through = transform_through_dual(bump, 0.55 if faulted else 0.5, lams)
        # np.max keeps a NaN at any lam, where Python's max keeps its first value
        yield (float(np.max(np.abs(transform_grid(bump, 0.5, lams) - through))), 1e-10,
               lambda: "factorization gap of F_0.5(bump) at lam = 0.5, 2")

    def decay():
        # high-frequency falloff: |F_0.5 f|(1000) strictly below 0.05 ||f||_1,
        # so the tolerance is the largest double below that threshold
        threshold = 0.05 * l1_norm(bump)
        yield (abs(kummer_transform(bump, 0.5, 1000.0)), math.nextafter(threshold, 0.0),
               lambda: f"|F_0.5(bump)|(1000.0) against {threshold}")

    def classical_limit():
        ind = get_function("indicator")
        got = kummer_transform(ind, 0.0, 2.0)
        yield (abs(got - math.sin(2.0)), 1e-12,
               lambda: f"F_0(indicator)(2) = {got!r}, expected sin(2)")
        got_pi = kummer_transform(ind, 0.0, math.pi)
        yield abs(got_pi), 1e-12, lambda: f"F_0(indicator)(pi) = {got_pi!r}, expected 0"

    _check(rec, "transform", "bump-goldens", goldens())
    _check(rec, "transform", "zero-frequency", zero_frequency())
    _check(rec, "transform", "sup-bound", sup_bound())
    _check(rec, "transform", "factorization", factorization())
    _check(rec, "transform", "c0-decay", decay())
    _check(rec, "transform", "classical-limit", classical_limit())
    return rec


# ---- runner ----------------------------------------------------------------------------------

# the order is the report's and seeds each suite (_rng)
_SUITES: dict[str, Callable[[SuiteConfig], list[CheckRecord]]] = {
    "geometry": suite_geometry,
    "commutativity": suite_commutativity,
    "intertwining": suite_intertwining,
    "inverse": suite_inverse,
    "kummer": suite_kummer,
    "laplacian": suite_laplacian,
    "multivar_eigen": suite_multivar_eigen,
    "transform": suite_transform,
}


SUITE_NAMES = tuple(_SUITES)


@dataclass
class VerificationReport:
    seed: int
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def suite_counts(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for r in self.records:
            passed, failed = out.get(r.suite, (0, 0))
            out[r.suite] = (passed + r.ok, failed + (not r.ok))
        return out

    def to_jsonl(self) -> str:
        lines = [json.dumps({"suite": r.suite, "check": r.check, "ok": r.ok,
                             "witness": r.witness}, sort_keys=True)
                 for r in self.records]
        summary = {"summary": {"seed": self.seed, "ok": self.ok,
                               "suites": {k: {"passed": p, "failed": f}
                                          for k, (p, f) in self.suite_counts().items()}}}
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def console_lines(self) -> list[str]:
        lines = []
        for suite, (passed, failed) in self.suite_counts().items():
            total = passed + failed
            if failed:
                worst = next(r for r in self.records if r.suite == suite and not r.ok)
                lines.append(f"{suite}: FAIL ({failed}/{total} checks failed; "
                             f"first: {worst.check}: {worst.witness})")
            else:
                lines.append(f"{suite}: PASS ({total} checks)")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return lines


def run_suites(names: Sequence[str] | None = None,
               config: SuiteConfig | None = None) -> VerificationReport:
    cfg = config or SuiteConfig()
    selected = list(names) if names else list(SUITE_NAMES)
    for n in selected:
        if n not in _SUITES:
            raise ValueError(f"unknown suite {n!r}; have {sorted(_SUITES)}")
    report = VerificationReport(cfg.seed)
    with ThreadPoolExecutor(max_workers=max(1, min(cfg.workers, len(selected)))) as pool:
        futures = {name: pool.submit(_SUITES[name], cfg) for name in selected}
        for name in selected:  # fixed order, not completion order
            report.records.extend(futures[name].result())
    return report
