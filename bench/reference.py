"""Independent references and output checks for the benchmark workloads.

Nothing here calls `projdunkl` to compute an expected value, except the exact
intertwining identity, which checks one exact map against another. The
transform references are closed forms evaluated with mpmath:

    indicator: F = 2 / Gamma(k+1) * 2F3(1/2, 1; 3/2, (k+1)/2, (k+2)/2; -lam^2/4)
    gaussian:  F = sqrt(2 pi) / Gamma(k+1) * 2F2(1/2, 1; (k+1)/2, (k+2)/2; -lam^2/2)

Errors are scaled by the sup-norm bound ||f||_1 / Gamma(kappa + 1), so the
figure stays meaningful near zeros of F.
"""
from __future__ import annotations

import functools
import json
import math

import mpmath as mp
import numpy as np

from workloads import KAPPA, POLY_DIM, build_subsystem

_DPS = 30
# seeded requests at kappa below this are the small-kappa ones (workloads.py)
SMALL_KAPPA_BELOW = KAPPA[0]
# Gates: a transform output whose worst scaled error of a kind exceeds its
# gate counts as wrong. The worst figures today, 6 seeds of 107 requests:
#   err_scaled              closed form, kappa >= 0.23     2e-13
#   small_kappa_err_scaled  closed form, kappa < 0.23      6e-12
#   lambda0_err_scaled      bump and ind13 at lambda = 0   1.3e-6, a known
#                           defect: the panels of ind13 are not split at its
#                           corner points
GATES = {"err_scaled": 1e-11, "small_kappa_err_scaled": 1e-8, "lambda0_err_scaled": 1e-5}

# F_kappa(bump)(lam) from 50-digit adaptive integration of the series kernel,
# frozen with the package's own transform tests
BUMP_GOLDENS = {
    0.5: {0.0: 1.36184118059976, 1.0: 1.30562788086254,
          3.0: 0.933899306069032, 5.0: 0.497450087277233},
    1.0: {0.0: 1.20690032243788, 1.0: 1.17562313629807,
          3.0: 0.960036602417697, 5.0: 0.671848380136836},
    2.0: {0.0: 0.603450161218938, 1.0: 0.59558714389282,
          3.0: 0.538604620447112, 5.0: 0.450749898828547},
}
BUMP_GOLDEN_TOL = 2e-9
BUMP_GOLDEN_GRID = (0.0, 5.0, 6)

# The accuracy metrics come from a fixed probe, run once per transform_grid
# run: indicator and gaussian on lambda = 0, 1, ..., 120, which reaches
# |z| > 64. The seeded kappas cannot give them: the maximum over a seeded set
# of roundoff-sized errors changed by a factor of 2-6 from seed to seed. The
# probe's moderate kappas stay clear of 0.23-0.28, where the error jumps by
# 3x between nearby kappas and would mask the others.
PROBE_FUNCTIONS = ("indicator", "gaussian")
PROBE_KAPPAS = {"max_err_scaled": (0.37, 0.83, 1.61, 2.7),
                "small_kappa_err_scaled": (0.01, 0.05, 0.13)}
PROBE_GRID = (0.0, 120.0, 121)


def indicator_transform(kappa: float, lam: float) -> float:
    with mp.workdps(_DPS):
        k, lam = mp.mpf(kappa), mp.mpf(lam)
        v = 2 / mp.gamma(k + 1) * mp.hyper(
            [mp.mpf(1) / 2, 1], [mp.mpf(3) / 2, (k + 1) / 2, (k + 2) / 2], -lam**2 / 4)
        return float(v)


def gaussian_transform(kappa: float, lam: float) -> float:
    with mp.workdps(_DPS):
        k, lam = mp.mpf(kappa), mp.mpf(lam)
        v = mp.sqrt(2 * mp.pi) / mp.gamma(k + 1) * mp.hyper(
            [mp.mpf(1) / 2, 1], [(k + 1) / 2, (k + 2) / 2], -lam**2 / 2)
        return float(v)


CLOSED_FORMS = {"indicator": indicator_transform, "gaussian": gaussian_transform}


def _smoothstep(u):
    if u <= 0:
        return mp.mpf(0)
    if u >= 1:
        return mp.mpf(1)
    a, b = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
    return a / (a + b)


@functools.lru_cache(maxsize=None)
def l1_norm(name: str) -> float:
    """||f||_1 of a catalog function, from its definition."""
    with mp.workdps(_DPS):
        if name == "indicator":
            return 2.0
        if name == "gaussian":
            return float(mp.sqrt(2 * mp.pi))
        if name == "bump":
            return float(mp.quad(lambda x: mp.exp(1 - 1 / (1 - x * x)), [-1, 0, 1]))
        if name == "ind13":
            w = mp.mpf(1) / 2
            return float(mp.quad(lambda x: _smoothstep((x - 1) / w) * _smoothstep((3 - x) / w),
                                 [1, 1.5, 2.5, 3]))
    raise ValueError(f"no reference for {name!r}")


def parse_transform_csv(text: str) -> tuple[list[float], list[complex]]:
    lines = text.splitlines()
    if not lines or lines[0] != "lambda,re,im,abs":
        raise ValueError("missing CSV header")
    lams, vals = [], []
    for line in lines[1:]:
        lam, re_, im_, _abs = line.split(",")
        lams.append(float(lam))
        vals.append(complex(float(re_), float(im_)))
    return lams, vals


def check_transform(function: str, kappa: float, grid, text: str) -> tuple[bool, dict]:
    """(ok, worst scaled error of its kind) for one `transform` output.

    indicator and gaussian are compared with their closed forms at every
    lambda. bump and ind13 have no closed form: they are checked at lambda = 0,
    where F = ||f||_1 / Gamma(kappa + 1) exactly, and against the sup bound.
    """
    lams, vals = parse_transform_csv(text)
    want_lams = np.linspace(*grid[:2], int(grid[2])).tolist()
    if lams != want_lams or lams[0] != 0.0:
        return False, {}
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
        return False, {}
    scale = l1_norm(function) / math.gamma(kappa + 1.0)
    if function in CLOSED_FORMS:
        ref = CLOSED_FORMS[function]
        err = max(abs(v - ref(kappa, lam)) for lam, v in zip(lams, vals)) / scale
        key = "err_scaled" if kappa >= SMALL_KAPPA_BELOW else "small_kappa_err_scaled"
        return err <= GATES[key], {key: err}
    err = abs(vals[0] - scale) / scale
    key = "lambda0_err_scaled"
    within_sup = max(abs(v) for v in vals) <= scale * (1.0 + GATES[key])
    return err <= GATES[key] and within_sup, {key: err}


def check_bump_goldens(pd) -> bool:
    """The frozen bump values, through the same request the workload makes."""
    for kappa, table in BUMP_GOLDENS.items():
        text = pd.TransformRequest("bump", kappa, BUMP_GOLDEN_GRID).run()
        got = dict(zip(*parse_transform_csv(text)))
        if any(abs(got[lam] - want) > BUMP_GOLDEN_TOL for lam, want in table.items()):
            return False
    return True


def probe_transform_accuracy(pd) -> tuple[bool, dict]:
    """Worst scaled closed-form error over the fixed probe, per metric."""
    ok, worst = True, {}
    for metric, kappas in PROBE_KAPPAS.items():
        for name in PROBE_FUNCTIONS:
            for kappa in kappas:
                text = pd.TransformRequest(name, kappa, PROBE_GRID).run()
                good, errs = check_transform(name, kappa, PROBE_GRID, text)
                ok = ok and good
                err = max(errs.values()) if errs else math.inf
                worst[metric] = max(worst.get(metric, 0.0), err)
    return ok, worst


def check_poly(pd, case, text: str) -> bool:
    """Exact intertwining identity T_xi(chi p) == chi(d_xi p), term by term."""
    chi_text, t_text = text.splitlines()
    sub = build_subsystem(pd, case)
    p = pd.MPoly.from_text(case.poly, nvars=POLY_DIM)
    xi = pd.RationalVector.parse(case.xi)
    img, _ = pd.chi_poly_scaled(sub, p)
    if pd.MPoly.from_text(chi_text, nvars=POLY_DIM) != img:
        return False
    want, _ = pd.chi_poly_scaled(sub, pd.directional_derivative(p, xi))
    return pd.MPoly.from_text(t_text, nvars=POLY_DIM) == want


def check_verify(suite_seed: int, text: str, suite_names) -> bool:
    """The report passes, covers every suite and carries its own seed."""
    summary = json.loads(text.splitlines()[-1])["summary"]
    return (summary["ok"] is True and summary["seed"] == suite_seed
            and sorted(summary["suites"]) == sorted(suite_names))


def check_fault_goes_red(pd, suite: str, seed: int) -> bool:
    """A suite run with its designated fault must fail."""
    report = pd.run_suites([suite], pd.SuiteConfig(seed=seed, faults=frozenset([suite])))
    return not report.ok
