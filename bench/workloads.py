"""Seeded request streams for the three benchmark workloads.

Every workload is a closed loop with one client: the next request is made
only after the previous one has returned. A workload draws its requests from
a `random.Random` stream keyed by the run seed, so the same seed gives the
same request sequence, and runs each request through the same public calls
the `projdunkl` command line makes.

This module uses the standard library only and never imports `projdunkl`
itself: the package is passed in as `pd`. That keeps the benchmark's own
imports out of the set-up time, which covers importing `projdunkl` and the
warm-up calls and nothing else.
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator


def import_projdunkl(root: Path):
    """Import the package from the checkout's own `src`, never an installed one."""
    src = root / "src"
    if not (src / "projdunkl" / "__init__.py").is_file():
        raise SystemExit(f"error: no projdunkl sources under {src}")
    sys.path.insert(0, str(src))
    import projdunkl

    if Path(projdunkl.__file__).resolve().parent != (src / "projdunkl").resolve():
        raise SystemExit(f"error: projdunkl was imported from {projdunkl.__file__}")
    return projdunkl


# ---- transform_grid -----------------------------------------------------------

# The supports (1, 1, 8 and 3) times lam_max up to 120 put kernel arguments in
# all three regimes of the kernel evaluator (|z| <= 8, 8 < |z| <= 64, > 64).
TRANSFORM_FUNCTIONS = ("bump", "indicator", "gaussian", "ind13")
# Points per request. Today a request costs about 0.4 ms plus 2.5-3.3 ms per
# point (2 vCPU x86-64 host), so the fixed part is under 1% at this size and
# the figures scale with the grid. A frequency-side transform would instead
# pay a fixed few ms per request (building F_0 f) and little per point, so its
# gain grows with the grid: 64 points is the densest grid that still fits the
# 100 requests a p90 needs into one 20 s run (~0.19 s each), where the
# 501-point grid of the ROADMAP baseline would take 1.5 s per request.
TRANSFORM_POINTS = 64
# every fourth group of four requests uses a small kappa, where the kernel is
# known to be least accurate
SMALL_KAPPA = (0.01, 0.2)
KAPPA = (0.23, 3.0)
LAM_MAX = (20.0, 120.0)


@dataclass(frozen=True)
class TransformCase:
    function: str
    kappa: float
    lam_max: float
    count: int

    @property
    def grid(self) -> tuple[float, float, int]:
        return (0.0, self.lam_max, self.count)


def _non_dyadic(kappa: float) -> float:
    # dyadic multiplicities (0.5, 1.25, ...) hit exact special cases of the
    # kernel; the workload probes the generic case
    while (kappa * 1024).is_integer():
        kappa += 1e-4
    return kappa


def transform_cases(seed: int):
    """Endless request stream: functions in a fixed rotation, the rest drawn."""
    rng = random.Random(f"transform_grid:{seed}")
    i = 0
    while True:
        lo, hi = SMALL_KAPPA if (i // 4) % 4 == 3 else KAPPA
        kappa = _non_dyadic(round(rng.uniform(lo, hi), 4))
        lam_max = round(rng.uniform(*LAM_MAX), 3)
        yield TransformCase(TRANSFORM_FUNCTIONS[i % 4], kappa, lam_max,
                            TRANSFORM_POINTS)
        i += 1


def run_transform(pd, case: TransformCase) -> str:
    """`projdunkl transform --function F --kappa K --grid 0:L:N`."""
    return pd.TransformRequest(case.function, case.kappa, case.grid).run()


def warm_up_transform(pd) -> None:
    for name in TRANSFORM_FUNCTIONS:
        pd.TransformRequest(name, 0.37, (0.0, 100.0, 4)).run()


# ---- exact_poly ---------------------------------------------------------------

POLY_DIM = 6
POLY_MAX_DEGREE = 12
POLY_TERMS = (4, 8)
# multiplicities warm-up has cached; the other ~30% are fresh rationals, so
# block-cache misses make up the latency tail
KAPPA_POOL = (Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(5, 4))
POOL_SHARE = 0.7
SUBSYSTEM_KINDS = ("A", "B", "coordinate")
NKAPPAS = {"A": 3, "B": 6, "coordinate": 6}
POLY_BLOCK = 30
WARM_UP_REQUESTS = 24


@dataclass(frozen=True)
class PolyCase:
    kind: str
    kappas: tuple[Fraction, ...]
    poly: str
    xi: str


def _fresh_kappa(rng: random.Random) -> Fraction:
    while True:
        k = Fraction(rng.randint(1, 60), rng.randint(7, 31))
        if k not in KAPPA_POOL:
            return k


def _poly_text(rng: random.Random, degrees) -> str:
    terms: dict[tuple[int, ...], Fraction] = {}
    for degree in degrees:
        e = [0] * POLY_DIM
        for _ in range(degree):
            e[rng.randrange(POLY_DIM)] += 1
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    parts = []
    for e, c in terms.items():
        if not c:
            continue
        factors = [f"x{i + 1}^{k}" for i, k in enumerate(e) if k]
        mag = f"{abs(c.numerator)}/{c.denominator}"
        parts.append(("- " if c < 0 else "+ ") + "*".join([mag] + factors))
    return " ".join(parts) if parts else "1"


def _xi_text(rng: random.Random) -> str:
    while True:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(POLY_DIM)]
        if any(coords):
            return "(" + ", ".join(str(c) for c in coords) + ")"


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def poly_cases(seed: int, pool_share: float = POOL_SHARE):
    """Endless request stream, drawn in stratified blocks.

    Within a block the subsystem kinds rotate, and the term counts, the term
    degrees and the fresh-or-pooled choice of each multiplicity are
    stratified draws. Every block then holds nearly the same mix of work,
    whatever the seed, which keeps the latency percentiles of one run close
    to those of another.
    """
    rng = random.Random(f"exact_poly:{seed}")
    while True:
        kinds = SUBSYSTEM_KINDS * (POLY_BLOCK // len(SUBSYSTEM_KINDS))
        slots = [NKAPPAS[k] for k in kinds]
        fresh = iter(_stratified(rng, sum(slots)))
        lo, hi = POLY_TERMS
        nterms = [lo + int(u * (hi - lo + 1)) for u in _stratified(rng, len(kinds))]
        degrees = iter(int(u * (POLY_MAX_DEGREE + 1)) for u in _stratified(rng, sum(nterms)))
        for kind, nk, nt in zip(kinds, slots, nterms):
            kappas = tuple(rng.choice(KAPPA_POOL) if next(fresh) < pool_share
                           else _fresh_kappa(rng) for _ in range(nk))
            poly = _poly_text(rng, [next(degrees) for _ in range(nt)])
            yield PolyCase(kind, kappas, poly, _xi_text(rng))


def build_subsystem(pd, case: PolyCase):
    if case.kind == "A":
        return pd.build_subsystem_A(POLY_DIM, case.kappas)
    if case.kind == "B":
        return pd.build_subsystem_B(POLY_DIM, case.kappas[0::2], case.kappas[1::2])
    return pd.build_subsystem_coordinate(POLY_DIM, case.kappas)


def run_poly(pd, case: PolyCase) -> str:
    """`projdunkl eval chi` on the polynomial, then `eval T` on its image."""
    sub = build_subsystem(pd, case)
    p = pd.MPoly.from_text(case.poly, nvars=POLY_DIM)
    img, _scale = pd.chi_poly_scaled(sub, p)
    chi_text = img.to_text()
    xi = pd.RationalVector.parse(case.xi)
    t_img = pd.apply_T_poly(sub, xi, pd.MPoly.from_text(chi_text, nvars=POLY_DIM))
    return chi_text + "\n" + t_img.to_text() + "\n"


def warm_up_poly(pd) -> None:
    # fills the block caches for the pooled multiplicities only
    stream = poly_cases(-1, pool_share=1.0)
    for _ in range(WARM_UP_REQUESTS):
        run_poly(pd, next(stream))


# ---- verify -------------------------------------------------------------------

def verify_cases(seed: int):
    """Endless stream of suite seeds."""
    rng = random.Random(f"verify:{seed}")
    while True:
        yield rng.randrange(1, 10**9)


def run_verify(pd, suite_seed: int) -> str:
    """`projdunkl verify --seed S --out report.jsonl`, default configuration."""
    return pd.run_suites(None, pd.SuiteConfig(seed=suite_seed)).to_jsonl()


def warm_up_verify(pd) -> None:
    pd.run_suites(None, pd.SuiteConfig(seed=1)).to_jsonl()


@dataclass(frozen=True)
class Workload:
    cases: Callable[[int], Iterator]  # seed -> endless request stream
    run: Callable[[object, object], str]  # (package, request) -> output text
    warm_up: Callable[[object], None]


WORKLOADS = {
    "transform_grid": Workload(transform_cases, run_transform, warm_up_transform),
    "exact_poly": Workload(poly_cases, run_poly, warm_up_poly),
    "verify": Workload(verify_cases, run_verify, warm_up_verify),
}
