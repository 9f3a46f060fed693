"""Intertwining maps, their inverses, and fractional integral helpers.

The forward map averages f over independent contractions toward each root's
wall:

    chi f(x) = (1 / prod Gamma(kappa_j)) * integral over [0,1]^r of
               f(h(t, x)) prod (1 - t_j)^(kappa_j - 1) dt,
    h(t, x) = x + sum_j (t_j - 1) <x, alpha_j> / |alpha_j|^2 alpha_j.

It turns plain directional derivatives into the projection-difference
operator. On polynomials the scaled variant (multiplied by prod
Gamma(kappa_j + 1)) has rational coefficients and is computed exactly,
one root at a time; orthogonality makes the per-root factors commute.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .gammaratio import GammaRatio
from .polycore import MPoly, _map_root_blocks, _substitute
from .quadrature import get_rule, graded_panels
from .rootgeom import OrthogonalSubsystem, RationalVector, _as_fraction


# ---- polynomials with Gamma-quotient coefficients ---------------------------

class GPoly:
    """Sparse polynomial whose coefficients are GammaRatio values.

    Supports exactly what the diagonal maps below need: addition merges only
    coefficients that share a Gamma factor structure.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None) -> None:
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], GammaRatio] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, GammaRatio):
                    c = GammaRatio(c)
                if c.coef != 0:
                    self.terms[tuple(e)] = c

    @classmethod
    def from_mpoly(cls, p: MPoly) -> "GPoly":
        return cls(p.nvars, {e: GammaRatio(c) for e, c in p.terms.items()})

    def __add__(self, other: "GPoly") -> "GPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                a = out[e]
                if a.factors != c.factors:
                    raise ValueError(
                        f"cannot add unlike Gamma structures {a} and {c}")
                s = GammaRatio(a.coef + c.coef) * GammaRatio(
                    1, num=[b for b, k in a.factors.items() for _ in range(k) if k > 0],
                    den=[b for b, k in a.factors.items() for _ in range(-k) if k < 0])
                if s.coef == 0:
                    out.pop(e)
                else:
                    out[e] = s
            else:
                out[e] = c
        q = GPoly(self.nvars)
        q.terms = out
        return q

    def scale(self, g) -> "GPoly":
        if not isinstance(g, GammaRatio):
            g = GammaRatio(g)
        out = GPoly(self.nvars)
        if g.coef != 0:
            out.terms = {e: c * g for e, c in self.terms.items()}
        return out

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            other = GPoly.from_mpoly(other)
        return (isinstance(other, GPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval_float(self, point: Sequence[float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            v = c.to_float()
            for xi, k in zip(point, e):
                if k:
                    v *= float(xi) ** k
            total += v
        return total

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=MPoly._grlex_key):
            c = self.terms[e]
            body = MPoly._monomial_text(e)
            parts.append(f"[{c}]*{body}" if body else f"[{c}]")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"GPoly({self.nvars}, {self.to_text()!r})"


# ---- the deformation map -----------------------------------------------------

def h_map(subsystem: OrthogonalSubsystem, t: Sequence, x):
    """h(t, x): slide each root component of x by its own factor t_j.

    Exact when t and x are rational (RationalVector result); float otherwise.
    """
    if len(t) != subsystem.nroots:
        raise ValueError("one t per root required")
    exact = isinstance(x, RationalVector) and all(
        isinstance(v, (int, Fraction)) for v in t)
    if exact:
        out = x
        for tj, alpha in zip(t, subsystem.roots):
            c = x.dot(alpha) / alpha.norm_sq()
            out = out + alpha.scale((_as_fraction(tj) - 1) * c)
        return out
    xf = np.asarray([float(v) for v in x], dtype=float)
    out = xf.copy()
    for tj, alpha in zip(t, subsystem.roots):
        a = np.array(alpha.to_floats())
        c = float(np.dot(xf, a)) / float(np.dot(a, a))
        out = out + (float(tj) - 1.0) * c * a
    return out


# ---- exact polynomial layer ---------------------------------------------------

# Bounded far above the working set of a few pooled multiplicities (about 200
# block shapes each for degree 12 on A-, B- and coordinate roots), so only
# entries of multiplicities that stop recurring are evicted.
@lru_cache(maxsize=4096)
def _chi_block(alpha_entries: tuple, kappa: Fraction, exps: tuple) -> MPoly:
    """Scaled per-root average of a block monomial.

    Variables are the root's support coordinates; the average replaces the
    component along alpha by t times itself and integrates t against the
    scaled weight, sending t^k to k! / (kappa + 1)_k.
    """
    nb = len(exps)
    alpha = RationalVector(alpha_entries)
    s = alpha.norm_sq()
    next_ring = nb + 1  # block variables plus t in the last slot
    images = []
    for i in range(nb):
        img = {}
        for j in range(nb):
            along = alpha[i] * alpha[j] / s
            e = [0] * next_ring
            e[j] = 1
            img[tuple(e)] = (1 if i == j else 0) - along
            e[nb] = 1
            img[tuple(e)] = along
        images.append(MPoly(next_ring, img))
    expanded = _substitute(MPoly.monomial(exps), images)
    # with kappa = a/b, k! / (kappa + 1)_k = k! b^k / prod_{1<=j<=k} (a + j b);
    # over the denominator of the top t-degree K that is the numerator
    # k! b^k prod_{k<j<=K} (a + j b)
    a, b = kappa.numerator, kappa.denominator
    top = sum(exps)
    scale = [0] * (top + 1)
    common = 1
    for k in range(top, 0, -1):
        scale[k] = math.factorial(k) * b ** k * common
        common *= a + k * b
    scale[0] = common
    out: dict[tuple[int, ...], int] = {}
    for e, c in expanded.num.items():
        key = e[:nb]
        out[key] = out.get(key, 0) + c * scale[e[nb]]
    return MPoly._from_parts(nb, out, expanded.den * common)


def _chi_root_step(p: MPoly, alpha: RationalVector, kappa: Fraction) -> MPoly:
    return _map_root_blocks(p, alpha, lambda block, be: _chi_block(block, kappa, be))


def chi_poly_scaled(subsystem: OrthogonalSubsystem, p: MPoly) -> tuple[MPoly, GammaRatio]:
    """Exact scaled intertwining image of p and the constant restoring the
    unscaled map: chi p = scale * result, scale = 1 / prod Gamma(kappa_j + 1).

    Roots with kappa_j = 0 contribute the identity factor.
    """
    if p.nvars != subsystem.dim:
        raise ValueError("dimension mismatch")
    out = p
    den = []
    for alpha, kappa in zip(subsystem.roots, subsystem.kappas):
        if kappa < 0:
            raise ValueError("negative multiplicity")
        if kappa == 0:
            continue
        out = _chi_root_step(out, alpha, kappa)
        den.append(kappa + 1)
    return out, GammaRatio(1, den=den)


def chi_one_var(p: MPoly, kappa) -> GPoly:
    """Unscaled one-variable image: x^m -> m! / Gamma(kappa + m + 1) x^m."""
    if p.nvars != 1:
        raise ValueError("univariate polynomial required")
    kappa = _as_fraction(kappa)
    out = GPoly(1)
    for (m,), c in p.terms.items():
        out.terms[(m,)] = GammaRatio(c * math.factorial(m), den=[kappa + m + 1])
    return out


# ---- fractional integrals on monomials ----------------------------------------

def _apply_diagonal(p, factor: Callable[[int], GammaRatio]) -> GPoly:
    if p.nvars != 1:
        raise ValueError("univariate polynomial required")
    if isinstance(p, MPoly):
        p = GPoly.from_mpoly(p)
    out = GPoly(1)
    for (m,), c in p.terms.items():
        val = c * factor(m)
        if val.coef != 0:
            out.terms[(m,)] = val
    return out


def erdelyi_kober_I(p, gamma, delta) -> GPoly:
    """x^m -> Gamma(gamma + m + 1) / Gamma(gamma + m + delta + 1) x^m.

    Exact on monomials; needs gamma + m + 1 > 0 for every present degree m.
    """
    gamma = _as_fraction(gamma)
    delta = _as_fraction(delta)
    if delta < 0:
        raise ValueError("negative order")

    def factor(m: int) -> GammaRatio:
        if gamma + m + 1 <= 0:
            raise ValueError(f"degree {m} outside the domain: gamma + m + 1 <= 0")
        return GammaRatio(1, num=[gamma + m + 1], den=[gamma + m + delta + 1])

    return _apply_diagonal(p, factor)


def ek_left_inverse_D(p, gamma, delta) -> GPoly:
    """Left inverse of erdelyi_kober_I on monomials.

    With n = ceil(delta): apply the fractional integral of order n - delta at
    shifted base, then the Euler operator product
    prod_{k=1..n} (gamma + k + x d/dx); x^m picks up
    prod (gamma + k + m) * Gamma(gamma + delta + m + 1) / Gamma(gamma + m + n + 1).
    """
    gamma = _as_fraction(gamma)
    delta = _as_fraction(delta)
    if delta <= 0:
        raise ValueError("order must be positive")
    n = math.ceil(delta)

    def factor(m: int) -> GammaRatio:
        c = Fraction(1)
        for k in range(1, n + 1):
            c *= gamma + k + m
        return GammaRatio(c, num=[gamma + delta + m + 1], den=[gamma + m + n + 1])

    return _apply_diagonal(p, factor)


def chi_inverse_one_var(p, kappa) -> GPoly:
    """Exact inverse of chi_one_var: x^m -> Gamma(kappa + m + 1) / m! x^m."""
    kappa = _as_fraction(kappa)
    if kappa == 0:
        return p if isinstance(p, GPoly) else GPoly.from_mpoly(p)
    return ek_left_inverse_D(p, 0, kappa)


# ---- numeric layer -------------------------------------------------------------

def erdelyi_kober_I_numeric(gamma: float, delta: float, f: Callable, x: float,
                            order: int = 80) -> float:
    """(1 / Gamma(delta)) integral_0^1 (1-t)^(delta-1) t^gamma f(t x) dt."""
    if delta == 0:
        return f(x)
    rule = get_rule(delta, order, beta=gamma)
    v = rule.integrate(lambda t: f(t * x))
    v = v / math.gamma(delta)
    return v.real if abs(v.imag) < 1e-300 else v


def chi_one_var_numeric(kappa: float, f, x: float, order: int = 80):
    """Unscaled one-variable forward map by Gauss quadrature."""
    value = f.value if hasattr(f, "value") else f
    rule = get_rule(kappa, order)
    v = rule.integrate(lambda t: value(t * x)) / math.gamma(kappa)
    return v.real if abs(v.imag) == 0 else v


def chi_numeric(subsystem: OrthogonalSubsystem, f, x, order: int = 24):
    """Tensor-quadrature forward map; cost grows as order ** nroots."""
    value = f.value if hasattr(f, "value") else f
    rules = []
    for kappa in subsystem.kappas:
        if kappa <= 0:
            raise ValueError("numeric forward map needs kappa > 0 on every root")
        rules.append(get_rule(kappa, order))
    total = 0.0
    norm = math.prod(math.gamma(float(k)) for k in subsystem.kappas)
    for idx in iter_product(range(order), repeat=len(rules)):
        t = [rules[j].nodes[i] for j, i in enumerate(idx)]
        w = math.prod(rules[j].weights[i] for j, i in enumerate(idx))
        total = total + w * value(h_map(subsystem, t, x))
    return total / norm


def chi_inverse_numeric(kappa: float, derivs: Sequence[Callable], x: float,
                        order: int = 80):
    """Inverse map at one point from the jet of f.

    derivs lists f and its first n = ceil(kappa) derivatives. Builds the jet of
    the order-(n - kappa) fractional integral under the integral sign, then
    runs the Euler factors (k + x d/dx), k = 1..n, down to a value.
    """
    if kappa == 0:
        return derivs[0](x)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    n = math.ceil(kappa)
    if len(derivs) < n + 1:
        raise ValueError(f"need {n + 1} derivative callables, got {len(derivs)}")
    if kappa == n:
        jets = [derivs[r](x) for r in range(n + 1)]
    else:
        jets = []
        norm = math.gamma(n - kappa)
        for r in range(n + 1):
            rule = get_rule(n - kappa, order, beta=kappa + r)
            # derivative callables need not be vectorized
            vals = [derivs[r](t * x) for t in rule.nodes]
            v = rule.integrate_values(vals) / norm
            jets.append(v.real if abs(v.imag) == 0 else v)
    for k in range(1, n + 1):
        jets = [(k + j) * jets[j] + x * jets[j + 1] for j in range(len(jets) - 1)]
    return jets[0]


def dual_chi(kappa: float, g, x: float, support_bound: float | None = None,
             order: int = 32):
    """Adjoint of the one-variable forward map:

        (1 / Gamma(kappa)) integral_|x|^A (t - |x|)^(kappa-1) t^(-kappa) g(sgn(x) t) dt,

    zero for |x| >= A. In the shifted variable u = t - |x| the endpoint weight
    u^(kappa-1) is absorbed on a head interval by the substitution u = h v^2;
    the rest is integrated on panels split at the corner points advertised by
    g and geometrically refined toward the segment ends.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if x == 0:
        raise ValueError("the dual map is evaluated away from the origin")
    value = g.value if hasattr(g, "value") else g
    bound = support_bound
    if bound is None:
        bound = getattr(g, "support_bound", None)
    if bound is None:
        raise ValueError("a finite support bound is required")
    ax = abs(x)
    if ax >= bound:
        return 0.0
    sgn = 1.0 if x > 0 else -1.0

    def smooth(u):
        t = u + ax
        return t ** (-kappa) * np.asarray(value(sgn * t))

    span = bound - ax
    cuts = sorted({span} | {sgn * c - ax for c in getattr(g, "corners", ())
                            if 0.0 < sgn * c - ax < span})
    # head [0, h]: u = h v^2 trades the u^(kappa-1) weight for v^(2 kappa - 1);
    # h never exceeds |x| so the t^(-kappa) factor stays resolved
    h = min(ax, cuts[0])
    head_rule = get_rule(1, 2 * order, beta=2.0 * kappa - 1.0)
    total = 2.0 * h ** kappa * float(
        np.dot(head_rule.weights, smooth(h * head_rule.nodes**2)))
    pts = [h] + [c for c in cuts if c > h * (1.0 + 1e-12)]
    for lo, hi in zip(pts[:-1], pts[1:]):
        xs, ws = graded_panels(lo, hi, order)
        total += float(np.dot(ws, xs ** (kappa - 1.0) * smooth(xs)))
    return total / math.gamma(kappa)


def duality_pairing(kappa: float, f, g, x_bound: float, order: int = 32) -> tuple[float, float]:
    """Both sides of integral (chi f) g dx = integral f (dual chi g) dx on [-B, B].

    g must vanish outside [-B, B]; f only needs values on [-B, B]. The outer
    mesh splits at 0, where the dual side has a kink, and at the corner
    points of g.
    """
    fval = f.value if hasattr(f, "value") else f
    gval = g.value if hasattr(g, "value") else g
    bnd = float(x_bound)
    pts = sorted({-bnd, 0.0, bnd} | {float(c) for c in getattr(g, "corners", ())
                                     if -bnd < float(c) < bnd})
    lhs = 0.0
    rhs = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        xs, ws = graded_panels(lo, hi, order)
        for xi, wi in zip(xs, ws):
            lhs += wi * chi_one_var_numeric(kappa, f, xi) * float(gval(xi))
            rhs += wi * float(fval(xi)) * dual_chi(kappa, g, xi, support_bound=bnd)
    return lhs, rhs
