"""Intertwining maps, their inverses, and fractional integral helpers.

The forward map averages f over independent contractions toward each root's
wall:

    chi f(x) = (1 / prod Gamma(kappa_j)) * integral over [0,1]^r of
               f(h(t, x)) prod (1 - t_j)^(kappa_j - 1) dt,
    h(t, x) = x + sum_j (t_j - 1) <x, alpha_j> / |alpha_j|^2 alpha_j.

It turns plain directional derivatives into the projection-difference
operator. On polynomials the scaled variant (multiplied by prod
Gamma(kappa_j + 1)) has rational coefficients and is computed exactly,
one root at a time; orthogonality makes the per-root factors commute. Each
factor is the moment sequence u^j -> kappa_j / (kappa_j + j), u = 1 - t_j,
on polycore's expansion of a block monomial along the segment from x to
the wall.

The exact maps need only the standard library. The numeric maps (h_map,
erdelyi_kober_I_numeric, chi_numeric, chi_inverse_numeric, dual_chi) import
numpy and the quadrature rules on their first call, so the exact path never
loads them.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Sequence

from .gammaratio import GammaRatio, pochhammer
from .polycore import (MPoly, _descending_terms, _map_root_blocks, _monomial_text,
                       _segment_average)
from .rootgeom import (OrthogonalSubsystem, RationalVector, _as_fraction,
                       build_subsystem_coordinate)


# ---- polynomials times one Gamma quotient --------------------------------------

class GPoly:
    """The polynomial scale * poly: rational coefficients times one GammaRatio.

    Every exact image below has this shape. Two of them add when their scales
    differ by a rational factor; equality compares values, also against a
    plain MPoly.
    """

    __slots__ = ("poly", "scale")

    def __init__(self, poly: MPoly, scale: GammaRatio) -> None:
        self.poly = poly if scale.coef else MPoly.zero(poly.nvars)
        self.scale = scale

    def __add__(self, other: "GPoly") -> "GPoly":
        if self.poly.is_zero():
            return other
        if other.poly.is_zero():
            return self
        ratio = other.scale / self.scale
        if not ratio.is_rational():
            raise ValueError(
                f"cannot add unlike Gamma structures {self.scale} and {other.scale}")
        return GPoly(self.poly + other.poly * ratio.as_fraction(), self.scale)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            other = _as_gpoly(other)
        if not isinstance(other, GPoly):
            return NotImplemented
        if self.poly.is_zero() or other.poly.is_zero():
            return self.poly == other.poly
        ratio = other.scale / self.scale
        return ratio.is_rational() and self.poly == other.poly * ratio.as_fraction()

    def to_text(self) -> str:
        """[c*scale]*monomial per term, highest degree first."""
        den = self.poly.den
        parts = []
        for _, e, c in _descending_terms(self.poly.num):
            body = _monomial_text(e)
            c = self.scale * Fraction(c, den)
            parts.append(f"[{c}]*{body}" if body else f"[{c}]")
        return " + ".join(parts) or "0"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"GPoly({self.to_text()!r})"


def _as_gpoly(p) -> GPoly:
    return p if isinstance(p, GPoly) else GPoly(p, GammaRatio.one())


# ---- the deformation map -----------------------------------------------------

def h_map(subsystem: OrthogonalSubsystem, t: Sequence, x):
    """h(t, x): slide each root component of x by its own factor t_j, in floats."""
    if len(t) != subsystem.nroots:
        raise ValueError("one t per root required")
    import numpy as np

    xf = np.asarray([float(v) for v in x], dtype=float)
    if xf.shape != (subsystem.dim,):
        raise ValueError(f"point must have shape ({subsystem.dim},)")
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

    Variables are the root's support coordinates. With t_j = 1 - u the
    average runs along the segment from x toward the wall against the scaled
    weight kappa u^(kappa - 1) on [0, 1], which sends u^j to kappa / (kappa + j).
    """
    return _segment_average(alpha_entries, exps, 0, lambda j: kappa / (kappa + j))


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
    return GPoly(*chi_poly_scaled(build_subsystem_coordinate(1, [kappa]), p))


# ---- fractional integrals on monomials ----------------------------------------

def _apply_diagonal(p, gamma: Fraction, factor: Callable[[int], GammaRatio],
                    step: Callable[[int], Fraction]) -> GPoly:
    """x^m -> factor(m) x^m, where factor(m + 1) = step(m) * factor(m).

    The image is factor(m0) times a rational polynomial, m0 the lowest degree
    present. Both maps below need gamma + m + 1 > 0 at every present degree,
    which also keeps every step finite and nonzero.
    """
    p = _as_gpoly(p)
    if p.poly.nvars != 1:
        raise ValueError("univariate polynomial required")
    terms = p.poly.terms
    if not terms:
        return p
    lo, hi = min(terms)[0], max(terms)[0]
    if gamma + lo + 1 <= 0:
        raise ValueError(f"degree {lo} outside the domain: gamma + m + 1 <= 0")
    rel = [Fraction(1)]
    for m in range(lo, hi):
        rel.append(rel[-1] * step(m))
    out = {(m,): c * rel[m - lo] for (m,), c in terms.items()}
    return GPoly(MPoly(1, out), p.scale * factor(lo))


def erdelyi_kober_I(p, gamma, delta) -> GPoly:
    """x^m -> Gamma(gamma + m + 1) / Gamma(gamma + m + delta + 1) x^m.

    Exact on monomials; needs gamma + m + 1 > 0 for every present degree m.
    """
    gamma = _as_fraction(gamma)
    delta = _as_fraction(delta)
    if delta < 0:
        raise ValueError("negative order")
    return _apply_diagonal(
        p, gamma,
        lambda m: GammaRatio(1, num=[gamma + m + 1], den=[gamma + m + delta + 1]),
        lambda m: (gamma + m + 1) / (gamma + m + delta + 1))


def ek_left_inverse_D(p, gamma, delta) -> GPoly:
    """Left inverse of erdelyi_kober_I on monomials.

    With n = ceil(delta): apply the fractional integral of order n - delta at
    shifted base, then the Euler operator product
    prod_{k=1..n} (gamma + k + x d/dx); x^m picks up
    prod (gamma + k + m) * Gamma(gamma + delta + m + 1) / Gamma(gamma + m + n + 1).
    Same domain as erdelyi_kober_I: gamma + m + 1 > 0.
    """
    gamma = _as_fraction(gamma)
    delta = _as_fraction(delta)
    if delta <= 0:
        raise ValueError("order must be positive")
    n = math.ceil(delta)
    return _apply_diagonal(
        p, gamma,
        lambda m: GammaRatio(pochhammer(gamma + 1 + m, n),
                             num=[gamma + delta + m + 1], den=[gamma + m + n + 1]),
        lambda m: ((gamma + n + 1 + m) * (gamma + delta + m + 1)
                   / ((gamma + 1 + m) * (gamma + m + n + 1))))


def chi_inverse_one_var(p, kappa) -> GPoly:
    """Exact inverse of chi_one_var: x^m -> Gamma(kappa + m + 1) / m! x^m."""
    kappa = _as_fraction(kappa)
    if kappa == 0:
        return _as_gpoly(p)
    return ek_left_inverse_D(p, 0, kappa)


# ---- numeric layer -------------------------------------------------------------

_END_ORDER = 12  # nodes a cell of the graded end rules of the fractional integrals
_END_DEPTH = 4  # slivers of those rules
_TENSOR_ORDER = 24  # per-root order of chi_numeric's tensor rule
_DUAL_ORDER = 32  # panel order of dual_chi's segments
_DUAL_DEPTH = 24  # slivers of a dual_chi segment that starts at a corner of g
# nodes per block of dual_chi, whatever the layout of its rows: each
# temporary of a block stays near 60 kB whatever the number of points
_DUAL_NODES = 7424


def _require_finite(**values) -> None:
    import numpy as np

    for name, v in values.items():
        if not (np.isfinite(v).all() if np.ndim(v) else cmath.isfinite(v)):
            raise ValueError(f"{name} = {v} is not finite")


def erdelyi_kober_I_numeric(gamma: float, delta: float, f: Callable, x):
    """(1 / Gamma(delta)) integral_0^1 (1-t)^(delta-1) t^gamma f(t x) dt.

    [0, 1] is split at t = 1/2, and each half takes the graded end rule of
    its own weight: get_rule in t for t^gamma, in 1 - t for (1-t)^(delta-1).
    f takes numpy arrays and is called once, on the outer grid of the points
    by the 120 nodes of both halves; delta = 0 is the identity. x is a
    number, which gives a number, or an array, which gives an array of its
    shape. The result is real exactly when its imaginary part is 0.

    At gamma = 0 this is the unscaled one-variable forward map of order
    delta. On f(t) = e^(c t) its image is the kernel bold M_delta(c x) =
    1F1(1; delta + 1; c x) / Gamma(delta + 1); against its 40-digit value
    the relative error for x in [-2.5, 2.5] and delta from 0.05 to 2.7 stays
    below 4e-15 at c = 1 and i (measured 1.1e-15) and below 2e-14 at c up to
    8i (measured 6.1e-15).
    """
    import numpy as np

    from .quadrature import get_rule

    _require_finite(gamma=gamma, delta=delta, x=x)
    if delta == 0:
        return f(x)
    gamma, delta = float(gamma), float(delta)
    s, ws = get_rule(_END_ORDER, _END_DEPTH, gamma)
    r, wr = get_rule(_END_ORDER, _END_DEPTH, delta - 1.0)
    t = np.concatenate([s / 2.0, 1.0 - r / 2.0])
    w = np.concatenate([2.0 ** -(gamma + 1.0) * ws * (1.0 - s / 2.0) ** (delta - 1.0),
                        2.0 ** -delta * wr * (1.0 - r / 2.0) ** gamma])
    tx = np.multiply.outer(x, t)
    v = np.dot(np.broadcast_to(f(tx), tx.shape), w)
    if np.ndim(x):
        v = v / math.gamma(delta)
        return v if v.imag.any() else v.real
    v = complex(v) / math.gamma(delta)
    return v.real if v.imag == 0 else v


def chi_numeric(subsystem: OrthogonalSubsystem, f, x):
    """Tensor-quadrature forward map; cost grows as _TENSOR_ORDER ** nroots.

    Each root takes the Gauss-Jacobi rule of its weight in s = 1 - t_j.
    """
    from .quadrature import get_rule

    if not all(cmath.isfinite(v) for v in x):
        raise ValueError(f"x = {list(x)} is not a finite point")
    rules = []
    for kappa in subsystem.kappas:
        if kappa <= 0:
            raise ValueError("numeric forward map needs kappa > 0 on every root")
        s, w = get_rule(_TENSOR_ORDER, 0, float(kappa) - 1.0)
        rules.append((1.0 - s, w))
    total = 0.0
    norm = math.prod(math.gamma(float(k)) for k in subsystem.kappas)
    for idx in iter_product(range(_TENSOR_ORDER), repeat=len(rules)):
        t = [rules[j][0][i] for j, i in enumerate(idx)]
        w = math.prod(rules[j][1][i] for j, i in enumerate(idx))
        total = total + w * f(h_map(subsystem, t, x))
    return total / norm


def chi_inverse_numeric(kappa: float, derivs: Sequence[Callable], x: float):
    """Inverse map at one point from the jet of f.

    derivs lists f and its first n = ceil(kappa) derivatives as callables on
    numpy arrays (at integer kappa each is called at x alone). Entry r of the
    jet of the order-(n - kappa) fractional integral, differentiated under the
    integral sign, is erdelyi_kober_I_numeric(kappa + r, n - kappa, derivs[r],
    x); the Euler factors (k + x d/dx), k = 1..n, run the jet down to a value.
    """
    _require_finite(kappa=kappa)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    n = math.ceil(kappa)
    if len(derivs) < n + 1:
        raise ValueError(f"need {n + 1} derivative callables, got {len(derivs)}")
    jets = [erdelyi_kober_I_numeric(kappa + r, n - kappa, derivs[r], x)
            for r in range(n + 1)]
    for k in range(1, n + 1):
        jets = [(k + j) * jets[j] + x * jets[j + 1] for j in range(len(jets) - 1)]
    return jets[0]


def _check_dual_kappa(kappa: float) -> None:
    """Refuse a kappa the dual map cannot take: not finite, not positive, or
    so small that its weight exponent kappa - 1 rounds to -1."""
    _require_finite(kappa=kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if kappa - 1.0 == -1.0:
        raise ValueError(f"kappa = {kappa} is too small: the weight exponent "
                         "kappa - 1 rounds to -1")


def dual_chi(kappa: float, g, x):
    """Adjoint of the one-variable forward map:

        (1 / Gamma(kappa)) integral_|x|^A (t - |x|)^(kappa-1) t^(-kappa) g(sgn(x) t) dt,

    zero for |x| >= A, A = g.support_bound. In the shifted variable u = t - |x|
    the endpoint weight u^(kappa-1) is taken on a head interval [0, h] by the
    graded end rule get_rule(_END_ORDER, _END_DEPTH, kappa - 1) scaled onto
    it, where h is the smaller of |x| and half the first cut, the first corner
    of g or the support end. The rest is integrated on segments from h to that
    cut and between the cuts. g must be smooth up to each side of its corners,
    as every catalog function is, so the only singular point near a segment is
    the weight's, below its lower end: each segment is cut into four cells at
    the full order, and the first is refined geometrically toward the lower
    end in half-order slivers (_segment_mesh). A segment that starts at a
    corner takes _DUAL_DEPTH of them. The first segment starts at h, a smooth
    point of g a distance h above the weight's singular point, and takes only
    as many as bring its innermost sliver below h / 16: ceil(log2(w / (4 h)))
    + 4 for a segment of width w, between 0 and _DUAL_DEPTH.

    Against 30-digit mpmath values on the catalog functions, for kappa from
    0.05 to 2.7 at 417 points, the relative error was at most 4.1e-15 at
    |x| < A/2 and 9.0e-14 from |x| = A/2 on, where a g flat at its support
    end, like bump, loses digits in its own evaluation.

    x is a number, which gives a float, or an array, which gives an array of
    its shape. Points with as many segments and as deep a first segment are
    worked together, about _DUAL_NODES nodes at a time, with one call of g on
    all the nodes of a block.
    """
    import numpy as np

    from .functions import _support_bound

    _check_dual_kappa(kappa)
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("x = nan is not a point of the line")
    if (xs == 0).any():
        raise ValueError("the dual map is evaluated away from the origin")
    bound = _support_bound(g)
    flat = xs.ravel()
    out = np.zeros(flat.shape)
    live = np.flatnonzero(np.abs(flat) < bound)
    if live.size:
        corners = sorted({float(c) for c in getattr(g, "corners", ())})
        out[live] = _dual_live(kappa, g, flat[live], bound, corners)
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def _segment_mesh(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], graded toward 0 only.

    Four equal cells of _DUAL_ORDER nodes; the first is the half-order
    graded rule of this depth, depth + 1 cells split by halving toward 0, as
    graded_panels splits an end cell.
    """
    import numpy as np

    from .quadrature import get_rule

    t, tw = get_rule((_DUAL_ORDER + 1) // 2, depth)
    nodes, weights = get_rule(_DUAL_ORDER)
    x = np.concatenate([t, (np.arange(1.0, 4.0)[:, None] + nodes).ravel()])
    w = np.concatenate([tw, np.tile(weights, 3)])
    return x / 4.0, w / 4.0


def _dual_live(kappa: float, value, x: np.ndarray, bound: float,
               corners: list[float]) -> np.ndarray:
    """dual_chi at points 0 < |x| < bound."""
    import numpy as np

    from .quadrature import get_rule

    ax = np.abs(x)
    sgn = np.where(x > 0, 1.0, -1.0)
    span = bound - ax
    # each row: the segment ends in u = t - |x|, the support end and the
    # corners strictly inside (0, span), ascending, inf where there are none
    cand = sgn[:, None] * np.array(corners) - ax[:, None]
    cuts = np.where((cand > 0.0) & (cand < span[:, None]), cand, np.inf)
    cuts = np.sort(np.concatenate([span[:, None], cuts], axis=1), axis=1)
    # head [0, h]: one graded rule on the weight u^(kappa-1), scaled onto
    # [0, h]. h is at most |x| and half the first cut, so the singular points
    # of t^(-kappa) and of g lie at least h away from the head
    h = np.minimum(ax, cuts[:, 0] / 2.0)
    nseg = np.isfinite(cuts).sum(axis=1)
    fit = np.ceil(np.log2((cuts[:, 0] - h) / (4.0 * h))) + 4.0
    depth = np.clip(fit, 0, _DUAL_DEPTH).astype(int)
    head_s, head_w = get_rule(_END_ORDER, _END_DEPTH, kappa - 1.0)
    nh = head_s.size
    meshes = {d: _segment_mesh(d) for d in np.unique(depth).tolist() + [_DUAL_DEPTH]}
    layout = nseg * (_DUAL_DEPTH + 1) + depth
    out = np.empty(x.shape)
    for key in np.unique(layout).tolist():
        rows = np.flatnonzero(layout == key)
        nsegs, d = divmod(key, _DUAL_DEPTH + 1)
        segs = [meshes[d if j == 0 else _DUAL_DEPTH] for j in range(nsegs)]
        stops = nh + np.cumsum([0] + [m[0].size for m in segs])
        per_block = max(1, _DUAL_NODES // int(stops[-1]))
        for k in range(0, rows.size, per_block):
            b = rows[k:k + per_block]
            pts = np.concatenate([h[b, None], cuts[b, :nsegs]], axis=1)
            width = np.diff(pts, axis=1)
            us = np.concatenate([h[b, None] * head_s]
                                + [pts[:, j, None] + width[:, j, None] * m[0]
                                   for j, m in enumerate(segs)], axis=1)
            t = us + ax[b, None]
            smooth = (t.ravel() ** (-kappa)
                      * np.asarray(value((sgn[b, None] * t).ravel()))).reshape(t.shape)
            total = h[b] ** kappa * (head_w * smooth[:, :nh]).sum(axis=1)
            for j, m in enumerate(segs):
                cell = slice(stops[j], stops[j + 1])
                total += ((width[:, j, None] * m[1])
                          * (us[:, cell] ** (kappa - 1.0) * smooth[:, cell])).sum(axis=1)
            out[b] = total
    return out / math.gamma(kappa)
