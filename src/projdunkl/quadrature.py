"""Gauss rules on [0,1] for weights t^beta (1-t)^(kappa-1), cached per (kappa, beta, order).

Nodes and weights come from the Jacobi three-term recurrence (Golub-Welsch
eigenproblem, as exposed by scipy) mapped from [-1,1] to [0,1]. Orders are
capped at 200; endpoint exponents must exceed -1 for integrability. The rule
table holds at most _CACHE_SIZE rules and drops the oldest first.

graded_panels, the one composite mesh of the package, splits each of its two
end cells geometrically toward the interval's end and runs those slivers at
half the order: an integrand analytic inside the cell needs few nodes on a
sliver that is short against the distance to its singularity, and a
geometric mesh needs the full order only away from the singular point
(Schwab, p- and hp-Finite Element Methods, 1998, ch. 4). The slivers of one
end cell come from one template on [0, 1] per (order, depth), held in a
table bounded like the rule table. dual_chi grades its segments toward one
end only, and to a depth per segment; it takes the shallower cells from the
deepest template, so the table holds one entry for it whatever the depths.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi

from .rootgeom import _as_fraction

MAX_ORDER = 200


def _key_fraction(v) -> Fraction:
    # floats are exact binary rationals, fine as cache keys
    if isinstance(v, float):
        return Fraction(v)
    return _as_fraction(v)


def _key_part(v):
    """v as a cache key: the exact rational, held as a float where it is one."""
    q = _key_fraction(v)
    f = float(q)
    return f if f == q else q


# An int, float or Fraction hashes and compares like the equal rational, so a
# lookup finds the rule by the arguments as given. Keys hold floats where they
# can, so the float arguments of the numeric layers compare without building
# a Fraction. The suites use about a dozen rules and the transform one, so the
# bound only matters to callers that sweep many kappa.
_CACHE_SIZE = 256
_cache: dict[tuple, "JacobiQuadrature"] = {}
# sliver templates per (order, depth); the package uses three orders
_SLIVER_CACHE_SIZE = 32
_slivers: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _store(table: dict, key, value, size: int):
    """table[key] = value, keeping at most size entries by dropping the oldest.

    Safe from several threads: two that miss together hand both callers the
    value that setdefault kept. The keys are a snapshot, since iterating the
    live table raises if another thread inserts meanwhile; callers store only
    after a miss that built the value, so copying the keys costs little.
    """
    keys = list(table)
    for old in keys[:len(keys) + 1 - size]:
        table.pop(old, None)
    return table.setdefault(key, value)


class JacobiQuadrature:
    """One rule: integral_0^1 t^beta (1-t)^(kappa-1) f(t) dt ~= sum w_i f(t_i)."""

    __slots__ = ("kappa", "beta", "order", "nodes", "weights")

    def __init__(self, kappa, order: int, beta=0) -> None:
        kappa = _key_fraction(kappa)
        beta = _key_fraction(beta)
        if kappa <= 0:
            raise ValueError(f"weight exponent kappa-1 = {kappa - 1} is not integrable")
        if beta <= -1:
            raise ValueError(f"weight exponent beta = {beta} is not integrable")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} outside [1, {MAX_ORDER}]")
        self.kappa = kappa
        self.beta = beta
        self.order = order
        # scipy weight on [-1,1] is (1-x)^a (1+x)^b; t=(1+x)/2 gives
        # (1-t)^a t^b up to 2^(a+b+1)
        a, b = float(kappa - 1), float(beta)
        x, w = roots_jacobi(order, a, b)
        self.nodes = (x + 1.0) / 2.0
        self.weights = w * 2.0 ** (-(a + b + 1.0))

    def integrate(self, f) -> complex:
        """f is a vectorized callable on the open interval (0,1); a constant
        f may return a scalar."""
        return self.integrate_values(np.broadcast_to(f(self.nodes), self.nodes.shape))

    def integrate_values(self, values) -> complex:
        return complex(np.dot(self.weights, np.asarray(values)))


def get_rule(kappa, order: int, beta=0) -> JacobiQuadrature:
    """Cached lookup, safe from several threads.

    Other spellings of a rational, like the string "1/2", miss the raw lookup
    and are converted. Two threads that miss together may both build the rule;
    setdefault hands both the one it kept. A full table drops its oldest rules.
    """
    rule = _cache.get((kappa, beta, order))
    if rule is None:
        key = (_key_part(kappa), _key_part(beta), int(order))
        rule = _cache.get(key)
        if rule is None:
            rule = _store(_cache, key, JacobiQuadrature(key[0], key[2], key[1]),
                          _CACHE_SIZE)
    return rule


def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss-Legendre on [0,1], cached through the same table (kappa=1)."""
    r = get_rule(1, order)
    return r.nodes, r.weights


def _sliver_template(order: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for the cells [0, 2^-depth] and
    [2^-(k+1), 2^-k], k < depth, each at half the order, in ascending order."""
    key = (order, depth)
    template = _slivers.get(key)
    if template is None:
        nodes, weights = legendre_rule((order + 1) // 2)
        edges = np.concatenate([[0.0], 2.0 ** -np.arange(depth, -1, -1)])
        widths = np.diff(edges)
        template = _store(_slivers, key,
                          ((edges[:-1, None] + widths[:, None] * nodes).ravel(),
                           (widths[:, None] * weights).ravel()),
                          _SLIVER_CACHE_SIZE)
    return template


def _cell_count(length: float, max_width: float | None) -> int:
    """Equal cells of graded_panels on an interval of this length: at least
    four, and none wider than max_width."""
    width = length / 4.0 if max_width is None else min(max_width, length / 4.0)
    return math.ceil(length / width)


def graded_panels(a: float, b: float, order: int, max_width: float | None = None,
                  depth: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and weights on [a, b], refined toward both ends.

    [a, b] is cut into at least four equal cells no wider than max_width, with
    order nodes each. The first and last are split by repeated halving toward
    the endpoints into depth + 1 slivers, the innermost kept as a cell of its
    own, at half the order. This restores fast convergence when the integrand
    loses smoothness only at the ends of the interval (support edges, corner
    points, weight factors whose scale shrinks toward an endpoint). The
    sliver at level k, k halvings in from the cell's inner edge, is 2^-(k+1)
    of the cell wide and carries that share of its mass.
    """
    length = b - a
    if not length > 0:
        raise ValueError("panel range must have positive length")
    nodes, weights = legendre_rule(order)
    t, tw = _sliver_template(order, depth)
    edges = np.linspace(a, b, _cell_count(length, max_width) + 1)
    first, last = edges[1] - a, b - edges[-2]
    widths = np.diff(edges[1:-1])
    x = np.concatenate([a + first * t,
                        (edges[1:-2, None] + widths[:, None] * nodes).ravel(),
                        b - last * t[::-1]])
    w = np.concatenate([first * tw, (widths[:, None] * weights).ravel(),
                        last * tw[::-1]])
    return x, w

