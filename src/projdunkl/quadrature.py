"""Gauss rules on [0,1] for weights t^beta (1-t)^(kappa-1), cached per (kappa, beta, order).

Nodes and weights come from the Jacobi three-term recurrence (Golub-Welsch
eigenproblem, as exposed by scipy) mapped from [-1,1] to [0,1]. Orders are
capped at 200; endpoint exponents must exceed -1 for integrability. The rule
table holds at most _CACHE_SIZE rules and drops the oldest first.
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
        """f is a vectorized callable on the open interval (0,1)."""
        return complex(np.sum(self.weights * np.asarray(f(self.nodes))))

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
            rule = JacobiQuadrature(key[0], key[2], key[1])
            # a snapshot, since iterating the live table raises if another
            # thread inserts meanwhile; on a miss that builds a rule, copying
            # the keys costs well under 1% of the build
            keys = list(_cache)
            for old in keys[:len(keys) + 1 - _CACHE_SIZE]:
                _cache.pop(old, None)
            rule = _cache.setdefault(key, rule)
    return rule


def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss-Legendre on [0,1], cached through the same table (kappa=1)."""
    r = get_rule(1, order)
    return r.nodes, r.weights


def graded_panels(a: float, b: float, order: int, max_width: float | None = None,
                  depth: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and weights on [a, b], refined toward both ends.

    The first and last base cells are split by repeated halving toward the
    endpoints, keeping the innermost sliver as a cell of its own. This
    restores fast convergence when the integrand loses smoothness only at
    the ends of the interval (support edges, corner points, weight factors
    whose scale shrinks toward an endpoint).
    """
    length = b - a
    if not length > 0:
        raise ValueError("panel range must have positive length")
    nodes, weights = legendre_rule(order)
    width = length / 4.0 if max_width is None else min(max_width, length / 4.0)
    n = max(1, math.ceil(length / width))
    edges = np.linspace(a, b, n + 1)
    halves = 2.0 ** -np.arange(1, depth + 1)
    left = a + (edges[1] - a) * halves[::-1]
    right = b - (edges[-1] - edges[-2]) * halves
    edges = np.unique(np.concatenate([edges, left, right]))
    widths = np.diff(edges)
    x = (edges[:-1, None] + widths[:, None] * nodes[None, :]).ravel()
    w = (widths[:, None] * weights[None, :]).ravel()
    return x, w

