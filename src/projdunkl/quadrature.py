"""Gauss rules on [0, 1] graded toward 0, and the graded composite mesh.

get_rule(n, depth, power) is the package's one rule builder. Its nodes and
weights integrate s^power g(s) over [0, 1] for g smooth on [0, 1]: an n-node
Gauss-Jacobi cell on [0, 2^-depth] takes the weight s^power exactly, and n-node
Gauss-Legendre slivers [2^-(k+1), 2^-k], k < depth, carry it in their
weights. The Jacobi nodes come from scipy's Golub-Welsch eigenproblem, whose
nodes next to a singular end lose digits, the more the higher the order: at
power -0.95 the moments past the zeroth are off by 1.5e-13 at 12 nodes and
by 2.7e-12 at 80. Grading keeps the order low and confines that cell to
[0, 2^-depth], where it carries little of any moment but the zeroth.
get_rule(n) is the plain n-node Gauss-Legendre rule.

Every fractional integral of the package is a sum of such rules: the
one-variable maps split [0, 1] at 1/2 and grade each half toward its own
singular end, and the adjoint map's head interval is one rule scaled onto
[0, h].

graded_panels, the one composite mesh, splits each of its two end cells the
same way toward the interval's end, in slivers at half the order (the
power-0 rule): an integrand analytic inside the cell needs few nodes on a
sliver that is short against the distance to its singularity, and a
geometric mesh needs the full order only away from the singular point
(Schwab, p- and hp-Finite Element Methods, 1998, ch. 4). dual_chi grades its
segments toward one end only, and to a depth per segment, with the graded
rule of that depth: at most 25 small entries of the table.

Rules are read-only arrays held in one table of at most _CACHE_SIZE entries,
keyed by (n, depth, power), that drops the oldest first.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import roots_jacobi

# The package uses a few dozen rules: one per order and per exponent of the
# numeric maps, and dual_chi's one per depth. The bound only matters to
# callers that sweep many kappa.
_CACHE_SIZE = 256
_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


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


def get_rule(n: int, depth: int = 0, power: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for integral_0^1 s^power g(s) ds, ascending.

    An n-node Gauss-Jacobi cell on [0, 2^-depth] and n-node Gauss-Legendre
    slivers [2^-(k+1), 2^-k], k < depth, with s^power multiplied into their
    weights. power must be finite and above -1. Cached, and safe from several
    threads.
    """
    key = (n, depth, power)
    rule = _cache.get(key)
    if rule is None:
        rule = _store(_cache, key, _build_rule(n, depth, power), _CACHE_SIZE)
    return rule


def _build_rule(n: int, depth: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    if not n >= 1:
        raise ValueError(f"a rule needs n >= 1 nodes a cell, got n = {n}")
    if not depth >= 0:
        raise ValueError(f"depth = {depth} is negative")
    if not -1.0 < power < math.inf:
        raise ValueError(f"weight exponent power = {power} is not finite and above -1")
    power = float(power)
    # scipy's weight on [-1, 1] is (1 + x)^power; s = cell (1 + x) / 2 gives
    # s^power up to (cell / 2)^(power + 1)
    cell = 2.0 ** -depth
    x, w = roots_jacobi(n, 0.0, power)
    nodes = [cell * (x + 1.0) / 2.0]
    weights = [w * (cell / 2.0) ** (power + 1.0)]
    if depth:
        lx, lw = get_rule(n)
        edges = 2.0 ** -np.arange(depth, -1, -1)
        widths = np.diff(edges)
        s = (edges[:-1, None] + widths[:, None] * lx).ravel()
        nodes.append(s)
        weights.append((widths[:, None] * lw).ravel() * s ** power)
    rule = (np.concatenate(nodes), np.concatenate(weights))
    for part in rule:
        part.flags.writeable = False
    return rule


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
    nodes, weights = get_rule(order)
    t, tw = get_rule((order + 1) // 2, depth)
    edges = np.linspace(a, b, _cell_count(length, max_width) + 1)
    first, last = edges[1] - a, b - edges[-2]
    widths = np.diff(edges[1:-1])
    x = np.concatenate([a + first * t,
                        (edges[1:-2, None] + widths[:, None] * nodes).ravel(),
                        b - last * t[::-1]])
    w = np.concatenate([first * tw, (widths[:, None] * weights).ravel(),
                        last * tw[::-1]])
    return x, w
