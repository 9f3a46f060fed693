"""Gauss rules on [0, 1] graded toward 0, and the graded composite mesh.

get_rule(n, depth, power) is the package's one rule builder. Its nodes and
weights integrate s^power g(s) over [0, 1] for g smooth on [0, 1]: an n-node
Gauss-Jacobi cell on [0, 2^-depth] takes the weight s^power exactly, and n-node
Gauss-Legendre slivers [2^-(k+1), 2^-k], k < depth, carry it in their
weights. get_rule(n) is the plain n-node Gauss-Legendre rule, the power-0
cell.

The depth-0 cell is built in s itself, never mapped from [-1, 1]: the
Golub-Welsch eigenvalues (Math. Comp. 23, 1969) of the Jacobi matrix of
s^power on [0, 1], two Newton steps on its orthonormal three-term recurrence
(as Hale and Townsend, SIAM J. Sci. Comput. 35, 2013, refine theirs) and
Christoffel weights 1 / sum_k p_k(s_i)^2. Against a 40-digit rule, for 12 to
64 nodes and power -0.95 to 2, every node is within 2^-53 and every weight
within n^2 1e-16 relative, and the moments of degree below 2n are within
2e-14. A node next to s = 0 is as accurate in absolute terms only: at power
-0.95, 1.1e-13 relative at 24 nodes. A rule built in x and mapped by
(1 + x) / 2 loses more there, and its moments with it (1.5e-13 at 12 nodes,
2e-10 at 64). A cell at depth > 0 is the depth-0 cell of its power scaled
onto [0, 2^-depth].

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

# The package uses a few dozen rules: one per order and per exponent of the
# numeric maps, and dual_chi's one per depth. The bound only matters to
# callers that sweep many kappa.
_CACHE_SIZE = 256
_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
# halvings of graded_panels' end cells: the innermost sliver is 2^-24 of a cell
_PANEL_DEPTH = 24


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
    if depth:
        # s^power on [0, cell] is cell^(power + 1) times the depth-0 cell
        cell = 2.0 ** -depth
        s, w = get_rule(n, 0, power)
        lx, lw = get_rule(n)
        edges = 2.0 ** -np.arange(depth, -1, -1)
        widths = np.diff(edges)
        x = (edges[:-1, None] + widths[:, None] * lx).ravel()
        rule = (np.concatenate([cell * s, x]),
                np.concatenate([w * cell ** (power + 1.0),
                                (widths[:, None] * lw).ravel() * x ** power]))
    else:
        rule = _jacobi_cell(n, power)
    for part in rule:
        part.flags.writeable = False
    return rule


def _jacobi_cell(n: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule of s^power on [0, 1], ascending.

    The Jacobi(0, power) recurrence in x = 2s - 1 gives the Jacobi matrix in
    s: (1 + a_k) / 2 on the diagonal and b_k / 2 beside it. Its row 0 is
    written as the mean (power + 1) / (power + 2) of s, which a_0 reaches as
    0/0 at power 0.
    """
    k = np.arange(1.0, n)
    m = 2.0 * k + power
    diag = np.concatenate([[(power + 1.0) / (power + 2.0)],
                           0.5 + 0.5 * power * power / (m * (m + 2.0))])
    off = k * (k + power) / (m * np.sqrt((m - 1.0) * (m + 1.0)))
    s = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, dp, _ = _recurrence(s, diag, off)
        s = s - p / dp
    total = _recurrence(s, diag, off)[2]
    return s, 1.0 / ((power + 1.0) * total)


def _recurrence(s: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """At the points s: a multiple of the degree-n orthonormal polynomial, its
    derivative, and sum_(k < n) (p_k / p_0)^2, from the three-term recurrence
    b_(k+1) p_(k+1) = (s - diag_k) p_k - b_k p_(k-1), b_n taken as 1."""
    p_prev, p = np.zeros_like(s), np.ones_like(s)
    d_prev, d = np.zeros_like(s), np.zeros_like(s)
    total = np.zeros_like(s)
    b_prev = 0.0
    for a, b in zip(diag.tolist(), off.tolist() + [1.0]):
        total += p * p
        u = s - a
        p_prev, p, d_prev, d = (p, (u * p - b_prev * p_prev) / b,
                                d, (u * d + p - b_prev * d_prev) / b)
        b_prev = b
    return p, d, total


def _cell_count(length: float, max_width: float | None) -> int:
    """Equal cells of graded_panels on an interval of this length: at least
    four, and none wider than max_width."""
    width = length / 4.0 if max_width is None else min(max_width, length / 4.0)
    return math.ceil(length / width)


def graded_panels(a: float, b: float, order: int,
                  max_width: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and weights on [a, b], refined toward both ends.

    [a, b] is cut into at least four equal cells no wider than max_width, with
    order nodes each. The first and last are split by repeated halving toward
    the endpoints into _PANEL_DEPTH + 1 = 25 slivers, the innermost kept as a
    cell of its own, at half the order. This restores fast convergence when
    the integrand loses smoothness only at the ends of the interval (support
    edges, corner points, weight factors whose scale shrinks toward an
    endpoint). The sliver at level k, k halvings in from the cell's inner
    edge, is 2^-(k+1) of the cell wide and carries that share of its mass.
    """
    length = b - a
    if not length > 0:
        raise ValueError("panel range must have positive length")
    nodes, weights = get_rule(order)
    t, tw = get_rule((order + 1) // 2, _PANEL_DEPTH)
    edges = np.linspace(a, b, _cell_count(length, max_width) + 1)
    first, last = edges[1] - a, b - edges[-2]
    widths = np.diff(edges[1:-1])
    x = np.concatenate([a + first * t,
                        (edges[1:-2, None] + widths[:, None] * nodes).ravel(),
                        b - last * t[::-1]])
    w = np.concatenate([first * tw, (widths[:, None] * weights).ravel(),
                        last * tw[::-1]])
    return x, w
