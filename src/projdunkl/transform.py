"""Deformed Fourier transform on the line.

    F_kappa(f)(lam) = integral f(x) bold M_kappa(i lam x) dx

reduces to the classical transform at kappa = 0 and factorizes through the
dual intertwining map: F_kappa f = F_0 (dual chi f), whose right-hand side
transform_through_dual computes. Every function here returns values; the
transform suite holds the tolerances that compare them. Quadrature uses
oscillation-limited Gauss panels aligned to the support and split at the
corners of f, so hard-edged functions are integrated exactly panel by panel.
Every entry integrates over [-A, A], A = f.support_bound.
A panel is at most 4 pi / max(1, |lam|) wide, two periods of e^(i lam x),
with 24 nodes: Gauss-Legendre converges geometrically on analytic
integrands (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Rev. 2008), and for e^(i w t) on [-1, 1] at w = 2 pi its 24-node error
bound 2^49 (24!)^4 / (49 (48!)^3) w^48 (Abramowitz and Stegun 25.4.30) is
about 2e-37. The end cells of each piece are graded
toward the piece's ends at half the order (quadrature.graded_panels). The
kernel is evaluated only at nodes where f is not zero: on a piece of the
support where f vanishes, or where it underflows next to a support end, a
node adds an exact zero whatever the kernel value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import TestFunction, _support_bound, get_function
from .intertwine import _check_dual_kappa, dual_chi
from .kummer import bold_M_on_imaginary
from .quadrature import _cell_count, _store, get_rule, graded_panels

_PANEL_ORDER = 24
# transform_through_dual integrates the dual image down to |x| = _XMIN and
# adds the core |x| < _XMIN in closed form
_XMIN = 1e-6
# meshes by (cuts, order, cells per piece): a mesh depends on lam only through
# its cell counts, so one 64-point request builds a handful; read-only arrays
_MESH_CACHE_SIZE = 8
_meshes: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _panel_nodes(f, a: float, max_width: float, order: int = _PANEL_ORDER):
    # support ends and corners are where compactly supported functions stop
    # being analytic, so the mesh on [-a, a] is split at the corners of f and
    # each piece is refined geometrically toward both of its ends
    cuts = sorted({-a, a} | {float(c) for c in getattr(f, "corners", ()) if -a < c < a})
    spans = list(zip(cuts[:-1], cuts[1:]))
    width = min(max_width, a / 4.0)
    key = (tuple(cuts), order, tuple(_cell_count(hi - lo, width) for lo, hi in spans))
    mesh = _meshes.get(key)
    if mesh is None:
        pieces = [graded_panels(lo, hi, order, max_width=width) for lo, hi in spans]
        mesh = tuple(np.concatenate(part) for part in zip(*pieces))
        for part in mesh:
            part.flags.writeable = False
        mesh = _store(_meshes, key, mesh, _MESH_CACHE_SIZE)
    return mesh


def _panel_width(lam: float) -> float:
    """The widest transform panel at lam: two periods of e^(i lam x)."""
    return 4.0 * math.pi / max(1.0, abs(lam))


def kummer_transform(f, kappa: float, lam: float) -> complex:
    """F_kappa(f)(lam) over the (finite) support of f."""
    if not math.isfinite(lam):
        raise ValueError(f"lam = {lam} is not finite")
    a = _support_bound(f)
    x, w = _panel_nodes(f, a, _panel_width(lam))
    fx = np.array(np.broadcast_to(f(x), x.shape), dtype=complex)
    # nodes where f vanishes add exact zeros, so the kernel skips them; the
    # dot product keeps every node, which keeps its summation order
    live = fx != 0
    fx[live] *= bold_M_on_imaginary(kappa, lam * x[live])
    return complex(np.dot(w, fx))


def transform_grid(f, kappa: float, lams: Sequence[float]) -> np.ndarray:
    return np.array([kummer_transform(f, kappa, lam) for lam in lams])


def l1_norm(f) -> float:
    a = _support_bound(f)
    x, w = _panel_nodes(f, a, a / 4.0, order=64)
    return float(np.dot(w, np.abs(np.asarray(f(x)))))


# B_2k / 2k, k = 1..7: psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: within 8e-16 of max(1, |psi(x)|) for x in
    [1e-3, 170] (measured 5.1e-16 against 40 digits).

    psi(x) = psi(x + m) - sum_(j < m) 1 / (x + j) lifts x to 10 or more,
    where the asymptotic series through x^-14 leaves 4e-17 (DLMF 5.5.2,
    5.11.2). The parts are summed exactly rounded, so the rounding of each
    x + j is what is left; next to the root 1.4616 of psi that error is
    absolute, not relative.
    """
    parts = []
    while x < 10.0:
        parts.append(-1.0 / x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_SERIES):
        series = series * inv2 + c
    parts += [math.log(x), -0.5 / x, -inv2 * series]
    return math.fsum(parts)


def _dual_core(f, kappa: float, a: float) -> float:
    """The integral of the dual image over |x| < _XMIN, up to O(_XMIN^2).

    Near 0 the dual image is

        dual(s) = (f(0) (log(a/s) - psi(kappa) - gamma) + J_+-) / Gamma(kappa) + O(s),
        J_+- = integral_0^a (f(+-t) - f(0)) / t dt,

    for s -> 0+ and s -> 0-: in t = s/u the f(0) part is
    integral_(s/a)^1 (1-u)^(kappa-1) / u du, whose constant is DLMF 5.9.16.
    J_+- is integrated on graded panels over [0, a], split at the corners of f.
    """
    corners = [float(c) for c in getattr(f, "corners", ())]
    if 0.0 in corners:
        raise ValueError("f has a corner at 0, where the dual image's core "
                         "has no closed form")
    f0 = float(f(0.0))
    j = 0.0
    for sgn in (1.0, -1.0):
        cuts = sorted({0.0, a} | {sgn * c for c in corners if 0.0 < sgn * c < a})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            t, wt = graded_panels(lo, hi, _PANEL_ORDER)
            j += float(np.dot(wt, (np.asarray(f(sgn * t)) - f0) / t))
    side = f0 * (math.log(a / _XMIN) + 1.0 - _digamma(kappa) - np.euler_gamma)
    return _XMIN * (2.0 * side + j) / math.gamma(kappa)


def transform_through_dual(f, kappa: float, lams: Sequence[float]) -> np.ndarray:
    """F_0(dual chi f)(lam) on the grid, the factorized form of F_kappa f.

    The dual image is smooth away from 0 but only log-bounded at 0, so its
    Fourier side is integrated on geometrically graded panels down to
    _XMIN = 1e-6 and the core |x| < _XMIN is added in closed form
    (_dual_core). What is left is O(_XMIN^2): e^(i lam x) - 1 and the O(s)
    term of the dual image are both O(_XMIN) on the core. For a support
    bound f.support_bound of 1 the mesh has 960 dual points. The support
    bound must exceed _XMIN, and f must not have a corner at 0.
    """
    _check_dual_kappa(kappa)
    a = _support_bound(f)
    if not _XMIN < a:
        raise ValueError(f"support bound {a} must exceed the core radius {_XMIN}")
    core = _dual_core(f, kappa, a)
    # geometric edges _XMIN = a r^n < ... < a, mirrored to the negative side
    n = max(1, math.ceil(math.log(a / _XMIN) / math.log(2.0)))
    pos_edges = a * (0.5 ** np.arange(n + 1))
    pos_edges[-1] = _XMIN
    nodes, weights = get_rule(_PANEL_ORDER)
    xs = []
    ws = []
    for hi, lo in zip(pos_edges[:-1], pos_edges[1:]):
        for s in (1.0, -1.0):
            xs.append(s * (lo + (hi - lo) * nodes))
            ws.append(np.full_like(nodes, (hi - lo)) * weights)
    x = np.concatenate(xs)
    wd = np.concatenate(ws) * dual_chi(kappa, f, x)
    return np.array([complex(np.dot(wd, np.exp(1j * lam * x))) + core for lam in lams])


def transform_csv(f, kappa: float, lams: Sequence[float]) -> str:
    lines = ["lambda,re,im,abs"]
    for lam, v in zip(lams, transform_grid(f, kappa, lams)):
        lines.append(f"{lam},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TransformRequest:
    """CLI-facing description of one transform run."""

    function: str
    kappa: float
    grid: tuple[float, float, int]  # start, stop, count

    @property
    def lambdas(self) -> np.ndarray:
        start, stop, count = self.grid
        if count < 1:
            raise ValueError("grid needs at least one point")
        for name, end in (("start", start), ("stop", stop)):
            if not math.isfinite(end):
                raise ValueError(f"grid {name} = {end} is not finite")
        return np.linspace(start, stop, int(count))

    def run(self) -> str:
        f: TestFunction = get_function(self.function)
        return transform_csv(f, self.kappa, self.lambdas.tolist())
