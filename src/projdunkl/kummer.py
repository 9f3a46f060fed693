"""Confluent kernel of the deformed transform and its eigenfunctions.

Two normalizations of the same series appear throughout:

    M_kappa(z)      = sum_n z^n / (kappa + 1)_n          (value 1 at z = 0)
    bold M_kappa(z) = M_kappa(z) / Gamma(kappa + 1)
                    = sum_n z^n / Gamma(kappa + 1 + n)

bold M is the transform kernel; M is the rank-one eigenfunction normalization.
At kappa = 0 both collapse to exp(z).

Evaluation picks the regime by |z|: the plain series in double precision loses
roughly e^|Im z| * eps to cancellation, so it is trusted only for |z| <= 8; a
Gauss-Jacobi form of

    bold M_kappa(z) = (1 / Gamma(kappa)) integral_0^1 (1-t)^(kappa-1) e^(zt) dt
                    = (2 e^z / Gamma(kappa)) integral_0^1 u^(2 kappa - 1) e^(-z u^2) du

covers the mid range (the substituted form keeps the Jacobi weight away from
its ill-conditioned a < 0 corner), and the divergent-series expansion

    bold M_kappa(z) = e^z z^(-kappa) - S / (Gamma(kappa) z),
    S = sum_j (kappa-1)(kappa-2)...(kappa-j) z^(-j)

(truncated at its smallest term) takes over for large |z|, where it is
accurate far below double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import TestFunction
from .opengine import one_var_T_squared
from .quadrature import get_rule
from .rootgeom import OrthogonalSubsystem, RationalVector

SERIES_RADIUS = 8.0
QUAD_RADIUS = 64.0
_QUAD_ORDER = 160
_SERIES_TERMS = 70
_ASYM_TERMS = 40


def _series_nonbold(kappa: float, z: complex) -> complex:
    acc = term = 1.0 + 0.0j
    for n in range(_SERIES_TERMS):
        term = term * z / (kappa + 1.0 + n)
        acc += term
    return acc


def _bold_M_reference(kappa: float, z: complex) -> complex:
    """bold M_kappa(z) from mpmath's 1F1 at 40 digits, as a test reference.

    kappa enters mpmath as the exact value of the double and kappa + 1 is
    formed at 40 digits, so the reference answers for exactly the kappa given.
    """
    import mpmath as mp

    with mp.workdps(40):
        k = mp.mpf(kappa)
        return complex(mp.hyp1f1(1, k + 1, z) / mp.gamma(k + 1))


def _quad_bold(kappa: float, z: complex) -> complex:
    # t = 1 - u^2 moves the endpoint singularity into the Jacobi weight
    # u^(2 kappa - 1), whose rule is far better conditioned than a = kappa - 1
    rule = get_rule(1, _QUAD_ORDER, beta=2.0 * kappa - 1.0)
    acc = complex(np.dot(rule.weights, np.exp(-z * rule.nodes**2)))
    return complex(2.0 * np.exp(z) * acc / math.gamma(kappa))


def _asym_bold(kappa: float, z: complex) -> complex:
    s = 0.0 + 0.0j
    c = 1.0 + 0.0j
    zinv = 1.0 / z
    prev = math.inf
    for j in range(_ASYM_TERMS):
        mag = abs(c)
        if mag == 0.0 or mag > prev:
            break  # truncate at the smallest term
        s += c
        prev = mag
        c = c * (kappa - (j + 1)) * zinv
    return complex(np.exp(z) * z ** (-kappa) - s / (math.gamma(kappa) * z))


def _eval(kappa: float, z: complex) -> tuple[complex, complex]:
    """(bold, nonbold) at one point."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    z = complex(z)
    if kappa == 0:
        e = complex(np.exp(z)) if abs(z.imag) else complex(math.exp(z.real))
        return e, e
    r = abs(z)
    if r <= SERIES_RADIUS:
        nb = _series_nonbold(kappa, z)
        return nb / math.gamma(kappa + 1.0), nb
    if r <= QUAD_RADIUS:
        b = _quad_bold(kappa, z)
    else:
        b = _asym_bold(kappa, z)
    return b, b * math.gamma(kappa + 1.0)


def kummer_M(kappa: float, z: complex) -> complex:
    """M_kappa(z), normalized to 1 at the origin."""
    return _eval(kappa, z)[1]


def bold_M(kappa: float, z: complex) -> complex:
    """The transform kernel normalization, 1 / Gamma(kappa + 1) at the origin."""
    return _eval(kappa, z)[0]


def bold_M_derivative(kappa: float, z: complex, n: int = 1) -> complex:
    """n-th derivative via the shift identity

        (d/dz) bold M_kappa = bold M_kappa - kappa bold M_(kappa+1),

    iterated: sum_i (-1)^i C(n, i) (kappa)_i bold M_(kappa+i)(z).
    """
    if n < 0:
        raise ValueError("negative derivative order")
    total = 0.0 + 0.0j
    poch = 1.0
    for i in range(n + 1):
        total += (-1) ** i * math.comb(n, i) * poch * bold_M(kappa + i, z)
        poch *= kappa + i
    return total


def kummer_M_derivative(kappa: float, z: complex, n: int = 1) -> complex:
    return math.gamma(kappa + 1.0) * bold_M_derivative(kappa, z, n)


def bold_M_on_imaginary(kappa: float, y: np.ndarray) -> np.ndarray:
    """Vectorized kernel values bold M_kappa(i y) for a real array y."""
    y = np.asarray(y, dtype=float)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    z = 1j * y
    if kappa == 0:
        return np.exp(z)
    out = np.empty(y.shape, dtype=complex)
    r = np.abs(y)
    m_series = r <= SERIES_RADIUS
    m_quad = (~m_series) & (r <= QUAD_RADIUS)
    m_asym = r > QUAD_RADIUS

    if np.any(m_series):
        zs = z[m_series]
        acc = np.ones_like(zs)
        term = np.ones_like(zs)
        for n in range(_SERIES_TERMS):
            term = term * zs / (kappa + 1.0 + n)
            acc += term
        out[m_series] = acc / math.gamma(kappa + 1.0)

    if np.any(m_quad):
        zq = z[m_quad]
        rule = get_rule(1, _QUAD_ORDER, beta=2.0 * kappa - 1.0)
        sq = rule.nodes**2
        vals = np.empty(zq.shape, dtype=complex)
        step = 2048
        for i in range(0, len(zq), step):
            block = zq[i:i + step]
            vals[i:i + step] = np.exp(np.outer(-block, sq)) @ rule.weights
        out[m_quad] = 2.0 * np.exp(zq) * vals / math.gamma(kappa)

    if np.any(m_asym):
        za = z[m_asym]
        zinv = 1.0 / za
        s = np.zeros_like(za)
        c = np.ones_like(za)
        coeff = 1.0
        for j in range(_ASYM_TERMS):
            s += c
            coeff = kappa - (j + 1)
            c = c * coeff * zinv
        out[m_asym] = np.exp(za) * za ** (-kappa) - s / (math.gamma(kappa) * za)

    return out


# ---- rank-one eigenfunctions ---------------------------------------------------

def eigen_rank_one(kappa: float, lam: float) -> TestFunction:
    """E(x) = M_kappa(i lam x), the eigenfunction with eigenvalue i lam."""
    g = math.gamma(kappa + 1.0)

    def value(x):
        return kummer_M(kappa, 1j * lam * float(x))

    def deriv(x):
        return 1j * lam * g * bold_M_derivative(kappa, 1j * lam * float(x), 1)

    def second(x):
        return -(lam ** 2) * g * bold_M_derivative(kappa, 1j * lam * float(x), 2)

    return TestFunction(f"eigen(kappa={kappa}, lam={lam})", 1, value, deriv,
                        None, second)


def generalized_ode_residual(kappa: float, lam: float, x: float) -> float:
    """|T^2 E + lam^2 E| at x for the rank-one eigenfunction E."""
    e = eigen_rank_one(kappa, lam)
    return abs(one_var_T_squared(kappa, e, x) + lam ** 2 * e.value(x))


# ---- multivariate eigenfunctions ------------------------------------------------

def _detect_variant(subsystem: OrthogonalSubsystem) -> str:
    n = subsystem.dim
    roots = subsystem.roots

    def is_unit(v: RationalVector, j: int) -> bool:
        return all(v[i] == (1 if i == j else 0) for i in range(n))

    def is_pair(v: RationalVector, j: int, sign: int) -> bool:
        return all(
            v[i] == (1 if i == 2 * j else (sign if i == 2 * j + 1 else 0))
            for i in range(n))

    if len(roots) == n and all(is_unit(r, j) for j, r in enumerate(roots)):
        return "direct"
    p = n // 2
    if len(roots) == p and all(is_pair(r, j, -1) for j, r in enumerate(roots)):
        return "A"
    if len(roots) == 2 * p and all(
            is_pair(r, j // 2, -1 if j % 2 == 0 else 1) for j, r in enumerate(roots)):
        return "B"
    raise ValueError("subsystem is not a recognized eigenfunction family "
                     "(coordinate, difference-pair, or split-pair layout required)")


@dataclass
class MultivarEigenfunction:
    """Joint eigenfunction: T_xi E = i <lam, xi> E for every direction xi."""

    subsystem: OrthogonalSubsystem
    lam: tuple
    variant: str

    def __post_init__(self):
        if len(self.lam) != self.subsystem.dim:
            raise ValueError("one spectral coordinate per dimension required")
        self.lam = tuple(float(v) for v in self.lam)

    # factor tables -----------------------------------------------------------
    def _factors(self, x):
        """Per-factor kernel values and derivatives at x, plus the phase."""
        n = self.subsystem.dim
        lam = self.lam
        kap = [float(k) for k in self.subsystem.kappas]
        if self.variant == "direct":
            z = [1j * lam[j] * x[j] for j in range(n)]
            vals = [kummer_M(kap[j], z[j]) for j in range(n)]
            ders = [math.gamma(kap[j] + 1.0) * bold_M_derivative(kap[j], z[j], 1)
                    for j in range(n)]
            return vals, ders, 0.0
        p = n // 2
        if self.variant == "A":
            phase = sum((lam[2 * j] + lam[2 * j + 1]) * (x[2 * j] + x[2 * j + 1]) / 2.0
                        for j in range(p))
            if n % 2:
                phase += lam[n - 1] * x[n - 1]
            z = [0.5j * (lam[2 * j] - lam[2 * j + 1]) * (x[2 * j] - x[2 * j + 1])
                 for j in range(p)]
            vals = [kummer_M(kap[j], z[j]) for j in range(p)]
            ders = [math.gamma(kap[j] + 1.0) * bold_M_derivative(kap[j], z[j], 1)
                    for j in range(p)]
            return vals, ders, phase
        # B: factors alternate (minus, plus) per pair
        phase = lam[n - 1] * x[n - 1] if n % 2 else 0.0
        vals, ders = [], []
        for j in range(p):
            zm = 0.5j * (lam[2 * j] - lam[2 * j + 1]) * (x[2 * j] - x[2 * j + 1])
            zp = 0.5j * (lam[2 * j] + lam[2 * j + 1]) * (x[2 * j] + x[2 * j + 1])
            km, kp = kap[2 * j], kap[2 * j + 1]
            vals.extend([kummer_M(km, zm), kummer_M(kp, zp)])
            ders.extend([math.gamma(km + 1.0) * bold_M_derivative(km, zm, 1),
                         math.gamma(kp + 1.0) * bold_M_derivative(kp, zp, 1)])
        return vals, ders, phase

    def value(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        vals, _, phase = self._factors(x)
        return complex(np.exp(1j * phase) * math.prod(vals) if vals else np.exp(1j * phase))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.subsystem.dim
        lam = self.lam
        vals, ders, phase = self._factors(x)
        ph = np.exp(1j * phase)
        total = math.prod(vals) if vals else 1.0

        def prod_except(items, j):
            out = 1.0 + 0.0j
            for k, v in enumerate(items):
                if k != j:
                    out *= v
            return out

        grad = np.zeros(n, dtype=complex)
        if self.variant == "direct":
            for j in range(n):
                grad[j] = ph * 1j * lam[j] * ders[j] * prod_except(vals, j)
            return grad
        p = n // 2
        if self.variant == "A":
            for j in range(p):
                half_sum = 0.5j * (lam[2 * j] + lam[2 * j + 1])
                half_diff = 0.5j * (lam[2 * j] - lam[2 * j + 1])
                rest = prod_except(vals, j)
                grad[2 * j] = half_sum * ph * total + ph * half_diff * ders[j] * rest
                grad[2 * j + 1] = half_sum * ph * total - ph * half_diff * ders[j] * rest
            if n % 2:
                grad[n - 1] = 1j * lam[n - 1] * ph * total
            return grad
        for j in range(p):
            half_diff = 0.5j * (lam[2 * j] - lam[2 * j + 1])
            half_sum = 0.5j * (lam[2 * j] + lam[2 * j + 1])
            minus_term = half_diff * ders[2 * j] * vals[2 * j + 1]
            plus_term = half_sum * vals[2 * j] * ders[2 * j + 1]
            rest = 1.0 + 0.0j  # product over the other pairs
            for k in range(p):
                if k != j:
                    rest *= vals[2 * k] * vals[2 * k + 1]
            grad[2 * j] = ph * rest * (minus_term + plus_term)
            grad[2 * j + 1] = ph * rest * (-minus_term + plus_term)
        if n % 2:
            grad[n - 1] = 1j * lam[n - 1] * ph * total
        return grad

    def eigenvalue(self, xi) -> complex:
        """i <lam, xi>, so that T_xi E = eigenvalue(xi) * E."""
        coords = xi.to_floats() if hasattr(xi, "to_floats") else np.asarray(xi, dtype=float)
        return 1j * sum(float(l) * float(c) for l, c in zip(self.lam, coords))


def eigen_multivar(subsystem: OrthogonalSubsystem, lam: Sequence[float],
                   variant: str | None = None) -> MultivarEigenfunction:
    """Build the joint eigenfunction for a recognized subsystem layout."""
    detected = _detect_variant(subsystem)
    if variant is not None and variant != detected:
        raise ValueError(f"subsystem layout is {detected!r}, not {variant!r}")
    return MultivarEigenfunction(subsystem, tuple(lam), detected)


# ---- grid export -----------------------------------------------------------------

def kernel_grid_csv(kappas: Sequence[float], lambdas: Sequence[float],
                    xs: Sequence[float]) -> str:
    """Transform-kernel values bold M_kappa(i lam x) as CSV."""
    lines = ["kappa,lambda,x,re,im,abs"]
    for kap in kappas:
        for lam in lambdas:
            vals = bold_M_on_imaginary(float(kap), np.asarray(
                [lam * x for x in xs], dtype=float))
            for x, v in zip(xs, vals):
                lines.append(f"{kap},{lam},{x},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(lines) + "\n"
