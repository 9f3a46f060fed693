"""Confluent kernel of the deformed transform and its eigenfunctions.

Two normalizations of the same series appear throughout:

    M_kappa(z)      = sum_n z^n / (kappa + 1)_n          (value 1 at z = 0)
    bold M_kappa(z) = M_kappa(z) / Gamma(kappa + 1)
                    = sum_n z^n / Gamma(kappa + 1 + n)

bold M is the transform kernel; M is the rank-one eigenfunction normalization.
At kappa = 0 both collapse to exp(z), for every z. Otherwise one evaluator
serves the scalar and the vectorized entry points, in two regimes:

- |z| <= max(4, kappa): the series above. No term exceeds 4^n / n! < 11, or
  the first one once |z| <= kappa, which bounds what cancels.
- elsewhere: bold M_kappa(z) = e^z z^-kappa P(kappa, z) (DLMF 8.2.7), P the
  regularized lower incomplete gamma function, through its complement
  e^z z^-kappa - G / Gamma(kappa). G = e^z z^-kappa Gamma(kappa, z) is
  Legendre's continued fraction (DLMF 8.9.2)
  1/(z+1-kappa - 1(1-kappa)/(z+3-kappa - 2(2-kappa)/(z+5-kappa - ...))),
  evaluated backward from a fixed depth; it converges uniformly in kappa
  away from the negative real axis.

Domain: 0 <= kappa <= 170 (Gamma(kappa + 1) is finite), and z in the series
disk or at |arg z| <= 2 pi / 3, which holds the whole imaginary axis. At
|arg z| <= 2 pi / 3 the relative error against the 40-digit reference stays
below 1e-13; in the rest of the disk the series keeps its absolute error
below 1e-14. Input outside the domain, where the fraction does not converge,
raises ValueError, and so does a scalar call whose value overflows a double
(kappa 0.5 at z = 1500; at kappa 170 the value there is about e^257, finite).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import TestFunction
from .opengine import one_var_T_squared
from .rootgeom import OrthogonalSubsystem, RationalVector

MAX_ARG = 2.0 * math.pi / 3.0
_CF_DEPTH = 80
# e^x is finite up to x = log(largest double), about 709.78
_LOG_MAX = math.log(sys.float_info.max)


def _series_radius(kappa: float) -> float:
    return max(4.0, kappa)


def _check_kappa(kappa: float) -> None:
    if not 0.0 <= kappa <= 170.0:
        raise ValueError(f"kappa = {kappa} outside the kernel domain 0 <= kappa <= 170")


# The two regime helpers take a Python complex or a complex numpy array; the
# only calls that differ between the two come in as exp and angle.

def _series_nonbold(kappa: float, z):
    """M_kappa(z) from its series, for |z| <= max(4, kappa)."""
    # on |z| <= kappa, |term n| <= prod_j kappa / (kappa + 1 + j) < 1e-20 once
    # n >= 12 sqrt(kappa); 70 terms also cover |z| <= 4
    acc = term = 1.0 + 0.0j
    for n in range(max(70, int(12.0 * math.sqrt(kappa)))):
        term = term * z / (kappa + 1.0 + n)
        acc += term
    return acc


def _cf_bold(kappa: float, z, exp, angle):
    """bold M_kappa(z) from Legendre's continued fraction, kappa > 0."""
    w = z + (1.0 - kappa)
    t = 0.0
    for j in range(_CF_DEPTH, 0, -1):
        t = j * (j - kappa) / (w + 2 * j - t)
    g = 1.0 / (w - t)
    # e^z z^-kappa as the square of e^(z/2) |z|^(-kappa/2) e^(-i kappa arg z / 2):
    # neither factor underflows where the product does not, the modulus goes
    # through pow, and Im z never shares a rounded phase with kappa arg z.
    # Past Re z / 2 = _LOG_MAX, e^(z/2) alone overflows where the product
    # need not, so the excess s moves into the modulus; one scalar s serves a
    # whole array. Below, s = 0 and every factor keeps its bits.
    top = z.real if isinstance(z, complex) else z.real.max(initial=0.0)
    s = max(0.0, top / 2 - _LOG_MAX)
    half = exp(z / 2 - s) * (abs(z) ** (-kappa / 2) * math.exp(s)
                             * exp(-0.5j * kappa * angle(z)))
    return half * half - g / math.gamma(kappa)


def _bold_M_reference(kappa: float, z: complex) -> complex:
    """bold M_kappa(z) from mpmath's 1F1 at 40 digits, as a test reference.

    kappa enters mpmath as the exact value of the double and kappa + 1 is
    formed at 40 digits, so the reference answers for exactly the kappa given.
    """
    import mpmath as mp

    with mp.workdps(40):
        k = mp.mpf(kappa)
        return complex(mp.hyp1f1(1, k + 1, z) / mp.gamma(k + 1))


def _eval(kappa: float, z: complex) -> tuple[complex, complex]:
    """(bold, nonbold) at one point."""
    _check_kappa(kappa)
    z = complex(z)
    if kappa == 0:
        e = complex(np.exp(z)) if abs(z.imag) else complex(math.exp(z.real))
        return e, e
    g = math.gamma(kappa + 1.0)
    if abs(z) <= _series_radius(kappa):
        nb = _series_nonbold(kappa, z)
        return nb / g, nb
    if not abs(cmath.phase(z)) <= MAX_ARG:
        raise ValueError(f"z = {z} outside the kernel domain "
                         "|z| <= max(4, kappa) or |arg z| <= 2 pi / 3")
    b = _cf_bold(kappa, z, cmath.exp, cmath.phase)
    return b, b * g


def _finite(kappa: float, z: complex, which: int) -> complex:
    """_eval(kappa, z)[which]; ValueError where it overflows a double."""
    try:
        v = _eval(kappa, z)[which]
    except OverflowError:  # math and cmath raise where numpy gives inf
        v = complex(math.inf)
    if not cmath.isfinite(v):
        raise ValueError(f"the kernel overflows a double at kappa = {kappa}, z = {z}")
    return v


def kummer_M(kappa: float, z: complex) -> complex:
    """M_kappa(z), normalized to 1 at the origin."""
    return _finite(kappa, z, 1)


def bold_M(kappa: float, z: complex) -> complex:
    """The transform kernel normalization, 1 / Gamma(kappa + 1) at the origin."""
    return _finite(kappa, z, 0)


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
    _check_kappa(kappa)
    y = np.asarray(y, dtype=float)
    z = 1j * y
    if kappa == 0:
        return np.exp(z)
    out = np.empty(y.shape, dtype=complex)
    inside = np.abs(y) <= _series_radius(kappa)
    if inside.any():
        out[inside] = _series_nonbold(kappa, z[inside]) / math.gamma(kappa + 1.0)
    if not inside.all():
        out[~inside] = _cf_bold(kappa, z[~inside], np.exp, np.angle)
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
