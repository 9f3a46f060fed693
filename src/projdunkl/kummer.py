"""Confluent kernel of the deformed transform and its eigenfunctions.

Two normalizations of the same series appear throughout:

    M_kappa(z)      = sum_n z^n / (kappa + 1)_n          (value 1 at z = 0)
    bold M_kappa(z) = M_kappa(z) / Gamma(kappa + 1)
                    = sum_n z^n / Gamma(kappa + 1 + n)

bold M is the transform kernel; M is the rank-one eigenfunction normalization.
Over any orthogonal subsystem, the joint eigenfunction of every T_xi is a
plane wave times one rank-one factor M per root (MultivarEigenfunction).
At kappa = 0 both collapse to exp(z), for every z. Otherwise one evaluator
serves the scalar entry points and the array ones (bold_M_array, and
bold_M_on_imaginary for the transform), in two regimes:

- |z| <= max(4, kappa): the series above, summed until r^n / (kappa + 1)_n,
  r the largest |z|, drops below 1e-30. No term exceeds 4^n / n! < 11, or
  the first one once |z| <= kappa, which bounds what cancels.
- elsewhere: bold M_kappa(z) = e^z z^-kappa P(kappa, z) (DLMF 8.2.7), P the
  regularized lower incomplete gamma function, through its complement
  e^z z^-kappa - G / Gamma(kappa). G = e^z z^-kappa Gamma(kappa, z) is
  Legendre's continued fraction (DLMF 8.9.2)
  1/(z+1-kappa - 1(1-kappa)/(z+3-kappa - 2(2-kappa)/(z+5-kappa - ...))),
  evaluated backward. It converges uniformly in kappa away from the negative
  real axis, in about C / |z| steps (Gil, Segura and Temme, Numerical Methods
  for Special Functions, ch. 6), so each point starts at the depth that its
  |z| needs, _cf_depth, capped at 80. That takes two rules: one fit over the
  whole domain to agreement in double with a deep start, and a shallower
  one on the imaginary axis, where every transform node lies, fit to the
  truncation error in long double. An array runs one backward sweep over
  its points sorted by depth, each joining at its own (_cf_g_sorted).
  Below kappa = 5.6e-309, where Gamma(kappa) overflows, G / Gamma(kappa) is
  formed as G kappa / Gamma(kappa + 1).

Domain: 0 <= kappa <= 170 (Gamma(kappa + 1) is finite), and z in the series
disk or at |arg z| <= 2 pi / 3, which holds the whole imaginary axis. At
|arg z| <= 2 pi / 3 the relative error against the 40-digit reference stays
below 1e-13; in the rest of the disk the series keeps its absolute error
below 1e-14. Input outside the domain, where the fraction does not converge,
raises ValueError, and so do z that is not finite and a value that
overflows a double (kappa 0.5 at z = 1500; at kappa 170 the value there is
about e^257, finite).
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
from .rootgeom import OrthogonalSubsystem

MAX_ARG = 2.0 * math.pi / 3.0
_CF_DEPTH = 80  # the deepest start of the continued fraction
# e^x is finite up to x = log(largest double), about 709.78
_LOG_MAX = math.log(sys.float_info.max)


def _series_radius(kappa: float) -> float:
    return max(4.0, kappa)


def gamma_plus_one(kappa: float) -> float:
    """Gamma(kappa + 1), to within 1e-15 relative for 0 < kappa <= 170.

    Where kappa + 1.0 rounds, Gamma amplifies the rounding of its argument by
    the digamma function (7e-14 relative near kappa = 127); kappa Gamma(kappa)
    takes kappa exactly and adds one rounding. Below kappa = 5.6e-309
    Gamma(kappa) overflows a double, and Gamma(kappa + 1) rounds to 1.
    """
    if (kappa + 1.0) - 1.0 == kappa:
        return math.gamma(kappa + 1.0)
    try:
        return kappa * math.gamma(kappa)
    except OverflowError:
        return 1.0


def _check_kappa(kappa: float) -> None:
    if not 0.0 <= kappa <= 170.0:
        raise ValueError(f"kappa = {kappa} outside the kernel domain 0 <= kappa <= 170")


# The two regime helpers take a Python complex or a complex numpy array (the
# series also a real one); the only calls that differ between the two come in
# as exp and angle.

def _series_nonbold(kappa: float, z):
    """M_kappa(z) from its series, for |z| <= max(4, kappa)."""
    # on |z| <= kappa, |term n| <= prod_j kappa / (kappa + 1 + j) < 1e-20 once
    # n >= 12 sqrt(kappa); 70 terms also cover |z| <= 4. The sum stops sooner
    # once r^n / (kappa + 1)_n, which bounds term n for the largest |z| = r,
    # drops below 1e-30: past their peak the terms only shrink. A real array
    # stays real, so each of its values keeps the bits of the scalar call,
    # whose complex arithmetic reduces to real operations there.
    if isinstance(z, complex):
        r, acc = abs(z), 1.0 + 0.0j
    else:
        r = float(np.abs(z).max(initial=0.0))
        acc = 1.0 + 0.0j if np.iscomplexobj(z) else 1.0
    term = acc
    bound = 1.0
    for n in range(max(70, int(12.0 * math.sqrt(kappa)))):
        term = term * z / (kappa + 1.0 + n)
        acc += term
        bound *= r / (kappa + 1.0 + n)
        if bound < 1e-30:
            break
    return acc


def _cf_depth(kappa: float, z):
    """Depth from which the fraction has converged at z, outside the disk.

    Two rules, both capped at 80; tests/test_kummer.py sweeps each domain.
    - Off the imaginary axis, 8 + ceil((480 + 64 kappa) / |z|): from there
      the double evaluation agrees with one started at depth 400 to 2^-53
      relative, for 0 < kappa <= 170, |arg z| <= 2 pi / 3 and |z| up to
      1000. At 70000 random points of that domain, 3 + (470 + 64 kappa) / |z|
      covered the measured depth, and the constants add a margin. Next to
      |z| = 4 off the axis, 80 steps fall short of 2^-53 and the cap keeps
      them at 80.
    - Where Re z = 0, as at every node of the transform, the fraction
      converges faster: 4 + ceil((220 + 2.5 kappa^1.5) / |z|). From there
      the truncation error stays below 2^-53 relative, measured in long
      double against a depth-400 start; at 90000 random axis points (kappa
      1e-3 to 170, integers among them, |y| past max(4, kappa) to 1000) the
      rule covered that depth with a step to spare. Truncation, not
      agreement in double, is the criterion here: next to |y| = 4 two
      double starts still differ by an ulp of rounding long after the
      fraction has converged (at kappa = 1e-3 and |y| in [4, 4.5], up to
      depth 74, where truncation is below 2^-53 from depth 49).
    An array z gives an array of depths, each by its own rule.
    """
    if isinstance(z, np.ndarray):
        axis = z.real == 0
        steps = np.where(axis, 220.0 + 2.5 * kappa ** 1.5, 480.0 + 64.0 * kappa) / np.abs(z)
        return np.minimum(_CF_DEPTH, np.where(axis, 4, 8) + np.ceil(steps).astype(int))
    if z.real == 0:
        return min(_CF_DEPTH, 4 + math.ceil((220.0 + 2.5 * kappa ** 1.5) / abs(z)))
    return min(_CF_DEPTH, 8 + math.ceil((480.0 + 64.0 * kappa) / abs(z)))


def _cf_g(kappa: float, z, depth: int):
    """G = e^z z^-kappa Gamma(kappa, z), Legendre's fraction started at depth."""
    w = z + (1.0 - kappa)
    t = 0.0
    for j in range(depth, 0, -1):
        t = j * (j - kappa) / (w + 2 * j - t)
    return 1.0 / (w - t)


def _cf_g_sorted(kappa: float, z: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """_cf_g(kappa, z[i], depth[i]) for every i, in one backward sweep.

    depth must never increase along the array, so the points that run step j
    are a prefix. A point joins at its own depth with t = 0, as _cf_g starts it,
    and every step repeats _cf_g's operations, so each value keeps its bits.
    """
    w = z + (1.0 - kappa)
    t = np.zeros_like(w)
    d = np.empty_like(w)
    # per step j, from the deepest down: the points with depth >= j, and 2 j
    # and j (j - kappa) as complex scalars. Most steps touch few points, so
    # the per-call cost of numpy sets the pace: the scalars are converted
    # once, and the outputs go in place, passed positionally.
    js = np.arange(depth[0], 0, -1)
    live = np.searchsorted(-depth, -js, side="right").tolist()
    for n, shift, num in zip(live, (2 * js).astype(complex),
                             (js * (js - kappa)).astype(complex)):
        dn, tn = d[:n], t[:n]
        np.add(w[:n], shift, dn)
        np.subtract(dn, tn, dn)
        np.divide(num, dn, tn)
    return 1.0 / (w - t)


def _cf_bold(kappa: float, z, exp, angle):
    """bold M_kappa(z) from Legendre's continued fraction, kappa > 0.

    Every point runs the fraction from its own depth (_cf_depth); an array is
    swept once, deepest first. On and off the axis the two rules interleave,
    so the sweep goes by depth, not by |z|.
    """
    r = abs(z)
    if isinstance(z, complex):
        g = _cf_g(kappa, z, _cf_depth(kappa, z))
        top = z.real
    else:
        depth = _cf_depth(kappa, z)
        order = np.argsort(-depth, kind="stable")
        g = np.empty_like(z)
        g[order] = _cf_g_sorted(kappa, z[order], depth[order])
        top = z.real.max(initial=0.0)
    # e^z z^-kappa as the square of e^(z/2) |z|^(-kappa/2) e^(-i kappa arg z / 2):
    # neither factor underflows where the product does not, the modulus goes
    # through pow, and Im z never shares a rounded phase with kappa arg z.
    # Past Re z / 2 = _LOG_MAX, e^(z/2) alone overflows where the product
    # need not, so the excess s moves into the modulus; one scalar s serves a
    # whole array. Below that, as on the whole imaginary axis, there is no
    # shift and every factor keeps its bits.
    half_z = z / 2
    modulus = r ** (-kappa / 2)
    s = top / 2 - _LOG_MAX
    if s > 0.0:
        half_z, modulus = half_z - s, modulus * math.exp(s)
    half = exp(half_z) * (modulus * exp(-0.5j * kappa * angle(z)))
    try:
        tail = g / math.gamma(kappa)
    except OverflowError:  # kappa below 5.6e-309: 1 / Gamma(kappa) = kappa / Gamma(kappa + 1)
        tail = g * (kappa / gamma_plus_one(kappa))
    return half * half - tail


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
    if not cmath.isfinite(z):
        raise ValueError(f"z = {z} is not finite")
    if kappa == 0:
        # past Re z = 709.8 the value overflows: _finite refuses the inf
        with np.errstate(over="ignore"):
            e = complex(np.exp(z)) if abs(z.imag) else complex(math.exp(z.real))
        return e, e
    g = gamma_plus_one(kappa)
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
        raise _overflow(kappa, z)
    return v


def _overflow(kappa: float, z) -> ValueError:
    return ValueError(f"the kernel overflows a double at kappa = {kappa}, z = {z}")


def kummer_M(kappa: float, z: complex) -> complex:
    """M_kappa(z), normalized to 1 at the origin."""
    return _finite(kappa, z, 1)


def bold_M(kappa: float, z: complex) -> complex:
    """The transform kernel normalization, 1 / Gamma(kappa + 1) at the origin."""
    return _finite(kappa, z, 0)


def _bold_array(kappa: float, z: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """bold M_kappa at every point of z, inside the mask of the series disk.

    No checks: the callers have made sure that every point lies in the domain.
    """
    if kappa == 0:
        return np.exp(z)
    out = np.empty(z.shape, dtype=complex)
    if inside.any():
        out[inside] = _series_nonbold(kappa, z[inside]) / gamma_plus_one(kappa)
    far = ~inside
    if far.any():
        out[far] = _cf_bold(kappa, z[far].astype(complex, copy=False), np.exp, np.angle)
    return out


def bold_M_array(kappa: float, z) -> np.ndarray:
    """bold M_kappa(z) at every point of an array z, as a complex array.

    Same domain, finiteness and overflow checks as bold_M. A real array runs
    the series in real arithmetic, so at kappa > 0 its values in the series
    disk are those of bold_M bit for bit. Elsewhere numpy's exp and complex
    division may round the last bit otherwise.
    """
    _check_kappa(kappa)
    z = np.asarray(z)
    z = z.astype(complex if np.iscomplexobj(z) else float, copy=False)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"z = {z[~finite][0]} is not finite")
    inside = np.abs(z) <= _series_radius(kappa)
    if kappa != 0:
        off = ~inside & ~(np.abs(np.angle(z)) <= MAX_ARG)
        if off.any():
            raise ValueError(f"z = {z[off][0]} outside the kernel domain "
                             "|z| <= max(4, kappa) or |arg z| <= 2 pi / 3")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _bold_array(kappa, z, inside).astype(complex, copy=False)
    except OverflowError:  # math.exp of _cf_bold's shift, set by the largest Re z
        raise _overflow(kappa, z.flat[np.argmax(z.real)]) from None
    finite = np.isfinite(out)
    if not finite.all():
        raise _overflow(kappa, z[~finite][0])
    return out


def _shift_sum(kappa: float, values: Sequence, n: int):
    """n-th derivative of bold M_kappa from values[i] = bold M_(kappa+i),
    i = 0..n, by the shift identity

        (d/dz) bold M_kappa = bold M_kappa - kappa bold M_(kappa+1),

    iterated: sum_i (-1)^i C(n, i) (kappa)_i bold M_(kappa+i).
    """
    total = 0.0 + 0.0j
    poch = 1.0
    for i in range(n + 1):
        total = total + (-1) ** i * math.comb(n, i) * poch * values[i]
        poch *= kappa + i
    return total


def bold_M_derivative(kappa: float, z: complex, n: int = 1) -> complex:
    """n-th derivative of bold M_kappa at one point (_shift_sum)."""
    if n < 0:
        raise ValueError("negative derivative order")
    return _shift_sum(kappa, [bold_M(kappa + i, z) for i in range(n + 1)], n)


def bold_M_jet(kappa: float, z, n: int) -> list[np.ndarray]:
    """bold M_kappa and its first n derivatives at every point of an array z.

    Entry j is the j-th derivative (_shift_sum), built from the n + 1 arrays
    bold_M_array(kappa + i, z). At real z in the series disk, kappa > 0, each
    entry keeps the bits of bold_M_derivative.
    """
    if n < 0:
        raise ValueError("negative derivative order")
    values = [bold_M_array(kappa + i, z) for i in range(n + 1)]
    return [_shift_sum(kappa, values, j) for j in range(n + 1)]


def bold_M_on_imaginary(kappa: float, y: np.ndarray) -> np.ndarray:
    """Vectorized kernel values bold M_kappa(i y) for a real array y."""
    _check_kappa(kappa)
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        raise ValueError(f"y = {y[~finite][0]} is not finite")
    # the whole axis lies in the domain, and no value there overflows
    return _bold_array(kappa, 1j * y, np.abs(y) <= _series_radius(kappa))


# ---- rank-one eigenfunctions ---------------------------------------------------

def eigen_rank_one(kappa: float, lam: float) -> TestFunction:
    """E(x) = M_kappa(i lam x), the eigenfunction with eigenvalue i lam."""
    g = gamma_plus_one(kappa)

    def value(x):
        return kummer_M(kappa, 1j * lam * float(x))

    def deriv(x):
        return 1j * lam * g * bold_M_derivative(kappa, 1j * lam * float(x), 1)

    def second(x):
        return -(lam ** 2) * g * bold_M_derivative(kappa, 1j * lam * float(x), 2)

    return TestFunction(f"eigen(kappa={kappa}, lam={lam})", value, deriv, None, second)


def generalized_ode_residual(kappa: float, lam: float, x: float) -> float:
    """|T^2 E + lam^2 E| at x for the rank-one eigenfunction E."""
    e = eigen_rank_one(kappa, lam)
    return abs(one_var_T_squared(kappa, e, x) + lam ** 2 * e.value(x))


# ---- multivariate eigenfunctions ------------------------------------------------

@dataclass
class MultivarEigenfunction:
    """Joint eigenfunction: T_xi E = i <lam, xi> E for every direction xi.

    The roots are pairwise orthogonal, so each tau_j moves only the alpha_j
    component of x and E factors into a plane wave and one rank-one kernel
    per root. With c_j = <lam, alpha_j> / |alpha_j|^2 and
    P lam = lam - sum_j c_j alpha_j,

        E(x) = exp(i <P lam, x>) prod_j M_kappa_j(i c_j <x, alpha_j>).
    """

    subsystem: OrthogonalSubsystem
    lam: tuple

    def __post_init__(self):
        if len(self.lam) != self.subsystem.dim:
            raise ValueError("one spectral coordinate per dimension required")
        self.lam = tuple(float(v) for v in self.lam)
        for i, v in enumerate(self.lam):
            if not math.isfinite(v):
                raise ValueError(f"lam[{i}] = {v} is not finite")
        roots = self.subsystem.roots
        self._alphas = np.array([a.to_floats() for a in roots],
                                dtype=float).reshape(len(roots), self.subsystem.dim)
        self._kappas = [float(k) for k in self.subsystem.kappas]
        lam = np.array(self.lam)
        self._c = self._alphas @ lam / np.einsum("ij,ij->i", self._alphas, self._alphas)
        self._p_lam = lam - self._c @ self._alphas

    def _wave_and_args(self, x):
        """exp(i <P lam, x>) and the kernel arguments i c_j <x, alpha_j>."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.subsystem.dim,):
            raise ValueError(f"point must have shape ({self.subsystem.dim},)")
        wave = cmath.exp(1j * float(self._p_lam @ x))
        return wave, (1j * (self._c * (self._alphas @ x))).tolist()

    def value(self, x) -> complex:
        wave, z = self._wave_and_args(x)
        return wave * math.prod(kummer_M(k, zj) for k, zj in zip(self._kappas, z))

    def gradient(self, x) -> np.ndarray:
        wave, z = self._wave_and_args(x)
        vals = [kummer_M(k, zj) for k, zj in zip(self._kappas, z)]
        grad = 1j * self._p_lam * (wave * math.prod(vals))
        for j, (k, zj) in enumerate(zip(self._kappas, z)):
            # M' = M - kappa Gamma(kappa + 1) bold M_(kappa+1), reusing M = vals[j]
            deriv = vals[j] - k * gamma_plus_one(k) * bold_M(k + 1, zj)
            rest = math.prod(vals[:j] + vals[j + 1:])
            grad += (1j * self._c[j] * deriv * rest * wave) * self._alphas[j]
        return grad

    def eigenvalue(self, xi) -> complex:
        """i <lam, xi>, so that T_xi E = eigenvalue(xi) * E."""
        coords = xi.to_floats() if hasattr(xi, "to_floats") else np.asarray(xi, dtype=float)
        if len(coords) != self.subsystem.dim:
            raise ValueError(f"direction must have shape ({self.subsystem.dim},)")
        return 1j * sum(float(l) * float(c) for l, c in zip(self.lam, coords))


def eigen_multivar(subsystem: OrthogonalSubsystem,
                   lam: Sequence[float]) -> MultivarEigenfunction:
    """Build the joint eigenfunction of any orthogonal subsystem."""
    return MultivarEigenfunction(subsystem, tuple(lam))
