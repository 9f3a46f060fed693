"""Exact and numeric application of projection-difference derivatives.

The operator couples a directional derivative with one divided-difference term
per root of an orthogonal subsystem:

    T_xi f(x) = d_xi f(x) + sum_i kappa_i <alpha_i, xi> (f(x) - f(tau_i x)) / <x, alpha_i>

where tau_i is the orthogonal projection onto the wall of alpha_i. Polynomial
paths are exact over Q: the quotient is |alpha_i|^-2 d_alpha_i f averaged
along the segment from x to tau_i x, the moment sequence u^j -> 1 / (j + 1)
on polycore's segment expansion. The numeric path replaces the quotient by
its analytic limit near a wall. On the coordinate subsystem sum_j T_j^2 has
two exact assemblies, from T itself (laplacian_sum_sq) and in closed form
(laplacian_expanded); the laplacian suite compares them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polycore import (
    MPoly,
    _map_root_blocks,
    _segment_average,
    directional_derivative,
    exact_div_var_power,
    partial_derivative,
    substitute_zero,
)
from .rootgeom import (
    OrthogonalSubsystem,
    RationalVector,
    _as_fraction,
    build_subsystem_coordinate,
)

# Relative threshold below which <x, alpha> counts as "on the wall".
HYPERPLANE_GUARD = 1e-8
# Below this |x| the one-variable operators take their x = 0 limits.
ZERO_TOL = 1e-10


# Bounded far above the working set of a few multiplicity-free block shapes
# (about 200 for degree 12 on A-, B- and coordinate roots).
@lru_cache(maxsize=1024)
def _rho_block(alpha_entries: tuple, exps: tuple) -> MPoly:
    # |alpha|^-2 d_alpha x^exps averaged along the segment: u^j over [0, 1]
    return (_segment_average(alpha_entries, exps, 1, lambda j: Fraction(1, j + 1))
            * Fraction(1, sum(a * a for a in alpha_entries)))


def rho_poly(p: MPoly, alpha: RationalVector) -> MPoly:
    """(p - p o tau_alpha) / <x, alpha>, reduced per-term to alpha's support block.

    tau_alpha only moves the coordinates where alpha is nonzero, so each
    monomial factors into an invariant part times a block monomial. The
    block's quotient is |alpha|^-2 d_alpha of it averaged along the segment
    from tau x to x; block results are cached across calls.
    """
    return _map_root_blocks(p, alpha, _rho_block)


def apply_T_poly(subsystem: OrthogonalSubsystem, xi: RationalVector, p: MPoly) -> MPoly:
    """Exact T_xi p over the given subsystem."""
    if p.nvars != subsystem.dim or xi.dim != subsystem.dim:
        raise ValueError("dimension mismatch")
    out = directional_derivative(p, xi)
    for alpha, kappa in zip(subsystem.roots, subsystem.kappas):
        w = kappa * alpha.dot(xi)
        if w:
            out = out + rho_poly(p, alpha) * w
    return out


def apply_T_numeric(subsystem: OrthogonalSubsystem, xi: RationalVector, f, x):
    """T_xi f at a point, for any f exposing value(x) and gradient(x).

    Within a relative distance HYPERPLANE_GUARD of a wall the divided
    difference is replaced by its limit <grad f(tau x), alpha> / |alpha|^2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (subsystem.dim,):
        raise ValueError(f"point must have shape ({subsystem.dim},)")
    xi_f = (np.array(xi.to_floats()) if hasattr(xi, "to_floats")
            else np.asarray(xi, dtype=float))
    if xi_f.shape != (subsystem.dim,):
        raise ValueError(f"direction must have shape ({subsystem.dim},)")
    grad = np.asarray(f.gradient(x))
    out = np.dot(grad, xi_f)
    xnorm = float(np.linalg.norm(x))
    fx = None
    for alpha, kappa in zip(subsystem.roots, subsystem.kappas):
        a = np.array(alpha.to_floats())
        w = float(kappa) * float(np.dot(a, xi_f))
        if w == 0.0:
            continue
        norm_sq = float(np.dot(a, a))
        c = float(np.dot(x, a))
        tau_x = x - (c / norm_sq) * a
        if c == 0.0 or abs(c) < HYPERPLANE_GUARD * xnorm * np.sqrt(norm_sq):
            q = np.dot(np.asarray(f.gradient(tau_x)), a) / norm_sq
        else:
            if fx is None:
                fx = f.value(x)
            q = (fx - f.value(tau_x)) / c
        out = out + w * q
    return out


def commutator_poly(subsystem: OrthogonalSubsystem, xi: RationalVector,
                    eta: RationalVector, p: MPoly) -> MPoly:
    """[T_xi, T_eta] p over one subsystem."""
    return (apply_T_poly(subsystem, xi, apply_T_poly(subsystem, eta, p))
            - apply_T_poly(subsystem, eta, apply_T_poly(subsystem, xi, p)))


# ---- one-variable specialization --------------------------------------------

def one_var_T(kappa: float, f, x: float):
    """f'(x) + kappa (f(x) - f(0)) / x, with the x=0 limit (1 + kappa) f'(0)."""
    if abs(x) < ZERO_TOL:
        return (1.0 + kappa) * f.derivative(0.0)
    return f.derivative(x) + kappa * (f.value(x) - f.value(0.0)) / x


def one_var_T_squared(kappa: float, f, x: float):
    """Second power of the one-variable operator, in closed form.

    T^2 f = f'' + (2 kappa / x) f' + kappa (kappa - 1)(f - f(0)) / x^2
            - kappa (kappa + 1) f'(0) / x,
    with the x=0 limit f''(0) (kappa + 1)(kappa + 2) / 2.
    """
    if f.second_derivative is None:
        raise ValueError(f"{getattr(f, 'name', f)} carries no second derivative")
    if abs(x) < ZERO_TOL:
        return f.second_derivative(0.0) * (kappa + 1.0) * (kappa + 2.0) / 2.0
    f0 = f.value(0.0)
    d0 = f.derivative(0.0)
    return (f.second_derivative(x) + (2.0 * kappa / x) * f.derivative(x)
            + kappa * (kappa - 1.0) * (f.value(x) - f0) / x ** 2
            - kappa * (kappa + 1.0) * d0 / x)


# ---- coordinate Laplacian ----------------------------------------------------

def _laplacian_kappas(p: MPoly, kappas) -> list[Fraction]:
    kappas = [_as_fraction(k) for k in kappas]
    if len(kappas) != p.nvars:
        raise ValueError("one multiplicity per coordinate required")
    return kappas


def laplacian_sum_sq(p: MPoly, kappas) -> MPoly:
    """sum_j T_j^2 p over the coordinate subsystem with multiplicities kappas."""
    n = p.nvars
    sub = build_subsystem_coordinate(n, _laplacian_kappas(p, kappas))
    out = MPoly.zero(n)
    for j in range(n):
        e_j = RationalVector.unit(j, n)
        out = out + apply_T_poly(sub, e_j, apply_T_poly(sub, e_j, p))
    return out


def laplacian_expanded(p: MPoly, kappas) -> MPoly:
    """sum_j T_j^2 p in closed form: the plain Laplacian plus, per coordinate j
    with multiplicity kappa_j,

        (2 kappa_j x_j d_j p - (kappa_j^2 + kappa_j) x_j (d_j p)|_{x_j=0}
         + (kappa_j^2 - kappa_j)(p - p|_{x_j=0})) / x_j^2,

    whose numerator is divisible by x_j^2 identically.
    """
    n = p.nvars
    kappas = _laplacian_kappas(p, kappas)
    out = MPoly.zero(n)
    for j in range(n):
        out = out + partial_derivative(partial_derivative(p, j), j)
    for j, kap in enumerate(kappas):
        if not kap:
            continue
        dj = partial_derivative(p, j)
        xj = MPoly.variable(j, n)
        numer = (xj * dj * (2 * kap)
                 - xj * substitute_zero(dj, j) * (kap * kap + kap)
                 + (p - substitute_zero(p, j)) * (kap * kap - kap))
        out = out + exact_div_var_power(numer, j, 2)
    return out
