"""Exact and numeric application of projection-difference derivatives.

The operator couples a directional derivative with one divided-difference term
per root of an orthogonal subsystem:

    T_xi f(x) = d_xi f(x) + sum_i kappa_i <alpha_i, xi> (f(x) - f(tau_i x)) / <x, alpha_i>

where tau_i is the orthogonal projection onto the wall of alpha_i. Polynomial
paths are exact over Q; the numeric path replaces the quotient by its analytic
limit near a wall.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polycore import (
    MPoly,
    _map_root_blocks,
    directional_derivative,
    divided_difference,
    exact_div_var_power,
    partial_derivative,
    substitute_zero,
)
from .rootgeom import (
    OrthogonalSubsystem,
    RationalVector,
    XiDecomposition,
    _as_fraction,
    build_subsystem_coordinate,
    decompose_xi,
)

# Relative threshold below which <x, alpha> counts as "on the wall".
HYPERPLANE_GUARD = 1e-8


# Bounded far above the working set of a few multiplicity-free block shapes
# (about 200 for degree 12 on A-, B- and coordinate roots).
@lru_cache(maxsize=1024)
def _rho_block(alpha_entries: tuple, exps: tuple) -> MPoly:
    # divided difference of a monomial in the root's own coordinate block
    alpha = RationalVector(alpha_entries)
    return divided_difference(MPoly.monomial(exps), alpha)


def rho_poly(p: MPoly, alpha: RationalVector) -> MPoly:
    """(p - p o tau_alpha) / <x, alpha>, reduced per-term to alpha's support block.

    tau_alpha only moves the coordinates where alpha is nonzero, so each
    monomial factors into an invariant part times a block monomial; block
    results are cached across calls.
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


def apply_T_poly_decomposed(subsystem: OrthogonalSubsystem, xi: RationalVector, p: MPoly) -> MPoly:
    """T_xi p assembled from per-root operators plus the orthogonal remainder.

    Splits xi = sum_i xi_i alpha_i + xi_hat and applies
    sum_i xi_i T_{alpha_i} + d_{xi_hat}. Must agree with apply_T_poly exactly.
    """
    dec: XiDecomposition = decompose_xi(subsystem, xi)
    out = directional_derivative(p, dec.xi_hat)
    for coeff, alpha, kappa in zip(dec.coefficients, subsystem.roots, subsystem.kappas):
        if not coeff:
            continue
        t_alpha = directional_derivative(p, alpha)
        if kappa:
            t_alpha = t_alpha + rho_poly(p, alpha) * (kappa * alpha.norm_sq())
        out = out + t_alpha * coeff
    return out


def apply_T_numeric(subsystem: OrthogonalSubsystem, xi: RationalVector, f, x,
                    guard: float = HYPERPLANE_GUARD):
    """T_xi f at a point, for any f exposing value(x) and gradient(x).

    Within a relative distance `guard` of a wall the divided difference is
    replaced by its limit <grad f(tau x), alpha> / |alpha|^2.
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
        if c == 0.0 or abs(c) < guard * xnorm * np.sqrt(norm_sq):
            q = np.dot(np.asarray(f.gradient(tau_x)), a) / norm_sq
        else:
            if fx is None:
                fx = f.value(x)
            q = (fx - f.value(tau_x)) / c
        out = out + w * q
    return out


@dataclass(frozen=True)
class ProjectionDunklOperator:
    """T_xi bound to one subsystem and one direction."""

    subsystem: OrthogonalSubsystem
    xi: RationalVector

    def __post_init__(self) -> None:
        if self.xi.dim != self.subsystem.dim:
            raise ValueError("direction dimension does not match the subsystem")

    def apply_poly(self, p: MPoly) -> MPoly:
        return apply_T_poly(self.subsystem, self.xi, p)

    def apply_numeric(self, f, x, guard: float = HYPERPLANE_GUARD):
        return apply_T_numeric(self.subsystem, self.xi, f, x, guard)

    def decompose(self) -> XiDecomposition:
        return decompose_xi(self.subsystem, self.xi)


def commutator_poly(op_a: ProjectionDunklOperator, op_b: ProjectionDunklOperator,
                    p: MPoly) -> MPoly:
    """[T_xi, T_eta] p. Both operators must share one subsystem."""
    if op_a.subsystem != op_b.subsystem:
        raise ValueError("operators act over different subsystems; "
                         "the commutator is only defined for a shared root family")
    return op_a.apply_poly(op_b.apply_poly(p)) - op_b.apply_poly(op_a.apply_poly(p))


# ---- one-variable specialization --------------------------------------------

def one_var_T_poly(kappa, p: MPoly) -> MPoly:
    """Exact one-variable operator: x^n -> (n + kappa) x^(n-1)."""
    if p.nvars != 1:
        raise ValueError("univariate polynomial required")
    kappa = _as_fraction(kappa)
    return MPoly(1, {(n - 1,): c * (n + kappa) for (n,), c in p.terms.items() if n})


def one_var_T(kappa: float, f, x: float, zero_tol: float = 1e-10):
    """f'(x) + kappa (f(x) - f(0)) / x, with the x=0 limit (1 + kappa) f'(0)."""
    if abs(x) < zero_tol:
        return (1.0 + kappa) * f.derivative(0.0)
    return f.derivative(x) + kappa * (f.value(x) - f.value(0.0)) / x


def one_var_T_squared(kappa: float, f, x: float, zero_tol: float = 1e-10):
    """Second power of the one-variable operator, in closed form.

    T^2 f = f'' + (2 kappa / x) f' + kappa (kappa - 1)(f - f(0)) / x^2
            - kappa (kappa + 1) f'(0) / x,
    with the x=0 limit f''(0) (kappa + 1)(kappa + 2) / 2.
    """
    if f.second_derivative is None:
        raise ValueError(f"{getattr(f, 'name', f)} carries no second derivative")
    if abs(x) < zero_tol:
        return f.second_derivative(0.0) * (kappa + 1.0) * (kappa + 2.0) / 2.0
    f0 = f.value(0.0)
    d0 = f.derivative(0.0)
    return (f.second_derivative(x) + (2.0 * kappa / x) * f.derivative(x)
            + kappa * (kappa - 1.0) * (f.value(x) - f0) / x ** 2
            - kappa * (kappa + 1.0) * d0 / x)


# ---- coordinate Laplacian ----------------------------------------------------

@dataclass(frozen=True)
class LaplacianSplit:
    """Both assemblies of sum_j T_j^2 over a coordinate subsystem."""

    sum_sq: MPoly
    expanded: MPoly

    @property
    def match(self) -> bool:
        return self.sum_sq == self.expanded


def laplacian_direct(p: MPoly, kappas, expanded_kappas=None) -> LaplacianSplit:
    """Compare sum_j T_j^2 p with its closed-form expansion.

    The expansion adds, per coordinate j with multiplicity kappa_j,

        (2 kappa_j x_j d_j p - (kappa_j^2 + kappa_j) x_j (d_j p)|_{x_j=0}
         + (kappa_j^2 - kappa_j)(p - p|_{x_j=0})) / x_j^2

    to the plain Laplacian; the numerator is divisible by x_j^2 identically.
    expanded_kappas perturbs only the expansion side (testing hook).
    """
    n = p.nvars
    kappas = [_as_fraction(k) for k in kappas]
    if len(kappas) != n:
        raise ValueError("one multiplicity per coordinate required")
    sub = build_subsystem_coordinate(n, kappas)

    sum_sq = MPoly.zero(n)
    for j in range(n):
        e_j = RationalVector.unit(j, n)
        sum_sq = sum_sq + apply_T_poly(sub, e_j, apply_T_poly(sub, e_j, p))

    ek = kappas if expanded_kappas is None else [_as_fraction(k) for k in expanded_kappas]
    if len(ek) != n:
        raise ValueError("one multiplicity per coordinate required")
    expanded = MPoly.zero(n)
    for j in range(n):
        expanded = expanded + partial_derivative(partial_derivative(p, j), j)
    for j, kap in enumerate(ek):
        if not kap:
            continue
        dj = partial_derivative(p, j)
        xj = MPoly.variable(j, n)
        numer = (xj * dj * (2 * kap)
                 - xj * substitute_zero(dj, j) * (kap * kap + kap)
                 + (p - substitute_zero(p, j)) * (kap * kap - kap))
        expanded = expanded + exact_div_var_power(numer, j, 2)
    return LaplacianSplit(sum_sq, expanded)
