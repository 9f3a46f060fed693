"""Formal quotients of Gamma values with exact reduction.

A GammaRatio is coef * prod Gamma(a)^e over rational a. Reduction applies
Gamma(z+1) = z Gamma(z) within each residue class mod 1 until every class
carries a single base argument, its smallest; the positive integers form
one class, whose base factor collapses into the rational coefficient. That
stored form depends on the arguments given (2/G(7/2) and 8/15/G(3/2) are one
value) and is what str prints. Equality and hashing use the normal form,
which rebases each class on its residue in (0, 1), so equal values compare
and hash equal, and a rational ratio hashes as its Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .rootgeom import _as_fraction, _fraction_str


def pochhammer(z: Fraction, k: int) -> Fraction:
    """(z)_k = z (z+1) ... (z+k-1), exact."""
    if k < 0:
        raise ValueError("negative Pochhammer length")
    n, d = z.numerator, z.denominator
    if d == 1 and n > 0:
        # (n + k - 1)! / (n - 1)!, multiplied out in C
        return Fraction(math.perm(n + k - 1, k))
    out = 1
    for j in range(k):
        out *= n + j * d
    return Fraction(out, d ** k)


class GammaRatio:
    __slots__ = ("coef", "factors")

    def __init__(self, coef=1, num=(), den=()) -> None:
        """num/den are iterables of Gamma arguments; poles are rejected."""
        coef = _as_fraction(coef)
        exps: dict[Fraction, int] = {}
        for args, sign in ((num, 1), (den, -1)):
            for arg in args:
                a = _as_fraction(arg)
                exps[a] = exps.get(a, 0) + sign
        # group by residue class mod 1, keyed (numerator mod d, d), and rebase
        # each class on its minimal argument; the positive integers are one
        # class, whose net Gamma(base)^total collapses to a factorial
        classes: dict[tuple[int, int], list[tuple[Fraction, int]]] = {}
        for a, e in exps.items():
            n, d = a.numerator, a.denominator
            if d == 1 and n <= 0:
                raise ValueError(f"Gamma pole at argument {a}")
            if e:
                classes.setdefault((n % d, d), []).append((a, e))
        factors: dict[Fraction, int] = {}
        for (_, d), members in classes.items():
            base = min(members)[0]
            total = 0
            for a, e in members:
                k = (a.numerator - base.numerator) // d
                if k:
                    coef *= pochhammer(base, k) ** e
                total += e
            if total and d == 1:
                coef *= Fraction(math.factorial(base.numerator - 1)) ** total
            elif total:
                factors[base] = total
        if coef == 0:
            factors = {}
        self.coef = coef
        self.factors = dict(sorted(factors.items()))

    # ---- constructors ---------------------------------------------------
    @classmethod
    def one(cls) -> "GammaRatio":
        return cls(1)

    # ---- queries ----------------------------------------------------------
    def is_rational(self) -> bool:
        return not self.factors

    def as_fraction(self) -> Fraction:
        if self.factors:
            raise ValueError(f"{self} is not rational")
        return self.coef

    def to_float(self) -> float:
        v = float(self.coef)
        for a, e in self.factors.items():
            v *= math.gamma(float(a)) ** e
        return v

    # ---- algebra ----------------------------------------------------------
    def _times(self, other, sign: int) -> "GammaRatio":
        """self * other ** sign, sign = 1 or -1."""
        if not isinstance(other, GammaRatio):
            other = GammaRatio(other)
        num, den = [], []
        for s, factors in ((1, self.factors), (sign, other.factors)):
            for a, e in factors.items():
                (num if s * e > 0 else den).extend([a] * abs(e))
        return GammaRatio(self.coef * other.coef ** sign, num, den)

    def __mul__(self, other) -> "GammaRatio":
        return self._times(other, 1)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GammaRatio":
        return self._times(other, -1)

    def _normal(self) -> tuple:
        """(coef, factors) with each class based at its residue r in (0, 1):
        Gamma(r + k) = (r)_k Gamma(r), and Gamma(r) / (r + k)_(-k) for k < 0."""
        coef = self.coef
        for a, e in self.factors.items():
            k = math.floor(a)
            coef *= pochhammer(a - k, k) ** e if k >= 0 else pochhammer(a, -k) ** -e
        return coef, tuple(sorted((a % 1, e) for a, e in self.factors.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coef == other
        return isinstance(other, GammaRatio) and self._normal() == other._normal()

    def __hash__(self):
        return hash(self._normal()) if self.factors else hash(self.coef)

    def __str__(self) -> str:
        if not self.factors:
            return _fraction_str(self.coef)
        ups, downs = [], []
        for a, e in self.factors.items():
            part = f"G({_fraction_str(a)})" + (f"^{abs(e)}" if abs(e) > 1 else "")
            (ups if e > 0 else downs).append(part)
        if self.coef == 1:
            head = "*".join(ups) if ups else "1"
        elif ups:
            head = _fraction_str(self.coef) + "*" + "*".join(ups)
        else:
            head = _fraction_str(self.coef)
        if downs:
            head += "/" + "/".join(downs)
        return head

    def __repr__(self) -> str:
        return f"GammaRatio[{self}]"
