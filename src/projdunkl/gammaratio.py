"""Formal quotients of Gamma values with exact reduction.

A GammaRatio is coef * prod Gamma(a)^e over rational a. Reduction applies
Gamma(z+1) = z Gamma(z) within each residue class mod 1 until every class
carries a single base argument; integer-argument factors collapse into the
rational coefficient. Two ratios are equal iff their reduced forms match,
which makes the representation canonical regardless of construction order.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .rootgeom import _as_fraction, _fraction_str


def pochhammer(z: Fraction, k: int) -> Fraction:
    """(z)_k = z (z+1) ... (z+k-1), exact."""
    if k < 0:
        raise ValueError("negative Pochhammer length")
    out = Fraction(1)
    for j in range(k):
        out *= z + j
    return out


class GammaRatio:
    __slots__ = ("coef", "factors")

    def __init__(self, coef=1, num=(), den=()) -> None:
        """num/den are iterables of Gamma arguments; poles are rejected."""
        coef = _as_fraction(coef)
        exps: dict[Fraction, int] = {}
        for arg in num:
            a = _as_fraction(arg)
            exps[a] = exps.get(a, 0) + 1
        for arg in den:
            a = _as_fraction(arg)
            exps[a] = exps.get(a, 0) - 1
        for a in exps:
            if a.denominator == 1 and a <= 0:
                raise ValueError(f"Gamma pole at argument {a}")
        # group by residue class mod 1, rebase each class on its minimal argument
        classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
        for a, e in exps.items():
            if e:
                classes.setdefault(a % 1, []).append((a, e))
        factors: dict[Fraction, int] = {}
        for resid, members in classes.items():
            if resid == 0:
                # positive integers: collapse to factorials
                for a, e in members:
                    f = Fraction(math.factorial(int(a) - 1))
                    coef *= f ** e
                continue
            base = min(a for a, _ in members)
            total = 0
            for a, e in members:
                k = int(a - base)
                if k:
                    coef *= pochhammer(base, k) ** e
                total += e
            if total:
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

    def is_one(self) -> bool:
        return self.coef == 1 and not self.factors

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
    def __mul__(self, other) -> "GammaRatio":
        if isinstance(other, GammaRatio):
            num, den = [], []
            for a, e in list(self.factors.items()) + list(other.factors.items()):
                (num if e > 0 else den).extend([a] * abs(e))
            return GammaRatio(self.coef * other.coef, num, den)
        q = _as_fraction(other)
        num, den = [], []
        for a, e in self.factors.items():
            (num if e > 0 else den).extend([a] * abs(e))
        return GammaRatio(self.coef * q, num, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GammaRatio":
        if isinstance(other, GammaRatio):
            if other.coef == 0:
                raise ZeroDivisionError("division by zero GammaRatio")
            num, den = [], []
            for a, e in self.factors.items():
                (num if e > 0 else den).extend([a] * abs(e))
            for a, e in other.factors.items():
                (den if e > 0 else num).extend([a] * abs(e))
            return GammaRatio(self.coef / other.coef, num, den)
        return self * (Fraction(1) / _as_fraction(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coef == other
        return (isinstance(other, GammaRatio)
                and self.coef == other.coef and self.factors == other.factors)

    def __hash__(self):
        return hash((self.coef, tuple(self.factors.items())))

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
