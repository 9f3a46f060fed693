"""Exact rational geometry of orthogonal root subsystems.

Vectors live in Q^N. A subsystem is a list of pairwise orthogonal nonzero
roots with one rational multiplicity per root. Everything here is exact;
no floats enter or leave.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

_FRACTION_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        s = v.strip()
        if not _FRACTION_RE.match(s):
            raise ValueError(f"not a rational literal: {v!r}")
        return Fraction(s)
    raise TypeError(f"cannot convert {type(v).__name__} to Fraction exactly")


def _fraction_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalVector:
    """Immutable vector with Fraction coordinates."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable) -> None:
        object.__setattr__(self, "coords", tuple(_as_fraction(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def parse(cls, text: str) -> "RationalVector":
        """Parse the text form ``(a/b, c, ...)``."""
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"vector text must be parenthesized: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            raise ValueError("empty vector")
        return cls(_as_fraction(part) for part in inner.split(","))

    @classmethod
    def unit(cls, i: int, dim: int) -> "RationalVector":
        if not 0 <= i < dim:
            raise ValueError(f"unit index {i} out of range for dim {dim}")
        return cls(Fraction(1 if j == i else 0) for j in range(dim))

    @classmethod
    def zero(cls, dim: int) -> "RationalVector":
        return cls(Fraction(0) for _ in range(dim))

    def _over_common_denominator(self) -> tuple[list[int], int]:
        """Integer numerators over the least common denominator."""
        den = lcm(*(c.denominator for c in self.coords))
        return [c.numerator * (den // c.denominator) for c in self.coords], den

    def dot(self, other: "RationalVector") -> Fraction:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        # one integer sum and one reduction, not one Fraction sum per term
        a, da = self._over_common_denominator()
        b, db = other._over_common_denominator()
        return Fraction(sum(map(mul, a, b)), da * db)

    def norm_sq(self) -> Fraction:
        a, da = self._over_common_denominator()
        return Fraction(sum(map(mul, a, a)), da * da)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def scale(self, s) -> "RationalVector":
        q = _as_fraction(s)
        return RationalVector(c * q for c in self.coords)

    def __add__(self, other: "RationalVector") -> "RationalVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalVector(a - b for a, b in zip(self.coords, other.coords))

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __str__(self) -> str:
        return "(" + ", ".join(_fraction_str(c) for c in self.coords) + ")"

    def to_floats(self) -> list[float]:
        return [float(c) for c in self.coords]


def reflect(x: RationalVector, alpha: RationalVector) -> RationalVector:
    """Orthogonal reflection s_a(x) = x - 2<x,a>/|a|^2 a."""
    if alpha.is_zero():
        raise ValueError("reflection axis must be nonzero")
    c = 2 * x.dot(alpha) / alpha.norm_sq()
    return x - alpha.scale(c)


def project(x: RationalVector, alpha: RationalVector) -> RationalVector:
    """Hyperplane projection tau_a(x) = x - <x,a>/|a|^2 a, the half sum (1+s_a)/2."""
    if alpha.is_zero():
        raise ValueError("projection axis must be nonzero")
    c = x.dot(alpha) / alpha.norm_sq()
    return x - alpha.scale(c)


@dataclass(frozen=True)
class OrthogonalSubsystem:
    """Pairwise orthogonal nonzero roots with rational multiplicities >= 0."""

    dim: int
    roots: tuple[RationalVector, ...]
    kappas: tuple[Fraction, ...]

    def __init__(self, dim: int, roots: Sequence[RationalVector], kappas: Sequence) -> None:
        roots = tuple(roots)
        kappas = tuple(_as_fraction(k) for k in kappas)
        if len(roots) != len(kappas):
            raise ValueError(f"{len(roots)} roots but {len(kappas)} multiplicities")
        if len(roots) > dim:
            raise ValueError("more orthogonal roots than the dimension allows")
        for a in roots:
            if a.dim != dim:
                raise ValueError(f"root {a} has dim {a.dim}, subsystem has dim {dim}")
            if a.is_zero():
                raise ValueError("zero vector cannot be a root")
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if roots[i].dot(roots[j]) != 0:
                    raise ValueError(
                        f"roots {roots[i]} and {roots[j]} are not orthogonal")
        for k in kappas:
            if k < 0:
                raise ValueError(f"multiplicity {k} is negative")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "kappas", kappas)

    @property
    def nroots(self) -> int:
        return len(self.roots)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "roots": [[_fraction_str(c) for c in a.coords] for a in self.roots],
            "kappas": [_fraction_str(k) for k in self.kappas],
        })

    @classmethod
    def from_json(cls, text: str) -> "OrthogonalSubsystem":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"subsystem JSON malformed at offset {e.pos}: {e.msg}") from None
        if not isinstance(obj, dict):
            raise ValueError("subsystem JSON must be an object")
        for key in ("dim", "roots", "kappas"):
            if key not in obj:
                raise ValueError(f"subsystem JSON missing field {key!r}")
        dim, roots, kappas = obj["dim"], obj["roots"], obj["kappas"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"subsystem JSON field 'dim' = {dim!r} is not a positive integer")
        if not (isinstance(roots, list) and all(isinstance(r, list) for r in roots)):
            raise ValueError("subsystem JSON field 'roots' is not a list of lists")
        if not isinstance(kappas, list):
            raise ValueError("subsystem JSON field 'kappas' is not a list")
        return cls(dim, [RationalVector(_json_rational("roots", c) for c in r) for r in roots],
                   [_json_rational("kappas", k) for k in kappas])


def _json_rational(field: str, v) -> Fraction:
    """An entry of a subsystem JSON field: an integer or a rational string."""
    if type(v) is int or isinstance(v, str) and _FRACTION_RE.match(v.strip()):
        return _as_fraction(v)
    raise ValueError(f"subsystem JSON field {field!r} holds {v!r}, "
                     "not an integer or a rational string")


def build_subsystem_A(dim: int, kappas: Sequence) -> OrthogonalSubsystem:
    """Difference roots e_{2i-1} - e_{2i}, one kappa per pair; odd trailing coordinate free."""
    npairs = dim // 2
    kappas = list(kappas)
    if len(kappas) != npairs:
        raise ValueError(f"need {npairs} multiplicities for dim {dim}, got {len(kappas)}")
    roots = []
    for i in range(npairs):
        c = [Fraction(0)] * dim
        c[2 * i], c[2 * i + 1] = Fraction(1), Fraction(-1)
        roots.append(RationalVector(c))
    return OrthogonalSubsystem(dim, roots, kappas)


def build_subsystem_B(dim: int, kappas_minus: Sequence, kappas_plus: Sequence) -> OrthogonalSubsystem:
    """Per pair i the two roots e_{2i-1} -+ e_{2i}, ordered (minus, plus).

    kappas_minus[i] weights the difference root, kappas_plus[i] the sum root.
    """
    npairs = dim // 2
    km, kp = list(kappas_minus), list(kappas_plus)
    if len(km) != npairs or len(kp) != npairs:
        raise ValueError(f"need {npairs} multiplicities per sign for dim {dim}")
    roots, kappas = [], []
    for i in range(npairs):
        cm = [Fraction(0)] * dim
        cm[2 * i], cm[2 * i + 1] = Fraction(1), Fraction(-1)
        cp = [Fraction(0)] * dim
        cp[2 * i], cp[2 * i + 1] = Fraction(1), Fraction(1)
        roots.extend([RationalVector(cm), RationalVector(cp)])
        kappas.extend([km[i], kp[i]])
    return OrthogonalSubsystem(dim, roots, kappas)


def build_subsystem_coordinate(dim: int, kappas: Sequence) -> OrthogonalSubsystem:
    """Coordinate roots e_1..e_N (the direct product case), one kappa each."""
    kappas = list(kappas)
    if len(kappas) != dim:
        raise ValueError(f"need {dim} multiplicities, got {len(kappas)}")
    roots = [RationalVector.unit(i, dim) for i in range(dim)]
    return OrthogonalSubsystem(dim, roots, kappas)
