"""Sparse multivariate polynomials over Q and the segment averages of the root maps.

A polynomial stores integer numerators {exponent tuple: int} over one
positive integer denominator. The form is canonical: no zero numerators, and
the denominator shares no factor with all the numerators together, so
equality is structural. Every operation runs its inner loop on Python ints
and reduces once per result, not once per term. `terms` reads the
coefficients as Fractions.

The text form: a polynomial is a sequence of terms, each but the first after
a sign '+' or '-' (the first may carry one), and a term is a product of
factors, written with '*' between them or side by side. A factor is a
number, N or N/D with D nonzero, or a variable xI with I >= 1, optionally
raised to a power xI^K with K a plain integer. Blanks may stand between any
two symbols but not inside a number or a variable. Repeated factors
multiply and like terms add, so "2x1*x1 - 1/2*x1^2" reads as 3/2*x1^2.

Printing is canonical and round-trips through the parser: terms in graded
lex order, highest total degree first and then the exponent tuples
descending ("x1^2 + x1*x2 + x2^2 + x1 + 1"); coefficients reduced, a
coefficient 1 left out, and variables in index order, an exponent 1 left
out. The text of each monomial comes from a table bounded at 8192
exponent tuples, least recently used first out.

The exact root maps move only a root's support coordinates, so each is a map
of block monomials that _map_root_blocks scatters back. chi's per-root
factor and the difference term of T are both averages along the segment
from tau x to x, tau the projection onto the root's wall: each is one
sequence of t moments applied to one cached expansion along that segment
(_segment_expansion, _segment_average), of the block monomial for chi and
of its derivative along the root for T's difference quotient.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Callable, Sequence

from .rootgeom import RationalVector, _as_fraction


# the index of every variable in a text, for the variable count
_VARIABLE_RE = re.compile(r"x(\d+)")


def _descending_terms(num: dict) -> list:
    """(degree, exponents, numerator) per term, in the canonical print order.

    Graded lex, highest first: by total degree, then by exponent tuple, both
    descending. Exponent tuples are distinct, so the sort never compares
    numerators.
    """
    return sorted(zip(map(sum, num), num, num.values()), reverse=True)


# Bounded: six variables up to degree 12 have 18564 monomials. The table
# holds the monomials that recur from one printed image to the next.
@lru_cache(maxsize=8192)
def _monomial_text(e: tuple[int, ...]) -> str:
    """'x1^2*x3' for (2, 0, 1); empty for the constant monomial."""
    return "*".join([f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                     for i, k in enumerate(e) if k])


class _Terms(Mapping):
    """Read-only {exponent tuple: Fraction} view of a polynomial."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int) -> None:
        self._num = num
        self._den = den

    def __getitem__(self, e) -> Fraction:
        return Fraction(self._num[e], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class MPoly:
    """Polynomial in nvars variables: num[e] / den is the coefficient of x^e."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: dict | None = None) -> None:
        coeffs: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    if len(e) != nvars:
                        raise ValueError(f"exponent {e} has arity {len(e)}, expected {nvars}")
                    if any(k < 0 for k in e):
                        raise ValueError(f"negative exponent in {e}")
                    coeffs[tuple(e)] = c
        # over the lcm of reduced denominators the form is already canonical
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self.num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        self.den = den

    @classmethod
    def _from_parts(cls, nvars: int, num: dict, den: int) -> "MPoly":
        """The polynomial num / den (den > 0), brought to canonical form; owns num."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        p = object.__new__(cls)
        p.nvars = nvars
        p.num = num
        p.den = den
        return p

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=1) -> "MPoly":
        return cls(len(exponents), {tuple(exponents): _as_fraction(coeff)})

    # ---- basic queries -------------------------------------------------
    @property
    def terms(self) -> Mapping:
        """The coefficients as a read-only {exponent tuple: Fraction} mapping."""
        return _Terms(self.num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        return max((sum(e) for e in self.num), default=0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    # ---- arithmetic ----------------------------------------------------
    def _add(self, other: "MPoly", sign: int) -> "MPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        den = lcm(self.den, other.den)
        sa = den // self.den
        sb = sign * (den // other.den)
        out = dict(self.num) if sa == 1 else {e: c * sa for e, c in self.num.items()}
        get = out.get
        for e, c in other.num.items():
            out[e] = get(e, 0) + c * sb
        return MPoly._from_parts(self.nvars, out, den)

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._add(other, 1)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._add(other, -1)

    def __neg__(self) -> "MPoly":
        return MPoly._from_parts(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            q = _as_fraction(other)
            n = q.numerator
            return MPoly._from_parts(self.nvars, {e: c * n for e, c in self.num.items()} if n else {},
                                     self.den * q.denominator)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        b_items = list(b.items())
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b_items:
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return MPoly._from_parts(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- text form -----------------------------------------------------
    def to_text(self) -> str:
        if not self.num:
            return "0"
        den = self.den
        parts = []
        for _, e, c in _descending_terms(self.num):
            g = gcd(c, den)
            n, d = abs(c) // g, den // g
            body = _monomial_text(e)
            mag = str(n) if d == 1 else f"{n}/{d}"
            if not body:
                piece = mag
            elif n == d == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    # one token per factor, with the '*' before it: a variable (index, then
    # '^' and the exponent) or a number (numerator, denominator); or any other
    # character: a sign, or an error. An exponent is matched with whatever
    # follows its '^' that could pass for one, so a bad exponent is one error.
    _TOKEN_RE = re.compile(r"\s*(\*?)\s*(?:x(\d+)(?:\s*(\^\s*\d*(?:/\d+)?))?"
                           r"|(\d+)(?:/(\d+))?|(\S))")

    @classmethod
    def from_text(cls, text: str, nvars: int | None = None) -> "MPoly":
        """Parse the text form (grammar in the module docstring).

        nvars defaults to the highest index used.
        """
        tokens = cls._TOKEN_RE.findall(text)
        if not tokens:
            raise ValueError("empty polynomial text")

        def at(i: int, group: int) -> int:
            """Text position of a group of token i, for error messages."""
            return list(cls._TOKEN_RE.finditer(text))[i].start(group)

        maxvar = max(map(int, set(_VARIABLE_RE.findall(text))), default=0)
        n = nvars if nvars is not None else max(maxvar, 1)
        if maxvar > n:
            raise ValueError(f"variable x{maxvar} exceeds declared count {n}")

        # each term as (exponents, signed numerator, denominator)
        parsed: list[tuple[tuple[int, ...], int, int]] = []
        exps = None  # the open term's exponents; None before its first factor
        cn = cd = sign = 1
        pending_sign = False
        for i, (star, var, power, top, bottom, rest) in enumerate(tokens):
            if star or rest == "*":
                if exps is None:
                    raise ValueError(f"parse error at position {at(i, 1 if star else 6)}: '*' with no left factor")
                if not (var or top):
                    raise ValueError(f"parse error at position {at(i, 1 if star else 6)}: factor expected after '*'")
            if var:
                if exps is None:
                    exps = [0] * n
                vi = int(var) - 1
                if vi < 0:
                    raise ValueError(f"variable indices start at x1, got {'x' + var!r}")
                if power:
                    k = power[1:].lstrip()
                    if not k.isdecimal():
                        raise ValueError(f"parse error at position {at(i, 2) - 1}: integer exponent expected after ^")
                    exps[vi] += int(k)
                else:
                    exps[vi] += 1
            elif top:
                if exps is None:
                    exps = [0] * n
                cn *= int(top)
                if bottom:
                    if not int(bottom):
                        raise ValueError(f"zero denominator at position {at(i, 4)}")
                    cd *= int(bottom)
            elif rest == "+" or rest == "-":
                if exps is not None:
                    parsed.append((tuple(exps), sign * cn, cd))
                    exps = None
                    cn = cd = 1
                elif pending_sign:
                    raise ValueError(f"parse error at position {at(i, 6)}: consecutive signs")
                sign = 1 if rest == "+" else -1
                pending_sign = True
            elif rest in "^()":
                raise ValueError(f"parse error at position {at(i, 6)}: unexpected {rest!r}")
            else:
                pos = at(i, 6)
                raise ValueError(f"parse error at position {pos}: {text[pos:pos + 10]!r}")
        if exps is None:
            raise ValueError("dangling sign with no term")
        parsed.append((tuple(exps), sign * cn, cd))
        den = lcm(*(cd for _, _, cd in parsed))
        num: dict[tuple[int, ...], int] = {}
        for e, cn, cd in parsed:
            num[e] = num.get(e, 0) + cn * (den // cd)
        return cls._from_parts(n, num, den)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self.to_text()!r})"


def poly_eval(p: MPoly, point: Sequence):
    """Evaluate at a point; exact for Fraction inputs, numeric for float/complex."""
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, poly has {p.nvars}")
    exact = len(point) > 0 and isinstance(point[0], Fraction)
    total = None
    for e, c in p.num.items():
        # c / den rounds once, exactly as float() of the reduced Fraction
        v = c if exact else c / p.den
        for xi, k in zip(point, e):
            if k:
                v = v * xi ** k
        total = v if total is None else total + v
    if total is None:
        return Fraction(0) if exact else 0.0
    return Fraction(total, p.den) if exact else total


def directional_derivative(p: MPoly, xi: RationalVector) -> MPoly:
    """d_xi p = sum_i xi_i dp/dx_i."""
    if xi.dim != p.nvars:
        raise ValueError("dimension mismatch")
    xd = lcm(*(v.denominator for v in xi.coords))
    slots = [(i, v.numerator * (xd // v.denominator)) for i, v in enumerate(xi.coords) if v]
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for e, c in p.num.items():
        for i, x in slots:
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1:]
                out[e2] = get(e2, 0) + c * k * x
    return MPoly._from_parts(p.nvars, out, p.den * xd)


def partial_derivative(p: MPoly, i: int) -> MPoly:
    return directional_derivative(p, RationalVector.unit(i, p.nvars))


def _map_root_blocks(p: MPoly, alpha: RationalVector,
                     image: Callable[[tuple, tuple[int, ...]], MPoly]) -> MPoly:
    """Apply, term by term, a map that only moves alpha's support coordinates.

    Each monomial factors into a part off the support, left alone, times a
    block monomial on the support. image(alpha_block, block_exponents), with
    alpha_block the nonzero entries of alpha, maps the block into the support
    coordinates; the result is scattered back into the full monomial. Each
    block image is scaled to the common denominator of all of them, so the
    scatter is one integer multiply-add per (term, block term) pair.
    """
    if alpha.dim != p.nvars:
        raise ValueError("dimension mismatch")
    support = tuple(i for i in range(alpha.dim) if alpha[i])
    if not support:
        raise ValueError("zero root")
    # integral entries as ints, which the block caches hash and compare in C
    alpha_block = tuple(v.numerator if v.denominator == 1 else v
                        for v in (alpha[i] for i in support))
    slots = tuple(enumerate(support))
    blocks = [(e, c, image(alpha_block, tuple([e[i] for i in support])))
              for e, c in p.num.items()]
    common = lcm(*(block.den for _, _, block in blocks))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for e, c, block in blocks:
        s = c * (common // block.den)
        e2 = list(e)
        for bexp, bc in block.num.items():
            for pos, i in slots:
                e2[i] = bexp[pos]
            key = tuple(e2)
            acc[key] = get(key, 0) + s * bc
    return MPoly._from_parts(p.nvars, acc, p.den * common)


# ---- averages along the segment from x to the wall -------------------------
#
# With w = <x, alpha> / |alpha|^2, the point x - u w alpha runs from x (u = 0)
# to tau x, the projection onto alpha's wall (u = 1). The exact root maps are
# averages along it, each its own sequence of u moments: of a block monomial
# against chi's scaled weight kappa u^(kappa - 1), and of its derivative
# d_alpha for T's difference quotient, by the fundamental theorem of calculus,
#     (f(x) - f(tau x)) / <x, alpha> = |alpha|^-2 integral_0^1 d_alpha f(...) du.

# Bounded far above the working set, which has no multiplicity in its key:
# about 210 entries for degree 12 on A-, B- and coordinate roots, half of
# them derivatives for the difference blocks.
@lru_cache(maxsize=1024)
def _segment_expansion(alpha_block: tuple, exps: tuple, order: int) -> MPoly:
    """d_alpha^order x^exps at x - u w alpha, u the extra last variable.

    The variables are the root's support coordinates, alpha_block its entries
    there. By Taylor's theorem along alpha the coefficient of u^j is
    (-w)^j d_alpha^(order + j) x^exps / j!.
    """
    nb = len(exps)
    alpha = RationalVector(alpha_block)
    s = alpha.norm_sq()
    minus_w = MPoly(nb, {tuple(int(i == j) for i in range(nb)): -a / s
                         for j, a in enumerate(alpha.coords)})
    parts = []
    power = MPoly.constant(nb, 1)
    deriv = MPoly.monomial(exps)
    for _ in range(order):
        deriv = directional_derivative(deriv, alpha)
    while not deriv.is_zero():
        parts.append(power * deriv)
        power = power * minus_w
        deriv = directional_derivative(deriv, alpha) * Fraction(1, len(parts))
    common = lcm(*(part.den for part in parts))
    out = {}
    for j, part in enumerate(parts):
        scale = common // part.den
        for e, c in part.num.items():
            out[e + (j,)] = c * scale
    return MPoly._from_parts(nb + 1, out, common)


def _segment_average(alpha_block: tuple, exps: tuple, order: int,
                     moment: Callable[[int], Fraction]) -> MPoly:
    """The segment expansion of d_alpha^order x^exps, each u^j sent to moment(j)."""
    nb = len(exps)
    expanded = _segment_expansion(alpha_block, exps, order)
    moments = [moment(j) for j in range(sum(exps) + 1 - order)]
    # every moment over one common denominator, so the contraction is one
    # integer multiply-add per term
    common = lcm(*(m.denominator for m in moments))
    scale = [m.numerator * (common // m.denominator) for m in moments]
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for e, c in expanded.num.items():
        key = e[:nb]
        out[key] = get(key, 0) + c * scale[e[nb]]
    return MPoly._from_parts(nb, out, expanded.den * common)


def substitute_zero(p: MPoly, i: int) -> MPoly:
    """p with x_{i+1} set to 0: drops every term carrying that variable."""
    return MPoly._from_parts(p.nvars, {e: c for e, c in p.num.items() if e[i] == 0}, p.den)


def exact_div_var_power(p: MPoly, i: int, k: int) -> MPoly:
    """Divide by x_{i+1}^k; every surviving term must carry at least that power."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.num.items():
        if e[i] < k:
            raise ValueError(f"x{i + 1}^{k} does not divide term with exponents {e}")
        out[e[:i] + (e[i] - k,) + e[i + 1:]] = c
    return MPoly._from_parts(p.nvars, out, p.den)
