"""Sparse multivariate polynomials over Q and the linear-substitution kernel.

A polynomial stores integer numerators {exponent tuple: int} over one
positive integer denominator. The form is canonical: no zero numerators, and
the denominator shares no factor with all the numerators together, so
equality is structural. Every operation runs its inner loop on Python ints
and reduces once per result, not once per term. `terms` reads the
coefficients as Fractions. Printing is canonical (graded lex, highest degree
first) and round-trips through the parser.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Callable, Iterable, Sequence

from .rootgeom import RationalVector, _as_fraction, project, reflect


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

    def copy(self) -> "MPoly":
        return MPoly._from_parts(self.nvars, dict(self.num), self.den)

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
    @staticmethod
    def _grlex_key(e: tuple[int, ...]):
        return (-sum(e), tuple(map(neg, e)))

    @staticmethod
    def _monomial_text(e: tuple[int, ...]) -> str:
        """'x1^2*x3' for (2, 0, 1); empty for the constant monomial."""
        return "*".join([f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                         for i, k in enumerate(e) if k])

    def to_text(self) -> str:
        if not self.num:
            return "0"
        den = self.den
        parts = []
        for e in sorted(self.num, key=self._grlex_key):
            c = self.num[e]
            g = gcd(c, den)
            n, d = abs(c) // g, den // g
            body = self._monomial_text(e)
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

    # one token: number (numerator, denominator), variable index, operator or
    # anything else, which is an error
    _TOKEN_RE = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|x(\d+)|([-+*^()])|(\S))")

    @classmethod
    def from_text(cls, text: str, nvars: int | None = None) -> "MPoly":
        """Parse the canonical text form; nvars defaults to the highest index used."""
        tokens = cls._TOKEN_RE.findall(text)
        if not tokens:
            raise ValueError("empty polynomial text")

        def at(i: int) -> int:
            """Text position of token i, for error messages."""
            m = list(cls._TOKEN_RE.finditer(text))[i]
            return m.end() - len(m[0].lstrip())

        maxvar = max((int(t[2]) for t in tokens if t[2]), default=0)
        n = nvars if nvars is not None else max(maxvar, 1)
        if maxvar > n:
            raise ValueError(f"variable x{maxvar} exceeds declared count {n}")

        # each term as (exponents, signed numerator, denominator)
        parsed: list[tuple[tuple[int, ...], int, int]] = []
        count = len(tokens)
        i = 0
        sign = 1
        pending_sign = False
        while i < count:
            op = tokens[i][3]
            if op == "+" or op == "-":
                if pending_sign:
                    raise ValueError(f"parse error at position {at(i)}: consecutive signs")
                sign = 1 if op == "+" else -1
                pending_sign = True
                i += 1
                continue
            # one term: [num] {* var[^num]}*  or  var...
            cn = cd = 1
            exps = [0] * n
            saw_factor = False
            while i < count:
                top, bottom, var, op, other = tokens[i]
                if top:
                    cn *= int(top)
                    if bottom:
                        if not int(bottom):
                            raise ValueError(f"zero denominator at position {at(i)}")
                        cd *= int(bottom)
                    saw_factor = True
                    i += 1
                elif var:
                    vi = int(var) - 1
                    if vi < 0:
                        raise ValueError(f"variable indices start at x1, got {'x' + var!r}")
                    power = 1
                    if i + 1 < count and tokens[i + 1][3] == "^":
                        if i + 2 >= count or not tokens[i + 2][0] or tokens[i + 2][1]:
                            raise ValueError(f"parse error at position {at(i)}: integer exponent expected after ^")
                        power = int(tokens[i + 2][0])
                        i += 2
                    exps[vi] += power
                    saw_factor = True
                    i += 1
                elif op == "*":
                    if not saw_factor:
                        raise ValueError(f"parse error at position {at(i)}: '*' with no left factor")
                    if i + 1 >= count or not (tokens[i + 1][0] or tokens[i + 1][2]):
                        raise ValueError(f"parse error at position {at(i)}: factor expected after '*'")
                    i += 1
                elif op == "+" or op == "-":
                    break
                elif other:
                    pos = at(i)
                    raise ValueError(f"parse error at position {pos}: {text[pos:pos + 10]!r}")
                else:
                    raise ValueError(f"parse error at position {at(i)}: unexpected {op!r}")
            if not saw_factor:
                raise ValueError("dangling sign with no term")
            parsed.append((tuple(exps), sign * cn, cd))
            sign = 1
            pending_sign = False
        if pending_sign:
            raise ValueError("dangling sign with no term")
        den = lcm(*(cd for _, _, cd in parsed))
        num: dict[tuple[int, ...], int] = {}
        for e, cn, cd in parsed:
            num[e] = num.get(e, 0) + cn * (den // cd)
        return cls._from_parts(n, num, den)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self.to_text()!r})"


class LinearMap:
    """Square matrix over Q acting on column vectors; rows[i][j] multiplies x_j."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        self.rows = tuple(tuple(_as_fraction(v) for v in r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def reflection_map(cls, alpha: RationalVector) -> "LinearMap":
        n = alpha.dim
        cols = [reflect(RationalVector.unit(j, n), alpha) for j in range(n)]
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])

    @classmethod
    def projection_map(cls, alpha: RationalVector) -> "LinearMap":
        n = alpha.dim
        cols = [project(RationalVector.unit(j, n), alpha) for j in range(n)]
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])


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


def _substitute(p: MPoly, images: Sequence[MPoly]) -> MPoly:
    """p with x_{i+1} replaced by images[i], through cached powers of each image.

    The images may live in a different ring from p; the result lives in theirs.
    """
    n = images[0].nvars if images else p.nvars
    one = MPoly.constant(n, 1)
    # powers[i][k] is images[i] ** k, grown on demand
    powers = [[one] for _ in images]
    parts = []
    for e, c in p.num.items():
        t = one
        for i, k in enumerate(e):
            if k:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(pw[-1] * images[i])
                t = pw[k] if t is one else t * pw[k]
        parts.append((c, t))
    common = lcm(*(t.den for _, t in parts))
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for c, t in parts:
        s = c * (common // t.den)
        for e, v in t.num.items():
            out[e] = get(e, 0) + s * v
    return MPoly._from_parts(n, out, p.den * common)


def compose_linear(p: MPoly, a: LinearMap) -> MPoly:
    """p(Ax): each variable becomes the linear form of its matrix row."""
    if a.dim != p.nvars:
        raise ValueError("dimension mismatch")
    n = p.nvars
    return _substitute(p, [MPoly(n, {tuple(int(k == j) for k in range(n)): v
                                     for j, v in enumerate(row) if v})
                           for row in a.rows])


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


def exact_div_linear(p: MPoly, alpha: RationalVector) -> MPoly:
    """Divide p by the linear form <x, alpha>; the remainder must vanish.

    Synthetic division along a pivot variable with nonzero alpha coordinate.
    Raises ValueError when the form does not divide p exactly.
    """
    if alpha.dim != p.nvars:
        raise ValueError("dimension mismatch")
    if alpha.is_zero():
        raise ValueError("cannot divide by the zero form")
    if p.is_zero():
        return MPoly.zero(p.nvars)
    pivot = max(range(alpha.dim), key=lambda i: abs(alpha[i]))
    a = alpha[pivot]
    # residual form r = <x,alpha> - a*x_pivot over the other variables
    n = p.nvars
    r = MPoly(n, {tuple(int(k == j) for k in range(n)): alpha[j]
                  for j in range(n) if j != pivot and alpha[j]})
    # view p as sum_k c_k(y) * x_pivot^k
    layer_nums: dict[int, dict] = {}
    for e, c in p.num.items():
        layer_nums.setdefault(e[pivot], {})[e[:pivot] + (0,) + e[pivot + 1:]] = c
    layers = {k: MPoly._from_parts(n, num, p.den) for k, num in layer_nums.items()}
    d = max(layers)
    inv_a = Fraction(1) / a
    quot_layers: dict[int, MPoly] = {}
    carry = MPoly.zero(n)
    for k in range(d, 0, -1):
        c_k = layers.get(k, MPoly.zero(n)) - carry
        h = c_k * inv_a
        if not h.is_zero():
            quot_layers[k - 1] = h
        carry = h * r
    remainder = layers.get(0, MPoly.zero(n)) - carry
    if not remainder.is_zero():
        raise ValueError(f"linear form {alpha} does not divide the polynomial; remainder {remainder}")
    common = lcm(*(h.den for h in quot_layers.values()))
    out: dict[tuple[int, ...], int] = {}
    for k, h in quot_layers.items():
        s = common // h.den
        for e, c in h.num.items():
            out[e[:pivot] + (k,) + e[pivot + 1:]] = c * s
    return MPoly._from_parts(n, out, common)


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


def divided_difference(p: MPoly, alpha: RationalVector) -> MPoly:
    """(p - p o tau_alpha) / <x, alpha>, a polynomial because tau fixes the wall."""
    diff = p - compose_linear(p, LinearMap.projection_map(alpha))
    return exact_div_linear(diff, alpha)


def reflection_difference(p: MPoly, alpha: RationalVector) -> MPoly:
    """(p - p o s_alpha) / <x, alpha>."""
    diff = p - compose_linear(p, LinearMap.reflection_map(alpha))
    return exact_div_linear(diff, alpha)


def classical_dunkl(p: MPoly, roots: Sequence[RationalVector], kappas: Sequence, xi: RationalVector) -> MPoly:
    """Reflection-based Dunkl derivative over a positive system (no orthogonality needed)."""
    kappas = [_as_fraction(k) for k in kappas]
    if len(roots) != len(kappas):
        raise ValueError("one multiplicity per root required")
    out = directional_derivative(p, xi)
    for a, k in zip(roots, kappas):
        w = k * a.dot(xi)
        if w:
            out = out + reflection_difference(p, a) * w
    return out
