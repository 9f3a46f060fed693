"""Sparse multivariate polynomials over Q and the linear-substitution kernel.

Terms are stored as {exponent tuple: Fraction}; zero coefficients are dropped
eagerly so equality is structural. Printing is canonical (graded lex, highest
degree first) and round-trips through the parser.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .rootgeom import RationalVector, _as_fraction, _fraction_str, project, reflect


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None) -> None:
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    if len(e) != nvars:
                        raise ValueError(f"exponent {e} has arity {len(e)}, expected {nvars}")
                    if any(k < 0 for k in e):
                        raise ValueError(f"negative exponent in {e}")
                    self.terms[tuple(e)] = c

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
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def copy(self) -> "MPoly":
        p = MPoly(self.nvars)
        p.terms = dict(self.terms)
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    def __neg__(self) -> "MPoly":
        p = MPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            q = _as_fraction(other)
            p = MPoly(self.nvars)
            if q:
                p.terms = {e: c * q for e, c in self.terms.items()}
            return p
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

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
        return (-sum(e), tuple(-k for k in e))

    @staticmethod
    def _monomial_text(e: tuple[int, ...]) -> str:
        """'x1^2*x3' for (2, 0, 1); empty for the constant monomial."""
        return "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                        for i, k in enumerate(e) if k)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=self._grlex_key):
            c = self.terms[e]
            body = self._monomial_text(e)
            mag = abs(c)
            if not body:
                piece = _fraction_str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{_fraction_str(mag)}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    _TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^()]))")

    @classmethod
    def from_text(cls, text: str, nvars: int | None = None) -> "MPoly":
        """Parse the canonical text form; nvars defaults to the highest index used."""
        tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = cls._TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"parse error at position {pos}: {text[pos:pos + 10]!r}")
                break
            for kind in ("num", "var", "op"):
                if m.group(kind):
                    tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        if not tokens:
            raise ValueError("empty polynomial text")

        maxvar = 0
        for kind, val, _ in tokens:
            if kind == "var":
                maxvar = max(maxvar, int(val[1:]))
        n = nvars if nvars is not None else max(maxvar, 1)
        if maxvar > n:
            raise ValueError(f"variable x{maxvar} exceeds declared count {n}")

        terms: dict[tuple[int, ...], Fraction] = {}
        i = 0
        sign = Fraction(1)
        pending_sign = False
        while i < len(tokens):
            kind, val, tpos = tokens[i]
            if kind == "op" and val in "+-":
                if pending_sign:
                    raise ValueError(f"parse error at position {tpos}: consecutive signs")
                sign = Fraction(1) if val == "+" else Fraction(-1)
                pending_sign = True
                i += 1
                continue
            # one term: [num] {* var[^num]}*  or  var...
            coeff = Fraction(1)
            exps = [0] * n
            saw_factor = False
            while i < len(tokens):
                kind, val, tpos = tokens[i]
                if kind == "num":
                    try:
                        coeff *= Fraction(val)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator at position {tpos}") from None
                    saw_factor = True
                    i += 1
                elif kind == "var":
                    vi = int(val[1:]) - 1
                    if vi < 0:
                        raise ValueError(f"variable indices start at x1, got {val!r}")
                    power = 1
                    if i + 1 < len(tokens) and tokens[i + 1][:2] == ("op", "^"):
                        if (i + 2 >= len(tokens) or tokens[i + 2][0] != "num"
                                or "/" in tokens[i + 2][1]):
                            raise ValueError(f"parse error at position {tpos}: integer exponent expected after ^")
                        power = int(tokens[i + 2][1])
                        i += 2
                    exps[vi] += power
                    saw_factor = True
                    i += 1
                elif kind == "op" and val == "*":
                    if not saw_factor:
                        raise ValueError(f"parse error at position {tpos}: '*' with no left factor")
                    if i + 1 >= len(tokens) or tokens[i + 1][0] not in ("num", "var"):
                        raise ValueError(f"parse error at position {tpos}: factor expected after '*'")
                    i += 1
                elif kind == "op" and val in "+-":
                    break
                else:
                    raise ValueError(f"parse error at position {tpos}: unexpected {val!r}")
            if not saw_factor:
                raise ValueError("dangling sign with no term")
            e = tuple(exps)
            c = terms.get(e, Fraction(0)) + sign * coeff
            if c:
                terms[e] = c
            else:
                terms.pop(e, None)
            sign = Fraction(1)
            pending_sign = False
        if pending_sign:
            raise ValueError("dangling sign with no term")
        return cls(n, terms)

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
    total = None
    for e, c in p.terms.items():
        v = c if isinstance(point[0], Fraction) else float(c)
        for xi, k in zip(point, e):
            if k:
                v = v * xi ** k
        total = v if total is None else total + v
    if total is None:
        return Fraction(0) if (point and isinstance(point[0], Fraction)) else 0.0
    return total


def directional_derivative(p: MPoly, xi: RationalVector) -> MPoly:
    """d_xi p = sum_i xi_i dp/dx_i."""
    if xi.dim != p.nvars:
        raise ValueError("dimension mismatch")
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k and xi[i]:
                e2 = list(e)
                e2[i] -= 1
                e2t = tuple(e2)
                s = out.get(e2t, Fraction(0)) + c * k * xi[i]
                if s:
                    out[e2t] = s
                else:
                    out.pop(e2t, None)
    q = MPoly(p.nvars)
    q.terms = out
    return q


def partial_derivative(p: MPoly, i: int) -> MPoly:
    return directional_derivative(p, RationalVector.unit(i, p.nvars))


def _substitute(p: MPoly, images: Sequence[MPoly]) -> MPoly:
    """p with x_{i+1} replaced by images[i], through cached powers of each image.

    The images may live in a different ring from p; the result lives in theirs.
    """
    n = images[0].nvars if images else p.nvars
    powers: list[dict[int, MPoly]] = [{0: MPoly.constant(n, 1)} for _ in images]

    def power(i: int, k: int) -> MPoly:
        cache = powers[i]
        if k not in cache:
            cache[k] = power(i, k - 1) * images[i]
        return cache[k]

    out = MPoly.zero(n)
    for e, c in p.terms.items():
        t = MPoly.constant(n, c)
        for i, k in enumerate(e):
            if k:
                t = t * power(i, k)
        out = out + t
    return out


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
    coordinates; the result is scattered back into the full monomial.
    """
    if alpha.dim != p.nvars:
        raise ValueError("dimension mismatch")
    support = tuple(i for i in range(alpha.dim) if alpha[i])
    if not support:
        raise ValueError("zero root")
    alpha_block = tuple(alpha[i] for i in support)
    out = MPoly.zero(p.nvars)
    acc = out.terms
    for e, c in p.terms.items():
        block = image(alpha_block, tuple(e[i] for i in support))
        for bexp, bc in block.terms.items():
            e2 = list(e)
            for pos, i in enumerate(support):
                e2[i] = bexp[pos]
            key = tuple(e2)
            s = acc.get(key, Fraction(0)) + c * bc
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return out


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
    r = MPoly(n, {})
    for j in range(n):
        if j != pivot and alpha[j]:
            e = [0] * n
            e[j] = 1
            r.terms[tuple(e)] = alpha[j]
    # view p as sum_k c_k(y) * x_pivot^k
    layers: dict[int, MPoly] = {}
    for e, c in p.terms.items():
        k = e[pivot]
        e0 = list(e)
        e0[pivot] = 0
        layer = layers.setdefault(k, MPoly.zero(n))
        layer.terms[tuple(e0)] = layer.terms.get(tuple(e0), Fraction(0)) + c
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
    out = MPoly.zero(n)
    for k, layer in quot_layers.items():
        for e, c in layer.terms.items():
            e2 = list(e)
            e2[pivot] = k
            out.terms[tuple(e2)] = c
    return out


def substitute_zero(p: MPoly, i: int) -> MPoly:
    """p with x_{i+1} set to 0: drops every term carrying that variable."""
    q = MPoly(p.nvars)
    q.terms = {e: c for e, c in p.terms.items() if e[i] == 0}
    return q


def exact_div_var_power(p: MPoly, i: int, k: int) -> MPoly:
    """Divide by x_{i+1}^k; every surviving term must carry at least that power."""
    out = MPoly(p.nvars)
    for e, c in p.terms.items():
        if e[i] < k:
            raise ValueError(f"x{i + 1}^{k} does not divide term with exponents {e}")
        e2 = list(e)
        e2[i] -= k
        out.terms[tuple(e2)] = c
    return out


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
