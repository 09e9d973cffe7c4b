"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

Coefficients are ``fractions.Fraction`` values (always normalized, positive
denominator), stored densely in ascending degree order.  The zero polynomial
is the empty coefficient tuple and reports degree -1.

Everything here is immutable and side-effect free; values can be shared
freely between threads.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


class Poly:
    """Dense univariate polynomial over Fraction."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: RationalLike) -> "Poly":
        return Poly([rat(c)])

    @staticmethod
    def from_roots(roots: Sequence[RationalLike], lead: RationalLike = 1) -> "Poly":
        p = Poly.constant(lead)
        for r in roots:
            p = p * Poly([-rat(r), 1])
        return p

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 is the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def scale(self, c: RationalLike) -> "Poly":
        c = rat(c)
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return Poly([Fraction(0)] * k + list(self.coeffs))

    # -- calculus / evaluation ------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: RationalLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a: RationalLike) -> "Poly":
        """Taylor shift: returns p(x + a).  Horner form, O(n^2)."""
        a = rat(a)
        if a == 0 or not self.coeffs:
            return self
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * Poly([a, 1]) + Poly([c])
        return acc

    # -- division -------------------------------------------------------

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [Fraction(0)] * (dq + 1)
        dlead = other.leading()
        dco = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if c:
                q = c / dlead
                quot[k] = q
                for i, b in enumerate(dco):
                    rem[k + i] -= q * b
        return Poly(quot), Poly(rem)

    def __divmod__(self, other: "Poly"):
        return self.divrem(other)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def divides(self, other: "Poly") -> bool:
        """True if self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        return other.divrem(self)[1].is_zero()

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divrem(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    # -- normalization ----------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def content(self) -> Fraction:
        """Positive rational c with self = c * primitive integer polynomial."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        c = self.content()
        if c == 0:
            return self
        return self.scale(1 / c)

    # -- formatting -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


X = Poly([0, 1])
ONE = Poly([1])
ZERO = Poly()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (Euclid with primitive normalization)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) undefined")
    f, g = a.primitive(), b.primitive()
    while not g.is_zero():
        f, g = g, f.divrem(g)[1].primitive()
    return f.monic()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic."""
    if p.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g_k, k)] with p ~ prod g_k^k, g_k squarefree monic."""
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[Poly, int]] = []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    d = c - b.derivative()
    k = 1
    while b.degree > 0:
        g = poly_gcd(b, d) if not d.is_zero() else b.monic()
        if g.degree > 0:
            out.append((g.monic(), k))
        b2 = b.exact_div(g)
        c2 = d.exact_div(g)
        d = c2 - b2.derivative()
        b = b2
        k += 1
    return out


# ---------------------------------------------------------------------------
# bivariate helper: polynomials in y with Poly-in-x coefficients
# ---------------------------------------------------------------------------


class BivarPoly:
    """Polynomial in y whose coefficients are univariate Poly in x.

    Only the small amount of arithmetic needed for invariant-curve residuals.
    """

    __slots__ = ("ycoeffs",)

    def __init__(self, ycoeffs: Iterable[Poly] = ()):
        cs = list(ycoeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "ycoeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    @property
    def ydegree(self) -> int:
        return len(self.ycoeffs) - 1

    def is_zero(self) -> bool:
        return not self.ycoeffs

    def __getitem__(self, k: int) -> Poly:
        if 0 <= k < len(self.ycoeffs):
            return self.ycoeffs[k]
        return ZERO

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        n = max(len(self.ycoeffs), len(other.ycoeffs))
        return BivarPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "BivarPoly":
        return BivarPoly([-c for c in self.ycoeffs])

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        if self.is_zero() or other.is_zero():
            return BivarPoly()
        out = [ZERO] * (len(self.ycoeffs) + len(other.ycoeffs) - 1)
        for i, a in enumerate(self.ycoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.ycoeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BivarPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.ycoeffs == other.ycoeffs

    def __hash__(self):
        return hash(self.ycoeffs)

    @staticmethod
    def from_x(p: Poly) -> "BivarPoly":
        return BivarPoly([p])

    @staticmethod
    def y_times(p: Poly, k: int = 1) -> "BivarPoly":
        return BivarPoly([ZERO] * k + [p])

    def dx(self) -> "BivarPoly":
        return BivarPoly([c.derivative() for c in self.ycoeffs])

    def dy(self) -> "BivarPoly":
        return BivarPoly([c.scale(i) for i, c in enumerate(self.ycoeffs)][1:])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<var>x)|(?P<op>[-+*^()]))",
    re.IGNORECASE,
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial syntax near {text[pos:pos+12]!r}")
        if m.group("num"):
            tokens.append(m.group("num").replace(" ", ""))
        elif m.group("var"):
            tokens.append("x")
        else:
            tokens.append(m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        acc = self.parse_term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.parse_term()
            acc = acc + (term if op == "+" else -term)
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_power()
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
                acc = acc * self.parse_power()
            elif tok is not None and (tok == "x" or tok == "(" or tok[0].isdigit()):
                acc = acc * self.parse_power()  # juxtaposition, e.g. "3x"
            else:
                return acc

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            neg = False
            while self.peek() == "-":
                self.next()
                neg = not neg
            tok = self.next()
            if not tok[0].isdigit() or "/" in tok:
                raise ValueError("exponent must be a nonnegative integer")
            if neg:
                raise ValueError("negative exponents not supported")
            return base ** int(tok)
        return base

    def parse_atom(self) -> Poly:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial expression")
        if tok == "(":
            self.next()
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parentheses")
            self.next()
            return inner
        if tok == "-":
            self.next()
            return -self.parse_atom()
        if tok == "x":
            self.next()
            return X
        if tok[0].isdigit():
            self.next()
            return Poly.constant(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> Poly:
    """Parse either '[c0, c1, ...]' (rationals as 'p/q' strings or numbers)
    or an expression like '(x - 1/2)^2 * (x+3)' / 'x^2 + 1'."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text.startswith("["):
        data = json.loads(text)
        return Poly([rat(c) if isinstance(c, str) else Fraction(c) for c in data])
    parser = _Parser(_tokenize(text))
    p = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in polynomial: {parser.toks[parser.i:]!r}")
    return p


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def coeff_strings(p: Poly) -> list[str]:
    """Ascending coefficient list as exact 'p/q' strings (JSON-friendly)."""
    return [str(c) for c in p.coeffs]
