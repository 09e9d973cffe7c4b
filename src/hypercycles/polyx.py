"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

A `Poly` holds ``fractions.Fraction`` coefficients (always normalized,
positive denominator), stored densely in ascending degree order.  The zero
polynomial is the empty coefficient tuple and reports degree -1.

Each `Poly` also keeps its integer form, filled on first use by
`Poly.int_form`: the numerators scaled to the least common denominator of
the coefficients, and that denominator.  It is a function of the
coefficients alone, so equality and hashing ignore it.  The hot kernels run
on it instead of on `Fraction`s: `Poly.eval` is a homogeneous integer Horner
over it, `Poly.__mul__` an integer convolution of the two forms, and the
root engine's sign tests read its numerators.  `poly_gcd`,
`squarefree_part` and `squarefree_decomposition` (Yun) run on primitive
integer coefficient lists (`int_coeffs`): a remainder scaled by |lc(b)| only
(a positive multiple of the rational remainder), an exact division in Z[x]
(Gauss's lemma, `int_exact_div`, which `Poly.exact_div` also runs on), and
the primitive PRS gcd built from them.  Each
converts back to a `Poly` once, at the end; the monic results are the unique
ones, so they are the same as Euclid over Q would give.  `Poly.divrem`,
`Poly.content` and `Poly.primitive` stay over `Fraction`: the integer-kernel
tests use them as the rational reference, and the bench trace
(`perfbench/tracing.py`) wraps `divrem`.

`rref` is the one Gauss-Jordan elimination over Q (the case (i) node
solve and the affine blocks of curve recovery both use it), and
`BivarPoly` is only the container the invariance residual is returned in.

Everything here is immutable and side-effect free; values can be shared
freely between threads (two threads filling the same integer form or hash
store equal values).  `poly_gcd` keeps its last results in a small bounded
memo; a `Poly` keeps the hash of its coefficients from its first use, since
the memo keys here and in `rootclass` hash the same `Poly` over and over.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm
from typing import Iterable, Sequence, Union

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

    # `_hash` stays unset until `__hash__` first fills it
    __slots__ = ("coeffs", "_int_form", "_hash")

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_int_form", None)

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

    def int_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) with coeffs[i] == nums[i] / den, den the least common
        denominator of the coefficients (1 for the zero polynomial).
        Computed on first use and kept."""
        form = self._int_form
        if form is None:
            cs = self.coeffs
            den = lcm(*[c.denominator for c in cs])
            form = (tuple(c.numerator * (den // c.denominator) for c in cs), den)
            object.__setattr__(self, "_int_form", form)
        return form

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
            return h

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
        # integer convolution of the two integer forms, one Fraction per
        # coefficient at the end
        a, da = self.int_form()
        b, db = other.int_form()
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        den = da * db
        return Poly([Fraction(c, den) for c in out])

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
        """p(x), by homogeneous integer Horner over the integer form; one
        `Fraction` is built at the end."""
        x = rat(x)
        nums, den = self.int_form()
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = nums[-1]
        qpow = 1
        for c in reversed(nums[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, den * qpow)

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

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other, which must be a polynomial (ValueError otherwise).
        The primitive integer vectors divide in Z[x] (`int_exact_div`) and
        the quotient is scaled by the ratio of the two contents."""
        a, b = int_coeffs(self), int_coeffs(other)
        q = int_exact_div(a, b)
        if not q:
            return Poly()
        scale = (self.leading() / a[-1]) / (other.leading() / b[-1])
        return Poly([scale * c for c in q])

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


# ---------------------------------------------------------------------------
# integer kernels: coefficient lists in Z[x], ascending degree, no zero top
# ---------------------------------------------------------------------------


def _primitive(a: list[int]) -> list[int]:
    """a divided by its (positive) content."""
    g = int_gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def int_coeffs(p: Poly) -> list[int]:
    """Primitive integer coefficients of p: denominators and content
    cleared, the sign of the leading coefficient kept."""
    if p.is_zero():
        return []
    return _primitive(list(p.int_form()[0]))


def int_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive positive multiple of rem(a, b) over Q, for b nonzero.

    Each elimination step scales the running remainder by |lc(b)| divided
    by its gcd with the coefficient being removed, so only positive factors
    enter and the sign of the rational remainder is kept."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    sb = 1 if lb > 0 else -1
    alb = abs(lb)
    while len(r) > db:
        c = r.pop()
        k = len(r) - db
        g = int_gcd(alb, c)
        s, t = alb // g, sb * (c // g)
        if s != 1:
            r = [s * v for v in r]
        for i in range(db):
            r[k + i] -= t * b[i]
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def int_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b in Z[x].  When b is primitive and divides a over Q, the
    quotient has integer coefficients (Gauss's lemma); any other case
    raises ValueError."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r.pop()
        if c:
            t, m = divmod(c, lb)
            if m:
                raise ValueError("inexact polynomial division")
            k = len(r) - db
            q[k] = t
            for i in range(db):
                r[k + i] -= t * b[i]
    if any(r):
        raise ValueError("inexact polynomial division")
    return q


def int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of integer polynomials, not both zero, by the
    primitive PRS.  Only the inputs are made primitive here; the scale of
    the caller's own vectors is left alone."""
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        a, b = b, int_rem(a, b)
    return a


def _monic_poly(a: Sequence[int]) -> Poly:
    lead = a[-1]
    return Poly([Fraction(c, lead) for c in a])


def _int_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


# Certification asks the gcd of the same few pairs over and over (a root's
# squarefree factor against each polynomial whose sign it is asked); a bounded
# memo keeps that reuse, like the Sturm chain memo in `rootclass`.
@lru_cache(maxsize=64)
def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (primitive PRS over Z[x]).  Memoized
    per pair of `Poly`s (immutable and hashable), so the result is shared."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) undefined")
    return _monic_poly(int_poly_gcd(int_coeffs(a), int_coeffs(b)))


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic."""
    if p.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return ONE
    a = int_coeffs(p)
    return _monic_poly(int_exact_div(a, int_poly_gcd(a, _derivative(a))))


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g_k, k)] with p ~ prod g_k^k, g_k squarefree monic."""
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    out: list[tuple[Poly, int]] = []
    # b and d must carry the same scale: dp is the derivative of this very
    # vector a, never made primitive on its own, and each step divides both
    # by the same g.
    a = int_coeffs(p)
    dp = _derivative(a)
    g = int_poly_gcd(a, dp)
    b = int_exact_div(a, g)
    d = _int_sub(int_exact_div(dp, g), _derivative(b))
    k = 1
    while len(b) > 1:
        g = int_poly_gcd(b, d) if d else b
        if len(g) > 1:
            out.append((_monic_poly(g), k))
        b = int_exact_div(b, g)
        d = _int_sub(int_exact_div(d, g), _derivative(b))
        k += 1
    return out


# ---------------------------------------------------------------------------
# linear algebra over Q, and the invariance residual's container
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Q: the
    reduced rows, and the pivot column of each of the first len(pivot_columns)
    rows.  The rows below them are zero."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        pv = mat[top][col]
        mat[top] = [v / pv for v in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                fac = mat[r][col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


class BivarPoly:
    """Polynomial in y whose coefficients are univariate Poly in x: the
    container `lienard.invariance_residual` returns, with trailing zero
    y-coefficients stripped so that the zero residual is `is_zero()`."""

    __slots__ = ("ycoeffs",)

    def __init__(self, ycoeffs: Iterable[Poly] = ()):
        cs = list(ycoeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "ycoeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def is_zero(self) -> bool:
        return not self.ycoeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.ycoeffs == other.ycoeffs

    def __hash__(self):
        return hash(self.ycoeffs)


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
        if self.i >= len(self.toks):
            raise ValueError("unexpected end of polynomial expression")
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
    or an expression like '(x - 1/2)^2 * (x+3)' / 'x^2 + 1'.  Any malformed
    text, a zero denominator included, raises ValueError."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    try:
        if text.startswith("["):
            data = json.loads(text)
            return Poly([rat(c) if isinstance(c, str) else Fraction(c) for c in data])
        parser = _Parser(_tokenize(text))
        p = parser.parse_expr()
    except (ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc}") from None
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
