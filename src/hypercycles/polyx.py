"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

A `Poly` is Q[x] as Z[x] over one denominator: it stores exactly one pair
(nums, den), the integer numerators in ascending degree order with no zero
on top, and a denominator den >= 1 with gcd(den, *nums) = 1.  So den is the
least common denominator of the coefficients, the pair is unique, and
equality and hashing compare pairs; the zero polynomial is ((), 1) and
reports degree -1.  `Poly.int_form` returns the stored pair, and
`Poly.from_int_form` builds a `Poly` from any integer list over a nonzero
denominator, dividing out the common factor.  The ring operations run on
the pairs: a sum over the lcm of the denominators (`int_combine`), a
product as an integer convolution over their product, `scale`,
`derivative`, `shift_up` and `**` on the numerators (a power needs no gcd,
by Gauss's lemma), and `exact_div` as an exact division in Z[x] by the
primitive part of the divisor (`int_exact_div`).  Each ends with at most
one gcd over the result, and none builds a `Fraction`: only a caller that
reads a coefficient does, through `coeffs`, `p[k]` or `leading()`, and
`eval` builds one at the end of its integer Horner (`int_eval`).  The two
kernels are written once: `int_eval`, q**n * a(p/q) by homogeneous
Horner, is also GCDHEU's evaluation and the sign of a polynomial at a
rational point in `rootclass`, and `int_combine`, an integer linear
combination of coefficient lists, is also each step of Yun's algorithm and
each y-coefficient of the invariance residual in `lienard`.  `poly_gcd`,
`squarefree_part` and `squarefree_decomposition` (Yun) run on primitive
integer coefficient lists (`int_coeffs`), with an exact division in Z[x]
(Gauss's lemma, `int_exact_div`), and every gcd among them, Yun's first
gcd(p, p') included, comes from `int_poly_gcd`.  Yun's steps after that
first gcd are `_yun`'s, which `rootclass` starts from the gcd(p, p') that
its Sturm chain of p already took, so no polynomial pays for it twice.
Each converts back to a `Poly` once, at the end; the monic results are the
unique ones, so they are the same as Euclid over Q would give.
`Poly.divrem`, `Poly.content` and `Poly.primitive` stay over `Fraction`:
the integer-kernel tests use them as the rational reference, and the bench
trace (`perfbench/tracing.py`) wraps `divrem`.

`int_poly_gcd` is GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet,
"GCDHEU: Heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symbolic Computation 7, 1989; also Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, 1992, ch. 7).  For primitive a
and b and an integer xi >= 2 min(|a|, |b|) + 2 (max norms), it takes
gamma = gcd(a(xi), b(xi)), one big-integer gcd, and reads a candidate off
gamma's symmetric xi-adic digits, made primitive.  A candidate that
divides both a and b exactly is their gcd, by the theorem of that paper,
so the answer is exact; a constant candidate is the gcd 1.  Otherwise xi
grows, `_HEU_TRIES` times by `_HEU_GROWTH`, and then the primitive PRS
(`_prs_gcd`) answers instead.  Its remainder, `int_rem`, scales by |lc(b)|
at each elimination step, so it is a positive multiple of the rational
remainder, and takes the content out once, by one gcd at the end.  The
remainder sequence of p and p' (`int_remainder_sequence`) is what
`rootclass` reads the Sturm chain of a squarefree p from; no gcd here
reads it.

`rref` is the one Gauss-Jordan elimination (the case (i) node solve uses
it).  It runs fraction-free on
integer rows, each kept primitive, and returns the reduced row echelon form
as primitive integer rows with a positive pivot: a caller that scales its
rational rows to integers first gets the unique reduced rows over Q back as
row / row[pivot], and builds a `Fraction` only for an entry it reads.
`BivarPoly` is only the container the invariance residual is returned in.

Everything here is immutable and side-effect free; values can be shared
freely between threads (two threads filling the same hash store equal
values).  `poly_gcd` keeps its last results in a small bounded memo, and
`int_remainder_sequence` its last sequences in another; a `Poly` keeps the
hash of its pair from its first use, since the memo keys here and in
`rootclass` hash the same `Poly` over and over.
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
    """Dense univariate polynomial over Q, held as one integer form."""

    # `_hash` stays unset until `__hash__` first fills it
    __slots__ = ("_form", "_hash")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # the lcm of the reduced denominators leaves gcd(den, *nums) = 1
        den = lcm(*[c.denominator for c in cs])
        nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        object.__setattr__(self, "_form", (nums, den))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(nums: tuple[int, ...], den: int) -> "Poly":
        """The Poly of a pair that is already canonical."""
        p = object.__new__(Poly)
        object.__setattr__(p, "_form", (nums, den))
        return p

    @staticmethod
    def from_int_form(nums: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients nums[i] / den, for integers nums
        and a nonzero integer den: the zero top is stripped, the sign of
        den moved onto nums and gcd(den, *nums) divided out."""
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = int_gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        return Poly._of(tuple(nums), den)

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, ascending, as `Fraction`s built on each read."""
        nums, den = self._form
        return tuple(Fraction(c, den) for c in nums)

    @property
    def degree(self) -> int:
        """Degree; -1 is the zero-polynomial sentinel."""
        return len(self._form[0]) - 1

    def is_zero(self) -> bool:
        return not self._form[0]

    def __bool__(self) -> bool:
        return bool(self._form[0])

    def __getitem__(self, k: int) -> Fraction:
        nums, den = self._form
        if 0 <= k < len(nums):
            return Fraction(nums[k], den)
        return Fraction(0)

    def leading(self) -> Fraction:
        nums, den = self._form
        if not nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(nums[-1], den)

    def int_form(self) -> tuple[tuple[int, ...], int]:
        """The stored pair (nums, den): coefficient i is nums[i] / den, with
        den >= 1 and gcd(den, *nums) == 1, so den is the least common
        denominator of the coefficients; ((), 1) for the zero polynomial."""
        return self._form

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._form == other._form

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._form)
            object.__setattr__(self, "_hash", h)
            return h

    # -- ring operations -----------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        (a, da), (b, db) = self._form, other._form
        g = int_gcd(da, db)
        sa = db // g
        return Poly.from_int_form(int_combine((sa, a), (sign * (da // g), b)), da * sa)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        nums, den = self._form
        return Poly._of(tuple(-c for c in nums), den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        (a, da), (b, db) = self._form, other._form
        return Poly.from_int_form(int_mul(a, b), da * db)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def scale(self, c: RationalLike) -> "Poly":
        c = c if isinstance(c, int) else rat(c)   # an int has numerator, denominator
        nums, den = self._form
        return Poly.from_int_form([c.numerator * v for v in nums], c.denominator * den)

    def __pow__(self, k: int) -> "Poly":
        """self**k; den**k stays coprime to the content of the powered
        numerators (Gauss's lemma), so no gcd is taken."""
        if k < 0:
            raise ValueError("negative polynomial power")
        nums, den = self._form
        den **= k
        result: list[int] = [1]
        while k:
            if k & 1:
                result = int_mul(result, nums)
            k >>= 1
            if k:
                nums = int_mul(nums, nums)
        return Poly._of(tuple(result), den)

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x**k, for k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        nums, den = self._form
        if not nums:
            return self
        return Poly._of((0,) * k + nums, den)

    # -- calculus / evaluation ------------------------------------------

    def derivative(self) -> "Poly":
        nums, den = self._form
        return Poly.from_int_form([i * c for i, c in enumerate(nums)][1:], den)

    def eval(self, x: RationalLike) -> Fraction:
        """p(x), by homogeneous integer Horner over the integer form
        (`int_eval`); one `Fraction` is built at the end."""
        x = rat(x)
        nums, den = self._form
        if not nums:
            return Fraction(0)
        q = x.denominator
        return Fraction(int_eval(nums, x.numerator, q), den * q ** (len(nums) - 1))

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
        With other = cb * b / db for a primitive b, the numerators of self
        divide by b in Z[x] (Gauss's lemma, `int_exact_div`), and the
        quotient is that times db / (den(self) * cb)."""
        (na, da), (nb, db) = self._form, other._form
        cb = int_gcd(*nb)
        q = int_exact_div(na, [c // cb for c in nb])
        return Poly.from_int_form([db * c for c in q], da * cb)

    # -- normalization ----------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _monic_poly(self._form[0])

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


def int_derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def int_eval(a: Sequence[int], p: int, q: int = 1) -> int:
    """q**n * a(p/q), n = len(a) - 1, by homogeneous Horner: an integer,
    with the sign of a(p/q) for q > 0; 0 for the empty a."""
    acc = 0
    qpow = 1
    for c in reversed(a):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def int_combine(*terms: tuple[int, Sequence[int]]) -> list[int]:
    """The sum of scale * a over the (scale, a) pairs, with the zero top
    stripped."""
    out = [0] * max(len(a) for _, a in terms)
    for scale, a in terms:
        for i, v in enumerate(a):
            out[i] += scale * v
    while out and out[-1] == 0:
        out.pop()
    return out


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product a * b, by convolution."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def int_coeffs(p: Poly) -> list[int]:
    """Primitive integer coefficients of p: denominators and content
    cleared, the sign of the leading coefficient kept."""
    if p.is_zero():
        return []
    return _primitive(list(p.int_form()[0]))


def int_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive positive multiple of rem(a, b) over Q, for b nonzero.

    Each elimination step scales the running remainder by |lc(b)| and
    subtracts sign(lc(b)) * c * x**k * b, c the coefficient being removed,
    so only positive factors enter and the sign of the rational remainder
    is kept.  The content comes out once, by one gcd at the end.  A
    nonzero rational polynomial has exactly one primitive multiple with a
    leading coefficient of its own sign, so the result is the same vector
    that a gcd at every step would give."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    alb = abs(lb)
    while len(r) > db:
        c = r.pop()
        k = len(r) - db
        if lb < 0:
            c = -c
        if alb != 1:
            r = [alb * v for v in r]
        for i in range(db):
            r[k + i] -= c * b[i]
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


# GCDHEU tries this many evaluation points, each the last times the growth
# factor (Char, Geddes and Gonnet's 73794/27011, about 2.73), before the PRS
_HEU_TRIES = 6
_HEU_GROWTH = (73794, 27011)


def _heu_candidate(a: Sequence[int], b: Sequence[int], xi: int) -> list[int]:
    """The GCDHEU candidate at xi: gamma = gcd(a(xi), b(xi)) by integer
    Horner (`int_eval`), written in symmetric xi-adic digits (each in
    (-xi/2, xi/2]) as the coefficients of a polynomial, made primitive."""
    gamma = int_gcd(int_eval(a, xi), int_eval(b, xi))
    half = xi // 2
    digits = []
    while gamma:
        gamma, r = divmod(gamma, xi)
        if r > half:
            r -= xi
            gamma += 1
        digits.append(r)
    return _primitive(digits)


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive PRS gcd of primitive a and b: GCDHEU's fallback, and
    the tests' reference."""
    while b:
        a, b = b, int_rem(a, b)
    return a


def int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of integer polynomials, not both zero: the other input
    when one is zero, [1] when one is a constant, and otherwise by GCDHEU
    (module docstring) with the primitive PRS as the fallback.  Only the
    inputs are made primitive here; the scale of the caller's own vectors
    is left alone."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    top = min(len(a), len(b))
    for _ in range(_HEU_TRIES):
        g = _heu_candidate(a, b, xi)
        if len(g) == 1:
            return [1]
        if len(g) <= top:
            try:
                int_exact_div(a, g)
                int_exact_div(b, g)
                return g
            except ValueError:
                pass
        xi = xi * _HEU_GROWTH[0] // _HEU_GROWTH[1]
    return _prs_gcd(a, b)


def _monic_poly(a: Sequence[int]) -> Poly:
    return Poly.from_int_form(a, a[-1])


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


def int_key(a: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer vector a as a tuple with a positive leading
    coefficient: the key of `int_remainder_sequence` and of the chain memo
    in `rootclass`."""
    return tuple(a) if a[-1] > 0 else tuple(-c for c in a)


# Distinct polynomials share one sequence: of 269 lookups in one grid pass,
# 33 hit, 12 for a constant multiple of an earlier polynomial, 11 for one
# with an earlier one's squarefree part and 10 for one whose chain the chain
# memo had dropped.  A bounded memo runs the sequence once per vector.
@lru_cache(maxsize=64)
def int_remainder_sequence(a: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(a, prim(a'), -int_rem, ...) for a primitive integer vector a with a
    positive leading coefficient (`int_key`): each member after the second
    is minus the primitive integer remainder of the two before it, up to
    the last nonzero one, which is gcd(a, a') up to sign.  `rootclass`
    runs it on squarefree vectors only, where that last member is a
    constant and the sequence is the Sturm chain of a.  Memoized per
    vector."""
    seq = [a]
    if len(a) > 1:
        seq.append(tuple(_primitive(int_derivative(a))))
        while len(seq[-1]) > 1:
            r = int_rem(seq[-2], seq[-1])
            if not r:
                break
            seq.append(tuple(-c for c in r))
    return tuple(seq)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic, with the gcd from `int_poly_gcd`."""
    if p.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return ONE
    a = int_coeffs(p)
    return _monic_poly(int_exact_div(a, int_poly_gcd(a, int_derivative(a))))


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g_k, k)] with p ~ prod g_k^k, g_k squarefree monic.
    Every gcd, the first one gcd(p, p') included, runs `int_poly_gcd`, and
    the steps after that first gcd are `_yun`'s.  Every factor is made
    monic, so neither the sign of a gcd nor the scale of any vector moves
    them."""
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    a = int_coeffs(p)
    dp = int_derivative(a)
    return _yun(a, dp, int_poly_gcd(a, dp))


def _yun(a: Sequence[int], dp: Sequence[int], g: Sequence[int]) -> list[tuple[Poly, int]]:
    """Yun's algorithm from its first gcd: a is the primitive vector of p, of
    degree >= 1, dp = a' and g = gcd(a, dp) as `int_poly_gcd` gives it.  A
    constant g leaves p squarefree, [(monic p, 1)] at once.  `rootclass`
    passes the g its Sturm chain of p already took, so gcd(p, p') runs once
    per polynomial."""
    if len(g) == 1:
        return [(_monic_poly(a), 1)]
    out: list[tuple[Poly, int]] = []
    # b and d must carry the same scale: dp is the derivative of this very
    # vector a, never made primitive on its own, and each step divides both
    # by the same g.
    b = int_exact_div(a, g)
    d = int_combine((1, int_exact_div(dp, g)), (-1, int_derivative(b)))
    k = 1
    while len(b) > 1:
        g = int_poly_gcd(b, d) if d else b
        if len(g) > 1:
            out.append((_monic_poly(g), k))
        b = int_exact_div(b, g)
        d = int_combine((1, int_exact_div(d, g)), (-1, int_derivative(b)))
        k += 1
    return out


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination, and the invariance residual's container
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an integer matrix by fraction-free
    Gauss-Jordan elimination: the reduced rows and the pivot column of each
    of the first len(pivot_columns) rows; the rows below them are zero.

    Eliminating column c from row r replaces r by p * r - a * t, with t
    the pivot row and p / a its pivot over r's entry in c in lowest terms,
    and every row is kept primitive.  Each pivot row comes out primitive
    with a positive pivot, zero in every other pivot column: it is the
    reduced row over Q times a positive integer, so the entry of the
    reduced form over Q is row[c] / row[pivot]."""
    mat = [_primitive(list(r)) for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        prow = mat[top]
        pv = prow[col]
        for r, row in enumerate(mat):
            a = row[col]
            if a and r != top:
                g = int_gcd(pv, a)
                p, a = pv // g, a // g
                mat[r] = _primitive([p * u - a * v if v else p * u
                                     for u, v in zip(row, prow)])
        pivots.append(col)
    for r, col in enumerate(pivots):
        if mat[r][col] < 0:
            mat[r] = [-v for v in mat[r]]
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

# the highest degree, and exponent, that a polynomial expression may reach:
# `parse_poly` refuses more before it expands anything, so a short text
# such as x^99999999999 cannot fill memory.  It bounds memory, not time: a
# dense polynomial far below it can still take long to classify.
MAX_DEGREE = 10_000


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} is above MAX_DEGREE = {MAX_DEGREE}")


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
            elif tok is None or not (tok == "x" or tok == "(" or tok[0].isdigit()):
                return acc
            # "a * b", or juxtaposition, e.g. "3x"
            factor = self.parse_power()
            _check_degree(acc.degree + factor.degree)
            acc = acc * factor

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
            k = int(tok)
            if k > MAX_DEGREE:
                raise ValueError(f"exponent {clip(str(k))} is above MAX_DEGREE = {MAX_DEGREE}")
            _check_degree(base.degree * k)
            return base ** k
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
            return Poly.constant(json_rational(tok))
        raise ValueError(f"unexpected token {tok!r}")


# the most characters of an input value that an error message repeats
ECHO_LIMIT = 60


def clip(text: str) -> str:
    """text, an input value as an error message repeats it: its first
    ECHO_LIMIT characters and its length when that cut form is shorter,
    else the whole text, so a message stays one short line whatever the
    input, and no echo is longer than its value."""
    cut = f"{text[:ECHO_LIMIT]}... ({len(text):,} characters)"
    return cut if len(cut) < len(text) else text


def json_scalar(value, expected: str):
    """value if it is a JSON integer or string: `int` and `Fraction` alone
    would truncate a float or take its binary value, and read a boolean as
    0 or 1.  Anything else raises TypeError naming `expected`."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        try:
            got = clip(json.dumps(value))
        except RecursionError:  # a list that decoded just short of the limit
            got = "a value nested too deeply"
        raise TypeError(f"expected {expected}, got {got}")
    return value


def json_rational(value) -> Fraction:
    """A JSON coefficient or a command-line rational, an integer or a string
    such as "3/2", as a Fraction."""
    value = json_scalar(value, 'an integer or a string such as "3/2"')
    try:
        return Fraction(value)
    except ValueError as exc:
        # Fraction's "Invalid literal" message repeats the whole string
        raise ValueError(str(exc).replace(repr(value), clip(repr(value)))) from None
    except ZeroDivisionError:
        # and its zero-denominator message the whole numerator
        raise ZeroDivisionError(f"zero denominator in {clip(repr(value))}") from None


def parse_poly(text: str) -> Poly:
    """Parse either '[c0, c1, ...]' (each a JSON integer or a 'p/q' string)
    or an expression like '(x - 1/2)^2 * (x+3)' / 'x^2 + 1'.  Any malformed
    text, a zero denominator, a float, a boolean or null included, raises
    ValueError; so does text nested deeper than the parsers' recursion
    reaches, without echoing it."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    try:
        if text.startswith("["):
            data = json.loads(text)
            return Poly([json_rational(c) for c in data])
        parser = _Parser(_tokenize(text))
        p = parser.parse_expr()
    except (ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad polynomial {clip(repr(text))}: {exc}") from None
    except RecursionError:
        raise ValueError("polynomial nested too deeply") from None
    if parser.peek() is not None:
        raise ValueError(f"trailing input in polynomial: {clip(repr(parser.toks[parser.i:]))}")
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
