"""Exact real-root classification and isolation.

Two independent routes to root counts live here on purpose:

* the Sturm-sequence route, the engine behind certification and the family
  searches: interval isolation, exact sign certificates, and the root
  counts of `count_roots` (behind `distinct_real_roots` and the "all roots
  real and simple" screen), read off the chain's signs at +-inf and the
  degree of its head, the squarefree part.
  Chains are built on primitive integer polynomials: each member is minus
  the primitive integer remainder (`polyx.int_rem`) of the two before it,
  so no `Fraction` division runs.  gcd(p, p') comes first, by integer
  evaluation (`polyx.int_poly_gcd`, the kernel behind Yun's algorithm
  too), and the chain is the remainder sequence of the squarefree
  p / gcd(p, p') (`polyx.int_remainder_sequence`, memoized per primitive
  integer vector), of p itself when the gcd is a constant.  So the
  sequence only ever runs as a Sturm chain, never just to find a gcd.
  The chain keeps that gcd, and Yun's algorithm in `isolate_real_roots`
  starts from it (`polyx._yun`), so gcd(p, p') runs once per polynomial.
  Isolation bisects on p's own chain and labels each cell with its Yun
  factor, so isolating p and then counting on its chain runs one sequence.
  Chains are memoized per polynomial in one small bounded cache, and the
  sequences behind them per primitive integer vector;
* the discrimination-matrix route: Yang's complete discrimination system
  (Yang, Hou and Zeng), the leading principal even-order minors D_k of the
  Sylvester-style matrix of f and f', whose (revised) sign pattern counts
  distinct real roots and conjugate imaginary pairs.  The minors are read
  off the identity D_k(f) = lc(f) * sRes_{n-k}(f, f'), with every signed
  subresultant coefficient from one integer pass of the signed subresultant
  recurrence (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
  ch. 8).  The matrix itself, the definition that the minors are checked
  against, lives in the tests; the Bareiss `_int_det` stays for
  `rational_det`, behind the Hankel minors of suite criterion 4.  The route
  serves the `roots` command, suite criterion 4 (its Hankel identity and its
  count against the Sturm route) and the tests, where it is the reference
  that `count_roots` is checked against.  `count_roots` does not run it,
  so counting, isolating and Sturm-counting one polynomial runs one
  remainder sequence, the chain of its squarefree part.

Each Sturm chain is evaluated at most once per point, and isolation
evaluates it only where the head's sign cannot decide: it carries the sign
variations and the head's sign at each interval's endpoints down its
bisection stack, so a split evaluates the chain at the midpoint only, the
box ends read theirs off the signs at +-inf, and a cell with one root
inside and one at an end halves on the head's sign alone.  The one
refinement loop of an isolated root (`RealRoot.sign_of`) recounts only the
endpoint that a refinement step moved.  Signs of a polynomial at a point
come from its stored integer form (`Poly.int_form`) by one homogeneous
Horner on the point as an integer pair p/q (`_sign_at`, and `_chain_signs`
for a whole chain), with no `Fraction` built.  Nearly every point isolation
and refinement visit is dyadic, k/2**j; there the powers of q are shifts,
acc = acc*k + (c << s) with s growing by j per coefficient (`_sign_dyadic`),
which `_sign_int` and `_chain_signs` choose whenever q is a power of two.

Each chain member carries an exponent e with every complex root z of the
member inside |z| < 2**e: Fujiwara's bound 2 max_i |a_{n-i}/a_n|^(1/i)
(1916), rounded up to a power of two from bit lengths alone
(`_root_exponent`).  A real polynomial keeps one sign on each side beyond
its largest real root in absolute value, so at a point p/q with
|p| > q * 2**e the member's sign is its sign at +-inf, read off its leading
coefficient and degree, and Horner runs only inside the bound.  The answer
is the same sign that Horner would give.  `RealRoot.refine` runs Horner at
each midpoint without that test: an isolated root starts inside the root
box of its polynomial, where the test never holds.  Each step compares that
one sign with the polynomial's sign at hi, which the root keeps and no
refinement step changes.

Isolation (`_isolate_squarefree`) bisects from the halves [-2**e, 0] and
[0, 2**e] of the root box, e the exponent of the chain's head, whose outer
ends the strict bound keeps from being roots.  One rule decides every cell
[a, b], on the open count V(a) - V(b) - [f(b) = 0] below: a count of 0
drops the cell, a count of 1 with no root at either end returns it, and
every other cell splits at its midpoint; a midpoint that is a root is
returned as an exact point.  The chain's head is the squarefree part of f,
so the count is of distinct roots and the rule needs no squarefree f.
The sign variation count V changes only at roots of the head (Sturm's
theorem), which gives two shortcuts with the same cells.  (A) No root of
the head lies in [2**e, +inf) or (-inf, -2**e], so V(+-2**e) = V(+-inf)
and the head's sign there is its sign at +-inf, all read off the chain's
leading coefficients and degrees.  (B) A cell with a count of 1 and a
root at exactly one end holds one simple root of the head inside, across
which alone the head changes sign, so one sign of the head at each
midpoint halves it: the half without the root, which the rule would drop
at a count of 0, is never counted.  A cell with a count of 1 and roots at
both ends, and every cell with a larger count, splits on the chain.
Every point it visits is dyadic, k/2**j, held as the integers k and j: a
midpoint is one add, and the chain or the head is evaluated on (k, 2**j);
`Fraction`s are built only for the intervals returned.
`isolate_real_roots` runs it once on f and hands each cell to the one Yun
factor that changes sign across it (or vanishes at an exact point), so its
roots come out in order, and no two of them overlap under any later
refinement.  The canonical cell of an irrational root (`RealRoot.canonical`)
is its cell in the isolation of its own factor, so every report prints
cells that the isolation of one factor finds.

A `RealRoot` holds its ends as integers a/d and b/d over one common
denominator d: a power of two for every root isolation returns, any
positive integer for a root built by hand.  `lo` and `hi` read them as
`Fraction`s.  A refinement step is one add and one sign on the integer
pair, and `try_exact` (up to its candidate, the integer continued-fraction
walk `_simplest`) and the width loop of `canonical` run on those integers,
so none of them builds a `Fraction` per step.

Every refinement step of an isolated root (`RealRoot.refine`) bisects at the
midpoint (lo + hi) / 2, whatever other polynomial vanishes there: a midpoint
that is the root makes the root exact, and a rational endpoint that is a
root needs no deflation: `SturmChain.count_open` counts the roots
in an open interval on the chain already held.  At a root c of the chain's
head f (squarefree), f' does not vanish, so f and f' have opposite signs
just left of c and the same sign just right of it; at c itself f drops out
of the sign list, and a later member that vanishes at c sits between two
members of opposite signs there.  So V(c) = V(c+) and V(c-) = V(c) + 1,
and for any rationals a < b the roots in (a, b) number
V(a) - V(b) - [f(b) = 0] (Basu, Pollack and Roy, ch. 2).  So the roots of w
strictly between two isolated roots need no rational window beside either
root, for a w that vanishes at neither of them: `RealRoot.sign_of` refines
an inexact interval until it holds no root of w and w is nonzero at its
ends, an exact root is its own interval, and one open count from the lower
root's lo to the upper root's hi is the answer.  `sign_of` is the one way an
isolated root answers a question about another polynomial.  Whether w
vanishes at an inexact root it reads off gcd(poly, w) by two signs, with no
Sturm chain, and then it returns 0 and moves nothing.

All arithmetic is exact; no floating point enters any code path here.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm
from typing import Sequence

from .polyx import (
    _yun,
    Poly,
    RationalLike,
    int_coeffs,
    int_derivative,
    int_exact_div,
    int_key,
    int_poly_gcd,
    int_remainder_sequence,
    poly_gcd,
    rat,
)


class EndpointRootError(ValueError):
    """Raised when a Sturm count is requested with a root at an endpoint."""


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------


def _sign_at(ints: Sequence[int], p: int, q: int) -> int:
    """Sign of the integer polynomial at p/q, q > 0, via homogeneous Horner."""
    if not ints:
        return 0
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def _sign_dyadic(ints: Sequence[int], k: int, j: int) -> int:
    """Sign of the integer polynomial at k/2**j, j >= 0: the homogeneous
    Horner of `_sign_at` with each power of 2**j applied as a shift."""
    acc = 0
    s = 0
    for c in reversed(ints):
        acc = acc * k + (c << s)
        s += j
    return (acc > 0) - (acc < 0)


def _sign_int(ints: Sequence[int], p: int, q: int) -> int:
    """Sign of the integer polynomial at p/q, q > 0: by shifts
    (`_sign_dyadic`) when q is a power of two, else by `_sign_at`."""
    if q & (q - 1):
        return _sign_at(ints, p, q)
    return _sign_dyadic(ints, p, q.bit_length() - 1)


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant with row pivoting."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _exact_quo(a: int, b: int) -> int:
    """a / b for integers with b | a; raises ArithmeticError otherwise, so an
    inexact step can never floor silently."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact integer division {a} / {b}")
    return q


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * rem(a, b) in Z[x], for
    deg a >= deg b >= 0."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        c = r.pop()
        r = [lb * v for v in r]
        for t in range(db):
            r[i + t] -= c * b[t]
    while r and r[-1] == 0:
        r.pop()
    return r


def _signed_subresultant_coeffs(p: list[int], q: list[int]) -> list[int]:
    """[sRes_0, ..., sRes_{deg p - 1}] of integer polynomials p and q with
    deg q = deg p - 1, by the signed subresultant recurrence (Basu, Pollack
    and Roy, Algorithms in Real Algebraic Geometry, ch. 8).

    Each step takes A = sResP_{i-1} of degree j and B = sResP_{j-1} of degree
    k.  A degree gap (k < j - 1) leaves sRes_{j-1} .. sRes_{k+1} zero and
    reaches t_k, the leading coefficient of sResP_k, through the t updates
    t_{j-d-1} = (-1)^d t_{j-1} t_{j-d} / s_j; then
    sResP_{k-1} = -Rem(t_{j-1} s_k A, B) / (s_j t_{i-1}), taken here as
    -s_k prem(A, B) / (t_{j-1}^(j-k) s_j t_{i-1}).  Each division is exact:
    sResP_{k-1} is a determinant polynomial in Z[x], and the t updates give
    +-t_{j-1}^(d+1) / s_j^d, which lies in Z because t_k = sRes_k does
    (compare the p-adic valuations)."""
    n = len(p) - 1
    sres = [0] * n
    a, b = p, q
    j, s_j, t_prev = n, 1, 1
    while b:
        k = len(b) - 1
        t_b = b[-1]
        t_k = t_b
        for d in range(1, j - k):
            t_k = _exact_quo((-1) ** d * t_b * t_k, s_j)
        sres[k] = t_k
        if k == 0:
            break
        scale = t_b ** (j - k) * s_j * t_prev
        a, b = b, [-_exact_quo(t_k * v, scale) for v in _int_prem(a, b)]
        j, s_j, t_prev = k, t_k, t_b
    return sres


def rational_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    den = 1
    for row in rows:
        for c in row:
            den = den * c.denominator // int_gcd(den, c.denominator)
    scaled = [[int(c * den) for c in row] for row in rows]
    return Fraction(_int_det(scaled), den**n)


# ---------------------------------------------------------------------------
# discrimination system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootCount:
    distinct_real: int
    imaginary_pairs: int

    @classmethod
    def from_revised(cls, revised: list[int]) -> "RootCount":
        """Counts from a revised sign list: pairs = sign changes v, reals =
        nonvanishing members l - 2v."""
        v = _sign_changes(revised)
        l = sum(1 for s in revised if s != 0)
        return cls(distinct_real=l - 2 * v, imaginary_pairs=v)


def discriminant_sequence(f: Poly) -> list[Fraction]:
    """(D_1, ..., D_n): determinants of the leading 2k x 2k submatrices of
    the discrimination matrix of f (2n x 2n, interleaved and progressively
    shifted rows of the coefficients of f and f'), Yang's complete
    discrimination system (Yang, Hou and Zeng).

    Expanding the 2k x 2k minor along its first column, which holds only
    lc(f), leaves the Sylvester block of f' and f for j = n - k, so
    D_k(f) = lc(f) * sRes_{n-k}(f, f') exactly, sign included.  All the
    sRes_j come from one pass of the signed subresultant recurrence on the
    primitive integer vector of f and its derivative.  sRes_j is homogeneous
    of degree 2(n - j) - 1 in the coefficients of the pair, so with
    f = lam * ints the minors scale back by lam^(2k)."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant sequence needs degree >= 1")
    ints = int_coeffs(f)
    sres = _signed_subresultant_coeffs(ints, [i * c for i, c in enumerate(ints)][1:])
    lam = f.leading() / ints[-1]
    return [lam ** (2 * k) * (ints[-1] * sres[n - k]) for k in range(1, n + 1)]


def sign_list(ds: list[Fraction]) -> list[int]:
    return [(d > 0) - (d < 0) for d in ds]


def revised_sign_list(signs: list[int]) -> list[int]:
    """Replace each interior zero run bounded by nonzeros with the alternating
    pattern (-s, -s, s, s, -s, ...) scaled by the preceding nonzero sign.
    A trailing zero run (no nonzero terminator) is left unchanged."""
    out = list(signs)
    i = 0
    n = len(signs)
    while i < n:
        if signs[i] != 0:
            j = i + 1
            while j < n and signs[j] == 0:
                j += 1
            if j < n and j > i + 1:
                s = signs[i]
                for r in range(1, j - i):
                    out[i + r] = s * (-1) ** ((r + 1) // 2)
            i = j
        else:
            i += 1
    return out


def _sign_changes(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


# ---------------------------------------------------------------------------
# power sums / Hankel route
# ---------------------------------------------------------------------------


def power_sums(f: Poly, upto: int) -> list[Fraction]:
    """(s_0, ..., s_upto) for the root multiset of f, by Newton's identities."""
    n = f.degree
    if n < 1:
        raise ValueError("power sums need degree >= 1")
    mon = f.monic()
    # e_k = (-1)^k * coefficient of x^{n-k}
    e = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        e[k] = mon[n - k] * (-1) ** k
    s: list[Fraction] = [Fraction(n)]
    for k in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, min(k, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * (s[k - i] if i < k else 0)
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        s.append(acc)
    return s


def hankel_minor(sums: list[Fraction], k: int) -> Fraction:
    """det [s_{i+j}]_{i,j=0..k-1}; needs sums up to s_{2k-2}."""
    rows = [[sums[i + j] for j in range(k)] for i in range(k)]
    return rational_det(rows)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def _sign_at_infinity(c: tuple[int, ...], positive: bool) -> int:
    """Sign of the integer polynomial as x -> +inf (or -inf)."""
    lead = (c[-1] > 0) - (c[-1] < 0)
    return lead if positive or len(c) % 2 == 1 else -lead


class _Chain(tuple):
    """Sturm chain members, primitive integer coefficient tuples.  ends[i]
    is (e, sign at -inf, sign at +inf) of member i, where every complex
    root z of the member has |z| < 2**e (`_root_exponent`).  gcd is
    gcd(a, a') of the primitive vector a of the polynomial the chain was
    built for (`_sturm_chain_int`)."""

    ends: tuple[tuple[int, int, int], ...]
    gcd: tuple[int, ...]


def _make_chain(members: Sequence[tuple[int, ...]]) -> _Chain:
    chain = _Chain(members)
    chain.ends = tuple((_root_exponent(c), _sign_at_infinity(c, False),
                        _sign_at_infinity(c, True)) for c in members)
    return chain


def _root_exponent(c: Sequence[int]) -> int:
    """e >= 0 with every complex root z of the integer polynomial c inside
    |z| < 2**e, from bit lengths only.

    Fujiwara's bound (1916) puts every root within 2 max_i |c_{n-i}/c_n|^(1/i).
    With b_i the bit length of c_{n-i} and t + 1 that of c_n,
    |c_{n-i}/c_n| < 2**(b_i - t), so each term is below 2**ceil((b_i - t)/i)
    and e = 1 + max_i ceil((b_i - t)/i) will do; a zero c_{n-i} adds no
    term, and e is kept at least 0 so that 2**e is an integer."""
    n = len(c) - 1
    top = abs(c[-1]).bit_length() - 1
    e = 0
    for i in range(1, n + 1):
        a = c[n - i]
        if a:
            e = max(e, 1 - (top - abs(a).bit_length()) // i)
    return e


# Certification and the family searches ask for chains of the same few
# polynomials over and over; a bounded memo keeps that reuse without letting
# a long run of unrelated polynomials grow the process.
@lru_cache(maxsize=64)
def _sturm_chain_int(p: Poly) -> _Chain:
    """Sturm chain of the squarefree part, as primitive integer polynomials.
    Each member is minus the integer remainder of the two before it (a
    positive multiple of the rational remainder, made primitive); dividing
    members by positive constants preserves all sign variations.

    With a the primitive integer vector of p, g = gcd(a, a') comes first,
    from `polyx.int_poly_gcd`.  The chain is the remainder sequence
    (`polyx.int_remainder_sequence`, memoized per vector) of a when g is a
    constant, and otherwise of the quotient a / g, which is squarefree and
    primitive by Gauss's lemma.  So the sequence only ever runs on a
    squarefree vector, and ends at a constant.  The chain keeps g as
    `gcd`, as it keeps `ends`: `isolate_real_roots` starts Yun's algorithm
    from it and takes no second gcd(a, a').  Memoized per `Poly`
    (immutable and hashable); the chain is returned as nested tuples so
    callers cannot alter the shared value."""
    a = int_coeffs(p)
    g = int_poly_gcd(a, int_derivative(a))
    chain = _make_chain(int_remainder_sequence(
        int_key(int_exact_div(a, g) if len(g) > 1 else a)))
    chain.gcd = tuple(g)
    return chain


def _chain_signs(chain: _Chain, p: int, q: int) -> list[int]:
    """Signs of the chain's members at p/q, q > 0: beyond a member's root
    bound, |p| > q * 2**e, its sign at +-inf, and otherwise Horner, by
    shifts (`_sign_dyadic`) for a dyadic q = 2**j."""
    ap = abs(p)
    k = 2 if p > 0 else 1
    if q & (q - 1):
        return [end[k] if ap > q << end[0] else _sign_at(c, p, q)
                for c, end in zip(chain, chain.ends)]
    j = q.bit_length() - 1
    return [end[k] if ap > q << end[0] else _sign_dyadic(c, p, j)
            for c, end in zip(chain, chain.ends)]


def _real_roots_on(chain: _Chain) -> int:
    """Distinct real roots of the chain's head: V(-inf) - V(+inf), where
    only the members' leading coefficients and degrees matter."""
    return (_sign_changes([end[1] for end in chain.ends])
            - _sign_changes([end[2] for end in chain.ends]))


def count_roots(f: Poly) -> RootCount:
    """Distinct real roots and conjugate imaginary pairs of f, read off its
    memoized Sturm chain (`_sturm_chain_int`), the chain that isolation and
    `sturm_count` use: the real roots number V(-inf) - V(+inf), and since
    the chain's head is the squarefree part of f, its other deg head - real
    roots come in conjugate pairs.  These are the counts that Yang's revised
    sign list gives (`RootCount.from_revised` on `discriminant_sequence`),
    the independent route the tests check this one against."""
    if f.degree < 1:
        raise ValueError("count_roots needs degree >= 1")
    chain = _sturm_chain_int(f)
    real = _real_roots_on(chain)
    return RootCount(distinct_real=real,
                     imaginary_pairs=(len(chain[0]) - 1 - real) // 2)


def distinct_real_roots(f: Poly) -> int:
    """Number of distinct real roots of f, on the chain `count_roots`
    reads; 0 for a constant."""
    if f.degree < 1:
        return 0
    return _real_roots_on(_sturm_chain_int(f))


def all_roots_real_simple(f: Poly) -> bool:
    """True when f has degree >= 1 and all its roots are real and simple:
    f has deg f distinct real roots, which leaves no room for a repeated or
    a non-real root."""
    return f.degree >= 1 and distinct_real_roots(f) == f.degree


class SturmChain:
    """Reusable chain; counts distinct real roots on open intervals."""

    def __init__(self, f: Poly):
        if f.is_zero():
            raise ValueError("Sturm chain of the zero polynomial")
        self.f = f
        self.ints = f.int_form()[0]
        self.chain = _sturm_chain_int(f)

    def sign(self, x: Fraction) -> int:
        return _sign_int(self.ints, x.numerator, x.denominator)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        if self.sign(lo) == 0 or self.sign(hi) == 0:
            raise EndpointRootError(f"endpoint is a root of {self.f}")
        return self.count_open(lo, hi)

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in the open (lo, hi), where lo and hi may be
        roots themselves: V(lo) - V(hi) - [f(hi) = 0] (module docstring)."""
        if not lo < hi:
            raise ValueError("need lo < hi")
        if self.f.degree < 1:
            return 0
        at_lo = _chain_signs(self.chain, lo.numerator, lo.denominator)
        at_hi = _chain_signs(self.chain, hi.numerator, hi.denominator)
        return _sign_changes(at_lo) - _sign_changes(at_hi) - (at_hi[0] == 0)


def sturm_count(f: Poly, lo: RationalLike, hi: RationalLike) -> int:
    """Number of distinct real roots of f in (lo, hi)."""
    return SturmChain(f).count(rat(lo), rat(hi))


def cauchy_bound(f: Poly) -> Fraction:
    """B with every complex root of f inside |z| < B."""
    if f.degree < 1:
        raise ValueError("no roots to bound")
    # the coefficients share one denominator in the integer form
    nums = f.int_form()[0]
    return 1 + Fraction(max(abs(c) for c in nums[:-1]), abs(nums[-1]))


def _simplest(lp: int, lq: int, hp: int, hq: int) -> tuple[int, int]:
    """(p, q), q > 0, with p/q a smallest-denominator rational strictly
    inside (lp/lq, hp/hq), for lq, hq > 0 and lp/lq < hp/hq.

    The continued-fraction walk, one term per round and no recursion: with
    n = floor(lo), the integer n + 1 is the answer if it lies below hi;
    otherwise 0 <= lo - n < hi - n <= 1, and either lo = n, where the
    answer is n + 1/k with k = floor(1/(hi - n)) + 1, or the walk goes on
    to (1/(hi - n), 1/(lo - n)), and the answer is n + 1/(its answer).
    The ends need not be in lowest terms."""
    terms = []
    while True:
        n = lp // lq
        if (n + 1) * hq < hp:
            p, q = n + 1, 1
            break
        a, b = lp - n * lq, hp - n * hq     # lo - n = a/lq, hi - n = b/hq
        terms.append(n)
        if a == 0:
            p, q = hq // b + 1, 1
            break
        lp, lq, hp, hq = hq, b, lq, a
    for n in reversed(terms):
        p, q = n * p + q, p
    return p, q


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational strictly inside (lo, hi)
    (`_simplest`)."""
    if not lo < hi:
        raise ValueError("empty interval")
    return Fraction(*_simplest(lo.numerator, lo.denominator,
                               hi.numerator, hi.denominator))


# ---------------------------------------------------------------------------
# isolated real roots
# ---------------------------------------------------------------------------


class RealRoot:
    """One distinct real root of a squarefree polynomial `poly`, held in
    [lo, hi], with its `multiplicity` in the polynomial it was isolated from.

    `poly` has exactly one root in the interval; lo == hi marks an exact
    rational root.  For open intervals the invariant
    sign(poly(lo)) * sign(poly(hi)) < 0 holds throughout refinement.

    The ends are held as integers over one common denominator, lo = a/d and
    hi = b/d with d > 0, not necessarily in lowest terms; d is a power of
    two for every root that isolation returns, but need not be.  `lo` and
    `hi` read (and set) them as `Fraction`s.
    """

    def __init__(self, poly: Poly, lo: RationalLike, hi: RationalLike,
                 multiplicity: int = 1):
        self.poly = poly
        self.multiplicity = multiplicity
        self._put(rat(lo), rat(hi))
        # the sign of poly at hi, read by the first `refine`; every step
        # keeps it
        self._at_hi: int | None = None

    def _put(self, lo: Fraction, hi: Fraction) -> None:
        d = lcm(lo.denominator, hi.denominator)
        self._a = lo.numerator * (d // lo.denominator)
        self._b = hi.numerator * (d // hi.denominator)
        self._d = d

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @lo.setter
    def lo(self, value: RationalLike) -> None:
        self._put(rat(value), self.hi)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    @hi.setter
    def hi(self, value: RationalLike) -> None:
        self._put(self.lo, rat(value))

    def int_ends(self) -> tuple[int, int, int]:
        """(a, b, d): the ends lo = a/d and hi = b/d as held."""
        return self._a, self._b, self._d

    def __repr__(self) -> str:
        return (f"RealRoot(poly={self.poly!r}, lo={self.lo!r}, hi={self.hi!r}, "
                f"multiplicity={self.multiplicity!r})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealRoot):
            return NotImplemented
        return ((self.poly, self.lo, self.hi, self.multiplicity)
                == (other.poly, other.lo, other.hi, other.multiplicity))

    __hash__ = None  # mutable: refinement moves the ends

    # -- basics ---------------------------------------------------------

    def is_exact(self) -> bool:
        return self._a == self._b

    @property
    def value(self) -> Fraction:
        if not self.is_exact():
            raise ValueError("root not exact")
        return self.lo

    def width(self) -> Fraction:
        return Fraction(self._b - self._a, self._d)

    def equals_rational(self, r: RationalLike) -> bool:
        r = rat(r)
        if self.is_exact():
            return self.lo == r
        return self.lo < r < self.hi and self.poly.eval(r) == 0

    # -- refinement -------------------------------------------------------

    def refine(self) -> None:
        """One bisection step at the midpoint (a + b)/(2d): one add, and one
        sign of poly there on the integer pair (`_sign_int`), compared with
        its sign at hi, which the first step reads.  A midpoint that is the
        root makes the root exact.  No `Fraction` is built."""
        a, b, d = self._a, self._b, self._d
        if a == b:
            return
        ints = self.poly.int_form()[0]
        if self._at_hi is None:
            self._at_hi = _sign_int(ints, b, d)
        m = a + b
        s = _sign_int(ints, m, 2 * d)
        if s == 0:
            self._a = self._b = m
        elif s == self._at_hi:
            self._a, self._b = 2 * a, m
        else:
            self._a, self._b = m, 2 * b
        self._d = 2 * d

    def try_exact(self) -> None:
        """Snap to an exact rational root when a low-height candidate works:
        `refine` until the interval is at most 1 wide, then test the simplest
        rational inside it (`_simplest`) by one sign of poly's integer form
        (`_sign_at`).  All of it runs on the integer ends; no `Fraction` is
        built."""
        while self._b - self._a > self._d:
            self.refine()
        if self.is_exact():
            return
        p, q = _simplest(self._a, self._d, self._b, self._d)
        if _sign_at(self.poly.int_form()[0], p, q) == 0:
            self._a = self._b = p
            self._d = q

    def canonical(self) -> tuple[Fraction, Fraction]:
        """(lo, hi) isolating this root in `poly`, fixed by the root and
        `poly` alone: the same whatever refinement ran before.  The root
        itself is left as it is; the work runs on a copy.

        A rational root v gives (v, v).  With lc the leading coefficient of
        poly's primitive integer form, a root p/q in lowest terms has q | lc,
        so |lc| * v is an integer; once |lc| * width < 1 the interval holds at
        most one such candidate, and one evaluation decides it.  That width
        loop is `refine` on the integer ends, and the candidate is tested on
        integers too.  An irrational root gives its cell in the isolation of
        poly (`_isolate_squarefree`): the first cell of the dyadic halving of
        [0, 2**e] or [-2**e, 0] toward the root (e the `_root_exponent` of
        poly) whose ends are no roots of poly and which holds no other root
        of poly.  The copy is refined until no cell end lies strictly inside
        it, and the cell that then holds it is the answer."""
        if self.is_exact():
            return self.lo, self.hi
        ints = int_coeffs(self.poly)
        lead = abs(ints[-1])
        r = copy.copy(self)
        while lead * (r._b - r._a) >= r._d:
            r.refine()
            if r.is_exact():
                return r.lo, r.hi
        k = (lead * r._a) // r._d + 1       # floor(lc * lo) + 1
        if k * r._d < r._b * lead and _sign_at(ints, k, lead) == 0:
            v = Fraction(k, lead)
            return v, v
        # the root is irrational, so it lies inside one cell of poly's
        # isolation and at no cell end: refined far enough, the copy lies in
        # that cell
        cells = _isolate_squarefree(self.poly)
        while True:
            for lo, hi in cells:
                if lo <= r.lo and r.hi <= hi:
                    return lo, hi
            r.refine()

    # -- relations ----------------------------------------------------------

    def sign_of(self, w: Poly) -> int:
        """Exact sign of w at this root: 0 when w vanishes there, and the
        sign of a constant w at once.

        At an inexact root, gcd(poly, w) decides first whether w vanishes:
        the gcd divides poly, which is squarefree, has only this root in
        [lo, hi] and has no root at either end, so it vanishes at the root
        exactly when its signs at lo and hi differ.  Two signs, no Sturm
        chain, and the root is left as it was.  Otherwise the root is refined
        until w is nonzero at lo and hi and w's chain shows no root in
        [lo, hi], and w's sign at lo is its sign at the root.  An end on a
        root of w moves off it within finitely many halvings, since both
        ends close in on this root and w has finitely many roots; a root
        that turns exact on the way is read at its value."""
        ints = w.int_form()[0]
        if w.degree >= 1 and not self.is_exact():
            g = poly_gcd(self.poly, w).int_form()[0]
            if _sign_int(g, self._a, self._d) != _sign_int(g, self._b, self._d):
                return 0
            chain = SturmChain(w).chain
            # (numerator, denominator, sign variations of w's chain there) of
            # each end: a refinement step moves one end, and only that one is
            # counted again
            at_lo = at_hi = None
            while not self.is_exact():
                a, b, d = self._a, self._b, self._d
                slo = _sign_int(ints, a, d)
                if slo != 0 and _sign_int(ints, b, d) != 0:
                    if at_lo is None or at_lo[0] * d != a * at_lo[1]:
                        at_lo = (a, d, _sign_changes(_chain_signs(chain, a, d)))
                    if at_hi is None or at_hi[0] * d != b * at_hi[1]:
                        at_hi = (b, d, _sign_changes(_chain_signs(chain, b, d)))
                    if at_lo[2] == at_hi[2]:
                        return slo
                self.refine()
        return _sign_int(ints, self._a, self._d)


def _isolate_squarefree(g: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint, sorted intervals, one per distinct real root of the nonzero
    polynomial g: open cells whose ends are no roots of g, and exact points
    lo == hi.  Bisection runs on g's chain, whose head is the squarefree
    part of g, so a repeated root is one root here.

    Bisection splits the box [-2**e, 2**e] at 0 first, whatever it holds,
    e the `_root_exponent` that the chain's head (which has the roots of g)
    carries, so the box's ends lie strictly beyond every root.  V changes
    only at roots of the head (Sturm's theorem), so V(+-2**e) = V(+-inf)
    and the head's sign there is its sign at +-inf: both come from
    `chain.ends`, and no chain is evaluated at the box's ends.  From there
    one rule decides each cell [a, b]: its open count
    V(a) - V(b) - [g(b) = 0] (module docstring) drops it at 0 and returns it
    at 1 when neither end is a root; a cell with a count of 1 and a root at
    exactly one end finishes on the head's sign (below); every other cell
    splits at its midpoint on the chain, and a midpoint that is a root is
    returned as an exact point.

    The head is squarefree, so inside a cell with one root it changes sign
    only across that root: it has its sign at the clean end (the end that is
    no root) up to the root, and the opposite sign beyond.  Such a cell
    halves on one sign of the head at the midpoint m (`_sign_dyadic`): a 0
    makes m the exact point, a sign unlike the clean end's returns the half
    between the clean end and m, and a sign like it makes m the clean end.
    That visits the midpoints and returns the cell that splitting on the
    chain would, where the half without the root has a count of 0 and is
    dropped.  A cell with a count of 1 and no root at either end is
    returned as it is.

    Every point is dyadic and held as integers: a stack entry
    (ka, kb, j, va, sa, vb, sb) is the cell [ka/2**j, kb/2**j] with the sign
    variations of the chain and the sign of the head at both ends, so a
    split takes one add for the midpoint (ka + kb)/2**(j+1) and evaluates
    the chain there only, on the integer pair (`_chain_signs`).  `Fraction`s
    are built only for the intervals returned."""
    if g.degree < 1:
        return []
    chain = SturmChain(g).chain
    head = chain[0]
    top = 1 << chain.ends[0][0]
    stack = [(-top, top, 0,
              _sign_changes([end[1] for end in chain.ends]), chain.ends[0][1],
              _sign_changes([end[2] for end in chain.ends]), chain.ends[0][2])]
    found = []
    while stack:
        ka, kb, j, va, sa, vb, sb = stack.pop()
        count = va - vb - (not sb)
        if count == 0:
            continue
        # j = 0 only for the box, which splits at 0 whatever it holds
        if count == 1 and j and (sa or sb):
            # halve on the head's sign until neither end is a root.  Just
            # inside the cell, a root end has the sign unlike the clean
            # end's, and the midpoint takes the place of the end whose sign
            # it has
            while not (sa and sb):
                km = ka + kb
                ka, kb, j = 2 * ka, 2 * kb, j + 1
                s = _sign_dyadic(head, km, j)
                if not s:
                    ka = kb = km
                    break
                if s == (sa or -sb):
                    ka, sa = km, s
                else:
                    kb, sb = km, s
            found.append((ka, kb, j))
            continue
        km = ka + kb
        signs = _chain_signs(chain, km, 1 << (j + 1))
        vm, sm = _sign_changes(signs), signs[0]
        if not sm:
            found.append((km, km, j + 1))
        stack.append((2 * ka, km, j + 1, va, sa, vm, sm))
        stack.append((km, 2 * kb, j + 1, vm, sm, vb, sb))
    return sorted((Fraction(ka, 1 << j), Fraction(kb, 1 << j)) for ka, kb, j in found)


def isolate_real_roots(f: Poly) -> list[RealRoot]:
    """The distinct real roots of f in ascending order, each held by its
    Yun factor with its multiplicity in f.  The factors are those of
    `squarefree_decomposition`, from Yun's algorithm started on the
    gcd(a, a') that f's chain keeps (`polyx._yun`).

    One isolation of f (`_isolate_squarefree`) finds them all, and each
    cell is labelled by the one factor that holds its root: the factor that
    vanishes at an exact point, and the factor whose signs at the two ends
    of an open cell differ.  The factors are squarefree and pairwise
    coprime and an open cell's ends are no roots of f, so the factor with
    the cell's root changes sign across it and every other factor keeps
    one sign on it; one test, sign(lo) * sign(hi) <= 0, picks the factor
    in both cases.

    Neighbours satisfy r_i.hi <= r_{i+1}.lo, and may share an end, which is
    then no root of f.  That holds under every refinement: a step moves one
    end of a cell to a midpoint inside it, which is no root of f unless it
    is the cell's root, and then the root turns exact."""
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if f.degree < 1:
        return []
    a = int_coeffs(f)
    factors = [(g, g.int_form()[0], mult)
               for g, mult in _yun(a, int_derivative(a), _sturm_chain_int(f).gcd)]
    roots: list[RealRoot] = []
    for lo, hi in _isolate_squarefree(f):
        g, mult = next((g, mult) for g, ints, mult in factors
                       if _sign_int(ints, lo.numerator, lo.denominator)
                       * _sign_int(ints, hi.numerator, hi.denominator) <= 0)
        r = RealRoot(poly=g, lo=lo, hi=hi, multiplicity=mult)
        r.try_exact()
        roots.append(r)
    return roots


def sign_on_interval(f: Poly, lo: RationalLike, hi: RationalLike) -> str:
    """'positive' | 'negative' | 'mixed-or-zero' for f on the open (lo, hi).

    Certificate: an open Sturm count on f's own chain shows f has no root
    strictly inside (roots sitting exactly at the endpoints do not lie in the
    open interval, and `SturmChain.count_open` leaves them out), then one
    interior sample of f decides the constant sign."""
    lo, hi = rat(lo), rat(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if f.is_zero():
        return "mixed-or-zero"
    if SturmChain(f).count_open(lo, hi) > 0:
        return "mixed-or-zero"
    # f now has no root in the open interval, so its sign there is constant
    sample = f.eval((lo + hi) / 2)
    return "positive" if sample > 0 else "negative"
