"""Exact real-root classification and isolation.

Two independent routes to root counts live here on purpose:

* the Sturm-sequence route, the engine behind certification and the family
  searches: interval isolation, exact sign certificates, and the
  "all roots real and simple" screen, read off the chain's signs at +-inf.
  Chains are memoized per polynomial in a small bounded cache;
* the discrimination-matrix route: leading principal even-order minors of
  the Sylvester-style matrix of f and f', whose (revised) sign pattern
  counts distinct real roots and conjugate imaginary pairs.  It serves the
  `roots` command and the criterion 4 cross-check against the Sturm route.

All arithmetic is exact; no floating point enters any code path here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from typing import Sequence

from .polyx import (
    Poly,
    RationalLike,
    poly_gcd,
    rat,
    squarefree_decomposition,
    squarefree_part,
)


class EndpointRootError(ValueError):
    """Raised when a Sturm count is requested with a root at an endpoint."""


class RootsCoincide(ValueError):
    """Raised when two allegedly distinct isolated roots turn out equal."""


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------


def _int_coeffs(p: Poly) -> list[int]:
    """Clear denominators and content; keep the sign of the leading term."""
    if p.is_zero():
        return []
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = 0
    for v in ints:
        g = int_gcd(g, v)
    return [v // g for v in ints]


def _sign_at(ints: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial at p/q via homogeneous Horner."""
    if not ints:
        return 0
    p, q = x.numerator, x.denominator
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


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


def _leading_principal_minors(rows: list[list[int]]) -> list[int]:
    """Minors of orders 1..n.  One Bareiss sweep while pivots are nonzero,
    individual pivoted determinants after the first zero pivot."""
    n = len(rows)
    minors: list[int] = []
    m = [row[:] for row in rows]
    prev = 1
    fell_back_at = n
    for k in range(n):
        pivot = m[k][k]
        minors.append(pivot)
        if pivot == 0:
            fell_back_at = k
            break
        if k == n - 1:
            break
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    for order in range(fell_back_at + 1, n + 1):
        if len(minors) >= order:
            continue
        sub = [row[:order] for row in rows[:order]]
        minors.append(_int_det(sub))
    return minors


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


def discrimination_matrix(f: Poly) -> list[list[Fraction]]:
    """2n x 2n matrix from interleaved, progressively shifted rows of the
    coefficients of f and f' (leading coefficient first in each row)."""
    n = f.degree
    if n < 1:
        raise ValueError("discrimination matrix needs degree >= 1")
    desc = list(reversed(f.coeffs))                      # a0 .. an, a0 leading
    ddesc = list(reversed(f.derivative().coeffs))        # n*a0 .. a_{n-1}
    size = 2 * n
    rows = []
    for k in range(1, n + 1):
        row = [Fraction(0)] * size
        for i, c in enumerate(desc):
            col = (k - 1) + i
            if col < size:
                row[col] = c
        rows.append(row)
        row = [Fraction(0)] * size
        for i, c in enumerate(ddesc):
            col = k + i
            if col < size:
                row[col] = c
        rows.append(row)
    return rows


def discriminant_sequence(f: Poly) -> list[Fraction]:
    """(D_1, ..., D_n): determinants of the leading 2k x 2k submatrices."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant sequence needs degree >= 1")
    matrix = discrimination_matrix(f)
    den = 1
    for row in matrix:
        for c in row:
            den = den * c.denominator // int_gcd(den, c.denominator)
    scaled = [[int(c * den) for c in row] for row in matrix]
    minors = _leading_principal_minors(scaled)
    return [Fraction(minors[2 * k - 1], den ** (2 * k)) for k in range(1, n + 1)]


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


def _sign_changes(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def count_roots(f: Poly) -> RootCount:
    """Distinct real roots and conjugate imaginary pairs of f via the revised
    sign list: pairs = sign changes v, reals = nonvanishing members l - 2v."""
    if f.degree < 1:
        raise ValueError("count_roots needs degree >= 1")
    revised = revised_sign_list(sign_list(discriminant_sequence(f)))
    v = _sign_changes(revised)
    l = sum(1 for s in revised if s != 0)
    return RootCount(distinct_real=l - 2 * v, imaginary_pairs=v)


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


# Certification and the family searches ask for chains of the same few
# polynomials over and over; a bounded memo keeps that reuse without letting
# a long run of unrelated polynomials grow the process.
@lru_cache(maxsize=64)
def _sturm_chain_int(p: Poly) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part, as primitive integer polynomials.
    Dividing members by positive constants preserves all sign variations.
    Memoized per `Poly` (immutable and hashable); the chain is returned as
    nested tuples so callers cannot alter the shared value."""
    sf = squarefree_part(p)
    chain = [tuple(_int_coeffs(sf))]
    dp = sf.derivative()
    if not dp.is_zero():
        chain.append(tuple(_int_coeffs(dp)))
        while len(chain[-1]) > 1:
            a = Poly(chain[-2])
            b = Poly(chain[-1])
            r = a.divrem(b)[1]
            if r.is_zero():
                break
            chain.append(tuple(_int_coeffs(-r)))
    return tuple(chain)


def _variations(chain: tuple[tuple[int, ...], ...], x: Fraction) -> int:
    signs = [_sign_at(c, x) for c in chain]
    return _sign_changes(signs)


def _sign_at_infinity(c: tuple[int, ...], positive: bool) -> int:
    """Sign of the integer polynomial as x -> +inf (or -inf)."""
    lead = (c[-1] > 0) - (c[-1] < 0)
    return lead if positive or len(c) % 2 == 1 else -lead


def distinct_real_roots(f: Poly) -> int:
    """Number of distinct real roots of f: V(-inf) - V(+inf) on its Sturm
    chain, where only the leading coefficients and degrees matter."""
    if f.degree < 1:
        return 0
    chain = _sturm_chain_int(f)
    at_neg = _sign_changes([_sign_at_infinity(c, False) for c in chain])
    at_pos = _sign_changes([_sign_at_infinity(c, True) for c in chain])
    return at_neg - at_pos


def all_roots_real_simple(f: Poly) -> bool:
    """True when f has degree >= 1 and all its roots are real and simple:
    its squarefree part has full degree and f has deg f distinct real roots."""
    if f.degree < 1:
        return False
    squarefree = len(_sturm_chain_int(f)[0]) - 1 == f.degree
    return squarefree and distinct_real_roots(f) == f.degree


class SturmChain:
    """Reusable chain; counts distinct real roots on open intervals."""

    def __init__(self, f: Poly):
        if f.is_zero():
            raise ValueError("Sturm chain of the zero polynomial")
        self.f = f
        self.ints = _int_coeffs(f)
        self.chain = _sturm_chain_int(f) if f.degree >= 1 else (tuple(self.ints),)

    def sign(self, x: Fraction) -> int:
        return _sign_at(self.ints, x)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        if not lo < hi:
            raise ValueError("need lo < hi")
        if self.f.degree < 1:
            return 0
        if self.sign(lo) == 0 or self.sign(hi) == 0:
            raise EndpointRootError(f"endpoint is a root of {self.f}")
        return _variations(self.chain, lo) - _variations(self.chain, hi)


def sturm_count(f: Poly, lo: RationalLike, hi: RationalLike) -> int:
    """Number of distinct real roots of f in (lo, hi)."""
    return SturmChain(f).count(rat(lo), rat(hi))


def cauchy_bound(f: Poly) -> Fraction:
    """B with every complex root of f inside |z| < B."""
    if f.degree < 1:
        raise ValueError("no roots to bound")
    lead = abs(f.leading())
    return 1 + max(abs(c) / lead for c in f.coeffs[:-1])


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational strictly inside (lo, hi)."""
    if not lo < hi:
        raise ValueError("empty interval")
    # an integer inside wins outright
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if lo < ceil_lo < hi:
        return Fraction(ceil_lo)
    if lo == ceil_lo and lo + 1 < hi:
        return lo + 1
    n = lo.numerator // lo.denominator  # floor(lo)
    a, b = lo - n, hi - n               # 0 <= a < b, no integer in (a, b)
    if a == 0:
        # (0, b) with b <= 1: answer 1/ceil(1/b + epsilon-ish)
        k = b.denominator // b.numerator + 1
        return n + Fraction(1, k)
    inner = simplest_in_interval(1 / b, 1 / a)
    return n + 1 / inner


# ---------------------------------------------------------------------------
# isolated real roots
# ---------------------------------------------------------------------------


@dataclass
class RealRoot:
    """One distinct real root of `origin`, held in [lo, hi].

    `poly` is a squarefree polynomial with exactly one root in the interval;
    lo == hi marks an exact rational root.  For open intervals the invariant
    sign(poly(lo)) * sign(poly(hi)) < 0 holds throughout refinement.
    """

    poly: Poly
    lo: Fraction
    hi: Fraction
    multiplicity: int = 1
    _chain: SturmChain | None = field(default=None, repr=False, compare=False)

    # -- basics ---------------------------------------------------------

    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact():
            raise ValueError("root not exact")
        return self.lo

    def width(self) -> Fraction:
        return self.hi - self.lo

    def chain(self) -> SturmChain:
        if self._chain is None:
            self._chain = SturmChain(self.poly)
        return self._chain

    def equals_rational(self, r: RationalLike) -> bool:
        r = rat(r)
        if self.is_exact():
            return self.lo == r
        return self.lo < r < self.hi and self.poly.eval(r) == 0

    # -- refinement -------------------------------------------------------

    def _pick_interior(self, avoid: list[Poly]) -> Fraction:
        lo, hi = self.lo, self.hi
        k = 2
        while True:
            for num in range(1, k):
                c = lo + (hi - lo) * Fraction(num, k)
                if all(w.eval(c) != 0 for w in avoid):
                    return c
            k += 1

    def refine(self, avoid: list[Poly] = ()) -> None:
        """One bisection step; new endpoints avoid roots of every `avoid` poly."""
        if self.is_exact():
            return
        avoid = [w for w in avoid if not w.is_zero()]
        c = self._pick_interior(avoid)
        s = self.poly.eval(c)
        if s == 0:
            self.lo = self.hi = c
            return
        if (s > 0) == (self.poly.eval(self.hi) > 0):
            self.hi = c
        else:
            self.lo = c

    def try_exact(self) -> None:
        """Snap to an exact rational root when a low-height candidate works."""
        if self.is_exact():
            return
        while self.width() > 1:
            self.refine()
            if self.is_exact():
                return
        cands = set()
        ceil_lo = -((-self.lo.numerator) // self.lo.denominator)
        if self.lo < ceil_lo < self.hi:
            cands.add(Fraction(ceil_lo))
        try:
            cands.add(simplest_in_interval(self.lo, self.hi))
        except ValueError:
            pass
        for c in cands:
            if self.poly.eval(c) == 0:
                self.lo = self.hi = c
                return

    # -- relations ----------------------------------------------------------

    def separate_from(self, other: "RealRoot", avoid: list[Poly] = ()) -> int:
        """Refine both until the closed intervals are disjoint.
        Returns -1 if self < other, +1 if self > other.

        Termination is unconditional: when the roots are equal, the common
        factor d = gcd changes sign across the shrinking intersection and the
        coincidence is detected exactly (d cannot vanish at the interval
        endpoints, which are never roots of their own polynomials)."""
        d: Poly | None = None
        rounds = 0
        while not (self.hi < other.lo or other.hi < self.lo):
            if self.is_exact() and other.is_exact():
                if self.lo == other.lo:
                    raise RootsCoincide("isolated roots coincide")
            elif self.is_exact() and other.poly.eval(self.value) == 0:
                raise RootsCoincide("isolated roots coincide")
            elif other.is_exact() and self.poly.eval(other.value) == 0:
                raise RootsCoincide("isolated roots coincide")
            if rounds >= 8:
                if d is None:
                    d = poly_gcd(self.poly, other.poly)
                if d.degree >= 1:
                    ilo = max(self.lo, other.lo)
                    ihi = min(self.hi, other.hi)
                    if ilo < ihi:
                        slo = d.eval(ilo)
                        shi = d.eval(ihi)
                        if slo != 0 and shi != 0 and (slo > 0) != (shi > 0):
                            raise RootsCoincide(
                                "isolated roots share a common value")
            if self.width() >= other.width():
                self.refine(avoid)
            else:
                other.refine(avoid)
            rounds += 1
        return -1 if self.hi < other.lo else 1

    def sign_of(self, w: Poly) -> int:
        """Exact sign of w at this root (0 when w vanishes there)."""
        if w.is_zero():
            return 0
        if self.is_exact():
            v = w.eval(self.value)
            return (v > 0) - (v < 0)
        if w.degree >= 1:
            d = poly_gcd(self.poly, w)
            if d.degree >= 1 and d.eval(self.lo) != 0 and d.eval(self.hi) != 0:
                if sturm_count(d, self.lo, self.hi) > 0:
                    return 0
        wc = SturmChain(w) if w.degree >= 1 else None
        while True:
            slo = (w.eval(self.lo) > 0) - (w.eval(self.lo) < 0)
            if slo != 0 and (
                wc is None
                or (w.eval(self.hi) != 0 and wc.count(self.lo, self.hi) == 0)
            ):
                return slo
            self.refine(avoid=[w])

    def clear_above(self, w: Poly, cap: Fraction) -> Fraction:
        """A rational u with root < u <= cap, no roots of w in (root, u],
        and w(u) != 0.  `cap` must lie strictly above the root."""
        return self._clear(w, cap, upward=True)

    def clear_below(self, w: Poly, floor: Fraction) -> Fraction:
        return self._clear(w, floor, upward=False)

    def _clear(self, w: Poly, limit: Fraction, upward: bool) -> Fraction:
        if self.is_exact():
            v = self.value
            # deflate w at the root so the shrinking test has clean endpoints
            wd = w
            while wd.degree >= 1 and wd.eval(v) == 0:
                wd = wd.exact_div(Poly([-v, 1]))
            u = limit
            while True:
                if wd.eval(u) != 0:
                    if wd.degree < 1:
                        return u
                    a, b = (v, u) if upward else (u, v)
                    if wd.eval(v) != 0 and sturm_count(wd, a, b) == 0:
                        return u
                u = (v + u) / 2
                k = 3
                while w.eval(u) == 0 or u == v:
                    u = v + (limit - v) / k
                    k += 1
        else:
            # make the whole isolating interval sliver-free for w, then hand
            # back the boundary on the requested side
            vanishes = self.sign_of(w) == 0  # refines until the w-sign settles
            target = 1 if vanishes else 0
            wc = SturmChain(w) if w.degree >= 1 else None
            while True:
                edge = self.hi if upward else self.lo
                within = edge < limit if upward else edge > limit
                if within and w.eval(edge) != 0:
                    if wc is None:
                        return edge
                    if (
                        w.eval(self.lo) != 0
                        and w.eval(self.hi) != 0
                        and wc.count(self.lo, self.hi) == target
                    ):
                        return edge
                self.refine(avoid=[w])


def _isolate_squarefree(g: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals (or exact points lo==hi), one per real root of
    the squarefree polynomial g, endpoints non-roots."""
    if g.degree < 1:
        return []
    chain = SturmChain(g)
    bound = cauchy_bound(g)
    lo, hi = -bound, bound
    # endpoints beyond the Cauchy bound are never roots
    total = chain.count(lo, hi)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if chain.sign(mid) == 0:
            out.append((mid, mid))
            eps = (b - a) / 4
            while True:
                la, lb = mid - eps, mid + eps
                if (
                    chain.sign(la) != 0
                    and chain.sign(lb) != 0
                    and chain.count(la, lb) == 1
                ):
                    break
                eps /= 3
            stack.append((a, la, chain.count(a, la)))
            stack.append((lb, b, chain.count(lb, b)))
        else:
            cl = chain.count(a, mid)
            stack.append((a, mid, cl))
            stack.append((mid, b, cnt - cl))
    return sorted(out)


def isolate_real_roots(f: Poly) -> list[RealRoot]:
    """Disjoint, sorted isolating intervals for the distinct real roots of f,
    each carrying the root's multiplicity in f."""
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if f.degree == 0:
        return []
    roots: list[RealRoot] = []
    for factor, mult in squarefree_decomposition(f):
        for lo, hi in _isolate_squarefree(factor):
            r = RealRoot(poly=factor, lo=lo, hi=hi, multiplicity=mult)
            r.try_exact()
            roots.append(r)
    # cross-factor separation (factors are pairwise coprime, so roots differ)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i].poly is not roots[j].poly:
                roots[i].separate_from(roots[j])
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


def sign_on_interval(f: Poly, lo: RationalLike, hi: RationalLike) -> str:
    """'positive' | 'negative' | 'mixed-or-zero' for f on the open (lo, hi).

    Certificate: deflate any roots sitting exactly at the endpoints (they do
    not lie in the open interval), verify the deflated polynomial has no root
    strictly inside via a Sturm count, then one interior sample of f decides
    the constant sign."""
    lo, hi = rat(lo), rat(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if f.is_zero():
        return "mixed-or-zero"
    g = f
    while g.degree >= 1 and g.eval(lo) == 0:
        g = g.exact_div(Poly([-lo, 1]))
    while g.degree >= 1 and g.eval(hi) == 0:
        g = g.exact_div(Poly([-hi, 1]))
    if g.degree >= 1 and sturm_count(g, lo, hi) > 0:
        return "mixed-or-zero"
    # f now has no root in the open interval, so its sign there is constant
    sample = f.eval((lo + hi) / 2)
    return "positive" if sample > 0 else "negative"
