"""Lienard systems carried by hyperelliptic curves.

A curve (y + P(x))^2 - Q(x) = 0 is invariant for

    x' = y,   y' = -f(x) y - g(x)

exactly when f = P' + P Q'/(2Q) and g = Q'(P^2 - Q)/(2Q) are polynomials;
the Darboux cofactor is then K = -P Q'/Q.  `certify` turns the four
sufficient conditions for a closed branch of the curve to be a limit cycle
into exact decision procedures over isolating intervals, and `bounds` is the
lookup table of known lower/upper estimates for the maximum number of such
cycles per system type (m, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .polyx import BivarPoly, Poly, poly_gcd
from .rootclass import (
    RealRoot,
    isolate_real_roots,
    sturm_count,
)


class NonPolynomialSystem(ValueError):
    """(P, Q) does not define a polynomial Lienard system."""


@dataclass(frozen=True)
class HyperellipticCurve:
    """F(x, y) = (y + P(x))^2 - Q(x)."""

    P: Poly
    Q: Poly

    def __post_init__(self):
        if self.Q.is_zero():
            raise ValueError("Q must be nonzero")

    def F(self) -> BivarPoly:
        P, Q = self.P, self.Q
        return BivarPoly([P * P - Q, P.scale(2), Poly([1])])


@dataclass(frozen=True)
class LienardSystem:
    f: Poly
    g: Poly

    def __post_init__(self):
        if self.f.is_zero():
            raise ValueError("f must be nonzero (degree m >= 0)")
        if self.g.degree < 1:
            raise ValueError("g must have degree n >= 1")

    @property
    def m(self) -> int:
        return self.f.degree

    @property
    def n(self) -> int:
        return self.g.degree

    @property
    def type(self) -> tuple[int, int]:
        return (self.m, self.n)


@dataclass(frozen=True)
class Cofactor:
    K: Poly


def derive_system(curve: HyperellipticCurve) -> LienardSystem:
    """f = P' + PQ'/(2Q), g = Q'(P^2 - Q)/(2Q); exact divisions or error."""
    P, Q = curve.P, curve.Q
    Qp = Q.derivative()
    num_f = P * Qp
    q1, r1 = num_f.divrem(Q.scale(2))
    if not r1.is_zero():
        raise NonPolynomialSystem("2Q does not divide P*Q'")
    f = P.derivative() + q1
    num_g = Qp * (P * P - Q)
    q2, r2 = num_g.divrem(Q.scale(2))
    if not r2.is_zero():
        raise NonPolynomialSystem("2Q does not divide Q'*(P^2 - Q)")
    g = q2
    if f.is_zero():
        raise NonPolynomialSystem("derived f vanishes; system degree m undefined")
    if g.degree < 1:
        raise NonPolynomialSystem("derived g has degree < 1; system degree n undefined")
    sys = LienardSystem(f=f, g=g)
    if P.degree != sys.m + 1:
        raise NonPolynomialSystem(
            f"degree contract violated: deg P = {P.degree}, expected m+1 = {sys.m + 1}"
        )
    if (P * P - Q).degree != sys.n + 1:
        raise NonPolynomialSystem(
            f"degree contract violated: deg(P^2-Q) = {(P * P - Q).degree}, "
            f"expected n+1 = {sys.n + 1}"
        )
    return sys


def cofactor(curve: HyperellipticCurve) -> Cofactor:
    """K = -P*Q'/Q, which must be an exact polynomial (in x alone)."""
    P, Q = curve.P, curve.Q
    num = P * Q.derivative()
    q, r = num.divrem(Q)
    if not r.is_zero():
        raise NonPolynomialSystem("Q does not divide P*Q'")
    return Cofactor(K=-q)


def invariance_residual(sys: LienardSystem, curve: HyperellipticCurve) -> BivarPoly:
    """y*F_x - (f*y + g)*F_y - K*F, fully expanded."""
    K = cofactor(curve).K
    F = curve.F()
    lhs = BivarPoly.y_times(Poly([1])) * F.dx()
    field_y = BivarPoly([sys.g, sys.f])  # f*y + g
    lhs = lhs - field_y * F.dy()
    rhs = BivarPoly.from_x(K) * F
    return lhs - rhs


def invariance_check(sys: LienardSystem, curve: HyperellipticCurve) -> bool:
    try:
        return invariance_residual(sys, curve).is_zero()
    except NonPolynomialSystem:
        return False


# ---------------------------------------------------------------------------
# bounds lookup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: Optional[int]  # None marks "no finite bound established"
    exact: bool
    note: str = ""


def bounds(m: int, n: int) -> Bounds:
    """Known estimates for the maximum number of hyperelliptic limit cycles
    of type-(m, n) systems.  `upper is None` marks cells with no finite
    bound established (n = 2m+1, and a few small-m cells)."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m <= 1:
        return Bounds(0, 0, True, "types (0,n) and (1,n) admit no algebraic limit cycles")
    if n <= m:
        return Bounds(0, 0, True,
                      "zero under genericity f*g*(f/g)' not identically 0")
    if n == m + 1:
        return Bounds(0, 0, True, "types (m, m+1) admit no algebraic limit cycles")
    if (m, n) == (2, 4):
        return Bounds(0, 0, True, "type (2,4) admits no algebraic limit cycles")
    if (m, n) == (3, 5):
        return Bounds(0, 0, True, "type (3,5) admits no hyperelliptic limit cycles")

    band1_top = (4 * m + 2) // 3

    lower: Optional[int] = None
    note = ""
    if m + 2 <= n <= band1_top:
        lower = n - m - 1
    elif band1_top + 1 <= n <= 2 * m and m >= 4:
        lower = (n - 1) // 4
    elif n >= 2 * m + 1:
        lower = m // 2
    elif n == 2 * m and m == 3:
        lower = 1
        note = "survey cell (3,6): existence known, no general formula"

    upper: Optional[int] = None
    if m >= 4 and m + 2 <= n <= 2 * m - 2:
        upper = (n + 1) // 4
    elif m >= 4 and n in (2 * m - 1, 2 * m):
        upper = (n - 1) // 4
    elif n > 2 * m + 1:
        upper = m // 2

    if lower is None:
        lower = 0
        note = note or "no published lower bound for this cell"
    exact = upper is not None and lower == upper
    return Bounds(lower, upper, exact, note)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class IntervalVerdict:
    """Exact verdicts for one candidate interval (s1, s2)."""

    s1: RealRoot
    s2: RealRoot
    q_positive_between: bool = False          # condition (ii), per-interval part
    p2_minus_q_negative: bool = False         # condition (iii)
    no_common_root_qprime_f: bool = False     # condition (iv)
    critical_point_unique: bool = False       # single root of Q' inside (proof shape)
    gprime_positive_at_alpha: Optional[bool] = None  # focus/node sign data
    certified: bool = False

    def conditions_met(self) -> bool:
        return (
            self.q_positive_between
            and self.p2_minus_q_negative
            and self.no_common_root_qprime_f
        )


@dataclass
class CertificationReport:
    curve: HyperellipticCurve
    system: LienardSystem
    all_roots_real: bool
    intervals: list[IntervalVerdict] = field(default_factory=list)
    certified_count: int = 0
    bounds: Bounds = None  # type: ignore[assignment]
    bound_consistent: bool = True

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def n(self) -> int:
        return self.system.n


def _count_strictly_between(w: Poly, r1: RealRoot, r2: RealRoot) -> int:
    """Distinct real roots of w in the open interval (root(r1), root(r2)).

    Exact: the isolating intervals are first made sliver-free for w (no root
    of w hides between the algebraic endpoint and its rational bracket), so a
    single Sturm count over a rational middle interval is the true answer."""
    if w.is_zero():
        raise ValueError("cannot count roots of the zero polynomial")
    if w.degree < 1:
        return 0
    r1.separate_from(r2, avoid=[w])
    gap = r2.lo - r1.hi
    cap = r1.hi + gap / 3
    floor = r2.lo - gap / 3
    u = r1.clear_above(w, cap)
    v = r2.clear_below(w, floor)
    if not u < v:
        raise AssertionError("clearance windows collapsed")
    return sturm_count(w, u, v)


def _sample_between(r1: RealRoot, r2: RealRoot, avoid: list[Poly]) -> Fraction:
    r1.separate_from(r2, avoid=avoid)
    lo, hi = r1.hi, r2.lo
    k = 2
    while True:
        for num in range(1, k):
            c = lo + (hi - lo) * Fraction(num, k)
            if all(p.eval(c) != 0 for p in avoid):
                return c
        k += 1


def certify(curve: HyperellipticCurve) -> CertificationReport:
    """Decide the four sufficient conditions on every candidate interval.

    Candidates are pairs of adjacent simple real roots of Q.  All verdicts
    are exact; certified_count counts intervals passing (i)-(iv) with a
    unique interior critical point of Q (the shape the focus/node argument
    needs).  Condition (i) holds by construction once derive_system accepts
    the curve."""
    sys = derive_system(curve)
    P, Q, f, g = curve.P, curve.Q, sys.f, sys.g

    roots = isolate_real_roots(Q)
    all_real = sum(r.multiplicity for r in roots) == Q.degree
    H = P * P - Q
    Qp = Q.derivative()
    R4 = poly_gcd(Qp, f)
    gp = g.derivative()

    report = CertificationReport(
        curve=curve,
        system=sys,
        all_roots_real=all_real,
        bounds=bounds(sys.m, sys.n),
    )

    for left, right in zip(roots, roots[1:]):
        if left.multiplicity != 1 or right.multiplicity != 1:
            continue
        verdict = IntervalVerdict(s1=left, s2=right)
        report.intervals.append(verdict)

        sample = _sample_between(left, right, avoid=[Q, H])
        verdict.q_positive_between = Q.eval(sample) > 0
        if not verdict.q_positive_between or not all_real:
            # per the conservative reading of condition (ii), remaining checks
            # run only when all roots of Q are real and the sign screen passes
            continue

        # (iii): P^2 - Q < 0 strictly inside; H vanishes at the endpoints
        # whenever sqfree(Q) | P, so count interior roots exactly first.
        verdict.p2_minus_q_negative = (
            _count_strictly_between(H, left, right) == 0 and H.eval(sample) < 0
        )

        # (iv): any common root of Q' and f inside the interval is a root of
        # gcd(Q', f); absence is an exact Sturm count.
        verdict.no_common_root_qprime_f = (
            R4.degree < 1 or _count_strictly_between(R4, left, right) == 0
        )

        n_crit = _count_strictly_between(Qp, left, right)
        verdict.critical_point_unique = n_crit == 1

        if verdict.conditions_met() and verdict.critical_point_unique:
            alpha = _locate_critical_point(Qp, left, right)
            if alpha is not None:
                verdict.gprime_positive_at_alpha = alpha.sign_of(gp) > 0
            verdict.certified = True
            report.certified_count += 1

    b = report.bounds
    if b is not None and b.upper is not None:
        report.bound_consistent = report.certified_count <= b.upper
    return report


def _locate_critical_point(Qp: Poly, left: RealRoot, right: RealRoot) -> Optional[RealRoot]:
    """The unique root of Q' strictly between two isolated roots of Q.

    The candidate can never coincide with either endpoint: both are simple
    roots of Q, where Q' does not vanish."""
    for cand in isolate_real_roots(Qp):
        if cand.separate_from(left) == 1 and cand.separate_from(right) == -1:
            return cand
    return None
