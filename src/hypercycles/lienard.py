"""Lienard systems carried by hyperelliptic curves.

A curve (y + P(x))^2 - Q(x) = 0 is invariant for

    x' = y,   y' = -f(x) y - g(x)

exactly when f = P' + P Q'/(2Q) and g = Q'(P^2 - Q)/(2Q) are polynomials;
the Darboux cofactor is then K = -P Q'/Q.  `certify` turns the four
sufficient conditions for a closed branch of the curve to be a limit cycle
into exact decision procedures over isolating intervals, and `bounds` is the
lookup table of known lower/upper estimates for the maximum number of such
cycles per system type (m, n).

Neither the critical point nor the focus/node sign is decided.  Once all
roots of Q are real, Rolle's theorem puts exactly one root alpha of Q' in
each gap between adjacent roots, and it is simple: a root of Q of
multiplicity e is a root of Q' of multiplicity e - 1, and the gaps take the
rest of the deg Q - 1 roots of Q'.  At alpha, 2Q(alpha) g'(alpha) =
Q''(alpha) H(alpha) with H = P^2 - Q; on a certified interval Q > 0 and
H < 0, so alpha is a strict maximum of Q, Q''(alpha) < 0 and g'(alpha) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .polyx import (BivarPoly, Poly, int_coeffs, int_combine, int_derivative,
                    int_exact_div, int_mul, poly_gcd)
from .rootclass import RealRoot, SturmChain, isolate_real_roots


class NonPolynomialSystem(ValueError):
    """(P, Q) does not define a polynomial Lienard system."""


@dataclass(frozen=True)
class HyperellipticCurve:
    """F(x, y) = (y + P(x))^2 - Q(x), with `H` = P^2 - Q and the cofactor
    `K` = -PQ'/Q computed on first use and kept; the cache writes to the
    instance `__dict__`, which a frozen dataclass allows.

    Both are computed on the integer forms p/dp and q/dq of P and Q, with
    one `Poly.from_int_form` (one gcd) at the end: H = (L/dp^2 p^2 -
    L/dq q) / L over L = lcm(dp^2, dq), and K = -p q' / (dp c q0) for the
    primitive part q0 = q / c of q, by one exact division in Z[x]
    (`int_exact_div`; Gauss's lemma puts the quotient on integers when Q
    divides PQ')."""

    P: Poly
    Q: Poly

    def __post_init__(self):
        if self.Q.is_zero():
            raise ValueError("Q must be nonzero")

    @cached_property
    def H(self) -> Poly:
        (p, dp), (q, dq) = self.P.int_form(), self.Q.int_form()
        L = lcm(dp * dp, dq)
        return Poly.from_int_form(int_combine((L // (dp * dp), int_mul(p, p)), (-(L // dq), q)), L)

    @cached_property
    def K(self) -> Poly:
        """-PQ'/Q, or NonPolynomialSystem when 2Q does not divide PQ'."""
        (p, dp), (q, dq) = self.P.int_form(), self.Q.int_form()
        c = gcd(*q)
        try:
            k = int_exact_div(int_mul(p, int_derivative(q)), [v // c for v in q])
        except ValueError:
            raise NonPolynomialSystem("2Q does not divide P*Q'") from None
        return Poly.from_int_form(k, -dp * c)


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


def derive_system(curve: HyperellipticCurve) -> LienardSystem:
    """f = P' - K/2 = P' + PQ'/(2Q) and g = -(PK + Q')/2 = Q'H/(2Q), or
    NonPolynomialSystem when Q does not divide PQ' (K is no polynomial);
    once K is one, g needs no second division.  Both are computed on the
    integer forms p/dp, k/dk and q/dq of P, K and Q, each an integer
    combination over one common denominator and one `Poly.from_int_form`:
    f = (2 dk p' - dp k) / (2 dp dk) and g = -(L/(dp dk) p k + L/dq q') / 2L
    over L = lcm(dp dk, dq)."""
    (p, dp), (k, dk), (q, dq) = curve.P.int_form(), curve.K.int_form(), curve.Q.int_form()
    f = Poly.from_int_form(int_combine((2 * dk, int_derivative(p)), (-dp, k)), 2 * dp * dk)
    L = lcm(dp * dk, dq)
    g = Poly.from_int_form(int_combine((L // (dp * dk), int_mul(p, k)),
                                       (L // dq, int_derivative(q))), -2 * L)
    if f.is_zero():
        raise NonPolynomialSystem("derived f vanishes; system degree m undefined")
    if g.degree < 1:
        raise NonPolynomialSystem("derived g has degree < 1; system degree n undefined")
    # with K exact, lc(f) = (deg P + deg Q / 2) lc(P) and, from 2Qg = Q'H,
    # deg g = deg H - 1, so deg P = m + 1 and deg H = n + 1 always hold
    return LienardSystem(f=f, g=g)


def invariance_residual(sys: LienardSystem, curve: HyperellipticCurve) -> BivarPoly:
    """y*F_x - (f*y + g)*F_y - K*F for F = (y + P)^2 - Q, fully expanded.

    With H = P^2 - Q, F = y^2 + 2P*y + H, so the residual has the three
    y-coefficients
        y^0:  -2g*P - K*H,
        y^1:  H' - 2(f + K)*P - 2g,
        y^2:  2P' - 2f - K.
    Each is computed on the integer forms of P, K, H, f and g, as an
    integer list over the one common denominator D of the terms, and
    becomes a `Poly` by `Poly.from_int_form`, so the residual builds no
    `Fraction`."""
    (p, dp), (k, dk), (h, dh) = curve.P.int_form(), curve.K.int_form(), curve.H.int_form()
    (f, df), (g, dg) = sys.f.int_form(), sys.g.int_form()
    D = lcm(dg * dp, dk * dh, df * dp, dk * dp)
    ycoeffs = [
        int_combine((-2 * (D // (dg * dp)), int_mul(g, p)),
                    (-(D // (dk * dh)), int_mul(k, h))),
        int_combine((D // dh, int_derivative(h)),
                    (-2 * (D // (df * dp)), int_mul(f, p)),
                    (-2 * (D // (dk * dp)), int_mul(k, p)),
                    (-2 * (D // dg), g)),
        int_combine((2 * (D // dp), int_derivative(p)),
                    (-2 * (D // df), f),
                    (-(D // dk), k)),
    ]
    return BivarPoly([Poly.from_int_form(nums, D) for nums in ycoeffs])


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
    critical_point_unique: bool = False       # single root of Q' inside (Rolle)
    gprime_positive_at_alpha: Optional[bool] = None  # focus/node sign, when certified
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
    """Distinct real roots of w in the open interval (root(r1), root(r2)),
    for r1 below r2 and a w that vanishes at neither root; a w that
    vanishes at an inexact root raises ValueError.

    `RealRoot.sign_of` refines each inexact interval until it holds no root
    of w and w is nonzero at its ends; an exact root is its own interval,
    and a root of w there is left out of the open count.  So one open Sturm
    count over (r1.lo, r2.hi) counts exactly the roots of w strictly between
    the two roots."""
    for r in (r1, r2):
        if r.sign_of(w) == 0 and not r.is_exact():
            raise ValueError(f"{w} vanishes at the root in [{r.lo}, {r.hi}]")
    return SturmChain(w).count_open(r1.lo, r2.hi)


def _coprime_part(w: Poly, Q: Poly) -> Poly:
    """A positive multiple of w with every root it shares with Q divided
    out: w is divided by gcd(w, Q), on the primitive integer vectors
    (`int_exact_div`), until the gcd is a constant."""
    while (d := poly_gcd(w, Q)).degree >= 1:
        w = Poly.from_int_form(int_exact_div(int_coeffs(w), int_coeffs(d)))
    return w


def certify(curve: HyperellipticCurve) -> CertificationReport:
    """Decide the four sufficient conditions on every candidate interval.

    Candidates are pairs of adjacent simple real roots of Q.  All verdicts
    are exact; certified_count counts intervals passing (i)-(iv).
    Condition (i) holds by construction once derive_system accepts the
    curve.  Q is the only polynomial isolated.

    The critical point and the focus/node sign are read, not decided (module
    docstring): the later checks run only when all roots of Q are real, so
    the gap holds exactly one root alpha of Q', which is simple, and on a
    certified interval g'(alpha) > 0."""
    sys = derive_system(curve)
    Q, f, H = curve.Q, sys.f, curve.H

    roots = isolate_real_roots(Q)
    all_real = sum(r.multiplicity for r in roots) == Q.degree
    # Q | PQ' puts every root of Q in P, and so in H: no root of Q lies in a
    # gap, so the counts run on the parts of H and gcd(Q', f) coprime to Q
    H1 = _coprime_part(H, Q)
    R4 = _coprime_part(poly_gcd(Q.derivative(), f), Q)

    report = CertificationReport(curve=curve, system=sys, all_roots_real=all_real,
                                 bounds=bounds(sys.m, sys.n))

    for left, right in zip(roots, roots[1:]):
        if left.multiplicity != 1 or right.multiplicity != 1:
            continue
        verdict = IntervalVerdict(s1=left, s2=right)
        report.intervals.append(verdict)

        # isolation leaves left.hi <= right.lo, so the midpoint of the gap
        # lies strictly between the two roots (an end the cells share is no
        # root of Q) and is no root of Q: Q(sample) is Q's sign on the gap;
        # H(sample) is read only after an exact count finds no root of H there
        sample = (left.hi + right.lo) / 2
        verdict.q_positive_between = Q.eval(sample) > 0
        if not verdict.q_positive_between or not all_real:
            # per the conservative reading of condition (ii), remaining checks
            # run only when all roots of Q are real and the sign screen passes
            continue
        verdict.critical_point_unique = True

        # (iii): P^2 - Q < 0 strictly inside; H vanishes at the endpoints,
        # so count the interior roots of H1 exactly first.
        verdict.p2_minus_q_negative = (
            _count_strictly_between(H1, left, right) == 0 and H.eval(sample) < 0
        )

        # (iv): any common root of Q' and f inside the interval is a root of
        # gcd(Q', f); absence is an exact Sturm count.
        verdict.no_common_root_qprime_f = (
            R4.degree < 1 or _count_strictly_between(R4, left, right) == 0
        )

        if verdict.conditions_met():
            verdict.gprime_positive_at_alpha = True
            verdict.certified = True
            report.certified_count += 1

    if report.bounds.upper is not None:
        report.bound_consistent = report.certified_count <= report.bounds.upper
    return report
