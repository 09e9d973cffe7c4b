"""Explicit curve families realizing the lower bounds, with exact searches.

Three regimes:

* n >= 2m+1 and n = 2m: fixed product shapes with one growing parameter s,
  found by doubling; every accepted s is fully certified, so the search
  result is a proof, not a heuristic.
* the band m+2 <= n <= floor((4m+2)/3) ("case i"): Q1 = L*M^2 is perturbed
  by a constant c so that P1 = Q1 + c acquires prescribed double roots z_i.
  No generic rational c can create a double root, so for t >= 1 the nodes
  are not free: we prescribe the z_i and solve linear conditions for M
  (criticality K(z_i) = 0 plus value alignment M(z_i) = +-rho M(z_t), made
  rational by square-ratio seed families; each row is the condition's value
  on the basis polynomials Mpin*x^j), then verify the full root ladder
  exactly.  At t = 0 the nodes are fixed and the seeds pair x0 with c.
* the band floor((4m+2)/3)+1 <= n <= 2m-1 ("case ii"): polynomial
  perturbations c(x) built by the two inductive lemmas below, then either a
  direct assembly or a reduction to (m-1, n-2) followed by `lift`.

`lift` multiplies P by (x-s) and Q by (x-s)^2, pushing the type from (m, n)
to (m+1, n+2) while preserving certified cycles for large s.

Every search walks its schedule through one `_first` loop: the fixed
`_geometric` ones (doubling s, also in `lift`, and halving eps) and the
case (i) seeds, (x0, c) pairs at t = 0, cut at the pattern's `max_seeds`;
every construction attempt certifies through `_try_certify`; lemmas 7 and 8
share one inductive routine, `_perturb_ladder`, whose inductive levels pick d
and b as the simplest rationals in the middle thirds of exact windows between
bracketed critical values (`_pick_window`), with no float anywhere.  Each
level isolates each derivative once (`_extrema` splits the critical points
of B and of q into minima and maxima), and the brackets (`_Bracket`) and
the window ends they bound are computed and compared on integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .lienard import (
    CertificationReport,
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    certify,
)
from .polyx import ONE, Poly, X, poly_gcd, rref
from .rootclass import (
    SturmChain,
    all_roots_real_simple,
    cauchy_bound,
    isolate_real_roots,
    sign_on_interval,
    simplest_in_interval,
)

DEFAULT_S_CAP = 2**60
# steps of the eps halving at a ladder's base
_LADDER_STEPS = 48


class SearchExhausted(RuntimeError):
    """No parameter in the search schedule produced a certified result."""


class PatternNotAchieved(RuntimeError):
    """No seed produced the required root ladder."""


@dataclass
class ConstructionResult:
    curve: HyperellipticCurve
    system: LienardSystem
    report: CertificationReport
    parameters: dict = field(default_factory=dict)


def _linear(r) -> Poly:
    return Poly([-Fraction(r), 1])


def _geometric(start, ratio, steps: Optional[int] = None, cap=None):
    """The search schedule start, start*ratio, start*ratio^2, ...: at most
    `steps` values, and none above `cap`."""
    v = start
    for _ in range(steps) if steps is not None else itertools.count():
        if cap is not None and v > cap:
            return
        yield v
        v *= ratio


def _first(schedule, attempt):
    """The first non-None attempt(v) over the schedule, or None."""
    for v in schedule:
        result = attempt(v)
        if result is not None:
            return result
    return None


# ---------------------------------------------------------------------------
# n >= 2m+1  (case iii) and n = 2m
# ---------------------------------------------------------------------------


def construct_high_n(m: int, n: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    """P = prod(x-i)(x+s), Q = -s prod(x-i)(x+s)^{n-m+1}; smallest certified
    s from the doubling schedule wins.  Yields floor(m/2) cycles on
    [2i-1, 2i] (m even) or [2i, 2i+1] (m odd)."""
    if m < 2 or n < 2 * m + 1:
        raise ValueError("construct_high_n needs m >= 2 and n >= 2m+1")
    return _product_family(m, n, n - m + 1, m // 2, True, s_cap)


def construct_n_2m(m: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    """P = prod(x-i)(x+s), Q = prod(x-i)(x+s)^{m+2}: floor((2m-1)/4) cycles.
    Stated for m >= 4; m = 3 is accepted with a warning note."""
    if m < 3:
        raise ValueError("construct_n_2m needs m >= 3")
    result = _product_family(m, 2 * m, m + 2, (2 * m - 1) // 4, False, s_cap)
    if m == 3:
        result.parameters["warning"] = "m = 3 is below the stated m >= 4 range"
    return result


def _product_family(m, n, k, target, negative_q, s_cap) -> ConstructionResult:
    """P = R(x+s) and Q = R(x+s)^k, times -s when negative_q, with
    R = prod_{i<=m}(x-i): the first s doubling from m+1 that certifies
    `target` cycles wins."""
    R = Poly.from_roots(range(1, m + 1))
    # the cycles sit on alternate integer intervals; the factor -s in Q
    # (case iii) flips the positive-Q parity relative to the n = 2m family
    first = 1 if (m % 2 == 0) == negative_q else 2
    expected = [(i, i + 1) for i in range(first, m, 2)]

    def attempt(s):
        P = R * Poly([s, 1])
        Q = R * Poly([s, 1]) ** k
        if negative_q:
            Q = Q.scale(-s)
        return _try_certify(P, Q, (m, n), target, expected, {"s": s})

    result = _first(_geometric(m + 1, 2, cap=s_cap), attempt)
    if result is None:
        raise SearchExhausted(f"no s up to {s_cap} certifies type ({m},{n})")
    return result


def _try_certify(P, Q, mn, target, expected_pairs=None,
                 parameters=None) -> Optional[ConstructionResult]:
    try:
        curve = HyperellipticCurve(P=P, Q=Q)
        report = certify(curve)
    except NonPolynomialSystem:
        return None
    if report.system.type != mn or report.certified_count != target:
        return None
    if expected_pairs is not None:
        certified = [(v.s1, v.s2) for v in report.intervals if v.certified]
        if len(certified) != len(expected_pairs):
            return None
        for (s1, s2), (a, b) in zip(certified, expected_pairs):
            if not (s1.equals_rational(a) and s2.equals_rational(b)):
                return None
    if not report.bound_consistent:
        raise AssertionError(
            f"certified count exceeds the proven upper bound for {mn}")
    return ConstructionResult(curve=curve, system=report.system, report=report,
                              parameters=parameters or {})


# ---------------------------------------------------------------------------
# lift: (m, n) -> (m+1, n+2)
# ---------------------------------------------------------------------------


def lift(
    base: CertificationReport,
    s_cap: int = DEFAULT_S_CAP,
) -> ConstructionResult:
    """P -> P*(x-s), Q -> Q*(x-s)^2 with s above every root of Q, doubling
    until the lifted curve certifies exactly as many cycles as `base`."""
    curve = base.curve
    t = base.certified_count
    if t < 1:
        raise ValueError("lift needs a curve certifying at least one cycle")
    lifted_type = (base.system.m + 1, base.system.n + 2)

    def attempt(s):
        return _try_certify(curve.P * _linear(s), curve.Q * _linear(s) ** 2,
                            lifted_type, t,
                            parameters={"s": s, "base_type": base.system.type})

    start = Fraction(_next_integer_above_roots(curve.Q))
    result = _first(_geometric(start, 2, cap=s_cap), attempt)
    if result is None:
        raise SearchExhausted("no lift parameter s certified the lifted curve")
    return result


def _next_integer_above_roots(q: Poly) -> int:
    """The least integer k >= 1 above every real root of q, decided exactly:
    q(k) != 0 and no root of q in (k, top), with top an integer past the
    Cauchy bound.  Every integer past the least one passes too, so a
    bisection on the integers in [1, top] finds it."""
    if q.degree < 1:
        return 1
    chain = SturmChain(q)
    top = math.floor(cauchy_bound(q)) + 1
    lo, hi = 0, top  # the least such k lies in (lo, hi]
    while hi - lo > 1:
        k = (lo + hi) // 2
        if chain.sign(k) != 0 and chain.count_open(k, top) == 0:
            hi = k
        else:
            lo = k
    return hi


# ---------------------------------------------------------------------------
# inductive polynomial perturbations (the two ladder lemmas)
# ---------------------------------------------------------------------------


# refinement rounds one window pick may spend before it gives up: the b
# window at the top of a height-4 ladder takes about 680; a height-5 ladder
# needs more, so it ends here with SearchExhausted instead of running on
_WINDOW_ROUNDS = 1000


class _Bracket:
    """A rational interval [lo, hi] holding the critical value p(alpha) at an
    isolated root alpha of p'.  With mid and rad the midpoint and half-width
    of alpha's interval, |p(alpha) - p(mid)| <= rad*(|p'(mid)| + rad*M2),
    where M2 bounds |p''| on the initial interval; `refine` narrows both.

    The ends are v -+ rad*(|p'(mid)| + rad*M2) with v = p(mid), computed on
    integers: with alpha's interval [a/d, b/d] (`RealRoot`'s integer ends),
    x = a + b, w = b - a and D = 2d, one homogeneous Horner pass on p's
    numerators c_i (over den) gives P = sum c_i x^i D^(n-i) and
    P_x = sum i c_i x^(i-1) D^(n-i), so v = P/(den D^n),
    rad*|p'(mid)| = w|P_x|/(den D^n) and rad^2 M2 = w^2 M2/D^2, and both
    ends are built over the one denominator den * den(M2) * D^n.  They are
    held as (numerator, denominator) pairs, `lo_q` and `hi_q`, which
    `_pick_window` compares by cross-multiplication; `lo` and `hi` read
    them as `Fraction`s."""

    def __init__(self, p: Poly, root):
        self.root = root
        self.nums, self.den = p.int_form()
        R = max(abs(root.lo), abs(root.hi))
        # |p''| <= sum |i (i-1) c_i| R^(i-2) / den on the initial interval
        self.m2 = Fraction(sum(abs(i * (i - 1) * c) * R ** (i - 2)
                               for i, c in enumerate(self.nums) if i > 1), self.den)
        self._update()

    def _update(self):
        a, b, d = self.root.int_ends()
        x, w, D = a + b, b - a, 2 * d
        nums = self.nums
        P, P_x, Dpow = nums[-1], 0, 1
        for c in reversed(nums[:-1]):
            P_x = P_x * x + P
            Dpow *= D
            P = P * x + c * Dpow
        # Dpow = D^n; n >= 2, since p has a critical point
        m2n, m2d = self.m2.numerator, self.m2.denominator
        center = P * m2d
        spread = w * (abs(P_x) * m2d + w * m2n * self.den * (Dpow // (D * D)))
        base = self.den * m2d * Dpow
        self.lo_q, self.hi_q = (center - spread, base), (center + spread, base)

    @property
    def lo(self) -> Fraction:
        return Fraction(*self.lo_q)

    @property
    def hi(self) -> Fraction:
        return Fraction(*self.hi_q)

    def refine(self):
        self.root.refine()
        self._update()


def _below(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x < y for rationals held as (numerator, positive denominator)."""
    return x[0] * y[1] < y[0] * x[1]


def _critical_values(p: Poly, kind: int, interval=None) -> list:
    """Brackets of the critical values of p at its local maxima (kind 1),
    its local minima (kind -1) or all its critical points (kind 0), keeping
    only the points strictly inside `interval` when one is given."""
    dp = p.derivative()
    ddp = dp.derivative()
    out = []
    for r in isolate_real_roots(dp):
        inside = interval is None or _inside(r, interval)
        if inside and (not kind or r.sign_of(ddp) == -kind):
            out.append(_Bracket(p, r))
    return out


def _extrema(p: Poly) -> tuple[list, list]:
    """Brackets of the critical values of p at its local minima and at its
    local maxima, from one isolation of p'.  A critical point where p'' is 0
    is in neither list."""
    ddp = p.derivative().derivative()
    minima, maxima = [], []
    for r in isolate_real_roots(p.derivative()):
        s = r.sign_of(ddp)
        if s:
            (minima if s > 0 else maxima).append(_Bracket(p, r))
    return minima, maxima


def _inside(r, interval) -> bool:
    """The isolated root r lies in the open interval, decided by refining r
    until its interval lies inside or outside.  An end of `interval` that
    is a root of r.poly inside r's interval is r itself, so not inside."""
    a, b = interval
    while not r.is_exact():
        if a <= r.lo and r.hi <= b:
            return True
        if r.hi <= a or b <= r.lo:
            return False
        if any(r.lo < e < r.hi and r.poly.eval(e) == 0 for e in (a, b)):
            return False
        r.refine()
    return a < r.lo < b


def _pick_window(least: Fraction, floor: list, ceiling: list) -> Optional[Fraction]:
    """The simplest rational in the middle third of the open window
    (max(least, floor), min ceiling), with floor and ceiling `_Bracket`s.

    Each round refines the brackets that can still decide an end, until
    all of them are narrower than an eighth of the window that is certainly
    open.  None when the window is certainly empty, or after
    `_WINDOW_ROUNDS` rounds (a window that closes to a point never
    decides).  The ceiling must not be empty.  Every comparison runs on the
    brackets' integer pairs (`_below`); `Fraction`s are built only for the
    window picked."""
    least = (least.numerator, least.denominator)
    for _ in range(_WINDOW_ROUNDS):
        f_lo = f_hi = least
        for e in floor:
            if _below(f_lo, e.lo_q):
                f_lo = e.lo_q
            if _below(f_hi, e.hi_q):
                f_hi = e.hi_q
        c_lo, c_hi = ceiling[0].lo_q, ceiling[0].hi_q
        for e in ceiling[1:]:
            if _below(e.lo_q, c_lo):
                c_lo = e.lo_q
            if _below(e.hi_q, c_hi):
                c_hi = e.hi_q
        if not _below(f_lo, c_hi):
            return None
        # gap = c_lo - f_hi = gap_n / gap_d
        gap_n, gap_d = c_lo[0] * f_hi[1] - f_hi[0] * c_lo[1], c_lo[1] * f_hi[1]
        deciding = ([e for e in floor if _below(f_lo, e.hi_q)]
                    + [e for e in ceiling if _below(e.lo_q, c_hi)])
        # hi - lo >= gap / 8, over the bracket's one denominator
        wide = [e for e in deciding
                if 8 * (e.hi_q[0] - e.lo_q[0]) * gap_d >= gap_n * e.lo_q[1]]
        if gap_n > 0 and not wide:
            start, third = Fraction(*f_hi), Fraction(gap_n, 3 * gap_d)
            return simplest_in_interval(start + third, start + 2 * third)
        for e in wide:
            e.refine()
    return None


def _positive_on(c: Poly, interval) -> bool:
    """c > 0 on the closed interval."""
    lo, hi = interval
    return sign_on_interval(c, lo, hi) == "positive" and c.eval(lo) > 0 and c.eval(hi) > 0


def _roots_fit_slots(p: Poly, slots) -> bool:
    """p has only real simple roots, one per slot: a slot (lo, hi) listed k
    times holds k roots strictly inside, counted on p's Sturm chain.  The
    distinct slots must be disjoint, as `_ladder_slots` builds them."""
    if p.degree != len(slots) or not all_roots_real_simple(p):
        return False
    chain = SturmChain(p)
    return all(chain.sign(lo) != 0 != chain.sign(hi) and chain.count_open(lo, hi) == k
               for (lo, hi), k in Counter(slots).items())


def _ladder_slots(below: int, above: int, l: int, s1, s2) -> list:
    # `below` roots in (s1, 0), then x_i and y_1 in (0, 1), with y_1 < 1
    # only when the chain continues (l >= 1)
    head_hi = Fraction(1) if l >= 1 else Fraction(s2)
    slots = [(Fraction(s1), Fraction(0))] * below
    slots += [(Fraction(0), head_hi)] * above
    slots += [(Fraction(1), Fraction(s2))] * (2 * l)  # z_i, y_{i+1} for i <= l
    return slots


def _pick_d_then_b(Q1: Poly, cstar: Poly, slots, pos_interval):
    """The inductive step c = x^2 c*(x) - dx + b, with A = Q1 + x^2 c*.

    d comes from the window (0, min of the local maxima of A/x and of the
    local minima of x c*(x) on (0, hi)): below the first, A - dx = x(A/x - d)
    keeps every root real and simple; below the second, g = dx - x^2 c* =
    x(d - x c*(x)) is negative away from 0, so only its bump near 0 bounds b
    from below.  b comes from the window where A - dx + b = b - q keeps
    every root real and simple (local minima of q below b, local maxima
    above) and c = b - g stays positive on pos_interval (b above g at both
    ends and at g's critical points inside), with q = -(A - dx).  The exact
    gates accept the pick."""
    A = Q1 + cstar.shift_up(2)
    B = A.exact_div(X)
    lo, hi = pos_interval
    dips = _critical_values(X * cstar, -1, (Fraction(0), hi))
    minima, maxima = _extrema(B)
    d = _pick_window(Fraction(0), minima, maxima + dips)
    if d is None:
        return None
    after_d = A - X.scale(d)
    if not _splits_at_zero(after_d):
        return None
    q = -after_d
    g = X.scale(d) - cstar.shift_up(2)
    minima, maxima = _extrema(q)
    floor = _critical_values(g, 0, pos_interval) + minima
    b = _pick_window(max(g.eval(lo), g.eval(hi)), floor, maxima)
    if b is None:
        return None
    c, cand = Poly([b]) - g, after_d + Poly([b])
    if _roots_fit_slots(cand, slots) and _positive_on(c, pos_interval):
        return c, cand
    return None


def _splits_at_zero(p: Poly) -> bool:
    """After the -dx perturbation 0 must be an exact simple root and all the
    remaining roots real and simple; the final ladder is checked only after
    the +b stage, so this gate stays minimal."""
    if p.eval(0) != 0:
        return False
    deflated = p.exact_div(X)
    return deflated.eval(0) != 0 and all_roots_real_simple(deflated)


def _perturb_ladder(q1, slots, h: int, base_h: int, base: Poly,
                    pos_interval) -> tuple[Poly, Poly]:
    """The argument shared by lemmas 7 and 8: c(x) > 0 on pos_interval such
    that q1(h) + c has one simple real root in each of slots(h).

    At h = base_h, c = eps*base with eps halving from 1/2.  Above it, the
    h-1 solution c* of q1(h-1) = q1(h)/x^2 is perturbed to x^2*c* - d*x + b
    with d and b picked from exact windows (`_pick_d_then_b`)."""
    Q1, ladder = q1(h), slots(h)
    if h == base_h:
        def attempt(eps):
            c = base.scale(eps)
            cand = Q1 + c
            if _roots_fit_slots(cand, ladder) and _positive_on(c, pos_interval):
                return c, cand
            return None

        found = _first(_geometric(Fraction(1, 2), Fraction(1, 2), steps=_LADDER_STEPS),
                       attempt)
    else:
        cstar, _ = _perturb_ladder(q1, slots, h - 1, base_h, base, pos_interval)
        found = _pick_d_then_b(Q1, cstar, ladder, pos_interval)
    if found is None:
        raise SearchExhausted(f"ladder h = {h}: no perturbation up to the budget")
    return found


def perturb_lemma7(h: int, l: int, s) -> tuple[Poly, Poly]:
    """A degree-2h polynomial c(x) > 0 on [0, s] such that Q1 + c, with
    Q1 = (x-s) x^{2h+1} prod_{i<=l} (x-i)^2, has 2h+2l+2 simple real roots
    in the ladder 0 < x_1 < ... < x_{2h+1} < y_1 < 1 < z_1 < ... < y_{l+1} < s.
    Base case h = 0 searches a constant; `_perturb_ladder` has the induction."""
    s = Fraction(s)
    if s <= l + 1:
        raise ValueError("need s > l + 1")
    if h < 0 or l < 0:
        raise ValueError("h, l must be nonnegative")
    rest = _linear(s) * Poly.from_roots(range(1, l + 1)) ** 2
    return _perturb_ladder(
        lambda k: rest * X ** (2 * k + 1),
        lambda k: _ladder_slots(0, 2 * k + 2, l, 0, s),
        h, 0, ONE, (Fraction(0), s))


def perturb_lemma8(h: int, l: int, s1, s2) -> tuple[Poly, Poly]:
    """Analog of perturb_lemma7 for Q1 = (x-s1)(x-s2) x^{2h} prod (x-i)^2
    with s1 < -1 < 1 < l+1 < s2: returns degree-(2h-1) c(x) positive on
    [s1, s2] with the ladder s1 < z_{-1} < x_1 < 0 < x_2 < ... < y_{l+1} < s2."""
    s1, s2 = Fraction(s1), Fraction(s2)
    if h < 1:
        raise ValueError("lemma 8 needs h >= 1")
    if not (s1 < -1 and s2 > l + 1):
        raise ValueError("need s1 < -1 and s2 > l + 1")
    rest = _linear(s1) * _linear(s2) * Poly.from_roots(range(1, l + 1)) ** 2
    return _perturb_ladder(
        lambda k: rest * X ** (2 * k),
        lambda k: _ladder_slots(2, 2 * k, l, s1, s2),  # z_{-1}, x_1 < 0
        # base c = eps * (x - s1 + 1): linear, positive on [s1, s2]
        h, 1, Poly([1 - s1, 1]), (s1, s2))


# ---------------------------------------------------------------------------
# case (ii):  floor((4m+2)/3)+1 <= n <= 2m-1
# ---------------------------------------------------------------------------


def construct_case_ii(m: int, n: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    band_lo = (4 * m + 2) // 3 + 1
    if not band_lo <= n <= 2 * m - 1:
        raise ValueError(f"({m},{n}) outside the case-(ii) band")
    if (m, n) == (3, 5):
        raise ValueError(f"type {(m, n)} has no hyperelliptic limit cycles")
    r = (n - 1) % 4
    t = (n - 1) // 4
    if r in (2, 3):  # reduce to (m-1, n-2), then lift
        try:
            sub = construct(m - 1, n - 2, s_cap=s_cap)
        except ValueError as exc:
            # the reduction can land on an excluded zero cell, e.g. (4,7) -> (3,5)
            raise PatternNotAchieved(
                f"reduction of ({m},{n}) lands on the excluded type "
                f"({m-1},{n-2}): {exc}") from exc
        result = lift(sub.report, s_cap=s_cap)
        result.parameters["reduced_from"] = (m - 1, n - 2)
        if result.report.certified_count != t:
            raise SearchExhausted(
                f"lift of ({m-1},{n-2}) gave {result.report.certified_count} cycles, "
                f"wanted {t}")
        return result
    if r == 0:  # lemma 7 ladder, pref = x - sigma
        h = 3 * t - m
        l = m - 2 * t - 1
        sigma = 2 * m - 2 * t
        assert h >= 0 and l >= 0
        result = _case_ii_assemble(
            (m, n), t, l, 6 * t - 2 * m + 1, _linear(sigma),
            perturb_lemma7(h, l, sigma), {"t": t, "h": h, "l": l, "sigma": sigma})
    else:  # lemma 8 ladder, pref = (x+2)(x-s) with s doubling until certify
        # accepts; a ladder that fails raises SearchExhausted at once
        h = 3 * t - m + 1
        l = m - 2 * t - 2
        assert h >= 1 and l >= 0

        def attempt(s):
            return _case_ii_assemble(
                (m, n), t, l, 6 * t - 2 * m + 2, Poly([2, 1]) * _linear(s),
                perturb_lemma8(h, l, -2, s), {"t": t, "h": h, "l": l, "s": s})

        result = _first(_geometric(l + 2, 2, cap=s_cap), attempt)
    if result is None:
        raise SearchExhausted(f"case (ii) search failed for ({m},{n})")
    return result


def _case_ii_assemble(mn, t, l, k, pref, ladder, parameters):
    """P = P1*D*pref and Q = pref*x^k*prod(x-i)^2 * P1*D^2*pref^2, with
    D = x*prod_{i<=l}(x-i) and (c, P1) = ladder from a ladder lemma."""
    D = Poly.from_roots(range(0, l + 1))  # includes the factor x
    Q1 = pref * X ** k * Poly.from_roots(range(1, l + 1)) ** 2
    c, P1 = ladder
    return _try_certify(P1 * D * pref, Q1 * P1 * D**2 * pref**2, mn, t,
                        parameters={**parameters, "c": [str(v) for v in c.coeffs]})


# ---------------------------------------------------------------------------
# case (i):  m+2 <= n <= floor((4m+2)/3)
# ---------------------------------------------------------------------------


def _sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# nodes w in (0, 1) with w(1-w) a rational square: w = k^2/(k^2+l^2);
# any two of them give a square ratio w2(1-w2)/(w1(1-w1))
_ALIGNED_NODES = sorted(
    {
        Fraction(k * k, k * k + l * l)
        for k in range(1, 6)
        for l in range(1, 6)
        if math.gcd(k, l) == 1
    }
)

# perfect rational squares in (0, 1): ratios of any two are squares
_SQUARE_VALUES = sorted(
    {
        Fraction(k * k, l * l)
        for l in range(2, 9)
        for k in range(1, l)
        if math.gcd(k, l) == 1
    }
)


@dataclass
class CaseIPattern:
    """Seed configuration for the case-(i) node search."""

    x0_candidates: tuple = (Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(1, 5))
    odd_nodes: tuple = tuple(_ALIGNED_NODES)
    even_nodes: tuple = tuple(_SQUARE_VALUES)
    signs: tuple = (-1, 1)
    # how much of the gap above z_t the pinned ladder nodes occupy: small
    # fractions leave a wide final window, deepening the cycle-carrying dips
    pin_fractions: tuple = (Fraction(1), Fraction(1, 4), Fraction(1, 16), Fraction(2, 3))
    halving_steps: int = 40
    max_seeds: int = 400


def construct_case_i(
    m: int,
    n: int,
    pattern: Optional[CaseIPattern] = None,
) -> ConstructionResult:
    """P1 = L*M^2 + c with t = (4m - 3n + 3)/2 (n odd) or (4m - 3n + 2)/2
    (n even) prescribed double roots.  At t = 0 the seeds are (x0, c) pairs,
    c halving from 1, over a fixed M with equally spaced roots in (0, 1); at
    t >= 1 they are node tuples, x0, signs and pin fractions for
    `_case_i_attempt`.  Either walk is one `_first` loop cut at
    `pattern.max_seeds`."""
    band_hi = (4 * m + 2) // 3
    if not m + 2 <= n <= band_hi:
        raise ValueError(f"({m},{n}) outside the case-(i) band")
    pattern = pattern or CaseIPattern()
    odd = n % 2 == 1
    # 4m - 3n + 3 (n odd) and 4m - 3n + 2 (n even) are even, and the band's
    # 3n <= 4m + 2 keeps them >= 0
    t = (4 * m - 3 * n + (3 if odd else 2)) // 2
    target = n - m - 1
    deg_m = t + (n - m - 2 if odd else n - m - 1)
    x0s = pattern.x0_candidates if odd else (None,)
    if t == 0:
        nodes = [Fraction(i, deg_m + 1) for i in range(1, deg_m + 1)]
        M = Poly.from_roots(nodes)
        seeds = itertools.product(
            x0s, _geometric(Fraction(1), Fraction(1, 2), steps=pattern.halving_steps))

        def attempt(seed):
            x0, c = seed
            L = _linear(x0) * _linear(1) if odd else _linear(1)
            result = _case_i_assemble(m, n, L, M, ONE, c, target)
            if result is not None:
                result.parameters.update(
                    {"c": c, "x0": x0, "nodes": [str(v) for v in nodes], "t": 0})
            return result
    else:
        slack = deg_m - (2 * t - 1)
        if slack < 0:
            raise PatternNotAchieved(
                f"case-(i) cell ({m},{n}) needs {2*t-1} alignment conditions but only "
                f"{deg_m} free node coefficients; no rational seed family is implemented"
            )
        seeds = itertools.product(
            combinations(pattern.odd_nodes if odd else pattern.even_nodes, t),
            x0s,
            pattern.signs,
            pattern.pin_fractions if slack > 0 else (Fraction(1),),
        )

        def attempt(seed):
            return _case_i_attempt(m, n, t, odd, deg_m, slack, *seed, target)

    result = _first(itertools.islice(seeds, max(pattern.max_seeds, 0)), attempt)
    if result is not None:
        return result
    if next(seeds, None) is not None:
        raise PatternNotAchieved(f"case-(i) seed budget exhausted for ({m},{n})")
    raise PatternNotAchieved(f"case-(i) seed search failed for ({m},{n})")


def _case_i_attempt(m, n, t, odd, deg_m, slack, ws, x0, sign, pin_frac, target):
    """One seed: prescribed double roots z_1 < ... < z_t from the square
    families, a linear solve for the remaining node polynomial M, then the
    assembly and a full certification."""
    if odd:
        L = _linear(x0) * _linear(1)
        zs = sorted(x0 + (1 - x0) * w for w in ws)
    else:
        L = _linear(1)
        zs = sorted(1 - u for u in ws)
    if len(set(zs)) != t or any(L.eval(z) == 0 for z in zs):
        return None
    # pinned extra roots of M fill the slack, evenly spaced in the slice of
    # (z_t, 1) selected by pin_frac
    z_top = zs[-1]
    pins = [
        z_top + (1 - z_top) * pin_frac * Fraction(j + 1, slack + 1)
        for j in range(slack)
    ]
    Mpin = Poly.from_roots(pins)
    free = deg_m - slack  # = 2t - 1
    Mfree = _solve_alignment(L, Mpin, zs, sign, free)
    if Mfree is None:
        return None
    M = Mpin * Mfree
    if any(M.eval(z) == 0 for z in zs):
        return None
    result = _case_i_assemble(m, n, L, M, Poly.from_roots(zs),
                              -(L * M * M).eval(zs[0]), target)
    if result is not None:
        result.parameters.update({
            "t": t, "x0": x0, "z": [str(z) for z in zs], "sign": sign,
            "pins": [str(p) for p in pins],
        })
    return result


def _solve_alignment(L, Mpin, zs, sign, free) -> Optional[Poly]:
    """Monic Mfree of degree `free` such that M = Mpin*Mfree satisfies
    K(z_i) = 0 where K = L'M + 2LM'  (so each z_i is critical for L*M^2)
    and M(z_i) = sign*rho_i*M(z_t) with rho_i = sqrt(L(z_t)/L(z_i))
    (so the critical values of L*M^2 at the z_i all coincide).

    Both are linear in M: a row holds the condition's values on the basis
    Mpin*x^j, the last (the monic top) moved to the right, and the seed
    families make every rho_i rational, so the t + (t-1) = free rows, each
    scaled to integers, are one `rref`.  None on a singular or inconsistent
    system or an irrational rho."""
    basis = [Mpin.shift_up(j) for j in range(free + 1)]
    derivs = [B.derivative() for B in basis]
    Lp = L.derivative()
    rows = []
    for z in zs:  # K(z) = 0
        a, b = Lp.eval(z), 2 * L.eval(z)
        rows.append([a * B.eval(z) + b * dB.eval(z) for B, dB in zip(basis, derivs)])
    z_t = zs[-1]
    for z in zs[:-1]:  # value alignment
        rho = _sqrt_fraction(L.eval(z_t) / L.eval(z))
        if rho is None:
            return None
        rows.append([B.eval(z) - sign * rho * B.eval(z_t) for B in basis])
    int_rows = []
    for row in rows:
        row = row[:-1] + [-row[-1]]
        den = math.lcm(*[v.denominator for v in row])
        int_rows.append([v.numerator * (den // v.denominator) for v in row])
    a, pivots = rref(int_rows)
    if pivots != list(range(free)):
        return None
    return Poly([Fraction(row[free], row[r]) for r, row in enumerate(a)] + [Fraction(1)])


def _case_i_assemble(m, n, L, M, W, c, target):
    """P = L*M*W*S, Q = L^3*M^4*S with S = (L*M^2 + c) / W^2."""
    if c <= 0:
        return None
    Q1 = L * M * M
    P1 = Q1 + Poly([c])
    if W.degree >= 1:
        try:
            S = P1.exact_div(W * W)
        except ValueError:
            return None
    else:
        S = P1
    # S must be squarefree with all roots real, and coprime to L, M, W
    if S.degree < 1:
        return None
    if not all_roots_real_simple(S):
        return None
    for other in (L, M, W):
        if other.degree >= 1 and poly_gcd(S, other).degree >= 1:
            return None
    P = L * M * W * S
    Q = L ** 3 * M ** 4 * S
    return _try_certify(P, Q, (m, n), target)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def construct(
    m: int,
    n: int,
    s_cap: int = DEFAULT_S_CAP,
    pattern: Optional[CaseIPattern] = None,
) -> ConstructionResult:
    """Build a type-(m, n) system realizing the known lower bound."""
    if m < 2:
        raise ValueError("no hyperelliptic limit cycles exist for m < 2")
    if n >= 2 * m + 1:
        return construct_high_n(m, n, s_cap)
    if n == 2 * m:
        return construct_n_2m(m, s_cap)
    band_hi = (4 * m + 2) // 3
    if m + 2 <= n <= band_hi:
        return construct_case_i(m, n, pattern=pattern)
    if band_hi + 1 <= n <= 2 * m - 1:
        return construct_case_ii(m, n, s_cap)
    raise ValueError(f"type ({m},{n}) admits no hyperelliptic limit cycles")
