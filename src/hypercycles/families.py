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
  rational by square-ratio seed families), then verify the full root ladder
  exactly.  t = 0 keeps the plain halving search on c.
* the band floor((4m+2)/3)+1 <= n <= 2m-1 ("case ii"): polynomial
  perturbations c(x) built by the two inductive lemmas below, then either a
  direct assembly or a reduction to (m-1, n-2) followed by `lift`.

`lift` multiplies P by (x-s) and Q by (x-s)^2, pushing the type from (m, n)
to (m+1, n+2) while preserving certified cycles for large s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .lienard import (
    CertificationReport,
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    certify,
)
from .polyx import ONE, Poly, X, poly_gcd
from .rootclass import all_roots_real_simple, isolate_real_roots, sign_on_interval

DEFAULT_S_CAP = 2**60


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


def _prod_linear(roots: Sequence) -> Poly:
    p = ONE
    for r in roots:
        p = p * _linear(r)
    return p


def _interval_is(verdict_pair, a: Fraction, b: Fraction) -> bool:
    s1, s2 = verdict_pair
    return s1.equals_rational(a) and s2.equals_rational(b)


# ---------------------------------------------------------------------------
# n >= 2m+1  (case iii) and n = 2m
# ---------------------------------------------------------------------------


def construct_high_n(m: int, n: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    """P = prod(x-i)(x+s), Q = -s prod(x-i)(x+s)^{n-m+1}; smallest certified
    s from the doubling schedule wins.  Yields floor(m/2) cycles on
    [2i-1, 2i] (m even) or [2i, 2i+1] (m odd)."""
    if m < 2 or n < 2 * m + 1:
        raise ValueError("construct_high_n needs m >= 2 and n >= 2m+1")
    R = _prod_linear(range(1, m + 1))
    target = m // 2
    expected = _expected_pairs(m, odd_uses_even_starts=True)
    s = m + 1
    while s <= s_cap:
        P = R * Poly([s, 1])
        Q = (R * Poly([s, 1]) ** (n - m + 1)).scale(-s)
        result = _try_certify(P, Q, (m, n), target, expected)
        if result is not None:
            result.parameters = {"s": s}
            return result
        s *= 2
    raise SearchExhausted(f"no s up to {s_cap} certifies type ({m},{n})")


def construct_n_2m(m: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    """P = prod(x-i)(x+s), Q = prod(x-i)(x+s)^{m+2}: floor((2m-1)/4) cycles.
    Stated for m >= 4; m = 3 is accepted with a warning note."""
    if m < 3:
        raise ValueError("construct_n_2m needs m >= 3")
    R = _prod_linear(range(1, m + 1))
    target = (2 * m - 1) // 4
    expected = _expected_pairs(m, odd_uses_even_starts=False)
    s = m + 1
    while s <= s_cap:
        P = R * Poly([s, 1])
        Q = R * Poly([s, 1]) ** (m + 2)
        result = _try_certify(P, Q, (m, 2 * m), target, expected)
        if result is not None:
            result.parameters = {"s": s}
            if m == 3:
                result.parameters["warning"] = "m = 3 is below the stated m >= 4 range"
            return result
        s *= 2
    raise SearchExhausted(f"no s up to {s_cap} certifies type ({m},{2 * m})")


def _expected_pairs(m: int, odd_uses_even_starts: bool) -> list[tuple[int, int]]:
    """Integer cycle intervals: which adjacent root pairs carry the cycles.

    For Q containing the factor -s (case iii) the positive-Q parity flips
    relative to the n = 2m family, which is what the flag encodes."""
    if m % 2 == (0 if odd_uses_even_starts else 1):
        starts = range(1, m, 2)
    else:
        starts = range(2, m, 2)
    return [(i, i + 1) for i in starts]


def _try_certify(P, Q, mn, target, expected_pairs=None) -> Optional[ConstructionResult]:
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
        for pair, (a, b) in zip(certified, expected_pairs):
            if not _interval_is(pair, Fraction(a), Fraction(b)):
                return None
    if not report.bound_consistent:
        raise AssertionError(
            f"certified count exceeds the proven upper bound for {mn}")
    return ConstructionResult(curve=curve, system=report.system, report=report)


# ---------------------------------------------------------------------------
# lift: (m, n) -> (m+1, n+2)
# ---------------------------------------------------------------------------


def lift(
    curve: HyperellipticCurve,
    s: Optional[Fraction] = None,
    s_cap: int = DEFAULT_S_CAP,
) -> ConstructionResult:
    """P -> P*(x-s), Q -> Q*(x-s)^2 with s above every root of Q, doubling
    until the lifted curve certifies at least as many cycles as the base."""
    base = certify(curve)
    t = base.certified_count
    if t < 1:
        raise ValueError("lift needs a curve certifying at least one cycle")
    start = s if s is not None else _next_integer_above_roots(curve.Q)
    sv = Fraction(start)
    while sv <= s_cap:
        lifted = HyperellipticCurve(
            P=curve.P * Poly([-sv, 1]),
            Q=curve.Q * Poly([-sv, 1]) ** 2,
        )
        try:
            report = certify(lifted)
        except NonPolynomialSystem:
            report = None
        if report is not None and report.certified_count >= t:
            if (report.system.m, report.system.n) != (base.system.m + 1, base.system.n + 2):
                report = None
            else:
                return ConstructionResult(
                    curve=lifted,
                    system=report.system,
                    report=report,
                    parameters={"s": sv, "base_type": base.system.type},
                )
        if s is not None:
            break  # caller pinned s; no search
        sv *= 2
    raise SearchExhausted("no lift parameter s certified the lifted curve")


def _next_integer_above_roots(q: Poly) -> int:
    roots = isolate_real_roots(q)
    if not roots:
        return 1
    top = roots[-1].hi
    return max(1, math.floor(top) + 1)


# ---------------------------------------------------------------------------
# inductive polynomial perturbations (the two ladder lemmas)
# ---------------------------------------------------------------------------


def _halving(start: Fraction, steps: int):
    v = Fraction(start)
    for _ in range(steps):
        yield v
        v /= 2


def _find_b(after_d, make_c, slots, pos_interval, hi0: Fraction, steps: int = 60):
    """Search the additive constant b of the inductive perturbations.

    The admissible set is a window: below it the perturbation polynomial
    fails positivity, above it the root ladder collapses, so plain halving
    can step over it.  Bisect using which side failed as the direction."""

    def ladder_ok(b):
        cand = after_d + Poly([b])
        roots = _all_simple_real_roots(cand)
        return cand, roots is not None and _roots_fit_slots(roots, slots)

    def pos_ok(b):
        c = make_c(b)
        lo, hi = pos_interval
        return (
            sign_on_interval(c, lo, hi) == "positive"
            and c.eval(lo) > 0
            and c.eval(hi) > 0
        )

    lo = Fraction(0)
    hi = Fraction(hi0)
    grew = False
    for _ in range(steps):
        cand, lok = ladder_ok(hi)
        if lok and pos_ok(hi):
            return make_c(hi), cand
        if lok:
            lo, hi = hi, hi * 2  # ladder fine, positivity short: b too small
            grew = True
            continue
        break
    else:
        return None
    for _ in range(steps):
        mid = (lo + hi) / 2
        cand, lok = ladder_ok(mid)
        if lok and pos_ok(mid):
            return make_c(mid), cand
        if lok:
            lo = mid
        else:
            hi = mid
    return None


def _all_simple_real_roots(p: Poly) -> Optional[list]:
    if not all_roots_real_simple(p):
        return None
    return isolate_real_roots(p)


def _roots_fit_slots(roots, slots) -> bool:
    """slots: list of (lo, hi) open rational bounds, one per sorted root;
    None means unconstrained on that side.  Roots landing exactly on a bound
    fail the (strict) slot."""
    if len(roots) != len(slots):
        return False
    for r, (lo, hi) in zip(roots, slots):
        for bound in (lo, hi):
            if (
                bound is not None
                and not r.is_exact()
                and r.lo < bound < r.hi
                and r.poly.eval(bound) == 0
            ):
                r.lo = r.hi = bound  # the unique root in the interval is the bound
        if lo is not None:
            if r.is_exact():
                if not r.value > lo:
                    return False
            else:
                while r.lo < lo < r.hi:
                    r.refine()
                if not r.lo >= lo:
                    return False
        if hi is not None:
            if r.is_exact():
                if not r.value < hi:
                    return False
            else:
                while r.lo < hi < r.hi:
                    r.refine()
                if not r.hi <= hi:
                    return False
    return True


def _lemma7_slots(h: int, l: int, s) -> list:
    # 0 < x_1 < ... < x_{2h+1} < y_1, with y_1 < 1 only when the chain
    # continues (l >= 1); then z_i, y_{i+1} pairs above 1, y_{l+1} < s
    head_hi = Fraction(1) if l >= 1 else Fraction(s)
    slots = [(Fraction(0), head_hi)] * (2 * h + 2)
    for _ in range(1, l + 1):
        slots.append((Fraction(1), Fraction(s)))  # z_i
        slots.append((Fraction(1), Fraction(s)))  # y_{i+1}
    return slots


def _lemma8_slots(h: int, l: int, s1, s2) -> list:
    head_hi = Fraction(1) if l >= 1 else Fraction(s2)
    slots = [(Fraction(s1), Fraction(0))]            # z_{-1}
    slots += [(Fraction(s1), Fraction(0))]           # x_1 < 0
    slots += [(Fraction(0), head_hi)] * (2 * h - 1)  # x_2..x_{2h}
    slots += [(Fraction(0), head_hi)]                # y_1
    for _ in range(1, l + 1):
        slots.append((Fraction(1), Fraction(s2)))    # z_i
        slots.append((Fraction(1), Fraction(s2)))    # y_{i+1}
    return slots



def _search_d_then_b(A, cstar, gate, slots, pos_interval, start, budget):
    """The -dx stage: halve d until the split-at-zero gate passes, then run
    the b window search per d.  Repeated empty b-windows mean the scales the
    induction cascaded into lie far below the current d (the positivity
    floor falls linearly with d while the ladder ceiling stays put), so the
    shrink factor accelerates after a few dense misses."""
    d = Fraction(start)
    shrink = Fraction(1, 2)
    misses = 0
    for _ in range(budget):
        after_d = A - X.scale(d)
        if gate(after_d):
            def make_c(b, _d=d):
                return cstar.shift_up(2) - X.scale(_d) + Poly([b])

            found = _find_b(after_d, make_c, slots, pos_interval, d, steps=48)
            if found is not None:
                return found
            misses += 1
            if misses >= 6:
                shrink = Fraction(1, 256)
        d *= shrink
    return None


def perturb_lemma7(
    h: int,
    l: int,
    s,
    scale: Fraction = Fraction(1, 2),
    steps: int = 48,
) -> tuple[Poly, Poly]:
    """A degree-2h polynomial c(x) > 0 on [0, s] such that Q1 + c, with
    Q1 = (x-s) x^{2h+1} prod_{i<=l} (x-i)^2, has 2h+2l+2 simple real roots
    in the ladder 0 < x_1 < ... < x_{2h+1} < y_1 < 1 < z_1 < ... < y_{l+1} < s.

    Base case h = 0 searches a constant; the inductive step perturbs the
    h-1 solution of Q1/x^2 by x^2*c* - d*x + b with halving searches for d
    then b, exactly re-checking the ladder at each stage."""
    s = Fraction(s)
    if s <= l + 1:
        raise ValueError("need s > l + 1")
    if h < 0 or l < 0:
        raise ValueError("h, l must be nonnegative")
    Q1 = Poly([-s, 1]) * X ** (2 * h + 1) * _prod_linear(range(1, l + 1)) ** 2
    slots = _lemma7_slots(h, l, s)

    if h == 0:
        for eps in _halving(scale, steps):
            cand = Q1 + Poly([eps])
            roots = _all_simple_real_roots(cand)
            if roots is not None and _roots_fit_slots(roots, slots):
                return Poly([eps]), cand
        raise SearchExhausted("lemma-7 base case: no eps up to the budget")

    for attempt in range(6):
        inner_scale = scale / 4**attempt
        try:
            cstar, _ = perturb_lemma7(h - 1, l, s, scale=inner_scale, steps=steps)
        except SearchExhausted:
            continue
        A = Q1 + cstar.shift_up(2)  # Q1 + x^2 c*(x)

        def gate(poly):
            return _lemma7_after_d_ok(poly, h, l, s)

        found = _search_d_then_b(A, cstar, gate, slots, (Fraction(0), s),
                                 inner_scale, steps + 30 * h)
        if found is not None:
            return found
    raise SearchExhausted("lemma-7 induction: no (c*, d, b) up to the budget")


def _lemma7_after_d_ok(p: Poly, h: int, l: int, s: Fraction) -> bool:
    """After the -dx perturbation 0 must be an exact simple root and all the
    remaining roots real and simple; the final ladder is checked only after
    the +b stage, so this gate stays minimal."""
    if p.eval(0) != 0:
        return False
    deflated = p.exact_div(X)
    if deflated.eval(0) == 0:
        return False
    return _all_simple_real_roots(deflated) is not None


def perturb_lemma8(
    h: int,
    l: int,
    s1,
    s2,
    scale: Fraction = Fraction(1, 2),
    steps: int = 48,
) -> tuple[Poly, Poly]:
    """Analog of perturb_lemma7 for Q1 = (x-s1)(x-s2) x^{2h} prod (x-i)^2
    with s1 < -1 < 1 < l+1 < s2: returns degree-(2h-1) c(x) positive on
    [s1, s2] with the ladder s1 < z_{-1} < x_1 < 0 < x_2 < ... < y_{l+1} < s2."""
    s1, s2 = Fraction(s1), Fraction(s2)
    if h < 1:
        raise ValueError("lemma 8 needs h >= 1")
    if not (s1 < -1 and s2 > l + 1):
        raise ValueError("need s1 < -1 and s2 > l + 1")
    Q1 = Poly([-s1, 1]) * Poly([-s2, 1]) * X ** (2 * h) * _prod_linear(range(1, l + 1)) ** 2
    slots = _lemma8_slots(h, l, s1, s2)

    if h == 1:
        # c = eps * (x - s1 + 1): linear, positive on [s1, s2]
        for eps in _halving(scale, steps):
            c = Poly([eps * (1 - s1), eps])
            cand = Q1 + c
            roots = _all_simple_real_roots(cand)
            if roots is not None and _roots_fit_slots(roots, slots):
                if sign_on_interval(c, s1, s2) == "positive":
                    return c, cand
        raise SearchExhausted("lemma-8 base case: no eps up to the budget")

    for attempt in range(6):
        inner_scale = scale / 4**attempt
        try:
            cstar, _ = perturb_lemma8(h - 1, l, s1, s2, scale=inner_scale, steps=steps)
        except SearchExhausted:
            continue
        A = Q1 + cstar.shift_up(2)

        def gate(poly):
            if poly.eval(0) != 0:
                return False
            deflated = poly.exact_div(X)
            return deflated.eval(0) != 0 and _all_simple_real_roots(deflated) is not None

        found = _search_d_then_b(A, cstar, gate, slots, (s1, s2),
                                 inner_scale, steps + 30 * h)
        if found is not None:
            return found
    raise SearchExhausted("lemma-8 induction: no (c*, d, b) up to the budget")


# ---------------------------------------------------------------------------
# case (ii):  floor((4m+2)/3)+1 <= n <= 2m-1
# ---------------------------------------------------------------------------


def construct_case_ii(m: int, n: int, s_cap: int = DEFAULT_S_CAP) -> ConstructionResult:
    band_lo = (4 * m + 2) // 3 + 1
    if not band_lo <= n <= 2 * m - 1:
        raise ValueError(f"({m},{n}) outside the case-(ii) band")
    if (m, n) in ((3, 5), (2, 4)):
        raise ValueError(f"type {(m, n)} has no hyperelliptic limit cycles")
    r = (n - 1) % 4
    if r == 0:
        return _case_ii_i(m, n)
    if r == 1:
        return _case_ii_ii(m, n, s_cap)
    # r in (2, 3): reduce to (m-1, n-2), then lift
    try:
        sub = construct(m - 1, n - 2, s_cap=s_cap)
    except ValueError as exc:
        # the reduction can land on an excluded zero cell, e.g. (4,7) -> (3,5)
        raise PatternNotAchieved(
            f"reduction of ({m},{n}) lands on the excluded type "
            f"({m-1},{n-2}): {exc}") from exc
    result = lift(sub.curve, s_cap=s_cap)
    result.parameters["reduced_from"] = (m - 1, n - 2)
    target = (n - 1) // 4
    if result.report.certified_count != target:
        raise SearchExhausted(
            f"lift of ({m-1},{n-2}) gave {result.report.certified_count} cycles, "
            f"wanted {target}")
    return result


def _case_ii_i(m: int, n: int) -> ConstructionResult:
    t = (n - 1) // 4
    h = 3 * t - m
    l = m - 2 * t - 1
    sigma = 2 * m - 2 * t
    assert h >= 0 and l >= 0
    scale = Fraction(1, 2)
    for attempt in range(8):
        try:
            c, P1 = perturb_lemma7(h, l, sigma, scale=scale)
        except SearchExhausted:
            scale /= 8
            continue
        D = _prod_linear(range(0, l + 1))  # includes the factor x
        P = P1 * D * _linear(sigma)
        Q1 = Poly([-Fraction(sigma), 1]) * X ** (6 * t - 2 * m + 1) * _prod_linear(
            range(1, l + 1)) ** 2
        Q = Q1 * P1 * D**2 * _linear(sigma) ** 2
        result = _try_certify(P, Q, (m, n), t)
        if result is not None:
            result.parameters = {"t": t, "h": h, "l": l, "sigma": sigma,
                                 "c": [str(v) for v in c.coeffs]}
            return result
        # condition (iv) can fail for unlucky c; retry with fresh, smaller c
        scale /= 8
    raise SearchExhausted(f"case (ii-i) search failed for ({m},{n})")


def _case_ii_ii(m: int, n: int, s_cap: int) -> ConstructionResult:
    t = (n - 2) // 4
    h = 3 * t - m + 1
    l = m - 2 * t - 2
    assert h >= 1 and l >= 0
    s = l + 2
    while s <= s_cap:
        scale = Fraction(1, 2)
        for attempt in range(4):
            try:
                c, P1 = perturb_lemma8(h, l, -2, s, scale=scale)
            except SearchExhausted:
                scale /= 8
                continue
            D = _prod_linear(range(0, l + 1))
            pref = Poly([2, 1]) * Poly([-Fraction(s), 1])  # (x+2)(x-s)
            P = P1 * D * pref
            Q1 = pref * X ** (6 * t - 2 * m + 2) * _prod_linear(range(1, l + 1)) ** 2
            Q = Q1 * P1 * D**2 * pref**2
            result = _try_certify(P, Q, (m, n), t)
            if result is not None:
                result.parameters = {"t": t, "h": h, "l": l, "s": s,
                                     "c": [str(v) for v in c.coeffs]}
                return result
            scale /= 8
        s *= 2
    raise SearchExhausted(f"case (ii-ii) search failed for ({m},{n})")


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
    s_cap: int = DEFAULT_S_CAP,
) -> ConstructionResult:
    band_hi = (4 * m + 2) // 3
    if not m + 2 <= n <= band_hi:
        raise ValueError(f"({m},{n}) outside the case-(i) band")
    pattern = pattern or CaseIPattern()
    odd = n % 2 == 1
    t2 = 4 * m - 3 * n + (3 if odd else 2)
    if t2 % 2 or t2 < 0:
        raise PatternNotAchieved(f"no valid double-root count t for ({m},{n})")
    return _case_i_solve(m, n, t2 // 2, odd=odd, pattern=pattern)


def _case_i_solve(m, n, t, odd, pattern) -> ConstructionResult:
    target = n - m - 1
    deg_m = t + (n - m - 2 if odd else n - m - 1)
    if t == 0:
        return _case_i_t0(m, n, odd, deg_m, pattern, target)
    slack = deg_m - (2 * t - 1)
    if slack < 0:
        raise PatternNotAchieved(
            f"case-(i) cell ({m},{n}) needs {2*t-1} alignment conditions but only "
            f"{deg_m} free node coefficients; no rational seed family is implemented"
        )
    nodes = pattern.odd_nodes if odd else pattern.even_nodes
    pin_fracs = pattern.pin_fractions if slack > 0 else (Fraction(1),)
    tried = 0
    for ws in combinations(nodes, t):
        for x0 in (pattern.x0_candidates if odd else (None,)):
            for sign in pattern.signs:
                for frac in pin_fracs:
                    tried += 1
                    if tried > pattern.max_seeds:
                        raise PatternNotAchieved(
                            f"case-(i) seed budget exhausted for ({m},{n})")
                    result = _case_i_attempt(
                        m, n, t, odd, deg_m, slack, x0, ws, sign, frac, target)
                    if result is not None:
                        return result
    raise PatternNotAchieved(f"case-(i) seed search failed for ({m},{n})")


def _case_i_t0(m, n, odd, deg_m, pattern, target) -> ConstructionResult:
    # free nodes: M's roots, equally spaced inside (0, 1)
    nodes = [Fraction(i, deg_m + 1) for i in range(1, deg_m + 1)]
    M = _prod_linear(nodes)
    for x0 in (pattern.x0_candidates if odd else (None,)):
        L = _linear(x0) * _linear(1) if odd else _linear(1)
        result = _case_i_search_c(m, n, L, M, target, pattern.halving_steps)
        if result is not None:
            result.parameters.update(
                {"x0": x0, "nodes": [str(v) for v in nodes], "t": 0})
            return result
    raise PatternNotAchieved(f"case-(i) t=0 search failed for ({m},{n})")


def _case_i_attempt(m, n, t, odd, deg_m, slack, x0, ws, sign, pin_frac, target):
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
    Mpin = _prod_linear(pins)
    free = deg_m - slack  # = 2t - 1
    Mfree = _solve_alignment(L, Mpin, zs, sign, free)
    if Mfree is None:
        return None
    M = Mpin * Mfree
    if any(M.eval(z) == 0 for z in zs):
        return None
    result = _case_i_assemble(m, n, L, M, _prod_linear(zs),
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

    The seed families make every rho_i rational, so this is one rational
    linear solve.  Returns None on a singular system or irrational rho."""
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    Lp = L.derivative()
    Mp = Mpin
    Mpd = Mpin.derivative()

    def m_of(z, j):
        # value of d/dc_j [M](z) for Mfree coefficient c_j of x^j
        return Mp.eval(z) * z**j

    def dm_of(z, j):
        v = Mpd.eval(z) * z**j
        if j >= 1:
            v += Mp.eval(z) * j * z ** (j - 1)
        return v

    for z in zs:  # K(z) = 0
        a, b = Lp.eval(z), 2 * L.eval(z)
        rows.append([a * m_of(z, j) + b * dm_of(z, j) for j in range(free)])
        rhs.append(-(a * m_of(z, free) + b * dm_of(z, free)))
    z_t = zs[-1]
    for z in zs[:-1]:  # value alignment
        rho = _sqrt_fraction(L.eval(z_t) / L.eval(z))
        if rho is None:
            return None
        rows.append([m_of(z, j) - sign * rho * m_of(z_t, j) for j in range(free)])
        rhs.append(-(m_of(z, free) - sign * rho * m_of(z_t, free)))
    coeffs = _solve_linear(rows, rhs)
    if coeffs is None:
        return None
    return Poly(coeffs + [Fraction(1)])


def _solve_linear(rows, rhs) -> Optional[list[Fraction]]:
    n = len(rhs)
    if n == 0:
        return []
    if any(len(r) != n for r in rows):
        return None
    a = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _case_i_search_c(m, n, L, M, target, halving: int):
    """t = 0: the perturbation constant only needs to be small; halve until
    the assembled curve certifies."""
    for c in _halving(Fraction(1), halving):
        cand = _case_i_assemble(m, n, L, M, ONE, c, target)
        if cand is not None:
            cand.parameters["c"] = c
            return cand
    return None


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
        return construct_case_i(m, n, pattern=pattern, s_cap=s_cap)
    if band_hi + 1 <= n <= 2 * m - 1:
        return construct_case_ii(m, n, s_cap)
    raise ValueError(f"type ({m},{n}) admits no hyperelliptic limit cycles")
