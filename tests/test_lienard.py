import copy
import random
from fractions import Fraction

import pytest

from hypercycles import families, lienard, rootclass
from hypercycles.lienard import (
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    bounds,
    certify,
    cofactor,
    derive_system,
    invariance_check,
    invariance_residual,
)
from hypercycles.polyx import ONE, Poly, X, parse_poly, squarefree_part
from hypercycles.rootclass import RealRoot


def P(*coeffs):
    return Poly(coeffs)


def worked_25_curve():
    """P = (x-1)(x-2)(x+10), Q = -10 (x-1)(x-2)(x+10)^4."""
    R = parse_poly("(x-1)(x-2)")
    Pp = R * parse_poly("x+10")
    Q = (R * parse_poly("(x+10)^4")).scale(-10)
    return HyperellipticCurve(P=Pp, Q=Q)


def test_derive_worked_25():
    curve = worked_25_curve()
    sys = derive_system(curve)
    assert sys.type == (2, 5)
    # f = P' + (R'(x+10) + 4R)/2 with R = (x-1)(x-2)
    R = parse_poly("(x-1)(x-2)")
    expected_f = curve.P.derivative() + (R.derivative() * parse_poly("x+10") + R.scale(4)).scale(
        Fraction(1, 2)
    )
    assert sys.f == expected_f


def test_derive_degenerate_p2_equals_q():
    with pytest.raises(NonPolynomialSystem):
        derive_system(HyperellipticCurve(P=X, Q=X * X))  # g = 0


def test_derive_constant_q():
    with pytest.raises(NonPolynomialSystem):
        derive_system(HyperellipticCurve(P=P(0, 0, 1), Q=P(3)))  # Q' = 0


def test_derive_divisibility_failure():
    with pytest.raises(NonPolynomialSystem):
        derive_system(HyperellipticCurve(P=P(1, 1), Q=P(0, 0, 1, 1)))


def test_cofactor_worked_25():
    curve = worked_25_curve()
    K = cofactor(curve).K
    # K = -P Q'/Q exactly: independently check K*Q == -P*Q'
    assert K * curve.Q == -(curve.P * curve.Q.derivative())
    # closed form: -(R'(x+10) + 4R) with R = (x-1)(x-2)
    R = parse_poly("(x-1)(x-2)")
    assert K == -(R.derivative() * parse_poly("x+10") + R.scale(4))
    assert K.degree == 2


def test_cofactor_zero_when_q_prime_zero():
    # Q constant: K = -P*0/Q = 0
    curve = HyperellipticCurve(P=P(0, 1), Q=P(4))
    assert cofactor(curve).K.is_zero()


def test_invariance_worked_25():
    curve = worked_25_curve()
    sys = derive_system(curve)
    assert invariance_check(sys, curve)
    residual = invariance_residual(sys, curve)
    assert residual.is_zero()


def test_invariance_fails_for_perturbed_g():
    curve = worked_25_curve()
    sys = derive_system(curve)
    bad = LienardSystem(f=sys.f, g=sys.g + ONE)
    assert not invariance_check(bad, curve)


def test_certify_worked_25():
    report = certify(worked_25_curve())
    assert report.all_roots_real
    assert report.certified_count == 1
    [win] = [v for v in report.intervals if v.certified]
    assert win.s1.equals_rational(1) and win.s2.equals_rational(2)
    assert win.critical_point_unique
    assert win.gprime_positive_at_alpha is True
    assert report.bound_consistent
    b = report.bounds
    assert (b.lower, b.upper) == (1, None)  # n = 2m+1: no finite upper bound


def test_certify_no_simple_roots():
    # P^2 = Q makes g vanish identically: not a Lienard system at all
    with pytest.raises(NonPolynomialSystem):
        certify(HyperellipticCurve(P=P(0, 0, 1), Q=P(0, 0, 0, 0, 1)))
    # a curve whose Q has only multiple roots: derives fine, zero candidates
    Pp = parse_poly("(x-1)(x-2)(x+6)")
    Q = (parse_poly("(x-1)(x-2)") ** 2 * parse_poly("(x+6)^4")).scale(-6)
    report = certify(HyperellipticCurve(P=Pp, Q=Q))
    assert report.certified_count == 0
    assert report.intervals == []


def test_certify_sign_screen_rejects():
    # same shape as the worked curve but positive leading constant flips Q's
    # sign between the simple roots: no certified cycles
    R = parse_poly("(x-1)(x-2)")
    Pp = R * parse_poly("x+10")
    Q = (R * parse_poly("(x+10)^4")).scale(10)
    report = certify(HyperellipticCurve(P=Pp, Q=Q))
    assert report.certified_count == 0


def test_root_containment_invariant():
    curve = worked_25_curve()
    derive_system(curve)
    # every root of Q is a root of P
    assert curve.P.divrem(squarefree_part(curve.Q))[1].is_zero()


def test_degree_contract():
    curve = worked_25_curve()
    sys = derive_system(curve)
    assert curve.P.degree == sys.m + 1
    assert (curve.P * curve.P - curve.Q).degree == sys.n + 1


# -- bounds -------------------------------------------------------------------


def test_bounds_examples_from_remark():
    b = bounds(3, 8)  # n > 2m+1
    assert (b.lower, b.upper, b.exact) == (1, 1, True)
    b = bounds(4, 7)  # n = 2m-1, m >= 4
    assert (b.lower, b.upper, b.exact) == (1, 1, True)
    b = bounds(10, 13)
    assert (b.lower, b.upper, b.exact) == (2, 3, False)


def test_bounds_zero_region():
    assert bounds(0, 5).upper == 0
    assert bounds(1, 9).upper == 0
    assert bounds(5, 5).upper == 0      # n <= m (genericity note)
    assert "gener" in bounds(5, 5).note
    assert bounds(4, 5).upper == 0      # n = m+1
    assert bounds(2, 4).upper == 0
    assert bounds(3, 5).upper == 0


def test_bounds_n_2m_plus_1_unbounded():
    b = bounds(4, 9)
    assert b.lower == 2 and b.upper is None and not b.exact


def test_bounds_band_1():
    b = bounds(4, 6)
    assert (b.lower, b.upper, b.exact) == (1, 1, True)
    b = bounds(5, 7)
    assert (b.lower, b.upper) == (1, 2)


def test_bounds_survey_gap_cell():
    b = bounds(3, 6)
    assert b.lower == 1 and b.upper is None


def test_bounds_rejects_bad_args():
    with pytest.raises(ValueError):
        bounds(-1, 3)
    with pytest.raises(ValueError):
        bounds(2, 0)


def test_cofactor_degenerate_q_equals_p_squared():
    # Q = P^2: the cofactor division succeeds whenever P | Q', even though
    # the derived system itself is rejected (g vanishes)
    curve = HyperellipticCurve(P=P(0, 0, 1), Q=P(0, 0, 0, 0, 1))
    assert cofactor(curve).K == P(0, -4)
    with pytest.raises(NonPolynomialSystem):
        derive_system(curve)


def _seeded_curve(rng):
    """Q = c * prod (x - a_i)^e_i and P = prod (x - a_i) * T, so sqfree(Q)
    divides P and the cofactor is a polynomial."""
    roots = rng.sample(range(-5, 6), rng.randint(1, 3))
    R = Poly.from_roots(roots)
    Q = R.scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    for a in roots:
        Q = Q * Poly([-a, 1]) ** rng.randint(0, 3)
    T = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(rng.randint(0, 2))] + [1])
    return HyperellipticCurve(P=R * T, Q=Q)


def test_residual_matches_sympy_expansion():
    # the closed-form y-coefficients against a direct expansion of
    # y*F_x - (f*y + g)*F_y - K*F, for derived and perturbed (f, g)
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def sym(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**k
                   for k, c in enumerate(p.coeffs))

    rng = random.Random(2024)
    checked = {"derived": 0, "perturbed": 0}
    while min(checked.values()) < 12:
        curve = _seeded_curve(rng)
        try:
            sys = derive_system(curve)
        except NonPolynomialSystem:
            continue
        bump = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)])
        for kind, s in (("derived", sys), ("perturbed", LienardSystem(
                f=sys.f + bump, g=sys.g + bump.shift_up(sys.g.degree)))):
            F = (y + sym(curve.P)) ** 2 - sym(curve.Q)
            K = sym(cofactor(curve).K)
            expected = sympy.Poly(sympy.expand(
                y * sympy.diff(F, x) - (sym(s.f) * y + sym(s.g)) * sympy.diff(F, y)
                - K * F), y, x)
            residual = invariance_residual(s, curve)
            got = sympy.Poly(sum(sym(c) * y**j for j, c in enumerate(residual.ycoeffs)),
                             y, x)
            assert got == expected
            assert residual.is_zero() == (kind == "derived")
            checked[kind] += 1



def _seeded_cancelling_curve(rng):
    """P = R (s x + t) and Q = s^2 R^2 (x - a)^2 with a a root of R: P^2 and
    Q share their leading coefficient, so deg(P^2 - Q) drops below 2 deg P."""
    roots = rng.sample(range(-5, 6), rng.randint(1, 3))
    R = Poly.from_roots(roots)
    s = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
    t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    Q = (R * Poly([-rng.choice(roots), 1])) ** 2 * (s * s)
    return HyperellipticCurve(P=R * Poly([t, s]), Q=Q)


def test_every_derived_system_has_deg_p_m_plus_1_and_deg_h_n_plus_1():
    # once both divisions are exact, lc(f) = (deg P + deg Q/2) lc(P) != 0 and
    # deg g = deg(P^2 - Q) - 1, so the type (m, n) is read off P and P^2 - Q
    rng = random.Random(2026)
    derived = {_seeded_curve: 0, _seeded_cancelling_curve: 0}
    while min(derived.values()) < 40:
        for draw in derived:
            curve = draw(rng)
            try:
                sys = derive_system(curve)
            except NonPolynomialSystem:
                continue
            assert curve.P.degree == sys.m + 1
            assert (curve.P * curve.P - curve.Q).degree == sys.n + 1
            derived[draw] += 1


@pytest.mark.parametrize("mn", [(10, 22), (9, 16)])
def test_certify_isolates_q_and_q_prime_once(monkeypatch, mn):
    # Q' is isolated once per certify, however many intervals certify, and
    # every interval locates its critical point among copies of those roots
    isolated, certified = [], []
    isolate, certify_ = lienard.isolate_real_roots, families.certify
    monkeypatch.setattr(lienard, "isolate_real_roots",
                        lambda p: isolated.append(p) or isolate(p))
    monkeypatch.setattr(families, "certify",
                        lambda curve: certified.append(curve) or certify_(curve))
    out = families.construct(*mn)
    assert out.report.certified_count >= 3
    assert certified and len(isolated) <= 2 * len(certified)
    isolated.clear()
    report = certify(out.curve)
    assert isolated == [out.curve.Q, out.curve.Q.derivative()]
    assert [(v.s1.lo, v.s1.hi, v.s2.lo, v.s2.hi, v.certified) for v in report.intervals] == [
        (v.s1.lo, v.s1.hi, v.s2.lo, v.s2.hi, v.certified) for v in out.report.intervals]


def test_count_strictly_between_two_exact_roots_builds_at_most_one_chain():
    # w vanishes at both endpoints (twice at 1), at 2 and at sqrt(5) between
    # them, and at -4 and nowhere else on the real line
    w = P(-1, 1) ** 2 * P(-3, 1) * P(-2, 1) * P(-5, 0, 1) * P(1, 0, 1) * P(4, 1)
    r1 = RealRoot(poly=P(-1, 1), lo=Fraction(1), hi=Fraction(1))
    r2 = RealRoot(poly=P(-3, 1), lo=Fraction(3), hi=Fraction(3))
    before = (copy.copy(r1), copy.copy(r2))
    rootclass._sturm_chain_int.cache_clear()
    assert lienard._count_strictly_between(w, r1, r2) == 2
    assert rootclass._sturm_chain_int.cache_info().misses <= 1
    assert (r1, r2) == before
    # the same roots held in open brackets take the refining route
    s1 = RealRoot(poly=P(-1, 1), lo=Fraction(2, 3), hi=Fraction(6, 5))
    s2 = RealRoot(poly=P(-3, 1), lo=Fraction(8, 3), hi=Fraction(16, 5))
    assert lienard._count_strictly_between(w, s1, s2) == 2
