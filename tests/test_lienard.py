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
    derive_system,
    invariance_check,
    invariance_residual,
)
from hypercycles.polyx import (ONE, Poly, X, int_coeffs, int_derivative, int_mul, parse_poly,
                              poly_gcd, squarefree_part)
from hypercycles.rootclass import RealRoot, SturmChain, isolate_real_roots
from test_rootclass import ref_separate_from, root_between, root_key


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
    K = curve.K
    # K = -P Q'/Q exactly: independently check K*Q == -P*Q'
    assert K * curve.Q == -(curve.P * curve.Q.derivative())
    # closed form: -(R'(x+10) + 4R) with R = (x-1)(x-2)
    R = parse_poly("(x-1)(x-2)")
    assert K == -(R.derivative() * parse_poly("x+10") + R.scale(4))
    assert K.degree == 2


def test_cofactor_zero_when_q_prime_zero():
    # Q constant: K = -P*0/Q = 0
    curve = HyperellipticCurve(P=P(0, 1), Q=P(4))
    assert curve.K.is_zero()


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
    assert curve.K == P(0, -4)
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
            K = sym(curve.K)
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
    # once K is exact, lc(f) = (deg P + deg Q/2) lc(P) != 0 and, since
    # g = -(PK + Q')/2 solves 2Qg = Q'(P^2 - Q), deg g = deg(P^2 - Q) - 1,
    # so the type (m, n) is read off P and P^2 - Q
    rng = random.Random(2026)
    derived = {_seeded_curve: 0, _seeded_cancelling_curve: 0}
    while min(derived.values()) < 40:
        for draw in derived:
            curve = draw(rng)
            try:
                sys = derive_system(curve)
            except NonPolynomialSystem:
                continue
            assert sys.g.scale(2) * curve.Q == curve.Q.derivative() * curve.H
            assert curve.P.degree == sys.m + 1
            assert (curve.P * curve.P - curve.Q).degree == sys.n + 1
            derived[draw] += 1


@pytest.mark.parametrize("mn", [(10, 22), (9, 16)])
def test_certify_isolates_q_once(monkeypatch, mn):
    # Q is the one polynomial certify isolates, however many intervals
    # certify: Rolle places the critical point, so Q' is never isolated
    isolated, certified = [], []
    isolate, certify_ = lienard.isolate_real_roots, families.certify
    monkeypatch.setattr(lienard, "isolate_real_roots",
                        lambda p: isolated.append(p) or isolate(p))
    monkeypatch.setattr(families, "certify",
                        lambda curve: certified.append(curve) or certify_(curve))
    out = families.construct(*mn)
    assert out.report.certified_count >= 3
    assert isolated == [curve.Q for curve in certified]
    isolated.clear()
    report = certify(out.curve)
    assert isolated == [out.curve.Q]
    assert [(v.s1.canonical(), v.s2.canonical(), v.certified) for v in report.intervals] == [
        (v.s1.canonical(), v.s2.canonical(), v.certified) for v in out.report.intervals]


def test_count_strictly_between_two_exact_roots_builds_at_most_one_chain():
    # w vanishes at 2 and at sqrt(5) between the endpoints 1 and 3, and at
    # -4 and nowhere else on the real line
    w = P(-2, 1) * P(-5, 0, 1) * P(1, 0, 1) * P(4, 1)
    r1 = root_between(P(-1, 1), Fraction(1), Fraction(1))
    r2 = root_between(P(-3, 1), Fraction(3), Fraction(3))
    before = (copy.copy(r1), copy.copy(r2))
    rootclass._sturm_chain_int.cache_clear()
    assert lienard._count_strictly_between(w, r1, r2) == 2
    assert rootclass._sturm_chain_int.cache_info().misses <= 1
    assert [root_key(r) for r in (r1, r2)] == [root_key(r) for r in before]
    # the same roots held in open brackets take the refining route
    s1 = root_between(P(-1, 1), Fraction(2, 3), Fraction(6, 5))
    s2 = root_between(P(-3, 1), Fraction(8, 3), Fraction(16, 5))
    assert lienard._count_strictly_between(w, s1, s2) == 2


def test_certify_counts_only_what_is_coprime_to_q(monkeypatch):
    # Q | PQ' puts every root of Q in H, so certify counts on H with Q's
    # roots divided out and never builds the chain of H itself
    curve = families.construct(10, 18).curve
    chains, counted = [], []
    chain_of, count = rootclass._sturm_chain_int, lienard._count_strictly_between
    monkeypatch.setattr(rootclass, "_sturm_chain_int",
                        lambda p: chains.append(p) or chain_of(p))
    monkeypatch.setattr(lienard, "_count_strictly_between",
                        lambda w, r1, r2: counted.append(w) or count(w, r1, r2))
    assert certify(curve).certified_count == 4
    assert curve.H not in chains
    assert counted and all(poly_gcd(w, curve.Q).degree == 0 for w in counted)


def test_dividing_q_out_of_h_takes_two_passes_at_a_double_root():
    # H = P^2 - Q vanishes to order 3 at 0, the double root of Q: after one
    # division by gcd(H, Q) = Q the quotient still vanishes at 0
    curve = HyperellipticCurve(P=parse_poly("1/24x(x-1)(x-2)(x-3)(x-4)"),
                               Q=parse_poly("1/24x^2(x-1)(x-2)(x-3)(x-4)"))
    assert poly_gcd(curve.H.exact_div(curve.Q), curve.Q) == X
    H1 = lienard._coprime_part(curve.H, curve.Q)
    assert H1.degree == 3 and poly_gcd(H1, curve.Q).degree == 0
    report = certify(curve)
    assert (report.m, report.n, report.certified_count) == (4, 9, 1)
    assert all(v.s1.is_exact() and v.s2.is_exact() for v in report.intervals)
    assert [(v.s1.lo, v.s2.lo, v.q_positive_between, v.p2_minus_q_negative,
             v.no_common_root_qprime_f, v.certified) for v in report.intervals] == [
        (1, 2, False, False, False, False),
        (2, 3, True, True, True, True),
        (3, 4, False, False, False, False),
    ]


def test_certify_decides_no_sign_at_the_critical_point(monkeypatch):
    # the focus/node flag follows from Rolle's theorem and the certified
    # signs of Q and H, so certify asks an isolated root for a sign only to
    # clear it of the parts of H and gcd(Q', f) coprime to Q, never of Q',
    # Q'' or g'
    curve = families.construct(10, 18).curve
    signs = []
    sign_of = RealRoot.sign_of
    monkeypatch.setattr(RealRoot, "sign_of",
                        lambda self, w: signs.append(w) or sign_of(self, w))
    report = certify(curve)
    assert report.certified_count == 4
    Q, f = curve.Q, report.system.f
    coprime = {lienard._coprime_part(curve.H, Q),
               lienard._coprime_part(poly_gcd(Q.derivative(), f), Q)}
    assert signs and set(signs) <= coprime
    assert not {Q.derivative(), Q.derivative().derivative(),
                report.system.g.derivative()} & set(signs)


@pytest.mark.parametrize("mn", [(2, 5), (4, 6), (4, 8), (5, 9), (9, 16), (10, 13), (10, 18)])
def test_focus_node_flag_matches_the_sign_of_g_prime_at_alpha(mn):
    # the reference is the decision certify no longer makes: isolate Q',
    # locate its one root alpha between copies of s1 and s2, and ask alpha
    # for the sign of g'
    report = families.construct(*mn).report
    gp = report.system.g.derivative()
    qp_roots = isolate_real_roots(report.curve.Q.derivative())
    certified = [v for v in report.intervals if v.certified]
    assert certified
    for v in certified:
        s1, s2 = copy.copy(v.s1), copy.copy(v.s2)
        [alpha] = [c for c in map(copy.copy, qp_roots)
                   if ref_separate_from(c, s1) == 1 and ref_separate_from(c, s2) == -1]
        assert (alpha.sign_of(gp) > 0) == v.gprime_positive_at_alpha


def test_each_gap_of_a_real_rooted_q_holds_one_simple_critical_point():
    # Rolle puts a root of Q' in each gap between adjacent distinct roots of
    # Q, and a root of Q of multiplicity e is a root of Q' of multiplicity
    # e - 1; with all roots of Q real that accounts for all deg Q - 1 roots
    # of Q', so each gap holds exactly one, and it is simple
    rng = random.Random(1606)
    grid = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)})
    for _ in range(60):
        roots = sorted(rng.sample(grid, rng.randint(2, 5)))
        Q = Poly([Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))])
        for r in roots:
            Q = Q * Poly([-r, 1]) ** rng.randint(1, 3)
        Qp = Q.derivative()
        qp_roots = isolate_real_roots(Qp)
        for a, b in zip(roots, roots[1:]):
            ends = [root_between(Poly([-r, 1]), r, r) for r in (a, b)]
            inside = [c for c in map(copy.copy, qp_roots)
                      if not (c.equals_rational(a) or c.equals_rational(b))
                      and ref_separate_from(c, ends[0]) == 1
                      and ref_separate_from(c, ends[1]) == -1]
            assert len(inside) == 1 and inside[0].multiplicity == 1, (Q, a, b)
            assert SturmChain(Qp).count_open(a, b) == 1


def test_a_curve_divides_out_k_once_per_derivation(monkeypatch):
    # K = -PQ'/Q is one exact division in Z[x], of the numerators of PQ' by
    # the primitive part of Q's, through `int_exact_div` as `lienard` binds it
    curve = worked_25_curve()
    divisions = []
    exact_div = lienard.int_exact_div
    monkeypatch.setattr(lienard, "int_exact_div",
                        lambda a, b: divisions.append((list(a), list(b))) or exact_div(a, b))
    (p, _), (q, _) = curve.P.int_form(), curve.Q.int_form()
    by_q = (int_mul(p, int_derivative(q)), int_coeffs(curve.Q))
    sys = derive_system(curve)
    assert invariance_residual(sys, curve).is_zero()
    K = curve.K
    # K by Q, once; g = -(PK + Q')/2 needs no division of its own
    assert divisions == [by_q]
    assert certify(curve).certified_count == 1
    # certify reads the kept K: any division it makes is by a gcd with Q
    # (`_coprime_part`), never PQ' by Q again
    assert by_q not in divisions[1:]
    assert K is curve.K


def test_a_cofactor_that_is_no_polynomial_fails_everywhere_it_is_read():
    # Q = x^2 + 1 does not divide P*Q' = 2x, so neither K nor f exists
    curve = HyperellipticCurve(P=ONE, Q=P(1, 0, 1))
    system = LienardSystem(f=ONE, g=X)
    for read in (lambda: curve.K, lambda: derive_system(curve),
                 lambda: certify(curve), lambda: invariance_residual(system, curve)):
        with pytest.raises(NonPolynomialSystem, match=r"^2Q does not divide P\*Q'$"):
            read()
    assert invariance_check(system, curve) is False
