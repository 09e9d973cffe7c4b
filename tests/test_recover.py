import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypercycles.lienard import (
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    certify,
    derive_system,
    invariance_check,
)
from hypercycles import recover
from hypercycles.polyx import Poly, parse_poly
from hypercycles.recover import (
    MAX_TERMS,
    DegenerateLeadingCoefficient,
    RecoveryOutcome,
    TooManyTerms,
    UndeterminedType,
    _Expansion,
    _term_bound,
    recover_curve,
)


def _deg_q(m: int, n: int) -> int:
    return n + 1 if n > 2 * m + 1 else 2 * m + 2


def _E(P: Poly, f: Poly, g: Poly) -> Poly:
    """E = S'u - Su' - 2Wu^2 with u = f - P', W = Pu - g and S = PW, on
    whole `Poly`s."""
    u = f - P.derivative()
    W = P * u - g
    S = P * W
    return S.derivative() * u - S * u.derivative() - (W * u * u).scale(2)


def _solver_E(P: Poly, f: Poly, g: Poly) -> list[Fraction]:
    """Every coefficient of E as the solver computes it, from the top: P
    put into `_Expansion`, every entry of every series filled."""
    m, n = f.degree, g.degree
    ex = _Expansion(f, g, _deg_q(m, n) - 1)
    for i, c in enumerate(reversed(P.coeffs)):
        ex.put(i, c)
    for i in range(len(ex.S)):
        ex.fill(i)
    top = 2 * m + _deg_q(m, n) - 1
    return [Fraction(ex.coefficient(k), ex.D ** 4) for k in range(top + 1)]


def _slope(P: Poly, f: Poly, g: Poly, i: int, d: int) -> Fraction:
    """The coefficient of p_i in the coefficient x^d of E at P, when E's
    x^d is affine in p_i: E read at p_i = 1 less E at p_i = 0."""
    coeffs = list(P.coeffs)
    at = []
    for value in (1, 0):
        coeffs[i] = Fraction(value)
        at.append(_E(Poly(coeffs), f, g)[d])
    return at[0] - at[1]


def ref_recover_curve(sys: LienardSystem) -> RecoveryOutcome:
    """The top-down solve on E with whole polynomials: every coefficient of
    E is read off the whole of E, and every pivot is a difference of two
    such readings (`_slope`).  Kept as the reference that the integer solve,
    with its closed-form pivots and its series, must agree with."""
    m, n, f, g = sys.m, sys.n, sys.f, sys.g
    q = _deg_q(m, n)
    top = 2 * m + q - 1
    lead = Fraction(2 * m + 2 + q, 2)
    coeffs = [Fraction(0)] * (m + 1) + [f.leading() / lead]
    schedule = [{"unknowns": [f"p{m + 1}"], "equations": ["seed f-identity top"],
                 "pivots": [str(lead)]}]
    for i in range(m, -1, -1):
        j = m + 1 - i
        # p_0 resonates when n <= 2m; E is affine in it down to E_(2m+1)
        for k in range(j, 2 * m + 2 if i == 0 and n <= 2 * m else j + 1):
            slope = _slope(Poly(coeffs), f, g, i, top - k)
            coeffs[i] = Fraction(0)
            c = _E(Poly(coeffs), f, g)[top - k]
            if slope:
                coeffs[i] = -c / slope
                schedule.append({"unknowns": [f"p{i}"], "equations": [f"E x^{top - k}"],
                                 "pivots": [str(slope)]})
                break
            if c:
                return RecoveryOutcome(None, False, witness=("f-identity", top - k),
                                       schedule=tuple(schedule))
        else:
            raise DegenerateLeadingCoefficient("p0 is still free")
    P = Poly(coeffs)
    E = _E(P, f, g)
    if E:
        return RecoveryOutcome(None, False, witness=("f-identity", E.degree),
                               schedule=tuple(schedule))
    u = f - P.derivative()
    curve = HyperellipticCurve(P=P, Q=(P * (P * u - g)).exact_div(u))
    return RecoveryOutcome(curve, True, schedule=tuple(schedule))


def _roundtrip(curve: HyperellipticCurve):
    sys = derive_system(curve)
    out = recover_curve(sys)
    assert out.found, f"no curve recovered: witness {out.witness}"
    assert out.curve.P == curve.P
    assert out.curve.Q == curve.Q
    assert invariance_check(sys, out.curve)
    return out


def test_roundtrip_branch_high_n():
    # type (2,6): n > 2m+1
    R = parse_poly("(x-1)(x-2)")
    curve = HyperellipticCurve(
        P=R * parse_poly("x+5"),
        Q=(R * parse_poly("(x+5)^5")).scale(-5),
    )
    out = _roundtrip(curve)
    assert out.schedule  # audit trail present


def test_roundtrip_branch_low_n():
    # type (4,8): n < 2m+1
    R = parse_poly("(x-1)(x-2)(x-3)(x-4)")
    curve = HyperellipticCurve(
        P=R * parse_poly("x+5"),
        Q=R * parse_poly("(x+5)^6"),
    )
    _roundtrip(curve)


def test_roundtrip_worked_26_lift_shape():
    # lifted-style curve, type (3,8)
    R = parse_poly("(x-1)(x-2)")
    base_P = R * parse_poly("x+5")
    base_Q = (R * parse_poly("(x+5)^5")).scale(-5)
    curve = HyperellipticCurve(
        P=base_P * parse_poly("x-20"),
        Q=base_Q * parse_poly("(x-20)^2"),
    )
    _roundtrip(curve)


def test_undetermined_for_n_2m_plus_1():
    R = parse_poly("(x-1)(x-2)")
    curve = HyperellipticCurve(
        P=R * parse_poly("x+10"),
        Q=(R * parse_poly("(x+10)^4")).scale(-10),
    )
    sys = derive_system(curve)  # type (2,5): n = 2m+1
    with pytest.raises(UndeterminedType):
        recover_curve(sys)


def test_random_24_systems_have_no_curve():
    rng = random.Random(99)
    found = 0
    for _ in range(25):
        f = Poly([Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(2)]
                 + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        g = Poly([Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(4)]
                 + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        out = recover_curve(LienardSystem(f=f, g=g))
        if out.found:
            # permitted only if the curve carries no limit cycles at all
            assert certify(out.curve).certified_count == 0
            found += 1
        else:
            assert out.witness is not None
            assert out.witness[0] == "f-identity"
    assert found <= 1  # generic draws must not produce curves


def test_schedule_records_pivots():
    R = parse_poly("(x-1)(x-2)")
    curve = HyperellipticCurve(
        P=R * parse_poly("x+5"),
        Q=(R * parse_poly("(x+5)^5")).scale(-5),
    )
    out = recover_curve(derive_system(curve))
    assert out.found
    steps = list(out.schedule)
    # type (2,6): lc(P) from the top of (I), then one coefficient of E each
    assert [step["unknowns"] for step in steps] == [["p3"], ["p2"], ["p1"], ["p0"]]
    assert [step["equations"] for step in steps] == [
        ["seed f-identity top"], ["E x^9"], ["E x^8"], ["E x^7"]]
    assert all(len(step["pivots"]) == 1 for step in steps)


# small types of both branches: n < 2m+1, whose p_0 resonates, and n > 2m+1
ORACLE_TYPES = [(1, 2), (2, 3), (2, 4), (3, 5), (1, 4), (2, 6), (2, 7)]


@pytest.mark.parametrize("m, n", ORACLE_TYPES, ids=str)
def test_equations_match_sympy_expansion(m, n):
    # every coefficient of E that the solver's series give for a drawn P,
    # f and g, with zero coefficients, against the numerator of
    # u^2 ((P W / u)' - 2W) that sympy expands
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(100 * m + n)
    f = Poly([Fraction(rng.choice([0, 0, 1, -2, 5]), rng.randint(1, 3)) for _ in range(m)] + [1])
    g = Poly([Fraction(rng.choice([0, 0, 3, -1, 7]), rng.randint(1, 3)) for _ in range(n)] + [-2])
    P = Poly([Fraction(rng.choice([0, 1, -3, 4]), rng.randint(1, 5)) for _ in range(m + 1)]
             + [Fraction(rng.choice([1, -2]), rng.randint(2, 7))])

    def sym(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**k
                   for k, c in enumerate(p.coeffs))

    u = sym(f) - sympy.diff(sym(P), x)
    W = sym(P) * u - sym(g)
    expected = sympy.Poly(sympy.cancel(u**2 * (sympy.diff(sym(P) * W / u, x) - 2 * W)), x)
    got = _solver_E(P, f, g)
    top = len(got) - 1
    assert top == 2 * m + _deg_q(m, n) - 1 and expected.degree() <= top
    assert got == [Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                   for c in (expected.coeff_monomial(x**(top - k)) for k in range(top + 1))]


@pytest.mark.parametrize("curve", [
    HyperellipticCurve(P=parse_poly("(x-1)(x-2)(x+5)"),
                       Q=parse_poly("(x-1)(x-2)(x+5)^5").scale(-5)),           # (2,6)
    HyperellipticCurve(P=parse_poly("(x-1)(x-2)(x-3)(x-4)(x+5)"),
                       Q=parse_poly("(x-1)(x-2)(x-3)(x-4)(x+5)^6")),           # (4,8)
], ids=["n>2m+1", "n<2m+1"])
def test_derived_curve_zeroes_every_equation(curve):
    # every coefficient of E vanishes at the curve's P, and not at a bumped P
    sys = derive_system(curve)
    assert not any(_solver_E(curve.P, sys.f, sys.g))
    assert any(_solver_E(curve.P + Poly([0, Fraction(1, 7)]), sys.f, sys.g))


@pytest.mark.parametrize("m, n", ORACLE_TYPES + [(3, 4), (3, 8), (5, 9), (6, 14)], ids=str)
def test_the_pivots_are_the_closed_forms(m, n):
    # at a P with the closed-form lc(P) and drawn lower coefficients, the
    # coefficient of P_j in E_j, read off whole polynomials, is the closed
    # form: for n > 2m+1 never 0, for n <= 2m 0 at p_0 alone.  The solver's
    # schedule reports the same pivots
    rng = random.Random(10 * m + n)
    f = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
             + [Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 3))])
    g = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             + [Fraction(rng.choice([-2, 1, 5]), rng.randint(1, 3))])
    a, b = f.leading(), g.leading()
    lead = f.leading() / Fraction(2 * m + 2 + _deg_q(m, n), 2)
    P = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m + 1)] + [lead])
    top = 2 * m + _deg_q(m, n) - 1
    pivots = [_slope(P, f, g, m + 1 - j, top - j) for j in range(1, m + 2)]
    if n > 2 * m + 1:
        assert pivots == [-a * b * (n + 1 - j) * (2 * m + n + 3 - 2 * j) / (2 * m + n + 3)
                          for j in range(1, m + 2)]
        assert all(pivots)
    else:
        assert pivots == [a ** 3 * (m + 1 - j) / (2 * m + 2) for j in range(1, m + 2)]
        assert all(pivots[:-1]) and pivots[-1] == 0
    steps = recover_curve(LienardSystem(f=f, g=g)).schedule
    reported = [Fraction(step["pivots"][0]) for step in steps[1:m + 1]]
    assert reported == pivots[:len(reported)]


def test_a_lo_curve_fixes_p0_below_index_m_plus_1():
    # type (2,3): E_3 = E x^6 holds no p_0, and p_0 comes from E_5 = E x^4,
    # the lowest coefficient of E that may fix it; the pivot is p_0's
    # coefficient there
    curve = HyperellipticCurve(P=parse_poly("x^3 - x"), Q=parse_poly("x^6 - x^4"))
    sys = derive_system(curve)
    assert sys.type == (2, 3)
    out = _roundtrip(curve)
    p0 = out.schedule[-1]
    assert (p0["unknowns"], p0["equations"]) == (["p0"], ["E x^4"])
    assert _slope(curve.P, sys.f, sys.g, 0, 6) == 0
    assert Fraction(p0["pivots"][0]) == _slope(curve.P, sys.f, sys.g, 0, 4) != 0


_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_nonzero = st.builds(Fraction, st.sampled_from([-3, -1, 1, 2]), st.integers(1, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.data())
def test_evaluation_matches_the_reference_reduction(m, data):
    # every coefficient of E from the solver's integer series, for drawn f,
    # g and P of a type with n != 2m+1 (their denominators make D grow on
    # the way), is the coefficient of E computed on whole `Poly`s
    n = data.draw(st.integers(1, 2 * m + 4).filter(lambda n: n != 2 * m + 1))
    f, g, P = (Poly(data.draw(st.lists(_fracs, min_size=k, max_size=k)) + [data.draw(_nonzero)])
               for k in (m, n, m + 1))
    E = _E(P, f, g)
    got = _solver_E(P, f, g)
    top = len(got) - 1
    assert E.degree <= top and got == [E[top - k] for k in range(top + 1)]


def test_every_rescale_leaves_int_coefficients():
    # each value's denominator makes D grow: every series stays a list of
    # ints, P, f and g keep their values over D, D and D^2, and the entries
    # filled before a rescale still give the E of whole polynomials
    f, g = parse_poly("1/2x^2 + 1/3"), parse_poly("1/5x^3 - x")
    ex = _Expansion(f, g, 5)   # type (2,3): deg W = 5
    values = [Fraction(1, 7), Fraction(-2, 9), Fraction(3, 4), Fraction(5, 11)]
    for i, value in enumerate(values):
        D = ex.D
        ex.put(i, value)
        ex.fill(i)
        assert ex.D % D == 0 and ex.D % value.denominator == 0
        for series in (ex.P, ex.f, ex.u, ex.W, ex.g, ex.S, ex.uu):
            assert all(type(c) is int for c in series)
        assert [Fraction(c, ex.D) for c in ex.P[:i + 1]] == values[:i + 1]
        assert [Fraction(c, ex.D) for c in ex.f] == list(reversed(f.coeffs))
        assert [Fraction(c, ex.D ** 2) for c in ex.g] == [0, 0] + list(reversed(g.coeffs))
    for i in range(len(values), len(ex.S)):
        ex.fill(i)
    E = _E(Poly(list(reversed(values))), f, g)
    assert [Fraction(ex.coefficient(k), ex.D ** 4) for k in range(10)] == [
        E[9 - k] for k in range(10)]


def _either(solve, sys):
    """The outcome of solve(sys), or the name of what it raised."""
    try:
        return solve(sys)
    except ValueError as exc:
        return type(exc).__name__


_ZERO_HEAVY = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2),
                                                   Fraction(1, 2), Fraction(-2, 3)])
_ROOTS = st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
_leads = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def _zero_heavy_systems(draw):
    """A system of type (m, n) with m <= 6 and n != 2m+1 whose recovery
    assigns coefficients 0: f and g drawn from a set heavy in 0, or the
    system of a curve P = R T, Q = c R_1^e_1 ... R_k^e_k with R the product
    of the linear factors R_i, their roots among 0, +-1, +-2 and +-1/2, and
    T drawn from that set.  A curve of the kind n > 2m+1 has
    deg Q > 2 deg P; one of the kind n < 2m+1 has deg Q = 2 deg P and
    c = lc(P)^2."""
    kind = draw(st.sampled_from(["lo", "hi", "none"]))
    if kind == "none":
        m = draw(st.integers(1, 6))
        n = draw(st.integers(1, 2 * m + 4).filter(lambda n: n != 2 * m + 1))
        return LienardSystem(
            f=Poly(draw(st.lists(_ZERO_HEAVY, min_size=m, max_size=m)) + [draw(_leads)]),
            g=Poly(draw(st.lists(_ZERO_HEAVY, min_size=n, max_size=n)) + [draw(_leads)]))
    roots = draw(st.lists(_ROOTS, min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(roots), max_size=len(roots)))
    k, q = len(roots), sum(mults)
    t = q // 2 - k if kind == "lo" else draw(st.integers(0, 2))
    assume(0 <= t and k + t <= 7 and (q == 2 * (k + t) if kind == "lo" else q > 2 * (k + t)))
    lead = draw(_leads)
    P = Poly.from_roots(roots) * Poly(draw(st.lists(_ZERO_HEAVY, min_size=t, max_size=t))
                                      + [lead])
    Q = Poly.constant(lead * lead if kind == "lo" else draw(_leads))
    for a, e in zip(roots, mults):
        Q = Q * Poly([-a, 1]) ** e
    try:
        sys = derive_system(HyperellipticCurve(P=P, Q=Q))
    except NonPolynomialSystem:
        assume(False)
    assume(sys.n != 2 * sys.m + 1)
    return sys


def _system(f, g):
    return LienardSystem(f=parse_poly(f), g=parse_poly(g))


def _curve_system(P, Q):
    return derive_system(HyperellipticCurve(P=parse_poly(P), Q=parse_poly(Q)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_zero_heavy_systems())
# the three no-curve systems that CI reconstructs: (1,4) fails at E x^3,
# (2,4) at E x^6, whose p_0 resonates, and the third has fractional f and g
@example(_system("2x+1", "x^4+x+1"))
@example(_system("x^2+1", "x^4+x"))
@example(_system("2/3x^2-4x+1", "-2/3x^7+7/2x^6-5/3x^4-2x^3-5x^2-6x+2"))
# p_0 = 0 comes from E x^4, the lowest coefficient that may fix it
@example(_curve_system("x^3 - x", "x^6 - x^4"))
# the witness comes after every coefficient of P is fixed
@example(_system("2x+1/2", "2x^5+2x^3+2x^2+x+1/2"))
# p_0 resonates and is fixed from E x^5; the witness is the next coefficient,
# E x^4, read after the entries filled with p_0 unset are filled again
@example(_system("-2x^2-35/6x-4/3", "-5/3x^4-83/6x^3-75/2x^2-116/3x-37/3"))
def test_the_solve_gives_the_reference_outcome(sys):
    # the whole `RecoveryOutcome` (curve, verified, witness, and the
    # schedule with every pivot), or the same exception
    assert _either(recover_curve, sys) == _either(ref_recover_curve, sys)


def test_the_late_witness_comes_after_every_unknown_is_assigned():
    # the example above: its schedule fixes every coefficient of P of type
    # (1,5) before the witness is met
    late = recover_curve(_system("2x+1/2", "2x^5+2x^3+2x^2+x+1/2"))
    assigned = sorted(u for step in late.schedule for u in step["unknowns"])
    assert assigned == [f"p{i}" for i in range(3)]
    assert not late.found and late.witness == ("f-identity", 4)


# -- the size limit -------------------------------------------------------------


def test_a_type_above_max_terms_is_refused_before_anything_is_built(monkeypatch):
    monkeypatch.setattr(recover, "_Expansion", None)   # never reached
    sys = LienardSystem(f=parse_poly("x^300"), g=parse_poly("x^450"))
    with pytest.raises(TooManyTerms, match="above MAX_TERMS = 2,000,000"):
        recover_curve(sys)
    assert _term_bound(100, 150, _deg_q(100, 150)) <= MAX_TERMS
