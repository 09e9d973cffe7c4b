import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercycles.lienard import (
    HyperellipticCurve,
    LienardSystem,
    certify,
    derive_system,
    invariance_check,
)
from hypercycles.polyx import Poly, parse_poly
from hypercycles.recover import (
    UndeterminedType,
    _affine_block_solve,
    _equations,
    _Equation,
    _mp_reduce,
    recover_curve,
)


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
            assert out.witness[0] in ("f-identity", "g-identity", "degree-match")
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
    assert steps[0]["unknowns"] == ["p3", "q7"]  # seeds for (m,n) = (2,6)
    assert all("pivots" in step for step in steps)


def _deg_q(m: int, n: int) -> int:
    return n + 1 if n > 2 * m + 1 else 2 * m + 2


# small types of both branches: n < 2m+1 adds degree-match equations
ORACLE_TYPES = [(1, 2), (2, 3), (2, 4), (3, 5), (1, 4), (2, 6), (2, 7)]


@pytest.mark.parametrize("m, n", ORACLE_TYPES, ids=str)
def test_equations_match_sympy_expansion(m, n):
    # the closed-form coefficient equations against a direct expansion of
    # (I) 2Qf - 2QP' - PQ', (II) 2Qg - Q'(P^2 - Q) and, when n < 2m+1, the
    # coefficients of P^2 - Q above degree n+1; f and g have zero
    # coefficients, whose terms must be left out
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    deg_q = _deg_q(m, n)
    unknowns = sympy.symbols(f"p0:{m + 2}") + sympy.symbols(f"q0:{deg_q + 1}")
    P = sum(unknowns[i] * x**i for i in range(m + 2))
    Q = sum(unknowns[m + 2 + j] * x**j for j in range(deg_q + 1))
    rng = random.Random(100 * m + n)
    f = Poly([Fraction(rng.choice([0, 0, 1, -2, 5]), rng.randint(1, 3)) for _ in range(m)] + [1])
    g = Poly([Fraction(rng.choice([0, 0, 3, -1, 7]), rng.randint(1, 3)) for _ in range(n)] + [-2])

    def sym(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**k
                   for k, c in enumerate(p.coeffs))

    identities = [
        ("f-identity", 2 * Q * sym(f) - 2 * Q * sympy.diff(P, x) - P * sympy.diff(Q, x)),
        ("g-identity", 2 * Q * sym(g) - sympy.diff(Q, x) * (P**2 - Q)),
    ]
    expected = {}
    for family, identity in identities:
        for (d,), c in sympy.Poly(sympy.expand(identity), x).terms():
            expected[(family, d)] = c
    if n < 2 * m + 1:
        square = sympy.Poly(sympy.expand(P**2 - Q), x)
        for d in range(n + 2, 2 * m + 3):
            expected[("degree-match", d)] = square.coeff_monomial(x**d)

    got = {}
    for eq in _equations(f, g, m, n, deg_q):
        assert all(type(c) is int and c != 0 for c in eq.expr.values())
        assert type(eq.den) is int and eq.den > 0
        assert all(list(mono) == sorted(mono) for mono in eq.expr)
        got[(eq.family, eq.degree)] = sympy.expand(sum(
            sympy.Rational(c, eq.den) * sympy.Mul(*(unknowns[v] for v in mono))
            for mono, c in eq.expr.items()))
    assert got.keys() == {k for k, c in expected.items() if c != 0}
    for key, value in got.items():
        assert sympy.expand(value - expected[key]) == 0, key


@pytest.mark.parametrize("curve", [
    HyperellipticCurve(P=parse_poly("(x-1)(x-2)(x+5)"),
                       Q=parse_poly("(x-1)(x-2)(x+5)^5").scale(-5)),           # (2,6)
    HyperellipticCurve(P=parse_poly("(x-1)(x-2)(x-3)(x-4)(x+5)"),
                       Q=parse_poly("(x-1)(x-2)(x-3)(x-4)(x+5)^6")),           # (4,8)
], ids=["n>2m+1", "n<2m+1"])
def test_derived_curve_zeroes_every_equation(curve):
    sys = derive_system(curve)
    m, n = sys.m, sys.n
    deg_q = _deg_q(m, n)
    equations = _equations(sys.f, sys.g, m, n, deg_q)
    assert {eq.family for eq in equations} >= {"f-identity", "g-identity"}

    def residuals(Q):
        assign = dict(enumerate(curve.P.coeffs))
        assign.update({m + 2 + j: c for j, c in enumerate(Q.coeffs)})
        return [(eq.family, eq.degree) for eq in equations if _mp_reduce(eq.expr, assign)[0]]

    assert residuals(curve.Q) == []
    bumped = curve.Q + Poly([0, Fraction(1, 7)])
    assert residuals(bumped) != []


def _mp_reduce_rebuild(a, assign):
    """The reduction that rebuilds every coefficient, 0 + coeff included:
    the reference `_mp_reduce` must agree with."""
    out = {}
    for mono, coeff in a.items():
        rest = []
        for v in mono:
            if v in assign:
                coeff *= assign[v]
            else:
                rest.append(v)
        if not coeff:
            continue
        mono2 = tuple(rest)
        new = out.get(mono2, 0) + coeff
        if new:
            out[mono2] = new
        else:
            del out[mono2]
    return out


def test_refresh_keeps_the_coefficients_of_untouched_terms():
    # an assignment that touches some terms of an equation leaves every
    # other term as it was, over the denominator times the lcm L of the
    # denominators the touched terms picked up: when L = 1 the coefficient
    # object itself is kept, otherwise it becomes c * L
    sys = derive_system(HyperellipticCurve(
        P=parse_poly("(x-1)(x-2)(x+5)"), Q=parse_poly("(x-1)(x-2)(x+5)^5").scale(-5)))
    m, n = sys.m, sys.n
    for value, scale in [(Fraction(3), 1), (Fraction(3, 4), 4)]:
        eq = next(e for e in _equations(sys.f, sys.g, m, n, _deg_q(m, n))
                  if e.family == "f-identity" and len(e.expr) >= 6)
        eq.refresh({})   # divides out the content the equation was written with
        before, den = dict(eq.expr), eq.den
        var = max(v for mono in before for v in mono)
        assign = {var: value}
        eq.refresh(assign)
        assert eq.den == den * scale
        landed = {tuple(v for v in mono if v != var) for mono in before if var in mono}
        kept = [mono for mono in before if var not in mono and mono not in landed]
        assert kept
        for mono in kept:
            if scale == 1:
                assert eq.expr[mono] is before[mono]
            else:
                assert eq.expr[mono] == before[mono] * scale
        assert all(type(c) is int for c in eq.expr.values())
        reference = _mp_reduce_rebuild({mono: Fraction(c, den) for mono, c in before.items()},
                                       assign)
        assert {mono: Fraction(c, eq.den) for mono, c in eq.expr.items()} == reference


def test_every_refresh_leaves_int_coefficients(monkeypatch):
    # through whole solves of both branches, with fractional data: no
    # reduced equation holds a Fraction, its denominator is positive, and
    # the integers share no factor with it, so they stay small
    refresh = _Equation.refresh
    seen = []

    def checked(eq, assign):
        refresh(eq, assign)
        assert type(eq.den) is int and eq.den > 0
        assert all(type(c) is int and c != 0 for c in eq.expr.values())
        assert math.gcd(eq.den, *eq.expr.values()) == 1
        seen.append(eq.den)

    monkeypatch.setattr(_Equation, "refresh", checked)
    for P, Q in [("(x-1/2)(x+3)", "-(x-1/2)(x+3)^5"),
                 ("(x-1/2)(x+2)(2/3x+1)", "4/9(x-1/2)^3(x+2)^3")]:
        curve = HyperellipticCurve(P=parse_poly(P), Q=parse_poly(Q))
        _roundtrip(curve)
    assert max(seen) > 1


def test_affine_block_solve_of_integer_rows_is_exact():
    # the rows are integer (constant, linear part) pairs; a solve that
    # divided ints would return floats
    eq = _Equation("f-identity", 3, {}, 1)
    # 2x + 3y + 1 = 0 and x - y - 2 = 0: x = 1, y = -1
    solved = _affine_block_solve([(eq, 1, {0: 2, 1: 3}), (eq, -2, {0: 1, 1: -1})])
    assert sorted(solved) == [(0, Fraction(1)), (1, Fraction(-1))]
    # 3x + 3y - 1 = 0 and 3x - 3y - 2 = 0: x = 1/2, y = -1/6
    solved = _affine_block_solve([(eq, -1, {0: 3, 1: 3}), (eq, -2, {0: 3, 1: -3})])
    assert sorted(solved) == [(0, Fraction(1, 2)), (1, Fraction(-1, 6))]
    assert all(type(value) is Fraction for _, value in solved)
    # x + y = 1 and 2x + 2y = 3 contradict each other: the witness is the
    # first equation of the block
    first = _Equation("g-identity", 5, {}, 1)
    assert _affine_block_solve([(first, -1, {0: 1, 1: 1}), (eq, -3, {0: 2, 1: 2})]) == (
        "g-identity", 5)


# unknowns 0..5 with repeats, so monomials like p_0^2 q_4; small
# coefficients and values, so reduced terms often meet and cancel
_monos = st.lists(st.integers(0, 5), max_size=3).map(lambda vs: tuple(sorted(vs)))
_mpolys = st.dictionaries(_monos, st.sampled_from([1, -1, 2, -3, 4, -6]), max_size=12)
_batches = st.lists(st.dictionaries(
    st.integers(0, 5),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2),
                     Fraction(0)]),
    min_size=1, max_size=3), min_size=2, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mpolys, st.sampled_from([1, 2, 3, 6]), _batches)
@example({(0,): 1, (0, 1): 2, (0, 0, 2): 4, (2,): 1}, 2,
         [{1: Fraction(-1, 2)}, {0: Fraction(-1, 2)}])
def test_mp_reduce_matches_the_rebuild(expr, den, batches):
    # each batch adds unknowns to the assignment, as the propagation solve
    # does; the integer form over its denominator must agree with the
    # Fraction rebuild term by term and in order, and hold only ints
    assign = {}
    fast = expr
    slow = {mono: Fraction(c, den) for mono, c in expr.items()}
    for batch in batches:
        for v, value in batch.items():
            assign.setdefault(v, value)
        fast, scale = _mp_reduce(fast, assign)
        den *= scale
        slow = _mp_reduce_rebuild(slow, assign)
        assert [(mono, Fraction(c, den)) for mono, c in fast.items()] == list(slow.items())
        assert all(type(c) is int and c != 0 for c in fast.values())


# -- which stale equations get reduced -----------------------------------------


def _shared(a, b):
    """The number of unknowns monomials a and b share, with multiplicity."""
    return sum(min(a.count(v), b.count(v)) for v in set(a))


def test_two_monomials_of_an_equation_share_at_most_one_unknown():
    # the fact `may_be_affine` rests on, over every equation of every type
    # with m <= 8 and n <= 2m+6, n != 2m+1; f and g have no zero
    # coefficient, so every data term is written
    checked = 0
    for m in range(9):
        for n in range(1, 2 * m + 7):
            if n == 2 * m + 1:
                continue
            f, g = Poly([1] * (m + 1)), Poly([1] * (n + 1))
            for eq in _equations(f, g, m, n, _deg_q(m, n)):
                monos = list(eq.expr)
                for i, a in enumerate(monos):
                    assert all(_shared(a, b) <= 1 for b in monos[:i]), (m, n, eq.family)
                checked += 1
    assert checked > 4000


_values = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2),
                           Fraction(1, 2), Fraction(-3, 4)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(ORACLE_TYPES + [(3, 4), (3, 8)]), st.data())
def test_may_be_affine_is_exactly_what_a_reduction_finds(mn, data):
    # batches of assignments, zeros included, to the unknowns of one
    # equation.  Before each reduction, `may_be_affine` must say False
    # exactly when reducing leaves a non-empty form that is not affine.
    # The equation is reduced only when it says True, as the solve does;
    # the result must equal the form of a twin reduced after every batch
    m, n = mn
    deg_q = _deg_q(m, n)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] + [1])
    g = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] + [-2])
    equations = _equations(f, g, m, n, deg_q)
    eq = data.draw(st.sampled_from(equations))
    twin = _Equation(eq.family, eq.degree, dict(eq.expr), eq.den)
    unknowns = sorted({v for mono in eq.expr for v in mono})
    assign = {}
    for _ in range(data.draw(st.integers(1, 4))):
        for v in data.draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=3)):
            assign.setdefault(v, data.draw(_values))
        probe = _Equation(eq.family, eq.degree, dict(eq.expr), eq.den)
        probe.refresh(assign)
        may = eq.may_be_affine(assign)
        assert may == (not probe.expr or probe.affine is not None)
        twin.refresh(assign)
        if may:
            eq.refresh(assign)
            assert (eq.expr, eq.den, eq.affine) == (twin.expr, twin.den, twin.affine)
    eq.refresh(assign)
    assert (eq.expr, eq.den) == (twin.expr, twin.den)


def test_an_unknown_assigned_zero_can_make_an_equation_affine():
    # -p0 p2 q3 holds two unassigned unknowns, but p2 = 0 drops it
    expr = {(0, 2, 7): -1, (0, 1): 2, (7,): 3}
    eq = _Equation("g-identity", 4, dict(expr), 1)
    assert not eq.may_be_affine({1: Fraction(1), 2: Fraction(5)})
    assert eq.may_be_affine({1: Fraction(1), 2: Fraction(0)})
    eq.refresh({1: Fraction(1), 2: Fraction(0)})
    assert eq.affine == (0, {0: 2, 7: 3})
    # P = x^3 - x, Q = x^6 - x^4, type (2,3): p2 = 0 and q5 = 0 are assigned
    # before the last affine block, and they make g-identity x^4 affine in
    # q3 and p0, so it enters that block; a test that ignored the zeros
    # would leave it out
    out = _roundtrip(HyperellipticCurve(P=parse_poly("x^3 - x"), Q=parse_poly("x^6 - x^4")))
    last = out.schedule[-1]
    assert last["unknowns"] == ["q3", "p0"]
    assert last["equations"] == ["f-identity x^5", "f-identity x^3", "g-identity x^8",
                                 "g-identity x^6", "g-identity x^4"]


def test_no_reduction_is_wasted_on_an_equation_that_stays_non_affine(monkeypatch):
    # through whole solves of both branches, with and without a curve,
    # every reduction leaves an affine or empty form: one that must stay
    # non-affine is left stale until it can help
    refresh = _Equation.refresh
    reductions = []

    def checked(eq, assign):
        refresh(eq, assign)
        assert not eq.expr or eq.affine is not None, (eq.family, eq.degree)
        reductions.append(eq)

    monkeypatch.setattr(_Equation, "refresh", checked)
    for P, Q in [("(x-1)(x-2)(x+5)", "-5(x-1)(x-2)(x+5)^5"),
                 ("(x-1)(x-2)(x-3)(x-4)(x+5)", "(x-1)(x-2)(x-3)(x-4)(x+5)^6"),
                 ("(x-1/2)(x+2)(2/3x+1)", "4/9(x-1/2)^3(x+2)^3"),
                 ("x^3 - x", "x^6 - x^4")]:
        _roundtrip(HyperellipticCurve(P=parse_poly(P), Q=parse_poly(Q)))
    for f, g in [("2x+1", "x^4+x+1"), ("x^2+1", "x^4+x"),
                 ("2/3x^2-4x+1", "-2/3x^7+7/2x^6-5/3x^4-2x^3-5x^2-6x+2")]:
        out = recover_curve(LienardSystem(f=parse_poly(f), g=parse_poly(g)))
        assert not out.found and out.witness is not None
    assert len(reductions) > 100
