import math
import random
import sys
import threading
from fractions import Fraction
from math import gcd
from typing import Sequence
from unittest import mock

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
    PLAN_TERMS,
    DegenerateLeadingCoefficient,
    Mono,
    RecoveryOutcome,
    TooManyTerms,
    UndeterminedType,
    _affine_block_solve,
    _build_plan,
    _equations,
    _Equation,
    _PlanMemo,
    _term_bound,
    recover_curve,
)


def ref_mp_reduce(a, assign):
    """(b, L) with b / L equal to a under `assign`: L is the lcm of the
    denominators the touched terms pick up, so every coefficient of b is an
    int.  Every coefficient of a is nonzero, so a term with no assigned
    unknown is kept as c * L, the same object when L = 1, and only added to
    when a reduced term lands on its monomial.  This is the incremental
    reduction the solver ran before it evaluated each equation from its
    written terms; it is kept as the reference the evaluation must agree
    with."""
    assigned = assign.keys()
    terms = []   # (monomial, numerator, denominator); 0 marks an untouched term
    scale = 1
    for mono, coeff in a.items():
        if assigned.isdisjoint(mono):
            terms.append((mono, coeff, 0))
            continue
        den = 1
        rest = []
        for v in mono:
            if v in assign:
                value = assign[v]
                coeff *= value.numerator
                den *= value.denominator
            else:
                rest.append(v)
        if coeff:
            terms.append((tuple(rest), coeff, den))
            if den != 1:
                scale = math.lcm(scale, den)
    out = {}
    for mono, coeff, den in terms:
        if den:
            coeff *= scale // den
        elif scale != 1:
            coeff *= scale
        if mono in out:
            coeff = out[mono] + coeff
            if not coeff:
                del out[mono]
                continue
        out[mono] = coeff
    return out, scale


def ref_equations(f, g, m, n, deg_q):
    """The coefficient equations as `recover._equations` wrote them before
    a type's rows were kept in a plan, every term of every call written
    afresh: [(family, degree, {monomial: coefficient}, den)] in witness
    priority order, with the data terms (the terms of one unknown) over den
    and the others integer.  Kept as the reference the plan rows and a
    call's data terms must give."""
    q0 = m + 2
    top_p = m + 1
    f_nums, f_den = f.int_form()
    g_nums, g_den = g.int_form()

    def data_terms(expr, d, nums):
        for j in range(max(0, d - len(nums) + 1), min(deg_q, d) + 1):
            if nums[d - j]:
                expr[(q0 + j,)] = 2 * nums[d - j]

    equations = []
    for d in range(deg_q + m, -1, -1):
        expr = {}
        data_terms(expr, d, f_nums)
        for i in range(max(0, d + 1 - deg_q), min(top_p, d + 1) + 1):
            j = d + 1 - i
            expr[(i, q0 + j)] = -(2 * i + j)
        if expr:
            equations.append(("f-identity", d, expr, f_den))
    for d in range(max(deg_q + n, deg_q + 2 * m + 1, 2 * deg_q - 1), -1, -1):
        expr = {}
        data_terms(expr, d, g_nums)
        for j in range(max(1, d + 1 - 2 * top_p), min(deg_q, d + 1) + 1):
            s = d + 1 - j
            for a in range(max(0, s - top_p), s // 2 + 1):
                expr[(a, s - a, q0 + j)] = -j if 2 * a == s else -2 * j
        for a in range(max(0, d + 1 - deg_q), (d + 1) // 2 + 1):
            b = d + 1 - a
            expr[(q0 + a, q0 + b)] = a if a == b else d + 1
        if expr:
            equations.append(("g-identity", d, expr, g_den))
    if n < 2 * m + 1:
        for d in range(2 * m + 2, n + 1, -1):
            expr = {(a, d - a): 1 if 2 * a == d else 2
                    for a in range(max(0, d - top_p), d // 2 + 1)}
            expr[(q0 + d,)] = -1
            equations.append(("degree-match", d, expr, 1))
    return equations


def _expr(eq):
    """The terms an `_Equation` holds for its call, as {monomial:
    coefficient}: its data terms with a nonzero coefficient, over `den`,
    then its row."""
    expr = {(v,): c for v, c in zip(eq.unknowns, eq.data) if c}
    expr.update(zip(eq.monos, eq.coeffs))
    return expr


def _written(family, degree, expr, den):
    """The `_Equation` of the terms `expr`, {monomial: coefficient}, whose
    terms of one unknown are over `den`."""
    data = [(mono[0], c) for mono, c in expr.items() if len(mono) == 1]
    row = {mono: c for mono, c in expr.items() if len(mono) > 1}
    return _Equation(family, degree, tuple(row), tuple(row.values()),
                     tuple(v for v, _ in data), [c for _, c in data], den)


def _eqs(f, g, m, n):
    """The equations `recover_curve` writes for (f, g) of type (m, n)."""
    return _equations(recover._PLANS.get(m, n, _deg_q(m, n)), f, g)


def _int_form(eq):
    """The written equation as one integer vector over its `den`: the
    terms of more than one unknown are written without it."""
    return {mono: c if len(mono) == 1 else c * eq.den for mono, c in _expr(eq).items()}


def _over_q(eq, assign):
    """The reduced form of the written equation under the `Fraction`
    assignment, by the reference: {monomial: rational coefficient}."""
    form, scale = ref_mp_reduce(_int_form(eq), assign)
    return {mono: Fraction(c, eq.den * scale) for mono, c in form.items()}


def _held(eq, assign):
    """The `Fraction` assignment as the solver holds it: a list indexed by
    unknown, long enough for every unknown of eq, of numerators over one
    common denominator D, None where unassigned; and D."""
    D = math.lcm(1, *(value.denominator for value in assign.values()))
    vals = [None] * (1 + max([*assign, *eq.unknowns, *(v for mono in eq.monos for v in mono)]))
    for v, value in assign.items():
        vals[v] = int(value * D)
    return vals, D


def _form(eq):
    """eq's affine form read over Q as {(): constant, (v,): coefficient},
    zeros left out."""
    assert type(eq.const) is int and all(type(c) is int and c for c in eq.lin.values())
    form = {(v,): Fraction(c, eq.scale) for v, c in eq.lin.items()}
    if eq.const:
        form[()] = Fraction(eq.const, eq.scale)
    return form


def _evaluate(eq, assign):
    """Evaluate eq under the `Fraction` assignment, held as the solver holds
    it, and read the result over Q."""
    vals, D = _held(eq, assign)
    eq.evaluate(vals, (1, D, D * D, D * D * D))
    assert type(eq.scale) is int and eq.scale == eq.den * D ** eq.top
    return _form(eq)


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
    # coefficients, whose data terms must add nothing
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
    for eq in _eqs(f, g, m, n):
        expr = _expr(eq)
        assert all(type(c) is int and c != 0 for c in expr.values())
        assert type(eq.den) is int and eq.den > 0
        assert all(list(mono) == sorted(mono) for mono in expr)
        # the evaluation scales a term by D^(top - k), so no term holds more
        assert all(len(mono) <= eq.top for mono in expr)
        # only the data terms, the terms of one unknown, are over den
        got[(eq.family, eq.degree)] = sympy.expand(sum(
            sympy.Rational(c, eq.den if len(mono) == 1 else 1)
            * sympy.Mul(*(unknowns[v] for v in mono))
            for mono, c in expr.items()))
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
    equations = _eqs(sys.f, sys.g, m, n)
    assert {eq.family for eq in equations} >= {"f-identity", "g-identity"}

    def residuals(Q):
        assign = dict(enumerate(curve.P.coeffs))
        assign.update({m + 2 + j: c for j, c in enumerate(Q.coeffs)})
        return [(eq.family, eq.degree) for eq in equations if _evaluate(eq, assign)]

    assert residuals(curve.Q) == []
    bumped = curve.Q + Poly([0, Fraction(1, 7)])
    assert residuals(bumped) != []


def _mp_reduce_rebuild(a, assign):
    """The reduction that rebuilds every coefficient, 0 + coeff included:
    the reference `ref_mp_reduce` must agree with."""
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
    # an assignment that touches some terms of an equation leaves the
    # others as written: evaluating scales each term as it scales the
    # result, so over Q a term of one unknown keeps its written coefficient
    # over den, plus what the touched terms land on its monomial; with
    # D = 1 and with D = 4
    sys = derive_system(HyperellipticCurve(
        P=parse_poly("(x-1)(x-2)(x+5)"), Q=parse_poly("(x-1)(x-2)(x+5)^5").scale(-5)))
    m, n = sys.m, sys.n
    for value, D in [(Fraction(3), 1), (Fraction(3, 4), 4)]:
        eq = next(e for e in _eqs(sys.f, sys.g, m, n)
                  if e.family == "f-identity" and len(_expr(e)) >= 6)
        written = _expr(eq)
        # every p_i: each term p_i q_j then holds one unassigned unknown
        assign = {v: value for mono in written for v in mono if v < m + 2}
        form = _evaluate(eq, assign)
        assert _expr(eq) == written and eq.scale == eq.den * D ** 2
        kept = [mono for mono in written if len(mono) == 1]
        assert kept
        for mono in kept:
            landed = sum(c * assign[mono2[0]]
                         for mono2, c in written.items() if mono2[1:] == mono)
            assert form.get(mono, 0) == Fraction(written[mono], eq.den) + landed
        assert form == _over_q(eq, assign)


def test_every_refresh_leaves_int_coefficients(monkeypatch):
    # through whole solves of both branches, with fractional data: every
    # evaluation gives an int constant and nonzero int coefficients over the
    # positive int scale den D^top, and D grows past 1; every substitution
    # keeps them ints over a positive int scale
    evaluate, substitute = _Equation.evaluate, _Equation.substitute
    seen = []

    def checked(eq, vals, powers):
        evaluate(eq, vals, powers)
        assert type(eq.scale) is int and eq.scale == eq.den * powers[eq.top] > 0
        assert type(eq.const) is int
        assert all(type(c) is int and c != 0 for c in eq.lin.values())
        assert all(type(v) is int for v in vals if v is not None)
        seen.append(powers[1])

    def substituted(eq, var, p, q):
        substitute(eq, var, p, q)
        assert type(eq.scale) is int and eq.scale > 0 and type(eq.const) is int
        assert all(type(c) is int and c != 0 for c in eq.lin.values())

    monkeypatch.setattr(_Equation, "evaluate", checked)
    monkeypatch.setattr(_Equation, "substitute", substituted)
    for P, Q in [("(x-1/2)(x+3)", "-(x-1/2)(x+3)^5"),
                 ("(x-1/2)(x+2)(2/3x+1)", "4/9(x-1/2)^3(x+2)^3")]:
        curve = HyperellipticCurve(P=parse_poly(P), Q=parse_poly(Q))
        _roundtrip(curve)
    assert max(seen) > 1


def test_affine_block_solve_of_integer_rows_is_exact():
    # the rows are integer (constant, linear part) pairs; a solve that
    # divided ints would return floats
    eq = _written("f-identity", 3, {}, 1)
    # 2x + 3y + 1 = 0 and x - y - 2 = 0: x = 1, y = -1
    solved = _affine_block_solve([(eq, 1, {0: 2, 1: 3}), (eq, -2, {0: 1, 1: -1})])
    assert sorted(solved) == [(0, Fraction(1)), (1, Fraction(-1))]
    # 3x + 3y - 1 = 0 and 3x - 3y - 2 = 0: x = 1/2, y = -1/6
    solved = _affine_block_solve([(eq, -1, {0: 3, 1: 3}), (eq, -2, {0: 3, 1: -3})])
    assert sorted(solved) == [(0, Fraction(1, 2)), (1, Fraction(-1, 6))]
    assert all(type(value) is Fraction for _, value in solved)
    # x + y = 1 and 2x + 2y = 3 contradict each other: the witness is the
    # first equation of the block
    first = _written("g-identity", 5, {}, 1)
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
        fast, scale = ref_mp_reduce(fast, assign)
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
            for eq in _eqs(f, g, m, n):
                monos = list(_expr(eq))
                for i, a in enumerate(monos):
                    assert all(_shared(a, b) <= 1 for b in monos[:i]), (m, n, eq.family)
                checked += 1
    assert checked > 4000


_VALUES = [Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]
_values = st.sampled_from(_VALUES)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(ORACLE_TYPES + [(3, 4), (3, 8)]), st.data())
def test_may_be_affine_is_exactly_what_a_reduction_finds(mn, data):
    # batches of assignments, zeros included, to the unknowns of one
    # equation.  Before each batch's evaluation, `may_be_affine` must say
    # False exactly when the reference reduction of the written equation
    # leaves a form that is not affine; its memo of the last blocker
    # carries over from batch to batch, as in the solve.  When it says
    # True, the evaluation read over Q is that reduction
    m, n = mn
    deg_q = _deg_q(m, n)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] + [1])
    g = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] + [-2])
    equations = _eqs(f, g, m, n)
    eq = data.draw(st.sampled_from(equations))
    unknowns = sorted({v for mono in _expr(eq) for v in mono})
    assign = {}
    for _ in range(data.draw(st.integers(1, 4))):
        for v in data.draw(st.lists(st.sampled_from(unknowns), min_size=1, max_size=3)):
            assign.setdefault(v, data.draw(_values))
        reduced = _over_q(eq, assign)
        may = eq.may_be_affine(_held(eq, assign)[0])
        assert may == all(len(mono) <= 1 for mono in reduced)
        if may:
            assert _evaluate(eq, assign) == reduced


_fracs = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
                          Fraction(-3, 4), Fraction(5, 3)])
_nonzero_fracs = st.sampled_from([Fraction(1), Fraction(-2), Fraction(2, 3), Fraction(-3, 4)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_evaluation_matches_the_reference_reduction(data):
    # a type with m <= 6 and n != 2m+1, fractional f and g with zero
    # coefficients, and a partial assignment with zeros in it.  For every
    # equation, `may_be_affine` is true exactly when the reference reduction
    # of the written equation is affine; then the evaluation read over Q is
    # that reduction, and otherwise evaluating raises
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 2 * m + 4).filter(lambda n: n != 2 * m + 1))
    f = Poly(data.draw(st.lists(_fracs, min_size=m, max_size=m)) + [data.draw(_nonzero_fracs)])
    g = Poly(data.draw(st.lists(_fracs, min_size=n, max_size=n)) + [data.draw(_nonzero_fracs)])
    deg_q = _deg_q(m, n)
    free = data.draw(st.integers(1, 8))
    drawn = data.draw(st.lists(st.sampled_from([None] * free + _VALUES),
                               min_size=m + deg_q + 3, max_size=m + deg_q + 3))
    assign = {v: value for v, value in enumerate(drawn) if value is not None}
    for eq in _eqs(f, g, m, n):
        reduced = _over_q(eq, assign)
        affine = all(len(mono) <= 1 for mono in reduced)
        assert eq.may_be_affine(_held(eq, assign)[0]) == affine, (eq.family, eq.degree)
        if affine:
            assert _evaluate(eq, assign) == reduced, (eq.family, eq.degree)
        else:
            with pytest.raises(ValueError, match="is not affine"):
                _evaluate(eq, assign)


def test_evaluating_a_term_with_two_unassigned_unknowns_raises():
    # a term left with two unassigned unknowns, counted with multiplicity,
    # and a nonzero coefficient cannot be skipped: the evaluation raises.
    # One that holds an unknown assigned 0 vanishes
    expr = {(0, 2, 7): -1, (0, 1): 2, (7,): 3}
    eq = _written("g-identity", 4, expr, 1)
    for assign in [{1: Fraction(1)}, {1: Fraction(1), 2: Fraction(5)}]:
        with pytest.raises(ValueError, match="g-identity x\\^4 is not affine"):
            _evaluate(eq, assign)
    assert _evaluate(eq, {1: Fraction(1), 2: Fraction(0)}) == {(0,): 2, (7,): 3}
    square = _written("g-identity", 2, {(0, 0, 7): 1, (7,): 1}, 1)
    with pytest.raises(ValueError, match="is not affine"):
        _evaluate(square, {7: Fraction(1, 2)})
    assert _evaluate(square, {0: Fraction(2)}) == {(7,): 5}


def test_an_unknown_assigned_zero_can_make_an_equation_affine():
    # -p0 p2 q3 holds two unassigned unknowns, but p2 = 0 drops it
    expr = {(0, 2, 7): -1, (0, 1): 2, (7,): 3}
    eq = _written("g-identity", 4, expr, 1)
    assert not eq.may_be_affine([None, 1, 5, None, None, None, None, None])
    vals = [None, 1, 0, None, None, None, None, None]
    assert eq.may_be_affine(vals)
    eq.evaluate(vals, (1, 1, 1, 1))
    assert (eq.const, eq.lin) == (0, {0: 2, 7: 3})
    # P = x^3 - x, Q = x^6 - x^4, type (2,3): p2 = 0 and q5 = 0 are assigned
    # before the last affine block, and they make g-identity x^4 affine in
    # q3 and p0, so it enters that block; a test that ignored the zeros
    # would leave it out
    out = _roundtrip(HyperellipticCurve(P=parse_poly("x^3 - x"), Q=parse_poly("x^6 - x^4")))
    last = out.schedule[-1]
    assert last["unknowns"] == ["q3", "p0"]
    assert last["equations"] == ["f-identity x^5", "f-identity x^3", "g-identity x^8",
                                 "g-identity x^6", "g-identity x^4"]


def test_may_be_affine_resumes_after_the_monomial_that_blocked(monkeypatch):
    # a monomial that stops blocking never blocks again, since the
    # assignment only grows: the last blocker is tried first, and the scan
    # goes on after it, so no monomial is examined once it has stopped
    # blocking.  The scan runs over the written monomials, so an
    # evaluation does not start it over
    examined = []
    blocks = recover._blocks
    monkeypatch.setattr(recover, "_blocks",
                        lambda mono, vals: examined.append(mono) or blocks(mono, vals))
    eq = _written("g-identity", 4, {(0, 1, 7): 1, (2, 8): 2, (9,): 3}, 1)
    vals = [None] * 10
    assert not eq.may_be_affine(vals)
    vals[0] = 2
    assert not eq.may_be_affine(vals)
    assert examined == [(0, 1, 7), (0, 1, 7)]
    examined.clear()
    vals[1] = 1
    assert not eq.may_be_affine(vals)
    assert examined == [(0, 1, 7), (2, 8)]
    examined.clear()
    vals[8] = 1
    assert eq.may_be_affine(vals)
    assert examined == [(2, 8)]
    eq.evaluate(vals, (1, 1, 1, 1))
    assert (eq.const, eq.lin) == (0, {7: 2, 2: 2, 9: 3})
    vals[9] = 1
    assert eq.may_be_affine(vals) and examined == [(2, 8)]


def test_no_reduction_is_wasted_on_an_equation_that_stays_non_affine(monkeypatch):
    # through whole solves of both branches, with and without a curve, an
    # equation is evaluated only when it comes out affine (evaluating one
    # that is not raises): one that must stay non-affine is left
    # unevaluated until it can help.  It is evaluated at most once per
    # call, and only substituted into after that
    evaluate = _Equation.evaluate
    evaluations = []

    def checked(eq, vals, powers):
        evaluate(eq, vals, powers)
        evaluations.append(eq)

    monkeypatch.setattr(_Equation, "evaluate", checked)
    for P, Q in [("(x-1)(x-2)(x+5)", "-5(x-1)(x-2)(x+5)^5"),
                 ("(x-1)(x-2)(x-3)(x-4)(x+5)", "(x-1)(x-2)(x-3)(x-4)(x+5)^6"),
                 ("(x-1/2)(x+2)(2/3x+1)", "4/9(x-1/2)^3(x+2)^3"),
                 ("x^3 - x", "x^6 - x^4")]:
        _roundtrip(HyperellipticCurve(P=parse_poly(P), Q=parse_poly(Q)))
    for f, g in [("2x+1", "x^4+x+1"), ("x^2+1", "x^4+x"),
                 ("2/3x^2-4x+1", "-2/3x^7+7/2x^6-5/3x^4-2x^3-5x^2-6x+2")]:
        out = recover_curve(LienardSystem(f=parse_poly(f), g=parse_poly(g)))
        assert not out.found and out.witness is not None
    assert len(evaluations) > 100
    # the list keeps every equation of every call alive, so no id is reused
    assert len({id(eq) for eq in evaluations}) == len(evaluations)


# -- the reference solve ---------------------------------------------------------
# The solve as it ran while every equation was evaluated afresh after each
# assignment to an unknown it holds: an equation held as a dict assignment,
# a stale flag that every such assignment sets, and a holder index from
# each unknown to the equations that hold it.  Kept verbatim as the
# reference the solve's outcomes must agree with.


def _ref_blocks(mono: Mono, vals: dict[int, int]) -> bool:
    free = 0
    for v in mono:
        if v not in vals:
            free += 1
        elif not vals[v]:
            return False
    return free > 1


class _RefEquation:
    __slots__ = ("family", "degree", "monos", "coeffs", "unknowns", "data", "den", "top",
                 "affine", "scale", "stale", "block", "scan")

    def __init__(self, family: str, degree: int, monos: tuple[Mono, ...],
                 coeffs: tuple[int, ...], unknowns: Sequence[int], data: Sequence[int],
                 den: int):
        self.family = family
        self.degree = degree
        self.monos = monos
        self.coeffs = coeffs
        self.unknowns = unknowns
        self.data = data
        self.den = den
        self.top = 3 if family == "g-identity" else 2
        self.affine = None
        self.scale = None
        self.stale = True
        self.block = None
        self.scan = iter(monos)

    def may_be_affine(self, vals: dict[int, int]) -> bool:
        if self.block is not None and _ref_blocks(self.block, vals):
            return False
        for mono in self.scan:
            if _ref_blocks(mono, vals):
                self.block = mono
                return False
        self.block = None
        return True

    def evaluate(self, vals: dict[int, int], powers: tuple[int, ...]) -> None:
        top = self.top
        den = self.den
        const = data = 0   # the constant terms of the row, and of the data
        lin: dict[int, int] = {}
        low = powers[top - 1]
        for v, c in zip(self.unknowns, self.data):
            if v in vals:
                data += c * vals[v]
            elif c:
                lin[v] = lin.get(v, 0) + c * low
        for mono, c in zip(self.monos, self.coeffs):
            free = None
            for v in mono:
                if v in vals:
                    c *= vals[v]
                elif free is None:
                    free = v
                else:
                    free = -1   # a second unassigned unknown
            if not c:
                continue
            size = len(mono)
            if size < top:
                c *= powers[top - size]
            if free is None:
                const += c
            elif free < 0:
                raise ValueError(f"{self.family} x^{self.degree} is not affine: {mono}")
            else:
                lin[free] = lin.get(free, 0) + c * den
        D = powers[1]
        self.affine = (const * den + data * low, {v: c * D for v, c in lin.items() if c})
        self.scale = den * powers[top]
        self.stale = False


def ref_recover_curve(sys: LienardSystem) -> RecoveryOutcome:
    m, n = sys.m, sys.n
    if n == 2 * m + 1:
        raise UndeterminedType(f"type ({m},{n}) has n = 2m+1; curve may not be unique")
    deg_q = n + 1 if n > 2 * m + 1 else 2 * m + 2
    f, g = sys.f, sys.g
    a_m = f.leading()
    b_n = g.leading()

    q_first = m + 2   # p_0..p_{m+1}, then q_0..q_{deg_q}

    def pname(v: int) -> str:
        return f"p{v}" if v < q_first else f"q{v - q_first}"

    equations = [_RefEquation(eq.family, eq.degree, eq.monos, eq.coeffs, eq.unknowns, eq.data,
                              eq.den) for eq in _equations(recover._PLANS.get(m, n, deg_q), f, g)]
    holders: dict[int, list[int]] = {}
    for k, eq in enumerate(equations):
        for v in {v for mono in eq.monos for v in mono}.union(eq.unknowns):
            holders.setdefault(v, []).append(k)

    # the assignment: unknown v is vals[v] / D, and powers[i] = D^i
    vals: dict[int, int] = {}
    D = 1
    powers = (1, 1, 1, 1)

    def set_var(var: int, value: Fraction) -> None:
        nonlocal D, powers
        grow = value.denominator // gcd(D, value.denominator)
        if grow != 1:
            for v in vals:
                vals[v] *= grow
            D *= grow
            powers = (1, D, D * D, D * D * D)
        vals[var] = value.numerator * (D // value.denominator)
        for k in holders.get(var, ()):
            equations[k].stale = True

    schedule: list[dict] = []
    # seeds from the top-degree comparisons
    if n > 2 * m + 1:
        set_var(m + 1, 2 * a_m / (2 * m + n + 3))
        set_var(q_first + n + 1, -2 * b_n / (n + 1))
        schedule.append({"unknowns": [f"p{m+1}", f"q{n+1}"],
                         "equations": ["seed f-identity top", "seed g-identity top"],
                         "pivots": [str(2 * m + n + 3), str(n + 1)]})
    else:
        set_var(m + 1, a_m / (2 * (m + 1)))
        schedule.append({"unknowns": [f"p{m+1}"],
                         "equations": ["seed f-identity top"],
                         "pivots": [str(2 * (m + 1))]})

    n_unknowns = q_first + deg_q + 1

    while len(vals) < n_unknowns:
        # single-unknown equations first: these are the schedule steps the
        # uniqueness argument walks through explicitly.  An equation later
        # in the pass sees the assignments made earlier in it
        progressed = False
        affine_rows: list[tuple[_RefEquation, int, dict[int, int]]] = []
        for eq in equations:
            if eq.stale:
                if not eq.may_be_affine(vals):
                    continue
                eq.evaluate(vals, powers)
            const, lin = eq.affine
            if not lin:
                if const:
                    return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                           schedule=tuple(schedule))
                continue
            if len(lin) == 1:
                (var, coeff), = lin.items()
                set_var(var, Fraction(-const, coeff))
                schedule.append({"unknowns": [pname(var)],
                                 "equations": [f"{eq.family} x^{eq.degree}"],
                                 "pivots": [str(Fraction(coeff, eq.scale))]})
                progressed = True
            else:
                affine_rows.append((eq, const, lin))
        if progressed:
            continue

        # joint elimination over every equation that is affine right now;
        # variables whose reduced row pins them uniquely get assigned
        outcome = _affine_block_solve(affine_rows)
        if isinstance(outcome, tuple):
            return RecoveryOutcome(None, False, witness=outcome,
                                   schedule=tuple(schedule))
        if not outcome:
            raise DegenerateLeadingCoefficient(
                f"solve stalled with {n_unknowns - len(vals)} unknowns left; "
                "a pivot the uniqueness argument assumes nonzero vanished"
            )
        for var, value in outcome:
            set_var(var, value)
        schedule.append({"unknowns": [pname(var) for var, _ in outcome],
                         "equations": [f"{eq.family} x^{eq.degree}" for eq, _, _ in affine_rows],
                         "pivots": ["affine block elimination"]})

    # full verification of both identities: every unknown is assigned, so
    # each equation evaluates to a constant, and `equations` is already in
    # witness priority order
    for eq in equations:
        if eq.stale:
            eq.evaluate(vals, powers)
        if eq.affine[0]:
            return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                   schedule=tuple(schedule))

    P = Poly.from_int_form([vals[i] for i in range(q_first)], D)
    Q = Poly.from_int_form([vals[q_first + i] for i in range(deg_q + 1)], D)
    if Q.is_zero():
        return RecoveryOutcome(None, False, witness=("g-identity", 0), schedule=tuple(schedule))
    curve = HyperellipticCurve(P=P, Q=Q)
    return RecoveryOutcome(curve, True, schedule=tuple(schedule))


def _either(solve, sys):
    """The outcome of solve(sys), or the type and message of what it raised."""
    try:
        return solve(sys)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_ZERO_HEAVY = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2),
                                                   Fraction(1, 2), Fraction(-2, 3)])
_ROOTS = st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])


@st.composite
def _zero_heavy_systems(draw):
    """A system of type (m, n) with m <= 6 and n != 2m+1 whose recovery
    assigns unknowns 0: f and g drawn from a set heavy in 0, or the system
    of a curve P = R T, Q = c R_1^e_1 ... R_k^e_k with R the product of the
    linear factors R_i, their roots among 0, +-1, +-2 and +-1/2, and T
    drawn from that set.  A curve of the kind n > 2m+1 has deg Q > 2 deg P;
    one of the kind n < 2m+1 has deg Q = 2 deg P and c = lc(P)^2."""
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
# the three no-curve systems that CI reconstructs: (1,4) fails at f-identity
# x^0, (2,4) goes through degree-match and an affine block, and the third
# has fractional f and g
@example(_system("2x+1", "x^4+x+1"))
@example(_system("x^2+1", "x^4+x"))
@example(_system("2/3x^2-4x+1", "-2/3x^7+7/2x^6-5/3x^4-2x^3-5x^2-6x+2"))
# p2 = 0 and q5 = 0 make g-identity x^4 affine, and it enters the last block
@example(_curve_system("x^3 - x", "x^6 - x^4"))
# the pass that assigns the last unknown meets the witness after it
@example(_system("2x+1/2", "2x^5+2x^3+2x^2+x+1/2"))
def test_the_solve_gives_the_reference_outcome(sys):
    # the whole `RecoveryOutcome` (curve, verified, witness, and the
    # schedule with every pivot), or the same exception
    assert _either(recover_curve, sys) == _either(ref_recover_curve, sys)


def test_the_late_witness_comes_after_every_unknown_is_assigned():
    # the example above: its schedule assigns every unknown of type (1,5)
    # before the witness is met
    late = recover_curve(_system("2x+1/2", "2x^5+2x^3+2x^2+x+1/2"))
    assigned = sorted(u for step in late.schedule for u in step["unknowns"])
    assert assigned == sorted([f"p{i}" for i in range(3)] + [f"q{j}" for j in range(7)])
    assert not late.found and late.witness == ("f-identity", 0)


def test_a_blocked_equation_is_checked_again_only_after_its_monomial_changes(monkeypatch):
    # when `may_be_affine` is asked again about an equation it found
    # blocked, an unknown of the blocking monomial that was unassigned then
    # has been assigned since, 0 included
    may_be_affine = _Equation.may_be_affine
    blocked = {}
    calls = []

    def checked(eq, vals):
        if id(eq) in blocked:
            _, waiting = blocked.pop(id(eq))
            assert any(vals[v] is not None for v in waiting), (eq.family, eq.degree)
        may = may_be_affine(eq, vals)
        calls.append(may)
        if not may:
            # eq is kept alive, so that no other equation takes its id
            blocked[id(eq)] = eq, [v for v in eq.block if vals[v] is None]
        return may

    monkeypatch.setattr(_Equation, "may_be_affine", checked)
    for sys in [_curve_system("x^3 - x", "x^6 - x^4"),
                _curve_system("(x-1)(x-2)(x-3)(x-4)(x+5)", "(x-1)(x-2)(x-3)(x-4)(x+5)^6"),
                _system("x^2+1", "x^4+x"), _system("2x+1/2", "2x^5+2x^3+2x^2+x+1/2")]:
        blocked.clear()
        recover_curve(sys)
    assert False in calls and True in calls


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(ORACLE_TYPES + [(3, 4), (3, 8)]), st.data())
def test_substitution_matches_the_reference_reduction(mn, data):
    # an equation evaluated once, as soon as `may_be_affine` lets it
    # through, and substituted into for every later assignment, zeros
    # included, read over Q is the reference reduction of the written
    # equation under the whole assignment, and every coefficient stays an
    # int over a positive int scale
    m, n = mn
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] + [1])
    g = Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] + [-2])
    eq = data.draw(st.sampled_from(_eqs(f, g, m, n)))
    unknowns = sorted({v for mono in _expr(eq) for v in mono})
    order = data.draw(st.permutations(unknowns))
    assign = {}
    for v in order:
        value = assign[v] = data.draw(_values)
        if eq.lin is None:
            if eq.may_be_affine(_held(eq, assign)[0]):
                _evaluate(eq, assign)
        elif v in eq.lin:
            eq.substitute(v, value.numerator, value.denominator)
        if eq.lin is not None:
            assert _form(eq) == _over_q(eq, assign) and eq.scale > 0
    assert eq.lin == {}


# -- the size limit -------------------------------------------------------------


def test_term_bound_holds_for_dense_data():
    # f and g with no zero coefficient write every data term they can
    for m in range(1, 13):
        for n in range(1, 2 * m + 7):
            if n == 2 * m + 1:
                continue
            written = sum(len(_expr(eq)) for eq in _eqs(
                Poly([1] * (m + 1)), Poly([1] * (n + 1)), m, n))
            assert written <= _term_bound(m, n, _deg_q(m, n)), (m, n)


def test_a_type_above_max_terms_is_refused_before_anything_is_built(monkeypatch):
    monkeypatch.setattr(recover, "_equations", None)   # never reached
    monkeypatch.setattr(recover, "_build_plan", None)
    sys = LienardSystem(f=parse_poly("x^300"), g=parse_poly("x^450"))
    with pytest.raises(TooManyTerms, match="above MAX_TERMS = 2,000,000"):
        recover_curve(sys)
    assert _term_bound(100, 150, _deg_q(100, 150)) <= MAX_TERMS


# -- the per-type plan ----------------------------------------------------------


def _plan_types(top_m):
    return [(m, n) for m in range(top_m + 1) for n in range(1, 2 * m + 7) if n != 2 * m + 1]


def _data_variants(m, n):
    """Dense, sparse and fractional (f, g) of type (m, n)."""
    rng = random.Random(1000 * m + n)
    yield Poly([1] * (m + 1)), Poly([1] * (n + 1))
    yield Poly([0] * m + [3]), Poly([5] + [0] * (n - 1) + [-1])
    yield (Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
                + [Fraction(rng.choice([-3, 1, 5]), rng.randint(1, 4))]),
           Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                + [Fraction(rng.choice([-2, 1, 7]), rng.randint(1, 4))]))


def test_plan_rows_and_data_terms_give_the_reference_equations():
    # every type with m <= 12, n <= 2m+6 and n != 2m+1, with dense, sparse
    # and fractional data: the same equations in the same order, each with
    # the same family, degree and den, its row the reference's terms of two
    # or more unknowns in order, and its nonzero data terms the reference's
    # terms of one unknown in order
    checked = 0
    for m, n in _plan_types(12):
        for f, g in _data_variants(m, n):
            got = _eqs(f, g, m, n)
            ref = ref_equations(f, g, m, n, _deg_q(m, n))
            assert [(e.family, e.degree, e.den) for e in got] == [
                (family, d, den) for family, d, _, den in ref], (m, n)
            for eq, (_, _, expr, _) in zip(got, ref):
                assert list(zip(eq.monos, eq.coeffs)) == [
                    (mono, c) for mono, c in expr.items() if len(mono) > 1]
                assert [((v,), c) for v, c in zip(eq.unknowns, eq.data) if c] == [
                    (mono, c) for mono, c in expr.items() if len(mono) == 1]
                assert all(type(c) is int for c in eq.data)
                checked += 1
    assert checked > 20000


def test_each_plan_row_takes_one_slice_of_its_data():
    # every unknown of a data term lies among its row's unknowns, but for
    # degree-match's q_d; a row's data unknowns are as many as its slice
    # of the data list, and the plan counts its row terms
    for m, n in _plan_types(12):
        plan = _build_plan(m, n, _deg_q(m, n))
        for family, d, monos, _, unknowns, start, stop in plan.rows:
            row = {v for mono in monos for v in mono}
            assert set(unknowns) <= row or (family, list(unknowns)) == (
                "degree-match", [m + 2 + d]), (m, n, family, d)
            assert len(unknowns) == stop - start
        assert plan.terms == sum(len(row[2]) for row in plan.rows)


def _outcome(out):
    curve = out.curve and (out.curve.P, out.curve.Q)
    return out.found, out.witness, out.schedule, curve


_small_fracs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 4))
_leads = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def _curve_systems(draw):
    """The system of a curve (P, Q) with sqfree(Q) | P, as roundtrip draws
    them: Q a signed product of powers of linear factors of P."""
    roots = draw(st.lists(st.integers(-4, 6), min_size=2, max_size=4, unique=True))
    P = Poly([1])
    for r in roots:
        P = P * Poly([-r, 1])
    for c in draw(st.lists(_small_fracs, max_size=2)):
        P = P * Poly([c, 1])
    Q = Poly([draw(_leads)])
    for r in roots:
        Q = Q * Poly([-r, 1]) ** draw(st.integers(1, 4))
    return derive_system(HyperellipticCurve(P=P, Q=Q))


def _system_of_type(draw, m, n):
    return LienardSystem(f=Poly(draw(st.lists(_small_fracs, min_size=m, max_size=m))
                                + [draw(_leads)]),
                         g=Poly(draw(st.lists(_small_fracs, min_size=n, max_size=n))
                                + [draw(_leads)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_kept_plan_gives_each_system_its_own_answer(data):
    # recovering A, then B of the same type, then A again: the second
    # recovery of A reads the plan that A's first recovery built and B's
    # used, and must give A's first answer.  A is the system of a curve or
    # a random system of a type that roundtrip draws, B a random system
    if data.draw(st.booleans()):
        a = data.draw(_curve_systems())
    else:
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(m + 1, 2 * m + 4).filter(lambda n: n != 2 * m + 1))
        a = _system_of_type(data.draw, m, n)
    assume(a.n != 2 * a.m + 1)
    b = _system_of_type(data.draw, a.m, a.n)
    memo = _PlanMemo(PLAN_TERMS)
    with mock.patch.object(recover, "_PLANS", memo):
        first = _outcome(recover_curve(a))
        plan = memo.plans[a.type]
        recover_curve(b)
        assert _outcome(recover_curve(a)) == first
        assert list(memo.plans.items()) == [(a.type, plan)]
    assert _outcome(recover_curve(a)) == first


def test_a_type_above_the_plan_budget_leaves_no_plan(monkeypatch):
    # f = x^120, g = x^180 holds 1.95 million row terms: its plan is built
    # for the call and dropped, and the memo stays within its budget.  A
    # small type recovered again afterwards is a hit
    assert _term_bound(120, 180, 181) > PLAN_TERMS
    out = recover_curve(LienardSystem(f=parse_poly("x^120"), g=parse_poly("x^180")))
    assert not out.found
    memo = recover._PLANS
    assert (120, 180) not in memo.plans
    assert memo.terms == sum(plan.terms for plan in memo.plans.values()) <= PLAN_TERMS
    small = LienardSystem(f=parse_poly("2x+1"), g=parse_poly("x^4+x+1"))
    first = _outcome(recover_curve(small))
    built = []
    build = recover._build_plan
    monkeypatch.setattr(recover, "_build_plan", lambda *args: built.append(args) or build(*args))
    assert _outcome(recover_curve(small)) == first
    assert built == [] and (1, 4) in memo.plans


def test_the_plan_memo_keeps_the_most_recent_plans_within_its_budget():
    # a budget of three plans: the least recently used plan goes first,
    # the terms stay counted, and plans kept since the last eviction hold
    # equal rows once
    types = [(3, 4), (3, 5), (3, 6), (3, 8), (3, 9)]
    sizes = {t: _build_plan(*t, _deg_q(*t)).terms for t in types}
    memo = _PlanMemo(sizes[(3, 4)] + sizes[(3, 6)] + sizes[(3, 8)])
    plans = {t: memo.get(*t, _deg_q(*t)) for t in types[:3]}
    assert list(memo.plans) == types[:3]
    assert memo.terms == sizes[(3, 4)] + sizes[(3, 5)] + sizes[(3, 6)] <= memo.budget
    # the rows of (3,4) and (3,5), both with deg Q = 8, are the same objects
    assert plans[(3, 4)].rows[0][2] is plans[(3, 5)].rows[0][2]
    assert memo.get(3, 4, 8) is plans[(3, 4)]
    memo.get(3, 8, 9)
    assert list(memo.plans) == [(3, 6), (3, 4), (3, 8)] and memo.shared == {}
    assert memo.terms == memo.budget
    for t in types:
        plan = memo.get(*t, _deg_q(*t))
        assert plan.rows == _build_plan(*t, _deg_q(*t)).rows
        assert memo.terms == sum(p.terms for p in memo.plans.values()) <= memo.budget


def test_threads_sharing_the_plan_memo_keep_its_count():
    # more threads than cores, a short switch interval and a budget of a
    # few plans, so lookups, insertions and evictions interleave: a lost
    # update would leave the count of kept terms off their sum
    types = [(m, n) for m in range(1, 5) for n in range(m + 1, 2 * m + 5) if n != 2 * m + 1]
    sizes = {t: _build_plan(*t, _deg_q(*t)).terms for t in types}
    memo = _PlanMemo(3 * max(sizes.values()))
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(200):
                m, n = rng.choice(types)
                assert memo.get(m, n, _deg_q(m, n)).terms == sizes[(m, n)]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.terms == sum(plan.terms for plan in memo.plans.values()) <= memo.budget
