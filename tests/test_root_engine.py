"""The Sturm engine behind certification and the family screens, checked
against the discrimination-matrix route and against sympy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypercycles.families import construct_case_i, construct_high_n, construct_n_2m
from hypercycles.lienard import HyperellipticCurve, certify
from hypercycles.polyx import Poly, parse_poly
from hypercycles.rootclass import (
    _sturm_chain_int,
    all_roots_real_simple,
    count_roots,
    distinct_real_roots,
    isolate_real_roots,
)

_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_real_factor = st.tuples(_small, st.integers(1, 3)).map(
    lambda t: Poly([-t[0], 1]) ** t[1])
# (x - a)^2 + b^2 with b != 0: a factor with no real root
_imag_factor = st.tuples(
    _small, _small.filter(lambda b: b != 0), st.integers(1, 2)
).map(lambda t: Poly([t[0] ** 2 + t[1] ** 2, -2 * t[0], 1]) ** t[2])
_lead = st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(1), Fraction(7, 3)])


@st.composite
def _factored(draw):
    factors = draw(st.lists(st.one_of(_real_factor, _imag_factor),
                            min_size=1, max_size=5))
    p = Poly([draw(_lead)])
    for f in factors:
        p = p * f
    return p


_dense = st.tuples(st.lists(_small, min_size=1, max_size=8), _lead).map(
    lambda t: Poly(t[0] + [t[1]]))
_polys = st.one_of(_factored(), _dense).filter(lambda p: 1 <= p.degree <= 14)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polys)
def test_sturm_count_at_infinity_matches_discrimination(p):
    rc = count_roots(p)
    assert distinct_real_roots(p) == rc.distinct_real
    expected = rc.imaginary_pairs == 0 and rc.distinct_real == p.degree
    assert all_roots_real_simple(p) == expected


def test_real_simple_predicate_edge_cases():
    assert all_roots_real_simple(parse_poly("(x-1)(x+2)(2x-1)"))
    assert not all_roots_real_simple(parse_poly("(x-1)^2 (x+2)"))
    assert not all_roots_real_simple(parse_poly("(x-1)(x^2+1)"))
    assert not all_roots_real_simple(Poly([3]))
    assert distinct_real_roots(Poly([3])) == 0
    assert distinct_real_roots(parse_poly("-(x-1)^3 (x+1)^2 (x^2+4)")) == 2


def test_memo_returns_shared_immutable_chain():
    a = parse_poly("(x-1)^2 (x+3) (x^2+2)")
    b = Poly(list(a.coeffs))
    assert a is not b and a == b
    chain = _sturm_chain_int(a)
    assert isinstance(chain, tuple)
    assert all(isinstance(member, tuple) for member in chain)
    before = _sturm_chain_int.cache_info().hits
    assert _sturm_chain_int(b) is chain
    assert _sturm_chain_int.cache_info().hits == before + 1


# -- certify's all_roots_real against the discrimination matrix -------------


def _criteria_curves():
    curves = [construct_high_n(m, n).curve
              for m, n in ((2, 5), (3, 7), (4, 9), (5, 11))]
    curves += [construct_n_2m(m).curve for m in (4, 5, 6, 7)]
    curves += [construct_case_i(4, 6).curve, construct_case_i(10, 13).curve]
    return curves


def _imaginary_q_curves():
    # sqfree(Q) | P keeps the derived system polynomial
    out = []
    for p_text, q_text in (
        ("(x-1)(x-2)(x^2+1)", "-(x-1)(x-2)(x^2+1)^2"),
        ("(x-1)(x-2)(x+3)(x^2+x+1)", "-2(x-1)(x-2)(x+3)^2 (x^2+x+1)"),
    ):
        out.append(HyperellipticCurve(P=parse_poly(p_text), Q=parse_poly(q_text)))
    return out


def test_certify_all_roots_real_matches_discrimination_oracle():
    curves = _criteria_curves() + _imaginary_q_curves()
    flags = []
    for curve in curves:
        report = certify(curve)
        oracle = count_roots(curve.Q).imaginary_pairs == 0
        assert report.all_roots_real == oracle
        flags.append(oracle)
    assert True in flags and False in flags


# -- an outside oracle ------------------------------------------------------


def test_count_and_isolation_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(1710)
    for _ in range(60):
        p = Poly([Fraction(rng.choice([-2, -1, 1, 3]))])
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            p = p * Poly([-r, 1]) ** rng.choice([1, 1, 2, 3])
        if rng.random() < 0.5:
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            p = p * Poly([a * a + b * b, -2 * a, 1])
        if rng.random() < 0.5:
            # an irrational pair of real roots
            p = p * Poly([-rng.choice([2, 3, 5, 7]), 0, 1])
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x)

        assert count_roots(p).distinct_real == sp.count_roots()

        roots = isolate_real_roots(p)
        expected = sp.intervals()
        assert len(roots) == len(expected)
        assert [r.multiplicity for r in roots] == [k for _, k in expected]
        for r in roots:
            lo = sympy.Rational(r.lo.numerator, r.lo.denominator)
            hi = sympy.Rational(r.hi.numerator, r.hi.denominator)
            # closed-interval count; endpoints of open intervals are not roots
            assert sp.count_roots(lo, hi) == 1
