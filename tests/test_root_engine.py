"""The Sturm engine behind certification, `count_roots` and the family
screens, checked against the discrimination-matrix route and against
sympy."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercycles import polyx, rootclass
from hypercycles.families import (
    construct,
    construct_case_i,
    construct_high_n,
    construct_n_2m,
)
from hypercycles.lienard import HyperellipticCurve, certify
from hypercycles.polyx import (
    Poly,
    int_coeffs,
    int_derivative,
    int_key,
    int_remainder_sequence,
    parse_poly,
    poly_gcd,
    squarefree_part,
)
from hypercycles.rootclass import (
    RootCount,
    _chain_signs,
    _root_exponent,
    _sign_at,
    _sign_dyadic,
    _sturm_chain_int,
    all_roots_real_simple,
    count_roots,
    discriminant_sequence,
    distinct_real_roots,
    isolate_real_roots,
    revised_sign_list,
    sign_list,
    sturm_count,
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

# its sign list [1, 0, -1, 1, 1, 1] has an interior zero, so its count needs
# the revised list
_DEFECTIVE = parse_poly("1/4x^6-2/3x^3+4x^2+4x+1/3")


def _discrimination_count(p: Poly) -> RootCount:
    """Yang's count from the revised sign list of the discriminant sequence:
    the discrimination-matrix route, which shares nothing with the Sturm
    chain that `count_roots` reads."""
    return RootCount.from_revised(revised_sign_list(sign_list(discriminant_sequence(p))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polys)
def test_sturm_count_at_infinity_matches_discrimination(p):
    rc = _discrimination_count(p)
    assert distinct_real_roots(p) == rc.distinct_real
    expected = rc.imaginary_pairs == 0 and rc.distinct_real == p.degree
    assert all_roots_real_simple(p) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polys)
@example(_DEFECTIVE)
def test_count_roots_matches_the_discrimination_route(p):
    assert count_roots(p) == _discrimination_count(p)


def test_defective_sign_list_is_counted_after_revision():
    signs = sign_list(discriminant_sequence(_DEFECTIVE))
    assert signs == [1, 0, -1, 1, 1, 1]
    assert revised_sign_list(signs) == [1, -1, -1, 1, 1, 1]
    assert count_roots(_DEFECTIVE) == RootCount(distinct_real=2, imaginary_pairs=2)


def test_count_roots_runs_no_subresultant_pass(monkeypatch):
    def refuse(p, q):
        raise AssertionError("the signed subresultant recurrence ran")

    monkeypatch.setattr(rootclass, "_signed_subresultant_coeffs", refuse)
    p = parse_poly("(x-1)^2 (x^2+1)(3x+7)")
    assert count_roots(p) == RootCount(distinct_real=2, imaginary_pairs=1)
    assert distinct_real_roots(p) == 2 and not all_roots_real_simple(p)


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


# -- signs beyond a root bound -----------------------------------------------


def _probe_points(e: int, k: int) -> list[Fraction]:
    """Points at, just around, far beyond and inside the bound 2**e, on both
    sides of 0."""
    edge = Fraction(2) ** e
    tiny = Fraction(1, 2**k)
    points = [edge, edge + tiny, edge - tiny, edge * 2**40 + Fraction(1, 3),
              Fraction(0), edge / 3, Fraction(1, 7)]
    return points + [-x for x in points]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_polys, st.integers(0, 20))
def test_bounded_signs_match_horner(p, k):
    chain = _sturm_chain_int(p)
    for e in {end[0] for end in chain.ends}:
        for x in _probe_points(e, k):
            signs = [_sign_at(c, x.numerator, x.denominator) for c in chain]
            assert _chain_signs(chain, x.numerator, x.denominator) == signs


def test_root_exponent_bounds_every_complex_root():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(1916)
    polys = [parse_poly(t) for t in (
        "1000x - 1", "x^4 - 1000000x^2 + 1", "1000000000x^2 + 1", "x^5",
        "x^7 - 2", "(x^2-2)(x^3-3x+1)(x^2+1)", "(x - 1/3)^3 (x + 40)^2")]
    for _ in range(40):
        polys.append(Poly([Fraction(rng.randint(-10**rng.randint(0, 9), 10**6),
                                    rng.randint(1, 10**rng.randint(0, 4)))
                           for _ in range(rng.randint(2, 12))] + [rng.choice([-7, 1, 3])]))
    members = []
    for p in polys:
        members.append(p.int_form()[0])
        members.extend(_sturm_chain_int(p)[:-1])    # the last is a constant
    for c in members:
        e = _root_exponent(c)
        # the same roots without multiplicity, where nroots converges
        roots = sympy.Poly(list(reversed(c)), x).sqf_part().nroots(n=20, maxsteps=500)
        radius = max((abs(z) for z in roots), default=0)
        assert radius < 2**e
        # and the bound is not vacuous: within a factor 16 deg(c) of the roots
        assert 2**e <= max(1, 16 * (len(c) - 1) * radius)


def test_sturm_count_after_isolation_builds_no_chain():
    # squarefree and not monic: isolation bisects on p's own chain, so the
    # count reads it off the chain memo and starts no remainder sequence
    p = parse_poly("3 (x^2-2)(x^3-3x+1)(x+5)")
    assert len(isolate_real_roots(p)) == 6
    before = int_remainder_sequence.cache_info().misses
    assert sturm_count(p, -10, 10) == 6
    assert int_remainder_sequence.cache_info().misses == before


def _recording_sequences(monkeypatch) -> list:
    """Every vector `rootclass` hands to `int_remainder_sequence` from now
    on, with the chain memo emptied so that chains are built again."""
    seen = []

    def recording(a):
        seen.append(a)
        return int_remainder_sequence(a)

    rootclass._sturm_chain_int.cache_clear()
    monkeypatch.setattr(rootclass, "int_remainder_sequence", recording)
    return seen


def test_sturm_count_after_isolation_starts_no_new_p_dp_sequence(monkeypatch):
    # Yun's gcds run by integer evaluation, and p's chain takes gcd(p, p')
    # from the same kernel, so the (p, p') sequence never runs for this
    # non-squarefree p: only the sequence of its squarefree part does, once,
    # for the chain that isolation bisects on and the count reads again
    seen = _recording_sequences(monkeypatch)
    p = parse_poly("(x^2-2)^2 (x+3)^2")
    assert len(isolate_real_roots(p)) == 3
    before = int_remainder_sequence.cache_info().misses
    assert sturm_count(p, -10, 10) == 3
    assert int_remainder_sequence.cache_info().misses == before
    assert seen == [int_key(int_coeffs(squarefree_part(p)))]
    assert int_key(int_coeffs(p)) not in seen


def test_isolation_after_count_roots_starts_no_new_sequence():
    # count_roots built the chain of the squarefree p, and isolation bisects
    # on that same memoized chain; Yun's gcds run no sequence
    p = parse_poly("7x^5 - 3x^4 - 11x^2 + 2x + 5/3")
    assert count_roots(p) == RootCount(distinct_real=3, imaginary_pairs=1)
    before = int_remainder_sequence.cache_info().misses
    assert len(isolate_real_roots(p)) == 3
    assert int_remainder_sequence.cache_info().misses == before


def test_sturm_count_after_isolating_several_factors_starts_no_new_sequence():
    # Yun splits off (x^2-2)(x+3) and x - 1, but isolation bisects on p's
    # own chain, the sequence of the squarefree part, which the Sturm count
    # reads, so the count starts no sequence
    p = parse_poly("(x-1)^2 (x^2-2)(x+3)")
    assert len(isolate_real_roots(p)) == 4
    before = int_remainder_sequence.cache_info().misses
    assert sturm_count(p, -10, 10) == 4
    assert int_remainder_sequence.cache_info().misses == before
    int_remainder_sequence(int_key(int_coeffs(squarefree_part(p))))
    assert int_remainder_sequence.cache_info().misses == before


@pytest.mark.parametrize("text, mults", [
    ("(x-1)^3 (x^2-2)^2 (x+3)(x^2-5)", [1, 1, 2, 3, 2, 1]),
    ("7x^5 - 3x^4 - 11x^2 + 2x + 5/3", [1, 1, 1]),
])
def test_counting_then_isolating_takes_gcd_p_dp_once(text, mults, monkeypatch):
    # the chain that count_roots builds keeps gcd(a, a') of p's primitive
    # vector a, and isolation starts Yun's algorithm from it instead of
    # taking that gcd again; a squarefree p needs no other gcd at all
    p = parse_poly(text)
    a = int_coeffs(p)
    pair = (a, int_derivative(a))
    seen = []
    gcd = polyx.int_poly_gcd

    def recording(x, y):
        seen.append((list(x), list(y)))
        return gcd(x, y)

    for memo in (rootclass._sturm_chain_int, int_remainder_sequence, poly_gcd):
        memo.cache_clear()
    monkeypatch.setattr(polyx, "int_poly_gcd", recording)
    monkeypatch.setattr(rootclass, "int_poly_gcd", recording)
    count_roots(p)
    roots = isolate_real_roots(p)
    assert [r.multiplicity for r in roots] == mults
    assert seen.count(pair) == 1
    if mults == [1] * len(mults):
        assert seen == [pair]


@pytest.mark.parametrize("m, n", [(10, 17), (9, 19)])
def test_constructions_run_remainder_sequences_on_squarefree_vectors_only(
        monkeypatch, m, n):
    # (10,17) builds a lemma 7 ladder and (9,19) a product family with the
    # factor (x+s)^k in Q: every Q is non-squarefree, yet each sequence runs
    # on a squarefree vector, whose sequence ends at a constant
    seen = _recording_sequences(monkeypatch)
    construct(m, n)
    assert seen
    assert all(len(int_remainder_sequence(a)[-1]) == 1 for a in seen)


# -- signs at dyadic points ------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
       st.integers(-2**50, 2**50), st.integers(0, 40))
def test_dyadic_signs_match_horner(ints, k, j):
    # j = 0 (integers), k <= 0 and points far beyond the root bound included
    assert _sign_dyadic(ints, k, j) == _sign_at(ints, k, 1 << j)
    if ints[-1]:
        chain = _sturm_chain_int(Poly(ints))
        for point in ((k, 1 << j), (-k, 1 << j), (k << 60, 1 << j)):
            assert _chain_signs(chain, *point) == [_sign_at(c, *point) for c in chain]


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
        oracle = _discrimination_count(curve.Q).imaginary_pairs == 0
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
