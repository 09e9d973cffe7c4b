"""The integer kernels behind gcd, square-free parts, Yun, Sturm chains,
evaluation and the discrimination minors, checked against reference
`Fraction` Euclid implementations kept here as the oracle, and against
sympy."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hypercycles import polyx
from hypercycles.polyx import (
    ONE,
    Poly,
    _heu_candidate,
    _primitive,
    _prs_gcd,
    int_coeffs,
    int_exact_div,
    int_mul,
    int_poly_gcd,
    int_rem,
    parse_poly,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from hypercycles.rootclass import (
    _int_det,
    _sturm_chain_int,
    discriminant_sequence,
)
from test_rootclass import discrimination_matrix

# -- reference implementations over Fraction (the oracle) --------------------


def ref_gcd(a: Poly, b: Poly) -> Poly:
    f, g = a.primitive(), b.primitive()
    while not g.is_zero():
        f, g = g, f.divrem(g)[1].primitive()
    return f.monic()


def ref_squarefree_part(p: Poly) -> Poly:
    if p.degree == 0:
        return ONE
    return p.exact_div(ref_gcd(p, p.derivative())).monic()


def ref_squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    p = p.monic()
    if p.degree == 0:
        return []
    out = []
    dp = p.derivative()
    a = ref_gcd(p, dp)
    b = p.exact_div(a)
    d = dp.exact_div(a) - b.derivative()
    k = 1
    while b.degree > 0:
        g = ref_gcd(b, d) if not d.is_zero() else b.monic()
        if g.degree > 0:
            out.append((g.monic(), k))
        b2 = b.exact_div(g)
        d = d.exact_div(g) - b2.derivative()
        b = b2
        k += 1
    return out


def _ints(p: Poly) -> tuple[int, ...]:
    return tuple(int(c) for c in p.primitive().coeffs)


def ref_sturm_chain(p: Poly) -> tuple[tuple[int, ...], ...]:
    sf = ref_squarefree_part(p)
    chain = [_ints(sf)]
    dp = sf.derivative()
    if not dp.is_zero():
        chain.append(_ints(dp))
        while len(chain[-1]) > 1:
            r = Poly(chain[-2]).divrem(Poly(chain[-1]))[1]
            if r.is_zero():
                break
            chain.append(_ints(-r))
    return tuple(chain)


def ref_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# -- seeded random polynomials -----------------------------------------------


def _rational(rng):
    return Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3, 5]))


def _random_poly(rng: random.Random) -> Poly:
    """Repeated rational roots, factors with no real root, irrational real
    pairs, dense rational cofactors and negative or rational leads."""
    p = Poly([rng.choice([Fraction(-3), Fraction(-1, 2), Fraction(1),
                          Fraction(7, 3), Fraction(-5, 4)])])
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.5:
            f = Poly([-_rational(rng), 1])
        elif kind < 0.7:
            a, b = _rational(rng), _rational(rng) or Fraction(1)
            f = Poly([a * a + b * b, -2 * a, 1])
        elif kind < 0.85:
            f = Poly([-rng.choice([2, 3, 5, 7]), 0, 1])
        else:
            f = Poly([_rational(rng) for _ in range(rng.randint(2, 4))]
                     + [_rational(rng) or Fraction(1)])
        p = p * f ** rng.choice([1, 1, 2, 3])
    return p


def _random_pair(rng: random.Random) -> tuple[Poly, Poly]:
    common = _random_poly(rng)
    return common * _random_poly(rng), common * _random_poly(rng)


@pytest.fixture(scope="module")
def samples():
    rng = random.Random(1967)
    return [_random_poly(rng) for _ in range(300)]


# -- the polynomial kernels against the Fraction oracle ----------------------


def test_gcd_matches_fraction_euclid():
    rng = random.Random(1971)
    for _ in range(200):
        a, b = _random_pair(rng)
        if a.is_zero() and b.is_zero():
            continue
        assert poly_gcd(a, b) == ref_gcd(a, b)


def test_squarefree_kernels_match_fraction_euclid(samples):
    for p in samples:
        assert squarefree_part(p) == ref_squarefree_part(p)
        assert squarefree_decomposition(p) == ref_squarefree_decomposition(p)


def ref_int_yun(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm on integer vectors written out here, every gcd by
    `int_poly_gcd`, with the sign of p's vector kept as it comes."""
    if p.degree == 0:
        return []

    def derivative(a):
        return [i * c for i, c in enumerate(a)][1:]

    def sub(a, b):
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        while out and out[-1] == 0:
            out.pop()
        return out

    def monic(a):
        return Poly([Fraction(c, a[-1]) for c in a])

    out = []
    a = int_coeffs(p)
    dp = derivative(a)
    g = int_poly_gcd(a, dp)
    b = int_exact_div(a, g)
    d = sub(int_exact_div(dp, g), derivative(b))
    k = 1
    while len(b) > 1:
        g = int_poly_gcd(b, d) if d else b
        if len(g) > 1:
            out.append((monic(g), k))
        b = int_exact_div(b, g)
        d = sub(int_exact_div(d, g), derivative(b))
        k += 1
    return out


def test_squarefree_decomposition_matches_the_int_poly_gcd_yun(samples):
    for p in samples:
        assert squarefree_decomposition(p) == ref_int_yun(p)
        assert squarefree_decomposition(-p) == ref_int_yun(p)


def test_sturm_chain_matches_fraction_chain(samples):
    for p in samples:
        if p.degree >= 1:
            assert _sturm_chain_int(p) == ref_sturm_chain(p)


def test_eval_matches_fraction_horner(samples):
    rng = random.Random(22)
    points = [Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 4),
              Fraction(-22, 9), Fraction(10**12 + 1, 3**20)]
    for p in samples[:100] + [Poly(), Poly([Fraction(-2, 3)])]:
        for x in points + [_rational(rng)]:
            v = p.eval(x)
            assert type(v) is Fraction
            assert v == ref_eval(p, x)
    assert type(parse_poly("x^2 - 2").eval(3)) is Fraction


# -- the integer helpers themselves ------------------------------------------


def test_int_rem_is_a_positive_multiple_of_the_rational_remainder(samples):
    rng = random.Random(5)
    for a in samples[:150]:
        b = rng.choice(samples)
        if b.degree < 1:
            continue
        r = int_rem(int_coeffs(a), int_coeffs(b))
        expected = Poly(int_coeffs(a)).divrem(Poly(int_coeffs(b)))[1]
        assert r == int_coeffs(expected)


def test_int_exact_div_recovers_the_cofactor(samples):
    rng = random.Random(6)
    for p in samples[:150]:
        b = int_coeffs(rng.choice(samples))
        a = int_coeffs(p)
        prod = int_coeffs(Poly(a) * Poly(b))
        assert int_exact_div(prod, b) == a


def test_int_exact_div_raises_when_inexact():
    with pytest.raises(ValueError):
        int_exact_div([1, 0, 1], [1, 1])         # x^2 + 1 by x + 1
    with pytest.raises(ValueError):
        int_exact_div([1, 1], [2, 2])            # quotient 1/2 is not in Z[x]
    with pytest.raises(ValueError):
        int_exact_div([3], [0, 1])               # degree too small, nonzero
    with pytest.raises(ZeroDivisionError):
        int_exact_div([1, 1], [])
    assert int_exact_div([], [1, 1]) == []


def test_gcd_zero_inputs():
    b = parse_poly("-2(x - 1/3)^2 (x + 5)")
    assert poly_gcd(Poly(), b) == b.monic()
    assert poly_gcd(b, Poly()) == b.monic()
    assert poly_gcd(Poly(), Poly([Fraction(-4, 3)])) == ONE
    assert int_poly_gcd([], [6, -4]) == [3, -2]
    assert int_poly_gcd([6, -4], []) == [3, -2]
    assert int_poly_gcd([-5], [1, 1]) == int_poly_gcd([1, 1], [7]) == [1]
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


# -- GCDHEU against the primitive PRS ------------------------------------------

_int_vector = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
    lambda v: v[-1] != 0)


@st.composite
def _planted_pair(draw):
    """a = c * u and b = c * v for integer vectors c, u and v: a pair with
    the common factor c planted, and often more when u and v share one."""
    c, u, v = draw(_int_vector), draw(_int_vector), draw(_int_vector)
    return int_mul(c, u), int_mul(c, v)


def _same_up_to_sign(g, h) -> bool:
    return g == h or g == [-x for x in h]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_planted_pair())
def test_heuristic_gcd_is_the_prs_gcd_up_to_sign(pair):
    a, b = pair
    assert _same_up_to_sign(int_poly_gcd(a, b), _prs_gcd(_primitive(a), _primitive(b)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_planted_pair())
def test_poly_gcd_is_the_monic_gcd_of_sympy(pair):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    a, b = (Poly(v) for v in pair)
    expected = _from_sympy(_to_sympy(sympy, x, a).gcd(_to_sympy(sympy, x, b)))
    assert poly_gcd(a, b) == expected.monic()


def test_without_tries_the_gcd_is_the_prs_gcd(monkeypatch):
    # with no evaluation point to try, every gcd of two nonconstant inputs
    # is the fallback's answer, vector for vector
    monkeypatch.setattr(polyx, "_HEU_TRIES", 0)
    rng = random.Random(31)
    for _ in range(40):
        a, b = (int_coeffs(p) for p in _random_pair(rng))
        if len(a) > 1 and len(b) > 1:
            assert int_poly_gcd(a, b) == _prs_gcd(a, b)


def test_a_wrong_first_candidate_fails_the_division_test(monkeypatch):
    """a = (x - 3)(x + 1) and b = (3x + 1)(x + 1), with the gcd x + 1.

    Found by a search over pairs of primitive integer polynomials of degree
    1 to 3 with coefficients in -3..3, in lexicographic order, for the first
    pair whose candidate at the first evaluation point fails the division
    test: x - 3 and 3x + 1, coprime, where xi = 2 * min(3, 3) + 2 = 8 gives
    gcd(5, 25) = 5, whose digits 8 - 3 read x - 3.  With the common factor
    x + 1 planted, gamma = gcd(45, 225) = 45 reads back as a itself, which
    does not divide b.  The next point, xi = 21, gives x + 1."""
    a, b = int_mul([-3, 1], [1, 1]), int_mul([1, 3], [1, 1])
    assert _heu_candidate(a, b, 8) == a
    with pytest.raises(ValueError):
        int_exact_div(b, a)

    def no_fallback(a, b):
        raise AssertionError("the second point must decide")

    monkeypatch.setattr(polyx, "_prs_gcd", no_fallback)
    assert int_poly_gcd(a, b) == [1, 1]


# -- an outside oracle ------------------------------------------------------


def _to_sympy(sympy, x, p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x, domain="QQ")


def _from_sympy(sp) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])


def test_gcd_and_squarefree_agree_with_sympy(samples):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(1710)
    for _ in range(60):
        a, b = _random_pair(rng)
        expected = _from_sympy(_to_sympy(sympy, x, a).gcd(_to_sympy(sympy, x, b)))
        assert poly_gcd(a, b) == expected.monic()
    for p in samples[:80]:
        _, factors = _to_sympy(sympy, x, p).sqf_list()
        expected = [(_from_sympy(f).monic(), k) for f, k in factors]
        assert squarefree_decomposition(p) == sorted(expected, key=lambda t: t[1])


# -- discrimination minors -----------------------------------------------------


def _leading_dets(rows):
    return [_int_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def _int_matrix(f: Poly) -> list[list[int]]:
    m = discrimination_matrix(f)
    den = lcm(*[c.denominator for row in m for c in row])
    return [[int(c * den) for c in row] for row in m]


def test_minors_continue_bareiss_after_a_zero_pivot():
    for text in ("(x-1)^2 (x+2)", "(x-1)^3 (x+1)^2 (x^2+4)", "x^4 (2x-3)^2",
                 "-(3x+1)^2 (x^2+x+1)^2 (x-5)", "(x^2-2)^3 (x+1/2)"):
        f = parse_poly(text)
        den = lcm(*[c.denominator for row in discrimination_matrix(f) for c in row])
        minors = _leading_dets(_int_matrix(f))
        assert 0 in minors[:-1]
        assert discriminant_sequence(f) == [
            Fraction(minors[2 * k - 1], den ** (2 * k)) for k in range(1, f.degree + 1)]
