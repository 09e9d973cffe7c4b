import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hypercycles.polyx import (
    ONE,
    Poly,
    X,
    int_coeffs,
    parse_poly,
    poly_gcd,
    rref,
    squarefree_decomposition,
    squarefree_part,
)


def P(*coeffs):
    return Poly(coeffs)


def test_add_cancellation():
    assert P(1, 1) + P(-1, 1) == P(0, 2)          # (x+1)+(x-1) = 2x
    p = P(3, 0, 7)
    assert p + Poly() == p                         # p + 0 = p
    assert P(0, 0, 1) + P(0, 0, -1) == Poly()      # annihilation
    assert (P(0, 0, 1) + P(0, 0, -1)).degree == -1


def test_mul_basic():
    assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)       # (x-1)(x+1) = x^2-1
    p = P(2, 5, 1)
    assert p * ONE == p
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2, expanded by hand
    assert P(-1, 1) ** 2 * P(-2, 1) == P(-2, 5, -4, 1)


def test_degree_contract():
    assert (P(1, 1) * P(1, 2, 3)).degree == 3
    assert Poly().degree == -1
    assert P(5).degree == 0


def test_derivative():
    assert P(0, -1, 0, 1).derivative() == P(-1, 0, 3)   # x^3 - x -> 3x^2 - 1
    assert P(42).derivative() == Poly()
    quartic = P(-1, 1) ** 4
    assert quartic.derivative().eval(1) == 0             # repeated root


def test_divrem():
    q, r = P(-1, 0, 1).divrem(P(-1, 1))
    assert q == P(1, 1) and r == Poly()
    q, r = X.divrem(P(0, 0, 1))
    assert q == Poly() and r == X                        # degree underflow
    q, r = P(1, 0, 0, 1).divrem(P(1, 1))                 # (x^3+1)/(x+1), long division
    assert q == P(1, -1, 1) and r == Poly()
    with pytest.raises(ZeroDivisionError):
        ONE.divrem(Poly())


def test_gcd():
    a = P(-1, 1) ** 2 * P(2, 1)
    b = P(-1, 1) * P(3, 1)
    assert poly_gcd(a, b) == P(-1, 1)
    p = P(6, -3, 9)
    assert poly_gcd(p, Poly()) == p.monic()
    assert poly_gcd(P(1, 0, 1), P(2, 0, 1)) == ONE      # coprime


def test_squarefree_part():
    p = P(-1, 1) ** 2 * P(-2, 1)
    assert squarefree_part(p) == (P(-1, 1) * P(-2, 1)).monic()
    q = P(-3, 1) * P(5, 2)
    assert squarefree_part(q) == q.monic()
    assert squarefree_part(P(0, 0, 0, 0, 1)) == X       # x^4 -> x


def test_squarefree_decomposition():
    p = P(-1, 1) ** 2 * P(-2, 1) * P(1, 1) ** 3
    decomp = squarefree_decomposition(p)
    assert dict((k, g) for g, k in decomp) == {
        1: P(-2, 1),
        2: P(-1, 1),
        3: P(1, 1),
    }


def test_eval():
    assert P(-1, 0, 1).eval(2) == 3
    assert (P(-7, 1) * P(2, 3)).eval(7) == 0
    assert P(-2, 5, -4, 1).eval(3) == 4                  # hand arithmetic


def test_parse_coefficient_list():
    assert parse_poly("[1, 0, 1]") == P(1, 0, 1)
    assert parse_poly('["1/2", "-3/4", 2]') == Poly([Fraction(1, 2), Fraction(-3, 4), 2])


def test_parse_expressions():
    assert parse_poly("x^2 + 1") == P(1, 0, 1)
    assert parse_poly("(x - 1)^2 * (x - 2)") == P(-2, 5, -4, 1)
    assert parse_poly("(x - 1/2)*(x + 1/2)") == P(Fraction(-1, 4), 0, 1)
    assert parse_poly("-x") == P(0, -1)
    assert parse_poly("3x") == P(0, 3)
    assert parse_poly("2") == P(2)
    with pytest.raises(ValueError):
        parse_poly("x +")
    with pytest.raises(ValueError):
        parse_poly("y + 1")


@pytest.mark.parametrize(
    "text", ["x^", "3/0", "x + 1/0", '["1/0"]', "[null]", "[1, 2", "(x", "x^-1"])
def test_parse_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_str_roundtrip():
    p = P(Fraction(1, 2), 0, -3, 1)
    assert parse_poly(str(p)) == p


def _random_poly(rng, max_deg=8, min_deg=0):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [
        Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(deg + 1)
    ]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([-3, -1, 1, 2]))
    return Poly(coeffs)


def test_divrem_recovers_quotient_and_remainder():
    rng = random.Random(7)
    for _ in range(120):
        a = _random_poly(rng, 5)
        b = _random_poly(rng, 4, min_deg=1)
        r = _random_poly(rng, b.degree - 1)
        q, rem = (a * b + r).divrem(b)
        assert q == a and rem == r


def test_gcd_with_planted_common_factor():
    rng = random.Random(11)
    for _ in range(60):
        g = _random_poly(rng, 3, min_deg=1)
        a = _random_poly(rng, 3, min_deg=0)
        b = _random_poly(rng, 3, min_deg=0)
        if a.is_zero() or b.is_zero() or poly_gcd(a, b).degree != 0:
            continue
        assert poly_gcd(a * g, b * g) == g.monic()


def test_eval_is_ring_homomorphism():
    rng = random.Random(13)
    a = _random_poly(rng, 6)
    b = _random_poly(rng, 6)
    for _ in range(100):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def test_squarefree_coprime_with_derivative():
    rng = random.Random(17)
    for _ in range(60):
        p = _random_poly(rng, 4, min_deg=1) * _random_poly(rng, 2, min_deg=1) ** 2
        sf = squarefree_part(p)
        if sf.degree >= 1:
            assert poly_gcd(sf, sf.derivative()) == ONE


def _fr(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rref_full_rank_gives_identity_and_solution():
    # x + 2y = 5, 3x + 4y = 6  ->  x = -4, y = 9/2
    rows, pivots = rref(_fr([[1, 2, 5], [3, 4, 6]]))
    assert pivots == [0, 1]
    assert rows == _fr([[1, 0, -4], [0, 1, Fraction(9, 2)]])


def test_rref_singular_system_misses_a_pivot():
    # the second row is twice the first: rank 1, the zero row goes last
    rows, pivots = rref(_fr([[1, 2, 3], [2, 4, 6], [0, 0, 0]]))
    assert pivots == [0]
    assert rows == _fr([[1, 2, 3], [0, 0, 0], [0, 0, 0]])


def test_rref_inconsistent_system_pivots_in_the_constant_column():
    # x + y = 1 and x + y = 2: the reduced rows hold 0 = 1
    rows, pivots = rref(_fr([[1, 1, 1], [1, 1, 2]]))
    assert pivots == [0, 2]
    assert rows == _fr([[1, 1, 0], [0, 0, 1]])


def test_rref_empty_system():
    assert rref([]) == ([], [])


def test_rref_leaves_its_input_alone():
    rows = _fr([[0, 2, 4], [3, 0, 6]])
    before = [list(r) for r in rows]
    rref(rows)
    assert rows == before


# -- the cached integer form ---------------------------------------------------


def _horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _convolve(a, b):
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            out[i + j] += u * v
    return Poly(out)


def test_filled_integer_form_matches_fraction_arithmetic():
    rng = random.Random(41)
    for _ in range(80):
        a, b = _random_poly(rng, 9), _random_poly(rng, 9)
        nums, den = a.int_form()
        assert a.int_form() is a.int_form()        # filled once, then kept
        assert den == lcm(*[c.denominator for c in a.coeffs])
        assert [Fraction(v, den) for v in nums] == list(a.coeffs)
        for _ in range(5):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            assert a.eval(x) == _horner(a, x)
        ints = [int(c * den) for c in a.coeffs]
        assert int_coeffs(a) == [v // gcd(*ints) for v in ints]
        b.int_form()
        assert a * b == _convolve(a, b) == b * a
    zero = Poly()
    assert zero.int_form() == ((), 1)
    assert zero.eval(Fraction(3)) == 0 and int_coeffs(zero) == []
    assert zero * P(1, 2) == Poly() == P(1, 2) * zero


@pytest.mark.parametrize("name", ["coeffs", "_int_form", "degree", "extra"])
def test_poly_attributes_cannot_be_assigned(name):
    p = P(Fraction(1, 2), 3)
    for filled in (False, True):
        if filled:
            p.int_form()
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    assert p.coeffs == (Fraction(1, 2), Fraction(3))


def test_equal_polys_compare_and_hash_equal_with_or_without_the_cache():
    def build():
        return P(Fraction(2, 4), 3, Fraction(-4, 6))

    a, b = build(), build()
    assert a == b and hash(a) == hash(b)
    a.int_form()                                # only a's cache is filled
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    b.eval(Fraction(1, 3))                      # both filled
    assert a == b and hash(a) == hash(b)
    assert a * b == _convolve(build(), build())


def test_hash_is_kept_from_its_first_use():
    p = P(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        p._hash                                 # __init__ leaves it unset
    assert hash(p) == hash(p.coeffs) == p._hash
    assert hash(p) == hash(P(Fraction(1, 2), 3))
    with pytest.raises(AttributeError):
        p._hash = 0


def test_exact_div_in_z_x_matches_fraction_division():
    rng = random.Random(43)
    for _ in range(80):
        a, b = _random_poly(rng, 6), _random_poly(rng, 4)
        assert (a * b).exact_div(b) == a == (a * b).divrem(b)[0]
        if b.degree >= 1:
            with pytest.raises(ValueError):
                (a * b + ONE).exact_div(b)
    assert Poly().exact_div(P(3, 1)) == Poly()
    with pytest.raises(ZeroDivisionError):
        P(3, 1).exact_div(Poly())
