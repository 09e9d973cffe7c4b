import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercycles.polyx import (
    ONE,
    Poly,
    ECHO_LIMIT,
    X,
    clip,
    int_coeffs,
    json_scalar,
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
    "text", ["x^", "3/0", "x + 1/0", '["1/0"]', "[null]", "[1, 2", "(x", "x^-1",
             "[0.5, 1]", "[1.0]", "[true, 1]", "[1, false]"])
def test_parse_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_a_value_too_deep_to_show_is_named_not_dumped():
    # json.dumps of a list nested past the recursion limit raises
    # RecursionError; the TypeError names it instead
    deep = []
    for _ in range(100000):
        deep = [deep]
    with pytest.raises(TypeError, match="expected an integer, got a value nested too deeply"):
        json_scalar(deep, "an integer")


# pieces of malformed and well-formed polynomial text: digit runs past
# the int conversion limit, brackets and parentheses nested thousands deep,
# and stray tokens.  Pieces are joined by spaces, so two digit runs never
# make one number and an exponent is one digit at most: a short text cannot
# ask for a long expansion
_text_pieces = st.one_of(
    st.sampled_from(["7" * 300, "7" * 5000, "1" * 3000 + "x"]),
    st.builds(lambda c, k: c * k, st.sampled_from("([)]{\""), st.integers(1, 3000)),
    st.sampled_from(["x", "+", "-", "*", "^", "/", ",", "1", "9", "0", "1/0", "0.5", "true",
                     "null", '"3/2"', "@", "y", "x^", "[1,", '"1/2"]', "x^99999999999"]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_text_pieces, min_size=1, max_size=8).map(" ".join))
@example("[" + '"' + "1" * 3000 + 'x"]')
@example("x" + ")" * 3000)
@example("[" + "[" * 500 + "]" * 500 + "]")
def test_parse_poly_returns_a_poly_or_one_short_complaint(text):
    # whatever the text, parse_poly returns a Poly or raises ValueError, and
    # an echoed piece of the text is cut short: the complaint is one line
    # under 250 bytes, so a CLI usage error, its source named in front,
    # stays under 300
    try:
        p = parse_poly(text)
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message and len(message.encode()) < 250, message[:200]
    else:
        assert isinstance(p, Poly)


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


def _over_q(reduced):
    """The reduced rows over Q that `rref`'s integer rows stand for: each
    pivot row divided by its pivot, its first nonzero entry."""
    rows, pivots = reduced
    over = [[Fraction(v, row[col]) for v in row] for row, col in zip(rows, pivots)]
    return over + _fr(rows[len(pivots):])


def _is_canonical(reduced):
    # each pivot row primitive with a positive pivot, zero in the other
    # pivot columns; the rows below the pivot rows zero
    rows, pivots = reduced
    for r, (row, col) in enumerate(zip(rows, pivots)):
        assert all(type(v) is int for v in row)
        assert gcd(*row) == 1 and row[col] > 0 and not any(row[:col])
        assert all(rows[s][col] == 0 for s in range(len(pivots)) if s != r)
    assert not any(v for row in rows[len(pivots):] for v in row)
    return True


def test_rref_full_rank_gives_identity_and_solution():
    # x + 2y = 5, 3x + 4y = 6  ->  x = -4, y = 9/2
    reduced = rref([[1, 2, 5], [3, 4, 6]])
    assert reduced == ([[1, 0, -4], [0, 2, 9]], [0, 1])
    assert _over_q(reduced) == _fr([[1, 0, -4], [0, 1, Fraction(9, 2)]])


def test_rref_singular_system_misses_a_pivot():
    # the second row is twice the first: rank 1, the zero row goes last
    reduced = rref([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    assert reduced[1] == [0]
    assert _over_q(reduced) == _fr([[1, 2, 3], [0, 0, 0], [0, 0, 0]])


def test_rref_inconsistent_system_pivots_in_the_constant_column():
    # x + y = 1 and x + y = 2: the reduced rows hold 0 = 1
    reduced = rref([[1, 1, 1], [1, 1, 2]])
    assert reduced[1] == [0, 2]
    assert _over_q(reduced) == _fr([[1, 1, 0], [0, 0, 1]])


def test_rref_empty_system():
    assert rref([]) == ([], [])


def test_rref_leaves_its_input_alone():
    rows = [[0, 2, 4], [3, 0, 6]]
    before = [list(r) for r in rows]
    assert rref(rows) == ([[1, 0, 2], [0, 1, 2]], [0, 1])
    assert rows == before


def ref_rref(rows):
    """Gauss-Jordan elimination over Q on `Fraction` rows, the rational
    `rref` the integer kernel replaced: the reference it must agree with.
    Where the pivot row holds a zero, the entries of that column are left
    as they are instead of being divided or updated by zero."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        pv = mat[top][col]
        mat[top] = [v / pv if v else v for v in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                fac = mat[r][col]
                mat[r] = [a - fac * b if b else a for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def _rref_every_entry(rows):
    """Gauss-Jordan elimination that divides and updates every entry of a
    row, zeros included: a second reference, for `ref_rref`'s skipping."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        pv = mat[top][col]
        mat[top] = [v / pv for v in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                fac = mat[r][col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def _int_rows(rows):
    """Each rational row times the lcm of its denominators."""
    out = []
    for row in rows:
        den = lcm(*[v.denominator for v in row])
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def test_rref_matches_the_elimination_that_touches_every_entry():
    # sparse augmented systems, each with a zero column, a row dependent on
    # two others and a row that contradicts it in the last column
    rng = random.Random(15)
    for _ in range(200):
        ncols = rng.randint(3, 7)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4
                 else Fraction(0) for _ in range(ncols)]
                for _ in range(rng.randint(2, 5))]
        zero_col = rng.randrange(ncols - 1)
        for row in rows:
            row[zero_col] = Fraction(0)
        a, b = rng.sample(rows, 2)
        s, t = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 3))
        dependent = [s * x + t * y for x, y in zip(a, b)]
        rows += [dependent, dependent[:-1] + [dependent[-1] + 1]]
        rng.shuffle(rows)
        got, want = rref(_int_rows(rows)), _rref_every_entry(rows)
        assert _is_canonical(got)
        assert (_over_q(got), got[1]) == want == ref_rref(rows)
        assert zero_col not in got[1] and ncols - 1 in got[1]


_entries = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-10**12, 10**12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(_entries, min_size=ncols, max_size=ncols), max_size=6)))
@example([[0, 0, 3], [2, 4, 6], [-1, -2, -3], [0, 0, 0]])
def test_rref_matches_the_rational_elimination(rows):
    # integer rows of any rank, dependent or zero rows included, against
    # the Fraction elimination: the same pivots, and the same reduced rows
    # once each pivot row is divided by its pivot
    got = rref(rows)
    want = ref_rref(_fr(rows))
    assert _is_canonical(got)
    assert got[1] == want[1]
    assert _over_q(got) == want[0]


# -- the stored integer form ---------------------------------------------------


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
        assert a.int_form() is a.int_form()        # the pair stored at construction
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


@pytest.mark.parametrize("name", ["coeffs", "_form", "_hash", "degree", "extra"])
def test_poly_attributes_cannot_be_assigned(name):
    p = P(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        setattr(p, name, ())
    assert p.coeffs == (Fraction(1, 2), Fraction(3))


def test_equal_polys_compare_and_hash_equal():
    def build():
        return P(Fraction(2, 4), 3, Fraction(-4, 6))

    a, b = build(), build()
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a * b == _convolve(build(), build())


def test_hash_is_kept_from_its_first_use():
    p = P(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        p._hash                                 # __init__ leaves it unset
    q = Poly.from_int_form([1, 6], 2)
    assert p == q and hash(p) == hash(q) == p._hash
    assert hash(p) == hash(P(Fraction(1, 2), 3))
    with pytest.raises(AttributeError):
        p._hash = 0


def test_shift_up_by_a_negative_power_raises():
    # multiplying by x**k is undefined for k < 0, as a negative power is
    assert P(1, 2).shift_up(0) == P(1, 2) and P(1, 2).shift_up(2) == P(0, 0, 1, 2)
    for p in (P(1, 2), Poly()):
        with pytest.raises(ValueError):
            p.shift_up(-1)


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


def test_clip_never_lengthens_what_it_echoes():
    # the cut form, the first 60 characters and "... (N characters)", is no
    # shorter than a text of up to 79 characters, so those come back whole
    for n in range(201):
        text = "7" * n
        echo = clip(text)
        assert len(echo) <= len(text) and len(echo) <= ECHO_LIMIT + 25, n
        assert echo == text or echo.startswith(text[:ECHO_LIMIT] + "... ("), n
    assert clip("7" * 79) == "7" * 79
    assert clip("7" * 80) == "7" * 60 + "... (80 characters)"
