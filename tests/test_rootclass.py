import copy
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypercycles.polyx import (
    ONE,
    Poly,
    X,
    int_coeffs,
    parse_poly,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from hypercycles import lienard, rootclass
from hypercycles.rootclass import (
    EndpointRootError,
    RealRoot,
    RootCount,
    SturmChain,
    _chain_signs,
    _int_det,
    _isolate_squarefree,
    _root_exponent,
    _sign_at,
    _sign_changes,
    _sign_int,
    cauchy_bound,
    count_roots,
    discriminant_sequence,
    distinct_real_roots,
    hankel_minor,
    isolate_real_roots,
    power_sums,
    revised_sign_list,
    sign_list,
    sign_on_interval,
    simplest_in_interval,
    sturm_count,
)


def P(*coeffs):
    return Poly(coeffs)


def _discrimination_count(p: Poly) -> RootCount:
    """Yang's count from the revised sign list of the discriminant sequence,
    independent of the Sturm chain that `count_roots` reads."""
    return RootCount.from_revised(revised_sign_list(sign_list(discriminant_sequence(p))))


def _naive_det(rows):
    """Cofactor-expansion determinant; independent oracle for minor tests."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _naive_det(minor)
    return total


# -- discrimination matrix ---------------------------------------------------


def discrimination_matrix(f: Poly) -> list[list[Fraction]]:
    """The definition that `discriminant_sequence` is checked against: the
    2n x 2n matrix from interleaved, progressively shifted rows of the
    coefficients of f and f' (leading coefficient first in each row)."""
    n = f.degree
    if n < 1:
        raise ValueError("discrimination matrix needs degree >= 1")
    desc = list(reversed(f.coeffs))                      # a0 .. an, a0 leading
    ddesc = list(reversed(f.derivative().coeffs))        # n*a0 .. a_{n-1}
    size = 2 * n
    rows = []
    for k in range(1, n + 1):
        for start, cs in ((k - 1, desc), (k, ddesc)):
            row = [Fraction(0)] * size
            for i, c in enumerate(cs[:size - start]):
                row[start + i] = c
            rows.append(row)
    return rows


def test_matrix_layout_quadratic():
    b, c = Fraction(3), Fraction(5)
    m = discrimination_matrix(P(c, b, 1))  # x^2 + bx + c
    assert m == [
        [1, b, c, 0],
        [0, 2, b, 0],
        [0, 1, b, c],
        [0, 0, 2, b],
    ]


def test_matrix_dimensions():
    m = discrimination_matrix(P(1, 0, 0, 0, 0, 2))  # degree 5
    assert len(m) == 10 and all(len(r) == 10 for r in m)


def test_d1_is_degree_for_monic():
    for p in [P(4, -2, 1), P(1, 2, 3, 1), P(-1, 0, 0, 0, 1)]:
        ds = discriminant_sequence(p)
        assert ds[0] == p.degree


def test_minors_match_naive_determinants():
    rng = random.Random(3)
    for _ in range(10):
        p = Poly([Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1])
        m = discrimination_matrix(p)
        ds = discriminant_sequence(p)
        for k in range(1, p.degree + 1):
            sub = [row[: 2 * k] for row in m[: 2 * k]]
            assert ds[k - 1] == _naive_det(sub)


def _bareiss_sequence(f):
    """The definition: even-order leading minors of the discrimination
    matrix, each a `_int_det` of the scaled integer block."""
    m = discrimination_matrix(f)
    den = lcm(*[c.denominator for row in m for c in row])
    rows = [[int(c * den) for c in row] for row in m]
    return [Fraction(_int_det([row[: 2 * k] for row in rows[: 2 * k]]), den ** (2 * k))
            for k in range(1, f.degree + 1)]


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_factor = st.one_of(
    st.tuples(_small, st.integers(1, 3)).map(lambda t: Poly([-t[0], 1]) ** t[1]),
    st.tuples(_small, _small, st.integers(1, 3)).map(
        lambda t: Poly([t[0], t[1], 1]) ** t[2]),
    st.integers(1, 4).map(lambda k: X ** k),
)


@st.composite
def _factored(draw):
    p = Poly([draw(st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(1),
                                    Fraction(7, 3)]))])
    for f in draw(st.lists(_factor, min_size=1, max_size=6)):
        p = p * f
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_factored().filter(lambda p: 1 <= p.degree <= 14))
def test_sequence_matches_bareiss_minors(p):
    assert discriminant_sequence(p) == _bareiss_sequence(p)


@pytest.mark.parametrize("n", range(1, 13))
def test_sequence_matches_bareiss_minors_on_defective_families(n):
    # degree gaps in the subresultant chain: x^n + c drops from degree n - 1
    # straight to 0, (x - 1)^n and (x^2 + 1)^k stop at a nontrivial gcd
    for text in (f"x^{n}", f"x^{n}+3", f"x^{n}-1/2", f"-2x^{n}+5x",
                 f"(x^2+1)^{(n + 1) // 2}", f"(x-1)^{n}", f"x^{n} (x-1)"):
        p = parse_poly(text)
        assert discriminant_sequence(p) == _bareiss_sequence(p), text


def test_d2_signs():
    # frozen from 4x4 cofactor expansions done by hand
    assert discriminant_sequence(P(1, 0, 1)) == [2, -4]   # x^2+1: conjugate pair
    assert discriminant_sequence(P(-1, 0, 1)) == [2, 4]   # x^2-1: two real roots
    assert discriminant_sequence(P(-1, 1) ** 2)[1] == 0   # repeated root


# -- sign lists ---------------------------------------------------------------


def test_revised_sign_list_no_zeros():
    assert revised_sign_list([1, 1, -1]) == [1, 1, -1]


def test_revised_sign_list_interior_run():
    # Definition-4 pattern for a run of three zeros after +1
    assert revised_sign_list([1, 0, 0, 0, 1]) == [1, -1, -1, 1, 1]


def test_revised_sign_list_trailing_zeros_untouched():
    assert revised_sign_list([1, 0, 0]) == [1, 0, 0]


def test_revised_idempotent_without_interior_runs():
    for s in ([1, -1, 1], [1, 1, 0], [-1, 0, 0], [1]):
        assert revised_sign_list(s) == s


# -- counting ------------------------------------------------------------------


def test_count_roots_examples():
    assert count_roots(P(1, 0, 1)) == count_roots(P(1, 0, 1)).__class__(0, 1)
    rc = count_roots(P(1, 0, 1))
    assert (rc.distinct_real, rc.imaginary_pairs) == (0, 1)
    rc = count_roots(P(0, -1, 0, 1))  # x^3 - x
    assert (rc.distinct_real, rc.imaginary_pairs) == (3, 0)
    rc = count_roots(P(-1, 1) ** 2 * P(2, 1))
    assert (rc.distinct_real, rc.imaginary_pairs) == (2, 0)


def test_power_sums_examples():
    assert power_sums(P(-1, 0, 1), 2) == [2, 0, 2]
    s = power_sums(P(-1, 1) * P(-2, 1), 2)
    assert s[1] == 3 and s[2] == 5
    assert power_sums(P(0, 0, 0, 1), 3) == [3, 0, 0, 0]


def test_hankel_identity_on_quadratics():
    # lemma-style check: D_k equals the Hankel minor of power sums (monic f)
    for p in [P(1, 0, 1), P(-1, 0, 1), P(-2, 3, 1)]:
        sums = power_sums(p, 2 * p.degree - 2 if p.degree > 1 else 2)
        ds = discriminant_sequence(p)
        for k in range(1, p.degree + 1):
            assert ds[k - 1] == hankel_minor(sums, k)


# -- Sturm ---------------------------------------------------------------------


def test_sturm_count_examples():
    assert sturm_count(P(-2, 0, 1), 0, 2) == 1
    assert sturm_count(P(1, 0, 1), -10, 10) == 0
    p = P(-1, 1) * P(-2, 1) * P(-3, 1)
    assert sturm_count(p, Fraction(3, 2), Fraction(7, 2)) == 2
    with pytest.raises(EndpointRootError):
        sturm_count(p, 1, 4)


def test_sturm_handles_repeated_roots():
    p = P(-1, 1) ** 3 * P(-2, 1)
    assert sturm_count(p, 0, 3) == 2  # distinct roots only


# -- isolation -------------------------------------------------------------------


def test_isolate_sqrt2():
    roots = isolate_real_roots(P(-2, 0, 1))
    assert len(roots) == 2
    assert all(r.multiplicity == 1 for r in roots)
    assert roots[0].hi < roots[1].lo
    neg, pos = roots
    # each interval must bracket its root of x^2 - 2
    assert neg.lo**2 > 2 > neg.hi**2 and neg.hi < 0
    assert pos.lo**2 < 2 < pos.hi**2 and pos.lo > 0


def test_isolate_exact_rational_roots():
    roots = isolate_real_roots(P(-1, 1) ** 2 * P(-3, 1))
    assert [(r.is_exact(), r.multiplicity) for r in roots] == [(True, 2), (True, 1)]
    assert roots[0].value == 1 and roots[1].value == 3


def test_isolate_no_real_roots():
    assert isolate_real_roots(P(1, 0, 1)) == []


def test_isolate_counts_match_classifier():
    rng = random.Random(5)
    for _ in range(40):
        deg = rng.randint(2, 6)
        p = Poly([Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(deg)] + [1])
        if rng.random() < 0.5:
            p = p * P(rng.randint(-3, 3), 1) ** 2
        roots = isolate_real_roots(p)
        assert len(roots) == count_roots(p).distinct_real
        # intervals disjoint and sorted
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo or (a.is_exact() and a.value < b.lo) or a.hi <= b.lo


def test_root_multiplicity_sum():
    p = P(-1, 1) ** 2 * P(-2, 1) * P(1, 0, 1)  # complex pair contributes nothing
    roots = isolate_real_roots(p)
    assert sorted(r.multiplicity for r in roots) == [1, 2]


# -- interval sign verdicts --------------------------------------------------------


def test_sign_on_interval():
    f = -ONE * P(-1, 1) * P(-2, 1)
    assert sign_on_interval(f, 1, 2) == "positive"
    assert sign_on_interval(X, -1, 1) == "mixed-or-zero"
    assert sign_on_interval(P(1, 0, 1), -5, 5) == "positive"
    assert sign_on_interval(-ONE * P(1, 0, 1), -5, 5) == "negative"


def test_sign_on_interval_endpoint_roots_ok():
    f = P(-6, 5, -1)  # -(x-2)(x-3)
    assert sign_on_interval(f, 2, 3) == "positive"


# -- helpers -------------------------------------------------------------------------


def test_simplest_in_interval():
    assert simplest_in_interval(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert simplest_in_interval(Fraction(3, 2), Fraction(7, 2)) == 2
    assert simplest_in_interval(Fraction(-1, 2), Fraction(1, 2)) == 0
    v = simplest_in_interval(Fraction(141, 100), Fraction(142, 100))
    assert Fraction(141, 100) < v < Fraction(142, 100)


def ref_simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The recursive continued-fraction walk that `simplest_in_interval`
    replaced, kept verbatim as the reference: one frame per term."""
    if not lo < hi:
        raise ValueError("empty interval")
    # an integer inside wins outright
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if lo < ceil_lo < hi:
        return Fraction(ceil_lo)
    if lo == ceil_lo and lo + 1 < hi:
        return lo + 1
    n = lo.numerator // lo.denominator  # floor(lo)
    a, b = lo - n, hi - n               # 0 <= a < b, no integer in (a, b)
    if a == 0:
        # (0, b) with b <= 1: answer 1/ceil(1/b + epsilon-ish)
        k = b.denominator // b.numerator + 1
        return n + Fraction(1, k)
    inner = ref_simplest_in_interval(1 / b, 1 / a)
    return n + 1 / inner


def _fibonacci(n: int) -> list[int]:
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


@pytest.mark.parametrize("n", [5, 100, 500, 1500])
def test_simplest_between_consecutive_fibonacci_ratios_is_their_mediant(n):
    # F(n+1)/F(n) and F(n+2)/F(n+1) are Farey neighbours, so the simplest
    # rational strictly between them is the mediant F(n+3)/F(n+2).  Their
    # continued fractions share about n terms: a walk with one stack frame
    # per term overflows the stack from n = 1000 on
    fib = _fibonacci(n + 3)
    lo, hi = sorted([Fraction(fib[n + 1], fib[n]), Fraction(fib[n + 2], fib[n + 1])])
    assert simplest_in_interval(lo, hi) == Fraction(fib[n + 3], fib[n + 2])
    if n <= 500:
        assert ref_simplest_in_interval(lo, hi) == Fraction(fib[n + 3], fib[n + 2])


_ends = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.integers(-20, 20).map(Fraction),
    st.tuples(st.integers(-2**45, 2**45), st.integers(0, 40)).map(
        lambda t: Fraction(t[0], 2 ** t[1])),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ends, _ends, st.one_of(st.none(), st.integers(1, 60)))
def test_simplest_in_interval_matches_the_recursive_walk(x, y, gap):
    # gap: hi just above lo, by 2^-gap, so the two ends share many terms
    lo, hi = (x, x + Fraction(1, 2 ** gap)) if gap else (min(x, y), max(x, y))
    assume(lo < hi)
    v = simplest_in_interval(lo, hi)
    assert v == ref_simplest_in_interval(lo, hi) and lo < v < hi


def test_cauchy_bound_contains_roots():
    p = P(-6, 11, -6, 1)  # roots 1, 2, 3
    b = cauchy_bound(p)
    assert b > 3


def test_real_root_sign_of():
    [r] = [x for x in isolate_real_roots(P(-2, 0, 1)) if x.lo > 0]
    w = P(-1, 1)  # x - 1: positive at sqrt(2)
    assert r.sign_of(w) == 1
    assert r.sign_of(P(-2, 0, 1)) == 0  # its own polynomial
    assert r.sign_of(P(-3, 0, 1)) == -1  # x^2 - 3 negative at sqrt(2)


def test_oracle_equivalence_sample():
    rng = random.Random(23)
    for _ in range(60):
        deg = rng.randint(2, 8)
        p = Poly(
            [Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(deg)]
            + [Fraction(rng.choice([1, 2, 3]))]
        )
        if rng.random() < 0.5:
            p = p * P(Fraction(rng.randint(-4, 4)), 1) ** 2
        sf = squarefree_part(p)
        if sf.degree < 1:
            continue
        bound = cauchy_bound(sf) + 1
        assert _discrimination_count(p).distinct_real == sturm_count(sf, -bound, bound)


def test_fundamental_count_matches_squarefree_degree():
    rng = random.Random(31)
    for _ in range(40):
        deg = rng.randint(2, 7)
        p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg)] + [1])
        if rng.random() < 0.5:
            p = p * P(rng.randint(-3, 3), 1) ** 2
        rc = _discrimination_count(p)
        assert rc.distinct_real + 2 * rc.imaginary_pairs == squarefree_part(p).degree


def test_sign_on_interval_worked_cycle_strip():
    # Q of the worked type-(2,5) curve is positive on its cycle interval
    from hypercycles.polyx import parse_poly

    Q = parse_poly("-10(x-1)(x-2)(x+10)^4")
    assert sign_on_interval(Q, 1, 2) == "positive"
    assert sign_on_interval(Q, 2, 3) == "negative"


def _third_root():
    # the root -1/3 of x + 1/3 held inexact in (-2/3, 0), where the next
    # bisection point is the root itself
    return RealRoot(poly=P(Fraction(1, 3), 1), lo=Fraction(-2, 3), hi=Fraction(0))


def test_sign_of_when_a_refinement_step_lands_on_the_root():
    r = _third_root()
    assert r.sign_of(P(Fraction(1, 7), 1)) == -1     # -1/3 + 1/7 < 0
    assert r.is_exact() and r.value == Fraction(-1, 3)


def test_count_strictly_between_refuses_a_w_that_vanishes_at_an_inexact_root():
    # sqrt(2) held in (1, 2): w = (x^2 - 2)(x + 5) vanishes there; sign_of
    # says so and moves nothing, and a count with sqrt(2) as either end
    # raises and leaves both roots as they were
    for w in (P(-2, 0, 1) * P(5, 1), P(-2, 0, 1).scale(3), Poly()):
        r = RealRoot(poly=P(-2, 0, 1), lo=1, hi=2)
        assert r.sign_of(w) == 0
        assert (r.lo, r.hi, r.is_exact()) == (1, 2, False)
        for pair in ((r, RealRoot(poly=P(-3, 1), lo=3, hi=3)),
                     (RealRoot(poly=P(3, 1), lo=-3, hi=-3), r)):
            before = [copy.copy(s) for s in pair]
            with pytest.raises(ValueError, match="vanishes at the root in"):
                lienard._count_strictly_between(w, *pair)
            assert list(pair) == before and not r.is_exact()


def test_sign_of_builds_no_chain_of_the_gcd(monkeypatch):
    # sqrt(2) held in (1, 3/2) by (x^2 - 2)(x^2 - 3); gcd(poly, w) = x^2 - 3
    # does not vanish there, and two signs decide that
    poly = P(-2, 0, 1) * P(-3, 0, 1)
    w = P(-3, 0, 1) * P(7, 1)
    built = []
    chain_of = rootclass._sturm_chain_int
    monkeypatch.setattr(rootclass, "_sturm_chain_int",
                        lambda p: built.append(p) or chain_of(p))
    assert RealRoot(poly=poly, lo=1, hi=Fraction(3, 2)).sign_of(w) == -1
    assert built and all(p == w for p in built)
    # a w that vanishes at the root needs no chain at all
    built.clear()
    assert RealRoot(poly=poly, lo=1, hi=Fraction(3, 2)).sign_of(P(-2, 0, 1) * P(7, 1)) == 0
    assert built == []


@pytest.mark.parametrize("w, want", [
    (P(-3, 0, 1) * P(7, 1), -1),     # refines until w's chain clears the cell
    (P(-2, 0, 1) * P(7, 1), 0),      # vanishes at the root
    (P(Fraction(-7, 5), 1), 1),      # 7/5 < sqrt(2)
])
def test_sign_of_an_inexact_root_looks_up_one_gcd(w, want, monkeypatch):
    gcds = []
    gcd_of = rootclass.poly_gcd
    monkeypatch.setattr(rootclass, "poly_gcd",
                        lambda a, b: gcds.append((a, b)) or gcd_of(a, b))
    poly = P(-2, 0, 1) * P(-3, 0, 1)
    assert RealRoot(poly=poly, lo=1, hi=Fraction(3, 2)).sign_of(w) == want
    assert gcds == [(poly, w)]
    # an exact root and a constant w look up none
    assert RealRoot(poly=P(-1, 1), lo=1, hi=1).sign_of(w) != 0
    assert RealRoot(poly=poly, lo=1, hi=Fraction(3, 2)).sign_of(P(-2)) == -1
    assert len(gcds) == 1


def test_refine_evaluates_its_polynomial_once_per_step(monkeypatch):
    # the first step also reads the sign at hi, which no step changes
    calls = []
    sign_int = rootclass._sign_int
    monkeypatch.setattr(rootclass, "_sign_int",
                        lambda *a: calls.append(a) or sign_int(*a))
    r = RealRoot(poly=P(-2, 0, 1), lo=Fraction(0), hi=Fraction(3))
    for step in range(1, 21):
        r.refine()
        assert len(calls) == step + 1
    assert r.lo * r.lo < 2 < r.hi * r.hi and r.width() == Fraction(3, 2**20)


@pytest.mark.parametrize("poly, exact", [
    (P(-2, 0, 1), False),       # sqrt(2): (1, 2), whose simplest rational 3/2 is no root
    (P(-3, 2), True),           # 3/2: the candidate in (1, 2) is the root
])
def test_try_exact_builds_no_fraction_however_many_halvings(poly, exact, monkeypatch):
    # from [0, 2^e] try_exact halves e times down to (1, 2), then tests one
    # candidate, all on the integer ends; canonical's width loop halves as
    # often, and what it builds after that loop does not depend on e
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    counts, canonical_counts = [], []
    for e in (10, 20, 40):
        root = RealRoot(poly=poly, lo=Fraction(0), hi=Fraction(2 ** e))
        other = copy.copy(root)
        monkeypatch.setattr(Fraction, "__new__", counting)
        root.try_exact()
        counts.append(len(built))
        other.canonical()
        canonical_counts.append(len(built) - counts[-1])
        monkeypatch.undo()
        built.clear()
        want = (Fraction(3, 2),) * 2 if exact else (Fraction(1), Fraction(2))
        assert root.is_exact() == exact and (root.lo, root.hi) == want
    assert counts == [0, 0, 0]
    assert len(set(canonical_counts)) == 1


# -- one isolation per polynomial, against the per-factor one it replaced -------
#
# `isolate_real_roots` bisects f once and labels each cell with its Yun
# factor.  It used to isolate each factor on its own and order the roots by
# separating every cross-factor pair; that code, and the separation method
# it called (self -> root), are kept below verbatim as the reference.  The
# oracles of test_lienard separate roots of two isolations with it too.


class RootsCoincide(ValueError):
    """Raised when two allegedly distinct isolated roots turn out equal."""


def ref_below(root: RealRoot, other: RealRoot) -> bool:
    """hi < other.lo, on the integer ends."""
    return root._b * other._d < other._a * root._d


def ref_separate_from(root: RealRoot, other: RealRoot) -> int:
    """Halve the wider interval at its midpoint until the closed
    intervals are disjoint.  Returns -1 if root < other, +1 if root > other.

    Termination is unconditional: when the roots are equal, the common
    factor d = gcd changes sign across the shrinking intersection and the
    coincidence is detected exactly (d cannot vanish at the interval
    endpoints, which are never roots of their own polynomials)."""
    d: Poly | None = None
    rounds = 0
    while not (ref_below(root, other) or ref_below(other, root)):
        if root.is_exact() and other.is_exact():
            if root.lo == other.lo:
                raise RootsCoincide("isolated roots coincide")
        elif root.is_exact() and other.poly.eval(root.value) == 0:
            raise RootsCoincide("isolated roots coincide")
        elif other.is_exact() and root.poly.eval(other.value) == 0:
            raise RootsCoincide("isolated roots coincide")
        if rounds >= 8:
            if d is None:
                d = poly_gcd(root.poly, other.poly)
            if d.degree >= 1:
                ilo = max(root.lo, other.lo)
                ihi = min(root.hi, other.hi)
                if ilo < ihi:
                    slo = d.eval(ilo)
                    shi = d.eval(ihi)
                    if slo != 0 and shi != 0 and (slo > 0) != (shi > 0):
                        raise RootsCoincide(
                            "isolated roots share a common value")
        # the wider of the two, compared on the integer ends
        if (root._b - root._a) * other._d >= (other._b - other._a) * root._d:
            root.refine()
        else:
            other.refine()
        rounds += 1
    return -1 if ref_below(root, other) else 1


def ref_isolate_real_roots(f: Poly) -> list[RealRoot]:
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if f.degree == 0:
        return []
    roots: list[RealRoot] = []
    for factor, mult in squarefree_decomposition(f):
        for lo, hi in _isolate_squarefree(factor):
            r = RealRoot(poly=factor, lo=lo, hi=hi, multiplicity=mult)
            r.try_exact()
            roots.append(r)
    # cross-factor separation (factors are pairwise coprime, so roots differ)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i].poly is not roots[j].poly:
                ref_separate_from(roots[i], roots[j])
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots


# factors that share roots, rational (dyadic or not) and irrational, so that
# their products have repeated roots and Yun factors of several degrees
_SHARING = [P(-1, 1), P(Fraction(1, 3), 1), P(-1, 3), P(0, 1), P(-3, 2),
            P(-2, 0, 1), P(0, -2, 0, 1), P(-1, -2, 1), P(-3, 0, 1), P(-9, 0, 4),
            P(-1, 0, 2), P(1, -3, 0, 1), P(1, 0, 1), P(-2, 0, 0, 1)]


@st.composite
def _product_input(draw):
    """(f, steps): f a product of factors from `_SHARING`, some raised to a
    power, and steps (index, op, w) to run on f's roots afterwards."""
    f = P(draw(st.sampled_from([Fraction(-2), Fraction(1, 3), Fraction(5)])))
    for _ in range(draw(st.integers(1, 5))):
        f = f * draw(st.sampled_from(_SHARING)) ** draw(st.integers(1, 3))
    steps = draw(st.lists(st.tuples(st.integers(0, 20),
                                    st.sampled_from(["refine", "sign_of"]),
                                    st.sampled_from(_SHARING + [P(-2, 3), P(-7, 5)])),
                          max_size=12))
    return f, steps


def _assert_ordered_on_non_roots(f: Poly, roots: list[RealRoot]) -> None:
    assert all(r.hi <= s.lo for r, s in zip(roots, roots[1:]))
    for r in roots:
        assert r.is_exact() or (f.eval(r.lo) != 0 and f.eval(r.hi) != 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_product_input().filter(lambda t: t[0].degree <= 20))
def test_isolation_of_a_product_matches_the_per_factor_isolation(case):
    f, steps = case
    roots = isolate_real_roots(f)
    want = ref_isolate_real_roots(f)
    assert ([(r.canonical(), r.multiplicity, r.poly) for r in roots]
            == [(r.canonical(), r.multiplicity, r.poly) for r in want])
    _assert_ordered_on_non_roots(f, roots)
    # no refinement or sign step makes two neighbours overlap or moves an
    # end onto a root of f
    for i, op, w in steps:
        if roots:
            r = roots[i % len(roots)]
            if op == "refine":
                r.refine()
            else:
                before, sign = copy.copy(r), ref_sign_of(copy.copy(r), w)
                assert r.sign_of(w) == sign
                if sign == 0 and not before.is_exact():
                    # w vanishes at the inexact root: sign_of moves nothing
                    assert r == before
            _assert_ordered_on_non_roots(f, roots)
    assert [r.canonical() for r in roots] == [r.canonical() for r in want]


def test_isolation_of_three_yun_factors_bisects_once(monkeypatch):
    p = parse_poly("(x-1)^3 (x^2-2)^2 (x+3)(x^2-5)")
    assert len(squarefree_decomposition(p)) == 3
    isolated = []
    isolate = rootclass._isolate_squarefree
    monkeypatch.setattr(rootclass, "_isolate_squarefree",
                        lambda g: isolated.append(g) or isolate(g))
    roots = isolate_real_roots(p)
    assert isolated == [p]
    assert [r.multiplicity for r in roots] == [1, 1, 2, 3, 2, 1]


def test_neighbours_that_share_an_end_count_what_lies_between():
    # sqrt(2) and sqrt(3) are isolated in cells that touch at 3/2, which is
    # no root of (x^2-2)(x^2-3)
    def neighbours():
        roots = isolate_real_roots(parse_poly("(x^2-2)(x^2-3)"))
        assert roots[2].hi == roots[3].lo == Fraction(3, 2)
        return roots[2], roots[3]

    # x^2 + 1 is nonzero on both cells, so they stay as they were, and it
    # has no root over their union
    s2, s3 = neighbours()
    assert lienard._count_strictly_between(P(1, 0, 1), s2, s3) == 0
    assert s2.hi == s3.lo == Fraction(3, 2)
    # the shared end is a root of w
    assert lienard._count_strictly_between(P(-9, 0, 4), *neighbours()) == 1
    w = P(Fraction(-3, 2), 1) * P(Fraction(-8, 5), 1) * P(1, 0, 1)
    assert lienard._count_strictly_between(w, *neighbours()) == 2


# -- one chain evaluation per point, against the code it replaced -------------
#
# Isolation carries the endpoint variation counts down its stack on dyadic
# points from the root exponent, `refine` decides with integer signs, and
# `sign_of` recounts only the endpoint that moved.  The earlier
# implementations are kept below verbatim (self -> root) as the reference:
# isolation must find the same roots, one per interval, and every refined
# interval, exact flag and sign must be the same.


def ref_isolate_squarefree(g: Poly) -> list[tuple[Fraction, Fraction]]:
    if g.degree < 1:
        return []
    chain = SturmChain(g)
    bound = cauchy_bound(g)
    lo, hi = -bound, bound
    # endpoints beyond the Cauchy bound are never roots
    total = chain.count(lo, hi)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if chain.sign(mid) == 0:
            out.append((mid, mid))
            eps = (b - a) / 4
            while True:
                la, lb = mid - eps, mid + eps
                if (
                    chain.sign(la) != 0
                    and chain.sign(lb) != 0
                    and chain.count(la, lb) == 1
                ):
                    break
                eps /= 3
            stack.append((a, la, chain.count(a, la)))
            stack.append((lb, b, chain.count(lb, b)))
        else:
            cl = chain.count(a, mid)
            stack.append((a, mid, cl))
            stack.append((mid, b, cnt - cl))
    return sorted(out)


def ref_refine(root: RealRoot) -> None:
    if root.is_exact():
        return
    c = (root.lo + root.hi) / 2
    s = root.poly.eval(c)
    if s == 0:
        root.lo = root.hi = c
        return
    if (s > 0) == (root.poly.eval(root.hi) > 0):
        root.hi = c
    else:
        root.lo = c


def ref_sign_of(root: RealRoot, w: Poly) -> int:
    if w.is_zero():
        return 0
    if not root.is_exact():
        if w.degree >= 1:
            d = poly_gcd(root.poly, w)
            if (d.degree >= 1 and d.eval(root.lo) != 0 and d.eval(root.hi) != 0
                    and sturm_count(d, root.lo, root.hi) > 0):
                return 0
        wc = SturmChain(w) if w.degree >= 1 else None
        while not root.is_exact():
            slo = (w.eval(root.lo) > 0) - (w.eval(root.lo) < 0)
            if slo != 0 and (
                wc is None
                or (w.eval(root.hi) != 0 and wc.count(root.lo, root.hi) == 0)
            ):
                return slo
            ref_refine(root)
    v = w.eval(root.value)
    return (v > 0) - (v < 0)


def _dyadic(draw, top=16, depth=3):
    return Fraction(draw(st.integers(-top, top)), 2 ** draw(st.integers(0, depth)))


@st.composite
def _isolation_input(draw):
    """(p, top, planted): p of degree 1..20 with dyadic rational roots, some
    repeated, some in close clusters (r, r + 2^-k), maybe a factor with no
    real root and a leading coefficient of either sign; `planted` are extra
    roots put at dyadic midpoints of [-top, top], top = 2**e with e the root
    exponent of the rest, where bisection from [-top, top] lands exactly."""
    p = Poly([draw(st.sampled_from([Fraction(-3), Fraction(-1), Fraction(-1, 2),
                                    Fraction(1, 3), Fraction(1), Fraction(2)]))])
    for _ in range(draw(st.integers(1, 5))):
        r = _dyadic(draw)
        p = p * Poly([-r, 1]) ** draw(st.integers(1, 3))
        if draw(st.booleans()):
            p = p * Poly([-r - Fraction(1, 2 ** draw(st.integers(4, 12))), 1])
    if draw(st.booleans()):
        p = p * Poly([draw(st.integers(1, 5)), _dyadic(draw, 4, 1), 1])
    top = Fraction(2) ** _root_exponent(p.int_form()[0])
    planted = []
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(1, 4))
        m = top * Fraction(draw(st.integers(1 - 2 ** j, 2 ** j - 1)), 2 ** j)
        planted.append(m)
        p = p * Poly([-m, 1])
    return p, top, planted


def _others(p: Poly, g: Poly) -> list[Poly]:
    """Polynomials whose signs `sign_of` is asked for at the roots of g, a
    squarefree factor of p: p' (which vanishes at p's repeated roots), g
    itself, one with irrational roots, g + 1 (close to g) and a constant."""
    return [p.derivative(), g, P(-2, 0, 1), g + ONE, P(-2)]


def _same_refinement(a: RealRoot, b: RealRoot, steps: int) -> None:
    for _ in range(steps):
        a.refine()
        ref_refine(b)
        assert (a.lo, a.hi, a.is_exact()) == (b.lo, b.hi, b.is_exact())


def _same_root(chain: SturmChain, got, want) -> bool:
    """Two isolating intervals of g (chain on g) hold the same root: an
    exact root lies in, or is, the other; two open ones share an open
    stretch with one root of g in it."""
    (a, b), (c, d) = got, want
    if a == b or c == d:
        v, (lo, hi) = (a, want) if a == b else (c, got)
        return lo == v == hi or lo < v < hi
    lo, hi = max(a, c), min(b, d)
    return lo < hi and chain.count_open(lo, hi) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_isolation_input().filter(lambda t: 1 <= t[0].degree <= 20))
def test_isolation_refine_and_sign_of_match_the_reference(case):
    p, top, planted = case
    for g, _ in squarefree_decomposition(p):
        intervals = _isolate_squarefree(g)
        want = ref_isolate_squarefree(g)
        assert len(intervals) == len(want)
        chain = SturmChain(g)
        assert all(_same_root(chain, a, b) for a, b in zip(intervals, want))
        # every end is a dyadic k/2^j inside [-2^e, 2^e], e the root
        # exponent of the chain's head
        edge = 2 ** chain.chain.ends[0][0]
        for x in {x for iv in intervals for x in iv}:
            assert x.denominator & (x.denominator - 1) == 0 and -edge <= x <= edge
        for lo, hi in intervals:
            root = RealRoot(poly=g, lo=lo, hi=hi)
            _same_refinement(root, copy.copy(root), 6)
            for w in _others(p, g):
                got, want = copy.copy(root), copy.copy(root)
                assert got.sign_of(w) == ref_sign_of(want, w)
                assert (got.lo, got.hi, got.is_exact()) == (want.lo, want.hi, want.is_exact())
    # bisection from [-top, top] lands on a root planted at one of its
    # dyadic midpoints
    for m in planted:
        root = RealRoot(poly=Poly([-m, 1]), lo=-top, hi=top)
        _same_refinement(root, copy.copy(root), 5)
        assert root.is_exact() and root.value == m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_isolation_input().filter(lambda t: 1 <= t[0].degree <= 20))
def test_isolation_cells_follow_one_rule(case):
    # every cell is an exact root, or has ends that are no roots and an open
    # count of 1; the cells are disjoint, one per distinct real root, and
    # each lies in [-2^e, 0] or [0, 2^e], the halves bisection starts from
    p, _, _ = case
    for g, _ in squarefree_decomposition(p):
        chain = SturmChain(g)
        cells = _isolate_squarefree(g)
        assert len(cells) == distinct_real_roots(g)
        for lo, hi in cells:
            if lo == hi:
                assert g.eval(lo) == 0
            else:
                assert g.eval(lo) != 0 and g.eval(hi) != 0
                assert chain.count_open(lo, hi) == 1
                assert lo >= 0 or hi <= 0
        for (a, b), (c, d) in zip(cells, cells[1:]):
            assert b < c or (a < b == c < d)


def test_isolation_lands_on_a_root_at_a_bisection_midpoint():
    # x^3 - x has root exponent 2: bisection starts from [-4, 0] and [0, 4],
    # whose common end 0 is a root.  Each half holds one more root beside
    # the root at its end, so it halves on the head's sign alone: the sign
    # at -+2 is the sign at the clean end -+4, and at -+1, the roots
    # themselves, it is 0
    p = P(0, -1, 0, 1)
    got = _isolate_squarefree(p)
    assert got == [(-1, -1), (0, 0), (1, 1)]
    assert len(got) == len(ref_isolate_squarefree(p))


@pytest.mark.parametrize("p", [
    P(0, -1, 0, 1),                                      # x^3 - x
    parse_poly("x(2x-1)(x^2-2)"),
    parse_poly("(x - 3/8)(x + 1/4)(x - 1)(x + 5)(x^2 - 3)"),
    parse_poly("(x - 1/3)(x - 1)(x + 1)(x - 2)(x^2 + 1)"),
])
def test_isolation_builds_fractions_only_for_the_intervals_it_returns(p, monkeypatch):
    # each input puts a root at 0 or on a bisection midpoint, which isolation
    # returns as an exact point.
    # `Fraction.__new__` sees every `Fraction(...)` call and, before Python
    # 3.12, every result of `Fraction` arithmetic too
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = _isolate_squarefree(p)
    monkeypatch.undo()
    assert any(lo == hi for lo, hi in got)
    assert len(got) == count_roots(p).distinct_real and len(built) <= 2 * len(got)


# -- the whole chain only where the head's sign cannot decide ------------------
#
# Isolation reads V(+-2**e) off the chain's signs at +-inf, and a cell with
# one root inside and one at an end halves on the head's sign alone.  The
# bisection that evaluated the whole chain at every point, box ends
# included, is kept below verbatim as the reference: the cells must be the
# same, in the same order.


def ref_bisect_whole_chain(g: Poly) -> list[tuple[Fraction, Fraction]]:
    if g.degree < 1:
        return []
    chain = SturmChain(g).chain

    def at(k: int, j: int) -> tuple[int, bool]:
        signs = _chain_signs(chain, k, 1 << j)
        return _sign_changes(signs), not signs[0]

    top = 1 << chain.ends[0][0]
    stack = [(-top, top, 0, at(-top, 0), at(top, 0))]
    found = []
    while stack:
        ka, kb, j, at_a, at_b = stack.pop()
        count = at_a[0] - at_b[0] - at_b[1]
        if count == 0:
            continue
        # j = 0 only for the box, which splits at 0 whatever it holds
        if count == 1 and j and not (at_a[1] or at_b[1]):
            found.append((ka, kb, j))
            continue
        km = ka + kb
        at_m = at(km, j + 1)
        if at_m[1]:
            found.append((km, km, j + 1))
        stack.append((2 * ka, km, j + 1, at_a, at_m))
        stack.append((km, 2 * kb, j + 1, at_m, at_b))
    return sorted((Fraction(ka, 1 << j), Fraction(kb, 1 << j)) for ka, kb, j in found)


@st.composite
def _irrational_beside_dyadic(draw):
    """p with the irrational roots +-sqrt(k) and dyadic roots beside them:
    sqrt(k) cut to j bits, from below or above, and of either sign, some
    repeated, so that isolation must part an exact root at a bisection
    midpoint from an irrational one close to it."""
    p = Poly([draw(st.sampled_from([Fraction(-2), Fraction(1), Fraction(3, 2)]))])
    for k in draw(st.lists(st.sampled_from([2, 3, 5, 7, 10]),
                           min_size=1, max_size=2, unique=True)):
        p = p * P(-k, 0, 1)
        for _ in range(draw(st.integers(1, 2))):
            j = draw(st.integers(0, 8))
            r = Fraction(isqrt(k << 2 * j) + draw(st.integers(0, 1)), 1 << j)
            p = p * Poly([-r * draw(st.sampled_from([1, -1])), 1]) ** draw(st.integers(1, 2))
    return p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(
    _isolation_input().filter(lambda t: 1 <= t[0].degree <= 20).map(lambda t: t[0]),
    _irrational_beside_dyadic()))
def test_isolation_returns_the_cells_of_the_whole_chain_bisection(p):
    for g in [p] + [g for g, _ in squarefree_decomposition(p)]:
        assert _isolate_squarefree(g) == ref_bisect_whole_chain(g)


@pytest.mark.parametrize("text, calls", [
    # two cells beside the exact root 0 finish on the head's sign
    ("x(1000x^2-1)", 1),
    ("x^3-x", 1),
    ("x(2x-1)(x^2-2)", 3),
    # 1 and 257/256 are exact midpoints, sqrt(2) lies beside them
    ("(x-1)(256x-257)(x-3)(x^2-2)", 7),
])
def test_isolation_evaluates_the_chain_only_where_the_head_cannot_decide(
        text, calls, monkeypatch):
    p = parse_poly(text)
    want = ref_bisect_whole_chain(p)
    top = 2 ** SturmChain(p).chain.ends[0][0]
    points = []
    chain_signs = rootclass._chain_signs
    monkeypatch.setattr(rootclass, "_chain_signs", lambda chain, k, q:
                        points.append(Fraction(k, q)) or chain_signs(chain, k, q))
    assert _isolate_squarefree(p) == want
    # none at the box ends +-2**e, whose signs are those at +-inf
    assert len(points) == calls and all(-top < x < top for x in points)


# -- open counts with rational endpoint roots, against deflation --------------
#
# `SturmChain.count_open` replaced dividing every root at a rational endpoint
# out of the polynomial and building a new chain for the quotient.  That
# route is kept below verbatim as the reference: `ref_deflate` and
# `sign_on_interval`.


def ref_deflate(w: Poly, v: Fraction) -> Poly:
    """w with every factor x - v divided out."""
    while w.degree >= 1 and w.eval(v) == 0:
        w = w.exact_div(Poly([-v, 1]))
    return w


def ref_count_open(f: Poly, lo: Fraction, hi: Fraction) -> int:
    g = ref_deflate(ref_deflate(f, lo), hi)
    return sturm_count(g, lo, hi) if g.degree >= 1 else 0


def ref_sign_on_interval(f: Poly, lo, hi) -> str:
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if f.is_zero():
        return "mixed-or-zero"
    g = ref_deflate(ref_deflate(f, lo), hi)
    if g.degree >= 1 and sturm_count(g, lo, hi) > 0:
        return "mixed-or-zero"
    sample = f.eval((lo + hi) / 2)
    return "positive" if sample > 0 else "negative"


def _chain_member_roots(f: Poly) -> list[Fraction]:
    """Rational roots of the linear members of f's Sturm chain after the
    first: points where a later member vanishes."""
    if f.degree < 1:
        return []
    return [Fraction(-c[0], c[1]) for c in SturmChain(f).chain[1:] if len(c) == 2]


@st.composite
def _endpoint_input(draw):
    """(f, lo, hi): f a product of a lead, linear factors with multiplicity
    1..3 (possibly none, so degree 0), maybe a factor with no real root;
    roots planted at neither, one or both endpoints, and endpoints also
    drawn from the roots of later chain members."""
    lo = _dyadic(draw, 8, 2)
    hi = lo + Fraction(draw(st.integers(1, 16)), 2 ** draw(st.integers(0, 3)))
    f = Poly([draw(st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(1), Fraction(5, 2)]))])
    for end in draw(st.sampled_from([(), (lo,), (hi,), (lo, hi)])):
        f = f * Poly([-end, 1]) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        f = f * Poly([-_dyadic(draw, 8, 3), 1]) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = f * Poly([draw(st.integers(1, 5)), _dyadic(draw, 4, 1), 1])
    points = [lo, hi] + _chain_member_roots(f)
    a = draw(st.sampled_from(points))
    b = draw(st.sampled_from(points))
    if a == b:
        b = a + Fraction(1, 2 ** draw(st.integers(0, 3)))
    return f, min(a, b), max(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_endpoint_input())
def test_count_open_matches_deflation(case):
    f, lo, hi = case
    assert SturmChain(f).count_open(lo, hi) == ref_count_open(f, lo, hi)
    assert sign_on_interval(f, lo, hi) == ref_sign_on_interval(f, lo, hi)


def test_count_open_where_a_later_chain_member_vanishes():
    # x^3 - 3x + 1: the third chain member is 2x - 1, zero at 1/2, where f
    # is not; x^3 - 3x: the third member is a multiple of x, zero at the
    # root 0 of f itself
    f = P(1, -3, 0, 1)
    assert Fraction(1, 2) in _chain_member_roots(f)
    g = P(0, -3, 0, 1)
    assert 0 in _chain_member_roots(g)
    for p, points in ((f, [Fraction(1, 2)]), (g, [Fraction(0)])):
        for c in points:
            for lo, hi in ((c, c + 2), (c - 2, c), (c - 1, c + 1), (-3, c), (c, 3)):
                assert SturmChain(p).count_open(lo, hi) == ref_count_open(p, lo, hi)
    assert SturmChain(g).count_open(0, 2) == 1           # sqrt(3)
    assert SturmChain(g).count_open(-2, 0) == 1          # -sqrt(3)
    assert SturmChain(g).count_open(-Fraction(1, 2), 0) == 0


def test_count_open_keeps_the_count_contract():
    chain = SturmChain(P(-1, 0, 1))
    assert chain.count_open(-1, 1) == 0
    assert chain.count_open(-1, Fraction(3, 2)) == 1
    with pytest.raises(ValueError):
        chain.count_open(1, 1)
    with pytest.raises(EndpointRootError):
        chain.count(-1, 1)
    assert SturmChain(P(7)).count_open(0, 1) == 0


# -- roots of w strictly between two isolated roots -------------------------


def _sqrt_near(k: Fraction, bits: int = 40) -> Fraction:
    """A rational within 2^-bits of sqrt(k)."""
    return Fraction(isqrt(k.numerator * k.denominator * 4**bits), k.denominator * 2**bits)


@st.composite
def _between_input(draw, irrational: bool):
    """(Q, w, i, j, ends): Q a product of distinct linear factors and, when
    `irrational`, of factors x^2 - k with k no square, so that its roots
    i < j are rational (isolated exactly or not) or irrational neighbours;
    `ends` holds the two roots, irrational ones by a rational within 2^-40.
    w has roots planted next to the two roots and between them, and maybe a
    quadratic factor, but vanishes at neither root."""
    Q = Poly([draw(st.sampled_from([Fraction(-2), Fraction(1, 3), Fraction(1)]))])
    roots = []
    for a in draw(st.lists(
            st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 7])),
            min_size=0 if irrational else 2, max_size=4, unique=True)):
        q = Poly([-a, 1])
        Q, roots = Q * q, roots + [(a, q)]
    if irrational:
        for k in draw(st.lists(st.sampled_from(
                [Fraction(2), Fraction(3), Fraction(7), Fraction(5, 4), Fraction(10, 9)]),
                min_size=1, max_size=2, unique=True)):
            q = Poly([-k, 0, 1])
            Q, roots = Q * q, roots + [(_sqrt_near(k), q), (-_sqrt_near(k), q)]
    roots.sort(key=lambda t: t[0])
    assume(len(roots) >= 2)
    i = draw(st.integers(0, len(roots) - 2))
    j = draw(st.integers(i + 1, len(roots) - 1))
    a, b = roots[i][0], roots[j][0]
    w = Poly([draw(st.sampled_from([Fraction(-3), Fraction(1, 2), Fraction(2)]))])
    for c in (a, b):
        if draw(st.booleans()):
            w = w * Poly([-c - Fraction(draw(st.sampled_from([-1, 1])),
                                       2 ** draw(st.integers(1, 12))), 1])
    for _ in range(draw(st.integers(0, 3))):
        w = w * Poly([-(a + (b - a) * Fraction(draw(st.integers(1, 7)), 8)), 1])
    if draw(st.booleans()):
        w = w * Poly([draw(st.integers(1, 5)), _dyadic(draw, 4, 1), 1])
    # a root planted next to one root, or the quadratic factor, may land on
    # a rational root of Q; no factor of w vanishes at an irrational root
    assume(w.eval(a) != 0 and w.eval(b) != 0)
    return Q, w, i, j, (a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_between_input(irrational=False))
def test_count_strictly_between_rational_roots_matches_deflation(case):
    Q, w, i, j, (a, b) = case
    roots = isolate_real_roots(Q)
    r1, r2 = roots[i], roots[j]
    assert lienard._count_strictly_between(w, r1, r2) == ref_count_open(w, a, b)
    # both brackets still hold their roots, and only touch when w is a
    # constant, which leaves them as they were
    for r, c in ((r1, a), (r2, b)):
        assert r.lo <= c <= r.hi
    assert r1.hi <= r2.lo


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_between_input(irrational=True))
def test_count_strictly_between_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    Q, w, i, j, _ = case

    def sym(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x)

    lo, hi = sympy.CRootOf(sym(Q), i), sympy.CRootOf(sym(Q), j)
    want = len({z for z in sympy.real_roots(sym(w)) if lo < z < hi})
    roots = isolate_real_roots(Q)
    r1, r2 = roots[i], roots[j]
    assert lienard._count_strictly_between(w, r1, r2) == want


def test_count_strictly_between_when_a_refinement_step_lands_on_the_root():
    # the roots of x + 1/7 and x + 3/7 lie in the bracket (-2/3, 0) of
    # -1/3, so clearing it bisects at -1/3 itself, and the root turns exact
    one = RealRoot(poly=P(-1, 1), lo=Fraction(1), hi=Fraction(1))
    r = _third_root()
    assert lienard._count_strictly_between(P(Fraction(1, 7), 1), r, one) == 1
    assert r.is_exact() and r.value == Fraction(-1, 3)
    minus_one = RealRoot(poly=P(1, 1), lo=Fraction(-1), hi=Fraction(-1))
    r = _third_root()
    assert lienard._count_strictly_between(P(Fraction(3, 7), 1), minus_one, r) == 1
    assert r.is_exact() and r.value == Fraction(-1, 3)
    # a w that vanishes at the inexact root breaks the precondition of the
    # count, which raises before any refinement step
    w = P(Fraction(1, 3), 1) * P(Fraction(1, 7), 1) * P(Fraction(-1, 2), 1)
    r = _third_root()
    with pytest.raises(ValueError):
        lienard._count_strictly_between(w, r, one)
    assert (r.lo, r.hi) == (Fraction(-2, 3), 0) and not r.is_exact()


# -- canonical isolating intervals ---------------------------------------------


@st.composite
def _canonical_input(draw):
    """p with rational roots of small denominators (which the low-height
    guess of `try_exact` can miss), close pairs r, r + 2^-k, factors
    x^2 - k with irrational roots, maybe repeated, and maybe a factor with
    no real root."""
    p = Poly([draw(st.sampled_from([Fraction(-3), Fraction(1, 2), Fraction(5)]))])
    for _ in range(draw(st.integers(0, 3))):
        r = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 3, 5, 7, 9])))
        p = p * Poly([-r, 1]) ** draw(st.integers(1, 2))
        if draw(st.booleans()):
            p = p * Poly([-r - Fraction(1, 2 ** draw(st.integers(2, 10))), 1])
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 5),
                                  Fraction(50, 9), Fraction(1001)]))
        p = p * Poly([-k, 0, 1]) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        p = p * Poly([draw(st.integers(1, 5)), _dyadic(draw, 4, 1), 1])
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_canonical_input().filter(lambda p: p.degree >= 1))
def test_canonical_does_not_depend_on_refinement(p):
    for root in isolate_real_roots(p):
        want = root.canonical()
        before = (root.lo, root.hi)
        assert root.canonical() == want and (root.lo, root.hi) == before
        # after 0..30 extra midpoint steps
        other = copy.copy(root)
        for _ in range(31):
            assert other.canonical() == want
            other.refine()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_canonical_input().filter(lambda p: p.degree >= 1))
def test_canonical_isolates_the_root_in_its_factor(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def sym(q):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(q.coeffs)], x)

    roots = isolate_real_roots(p)
    exact_roots = sorted(set(sympy.real_roots(sym(p))))
    assert len(roots) == len(exact_roots)
    for root, z in zip(roots, exact_roots):
        lo, hi = root.canonical()
        assert [w for w in set(sympy.real_roots(sym(root.poly))) if lo <= w <= hi] == [z]
        # exact exactly when the root is rational
        assert (lo == hi) == bool(z.is_rational)
        if lo < hi:
            # a dyadic cell [k 2^j, (k+1) 2^j] on one side of 0, with ends
            # that are no roots
            width = hi - lo
            scale = width.numerator * width.denominator
            assert 1 in (width.numerator, width.denominator) and scale & (scale - 1) == 0
            assert (lo / width).denominator == 1 and (lo >= 0 or hi <= 0)
            assert root.poly.eval(lo) != 0 and root.poly.eval(hi) != 0


def test_canonical_reports_a_rational_root_that_try_exact_left_inexact_as_exact():
    # x - 9/7 isolates to (1, 2), where the simplest rational is 3/2
    [root] = isolate_real_roots(P(Fraction(-9, 7), 1))
    assert not root.is_exact() and (root.lo, root.hi) == (Fraction(1), Fraction(2))
    assert root.canonical() == (Fraction(9, 7), Fraction(9, 7))
    # 13/5 shares its factor with the irrational roots of x^2 - 2
    roots = isolate_real_roots(P(Fraction(-13, 5), 1) * P(-2, 0, 1))
    assert [r.is_exact() for r in roots] == [False] * 3
    assert [r.canonical() for r in roots] == [
        (Fraction(-8), Fraction(0)), (Fraction(0), Fraction(2)),
        (Fraction(13, 5), Fraction(13, 5))]


@pytest.mark.parametrize("p, cells", [
    # isolation used to return (19/16, 17/8) for sqrt(2), past the exact
    # midpoint 1/2, and the whole box (-4, 4) for the cube root of 2
    (parse_poly("x(2x-1)(x^2-2)"), [(-2, -1), (1, 2)]),
    (parse_poly("x^3-2"), [(0, 4)]),
])
def test_isolation_cell_of_an_irrational_root_is_its_canonical_cell(p, cells):
    got = [(lo, hi) for lo, hi in _isolate_squarefree(p) if lo < hi]
    assert got == cells
    for lo, hi in got:
        assert RealRoot(poly=p, lo=lo, hi=hi).canonical() == (lo, hi)


# -- canonical cells, against the halving walk they replaced -------------------
#
# `RealRoot.canonical` read an irrational root's cell off its own halving of
# [0, 2^e] or [-2^e, 0] toward the root; it now reads it off the isolation of
# the root's polynomial.  That walk is kept below verbatim (self -> root) as
# the reference.


def ref_canonical_cell(root: RealRoot) -> tuple[Fraction, Fraction]:
    if root.is_exact():
        return root.lo, root.hi
    ints = int_coeffs(root.poly)
    lead = abs(ints[-1])
    r = copy.copy(root)
    while lead * (r._b - r._a) >= r._d:
        r.refine()
        if r.is_exact():
            return r.lo, r.hi
    k = (lead * r._a) // r._d + 1       # floor(lc * lo) + 1
    if k * r._d < r._b * lead and _sign_at(ints, k, lead) == 0:
        v = Fraction(k, lead)
        return v, v
    # the root is irrational: no rational point is a root, and poly has
    # no other root in (r.lo, r.hi), so its sign there places the root
    at_hi = _sign_int(ints, r._b, r._d)
    r_lo, r_hi = r.lo, r.hi

    def below(x: Fraction) -> bool:
        return x >= r_hi or (x > r_lo and
                             _sign_at(ints, x.numerator, x.denominator) == at_hi)

    chain = SturmChain(root.poly)
    top = Fraction(2 ** _root_exponent(ints))
    lo, hi = (-top, Fraction(0)) if below(Fraction(0)) else (Fraction(0), top)
    while not (chain.sign(lo) and chain.sign(hi) and chain.count_open(lo, hi) == 1):
        mid = (lo + hi) / 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_canonical_input().filter(lambda p: p.degree >= 1),
       st.lists(st.integers(0, 5), max_size=12))
def test_canonical_matches_the_halving_walk_it_replaced(p, steps):
    # from each isolation cell, and after each of a run of steps: a
    # midpoint refinement (5) or the sign of one of `_others` (0..4)
    for g, _ in squarefree_decomposition(p):
        others = _others(p, g)
        for lo, hi in _isolate_squarefree(g):
            root = RealRoot(poly=g, lo=lo, hi=hi)
            want = ref_canonical_cell(root)
            assert root.canonical() == want
            # an irrational root's canonical cell is its isolation cell
            assert want == (lo, hi) or want[0] == want[1]
            for step in steps:
                if step == 5:
                    root.refine()
                else:
                    root.sign_of(others[step])
                assert root.canonical() == ref_canonical_cell(root) == want
