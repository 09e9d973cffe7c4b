"""Randomized cross-module stress: curve factories, derivation, invariance,
certification bounds and reconstruction round trips on one seeded stream."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hypercycles.lienard import (
    HyperellipticCurve,
    NonPolynomialSystem,
    bounds,
    certify,
    derive_system,
    invariance_check,
    invariance_residual,
)
from hypercycles.polyx import Poly, poly_gcd, squarefree_part
from hypercycles.recover import UndeterminedType, recover_curve
from hypercycles.rootclass import isolate_real_roots


def _random_curve(rng: random.Random):
    """A curve whose Q is a signed product of powers of P's linear factors;
    sqfree(Q) | P makes the derivation divisible by construction."""
    k = rng.randint(2, 4)
    roots = rng.sample(range(-4, 7), k)
    mults = [rng.choice([1, 1, 2, 3, 4]) for _ in range(k)]
    extra = rng.randint(0, 2)
    P = Poly([1])
    for r in roots:
        P = P * Poly([-r, 1])
    for _ in range(extra):
        P = P * Poly([-Fraction(rng.randint(-9, 9), rng.randint(1, 3)), 1])
    Q = Poly([Fraction(rng.choice([-5, -2, -1, 1, 2, 5]))])
    for r, mu in zip(roots, mults):
        Q = Q * Poly([-r, 1]) ** mu
    return HyperellipticCurve(P=P, Q=Q)


def test_random_curves_derive_invariant_and_bounded():
    rng = random.Random(4242)
    derived = 0
    for _ in range(120):
        curve = _random_curve(rng)
        try:
            sys = derive_system(curve)
        except NonPolynomialSystem:
            continue
        derived += 1
        assert invariance_check(sys, curve)
        assert curve.P.divrem(squarefree_part(curve.Q))[1].is_zero()
        report = certify(curve)
        b = bounds(sys.m, sys.n)
        if b.upper is not None:
            assert report.certified_count <= b.upper
    assert derived >= 20  # the factory must actually exercise the pipeline


def test_random_curves_recover_roundtrip():
    rng = random.Random(777)
    checked = 0
    for _ in range(80):
        curve = _random_curve(rng)
        try:
            sys = derive_system(curve)
        except NonPolynomialSystem:
            continue
        if sys.n == 2 * sys.m + 1:
            with pytest.raises(UndeterminedType):
                recover_curve(sys)
            continue
        out = recover_curve(sys)
        assert out.found, f"lost curve of type {sys.type}: {out.witness}"
        assert out.curve.P == curve.P and out.curve.Q == curve.Q
        checked += 1
    assert checked >= 10


def test_perturbed_systems_rarely_have_curves():
    # nudging one coefficient of a derived g must break the invariant curve
    from hypercycles.lienard import LienardSystem

    rng = random.Random(31337)
    eligible = 0
    broken = 0
    for _ in range(80):
        curve = _random_curve(rng)
        try:
            sys = derive_system(curve)
        except NonPolynomialSystem:
            continue
        if sys.n == 2 * sys.m + 1:
            continue
        g2 = sys.g + Poly([0, Fraction(1, 7)])
        if g2.degree != sys.n:
            continue
        eligible += 1
        out = recover_curve(LienardSystem(f=sys.f, g=g2))
        if not out.found:
            broken += 1
        else:
            # a perturbation can occasionally land on another valid curve;
            # it must then satisfy the invariance identity
            assert invariance_check(LienardSystem(f=sys.f, g=g2), out.curve)
    assert eligible >= 10
    assert broken == eligible  # no perturbed draw kept an invariant curve


def test_isolation_separates_clustered_roots():
    # roots at 1, 1 + 2^-k, 2 for shrinking gaps
    for k in (4, 8, 16, 24):
        near = 1 + Fraction(1, 2**k)
        p = Poly([-1, 1]) * Poly([-near, 1]) * Poly([-2, 1])
        roots = isolate_real_roots(p)
        assert len(roots) == 3
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo or a.is_exact() or b.is_exact()
        assert roots[0].equals_rational(1) or roots[0].hi < near


def test_invariance_residual_is_bivariate_zero_object():
    rng = random.Random(11)
    for _ in range(20):
        curve = _random_curve(rng)
        try:
            sys = derive_system(curve)
        except NonPolynomialSystem:
            continue
        res = invariance_residual(sys, curve)
        assert res.is_zero()


def test_gcd_content_primitive_contracts():
    rng = random.Random(5)
    for _ in range(60):
        p = Poly([Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 7))]
                 + [Fraction(rng.randint(1, 9), rng.randint(1, 4))])
        c = p.content()
        prim = p.primitive()
        assert c > 0
        assert prim.scale(c) == p
        assert prim.content() == 1


def _oracle_verdicts(sympy, curve: HyperellipticCurve) -> list[tuple[bool, bool, bool, bool]]:
    """(q_positive_between, p2_minus_q_negative, no_common_root_qprime_f,
    certified) for each gap between adjacent simple real roots of Q, from
    sympy alone: each of Q, H = P^2 - Q and gcd(Q', f) has its real roots
    in the open gap counted, and Q and H are evaluated at the gap's
    midpoint.  As in `certify`, (iii) and (iv) hold only where Q is
    positive on the gap and all roots of Q are real."""
    x = sympy.symbols("x")

    def sym(p: Poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(p.coeffs))

    P, Q = sym(curve.P), sym(curve.Q)
    H = sympy.expand(P**2 - Q)
    f = sympy.cancel(sympy.diff(P, x) + P * sympy.diff(Q, x) / (2 * Q))
    R4 = sympy.gcd(sympy.diff(Q, x), f)
    q_roots = Counter(sympy.real_roots(sympy.Poly(Q, x)))
    all_real = sum(q_roots.values()) == sympy.degree(Q, x)
    zs = sorted(q_roots)

    def inside(p, a, b) -> int:
        if sympy.degree(p, x) < 1:
            return 0
        return len({z for z in sympy.real_roots(sympy.Poly(p, x)) if a < z < b})

    out = []
    for a, b in zip(zs, zs[1:]):
        if q_roots[a] != 1 or q_roots[b] != 1:
            continue
        mid = (a + b) / 2
        q_pos = inside(Q, a, b) == 0 and Q.subs(x, mid) > 0
        rest = q_pos and all_real
        h_neg = rest and inside(H, a, b) == 0 and H.subs(x, mid) < 0
        no_common = rest and inside(R4, a, b) == 0
        out.append((bool(q_pos), bool(h_neg), bool(no_common),
                    bool(q_pos and h_neg and no_common)))
    return out


def _verdicts(curve: HyperellipticCurve) -> list[tuple[bool, bool, bool, bool]]:
    return [(v.q_positive_between, v.p2_minus_q_negative,
             v.no_common_root_qprime_f, v.certified)
            for v in certify(curve).intervals]


def test_certify_interval_verdicts_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    # P = 3x(1 - x^2), Q = 1 - x^2: H < 0 at the midpoint 0 of the gap
    # (-1, 1), yet H has two roots in it, where 9x^2(1 - x^2) = 1
    curves = [HyperellipticCurve(P=Poly([0, 3, 0, -3]), Q=Poly([1, 0, -1]))]
    curves += [_random_curve(rng) for _ in range(30)]
    seen = []
    for curve in curves:
        got = _verdicts(curve)
        assert got == _oracle_verdicts(sympy, curve), (curve.P, curve.Q)
        seen += got
    # the draws must reach both certified and refused gaps
    assert any(v[3] for v in seen) and not all(v[3] for v in seen)


def test_certify_samples_a_gap_at_a_double_root_of_h():
    # P = Q = 1 - x^2 has type (1,3) and one gap (-1, 1), whose midpoint 0
    # is a double root of H = x^2 (x^2 - 1) and a root of gcd(Q', f) = x
    curve = HyperellipticCurve(P=Poly([1, 0, -1]), Q=Poly([1, 0, -1]))
    assert derive_system(curve).type == (1, 3)
    report = certify(curve)
    assert [(v.s1.value, v.s2.value) for v in report.intervals] == [(-1, 1)]
    assert _verdicts(curve) == [(True, False, False, False)]
    sympy = pytest.importorskip("sympy")
    assert _oracle_verdicts(sympy, curve) == [(True, False, False, False)]


# -- Poly's integer form against Fraction-coefficient arithmetic ---------------

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_coeff_lists = st.lists(st.one_of(st.just(Fraction(0)), _rationals), max_size=6)


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _strip(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _strip(out)


def _ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _canonical(p: Poly) -> Poly:
    """p, after checking its stored pair: den >= 1, gcd(den, *nums) = 1,
    no zero on top, and ((), 1) for the zero polynomial."""
    nums, den = p.int_form()
    assert isinstance(nums, tuple) and den >= 1
    assert gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    return p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coeff_lists, _coeff_lists, _rationals, st.integers(0, 4), st.integers(0, 3), _rationals)
def test_integer_form_arithmetic_matches_fraction_coefficients(ca, cb, c, k, e, x):
    a, b = Poly(ca), Poly(cb)
    ra, rb = _strip(ca), _strip(cb)
    assert list(_canonical(a).coeffs) == ra
    nums, den = a.int_form()
    assert _canonical(Poly.from_int_form([-3 * v for v in nums] + [0], -3 * den)) == a
    assert list(_canonical(a + b).coeffs) == _ref_add(ra, rb)
    assert list(_canonical(a - b).coeffs) == _ref_add(ra, rb, -1)
    assert list(_canonical(-a).coeffs) == _ref_add([], ra, -1)
    assert list(_canonical(a * b).coeffs) == _ref_mul(ra, rb)
    assert list(_canonical(a.scale(c)).coeffs) == _strip(v * c for v in ra)
    assert list(_canonical(a.derivative()).coeffs) == [i * v for i, v in enumerate(ra)][1:]
    assert list(_canonical(a.shift_up(k)).coeffs) == ([Fraction(0)] * k + ra if ra else [])
    power = [Fraction(1)]
    for _ in range(e):
        power = _ref_mul(power, ra)
    assert list(_canonical(a ** e).coeffs) == power
    assert a.eval(x) == _ref_eval(ra, x)
    if rb:
        assert list(_canonical((a * b).exact_div(b)).coeffs) == ra
        assert list(_canonical(b.monic()).coeffs) == [v / rb[-1] for v in rb]


def test_ring_operations_build_no_fraction(monkeypatch):
    # they run on the stored integer pairs; only a coefficient read builds
    # a Fraction
    a = Poly([Fraction(1, 2), Fraction(-3, 4), 2])
    b = Poly([Fraction(2, 3), 1])
    c = Fraction(-2, 5)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    results = [a + b, a - b, -a, a * b, a.scale(3), a.scale(c), 2 * a, a.derivative(),
               a.shift_up(2), a ** 3, (a * b).exact_div(b), a.monic()]
    assert built == []
    assert results[4].coeffs == (Fraction(3, 2), Fraction(-9, 4), Fraction(6))
    assert len(built) == 6      # three read, three to compare
