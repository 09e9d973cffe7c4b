"""Randomized cross-module stress: curve factories, derivation, invariance,
certification bounds and reconstruction round trips on one seeded stream."""

import random
from fractions import Fraction

import pytest

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
