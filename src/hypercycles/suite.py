"""Acceptance-style batch checks over the whole pipeline.

Each criterion is a standalone callable returning a CriterionResult; the
constructions of criteria 1-3 are cached so the round-trip and invariance
criteria re-verify those exact curves instead of rebuilding them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .families import DEFAULT_S_CAP, construct_high_n, construct_n_2m, construct_case_i, lift
from .lienard import (
    HyperellipticCurve,
    LienardSystem,
    bounds,
    certify,
    derive_system,
    invariance_residual,
)
from .polyx import Poly
from .recover import UndeterminedType, recover_curve
from .rootclass import (
    RootCount,
    cauchy_bound,
    discriminant_sequence,
    hankel_minor,
    power_sums,
    revised_sign_list,
    sign_list,
    sturm_count,
)
from .polyx import squarefree_part

DEFAULT_SEED = 90125


@dataclass
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    details: list = field(default_factory=list)
    seconds: float = 0.0


class SuiteContext:
    """Carries the constructed curves across criteria."""

    def __init__(self, seed: int = DEFAULT_SEED, s_cap: int = DEFAULT_S_CAP):
        self.seed = seed
        self.s_cap = s_cap
        self.curves: dict[tuple[int, int], HyperellipticCurve] = {}

    def remember(self, mn, curve):
        self.curves[mn] = curve


def _result(k, name, checks, t0) -> CriterionResult:
    passed = all(ok for ok, _ in checks)
    return CriterionResult(
        criterion=k,
        name=name,
        passed=passed,
        details=[msg for _, msg in checks],
        seconds=time.monotonic() - t0,
    )


def criterion_1(ctx: SuiteContext) -> CriterionResult:
    """Case (iii) family: floor(m/2) cycles for (2,5), (3,7), (4,9), (5,11)."""
    t0 = time.monotonic()
    checks = []
    for m, n in ((2, 5), (3, 7), (4, 9), (5, 11)):
        res = construct_high_n(m, n, s_cap=ctx.s_cap)
        ctx.remember((m, n), res.curve)
        want = m // 2
        got = res.report.certified_count
        checks.append(
            (got == want, f"({m},{n}): certified {got}, expected {want}, "
                          f"s = {res.parameters.get('s')}")
        )
    return _result(1, "case (iii) family counts", checks, t0)


def criterion_2(ctx: SuiteContext) -> CriterionResult:
    """n = 2m family: floor((2m-1)/4) cycles, matching the exact bound."""
    t0 = time.monotonic()
    checks = []
    for m in (4, 5, 6, 7):
        res = construct_n_2m(m, s_cap=ctx.s_cap)
        ctx.remember((m, 2 * m), res.curve)
        want = (2 * m - 1) // 4
        got = res.report.certified_count
        b = bounds(m, 2 * m)
        ok = got == want and b.exact and b.upper == want
        checks.append(
            (ok, f"(m={m}, n={2*m}): certified {got}, expected {want}, "
                 f"bounds [{b.lower},{b.upper}] exact={b.exact}")
        )
    return _result(2, "n = 2m family counts and exactness", checks, t0)


def criterion_3(ctx: SuiteContext) -> CriterionResult:
    """Case (i): (4,6) certifies 1 cycle; (10,13) certifies 2 in [2,3]."""
    t0 = time.monotonic()
    checks = []
    res46 = construct_case_i(4, 6)
    ctx.remember((4, 6), res46.curve)
    got46 = res46.report.certified_count
    checks.append((got46 == 1, f"(4,6): certified {got46}, expected 1"))
    res1013 = construct_case_i(10, 13)
    ctx.remember((10, 13), res1013.curve)
    got = res1013.report.certified_count
    b = bounds(10, 13)
    ok = got == 2 and b.lower == 2 and b.upper == 3 and b.lower <= got <= b.upper
    checks.append((ok, f"(10,13): certified {got}, expected 2 within [{b.lower},{b.upper}]"))
    return _result(3, "case (i) constructions", checks, t0)


def _random_poly(rng: random.Random, monic: bool) -> Poly:
    deg = rng.randint(2, 8)
    coeffs = [Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(deg)]
    lead = Fraction(1) if monic else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 1)
    p = Poly(coeffs + [lead])
    if rng.random() < 0.5:
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        p = p * Poly([-r, 1]) ** 2
        if monic:
            p = p.monic()
    return p


def criterion_4(ctx: SuiteContext) -> CriterionResult:
    """Root classification by the discrimination system (revised sign list
    of `discriminant_sequence`) agrees with the Sturm oracle 500/500; the
    Hankel identity D_k = S_k holds for 200 random monic polynomials."""
    t0 = time.monotonic()
    rng = random.Random(ctx.seed)
    agree = 0
    total = 500
    for _ in range(total):
        p = _random_poly(rng, monic=False)
        sf = squarefree_part(p)
        bound = cauchy_bound(sf) + 1
        revised = revised_sign_list(sign_list(discriminant_sequence(p)))
        real = RootCount.from_revised(revised).distinct_real
        if real == sturm_count(sf, -bound, bound):
            agree += 1
    hankel_ok = 0
    hankel_total = 200
    for _ in range(hankel_total):
        p = _random_poly(rng, monic=True)
        n = p.degree
        sums = power_sums(p, max(2 * n - 2, 0))
        ds = discriminant_sequence(p)
        if all(ds[k - 1] == hankel_minor(sums, k) for k in range(1, n + 1)):
            hankel_ok += 1
    checks = [
        (agree == total, f"oracle agreement {agree}/{total}"),
        (hankel_ok == hankel_total, f"Hankel identity {hankel_ok}/{hankel_total}"),
    ]
    return _result(4, "root classification cross-validation", checks, t0)


def criterion_5(ctx: SuiteContext) -> CriterionResult:
    """Round trip recover(derive(curve)) == curve for every constructed
    curve of type n != 2m+1; the n = 2m+1 curves must raise UndeterminedType
    (recovery is undefined there by design)."""
    t0 = time.monotonic()
    _ensure_constructions(ctx)
    checks = []
    for (m, n), curve in sorted(ctx.curves.items()):
        sys = derive_system(curve)
        if n == 2 * m + 1:
            try:
                recover_curve(sys)
                checks.append((False, f"({m},{n}): expected UndeterminedType"))
            except UndeterminedType:
                checks.append((True, f"({m},{n}): UndeterminedType, as documented"))
            continue
        out = recover_curve(sys)
        ok = out.found and out.curve.P == curve.P and out.curve.Q == curve.Q
        checks.append((ok, f"({m},{n}): exact round trip = {ok}"))
    return _result(5, "reconstruction round trips", checks, t0)


def criterion_6(ctx: SuiteContext) -> CriterionResult:
    """50 random (2,4) systems: recovery must produce no-curve witnesses
    (any found curve would have to certify 0 cycles)."""
    t0 = time.monotonic()
    rng = random.Random(ctx.seed + 1)
    ok_count = 0
    total = 50
    notes = []
    for _ in range(total):
        f = Poly([Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(2)]
                 + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        g = Poly([Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(4)]
                 + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        sys = LienardSystem(f=f, g=g)
        out = recover_curve(sys)
        if not out.found:
            ok_count += 1
        else:
            rep = certify(out.curve)
            if rep.certified_count == 0:
                ok_count += 1
                notes.append(f"curve found but certifies 0 cycles: {sys.type}")
            else:
                notes.append(f"UNEXPECTED certified curve for {sys.type}")
    checks = [(ok_count == total, f"no-curve or zero-cycle outcomes {ok_count}/{total}")]
    checks += [(True, note) for note in notes]
    return _result(6, "(2,4) negative control", checks, t0)


def criterion_7(ctx: SuiteContext) -> CriterionResult:
    """The expanded invariance residual vanishes for every constructed curve."""
    t0 = time.monotonic()
    _ensure_constructions(ctx)
    checks = []
    for (m, n), curve in sorted(ctx.curves.items()):
        sys = derive_system(curve)
        res = invariance_residual(sys, curve)
        checks.append((res.is_zero(), f"({m},{n}): residual zero = {res.is_zero()}"))
    return _result(7, "invariance residuals", checks, t0)


def criterion_8(ctx: SuiteContext) -> CriterionResult:
    """Lifting the (2,5) construction twice: types (3,7), (4,9), counts >= 1."""
    t0 = time.monotonic()
    _ensure_constructions(ctx)
    base = ctx.curves[(2, 5)]
    first = lift(certify(base), s_cap=ctx.s_cap)
    second = lift(first.report, s_cap=ctx.s_cap)
    checks = [
        (
            first.system.type == (3, 7) and first.report.certified_count >= 1,
            f"first lift: type {first.system.type}, "
            f"count {first.report.certified_count}",
        ),
        (
            second.system.type == (4, 9) and second.report.certified_count >= 1,
            f"second lift: type {second.system.type}, "
            f"count {second.report.certified_count}",
        ),
    ]
    return _result(8, "lift monotonicity", checks, t0)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def _ensure_constructions(ctx: SuiteContext) -> None:
    if (2, 5) not in ctx.curves:
        criterion_1(ctx)
    if (4, 8) not in ctx.curves:
        criterion_2(ctx)
    if (4, 6) not in ctx.curves:
        criterion_3(ctx)


def run_suite(criteria=None, seed: int = DEFAULT_SEED,
              s_cap: int = DEFAULT_S_CAP) -> list[CriterionResult]:
    """Run the requested criteria (all by default), one after another in
    ascending order, and return their results.

    Criteria 1-3 therefore run before 5/7/8, so the dependent checks verify
    the very curves those constructions produced; when 1-3 are not
    requested, the dependent criteria build those curves themselves."""
    wanted = sorted(set(criteria or CRITERIA))
    for k in wanted:
        if k not in CRITERIA:
            raise ValueError(f"unknown criterion {k}")
    ctx = SuiteContext(seed=seed, s_cap=s_cap)
    return [CRITERIA[k](ctx) for k in wanted]
