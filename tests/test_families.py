import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypercycles import families
from hypercycles.families import (
    CaseIPattern,
    _Bracket,
    _critical_roots,
    _extrema,
    _ladder_slots,
    _pick_window,
    _roots_fit_slots,
    _solve_alignment,
    PatternNotAchieved,
    SearchExhausted,
    construct,
    construct_case_i,
    construct_case_ii,
    construct_high_n,
    construct_n_2m,
    lift,
    perturb_lemma7,
    perturb_lemma8,
)
from hypercycles.lienard import bounds, certify, invariance_check
from hypercycles.polyx import Poly, X, parse_poly, rref
from hypercycles.rootclass import (
    SturmChain,
    all_roots_real_simple,
    cauchy_bound,
    isolate_real_roots,
    sign_on_interval,
)
from test_rootclass import root_between


def _certified_pairs(report):
    return [(v.s1, v.s2) for v in report.intervals if v.certified]


def test_high_n_25():
    res = construct_high_n(2, 5)
    assert res.report.certified_count == 1
    [(s1, s2)] = _certified_pairs(res.report)
    assert s1.equals_rational(1) and s2.equals_rational(2)
    assert invariance_check(res.system, res.curve)


def test_high_n_37_interval():
    res = construct_high_n(3, 7)
    assert res.report.certified_count == 1
    [(s1, s2)] = _certified_pairs(res.report)
    assert s1.equals_rational(2) and s2.equals_rational(3)  # m odd branch


def test_high_n_49_intervals():
    res = construct_high_n(4, 9)
    pairs = _certified_pairs(res.report)
    assert all(p.is_exact() and q.is_exact() for p, q in pairs)
    assert [(1, 2), (3, 4)] == [
        (int(p.lo), int(q.lo)) for p, q in pairs
    ]


def test_high_n_rejects_bad_type():
    with pytest.raises(ValueError):
        construct_high_n(2, 4)


def test_n_2m_counts():
    assert construct_n_2m(5).report.certified_count == 2
    assert construct_n_2m(4).report.certified_count == 1


def test_n_2m_m3_warns_in_parameters():
    res = construct_n_2m(3)
    assert res.report.certified_count == 1
    assert "warning" in res.parameters


def test_lemma7_base_case():
    c, perturbed = perturb_lemma7(0, 1, 3)
    assert c.degree == 0 and c[0] > 0
    roots = isolate_real_roots(perturbed)
    assert len(roots) == perturbed.degree  # all real simple
    assert sign_on_interval(c, 0, 3) == "positive"


def test_lemma7_inductive_step():
    c, perturbed = perturb_lemma7(1, 0, 5)
    assert c.degree == 2
    assert sign_on_interval(c, 0, 5) == "positive"
    roots = isolate_real_roots(perturbed)
    assert len(roots) == perturbed.degree == 4


def test_lemma7_positivity_postcondition():
    for h, l, s in ((0, 1, 3), (0, 2, 4), (1, 0, 5), (1, 1, 6)):
        c, _ = perturb_lemma7(h, l, s)
        assert sign_on_interval(c, 0, s) == "positive"
        assert c.degree == 2 * h


def test_lemma8_base_and_ladders():
    for h, l, s1, s2 in ((1, 0, -2, 3), (1, 1, -2, 4)):
        c, perturbed = perturb_lemma8(h, l, s1, s2)
        assert c.degree == 2 * h - 1
        assert sign_on_interval(c, s1, s2) == "positive"
        roots = isolate_real_roots(perturbed)
        assert len(roots) == perturbed.degree
        # ladder: first root in (s1, 0), exactly one root below 0 after it
        assert roots[0].sign_of(X) == -1 and roots[1].sign_of(X) == -1
        assert roots[2].sign_of(X) == 1


def test_lemma8_rejects_bad_window():
    with pytest.raises(ValueError):
        perturb_lemma8(1, 0, 0, 3)  # s1 must be < -1
    with pytest.raises(ValueError):
        perturb_lemma8(0, 0, -2, 3)  # h >= 1


def test_case_i_46():
    res = construct_case_i(4, 6)
    assert res.report.certified_count == 1
    assert res.system.type == (4, 6)
    b = bounds(4, 6)
    assert b.exact and res.report.certified_count == b.upper


def test_case_i_1013():
    res = construct_case_i(10, 13)
    assert res.report.certified_count == 2
    assert res.system.type == (10, 13)
    assert res.parameters["t"] == 2


def test_case_i_out_of_band():
    with pytest.raises(ValueError):
        construct_case_i(4, 9)


def test_case_i_infeasible_pattern_reports():
    # a pattern whose seed lists cannot produce the ladder
    pattern = CaseIPattern(
        x0_candidates=(Fraction(0),),
        odd_nodes=(Fraction(1, 2),),   # a single node: no t=2 seed pairs
        even_nodes=(Fraction(1, 4),),
        max_seeds=4,
    )
    # every seed was tried (there are none), so the budget did not stop it
    with pytest.raises(PatternNotAchieved, match="seed search failed"):
        construct_case_i(10, 13, pattern=pattern)


def test_case_i_seed_budget_cuts_the_search():
    # with sign +1 first, the first seed fails and the second (sign -1)
    # certifies: a budget of one seed stops with seeds left, two succeed
    pattern = CaseIPattern(signs=(1, -1), max_seeds=1)
    with pytest.raises(PatternNotAchieved, match="seed budget exhausted"):
        construct_case_i(10, 13, pattern=pattern)
    res = construct_case_i(10, 13, pattern=CaseIPattern(signs=(1, -1), max_seeds=2))
    assert res.report.certified_count == 2
    assert res.parameters["sign"] == -1


def test_case_i_t0_walk_keeps_the_seed_budget():
    # (4,6) has t = 0: its seeds are (x0, c) pairs (x0 = None, n even),
    # and the default walk certifies at the seventh, c = 1/64
    with pytest.raises(PatternNotAchieved, match="seed budget exhausted"):
        construct_case_i(4, 6, pattern=CaseIPattern(max_seeds=1))
    res = construct_case_i(4, 6, pattern=CaseIPattern(max_seeds=7))
    assert res.parameters == construct_case_i(4, 6).parameters
    assert res.parameters["c"] == Fraction(1, 64) and res.parameters["t"] == 0


def _alignment_by_product_rule(L, Mpin, zs, sign, free):
    """Reference for `_solve_alignment`: the entry of coefficient c_j of
    x^j in Mfree is d/dc_j of the condition, with M = Mpin*Mfree and M'
    differentiated by the product rule; the top coefficient is 1."""
    Lp, Mpd = L.derivative(), Mpin.derivative()

    def m_of(z, j):
        return Mpin.eval(z) * z**j

    def dm_of(z, j):
        v = Mpd.eval(z) * z**j
        if j >= 1:
            v += Mpin.eval(z) * j * z ** (j - 1)
        return v

    rows = []
    for z in zs:
        a, b = Lp.eval(z), 2 * L.eval(z)
        rows.append([a * m_of(z, j) + b * dm_of(z, j) for j in range(free)]
                    + [-(a * m_of(z, free) + b * dm_of(z, free))])
    for z in zs[:-1]:
        rho = families._sqrt_fraction(L.eval(zs[-1]) / L.eval(z))
        if rho is None:
            return None
        rows.append([m_of(z, j) - sign * rho * m_of(zs[-1], j) for j in range(free)]
                    + [-(m_of(z, free) - sign * rho * m_of(zs[-1], free))])
    # `rref` runs on integer rows: scale each by its denominators, and
    # read the solution as the constant over the pivot
    dens = [math.lcm(*[v.denominator for v in row]) for row in rows]
    reduced, pivots = rref([[(v * d).numerator for v in row] for row, d in zip(rows, dens)])
    if pivots != list(range(free)):
        return None
    return Poly([Fraction(row[free], row[r]) for r, row in enumerate(reduced)] + [1])


def test_solve_alignment_rejects_a_singular_system():
    # L = x^2 - 1, z = 0: K(0) = 2 L(0) M'(0) = 0 asks for M'(0) = 0, which
    # no monic M = x + c0 meets
    L = parse_poly("x^2 - 1")
    assert _solve_alignment(L, Poly([1]), [Fraction(0)], 1, 1) is None


def test_solve_alignment_rejects_an_irrational_rho():
    # L(z_2)/L(z_1) = (-1)/(-2) = 1/2 is not a rational square
    L = parse_poly("x - 1")
    assert _solve_alignment(L, Poly([1]), [Fraction(-1), Fraction(0)], 1, 3) is None


@pytest.mark.parametrize("mn", [(10, 13), (11, 14)])
def test_solve_alignment_matches_the_product_rule(monkeypatch, mn):
    # every seed of the cell's walk, with the assembly stubbed out so that
    # the walk tries them all; (11,14) pins one node (Mpin of degree 1)
    calls = []

    def recording(*args):
        calls.append((args, _solve_alignment(*args)))
        return calls[-1][1]

    monkeypatch.setattr(families, "_solve_alignment", recording)
    monkeypatch.setattr(families, "_case_i_assemble", lambda *args: None)
    with pytest.raises(PatternNotAchieved):
        construct_case_i(*mn, pattern=CaseIPattern(max_seeds=60))
    assert len(calls) >= 40
    assert any(Mfree is not None for _, Mfree in calls)
    assert any(args[1].degree >= 1 for args, _ in calls) == (mn == (11, 14))
    for args, Mfree in calls:
        assert Mfree == _alignment_by_product_rule(*args)


def _fit_by_isolation(p, slots):
    """Reference for `_roots_fit_slots`: isolate p's roots and compare
    each, in order, with its slot's bounds."""
    if not all_roots_real_simple(p):
        return False
    roots = isolate_real_roots(p)
    return len(roots) == len(slots) and all(
        r.sign_of(Poly([-lo, 1])) > 0 > r.sign_of(Poly([-hi, 1]))
        for r, (lo, hi) in zip(roots, slots))


def _planted_ladder(rng, plant):
    """Slots from `_ladder_slots` (lemma 7 or lemma 8 shape) and a
    polynomial with one root inside each, then changed by `plant`: the
    rejecting gate the change must reach, or None when it keeps the fit."""
    l = rng.randint(0, 2)
    s2 = l + 1 + Fraction(rng.randint(1, 12), rng.randint(1, 4))
    if rng.random() < 0.5:
        slots = _ladder_slots(0, 2 * rng.randint(0, 2) + 2, l, 0, s2)
    else:
        s1 = -1 - Fraction(rng.randint(1, 12), rng.randint(1, 4))
        slots = _ladder_slots(2, 2 * rng.randint(1, 2), l, s1, s2)
    roots = []
    for (lo, hi), k in Counter(slots).items():
        roots += [lo + (hi - lo) * Fraction(j, 100) for j in rng.sample(range(1, 100), k)]
    i, j = rng.sample(range(len(roots)), 2)
    extra = Poly([1])
    if plant == "bound":  # exactly on a bound of its slot: 0, 1, s1 or s2
        roots[i] = rng.choice(slots[i])
    elif plant == "count":  # outside every slot
        roots[i] = rng.choice([slots[0][0] - Fraction(rng.randint(1, 8), 4),
                               slots[-1][1] + Fraction(rng.randint(1, 8), 4)])
    elif plant == "degree":
        del roots[i]
    elif plant == "real" and rng.random() < 0.5:  # a double root ...
        roots[i] = roots[j]
    elif plant == "real":  # ... or a complex pair in place of two real roots
        extra = Poly([roots[i] ** 2 + Fraction(rng.randint(1, 9), 16), -2 * roots[i], 1])
        roots = [r for k, r in enumerate(roots) if k not in (i, j)]
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return Poly.from_roots(roots, lead) * extra, slots


def test_roots_fit_slots_agrees_with_isolation(monkeypatch):
    # each rejection is told apart by the gate that refused it: the spies
    # below see a failed realness test or a slot bound that is a root, and
    # a refusal neither saw is the degree test (p.degree != len(slots))
    # or else a slot's root count
    seen = []

    def real_simple(p):
        ok = all_roots_real_simple(p)
        seen.extend([] if ok else ["real"])
        return ok

    class Chain(SturmChain):
        def sign(self, x):
            s = super().sign(x)
            seen.extend(["bound"] if s == 0 else [])
            return s

    monkeypatch.setattr(families, "all_roots_real_simple", real_simple)
    monkeypatch.setattr(families, "SturmChain", Chain)
    rng = random.Random(20261018)
    reached = Counter()
    for _ in range(200):
        plant = rng.choice([None, "bound", "count", "degree", "real"])
        p, slots = _planted_ladder(rng, plant)
        seen.clear()
        fits = _roots_fit_slots(p, slots)
        assert fits == _fit_by_isolation(p, slots) == (plant is None)
        gate = None if fits else seen[0] if seen else (
            "degree" if p.degree != len(slots) else "count")
        assert gate == plant
        reached[gate] += 1
    assert set(reached) == {None, "bound", "count", "degree", "real"}


def test_roots_fit_slots_needs_no_isolation(monkeypatch):
    # a passing lemma 7 candidate: the slot counts come from p's Sturm
    # chain, so no root of p is isolated
    slots = _ladder_slots(0, 2, 1, 0, 3)
    _, cand = perturb_lemma7(0, 1, 3)

    def no_isolation(p):
        raise AssertionError("isolate_real_roots called")

    monkeypatch.setattr(families, "isolate_real_roots", no_isolation)
    assert _roots_fit_slots(cand, slots)


def test_case_ii_ii_i_path():
    res = construct_case_ii(5, 9)
    assert res.report.certified_count == 2
    assert res.system.type == (5, 9)


def test_case_ii_reduction_path():
    res = construct_case_ii(6, 11)
    assert res.report.certified_count == 2
    assert res.system.type == (6, 11)
    assert res.parameters["reduced_from"] == (5, 9)


def test_case_ii_rejects_excluded_cells():
    with pytest.raises(ValueError):
        construct_case_ii(3, 5)


def test_case_ii_47_dead_end_is_reported():
    # the reduction (4,7) -> (3,5) lands on the excluded zero cell
    with pytest.raises(PatternNotAchieved):
        construct_case_ii(4, 7)


def test_lift_preserves_cycles():
    base = construct_high_n(2, 5)
    lifted = lift(base.report)
    assert lifted.system.type == (3, 7)
    assert lifted.report.certified_count >= 1
    again = lift(lifted.report)
    assert again.system.type == (4, 9)
    assert again.report.certified_count >= 1


def test_lift_skips_an_s_that_certifies_too_many(monkeypatch):
    # the first lifted curve reports one cycle more than the base: lift
    # needs exactly the base count, so it doubles s and takes the next one
    base = construct_high_n(2, 5)
    calls = []

    def inflated(curve):
        report = certify(curve)
        calls.append(curve)
        if len(calls) == 1:
            report = dataclasses.replace(report, certified_count=report.certified_count + 1)
        return report

    monkeypatch.setattr(families, "certify", inflated)
    lifted = lift(base.report)
    assert len(calls) == 2
    assert lifted.parameters["s"] == 6
    assert lifted.report.certified_count == base.report.certified_count == 1


@pytest.mark.parametrize("q, start", [
    ("x^2 - 8", 3),                 # roots -+2.83
    ("x^2 - 899/100", 3),           # roots -+2.998, just below 3
    ("(x - 3)(x + 1)", 4),          # an integer root is not above itself
    ("-2(x - 3)^2 (x + 5)", 4),
    ("(x - 29/10)(x + 1)", 3),
    ("(x + 2)(x^2 + 1)", 1),        # no root above 0: the start is still 1
    ("x^2 + 1", 1),
    ("(x - 1000)(x - 1/2)", 1001),
])
def test_lift_starts_at_the_least_integer_above_every_root(q, start):
    # decided exactly, whatever the width of the isolating intervals
    assert families._next_integer_above_roots(parse_poly(q)) == start


# The bisection that `_next_integer_above_roots` replaced, verbatim: the
# reference that the start read off the shared isolation is checked against.
def ref_next_integer_above_roots(q: Poly) -> int:
    """The least integer k >= 1 above every real root of q, decided exactly:
    q(k) != 0 and no root of q in (k, top), with top an integer past the
    Cauchy bound.  Every integer past the least one passes too, so a
    bisection on the integers in [1, top] finds it."""
    if q.degree < 1:
        return 1
    chain = SturmChain(q)
    top = math.floor(cauchy_bound(q)) + 1
    lo, hi = 0, top  # the least such k lies in (lo, hi]
    while hi - lo > 1:
        k = (lo + hi) // 2
        if chain.sign(k) != 0 and chain.count_open(k, top) == 0:
            hi = k
        else:
            lo = k
    return hi


_NEAR = Fraction(1, 2**30)


def _minus(c) -> Poly:
    """x - c."""
    return Poly([-Fraction(c), Fraction(1)])


@st.composite
def _lift_start_input(draw):
    """A product of a nonzero constant and factors from one family: roots
    at integers, roots within 2**-30 of an integer (rational, or the
    irrational k +- 2**-30.5), only negative roots, no real roots, or any of
    these factors repeated."""
    k = st.integers(-30, 30)
    factories = {
        "integer": lambda: _minus(draw(k)),
        "near_integer": lambda: draw(st.sampled_from([
            _minus(draw(k) + draw(st.sampled_from([-1, 1])) * _NEAR),
            _minus(draw(k)) ** 2 - Poly([_NEAR**2 / 2])])),
        "negative": lambda: draw(st.sampled_from([
            _minus(-draw(st.fractions(Fraction(1, 64), 40))),
            Poly([2, draw(st.integers(3, 9)), 1])])),
        "no_real": lambda: (_minus(draw(k)) ** 2
                            + Poly([draw(st.fractions(Fraction(1, 2**40), 9))])),
    }
    family = draw(st.sampled_from(sorted(factories) + ["repeated"]))
    q = Poly([draw(st.sampled_from([Fraction(-3), Fraction(1, 7), Fraction(5)]))])
    for _ in range(draw(st.integers(1, 4))):
        if family == "repeated":
            factor = factories[draw(st.sampled_from(sorted(factories)))]()
            q = q * factor ** draw(st.integers(2, 3))
        else:
            q = q * factories[family]()
    return q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_lift_start_input())
def test_lift_start_matches_the_bisection_it_replaced(q):
    assert families._next_integer_above_roots(q) == ref_next_integer_above_roots(q)


def test_lift_degree_contract():
    base = construct_high_n(2, 5)
    lifted = lift(base.report)
    assert lifted.curve.P.degree == base.curve.P.degree + 1
    assert lifted.curve.Q.degree == base.curve.Q.degree + 2


def test_lift_requires_certified_base():
    # a valid curve with zero certified cycles cannot be lifted
    R = parse_poly("(x-1)(x-2)")
    curve_P = R * parse_poly("x+10")
    curve_Q = (R * parse_poly("(x+10)^4")).scale(10)  # wrong sign: 0 cycles
    from hypercycles.lienard import HyperellipticCurve, certify

    with pytest.raises(ValueError):
        lift(certify(HyperellipticCurve(P=curve_P, Q=curve_Q)))


def test_construct_dispatcher():
    assert construct(2, 5).system.type == (2, 5)
    assert construct(4, 8).system.type == (4, 8)
    assert construct(4, 6).system.type == (4, 6)
    assert construct(5, 9).system.type == (5, 9)
    with pytest.raises(ValueError):
        construct(2, 4)
    with pytest.raises(ValueError):
        construct(1, 7)


def test_constructions_match_lower_bounds():
    for m, n in ((2, 5), (4, 6), (4, 8), (5, 9)):
        res = construct(m, n)
        assert res.report.certified_count == bounds(m, n).lower
        assert res.report.bound_consistent


def test_certified_endpoints_are_simple_roots():
    for res in (construct_high_n(2, 5), construct_n_2m(4), construct_case_i(4, 6)):
        for v in res.report.intervals:
            if v.certified:
                assert v.s1.multiplicity == 1 and v.s2.multiplicity == 1


def test_focus_node_sign_data_on_certified_intervals():
    # at the interior critical point of Q the derived g must be increasing
    for res in (construct_high_n(3, 7), construct_n_2m(5), construct_case_i(10, 13)):
        certified = [v for v in res.report.intervals if v.certified]
        assert certified
        assert all(v.gprime_positive_at_alpha is True for v in certified)


@pytest.mark.parametrize("m, n", [(7, 9), (9, 11), (9, 12), (10, 12)])
def test_case_i_known_gap_is_reported(m, n):
    # bounds() credits each cell with a cycle that construct() cannot build.
    # (7,9) asks for t = 2 exact double roots but offers only deg M = 2 free
    # node coefficients; the rational seed families cannot meet the 3
    # alignment conditions, and the failure is reported, not papered over.
    # (9,11) and (10,12) are short of node coefficients in the same way;
    # at (9,12) every seed of the default pattern fails.
    assert bounds(m, n).lower > 0
    with pytest.raises(PatternNotAchieved):
        construct_case_i(m, n)


@pytest.mark.parametrize(
    "search, message",
    [
        (lambda: construct_high_n(2, 5, s_cap=2), r"no s up to 2 certifies type \(2,5\)"),
        (lambda: construct_n_2m(4, s_cap=4), r"no s up to 4 certifies type \(4,8\)"),
        (lambda: lift(construct_high_n(2, 5).report, s_cap=1), "no lift parameter s"),
        (lambda: construct_case_ii(6, 10, s_cap=1), r"search failed for \(6,10\)"),
    ],
    ids=["high_n", "n_2m", "lift", "case_ii"],
)
def test_search_exhausted_when_cap_is_below_schedule_start(search, message):
    # each doubling schedule starts above its cap, so it yields no value
    # and the search ends at once with SearchExhausted
    with pytest.raises(SearchExhausted, match=message):
        search()


@pytest.mark.parametrize("m, n", [(9, 17), (10, 18), (10, 19)])
def test_ladder_cells_reach_the_lower_bound(m, n):
    # (9,17) needs lemma 7 at h = 3, (10,18) lemma 8 at h = 3, and (10,19)
    # lifts (9,17): each inductive level takes d and b from exact windows
    res = construct(m, n)
    assert res.system.type == (m, n)
    assert res.report.certified_count == 4 == bounds(m, n).lower
    assert invariance_check(res.system, res.curve)


def test_lemma7_height_4_ladder():
    # the ladder (11,21) needs: four inductive levels above the base, each
    # with d and b from exact windows
    c, perturbed = perturb_lemma7(4, 0, 12)
    assert c.degree == 8
    assert sign_on_interval(c, 0, 12) == "positive" and c.eval(0) > 0 and c.eval(12) > 0
    roots = isolate_real_roots(perturbed)
    assert len(roots) == perturbed.degree == 10
    assert all(r.multiplicity == 1 for r in roots)
    assert roots[0].sign_of(X) == 1 and roots[-1].sign_of(X - Poly([12])) == -1


def test_height_5_ladder_is_a_known_gap():
    # (14,26) needs lemma 8 at h = 5, whose top b window is too narrow for
    # the window budget: the failing ladder ends the search at once rather
    # than being retried for every doubled s
    assert bounds(14, 26).lower == 6
    with pytest.raises(SearchExhausted, match="ladder h = 5"):
        construct(14, 26)


# p = x^3 - 2x has critical points -+a, a = sqrt(2/3), both irrational; the
# local maximum is xi = p(-a) = 4a/3 = 1.0886...
_CUBIC = Poly([0, -2, 0, 1])


def _xi_bracket():
    _, [top] = _extrema(_CUBIC)
    return top


def _xi_plus(k):
    # k - p has its local maximum k - p(a) = k + xi at x = a
    _, [top] = _extrema(Poly([k]) - _CUBIC)
    return top


def test_critical_values_bracket_the_extrema():
    [bottom], [top] = _extrema(_CUBIC)
    for bracket, alpha_sign in ((top, -1), (bottom, 1)):
        assert bracket.root.sign_of(X) == alpha_sign
        assert bracket.root.sign_of(_CUBIC - Poly([Fraction(*bracket.lo_q)])) > 0
        assert bracket.root.sign_of(_CUBIC - Poly([Fraction(*bracket.hi_q)])) < 0
    # an interval keeps the critical points strictly inside it only
    assert len(_critical_roots(_CUBIC, (Fraction(-1), Fraction(1)))) == 2
    assert len(_critical_roots(_CUBIC, (Fraction(0), Fraction(1)))) == 1


def test_critical_values_leave_out_a_critical_point_at_an_end():
    # p = x^3 - 3x has critical points -+1, both rational: one at an end of
    # the interval is not inside, whether isolation made it exact or not
    p = Poly([0, -3, 0, 1])
    assert len(_critical_roots(p, (Fraction(-1), Fraction(1)))) == 0
    assert len(_critical_roots(p, (Fraction(-1), Fraction(2)))) == 1
    assert len(_critical_roots(p, (Fraction(-2), Fraction(2)))) == 2
    # an end of the interval strictly inside the root's isolating interval,
    # and a root of its polynomial there: the end is the root itself
    dp = p.derivative()
    for end in (Fraction(1), Fraction(-1)):
        root = root_between(dp, end - Fraction(1, 3), end + Fraction(1, 5))
        assert not families._inside(root, (end, end + 5))
        assert not families._inside(root, (end - 5, end))
        assert families._inside(root, (end - Fraction(1, 2), end + Fraction(1, 2)))


def ref_critical_values(p: Poly, kind: int, interval=None) -> list:
    """Brackets of the critical values of p at its local maxima (kind 1),
    its local minima (kind -1) or all its critical points (kind 0), keeping
    only the points strictly inside `interval` when one is given."""
    dp = p.derivative()
    ddp = dp.derivative()
    out = []
    for r in isolate_real_roots(dp):
        inside = interval is None or families._inside(r, interval)
        if inside and (not kind or r.sign_of(ddp) == -kind):
            out.append(_Bracket(p, r))
    return out


def _bracket_key(brackets):
    return [(b.lo_q, b.hi_q, b.root.int_ends()) for b in brackets]


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _critical_case(draw):
    """An integer polynomial p of degree 3..9 and an open interval.  Most
    draws build p' from rational roots and from x^2 - k (an irrational
    pair when k > 0 is no square, none when k < 0), so p has several real
    critical points, some rational, as x^3 - 3x has; the interval's ends
    fall on, beside or away from those rational points."""
    if draw(st.booleans()):
        rational = draw(st.lists(_SMALL, max_size=5))
        ks = draw(st.lists(st.integers(-3, 8), max_size=3))
        assume(2 <= len(rational) + 2 * len(ks) <= 8)
        dp = Poly([draw(st.sampled_from([-3, -1, 1, 2]))])
        for z in rational:
            dp = dp * Poly([-z, 1])
        for k in ks:
            dp = dp * Poly([-k, 0, 1])
        coeffs = [draw(st.integers(-5, 5))] + [c / (i + 1) for i, c in enumerate(dp.coeffs)]
        nums, _ = Poly(coeffs).int_form()
        p = Poly(nums)
    else:
        rational = []
        p = Poly(draw(st.lists(st.integers(-9, 9), min_size=4, max_size=10)))
        assume(p.degree >= 3)
    near = [z + e for z in rational for e in (0, 0, Fraction(-1, 7), Fraction(1, 5))]
    end = st.sampled_from(near) if near else _SMALL
    ends = draw(st.lists(st.one_of(end, _SMALL, st.integers(-5, 5).map(Fraction)),
                         min_size=2, max_size=2, unique=True))
    return p, tuple(sorted(ends))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_critical_case())
def test_critical_helpers_give_the_reference_brackets(case):
    # every bracket starts from the interval its root was left at by
    # `_inside` and then by the sign of p'' (extrema only), as the
    # reference builds them, so the ends and the root's interval agree
    p, interval = case
    for I in (interval, None):
        minima, maxima = _extrema(p, I)
        every = [_Bracket(p, r) for r in _critical_roots(p, I)]
        assert _bracket_key(minima) == _bracket_key(ref_critical_values(p, -1, I))
        assert _bracket_key(maxima) == _bracket_key(ref_critical_values(p, 1, I))
        assert _bracket_key(every) == _bracket_key(ref_critical_values(p, 0, I))
        lows, highs = _extrema(p, I, maxima=False)
        assert (_bracket_key(lows), highs) == (_bracket_key(minima), [])


def test_pick_window_is_none_on_an_empty_window():
    # the floor xi above the ceiling xi - 1, or the floor 2 above the ceiling xi
    assert _pick_window(Fraction(0), [_xi_bracket()], [_xi_plus(-1)]) is None
    assert _pick_window(Fraction(2), [], [_xi_bracket()]) is None
    # a window that closes to one irrational point never decides
    assert _pick_window(Fraction(0), [_xi_bracket()], [_xi_bracket()]) is None


def test_pick_window_lies_strictly_inside_a_bracketed_window():
    top = _xi_bracket()
    alpha = top.root
    v = _pick_window(Fraction(1), [], [top])
    assert isinstance(v, Fraction)
    # 1 < v < xi, and at least a quarter of the window on each side:
    # v - 1 > (xi - 1)/4 and xi - v > (xi - 1)/4, that is
    # (4v - 1)/3 < xi < 4v - 3
    assert v > 1
    assert alpha.sign_of(_CUBIC - Poly([v])) > 0
    assert alpha.sign_of(_CUBIC - Poly([(4 * v - 1) / 3])) > 0
    assert alpha.sign_of(_CUBIC - Poly([4 * v - 3])) < 0
    # and with brackets at both ends: xi < w < xi + 2
    w = _pick_window(Fraction(0), [_xi_bracket()], [_xi_plus(2)])
    assert alpha.sign_of(_CUBIC - Poly([w])) < 0
    assert alpha.sign_of(_CUBIC - Poly([w - 2])) > 0


def _fraction_bracket(p, root, m2):
    """The bracket ends by the `Fraction` formula: v -+ rad*(|p'(mid)| +
    rad*M2), with v = p(mid) and mid, rad the midpoint and half-width of
    the root's interval."""
    lo, hi = root.lo, root.hi
    mid, rad = (lo + hi) / 2, (hi - lo) / 2
    v = p.eval(mid)
    err = rad * (abs(p.derivative().eval(mid)) + rad * m2)
    return v - err, v + err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=4, max_size=8),
       st.integers(0, 12))
def test_integer_bracket_ends_are_the_fraction_formula(coeffs, k):
    p = Poly(coeffs)
    assume(p.degree >= 2)
    ddp = p.derivative().derivative()
    for root in isolate_real_roots(p.derivative()):
        # M2: |p''| bounded on the first interval, by the absolute values of
        # its coefficients at R = max(|lo|, |hi|)
        R = max(abs(root.lo), abs(root.hi))
        m2 = sum(abs(c) * R ** i for i, c in enumerate(ddp.coeffs))
        bracket = families._Bracket(p, root)
        assert bracket.m2 == m2
        for _ in range(k + 1):
            assert ((Fraction(*bracket.lo_q), Fraction(*bracket.hi_q))
                    == _fraction_bracket(p, root, m2))
            bracket.refine()


def test_pick_d_then_b_isolates_each_derivative_once(monkeypatch):
    # lemma 7 at h = 1 is one inductive level: d from the critical values of
    # B = A/x and of x c*, b from those of g and q.  Each of the four
    # derivatives is isolated once, B' and q' for both their minima and
    # their maxima
    l, s = 1, Fraction(3)
    cstar, _ = perturb_lemma7(0, l, s)
    Q1 = Poly([-s, 1]) * Poly([-1, 1]) ** 2 * X ** 3
    expected = perturb_lemma7(1, l, s)
    isolated = []

    def counting(p):
        isolated.append(p)
        return isolate_real_roots(p)

    monkeypatch.setattr(families, "isolate_real_roots", counting)
    found = families._pick_d_then_b(Q1, cstar, _ladder_slots(0, 4, l, 0, s),
                                    (Fraction(0), s))
    assert found == expected
    assert len(isolated) == 4
    assert max(Counter(isolated).values()) == 1
