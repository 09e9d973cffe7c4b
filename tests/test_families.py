import dataclasses
from fractions import Fraction

import pytest

from hypercycles import families
from hypercycles.families import (
    CaseIPattern,
    _critical_values,
    _pick_window,
    _solve_linear,
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
from hypercycles.polyx import Poly, X, parse_poly
from hypercycles.rootclass import isolate_real_roots, sign_on_interval


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
    assert [(1, 2), (3, 4)] == [
        (int(p.value), int(q.value)) for p, q in pairs
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


def test_solve_linear_square_systems():
    F = Fraction
    assert _solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(3), F(5)]) == [F(4, 5), F(7, 5)]
    assert _solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(3), F(6)]) is None  # singular
    assert _solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(3), F(7)]) is None  # inconsistent
    assert _solve_linear([[F(1), F(2)]], [F(3)]) is None  # not square
    assert _solve_linear([], []) == []


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
    [top] = _critical_values(_CUBIC, 1)
    return top


def _xi_plus(k):
    # k - p has its local maximum k - p(a) = k + xi at x = a
    [top] = _critical_values(Poly([k]) - _CUBIC, 1)
    return top


def test_critical_values_bracket_the_extrema():
    [top], [bottom] = _critical_values(_CUBIC, 1), _critical_values(_CUBIC, -1)
    for bracket, alpha_sign in ((top, -1), (bottom, 1)):
        assert bracket.root.sign_of(X) == alpha_sign
        assert bracket.root.sign_of(_CUBIC - Poly([bracket.lo])) > 0
        assert bracket.root.sign_of(_CUBIC - Poly([bracket.hi])) < 0
    # kind 0 keeps the critical points strictly inside the interval only
    assert len(_critical_values(_CUBIC, 0, (Fraction(-1), Fraction(1)))) == 2
    assert len(_critical_values(_CUBIC, 0, (Fraction(0), Fraction(1)))) == 1


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
