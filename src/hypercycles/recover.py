"""Reconstruct the hyperelliptic invariant curve of a Lienard system.

For a type-(m, n) system with n != 2m+1 the curve (y + P)^2 - Q = 0, when it
exists, is unique, and its coefficients fall out of the two polynomial
identities

    (I)   2 Q f = 2 Q P' + P Q'
    (II)  2 Q g = Q' (P^2 - Q)

by matching coefficients from the top degree downward.  Every coefficient
p_i of P and q_j of Q is one unknown, so the coefficient of x^d in (I) or
(II) is a closed-form sum over index pairs (index triples for the cubic
term Q' P^2), written down directly as a polynomial in the unknowns.  Its
terms of two or more unknowns, its row, have integer coefficients that
depend on the type alone.  Its data terms (those of 2 Q f or 2 Q g, and
degree-match's -q_d below, the only terms of one unknown) carry f and g,
over the common denominator of f or g as `Poly.int_form` writes them.
So a type's rows are written once, as its plan (`_build_plan`), and a
call writes only its data terms, one list of coefficients per family that
each equation takes a slice of, and its own solve state (`_equations`).
A bounded memo (`_PlanMemo`) keeps the plans of recent types, at most
`PLAN_TERMS` row terms together, with equal monomials and rows held once.
Its bound is in terms, not entries, because one type near `MAX_TERMS`
holds hundreds of megabytes of rows: a type whose `_term_bound` is above
`PLAN_TERMS` gets a plan for its call alone.
The two top unknowns are seeded with their closed forms, and a propagation
solve follows: repeatedly find a coefficient equation that has become
affine in one unknown (or a block of equations jointly affine), divide by
its pivot, and substitute.

The assignment is held as integers over one common denominator D, each
value vals[v] / D (None while v is unassigned), and every numerator is
rescaled when a value's denominator makes D grow.  Each equation is
evaluated once, when it may first come out affine: from its written terms,
a term with k assigned unknowns scaled by D^(top - k), where top bounds
the unknowns in one of its monomials (2 for (I) and degree-match, 3 for
(II)), and a term other than a data term by the data terms' denominator
as well.  That gives its integer affine form, (constant, linear part) over
that denominator times D^top.  From then on it is only substituted into:
an assignment x_v = p/q takes the constant to const q + c_v p, drops c_v,
and multiplies every other coefficient and the form's scale by q.  Each
step leaves a positive multiple of the same equation, and a pivot, a value
and an `rref` row are the same for every positive multiple of an
equation, so the scale never shows.  No coefficient becomes a `Fraction`;
only the pivots and the values read off the solve are, and an affine
block is eliminated on its integer rows.
The executed schedule, with every pivot, is recorded for audit.

Two monomials of one coefficient equation share at most one unknown,
counted with multiplicity (the terms of (I) are p_i q_j and q_j, those of
(II) p_a p_b q_j, q_a q_b and q_j, with the index sum fixed by the degree).
A monomial left with two or more unassigned unknowns thus never meets
another monomial under an assignment, and no cancellation can remove it.
So an equation stays non-affine exactly when one of its monomials holds
two unassigned unknowns (with multiplicity) and no unknown assigned the
value 0 (`_Equation.may_be_affine`); such an equation is not evaluated.
It sleeps on the unassigned unknowns of the monomial that blocked it, and
it is checked again only once one of them is assigned, 0 included: until
then that monomial still blocks.  A pass visits the equations in witness
priority order and skips those asleep and those already satisfied (whose
form is the constant 0); one that a step wakes at a lower position than
the current one waits for the next pass.  An evaluated equation is
substituted into through an index from each unknown to the evaluated
equations whose linear part holds it.

When n < 2m+1 the top of (II) forces the coefficients of x^{n+2}..x^{2m+2}
of P^2 and Q to agree; these derived equations are labeled "degree-match" and fed to
the solver alongside (I) ("f-identity") and (II) ("g-identity").  Their one
term of one unknown, -q_d, is over the denominator 1.

A candidate assignment is always verified exactly: every equation, evaluated
now if it never was, must be 0 under the full assignment, and failure
reports the first equation
(f-identity before g-identity before degree-match, descending degree) with a
nonzero residual.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .lienard import HyperellipticCurve, LienardSystem
from .polyx import Poly, rref


class UndeterminedType(ValueError):
    """n = 2m+1: the curve, if any, need not be unique; recovery is refused."""


class DegenerateLeadingCoefficient(ValueError):
    """A pivot the uniqueness argument needs turned out to vanish."""


class TooManyTerms(ValueError):
    """The type's coefficient equations could hold more than MAX_TERMS
    terms; recovery is refused before any is written."""


# the most monomial terms the coefficient equations of a type may hold.  A
# row term costs about 125 bytes: f = x^120, g = x^180 writes 1.95 million
# of them and recovers in about 1.3 s with a 245 MB peak (about 2 s for
# dense f and g), while (200, 300) writes 8.4 million and took 1.29 GB
# before this limit refused it
MAX_TERMS = 2_000_000


def _term_bound(m: int, n: int, deg_q: int) -> int:
    """An upper bound, for any f and g, on the terms of a type's equations,
    its plan's rows and a call's data terms: per unknown q_j, at most m+1
    and n+1 data terms, m+2 terms p_i q_j,
    (m+2)(m+3)/2 terms p_a p_b q_j and (deg_q + 2)/2 terms q_a q_b, with
    room left for degree-match."""
    return (deg_q + 1) * ((m + 4) * (m + 5) // 2 + n + deg_q)


# -- polynomials in the unknowns ---------------------------------------------
# monomial: sorted tuple of variable ids.  Coefficients are ints: those of
# one unknown are over the positive denominator that its `_Equation` keeps,
# as `Poly.int_form` is for a Poly.

Mono = tuple[int, ...]


# -- outcome -------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryOutcome:
    curve: Optional[HyperellipticCurve]
    verified: bool
    witness: Optional[tuple[str, int]] = None   # (equation family, x-degree)
    schedule: tuple = ()

    @property
    def found(self) -> bool:
        return self.curve is not None and self.verified


def _blocks(mono: Mono, vals: list[Optional[int]]) -> bool:
    """The monomial holds two unassigned unknowns (with multiplicity) and no
    unknown assigned 0, so it leaves its equation non-affine under `vals`."""
    free = 0
    for v in mono:
        x = vals[v]
        if x is None:
            free += 1
        elif not x:
            return False
    return free > 1


class _Equation:
    """One coefficient equation of one call.  Its row, the terms of two or
    more unknowns, is `monos` with the integer `coeffs`, shared with every
    call of the type.  Its data terms, the terms of one unknown, are
    unknowns[k] with coefficient data[k] / den, for the positive `den` and
    the integers `data` that the call wrote; a zero one contributes
    nothing.  No term holds more than `top` unknowns.
    It is evaluated at most once per call (`evaluate`), and from then on
    `const` and `lin` are its integer affine form under the current
    assignment, over `scale`: each assignment to an unknown of `lin` is
    substituted into them in place (`substitute`).  Until then `lin` is
    None, `block` is the monomial that last kept it from being affine,
    `scan` iterates over the row's monomials after it, and `asleep` says
    that `block` still blocks: no unknown of it has been assigned since."""

    __slots__ = ("family", "degree", "monos", "coeffs", "unknowns", "data", "den", "top",
                 "const", "lin", "scale", "block", "scan", "asleep")

    def __init__(self, family: str, degree: int, monos: tuple[Mono, ...],
                 coeffs: tuple[int, ...], unknowns: Sequence[int], data: Sequence[int],
                 den: int):
        self.family = family
        self.degree = degree
        self.monos = monos
        self.coeffs = coeffs
        self.unknowns = unknowns
        self.data = data
        self.den = den
        self.top = 3 if family == "g-identity" else 2
        self.const = None
        self.lin = None
        self.scale = None
        self.block = None
        self.scan = iter(monos)
        self.asleep = False

    def may_be_affine(self, vals: list[Optional[int]]) -> bool:
        """False when the equation must stay non-affine under `vals`: a
        monomial holds two unassigned unknowns and no unknown assigned 0
        (see the module docstring).

        The assignment only grows and never changes a value, so a monomial
        that has stopped blocking never blocks again.  The monomial that
        blocked last time is tested first, and when it no longer blocks the
        scan goes on after it: no monomial is examined again once it has
        been found not to block."""
        if self.block is not None and _blocks(self.block, vals):
            return False
        for mono in self.scan:
            if _blocks(mono, vals):
                self.block = mono
                return False
        self.block = None
        return True

    def evaluate(self, vals: list[Optional[int]], powers: tuple[int, ...]) -> None:
        """Set `const`, `lin` and `scale`: the equation times den D^top
        under the assignment vals[v] / D, with powers[i] = D^i.  A term with
        k assigned unknowns is scaled by D^(top - k), and a row term by den
        as well.  So a term of j unknowns is summed times D^(top - j), and
        the linear part takes the one factor D its terms lack once per
        unknown, at the end; the constant terms are summed before they are
        scaled, those of the row by den.  A row term left with two
        unassigned unknowns and a nonzero coefficient is an error, which
        `may_be_affine` rules out."""
        top = self.top
        den = self.den
        const = data = 0   # the constant terms of the row, and of the data
        lin: dict[int, int] = {}
        low = powers[top - 1]
        for v, c in zip(self.unknowns, self.data):
            x = vals[v]
            if x is not None:
                data += c * x
            elif c:
                lin[v] = lin.get(v, 0) + c * low
        for mono, c in zip(self.monos, self.coeffs):
            free = None
            for v in mono:
                x = vals[v]
                if x is not None:
                    c *= x
                elif free is None:
                    free = v
                else:
                    free = -1   # a second unassigned unknown
            if not c:
                continue
            size = len(mono)
            if size < top:
                c *= powers[top - size]
            if free is None:
                const += c
            elif free < 0:
                raise ValueError(f"{self.family} x^{self.degree} is not affine: {mono}")
            else:
                lin[free] = lin.get(free, 0) + c * den
        D = powers[1]
        self.const = const * den + data * low
        self.lin = {v: c * D for v, c in lin.items() if c}
        self.scale = den * powers[top]

    def substitute(self, var: int, p: int, q: int) -> None:
        """Put var = p / q, q > 0, into the affine form, whose `lin` holds
        var: the form times q, a positive multiple of the same equation."""
        lin = self.lin
        c = lin.pop(var)
        if q == 1:
            self.const += c * p
            return
        self.const = self.const * q + c * p
        for v in lin:
            lin[v] *= q
        self.scale *= q


@dataclass(frozen=True)
class _Plan:
    """The part of a type's coefficient equations that no call changes.
    `rows` holds, per equation in witness priority order, (family, degree,
    monos, coeffs, unknowns, start, stop): its row terms, and the unknowns
    of its data terms, whose coefficients a call reads off as
    data[start:stop] of its family's data list (`_equations`), and
    `terms` counts the row terms."""

    rows: tuple[tuple[str, int, tuple[Mono, ...], tuple[int, ...], range, int, int], ...]
    terms: int


def _build_plan(m: int, n: int, deg_q: int, shared: Optional[dict] = None) -> _Plan:
    """The plan of type (m, n): p_i is unknown i and q_j is unknown m+2+j.
    Every row is nonempty, so which equations a type has does not depend
    on f and g.  Given `shared`, monomials and rows are taken from it where
    an equal one is there, and put there otherwise."""
    q0 = m + 2
    top_p = m + 1
    rows = []

    def add(family: str, d: int, row: dict, unknowns: range, start: int, stop: int) -> None:
        monos, coeffs = tuple(row), tuple(row.values())
        if shared is not None:
            monos = tuple(shared.setdefault(mono, mono) for mono in monos)
            monos, coeffs = shared.setdefault(monos, monos), shared.setdefault(coeffs, coeffs)
        rows.append((family, d, monos, coeffs, unknowns, start, stop))

    def identity(family: str, d: int, row: dict, size: int) -> None:
        # the data terms 2 H_k q_j at x^d, j + k = d, for h = f or g of
        # degree size - 1; the call's data list is 2 H_k for k descending
        lo = max(0, d - size + 1)
        unknowns = range(q0 + lo, q0 + min(deg_q, d) + 1)
        start = size - 1 - d + lo
        add(family, d, row, unknowns, start, start + len(unknowns))

    # (I): 2 Q f - 2 Q P' - P Q'; p_i q_j sits at x^{i+j-1} with -(2i + j)
    for d in range(deg_q + m, -1, -1):
        row = {}
        for i in range(max(0, d + 1 - deg_q), min(top_p, d + 1) + 1):
            j = d + 1 - i
            row[(i, q0 + j)] = -(2 * i + j)
        identity("f-identity", d, row, m + 1)
    # (II): 2 Q g - Q' P^2 + Q' Q
    for d in range(max(deg_q + n, deg_q + 2 * m + 1, 2 * deg_q - 1), -1, -1):
        row = {}
        # -Q' P^2: j q_j p_a p_b at x^{j-1+a+b}, ordered pairs (a, b)
        for j in range(max(1, d + 1 - 2 * top_p), min(deg_q, d + 1) + 1):
            s = d + 1 - j
            for a in range(max(0, s - top_p), s // 2 + 1):
                row[(a, s - a, q0 + j)] = -j if 2 * a == s else -2 * j
        # +Q' Q: a q_a q_b at x^{a-1+b}, ordered pairs (a, b)
        for a in range(max(0, d + 1 - deg_q), (d + 1) // 2 + 1):
            b = d + 1 - a
            row[(q0 + a, q0 + b)] = a if a == b else d + 1
        identity("g-identity", d, row, n + 1)
    if n < 2 * m + 1:
        # matching coefficients of P^2 and Q above degree n+1; the one data
        # term, -q_d, is the call's degree-match data list (-1,)
        for d in range(2 * m + 2, n + 1, -1):
            add("degree-match", d, {(a, d - a): 1 if 2 * a == d else 2
                                    for a in range(max(0, d - top_p), d // 2 + 1)},
                range(q0 + d, q0 + d + 1), 0, 1)
    return _Plan(tuple(rows), sum(len(monos) for _, _, monos, _, _, _, _ in rows))


class _PlanMemo:
    """The plans of the types recovered last, least recent first, holding
    at most `budget` row terms together, counted once per plan.  A type
    whose `_term_bound` is above the budget gets a plan for its call alone,
    so one large type holds no memory after its recovery.  `shared` holds
    the monomials and rows of the plans kept since the last eviction, so
    that types with equal rows (those of one m, and of one deg Q where the
    degree reaches it) hold them once; an eviction empties it, so it never
    keeps what no kept plan holds."""

    def __init__(self, budget: int):
        self.budget = budget
        self.plans: OrderedDict[tuple[int, int], _Plan] = OrderedDict()
        self.terms = 0
        self.shared: dict = {}
        self._lock = threading.Lock()

    def get(self, m: int, n: int, deg_q: int) -> _Plan:
        if _term_bound(m, n, deg_q) > self.budget:
            return _build_plan(m, n, deg_q)
        key = (m, n)
        with self._lock:
            plan = self.plans.get(key)
            if plan is not None:
                self.plans.move_to_end(key)
                return plan
            plan = _build_plan(m, n, deg_q, self.shared)
            self.plans[key] = plan
            self.terms += plan.terms
            while self.terms > self.budget:
                self.terms -= self.plans.popitem(last=False)[1].terms
                self.shared.clear()
            return plan


# the most row terms the plan memo keeps, counted once per plan.  Unshared,
# a kept term costs about 130 bytes with its share of the plan, so the memo
# holds at most about 6.5 MB.  The 41 types of m <= 6 that the roundtrip
# benchmark draws hold 14,083 terms, and with their rows shared 0.8 MB
PLAN_TERMS = 50_000
_PLANS = _PlanMemo(PLAN_TERMS)


def _equations(plan: _Plan, f: Poly, g: Poly) -> list[_Equation]:
    """The coefficient equations of (I), (II) and, when n < 2m+1,
    degree-match for (f, g), in witness priority order: the plan's rows,
    and the data terms this call writes.  Those of (I) are 2 F_k q_j over
    the common denominator D_f of f = F / D_f (those of (II) 2 G_k q_j over
    D_g), and degree-match's one, -q_d, is over 1.  Each family's data list
    is written once per call, and an equation takes its slice of it."""
    data = {"degree-match": ((-1,), 1)}
    for family, h in (("f-identity", f), ("g-identity", g)):
        nums, den = h.int_form()
        data[family] = ([2 * c for c in reversed(nums)], den)
    equations = []
    for family, d, monos, coeffs, unknowns, start, stop in plan.rows:
        twice, den = data[family]
        equations.append(_Equation(family, d, monos, coeffs, unknowns, twice[start:stop], den))
    return equations


def _affine_block_solve(rows):
    """Gauss-Jordan elimination (`rref`) over the currently-affine equations.
    Each row is an equation's integer (constant, linear part), which is its
    rational row times its `scale`; scaling a row leaves the reduced row echelon
    form as it is, so `rref` takes the integer rows as they are.  A value is
    read off a reduced row as minus its constant over its pivot, the one
    `Fraction` built per solved variable.

    Returns the [(variable, value)] that the subsystem pins uniquely (their
    reduced row holds a single variable), empty when it pins none, or a
    witness tuple when the affine subsystem is inconsistent (no curve can
    exist)."""
    if not rows:
        return []
    variables = sorted({v for _, _, lin in rows for v in lin}, reverse=True)
    index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    mat = []
    for eq, const, lin in rows:
        row = [0] * (nv + 1)
        for v, c in lin.items():
            row[index[v]] = c
        row[nv] = const
        mat.append(row)
    mat, pivots = rref(mat)
    if nv in pivots:
        # a pivot in the constant column is a row 0 = 1.  Elimination mixes
        # equations, so the contradiction is attributed to the
        # highest-priority equation that entered the block
        return (rows[0][0].family, rows[0][0].degree)
    solved = []
    for row, col in zip(mat, pivots):
        # the pivot is the row's first nonzero entry
        if not any(row[col + 1:nv]):
            solved.append((variables[col], Fraction(-row[nv], row[col])))
    return solved


def recover_curve(sys: LienardSystem) -> RecoveryOutcome:
    """Unique-candidate recovery of (P, Q) from (f, g); see module docstring.

    Raises UndeterminedType when n = 2m+1, TooManyTerms when the equations
    could hold more than MAX_TERMS terms, and DegenerateLeadingCoefficient
    when the triangular solve stalls on a vanished pivot."""
    m, n = sys.m, sys.n
    if n == 2 * m + 1:
        raise UndeterminedType(f"type ({m},{n}) has n = 2m+1; curve may not be unique")
    deg_q = n + 1 if n > 2 * m + 1 else 2 * m + 2
    terms = _term_bound(m, n, deg_q)
    if terms > MAX_TERMS:
        raise TooManyTerms(f"type ({m},{n}) could need {terms:,} equation terms, "
                           f"above MAX_TERMS = {MAX_TERMS:,}")
    f, g = sys.f, sys.g
    a_m = f.leading()
    b_n = g.leading()

    q_first = m + 2   # p_0..p_{m+1}, then q_0..q_{deg_q}

    def pname(v: int) -> str:
        return f"p{v}" if v < q_first else f"q{v - q_first}"

    n_unknowns = q_first + deg_q + 1
    equations = _equations(_PLANS.get(m, n, deg_q), f, g)

    # the assignment: unknown v is vals[v] / D, None while unassigned, and
    # powers[i] = D^i.  users[v] holds the evaluated equations whose linear
    # part holds v, and sleepers[v] the blocked equations whose blocking
    # monomial held v unassigned when they fell asleep
    vals: list[Optional[int]] = [None] * n_unknowns
    D = 1
    powers = (1, 1, 1, 1)
    assigned = 0
    users: list[list[_Equation]] = [[] for _ in range(n_unknowns)]
    sleepers: list[list[_Equation]] = [[] for _ in range(n_unknowns)]

    def set_var(var: int, value: Fraction) -> None:
        nonlocal D, powers, assigned
        p, q = value.numerator, value.denominator
        grow = q // gcd(D, q)
        if grow != 1:
            for v, x in enumerate(vals):
                if x is not None:
                    vals[v] = x * grow
            D *= grow
            powers = (1, D, D * D, D * D * D)
        vals[var] = p * (D // q)
        assigned += 1
        for eq in users[var]:
            eq.substitute(var, p, q)
        for eq in sleepers[var]:
            # an equation asleep on another monomial since stays asleep
            if eq.asleep and var in eq.block:
                eq.asleep = False

    schedule: list[dict] = []
    # seeds from the top-degree comparisons
    if n > 2 * m + 1:
        set_var(m + 1, 2 * a_m / (2 * m + n + 3))
        set_var(q_first + n + 1, -2 * b_n / (n + 1))
        schedule.append({"unknowns": [f"p{m+1}", f"q{n+1}"],
                         "equations": ["seed f-identity top", "seed g-identity top"],
                         "pivots": [str(2 * m + n + 3), str(n + 1)]})
    else:
        set_var(m + 1, a_m / (2 * (m + 1)))
        schedule.append({"unknowns": [f"p{m+1}"],
                         "equations": ["seed f-identity top"],
                         "pivots": [str(2 * (m + 1))]})

    live = equations   # the equations not yet satisfied, in priority order
    while assigned < n_unknowns:
        # single-unknown equations first: these are the schedule steps the
        # uniqueness argument walks through explicitly.  An equation later
        # in the pass sees the assignments made earlier in it
        progressed = False
        affine_rows: list[tuple[_Equation, int, dict[int, int]]] = []
        visit, live = live, []
        for eq in visit:
            lin = eq.lin
            if lin is None:
                if eq.asleep:
                    live.append(eq)
                    continue
                if not eq.may_be_affine(vals):
                    eq.asleep = True
                    for v in eq.block:
                        if vals[v] is None:
                            sleepers[v].append(eq)
                    live.append(eq)
                    continue
                eq.evaluate(vals, powers)
                lin = eq.lin
                for v in lin:
                    users[v].append(eq)
            if not lin:
                if eq.const:
                    return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                           schedule=tuple(schedule))
                continue
            if len(lin) == 1:
                (var, coeff), = lin.items()
                # the pivot over the scale the equation has before its own
                # unknown is substituted into it; it is satisfied after
                pivot = Fraction(coeff, eq.scale)
                set_var(var, Fraction(-eq.const, coeff))
                schedule.append({"unknowns": [pname(var)],
                                 "equations": [f"{eq.family} x^{eq.degree}"],
                                 "pivots": [str(pivot)]})
                progressed = True
            else:
                live.append(eq)
                affine_rows.append((eq, eq.const, lin))
        if progressed:
            continue

        # joint elimination over every equation that is affine right now;
        # variables whose reduced row pins them uniquely get assigned
        outcome = _affine_block_solve(affine_rows)
        if isinstance(outcome, tuple):
            return RecoveryOutcome(None, False, witness=outcome,
                                   schedule=tuple(schedule))
        if not outcome:
            raise DegenerateLeadingCoefficient(
                f"solve stalled with {n_unknowns - assigned} unknowns left; "
                "a pivot the uniqueness argument assumes nonzero vanished"
            )
        for var, value in outcome:
            set_var(var, value)
        schedule.append({"unknowns": [pname(var) for var, _ in outcome],
                         "equations": [f"{eq.family} x^{eq.degree}" for eq, _, _ in affine_rows],
                         "pivots": ["affine block elimination"]})

    # full verification of both identities: every unknown is assigned, so
    # each equation is a constant, evaluated now if it never was, and
    # `equations` is already in witness priority order
    for eq in equations:
        if eq.lin is None:
            eq.evaluate(vals, powers)
        if eq.const:
            return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                   schedule=tuple(schedule))

    P = Poly.from_int_form(vals[:q_first], D)
    Q = Poly.from_int_form(vals[q_first:], D)
    if Q.is_zero():
        return RecoveryOutcome(None, False, witness=("g-identity", 0), schedule=tuple(schedule))
    curve = HyperellipticCurve(P=P, Q=Q)
    return RecoveryOutcome(curve, True, schedule=tuple(schedule))
