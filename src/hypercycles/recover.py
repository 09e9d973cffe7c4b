"""Reconstruct the hyperelliptic invariant curve of a Lienard system.

For a type-(m, n) system with n != 2m+1 the curve (y + P)^2 - Q = 0, when it
exists, is unique, and its coefficients fall out of the two polynomial
identities

    (I)   2 Q f = 2 Q P' + P Q'
    (II)  2 Q g = Q' (P^2 - Q)

by matching coefficients from the top degree downward.  Every coefficient
p_i of P and q_j of Q is one unknown, so the coefficient of x^d in (I) or
(II) is a closed-form sum over index pairs (index triples for the cubic
term Q' P^2); `_equations` writes each one down directly as a polynomial in
the unknowns.  Each equation is an integer vector over one positive
denominator, as `Poly.int_form` is for a polynomial: (I) is written times
the common denominator of f, (II) times that of g.  The two top unknowns
are seeded with their closed forms, and a propagation solve follows:
repeatedly find a coefficient equation that has become affine in one
unknown (or a block of equations jointly affine), divide by its pivot, and
substitute.  Each equation keeps its reduced form and is reduced again only
when an unknown it holds has been assigned since and the reduction can
leave it affine; that reduction touches only the terms holding a newly
assigned unknown, scales every other term by the lcm of the denominators
the touched ones picked up, and divides the equation by the common factor
of its integers and its denominator.  No coefficient becomes a `Fraction`;
only the assigned values and the pivots are, and an affine block is
eliminated on its integer rows.
The executed schedule, with every pivot, is recorded for audit.

Two monomials of one coefficient equation share at most one unknown,
counted with multiplicity (the terms of (I) are p_i q_j and q_j, those of
(II) p_a p_b q_j, q_a q_b and q_j, with the index sum fixed by the degree),
and a reduced monomial is part of an original one, so the same holds for
every reduced form.  A term left with two or more unassigned unknowns thus
never meets another term when reduced, and no cancellation can remove it.
So a stale equation stays non-affine exactly when one of its monomials
holds two unassigned unknowns (with multiplicity) and no unknown assigned
the value 0 (`_Equation.may_be_affine`).  Such an equation is left stale:
its reduced form, with gcd 1, is canonical, so a later reduction gives the
same integers, pivots and schedule.

When n < 2m+1 the top of (II) forces the coefficients of x^{n+2}..x^{2m+2}
of P^2 and Q to agree; these derived equations are labeled "degree-match" and fed to
the solver alongside (I) ("f-identity") and (II) ("g-identity").

A candidate assignment is always verified exactly: every equation is reduced
under the full assignment, and failure reports the first equation
(f-identity before g-identity before degree-match, descending degree) with a
nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .lienard import HyperellipticCurve, LienardSystem
from .polyx import Poly, rref


class UndeterminedType(ValueError):
    """n = 2m+1: the curve, if any, need not be unique; recovery is refused."""


class DegenerateLeadingCoefficient(ValueError):
    """A pivot the uniqueness argument needs turned out to vanish."""


# -- polynomials in the unknowns ---------------------------------------------
# monomial: sorted tuple of variable ids; MPoly: {monomial: coefficient}.
# Coefficients are ints: an equation is an integer vector over one positive
# denominator that its `_Equation` keeps, as `Poly.int_form` is for a Poly.

Mono = tuple[int, ...]
MPoly = dict[Mono, int]


def _mp_reduce(a: MPoly, assign: dict[int, Fraction]) -> tuple[MPoly, int]:
    """(b, L) with b / L equal to a under `assign`: L is the lcm of the
    denominators the touched terms pick up, so every coefficient of b is an
    int.  Every coefficient of a is nonzero, so a term with no assigned
    unknown is kept as c * L, the same object when L = 1, and only added to
    when a reduced term lands on its monomial."""
    assigned = assign.keys()
    terms = []   # (monomial, numerator, denominator); 0 marks an untouched term
    scale = 1
    for mono, coeff in a.items():
        if assigned.isdisjoint(mono):
            terms.append((mono, coeff, 0))
            continue
        den = 1
        rest = []
        for v in mono:
            if v in assign:
                value = assign[v]
                coeff *= value.numerator
                den *= value.denominator
            else:
                rest.append(v)
        if coeff:
            terms.append((tuple(rest), coeff, den))
            if den != 1:
                scale = lcm(scale, den)
    out: MPoly = {}
    for mono, coeff, den in terms:
        if den:
            coeff *= scale // den
        elif scale != 1:
            coeff *= scale
        if mono in out:
            coeff = out[mono] + coeff
            if not coeff:
                del out[mono]
                continue
        out[mono] = coeff
    return out, scale


def _mp_affine(a: MPoly) -> Optional[tuple[int, dict[int, int]]]:
    """(constant, {var: coeff}) when a is affine, else None."""
    const = 0
    lin: dict[int, int] = {}
    for mono, c in a.items():
        if len(mono) == 0:
            const = c
        elif len(mono) == 1:
            lin[mono[0]] = c
        else:
            return None
    return const, lin


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


class _Equation:
    """One coefficient equation: its reduced form under the assignment as of
    its last reduction, over the positive denominator `den` (the coefficient
    of a monomial is expr[mono] / den), and that form's integer (constant,
    linear part) when affine."""

    __slots__ = ("family", "degree", "expr", "den", "affine", "stale")

    def __init__(self, family: str, degree: int, expr: MPoly, den: int):
        self.family = family
        self.degree = degree
        self.expr = expr
        self.den = den
        self.affine = None
        self.stale = True

    def may_be_affine(self, assign: dict[int, Fraction]) -> bool:
        """False when reducing under `assign` must leave a monomial of two
        unassigned unknowns: one that holds them and no unknown assigned 0
        (see the module docstring)."""
        for mono in self.expr:
            if len(mono) > 1:
                free = 0
                for v in mono:
                    if v not in assign:
                        free += 1
                    elif not assign[v]:
                        break
                else:
                    if free > 1:
                        return False
        return True

    def refresh(self, assign: dict[int, Fraction]) -> None:
        expr, scale = _mp_reduce(self.expr, assign)
        den = self.den * scale
        # divide out the common factor, so the integers stay small
        common = gcd(den, *expr.values())
        if common != 1:
            den //= common
            expr = {mono: c // common for mono, c in expr.items()}
        self.expr = expr
        self.den = den
        self.affine = _mp_affine(expr) if expr else None
        self.stale = False


def _equations(f: Poly, g: Poly, m: int, n: int, deg_q: int) -> list[_Equation]:
    """The coefficient equations of (I), (II) and, when n < 2m+1,
    degree-match, in witness priority order; p_i is unknown i and q_j is
    unknown m+2+j.  An equation whose every coefficient vanishes is left
    out.  (I) and (II) are written times the common denominator D_f of f
    (D_g of g), so the data terms are 2 F_k with f = F / D_f and every
    structural term is scaled by D_f."""
    q0 = m + 2
    top_p = m + 1
    f_nums, f_den = f.int_form()
    g_nums, g_den = g.int_form()

    def data_terms(expr: MPoly, d: int, nums: tuple[int, ...]) -> None:
        # 2 Q h at x^d times D_h, for h = F / D_h = f or g
        for j in range(max(0, d - len(nums) + 1), min(deg_q, d) + 1):
            if nums[d - j]:
                expr[(q0 + j,)] = 2 * nums[d - j]

    equations = []
    # (I): 2 Q f - 2 Q P' - P Q'; p_i q_j sits at x^{i+j-1} with -(2i + j)
    for d in range(deg_q + m, -1, -1):
        expr: MPoly = {}
        data_terms(expr, d, f_nums)
        for i in range(max(0, d + 1 - deg_q), min(top_p, d + 1) + 1):
            j = d + 1 - i
            expr[(i, q0 + j)] = -(2 * i + j) * f_den
        if expr:
            equations.append(_Equation("f-identity", d, expr, f_den))
    # (II): 2 Q g - Q' P^2 + Q' Q
    for d in range(max(deg_q + n, deg_q + 2 * m + 1, 2 * deg_q - 1), -1, -1):
        expr = {}
        data_terms(expr, d, g_nums)
        # -Q' P^2: j q_j p_a p_b at x^{j-1+a+b}, ordered pairs (a, b)
        for j in range(max(1, d + 1 - 2 * top_p), min(deg_q, d + 1) + 1):
            s = d + 1 - j
            for a in range(max(0, s - top_p), s // 2 + 1):
                expr[(a, s - a, q0 + j)] = (-j if 2 * a == s else -2 * j) * g_den
        # +Q' Q: a q_a q_b at x^{a-1+b}, ordered pairs (a, b)
        for a in range(max(0, d + 1 - deg_q), (d + 1) // 2 + 1):
            b = d + 1 - a
            expr[(q0 + a, q0 + b)] = (a if a == b else d + 1) * g_den
        if expr:
            equations.append(_Equation("g-identity", d, expr, g_den))
    if n < 2 * m + 1:
        # matching coefficients of P^2 and Q above degree n+1
        for d in range(2 * m + 2, n + 1, -1):
            expr = {(a, d - a): 1 if 2 * a == d else 2
                    for a in range(max(0, d - top_p), d // 2 + 1)}
            expr[(q0 + d,)] = -1
            equations.append(_Equation("degree-match", d, expr, 1))
    return equations


def _affine_block_solve(rows):
    """Gauss-Jordan elimination (`rref`) over the currently-affine equations.
    Each row is an equation's integer (constant, linear part), which is its
    rational row times its `den`; scaling a row leaves the reduced row echelon
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

    Raises UndeterminedType when n = 2m+1 and DegenerateLeadingCoefficient
    when the triangular solve stalls on a vanished pivot."""
    m, n = sys.m, sys.n
    if n == 2 * m + 1:
        raise UndeterminedType(f"type ({m},{n}) has n = 2m+1; curve may not be unique")
    f, g = sys.f, sys.g
    a_m = f.leading()
    b_n = g.leading()

    deg_q = n + 1 if n > 2 * m + 1 else 2 * m + 2
    q_first = m + 2   # p_0..p_{m+1}, then q_0..q_{deg_q}

    def pname(v: int) -> str:
        return f"p{v}" if v < q_first else f"q{v - q_first}"

    assign: dict[int, Fraction] = {}
    schedule: list[dict] = []

    # seeds from the top-degree comparisons
    if n > 2 * m + 1:
        assign[m + 1] = 2 * a_m / (2 * m + n + 3)
        assign[q_first + n + 1] = -2 * b_n / (n + 1)
        schedule.append({"unknowns": [f"p{m+1}", f"q{n+1}"],
                         "equations": ["seed f-identity top", "seed g-identity top"],
                         "pivots": [str(2 * m + n + 3), str(n + 1)]})
    else:
        assign[m + 1] = a_m / (2 * (m + 1))
        schedule.append({"unknowns": [f"p{m+1}"],
                         "equations": ["seed f-identity top"],
                         "pivots": [str(2 * (m + 1))]})

    equations = _equations(f, g, m, n, deg_q)
    holders: dict[int, list[_Equation]] = {}
    for eq in equations:
        for v in {v for mono in eq.expr for v in mono}:
            holders.setdefault(v, []).append(eq)

    def set_var(var: int, value: Fraction) -> None:
        assign[var] = value
        for eq in holders.get(var, ()):
            eq.stale = True

    n_unknowns = q_first + deg_q + 1

    while len(assign) < n_unknowns:
        # single-unknown equations first: these are the schedule steps the
        # uniqueness argument walks through explicitly.  An equation later
        # in the pass sees the assignments made earlier in it
        progressed = False
        affine_rows: list[tuple[_Equation, int, dict[int, int]]] = []
        for eq in equations:
            if eq.stale:
                if not eq.may_be_affine(assign):
                    # still non-affine (its `affine` is None); reduced later
                    continue
                eq.refresh(assign)
            if eq.affine is None:
                continue
            const, lin = eq.affine
            if not lin:
                return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                       schedule=tuple(schedule))
            if len(lin) == 1:
                (var, coeff), = lin.items()
                set_var(var, Fraction(-const, coeff))
                schedule.append({"unknowns": [pname(var)],
                                 "equations": [f"{eq.family} x^{eq.degree}"],
                                 "pivots": [str(Fraction(coeff, eq.den))]})
                progressed = True
            else:
                affine_rows.append((eq, const, lin))
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
                f"solve stalled with {n_unknowns - len(assign)} unknowns left; "
                "a pivot the uniqueness argument assumes nonzero vanished"
            )
        for var, value in outcome:
            set_var(var, value)
        schedule.append({"unknowns": [pname(var) for var, _ in outcome],
                         "equations": [f"{eq.family} x^{eq.degree}" for eq, _, _ in affine_rows],
                         "pivots": ["affine block elimination"]})

    # full verification of both identities: every unknown is assigned, so
    # each equation reduces to a constant, and `equations` is already in
    # witness priority order
    for eq in equations:
        if eq.stale:
            eq.refresh(assign)
        if eq.expr:
            return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                   schedule=tuple(schedule))

    P = Poly([assign[i] for i in range(q_first)])
    Q = Poly([assign[q_first + i] for i in range(deg_q + 1)])
    if Q.is_zero():
        return RecoveryOutcome(None, False, witness=("g-identity", 0), schedule=tuple(schedule))
    curve = HyperellipticCurve(P=P, Q=Q)
    return RecoveryOutcome(curve, True, schedule=tuple(schedule))
