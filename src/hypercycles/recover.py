"""Reconstruct the hyperelliptic invariant curve of a Lienard system.

For a type-(m, n) system with n != 2m+1 the curve (y + P)^2 - Q = 0, when it
exists, is unique, and its coefficients fall out of the two polynomial
identities

    (I)   2 Q f = 2 Q P' + P Q'
    (II)  2 Q g = Q' (P^2 - Q)

by matching coefficients from the top degree downward.  We materialize both
identities with symbolic coefficients p_i, q_j, seed the two top unknowns
with their closed forms, and then run a propagation solve: repeatedly find a
coefficient equation that has become affine in one unknown (or a pair of
equations jointly affine in two), divide by its pivot, and substitute.  The
executed schedule, with every pivot, is recorded for audit.

When n < 2m+1 the top of (II) forces the coefficients of x^{n+2}..x^{2m+2}
of P^2 and Q to agree; these derived equations are labeled "degree-match" and fed to
the solver alongside (I) ("f-identity") and (II) ("g-identity").

A candidate assignment is always verified by full expansion of both
identities; failure reports the first equation (f-identity before g-identity before
degree-match, descending degree) with a nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lienard import HyperellipticCurve, LienardSystem
from .polyx import Poly, rref


class UndeterminedType(ValueError):
    """n = 2m+1: the curve, if any, need not be unique; recovery is refused."""


class DegenerateLeadingCoefficient(ValueError):
    """A pivot the uniqueness argument needs turned out to vanish."""


# -- tiny multivariate layer -------------------------------------------------
# monomial: sorted tuple of variable ids; MPoly: {monomial: Fraction}

Mono = tuple[int, ...]
MPoly = dict[Mono, Fraction]


def _mp_const(c: Fraction) -> MPoly:
    return {(): c} if c else {}


def _mp_var(v: int) -> MPoly:
    return {(v,): Fraction(1)}


def _mp_add_inplace(a: MPoly, b: MPoly, scale: Fraction = Fraction(1)) -> None:
    for mono, c in b.items():
        new = a.get(mono, Fraction(0)) + c * scale
        if new:
            a[mono] = new
        else:
            a.pop(mono, None)


def _mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            new = out.get(mono, Fraction(0)) + ca * cb
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def _mp_reduce(a: MPoly, assign: dict[int, Fraction]) -> MPoly:
    out: MPoly = {}
    for mono, c in a.items():
        rest: list[int] = []
        coeff = c
        for v in mono:
            if v in assign:
                coeff *= assign[v]
                if coeff == 0:
                    break
            else:
                rest.append(v)
        if coeff == 0:
            continue
        mono2 = tuple(rest)
        new = out.get(mono2, Fraction(0)) + coeff
        if new:
            out[mono2] = new
        else:
            out.pop(mono2, None)
    return out


def _mp_affine(a: MPoly) -> Optional[tuple[Fraction, dict[int, Fraction]]]:
    """(constant, {var: coeff}) when a is affine, else None."""
    const = Fraction(0)
    lin: dict[int, Fraction] = {}
    for mono, c in a.items():
        if len(mono) == 0:
            const = c
        elif len(mono) == 1:
            lin[mono[0]] = lin.get(mono[0], Fraction(0)) + c
        else:
            return None
    return const, lin


XPoly = list  # list[MPoly], ascending x-degree


def _xp_from_poly(p: Poly) -> XPoly:
    return [_mp_const(c) for c in p.coeffs]


def _xp_vars(first_var: int, count: int) -> XPoly:
    return [_mp_var(first_var + i) for i in range(count)]


def _xp_mul(a: XPoly, b: XPoly) -> XPoly:
    if not a or not b:
        return []
    out: XPoly = [dict() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                _mp_add_inplace(out[i + j], _mp_mul(ca, cb))
    return out


def _xp_sub(a: XPoly, b: XPoly, scale_b: Fraction = Fraction(1)) -> XPoly:
    out = [dict(c) for c in a]
    while len(out) < len(b):
        out.append({})
    for j, cb in enumerate(b):
        _mp_add_inplace(out[j], cb, -scale_b)
    return out


def _xp_scale(a: XPoly, s: Fraction) -> XPoly:
    return [{m: c * s for m, c in mp.items()} for mp in a]


def _xp_derivative(a: XPoly) -> XPoly:
    return [{m: c * k for m, c in mp.items()} for k, mp in enumerate(a)][1:]


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


@dataclass
class _Equation:
    family: str
    degree: int
    expr: MPoly


def _affine_block_solve(rows, assign, schedule, pname):
    """Gauss-Jordan elimination (`rref`) over the currently-affine equations.

    Assigns every variable that the subsystem pins uniquely (its reduced row
    holds a single variable).  Returns "progress", "stuck", or a witness
    tuple when the affine subsystem is inconsistent (no curve can exist)."""
    if not rows:
        return "stuck"
    variables = sorted({v for _, _, lin in rows for v in lin}, reverse=True)
    index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    mat = []
    for eq, const, lin in rows:
        row = [Fraction(0)] * (nv + 1)
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
    progressed = False
    solved_names = []
    for r in range(len(pivots)):
        nz = [c for c in range(nv) if mat[r][c] != 0]
        if len(nz) == 1:
            var = variables[nz[0]]
            if var not in assign:
                assign[var] = -mat[r][nv]
                solved_names.append(pname(var))
                progressed = True
    if progressed:
        labels = [f"{eq.family} x^{eq.degree}" for eq, _, _ in rows]
        schedule.append({"unknowns": solved_names,
                         "equations": labels,
                         "pivots": ["affine block elimination"]})
        return "progress"
    return "stuck"


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
    n_pvars = m + 2
    p_first = 0
    q_first = n_pvars
    P_sym: XPoly = _xp_vars(p_first, n_pvars)
    Q_sym: XPoly = _xp_vars(q_first, deg_q + 1)

    def pname(v: int) -> str:
        return f"p{v - p_first}" if v < q_first else f"q{v - q_first}"

    assign: dict[int, Fraction] = {}
    schedule: list[dict] = []

    # seeds from the top-degree comparisons
    if n > 2 * m + 1:
        seed_p = 2 * a_m / (2 * m + n + 3)
        seed_q_var = q_first + n + 1
        seed_q = -2 * b_n / (n + 1)
        assign[p_first + m + 1] = seed_p
        assign[seed_q_var] = seed_q
        schedule.append({"unknowns": [f"p{m+1}", f"q{n+1}"],
                         "equations": ["seed f-identity top", "seed g-identity top"],
                         "pivots": [str(2 * m + n + 3), str(n + 1)]})
    else:
        seed_p = a_m / (2 * (m + 1))
        assign[p_first + m + 1] = seed_p
        schedule.append({"unknowns": [f"p{m+1}"],
                         "equations": ["seed f-identity top"],
                         "pivots": [str(2 * (m + 1))]})

    # residuals of (I) and (II)
    dP = _xp_derivative(P_sym)
    dQ = _xp_derivative(Q_sym)
    P2 = _xp_mul(P_sym, P_sym)
    r9 = _xp_sub(
        _xp_sub(_xp_scale(_xp_mul(Q_sym, _xp_from_poly(f)), Fraction(2)),
                _xp_scale(_xp_mul(Q_sym, dP), Fraction(2))),
        _xp_mul(P_sym, dQ),
    )
    r10 = _xp_sub(
        _xp_scale(_xp_mul(Q_sym, _xp_from_poly(g)), Fraction(2)),
        _xp_mul(dQ, _xp_sub(P2, Q_sym)),
    )

    equations: list[_Equation] = []
    for deg in range(len(r9) - 1, -1, -1):
        if r9[deg]:
            equations.append(_Equation("f-identity", deg, r9[deg]))
    for deg in range(len(r10) - 1, -1, -1):
        if r10[deg]:
            equations.append(_Equation("g-identity", deg, r10[deg]))
    if n < 2 * m + 1:
        # matching coefficients of P^2 and Q above degree n+1
        for deg in range(2 * m + 2, n + 1, -1):
            expr: MPoly = dict(P2[deg]) if deg < len(P2) else {}
            _mp_add_inplace(expr, _mp_var(q_first + deg), Fraction(-1))
            equations.append(_Equation("degree-match", deg, expr))

    n_unknowns = n_pvars + deg_q + 1

    while len(assign) < n_unknowns:
        # single-unknown equations first: these are the schedule steps the
        # uniqueness argument walks through explicitly
        progressed = False
        affine_rows: list[tuple[_Equation, Fraction, dict[int, Fraction]]] = []
        for eq in equations:
            red = _mp_reduce(eq.expr, assign)
            if not red:
                continue
            aff = _mp_affine(red)
            if aff is None:
                continue
            const, lin = aff
            if not lin:
                return RecoveryOutcome(None, False, witness=(eq.family, eq.degree),
                                       schedule=tuple(schedule))
            if len(lin) == 1:
                (var, coeff), = lin.items()
                if var not in assign:
                    assign[var] = -const / coeff
                    schedule.append({"unknowns": [pname(var)],
                                     "equations": [f"{eq.family} x^{eq.degree}"],
                                     "pivots": [str(coeff)]})
                    progressed = True
            else:
                affine_rows.append((eq, const, lin))
        if progressed:
            continue

        # joint elimination over every equation that is affine right now;
        # variables whose reduced row pins them uniquely get assigned
        outcome = _affine_block_solve(affine_rows, assign, schedule, pname)
        if outcome == "progress":
            continue
        if isinstance(outcome, tuple):
            return RecoveryOutcome(None, False, witness=outcome,
                                   schedule=tuple(schedule))
        raise DegenerateLeadingCoefficient(
            f"solve stalled with {n_unknowns - len(assign)} unknowns left; "
            "a pivot the uniqueness argument assumes nonzero vanished"
        )

    # full verification of both identities: every unknown is assigned, so
    # each equation reduces to a constant, and `equations` is already in
    # witness priority order
    witness = next((
        (eq.family, eq.degree) for eq in equations if _mp_reduce(eq.expr, assign)
    ), None)
    if witness is not None:
        return RecoveryOutcome(None, False, witness=witness, schedule=tuple(schedule))

    P = Poly([assign[p_first + i] for i in range(n_pvars)])
    Q = Poly([assign[q_first + i] for i in range(deg_q + 1)])
    if Q.is_zero():
        return RecoveryOutcome(None, False, witness=("g-identity", 0), schedule=tuple(schedule))
    curve = HyperellipticCurve(P=P, Q=Q)
    return RecoveryOutcome(curve, True, schedule=tuple(schedule))
