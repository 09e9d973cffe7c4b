"""Reconstruct the hyperelliptic invariant curve of a Lienard system.

A curve (y + P)^2 = Q of the type-(m, n) system (f, g), deg P = m + 1,
satisfies

    (I)   2 Q f = 2 Q P' + P Q'
    (II)  2 Q g = Q' (P^2 - Q).

Q can be eliminated.  Put u = f - P' and W = P u - g.  (I) reads
u = P Q' / (2Q), (II) then gives P g = u (P^2 - Q), so Q = P W / u, and (I)
becomes Q' = 2W.  With S = P W, (S/u)' = 2W times u^2 is one polynomial
equation in P alone:

    E = S' u - S u' - 2 W u^2 = 0.

Conversely, E = 0 gives S/u the polynomial derivative 2W, so S/u is a
polynomial Q, and u = P Q' / (2Q), g = Q' (P^2 - Q) / (2Q) are (I) and
(II).  (H. Zoladek, "Algebraic invariant curves for the Lienard equation",
Trans. AMS 350, 1998, treats such curves in general.)  For n != 2m+1 at
most one P solves E = 0, and it is found coefficient by coefficient from
the top.

With q = deg Q, 2m + 2 for n <= 2m and n + 1 for n > 2m + 1, the top of (I)
gives lc(P) = lc(f) / (m + 1 + q/2).  Let P_j be the coefficient of
x^(m+1-j) and E_j that of x^(deg E - j), deg E = 2m + q - 1.  E_j depends
on P_0..P_j alone, and for j >= 1 it is affine in P_j, with the pivot

    n > 2m + 1:  -lc(f) lc(g) (n + 1 - j)(2m + n + 3 - 2j) / (2m + n + 3),
    n <= 2m:     lc(f)^3 (m + 1 - j) / (2m + 2).

The first never vanishes for j <= m + 1, so E_j fixes P_j down to p_0.  The
second vanishes at j = m + 1 alone: p_0 resonates.  E_(m+1) does not hold
it and must vanish, and the first E_k, k <= 2m + 1, that holds p_0 fixes
it (E_k is affine in p_0 up to there: p_0^2 enters S = P (P u - g) at x^m
and below), each E_k above it vanishing too.  If none up to E_(2m+1) holds
p_0, DegenerateLeadingCoefficient is raised; no system has been seen to.

Once P is whole, E_0 down to the E_k that fixed its last coefficient are 0,
so a nonzero E_(k+1) is the top of E: the no-curve witness, read with one
more convolution step.  On the n <= 2m branch the entries m+1..k, filled
while p_0 was unset, are filled again first.  Only when E_(k+1) is 0 is
the rest of E decided: E = u^2 (Q' - 2W) is 0 exactly when u divides S and
Q = S/u has Q' = 2W, else its top nonzero coefficient is the witness.  A
curve found must make `derive_system(P, Q)` give back f and g
(`verified`).

All of it is on integers.  P, u, W, S and u^2 are top-aligned lists over D,
D, D^2, D^3 and D^2 for one common denominator D, a multiple of those of f
and g, so E_j, over D^4, is one convolution step per series.  When a
coefficient's denominator makes D grow, every list is rescaled.  Entry j of
each series is filled once with P_j unset, to read E_j, and then updated
for the P_j that E_j fixed by a few products (`_Expansion.settle`).

The schedule has one step per coefficient of P: the unknown, the equation
that fixed it ("seed f-identity top" for lc(P), "E x^d" for a coefficient
of E) and its pivot.  With no curve, the witness is ("f-identity", d): x^d
is the top nonzero coefficient of E, which is (I) with Q eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .lienard import HyperellipticCurve, LienardSystem, derive_system
from .polyx import Poly, int_combine, int_derivative, int_exact_div, int_mul


class UndeterminedType(ValueError):
    """n = 2m+1: the curve, if any, need not be unique; recovery is refused."""


class DegenerateLeadingCoefficient(ValueError):
    """p_0 of an n <= 2m type enters no coefficient of E that may fix it."""


class TooManyTerms(ValueError):
    """The type's size measure is above MAX_TERMS; recovery is refused
    before any work is done."""


# the largest `_term_bound` that `recover_curve` accepts.  It bounds time,
# loosely, as the size of the coefficients also counts: (300, 450), refused,
# would take about 0.02 s for f = x^300, g = x^450 and about 3 s with every
# coefficient 1 (2-CPU Xeon)
MAX_TERMS = 2_000_000


def _term_bound(m: int, n: int, deg_q: int) -> int:
    """The size measure of type (m, n): the number of monomial terms that
    the coefficient equations of (I) and (II), one unknown per coefficient
    of P and of Q, could hold for any f and g."""
    return (deg_q + 1) * ((m + 4) * (m + 5) // 2 + n + deg_q)


@dataclass(frozen=True)
class RecoveryOutcome:
    curve: Optional[HyperellipticCurve]
    verified: bool
    witness: Optional[tuple[str, int]] = None   # (equation family, x-degree)
    schedule: tuple = ()

    @property
    def found(self) -> bool:
        return self.curve is not None and self.verified


# the two products below are plain loops: on the few terms an entry holds,
# they run faster than `sum` over a generator or over `map` (Python 3.11)


def _dot(x: list[int], y: list[int], k: int) -> int:
    """Entry k of the top-aligned product of x and y."""
    total = 0
    for a in range(max(0, k - len(y) + 1), min(k, len(x) - 1) + 1):
        total += x[a] * y[k - a]
    return total


def _wronskian(x: list[int], y: list[int], k: int) -> int:
    """Entry k of the top-aligned x' y - x y', for x and y of degrees
    len(x) - 1 and len(y) - 1."""
    dx, dy = len(x) - 1, len(y) - 1
    c = dx - dy + k
    total = 0
    for a in range(max(0, k - dy), min(k, dx) + 1):
        total += x[a] * y[k - a] * (c - 2 * a)
    return total


class _Expansion:
    """E for P = P_0 x^(m+1) + ... + P_(m+1), on top-aligned integers: P, f
    and u over D, W, g and u^2 over D^2, S over D^3, with g aligned as W
    is.  Entry i of a series is right once `fill(i)` has run with P_0..P_i
    set, or once `settle(i)` has run after `put(i)` on an entry i filled
    with P_i unset; an unset P_i is 0."""

    def __init__(self, f: Poly, g: Poly, w: int):
        m, n = f.degree, g.degree
        (fs, df), (gs, dg) = f.int_form(), g.int_form()
        self.D = D = lcm(df, dg)
        self.f = [c * (D // df) for c in reversed(fs)]
        self.g = [0] * (w - n) + [c * (D * D // dg) for c in reversed(gs)]
        self.P = [0] * (m + 2)
        self.u = [0] * (m + 1)
        self.W = [0] * (w + 1)
        self.S = [0] * (m + w + 2)
        self.uu = [0] * (2 * m + 1)
        self.shift = w - 2 * m - 1   # P u sits this far below the top of W

    def put(self, i: int, value: Fraction) -> None:
        """P_i = value, rescaling every series when D must grow."""
        q = value.denominator
        grow = q // gcd(self.D, q)
        if grow != 1:
            for series, k in ((self.P, 1), (self.f, 1), (self.u, 1), (self.W, 2),
                              (self.g, 2), (self.uu, 2), (self.S, 3)):
                scale = grow ** k
                series[:] = [c * scale for c in series]
            self.D *= grow
        self.P[i] = value.numerator * (self.D // q)

    def fill(self, i: int) -> None:
        """Entry i of every series, from P_0..P_i and the entries below i."""
        P, u, W, S, uu = self.P, self.u, self.W, self.S, self.uu
        m = len(u) - 1
        if i <= m:
            u[i] = self.f[i] - (m + 1 - i) * P[i]
        if i < len(W):
            W[i] = _dot(P, u, i - self.shift) - self.g[i]
        if i < len(S):
            S[i] = _dot(P, W, i)
        if i < len(uu):
            uu[i] = _dot(u, u, i)

    def settle(self, j: int) -> None:
        """Entry j of every series after `put(j)`, for j >= 1, where
        `fill(j)` ran with P_j unset: P_j enters entry j only through P_j u_0
        and P_0 u_j in P u (when it is not shifted), P_j W_0 and P_0 W_j in
        S and 2 u_0 u_j in u^2, so each entry takes one update."""
        P, u, W = self.P, self.u, self.W
        p = P[j]
        du = (j - len(u)) * p   # -(m + 1 - j) P_j
        if j < len(u):
            u[j] += du
            self.uu[j] += 2 * u[0] * du
        dW = p * u[0] + P[0] * du if self.shift == 0 else 0
        W[j] += dW
        self.S[j] += p * W[0] + P[0] * dW

    def coefficient(self, k: int) -> int:
        """E_k over D^4."""
        return _wronskian(self.S, self.u, k) - 2 * _dot(self.W, self.uu, k)

    def slope(self, k: int) -> int:
        """The coefficient of p_0 in E_k over D^3, for k <= 2m + 1: entry
        k - m - 1 of V' u - V u' - 2 u^3, V = 2W + g, the derivative of E
        in p_0, which p_0 does not enter up to there."""
        t = k - len(self.u)
        V = [2 * a + b for a, b in zip(self.W, self.g)]
        return _wronskian(V, self.u, t) - 2 * _dot(self.u, self.uu, t)


def recover_curve(sys: LienardSystem) -> RecoveryOutcome:
    """Unique-candidate recovery of (P, Q) from (f, g); see module docstring.

    Raises UndeterminedType when n = 2m+1, TooManyTerms when the type's
    size measure is above MAX_TERMS, and DegenerateLeadingCoefficient when
    p_0 is still free after E_(2m+1)."""
    m, n = sys.m, sys.n
    if n == 2 * m + 1:
        raise UndeterminedType(f"type ({m},{n}) has n = 2m+1; curve may not be unique")
    deg_q = n + 1 if n > 2 * m + 1 else 2 * m + 2
    terms = _term_bound(m, n, deg_q)
    if terms > MAX_TERMS:
        raise TooManyTerms(f"type ({m},{n}) could need {terms:,} equation terms, "
                           f"above MAX_TERMS = {MAX_TERMS:,}")
    f, g = sys.f, sys.g
    a, b = f.leading(), g.leading()
    w = deg_q - 1
    top = 2 * m + w   # deg E
    ex = _Expansion(f, g, w)
    lead = Fraction(2 * m + 2 + deg_q, 2)
    ex.put(0, a / lead)
    ex.fill(0)   # E_0 = 0 for this lc(P)
    schedule = [{"unknowns": [f"p{m + 1}"], "equations": ["seed f-identity top"],
                 "pivots": [str(lead)]}]

    def no_curve(d: int) -> RecoveryOutcome:
        return RecoveryOutcome(None, False, witness=("f-identity", d), schedule=tuple(schedule))

    def step(j: int, c: int, pivot: Fraction, k: int) -> None:
        # P_j = -c / (D^4 pivot)
        ex.put(j, Fraction(-c * pivot.denominator, ex.D ** 4 * pivot.numerator))
        schedule.append({"unknowns": [f"p{m + 1 - j}"], "equations": [f"E x^{top - k}"],
                         "pivots": [str(pivot)]})

    resonant = n <= 2 * m
    base = a ** 3 / (2 * m + 2) if resonant else -a * b / (2 * m + n + 3)
    for j in range(1, m + 1 if resonant else m + 2):
        ex.fill(j)
        step(j, ex.coefficient(j), base * ((m + 1 - j) if resonant
                                           else (n + 1 - j) * (2 * m + n + 3 - 2 * j)), j)
        ex.settle(j)
    k = m + 1   # the E_k that fixes p_0
    if resonant:
        # p_0 does not enter E_(m+1); the first E_k below that it enters fixes it
        for k in range(m + 1, 2 * m + 2):
            ex.fill(k)
            c, slope = ex.coefficient(k), ex.slope(k)
            if slope:
                step(m + 1, c, Fraction(slope, ex.D ** 3), k)
                break
            if c:
                return no_curve(top - k)
        else:
            raise DegenerateLeadingCoefficient(
                f"type ({m},{n}): p0 is still free after E x^{top - 2 * m - 1}")
        # entries m+1..k were filled with p_0 unset
        for i in range(m + 1, k + 1):
            ex.fill(i)

    # E_0..E_k are 0, so a nonzero E_(k+1) is the top of E: the witness
    ex.fill(k + 1)
    if ex.coefficient(k + 1):
        return no_curve(top - k - 1)

    # the whole of P: E = u^2 ((S/u)' - 2W) is 0 exactly when u divides S
    # and Q = S/u has Q' = 2W (u / content is primitive, so Q is on integers)
    P, u = ex.P[::-1], ex.u[::-1]
    W = int_combine((1, int_mul(P, u)), (-1, ex.g[::-1]))
    S = int_mul(P, W)
    content = gcd(*u)
    try:
        Q = int_exact_div(S, [c // content for c in u])
    except ValueError:
        Q = None
    if Q is None or int_derivative(Q) != [2 * content * c for c in W]:
        # the top nonzero coefficient of E, all of whose coefficients above are 0
        E = int_combine((1, int_mul(int_derivative(S), u)), (-1, int_mul(S, int_derivative(u))),
                        (-2, int_mul(W, int_mul(u, u))))
        return no_curve(len(E) - 1)
    curve = HyperellipticCurve(P=Poly.from_int_form(P, ex.D),
                               Q=Poly.from_int_form(Q, content * ex.D ** 2))
    back = derive_system(curve)
    return RecoveryOutcome(curve, (back.f, back.g) == (f, g), schedule=tuple(schedule))
