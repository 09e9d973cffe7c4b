"""The outcome of `recover_curve` is frozen over 300 seeded recoveries.

The draws are made here, so the digest does not move with the benchmark's
generators.  They take the three kinds of curve, by the type (m, n) that
`derive_system` gives them: "lo" (n < 2m+1, whose p_0 resonates), "hi"
(n > 2m+1) and "eq" (n = 2m+1, which recovery refuses), plus random
systems that carry no curve.  Roots come in symmetric pairs and include 0,
and T has zero coefficients, so many coefficients come out 0.  Each entry
is the whole `RecoveryOutcome`: curve, verified, witness and the schedule
with every pivot, or the name of the exception.  A faster solver that
takes the same steps must print the same bytes; one that takes other steps
changes this digest, and the verdict digest below must then hold unedited.

A second digest freezes the verdicts alone, over those draws, 1,000
zero-heavy draws and every constructing grid cell with n != 2m+1: per
system, P, Q and `verified`, or "no curve", or the name of the exception.
It holds no schedule and no witness, so any solver, whatever its steps,
must give the same verdicts.
"""

import hashlib
import json
import random
from fractions import Fraction

from hypercycles.families import PatternNotAchieved, construct
from hypercycles.lienard import (
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    derive_system,
)
from hypercycles.polyx import Poly, coeff_strings
from hypercycles.recover import recover_curve

DIGEST = "4db355656c457c30154f0ce6751bb789f3eddfcee6707558258ad7132cfa5310"
OUTCOME_DIGEST = "219d27491ad3374d1c9098632f33197f61a4bc87ece175957e0f9624e48e49d1"
KINDS = ("lo", "none", "hi", "eq", "lo", "none", "hi", "lo")
DRAWS = 300


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([0, 0, 1, -1, 2, -3, 5]), rng.randint(1, 3))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _curve(rng: random.Random, kind: str) -> HyperellipticCurve:
    """Q = c prod (x - a_i)^e_i and P = prod (x - a_i) T.  "hi" draws
    deg Q > 2 deg P and "eq" deg Q < 2 deg P; "lo" draws deg Q = 2 deg P
    with c = s^2 and lc(T) = s, and then solves the next j coefficients of
    T so that P^2 and Q share their top j + 1 coefficients."""
    while True:
        k = rng.randint(2, 4)
        mults = [rng.randint(1, 4) for _ in range(k)]
        q = sum(mults)
        if kind == "hi":
            if (q - 1) // 2 < k:
                continue
            t = rng.randint(0, min((q - 1) // 2 - k, 2))
        elif kind == "eq":
            t = max(0, q // 2 - k + 1) + rng.randint(0, 1)
            if t > 3:
                continue
        else:
            if q % 2 or not 0 <= q // 2 - k <= 3:
                continue
            t = q // 2 - k
        pool = rng.choice([[0, 1, -1, 2, -2], [Fraction(1, 2), Fraction(-1, 2), 3, -3, 0]])
        roots = rng.sample(pool, k)
        R = Poly.from_roots(roots)
        s = _nonzero(rng)
        Q = Poly.constant(s * s if kind == "lo" else _nonzero(rng))
        for a, e in zip(roots, mults):
            Q = Q * Poly([-a, 1]) ** e
        tau = [_frac(rng) for _ in range(t)] + [s]
        if kind == "lo":
            for i in range(1, rng.randint(0, t) + 1):
                tau[t - i] = Fraction(0)
                excess = (R * Poly(tau) * R * Poly(tau) - Q)[2 * (k + t) - i]
                tau[t - i] = -excess / (2 * s)
        P = R * Poly(tau)
        if (P * P - Q).degree >= 2:
            return HyperellipticCurve(P=P, Q=Q)


def _system(rng: random.Random) -> LienardSystem:
    """Random f, g of a type with n != 2m+1, with zero coefficients."""
    m = rng.randint(1, 5)
    n = rng.randint(m + 1, 2 * m) if rng.random() < 0.5 else rng.randint(2 * m + 2, 2 * m + 4)
    return LienardSystem(f=Poly([_frac(rng) for _ in range(m)] + [_nonzero(rng)]),
                         g=Poly([_frac(rng) for _ in range(n)] + [_nonzero(rng)]))


def _entry(sys: LienardSystem):
    try:
        out = recover_curve(sys)
    except ValueError as exc:
        return type(exc).__name__
    curve = out.curve and [coeff_strings(out.curve.P), coeff_strings(out.curve.Q)]
    return [curve, out.verified, out.witness, list(out.schedule)]


def test_recover_curve_outcomes_are_frozen():
    rng = random.Random(33)
    entries = []
    seen = dict.fromkeys(("lo", "eq", "hi", "none", "zero", "found"), 0)
    for i in range(DRAWS):
        kind = KINDS[i % len(KINDS)]
        if kind == "none":
            sys = _system(rng)
        else:
            curve = _curve(rng, kind)
            sys = derive_system(curve)
            kind = "lo" if sys.n < 2 * sys.m + 1 else "eq" if sys.n == 2 * sys.m + 1 else "hi"
        entry = _entry(sys)
        entries.append(entry)
        seen[kind] += 1
        if isinstance(entry, list):
            curve, verified, _, _ = entry
            seen["found"] += verified
            seen["zero"] += bool(curve) and "0" in curve[0] + curve[1]
    assert min(seen.values()) >= 20, seen
    text = json.dumps(entries, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


# -- outcomes alone -------------------------------------------------------------


_ZERO_HEAVY = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                                   Fraction(-2, 3)]
_ROOTS = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]


def _lead(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _zero_heavy_system(rng: random.Random) -> LienardSystem:
    """A system of type (m, n) with m <= 6 and n != 2m+1 whose recovery
    assigns coefficients 0: f and g drawn from a set heavy in 0, or the
    system of a curve P = R T, Q = c R_1^e_1 ... R_k^e_k with R the product
    of the linear factors R_i, their roots among 0, +-1, +-2 and +-1/2, and
    T drawn from that set.  A curve of the kind "hi" has deg Q > 2 deg P,
    one of the kind "lo" deg Q = 2 deg P and c = lc(P)^2."""
    kind = rng.choice(["lo", "hi", "none"])
    if kind == "none":
        m = rng.randint(1, 6)
        n = rng.choice([n for n in range(1, 2 * m + 5) if n != 2 * m + 1])
        return LienardSystem(f=Poly([rng.choice(_ZERO_HEAVY) for _ in range(m)] + [_lead(rng)]),
                             g=Poly([rng.choice(_ZERO_HEAVY) for _ in range(n)] + [_lead(rng)]))
    while True:
        roots = rng.sample(_ROOTS, rng.randint(1, 4))
        mults = [rng.randint(1, 4) for _ in roots]
        k, q = len(roots), sum(mults)
        t = q // 2 - k if kind == "lo" else rng.randint(0, 2)
        if not (0 <= t and k + t <= 7 and (q == 2 * (k + t) if kind == "lo" else q > 2 * (k + t))):
            continue
        lead = _lead(rng)
        P = Poly.from_roots(roots) * Poly([rng.choice(_ZERO_HEAVY) for _ in range(t)] + [lead])
        Q = Poly.constant(lead * lead if kind == "lo" else _lead(rng))
        for a, e in zip(roots, mults):
            Q = Q * Poly([-a, 1]) ** e
        try:
            sys = derive_system(HyperellipticCurve(P=P, Q=Q))
        except NonPolynomialSystem:
            continue
        if sys.n != 2 * sys.m + 1:
            return sys


def _verdict(sys: LienardSystem):
    """[P, Q] and `verified`, or "no curve", or the name of the exception:
    what any solver must answer, with no schedule and no witness."""
    try:
        out = recover_curve(sys)
    except ValueError as exc:
        return type(exc).__name__
    if out.curve is None:
        return "no curve"
    return [[coeff_strings(out.curve.P), coeff_strings(out.curve.Q)], out.verified]


def test_recover_curve_verdicts_are_frozen():
    # the 300 draws above, 1,000 zero-heavy draws and every constructing
    # grid cell (m = 2..10, n = m+2..2m+2) with n != 2m+1
    rng = random.Random(33)
    systems = []
    for i in range(DRAWS):
        kind = KINDS[i % len(KINDS)]
        systems.append(_system(rng) if kind == "none" else derive_system(_curve(rng, kind)))
    rng = random.Random(41)
    systems += [_zero_heavy_system(rng) for _ in range(1000)]
    for m in range(2, 11):
        for n in range(m + 2, 2 * m + 3):
            if n != 2 * m + 1:
                try:
                    systems.append(construct(m, n).system)
                except (ValueError, PatternNotAchieved):
                    pass   # the cell admits, or here reaches, no curve
    verdicts = [_verdict(sys) for sys in systems]
    kinds = {"found": 0, "no curve": 0, "UndeterminedType": 0}
    for verdict in verdicts:
        kinds["found" if isinstance(verdict, list) else verdict] += 1
    assert min(kinds.values()) >= 20, kinds
    text = json.dumps(verdicts, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == OUTCOME_DIGEST
