"""The outcome of `recover_curve` is frozen over 300 seeded recoveries.

The draws are made here, so the digest does not move with the benchmark's
generators.  They take the three kinds of curve, by the type (m, n) that
`derive_system` gives them: "lo" (n < 2m+1, with degree-match equations and
often an affine block), "hi" (n > 2m+1) and "eq" (n = 2m+1, which recovery
refuses), plus random systems that carry no curve.  Roots come in
symmetric pairs and include 0, and T has zero coefficients, so many
unknowns come out 0.  Each entry is the whole `RecoveryOutcome`: curve,
verified, witness and the schedule with every pivot, or the name of the
exception.  A faster solver must give the same outcomes.
"""

import hashlib
import json
import random
from fractions import Fraction

from hypercycles.lienard import HyperellipticCurve, LienardSystem, derive_system
from hypercycles.polyx import Poly, coeff_strings
from hypercycles.recover import recover_curve

DIGEST = "594dba03c9ddf85cdb5a84ae89c5349d81525500256c4ed3679152adcb34f558"
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
    seen = dict.fromkeys(("lo", "eq", "hi", "none", "block", "zero", "found"), 0)
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
            curve, verified, _, schedule = entry
            seen["found"] += verified
            seen["block"] += any("affine block elimination" in s["pivots"] for s in schedule)
            seen["zero"] += bool(curve) and "0" in curve[0] + curve[1]
    assert min(seen.values()) >= 20, seen
    text = json.dumps(entries, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
