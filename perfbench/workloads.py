"""Workload inputs, the timed operation on each input, and its output check.

Each workload generates its own inputs from the seed and hands the library
only those inputs.  `run` is the timed operation; it returns the outcome,
with any exception caught and returned in its place.  `check` then returns
one of three verdicts:

* ``OK``: the answer is right;
* ``FAILED``: the operation raised or ran out of its budget;
* ``WRONG``: the operation returned an answer that is wrong.  A wrong answer
  also counts as a failed operation, and it makes the whole run incorrect.

`selfcheck` feeds each checker a deliberately wrong answer and returns the
names of the checkers that let it through.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import signal
from fractions import Fraction
from pathlib import Path

import hypercycles as hc

OK, FAILED, WRONG = "ok", "failed", "wrong"

CELLS_FILE = Path(__file__).resolve().parent / "grid_cells.json"
BUDGET_S = 10.0   # per grid cell; the slowest cell that finishes takes ~3-4 s


def grid_cells() -> list[tuple[int, int]]:
    """The fixed grid: m = 2..10, n = m+2..2m+2."""
    return [(m, n) for m in range(2, 11) for n in range(m + 2, 2 * m + 3)]


class BudgetOut(Exception):
    """A grid cell ran past its wall-time budget."""


def _on_alarm(signum, frame):
    raise BudgetOut()


def run_cell(m: int, n: int):
    """construct(m, n) under the wall-time budget; returns result or exception."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return hc.construct(m, n)
    except Exception as exc:   # the outcome is judged by check_cell
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cell_outcome(outcome) -> object:
    """How a cell ended: the certified count, 'budget_out' or the error type."""
    if isinstance(outcome, BudgetOut):
        return "budget_out"
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return outcome.report.certified_count


def check_cell(m: int, n: int, outcome) -> str:
    lower = hc.bounds(m, n).lower
    if isinstance(outcome, Exception):
        refused = lower == 0 and type(outcome) is ValueError
        return OK if refused else FAILED
    if outcome.report.certified_count != lower:
        return WRONG
    if outcome.system.type != (m, n) or not hc.invariance_check(outcome.system, outcome.curve):
        return WRONG
    return OK


class Workload:
    """What run.py needs from a workload besides name, warm_up, batches,
    run, check, mix and selfcheck."""

    budget_outs = 0
    # seconds one batch takes on the machine the benchmark was tuned on,
    # which sets how many batches a run of a given length holds
    batch_s = 1.0

    def charge(self, verdict: str, seconds: float) -> float:
        """The time an operation counts for."""
        return seconds


class Grid(Workload):
    """construct(m, n) over the fixed grid in one seeded order.

    Only the cells that end correctly at the recorded baseline are timed
    (see grid_cells.json)."""

    name = "grid"
    batch_s = 20.0   # batches() yields a single pass over the grid

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        table = json.loads(CELLS_FILE.read_text())["cells"]
        self.cells = [(m, n) for m, n in grid_cells() if table[f"{m},{n}"]["correct"]]
        self.budget_outs = 0

    def warm_up(self) -> None:
        self.check((2, 5), self.run((2, 5)))

    def batches(self):
        # a single pass: repeating a cell in one process would let a memo
        # kept across calls answer from the first visit
        order = list(self.cells)
        self.rng.shuffle(order)
        yield order

    def run(self, item):
        return run_cell(*item)

    def check(self, item, outcome) -> str:
        if isinstance(outcome, BudgetOut):
            self.budget_outs += 1
        return check_cell(*item, outcome)

    def charge(self, verdict: str, seconds: float) -> float:
        """Failed cells are charged the whole budget."""
        return seconds if verdict == OK else BUDGET_S

    def mix(self) -> dict:
        return {"cells": len(self.cells), "budget_outs": self.budget_outs}

    def selfcheck(self) -> list[str]:
        res = run_cell(2, 5)
        low = dataclasses.replace(
            res, report=dataclasses.replace(res.report, certified_count=0))
        return [] if check_cell(2, 5, low) == WRONG else ["grid: count below bound"]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

# One period of the kind rotation: a third no-curve systems, and the curves
# split evenly between n < 2m+1, n = 2m+1 and n > 2m+1.
KINDS = ("lo", "none", "hi", "eq", "none", "lo", "hi", "none", "eq")
ROUNDTRIP_BATCH = 4 * len(KINDS)
WITNESS_FAMILIES = {"f-identity", "g-identity", "degree-match"}


def _rand_frac(rng: random.Random, lim: int = 10, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-lim, lim), rng.randint(1, den))


def _rand_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _rand_poly(rng: random.Random, degree: int) -> hc.Poly:
    return hc.Poly([_rand_frac(rng) for _ in range(degree)] + [_rand_nonzero(rng)])


def draw_curve(rng: random.Random, kind: str,
               shape: random.Random | None = None) -> tuple[hc.HyperellipticCurve, int]:
    """A curve (P, Q) of the given kind, and how many draws were rejected.

    `shape` draws the degrees (k, e_i, deg T, j) and `rng` the values.

    Q = c * prod (x - a_i)^e_i and P = prod (x - a_i) * T, so sqfree(Q) | P
    and both divisions in derive_system are exact.  With p = deg P and
    q = deg Q the system type is m = p - 1 and n = deg(P^2 - Q) - 1:

    * "hi": q > 2p, so n = q - 1 > 2m + 1; T is free;
    * "eq": q < 2p, so n = 2m + 1; T is free;
    * "lo": q = 2p, c = s^2 and T has leading coefficient s, with its next j
      coefficients solved top-down so that P^2 and Q share their top j + 1
      coefficients; n = 2m - j.

    A draw that would break derive_system's degree contract (n < 1) is
    drawn again; the count of such draws is returned."""
    shape = shape or rng
    redraws = 0
    while True:
        k = shape.randint(2, 4)
        mults = [shape.randint(1, 4) for _ in range(k)]
        q = sum(mults)
        if kind == "hi":
            t_max = (q - 1) // 2 - k
            if t_max < 0:
                continue
            t = shape.randint(0, min(t_max, 2))
        elif kind == "eq":
            t = max(0, q // 2 - k + 1) + shape.randint(0, 1)
            if t > 3:
                continue
        else:
            if q % 2 or q // 2 < k or q // 2 - k > 3:
                continue
            t = q // 2 - k
        roots = [Fraction(a, rng.choice([1, 1, 1, 2])) for a in rng.sample(range(-6, 7), k)]
        R = hc.Poly.from_roots(roots)
        if kind == "lo":
            s = _rand_nonzero(rng)
            c = s * s
            Q = R.scale(c)
            for a, e in zip(roots, mults):
                Q = Q * hc.Poly([-a, 1]) ** (e - 1)
            tau = [_rand_frac(rng) for _ in range(t)] + [s]
            for i in range(1, shape.randint(0, t) + 1):
                tau[t - i] = Fraction(0)
                P = R * hc.Poly(tau)
                excess = (P * P - Q)[2 * (k + t) - i]
                tau[t - i] = -excess / (2 * s)
            T = hc.Poly(tau)
        else:
            Q = R.scale(_rand_nonzero(rng))
            for a, e in zip(roots, mults):
                Q = Q * hc.Poly([-a, 1]) ** (e - 1)
            T = _rand_poly(rng, t)
        P = R * T
        if (P * P - Q).degree < 2:
            redraws += 1
            continue
        return hc.HyperellipticCurve(P=P, Q=Q), redraws


def draw_system(rng: random.Random, shape: random.Random | None = None) -> hc.LienardSystem:
    """A random (f, g) of a type with n != 2m+1; `shape` draws the type."""
    shape = shape or rng
    m = shape.randint(1, 5)
    if shape.random() < 0.5:
        n = shape.randint(m + 1, 2 * m)
    else:
        n = shape.randint(2 * m + 2, 2 * m + 4)
    return hc.LienardSystem(f=_rand_poly(rng, m), g=_rand_poly(rng, n))


def curve_kind(m: int, n: int) -> str:
    return "lo" if n < 2 * m + 1 else "eq" if n == 2 * m + 1 else "hi"


def roundtrip_curve(curve: hc.HyperellipticCurve):
    """derive_system, the invariance residual, then recover_curve."""
    try:
        sys = hc.derive_system(curve)
        residual = hc.lienard.invariance_residual(sys, curve)
        try:
            recovered = hc.recover_curve(sys)
        except hc.UndeterminedType as exc:
            recovered = exc
    except Exception as exc:
        return exc
    return sys, residual, recovered


def check_roundtrip_curve(curve, kind: str, outcome) -> str:
    if isinstance(outcome, Exception):
        return FAILED
    sys, residual, recovered = outcome
    if curve_kind(sys.m, sys.n) != kind or not residual.is_zero():
        return WRONG
    if kind == "eq":
        return OK if isinstance(recovered, hc.UndeterminedType) else WRONG
    if isinstance(recovered, Exception) or not recovered.found:
        return WRONG
    same = recovered.curve.P == curve.P and recovered.curve.Q == curve.Q
    return OK if same else WRONG


def recover_system(sys: hc.LienardSystem):
    try:
        return hc.recover_curve(sys)
    except Exception as exc:
        return exc


def check_no_curve(sys: hc.LienardSystem, outcome) -> str:
    if isinstance(outcome, Exception):
        return FAILED
    if outcome.found:
        # a random system may carry a curve; it must then be invariant
        return OK if hc.invariance_check(sys, outcome.curve) else WRONG
    if outcome.witness is None or outcome.witness[0] not in WITNESS_FAMILIES:
        return WRONG
    return OK


class Roundtrip(Workload):
    """Seeded random curves through derive -> residual -> recover, plus
    random systems that carry no curve."""

    name = "roundtrip"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counts = dict.fromkeys(("lo", "eq", "hi", "none"), 0)
        self.found_curves = 0
        self.redraws = 0
        self.types: dict[str, int] = {}

    def _draw(self, rng: random.Random, kind: str, shape: random.Random | None = None):
        if kind == "none":
            return kind, draw_system(rng, shape)
        curve, redraws = draw_curve(rng, kind, shape)
        self.redraws += redraws
        return kind, curve

    def warm_up(self) -> None:
        rng = random.Random(0)
        for kind in ("lo", "none"):
            item = self._draw(rng, kind)
            self.check(item, self.run(item))
        self.counts = dict.fromkeys(self.counts, 0)
        self.types.clear()
        self.found_curves = self.redraws = 0

    def batches(self):
        # the degrees of batch b are the same for every seed, so that seeds
        # differ in values and not in how much work a run holds
        for b in itertools.count():
            shape = random.Random(b)
            yield [self._draw(self.rng, KINDS[i % len(KINDS)], shape)
                   for i in range(ROUNDTRIP_BATCH)]

    def run(self, item):
        kind, obj = item
        return recover_system(obj) if kind == "none" else roundtrip_curve(obj)

    def check(self, item, outcome) -> str:
        kind, obj = item
        self.counts[kind] += 1
        if kind == "none":
            if not isinstance(outcome, Exception) and outcome.found:
                self.found_curves += 1
            return check_no_curve(obj, outcome)
        if not isinstance(outcome, Exception):
            key = "%d,%d" % outcome[0].type
            self.types[key] = self.types.get(key, 0) + 1
        return check_roundtrip_curve(obj, kind, outcome)

    def mix(self) -> dict:
        return {"kinds": dict(self.counts), "curve_types": dict(sorted(self.types.items())),
                "redraws": self.redraws, "no_curve_systems_with_curve": self.found_curves}

    def selfcheck(self) -> list[str]:
        missed = []
        curve, _ = draw_curve(random.Random(0), "hi")
        sys, residual, recovered = roundtrip_curve(curve)
        Q = recovered.curve.Q
        bumped = hc.Poly(list(Q.coeffs[:-1]) + [Q.coeffs[-1] + 1])
        wrong = dataclasses.replace(
            recovered, curve=hc.HyperellipticCurve(P=recovered.curve.P, Q=bumped))
        if check_roundtrip_curve(curve, "hi", (sys, residual, wrong)) != WRONG:
            missed.append("roundtrip: curve with one coefficient bumped")
        if check_no_curve(sys, wrong) != WRONG:
            missed.append("roundtrip: non-invariant curve for a no-curve system")
        return missed


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

CLASSIFY_DEGREES = range(2, 25)
# (share of the degree in real roots, multiplicities to draw from)
SHAPES = ((1.0, (1,)), (0.5, (1,)), (0.5, (1, 2, 3)), (0.0, (1,)))


def draw_classify(rng: random.Random, degree: int, shape: int,
                  shape_rng: random.Random | None = None) -> tuple[hc.Poly, int]:
    """A polynomial of the given degree and its number of distinct real roots.

    Real roots are planted rationals, some in close clusters (a, a + 2^-k),
    making up about the shape's share of the degree (at least one or two)
    with multiplicities from the shape; the rest of the degree is a product
    of quadratics (x - a)^2 + b^2 with b != 0, which have no real roots.
    `shape_rng` draws the multiplicities and clusters, `rng` the values."""
    shape_rng = shape_rng or rng
    share, mult_choices = SHAPES[shape]
    target_real = max(round(share * degree), 2 - degree % 2)
    target_real -= (degree - target_real) % 2   # the rest is even
    roots: list[Fraction] = []
    mults: list[int] = []
    used = 0
    while used < target_real:
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        group = [a]
        if shape_rng.random() < 0.3:
            group.append(a + Fraction(1, 2 ** shape_rng.randint(3, 8)))
        for r in group:
            if r in roots or used >= target_real:
                continue
            e = min(shape_rng.choice(mult_choices), target_real - used)
            roots.append(r)
            mults.append(e)
            used += e
    p = hc.Poly([_rand_nonzero(rng)])
    for r, e in zip(roots, mults):
        p = p * hc.Poly([-r, 1]) ** e
    while p.degree + 2 <= degree:
        a = _rand_frac(rng)
        b = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        p = p * hc.Poly([a * a + b * b, -2 * a, 1])
    return p, len(roots)


def classify_poly(p: hc.Poly):
    """count_roots, isolate_real_roots and sturm_count over a Cauchy bound."""
    try:
        rc = hc.count_roots(p)
        isolated = hc.isolate_real_roots(p)
        bound = hc.rootclass.cauchy_bound(p)
        sturm = hc.sturm_count(p, -bound, bound)
    except Exception as exc:
        return exc
    return rc.distinct_real, len(isolated), sturm


def check_classify(planted: int, outcome) -> str:
    if isinstance(outcome, Exception):
        return FAILED
    return OK if outcome == (planted, planted, planted) else WRONG


class Classify(Workload):
    """Root classification of independent random polynomials."""

    name = "classify"
    batch_s = 2.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.degrees: dict[int, int] = {}

    def warm_up(self) -> None:
        item = draw_classify(random.Random(0), 12, 2)
        self.check(item, self.run(item))
        self.degrees.clear()

    def batches(self):
        # one polynomial of each degree per batch, with the root shapes
        # rotating over the degrees from batch to batch, so that batches cost
        # about the same, and the same for every seed: cost grows steeply
        # with degree, and repeated roots send count_roots to a slower path
        for b in itertools.count():
            shape_rng = random.Random(b)
            degrees = list(CLASSIFY_DEGREES)
            self.rng.shuffle(degrees)
            yield [draw_classify(self.rng, d, (b + d) % len(SHAPES), shape_rng)
                   for d in degrees]

    def run(self, item):
        return classify_poly(item[0])

    def check(self, item, outcome) -> str:
        p, planted = item
        self.degrees[p.degree] = self.degrees.get(p.degree, 0) + 1
        return check_classify(planted, outcome)

    def mix(self) -> dict:
        return {"degrees": dict(sorted(self.degrees.items()))}

    def selfcheck(self) -> list[str]:
        p, planted = draw_classify(random.Random(0), 12, 2)
        counts = classify_poly(p)
        off = (counts[0] + 1,) + counts[1:]
        return [] if check_classify(planted, off) == WRONG else ["classify: count off by one"]


WORKLOADS = {"grid": Grid, "roundtrip": Roundtrip, "classify": Classify}
