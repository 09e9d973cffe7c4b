"""Command-line frontend.

Subcommands: certify, reconstruct, construct, roots, bounds, portrait,
suite.  All reports are JSON on stdout with a top-level `"schema": 1`;
rational numbers are emitted as exact "p/q" strings, never floats.  Exit
status: 0 success, 2 domain errors (no curve exists, pattern not achieved,
...), 1 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import families, suite as suite_mod
from .lienard import (
    HyperellipticCurve,
    LienardSystem,
    NonPolynomialSystem,
    bounds,
    certify,
)
from .polyx import Poly, coeff_strings, parse_poly
from .portrait import PortraitSpec, render_portrait
from .recover import DegenerateLeadingCoefficient, UndeterminedType, recover_curve
from .rootclass import (
    count_roots,
    discriminant_sequence,
    isolate_real_roots,
    revised_sign_list,
    sign_list,
)

SCHEMA = 1


class DomainFailure(Exception):
    def __init__(self, payload: dict):
        self.payload = payload
        super().__init__(payload.get("error", "domain error"))


def _interval_json(root) -> dict:
    return {
        "lo": str(root.lo),
        "hi": str(root.hi),
        "exact": root.is_exact(),
        "multiplicity": root.multiplicity,
    }


def _bounds_json(b) -> dict:
    return {
        "lower": b.lower,
        "upper": b.upper,
        "exact": b.exact,
        "note": b.note,
    }


def _report_json(report) -> dict:
    return {
        "schema": SCHEMA,
        "m": report.m,
        "n": report.n,
        "P": coeff_strings(report.curve.P),
        "Q": coeff_strings(report.curve.Q),
        "f": coeff_strings(report.system.f),
        "g": coeff_strings(report.system.g),
        "all_roots_real": report.all_roots_real,
        "conditions": [
            {
                "s1": _interval_json(v.s1),
                "s2": _interval_json(v.s2),
                "q_positive_between": v.q_positive_between,
                "p2_minus_q_negative": v.p2_minus_q_negative,
                "no_common_root_qprime_f": v.no_common_root_qprime_f,
                "critical_point_unique": v.critical_point_unique,
                "gprime_positive_at_alpha": v.gprime_positive_at_alpha,
                "certified": v.certified,
            }
            for v in report.intervals
        ],
        "certified_count": report.certified_count,
        "bounds": _bounds_json(report.bounds),
        "bound_consistent": report.bound_consistent,
    }


def _poly_arg(args, name: str, stdin_doc: dict | None) -> Poly:
    value = getattr(args, name, None)
    if value is not None:
        return parse_poly(value)
    if stdin_doc is not None and name in stdin_doc:
        return Poly([Fraction(c) for c in stdin_doc[name]])
    raise SystemExit(f"error: missing polynomial --{name}")


def _read_stdin_doc(args) -> dict | None:
    if getattr(args, "stdin", False):
        return json.loads(sys.stdin.read())
    return None


def _cmd_certify(args) -> dict:
    doc = _read_stdin_doc(args)
    P = _poly_arg(args, "P", doc)
    Q = _poly_arg(args, "Q", doc)
    try:
        report = certify(HyperellipticCurve(P=P, Q=Q))
    except NonPolynomialSystem as exc:
        raise DomainFailure({"schema": SCHEMA, "error": "NonPolynomialSystem",
                             "message": str(exc)})
    return _report_json(report)


def _cmd_reconstruct(args) -> dict:
    doc = _read_stdin_doc(args)
    f = _poly_arg(args, "f", doc)
    g = _poly_arg(args, "g", doc)
    try:
        sys_ = LienardSystem(f=f, g=g)
        outcome = recover_curve(sys_)
    except (UndeterminedType, DegenerateLeadingCoefficient, ValueError) as exc:
        raise DomainFailure({"schema": SCHEMA, "error": type(exc).__name__,
                             "message": str(exc)})
    if outcome.found:
        return {
            "schema": SCHEMA,
            "P": coeff_strings(outcome.curve.P),
            "Q": coeff_strings(outcome.curve.Q),
            "verified": True,
            "schedule": list(outcome.schedule),
        }
    return {
        "schema": SCHEMA,
        "no_curve": True,
        "witness_equation": outcome.witness[0],
        "witness_degree": outcome.witness[1],
        "schedule": list(outcome.schedule),
    }


def _load_pattern(path: str) -> "families.CaseIPattern":
    with open(path) as fh:
        doc = json.load(fh)
    kwargs = {}
    for key in ("x0_candidates", "odd_nodes", "even_nodes", "pin_fractions"):
        if key in doc:
            kwargs[key] = tuple(Fraction(v) for v in doc[key])
    if "signs" in doc:
        kwargs["signs"] = tuple(int(v) for v in doc["signs"])
    for key in ("halving_steps", "max_seeds"):
        if key in doc:
            kwargs[key] = int(doc[key])
    return families.CaseIPattern(**kwargs)


def _cmd_construct(args) -> dict:
    pattern = _load_pattern(args.pattern) if args.pattern else None
    try:
        result = families.construct(args.m, args.n, s_cap=args.s_cap,
                                    pattern=pattern)
    except (families.SearchExhausted, families.PatternNotAchieved, ValueError) as exc:
        raise DomainFailure({"schema": SCHEMA, "error": type(exc).__name__,
                             "message": str(exc)})
    out = _report_json(result.report)
    out["parameters"] = {k: str(v) for k, v in result.parameters.items()}
    return out


def _cmd_roots(args) -> dict:
    p = parse_poly(args.poly)
    if p.degree < 1:
        raise DomainFailure({"schema": SCHEMA, "error": "DegreeTooSmall",
                             "message": "need degree >= 1"})
    ds = discriminant_sequence(p)
    signs = sign_list(ds)
    revised = revised_sign_list(signs)
    rc = count_roots(p)
    roots = isolate_real_roots(p)
    return {
        "schema": SCHEMA,
        "degree": p.degree,
        "discriminant_sequence": [str(d) for d in ds],
        "sign_list": signs,
        "revised_sign_list": revised,
        "distinct_real": rc.distinct_real,
        "imaginary_pairs": rc.imaginary_pairs,
        "isolating_intervals": [_interval_json(r) for r in roots],
    }


def _cmd_bounds(args) -> dict:
    b = bounds(args.m, args.n)
    out = {"schema": SCHEMA, "m": args.m, "n": args.n}
    out.update(_bounds_json(b))
    return out


def _cmd_portrait(args) -> str:
    doc = _read_stdin_doc(args)
    f = _poly_arg(args, "f", doc)
    g = _poly_arg(args, "g", doc)
    system = LienardSystem(f=f, g=g)
    curve = None
    has_p = getattr(args, "P", None) is not None or (doc and "P" in doc)
    if has_p:
        P = _poly_arg(args, "P", doc)
        Q = _poly_arg(args, "Q", doc)
        curve = HyperellipticCurve(P=P, Q=Q)
    window = tuple(Fraction(v) for v in args.window.split(","))
    seeds = []
    for chunk in args.seed_points or []:
        sx, sy = chunk.split(",")
        seeds.append((Fraction(sx), Fraction(sy)))
    spec = PortraitSpec(system=system, curve=curve, window=window,
                        step=args.step, seeds=seeds)
    return render_portrait(spec)


def _cmd_suite(args) -> dict:
    criteria = None
    if args.criteria and args.criteria != "all":
        criteria = [int(c) for c in args.criteria.split(",")]
    results = suite_mod.run_suite(criteria=criteria, seed=args.seed,
                                  jobs=args.jobs, s_cap=args.s_cap)
    return {
        "schema": SCHEMA,
        "results": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "details": r.details,
            }
            for r in results
        ],
        "passed_all": all(r.passed for r in results),
    }


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypercycles",
        description="exact hyperelliptic limit cycle toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_poly_opts(p, names):
        for name in names:
            p.add_argument(f"--{name}", help=f"polynomial {name}")
        p.add_argument("--stdin", action="store_true",
                       help="read missing polynomials from a prior JSON report on stdin")

    p = sub.add_parser("certify", help="certify hyperelliptic limit cycles of (P, Q)")
    add_poly_opts(p, ("P", "Q"))
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("reconstruct", help="recover the unique candidate curve from (f, g)")
    add_poly_opts(p, ("f", "g"))
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("construct", help="build a certified type-(m,n) system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-cap", type=int, default=families.DEFAULT_S_CAP)
    p.add_argument("--pattern", help="JSON file overriding the node seed lists")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("roots", help="classify the real roots of a polynomial")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("bounds", help="look up the known bounds for type (m,n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("portrait", help="render an SVG phase portrait")
    add_poly_opts(p, ("f", "g", "P", "Q"))
    p.add_argument("--window", default="-3,-3,3,3",
                   help="x0,y0,x1,y1 rational corners")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--seed-point", dest="seed_points", action="append",
                   help="trajectory start 'x,y' (repeatable)")
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--criteria", default="all", help="e.g. 1,4,6")
    p.add_argument("--seed", type=int, default=suite_mod.DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--s-cap", type=int, default=families.DEFAULT_S_CAP)
    p.set_defaults(func=_cmd_suite)

    return top


def _emit(args, text: str) -> None:
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    for sp in parser._subparsers._group_actions[0].choices.values():  # type: ignore[attr-defined]
        sp.add_argument("--out", help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except DomainFailure as exc:
        _emit(args, json.dumps(exc.payload, indent=2))
        return 2
    if isinstance(result, str):
        _emit(args, result)
    else:
        _emit(args, json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
