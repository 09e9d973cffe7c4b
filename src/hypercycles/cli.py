"""Command-line frontend.

Subcommands: certify, reconstruct, construct, roots, bounds, portrait,
suite.  All reports are JSON on stdout with a top-level `"schema": 1`;
rational numbers are emitted as exact "p/q" strings, never floats.  Exit
status: 0 success, 2 domain errors (no curve exists, pattern not achieved,
...), 1 usage errors found by the command itself (a malformed polynomial,
--stdin document or --pattern file), 2 options that argparse rejects (a
missing or unknown option, an unknown command), with a usage line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
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
from .polyx import Poly, coeff_strings, json_rational, json_scalar, parse_poly
from .portrait import PortraitSpec, render_portrait
from .recover import DegenerateLeadingCoefficient, UndeterminedType, recover_curve
from .rootclass import (
    RootCount,
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

    @classmethod
    def of(cls, exc: Exception) -> "DomainFailure":
        """The error document for an exception the library raised."""
        return cls({"schema": SCHEMA, "error": type(exc).__name__,
                    "message": str(exc)})


# what a construction search raises when it cannot deliver
_SEARCH_FAILURES = (families.SearchExhausted, families.PatternNotAchieved, ValueError)


def _interval_json(root) -> dict:
    """The root's canonical isolating interval (`RealRoot.canonical`), so
    the bytes do not depend on how far the root was refined."""
    lo, hi = root.canonical()
    return {
        "lo": str(lo),
        "hi": str(hi),
        "exact": lo == hi,
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


# Python caps the decimal digits of an int it converts to or from text
# (`sys.set_int_max_str_digits`, from 3.10.7 and 3.11).  Inputs keep the cap
# the process starts with, so a huge literal stays a usage error; `main`
# lifts it for everything else, so that a report prints its exact values,
# such as the discriminant sequence of x^1500 - 1, at any length.
_INPUT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def _int_digits(limit: int):
    """Run the block under the digit cap `limit` (0: none)."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.10.7
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _reads_input(read):
    """`read` runs under the input digit cap (`_INPUT_DIGITS`)."""
    @functools.wraps(read)
    def wrapper(*args, **kwargs):
        with _int_digits(_INPUT_DIGITS):
            return read(*args, **kwargs)
    return wrapper


def _usage(source: str, why) -> SystemExit:
    """A usage error (exit 1, message on stderr) blaming `source`."""
    return SystemExit(f"error: {source}: {why}")


@_reads_input
def _parse_poly_arg(source: str, text: str) -> Poly:
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise _usage(source, exc) from None


@_reads_input
def _poly_arg(args, name: str, stdin_doc: dict | None) -> Poly:
    value = getattr(args, name, None)
    if value is not None:
        return _parse_poly_arg(f"--{name}", value)
    if stdin_doc is not None and name in stdin_doc:
        coeffs = stdin_doc[name]
        if not isinstance(coeffs, list):
            raise _usage(f"--stdin {name!r}", f"expected a list, got {json.dumps(coeffs)}")
        try:
            return Poly([json_rational(c) for c in coeffs])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise _usage(f"--stdin {name!r}", f"{type(exc).__name__}: {exc}") from None
    raise SystemExit(f"error: missing polynomial --{name}")


@_reads_input
def _read_stdin_doc(args) -> dict | None:
    if not getattr(args, "stdin", False):
        return None
    try:
        doc = json.loads(sys.stdin.read())
    except ValueError as exc:
        raise _usage("--stdin", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _usage("--stdin", "the top level must be a JSON object")
    return doc


@_reads_input
def _rationals(source: str, text: str, count: int) -> tuple:
    try:
        values = tuple(Fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise _usage(source, exc) from None
    if len(values) != count:
        raise _usage(source, f"expected {count} comma-separated rationals, "
                             f"got {len(values)}")
    return values


def _domain(cls, **polys):
    """cls(**polys), a curve or a system; the ValueError of a degenerate one
    (Q = 0, f = 0, deg g < 1) becomes a JSON error document."""
    try:
        return cls(**polys)
    except ValueError as exc:
        raise DomainFailure.of(exc)


def _cmd_certify(args) -> dict:
    doc = _read_stdin_doc(args)
    P = _poly_arg(args, "P", doc)
    Q = _poly_arg(args, "Q", doc)
    curve = _domain(HyperellipticCurve, P=P, Q=Q)
    try:
        report = certify(curve)
    except NonPolynomialSystem as exc:
        raise DomainFailure.of(exc)
    return _report_json(report)


def _cmd_reconstruct(args) -> dict:
    doc = _read_stdin_doc(args)
    f = _poly_arg(args, "f", doc)
    g = _poly_arg(args, "g", doc)
    try:
        sys_ = LienardSystem(f=f, g=g)
        outcome = recover_curve(sys_)
    except (UndeterminedType, DegenerateLeadingCoefficient, ValueError) as exc:
        raise DomainFailure.of(exc)
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


def _pattern_int(value) -> int:
    return int(json_scalar(value, "an integer"))


def _pattern_sign(value) -> int:
    if _pattern_int(value) not in (-1, 1):
        raise ValueError(f"a sign must be -1 or 1, got {json.dumps(value)}")
    return int(value)


@_reads_input
def _load_pattern(path: str) -> "families.CaseIPattern":
    """The --pattern file as a `CaseIPattern`; any fault in the file is a
    usage error (exit 1), never a traceback."""
    def usage(why: str) -> SystemExit:
        return _usage(f"--pattern {path}", why)

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise usage(exc.strerror or str(exc)) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise usage(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise usage("the top level must be a JSON object")
    known = {f.name for f in dataclasses.fields(families.CaseIPattern)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise usage(f"unknown keys {unknown}; known keys are {sorted(known)}")
    kwargs = {}
    for key, value in doc.items():
        try:
            if key in ("halving_steps", "max_seeds"):
                kwargs[key] = _pattern_int(value)
            elif not isinstance(value, list):
                raise TypeError(f"expected a list, got {json.dumps(value)}")
            else:
                convert = _pattern_sign if key == "signs" else json_rational
                kwargs[key] = tuple(convert(v) for v in value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise usage(f"bad value for {key!r}: {type(exc).__name__}: {exc}") from None
    return families.CaseIPattern(**kwargs)


def _cmd_construct(args) -> dict:
    pattern = _load_pattern(args.pattern) if args.pattern else None
    try:
        result = families.construct(args.m, args.n, s_cap=args.s_cap,
                                    pattern=pattern)
    except _SEARCH_FAILURES as exc:
        raise DomainFailure.of(exc)
    out = _report_json(result.report)
    out["parameters"] = {k: str(v) for k, v in result.parameters.items()}
    return out


def _cmd_roots(args) -> dict:
    p = _parse_poly_arg("POLY", args.poly)
    if p.degree < 1:
        raise DomainFailure({"schema": SCHEMA, "error": "DegreeTooSmall",
                             "message": "need degree >= 1"})
    ds = discriminant_sequence(p)
    signs = sign_list(ds)
    revised = revised_sign_list(signs)
    rc = RootCount.from_revised(revised)
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
    try:
        b = bounds(args.m, args.n)
    except ValueError as exc:
        raise DomainFailure.of(exc)
    out = {"schema": SCHEMA, "m": args.m, "n": args.n}
    out.update(_bounds_json(b))
    return out


def _cmd_portrait(args) -> str:
    doc = _read_stdin_doc(args)
    f = _poly_arg(args, "f", doc)
    g = _poly_arg(args, "g", doc)
    system = _domain(LienardSystem, f=f, g=g)
    curve = None
    # a curve needs both P and Q: either one given alone is a usage error
    if any(getattr(args, name, None) is not None or (doc and name in doc) for name in "PQ"):
        P = _poly_arg(args, "P", doc)
        Q = _poly_arg(args, "Q", doc)
        curve = _domain(HyperellipticCurve, P=P, Q=Q)
    window = _rationals("--window", args.window, 4)
    seeds = [_rationals("--seed-point", chunk, 2) for chunk in args.seed_points or []]
    try:
        spec = PortraitSpec(system=system, curve=curve, window=window,
                            step=args.step, seeds=seeds)
    except ValueError as exc:
        raise _usage("portrait", exc) from None
    return render_portrait(spec)


@_reads_input
def _criteria(text: str) -> list[int] | None:
    """The --criteria list; None for "all"."""
    if text == "all":
        return None
    try:
        criteria = [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise _usage("--criteria", exc) from None
    unknown = sorted(set(criteria) - set(suite_mod.CRITERIA))
    if unknown:
        raise _usage("--criteria", f"unknown criteria {unknown}; "
                                   f"known are {sorted(suite_mod.CRITERIA)}")
    return criteria


def _cmd_suite(args) -> dict:
    criteria = _criteria(args.criteria)
    try:
        results = suite_mod.run_suite(criteria=criteria, seed=args.seed,
                                      s_cap=args.s_cap)
    except _SEARCH_FAILURES as exc:
        raise DomainFailure.of(exc)
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
    p.add_argument("poly", help="the polynomial; one with a leading minus "
                   "goes after --, as in: roots -- -x^2+2")
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
    p.add_argument("--s-cap", type=int, default=families.DEFAULT_S_CAP)
    p.set_defaults(func=_cmd_suite)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the report to a file instead of stdout")
    return top


def _write_stdout(text: str) -> None:
    """Write all of `text` to stdout.  The bytes go through `sys.stdout.buffer`
    in a loop: with PYTHONUNBUFFERED set that buffer is a raw `FileIO`, whose
    `write` may take only part of the bytes (a pipe whose reader is leaving),
    and the text layer would drop the rest without an error.  A stdout
    without a byte layer takes the text as it is."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        out.write(text)
        out.flush()
        return
    out.flush()
    data = memoryview(text.encode(out.encoding or "utf-8", out.errors or "strict"))
    while data:
        data = data[raw.write(data):]
    raw.flush()


def _emit(args, text: str) -> None:
    """Write the report to --out or stdout.  An --out path that cannot be
    written is a usage error; a reader that closes stdout early (`| head`)
    ends the run quietly with status 1."""
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _usage(f"--out {out_path}", exc.strerror or exc) from None
        return
    if not text.endswith("\n"):
        text += "\n"
    try:
        _write_stdout(text)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot raise a second time (see the SIGPIPE note in
        # the `signal` module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _int_digits(0):
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
