"""Benchmark one workload of the hypercycles library.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Each workload runs as a closed loop with one caller: the next operation
starts when the previous one returns.  A run is two passes over the same
seeded inputs, each pass in a fresh process, one after the other.  Each
pass runs as many whole batches of inputs as take half of --seconds on the
machine the benchmark was tuned on (the grid is always one batch), so the
amount of work, and with it the sample count behind the tail percentile,
depends only on --seconds.  Every output of both passes is checked.

Operation times are calibrated against a reference kernel timed between
operations (see calibrate.py).  Other tenants of the machine this was
tuned on slow single operations at random moments and never speed them
up, so each operation's time is the lower of its two passes.  Fresh
processes keep a memo built in the first pass from answering the second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details behind the metrics (tail percentile, sample count, fail
ratio, input mix, dominant layer).  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` the second pass runs with tracing
wrappers installed, and the metrics are the per-layer ones plus the tracing
overhead against the untraced first pass; the spans go to
``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, SpeedLog, reference_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark one hypercycles workload.")
    ap.add_argument("--workload", required=True, choices=("grid", "roundtrip", "classify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass", dest="batches", type=int, default=None,
                    help="internal: run one pass of this many batches in this process")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: only set up (import, generate, warm up) and exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# one pass, in its own process
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Everything before the first timed operation."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    wl.warm_up()
    return wl


def run_pass(wl, batches: int, tracer=None) -> dict:
    """Run `batches` batches, or all the workload has if that is fewer."""
    from workloads import OK
    speed = SpeedLog()
    spans = []
    failures = []
    done = 0
    for batch in itertools.islice(wl.batches(), batches):
        for item in batch:
            speed.sample()
            if tracer is not None:
                tracer.op += 1
                tracer.enabled = True
            t0 = time.perf_counter()
            outcome = wl.run(item)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            verdict = wl.check(item, outcome)
            spans.append((verdict, t0, t1))
            if verdict != OK and len(failures) < 20:
                failures.append(f"{verdict}: {item!r:.120}: {outcome!r:.160}")
        done += 1
    speed.sample(force=True)
    # [verdict, charged seconds, charged calibrated seconds]
    ops = [[v, wl.charge(v, t1 - t0), wl.charge(v, (t1 - t0) * speed.factor(t0, t1))]
           for v, t0, t1 in spans]
    return {"ops": ops, "batches": done, "failures": failures, "mix": wl.mix(),
            "reference_s": statistics.median(speed.ref)}


def pass_main(args) -> int:
    wl = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        out = run_pass(wl, args.batches, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["selfcheck_missed"] = wl.selfcheck()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["families.budget_outs"] = (wl.budget_outs, "count")
        layer, share = tracer.dominant_layer()
        spans_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.update(layer_metrics=metrics, dominant_layer=layer,
                   dominant_layer_self_share=share, spans=tracer.dump(spans_file),
                   spans_file=str(spans_file.relative_to(HERE.parent)))
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# the run: set-up probes and two passes
# ---------------------------------------------------------------------------


def child(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def measure_setup(args) -> list[tuple[float, float]]:
    """Wall times of fresh processes that only set up, time the reference
    kernel and exit, each with its calibrated value."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(child(args, "--seconds", "0", "--setup-probe"),
                             check=True, stdout=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        ref = float(out.stdout.split()[-1])
        # the probe's own reference timing is not part of its set-up
        wall = t1 - t0 - 5 * ref
        samples.append((wall, wall * NOMINAL_S / ref))
    return samples


def spawn_pass(args, batches: int, trace: int) -> dict:
    out = subprocess.run(child(args, "--seconds", str(args.seconds),
                               "--pass", str(batches), "--trace", str(trace)),
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples above its rank."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def ops_per_s(pass_out: dict) -> float:
    """Calibrated operations per second of one pass."""
    return len(pass_out["ops"]) / sum(op[2] for op in pass_out["ops"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypercycles" / "__init__.py").is_file():
        print(f"hypercycles sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(reference_time(5))
        return 0
    if args.batches is not None:
        return pass_main(args)

    from workloads import OK, WORKLOADS, WRONG
    batches = max(1, round(args.seconds / 2 / WORKLOADS[args.workload].batch_s))
    setup_samples = measure_setup(args)
    first = spawn_pass(args, batches, 0)
    second = spawn_pass(args, batches, args.trace)
    if len(second["ops"]) != len(first["ops"]):
        raise RuntimeError("the second pass did not repeat the first pass's inputs")
    passes = (first, second)

    verdicts = [op[0] for p in passes for op in p["ops"]]
    attempted = len(verdicts)
    failed = sum(v != OK for v in verdicts)
    wrong = sum(v == WRONG for v in verdicts)
    missed = sorted({m for p in passes for m in p["selfcheck_missed"]})
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "batches": first["batches"],
               "setup_samples_s": [raw for raw, _ in setup_samples],
               "reference_s": [first["reference_s"], second["reference_s"]],
               "selfcheck_missed": missed,
               "fail_ratio": failed / attempted, "wrong": wrong,
               "failures": first["failures"] + second["failures"], "mix": first["mix"]}

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in second["layer_metrics"].items()}
        untraced, traced = ops_per_s(first), ops_per_s(second)
        metrics["trace.ops_per_s_untraced"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.ops_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["trace.overhead"] = {"value": 1 - traced / untraced, "unit": "ratio"}
        details.update({k: second[k] for k in ("dominant_layer", "dominant_layer_self_share",
                                                "spans", "spans_file")})
    else:
        times = sorted(min(a[2], b[2]) * 1000 for a, b in zip(first["ops"], second["ops"]))
        raw = sorted(min(a[1], b[1]) * 1000 for a, b in zip(first["ops"], second["ops"]))
        p = tail_percentile(len(times))
        metrics = {
            "setup_s": {"value": statistics.median(cal for _, cal in setup_samples),
                        "unit": "s"},
            "ops_per_s": {"value": len(times) / (sum(times) / 1000), "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(times), "unit": "ms"},
            "op_ms.tail": {"value": percentile(times, p), "unit": "ms"},
            "peak_rss_mb": {"value": max(first["peak_rss_mb"], second["peak_rss_mb"]),
                            "unit": "MB"},
        }
        details.update(tail_percentile=p, samples=len(times), uncalibrated={
            "setup_s": statistics.median(raw for raw, _ in setup_samples),
            "ops_per_s": len(raw) / (sum(raw) / 1000),
            "op_ms.p50": statistics.median(raw), "op_ms.tail": percentile(raw, p)})

    print(json.dumps(details))
    print(json.dumps({"correct": wrong == 0 and not missed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
