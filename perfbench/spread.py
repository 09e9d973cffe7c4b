"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload grid --runs 10 [--out FILE]

Runs run.py once per seed (seeds 1..runs, one process at a time) and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound from
BENCHMARK.json, and the same for the uncalibrated times.  The benchmark is
steady when every spread except setup_s stays below a third of its bound.
With --out FILE the per-run values and the summary are stored in FILE under
the workload's name, keeping the other workloads' entries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
        details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in details["uncalibrated"].items():
            values.setdefault("uncalibrated." + name, []).append(v)
        print(f"seed {seed}: " + "  ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"{name:24s} median {med:10.4g}  spread {spread:6.3f}  {verdict}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {"seconds": args.seconds, "seeds": list(seeds),
                              "summary": summary, "values": values}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
