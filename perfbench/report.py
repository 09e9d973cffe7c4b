"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace]

Runs run.py once per workload, each in its own process, one after the
other, and prints the end-to-end metrics with the details behind them
(tail percentile and sample count, fail ratio, input mix).  All output
checks run inside run.py; a workload whose outputs are not all correct is
flagged.  With --trace it also runs the traced pass per workload and prints
the per-layer metrics, the tracing overhead and the dominant layer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "roundtrip", "classify")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return details, result


def show(workload: str, details: dict, result: dict) -> None:
    status = "all outputs correct" if result["correct"] else "WRONG OUTPUTS"
    print(f"== {workload}: {status}; attempted {result['attempted']}, "
          f"failed {result['failed']} (fail_ratio {details['fail_ratio']:.4g})")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    if "tail_percentile" in details:
        print(f"  op_ms.tail is p{details['tail_percentile']} of {details['samples']} samples")
    if "dominant_layer" in details:
        print(f"  dominant layer by self time: {details['dominant_layer']} "
              f"({details['dominant_layer_self_share']:.1%} of span time); "
              f"{details['spans']} spans in {details['spans_file']}")
    print(f"  mix: {json.dumps(details['mix'])}")
    for failure in details["failures"]:
        print(f"  {failure}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Print every benchmark metric by name and unit.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="also print the per-layer metrics")
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            details, result = run(workload, args.seed, args.seconds, trace)
            show(workload + (" (traced)" if trace else ""), details, result)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
