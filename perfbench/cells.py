"""Record how every cell of the fixed grid ends today.

    python3 perfbench/cells.py            # print the table
    python3 perfbench/cells.py --write    # also rewrite perfbench/grid_cells.json

Each cell runs construct(m, n) once under the grid budget and is recorded
with its outcome (certified count, error type or "budget_out"), its lower
bound, its wall time and whether the outcome is correct.  The `grid`
workload times only the cells recorded as correct, so a cell that starts
to pass shows up here as a flipped outcome.  Takes about a minute, most of
it in the cells that run out of budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite grid_cells.json")
    args = ap.parse_args(argv)
    if not (SRC / "hypercycles" / "__init__.py").is_file():
        print(f"hypercycles sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypercycles as hc
    from workloads import BUDGET_S, OK, cell_outcome, check_cell, grid_cells, run_cell

    cells = {}
    for m, n in grid_cells():
        t0 = time.perf_counter()
        outcome = run_cell(m, n)
        seconds = time.perf_counter() - t0
        verdict = check_cell(m, n, outcome)
        cells[f"{m},{n}"] = {"lower": hc.bounds(m, n).lower,
                             "outcome": cell_outcome(outcome),
                             "correct": verdict == OK,
                             "seconds": round(seconds, 3)}
        print(f"({m:2d},{n:2d})  lower {cells[f'{m},{n}']['lower']}  "
              f"{str(cells[f'{m},{n}']['outcome']):20s} {verdict:6s} {seconds:7.3f} s",
              flush=True)
    failing = [k for k, v in cells.items() if not v["correct"]]
    print(f"{len(failing)} of {len(cells)} cells fail: {' '.join(failing)}")
    if args.write:
        doc = {"budget_s": BUDGET_S, "cells": cells}
        (HERE / "grid_cells.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
