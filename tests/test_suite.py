import json
import subprocess
import sys

from hypercycles.suite import SuiteContext, criterion_5, run_suite


def test_run_suite_subset():
    results = run_suite(criteria=[4, 6], seed=777)
    assert [r.criterion for r in results] == [4, 6]
    assert all(r.passed for r in results)


def test_run_suite_dependents_alone_build_their_curves():
    results = run_suite(criteria=[7, 5])
    assert [r.criterion for r in results] == [5, 7]
    assert all(r.passed for r in results)


def test_round_trip_criterion_builds_dependencies():
    ctx = SuiteContext()
    result = criterion_5(ctx)  # must construct criteria 1-3 curves internally
    assert result.passed
    assert (2, 5) in ctx.curves and (4, 6) in ctx.curves


def test_pattern_file_round_trip(tmp_path):
    pattern = {
        "x0_candidates": ["0"],
        "even_nodes": ["1/4", "1/9", "4/9"],
        "halving_steps": 30,
    }
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(pattern))
    proc = subprocess.run(
        [sys.executable, "-m", "hypercycles.cli", "construct",
         "--m", "4", "--n", "6", "--pattern", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certified_count"] == 1
