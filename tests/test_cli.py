import json
import subprocess
import sys
from fractions import Fraction

from hypercycles.cli import _load_pattern, main


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hypercycles.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        timeout=300,
    )
    return proc


def test_bounds_command():
    proc = run_cli(["bounds", "--m", "3", "--n", "8"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert (doc["lower"], doc["upper"], doc["exact"]) == (1, 1, True)


def test_roots_command():
    proc = run_cli(["roots", "x^2+1"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["distinct_real"] == 0
    assert doc["imaginary_pairs"] == 1
    assert doc["sign_list"] == [1, -1]
    assert doc["isolating_intervals"] == []
    # rationals come out as exact strings
    assert all(isinstance(s, str) for s in doc["discriminant_sequence"])


def test_certify_command_inline():
    proc = run_cli([
        "certify",
        "--P=(x-1)(x-2)(x+10)",
        "--Q=-10(x-1)(x-2)(x+10)^4",
    ])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certified_count"] == 1
    assert doc["m"] == 2 and doc["n"] == 5
    assert doc["bounds"]["upper"] is None


def test_certify_domain_error_exit_code():
    proc = run_cli(["certify", "--P", "x", "--Q", "x^2"])
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NonPolynomialSystem"


def test_reconstruct_no_curve():
    proc = run_cli(["reconstruct", "--f", "x^2+1", "--g", "x^4+x^3+x+1"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["no_curve"] is True
    assert doc["witness_equation"] in ("f-identity", "g-identity", "degree-match")
    assert isinstance(doc["witness_degree"], int)


def test_reconstruct_undetermined_type_exit_2():
    # type (2,5): n = 2m+1
    construct = run_cli(["construct", "--m", "2", "--n", "5"])
    doc = json.loads(construct.stdout)
    proc = run_cli(["reconstruct", "--stdin"], stdin_text=construct.stdout)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "UndeterminedType"


def test_pipeline_construct_certify():
    construct = run_cli(["construct", "--m", "2", "--n", "5"])
    assert construct.returncode == 0
    built = json.loads(construct.stdout)
    assert built["certified_count"] == 1
    certified = run_cli(["certify", "--stdin"], stdin_text=construct.stdout)
    assert certified.returncode == 0
    doc = json.loads(certified.stdout)
    assert doc["certified_count"] == 1
    assert doc["P"] == built["P"] and doc["Q"] == built["Q"]


def test_pipeline_construct_reconstruct():
    construct = run_cli(["construct", "--m", "4", "--n", "8"])
    assert construct.returncode == 0
    built = json.loads(construct.stdout)
    recon = run_cli(["reconstruct", "--stdin"], stdin_text=construct.stdout)
    assert recon.returncode == 0
    doc = json.loads(recon.stdout)
    assert doc["verified"] is True
    assert doc["P"] == built["P"] and doc["Q"] == built["Q"]


def test_construct_domain_error():
    proc = run_cli(["construct", "--m", "2", "--n", "4"])
    assert proc.returncode == 2


def test_determinism():
    a = run_cli(["roots", "(x-1)^2 (x+2)"])
    b = run_cli(["roots", "(x-1)^2 (x+2)"])
    assert a.stdout == b.stdout
    c = run_cli(["construct", "--m", "2", "--n", "5"])
    d = run_cli(["construct", "--m", "2", "--n", "5"])
    assert c.stdout == d.stdout


def test_portrait_svg():
    construct = run_cli(["construct", "--m", "2", "--n", "5"])
    proc = run_cli(
        ["portrait", "--stdin", "--window=-12,-600,4,600",
         "--seed-point", "3/2,1"],
        stdin_text=construct.stdout,
    )
    assert proc.returncode == 0
    svg = proc.stdout
    assert svg.startswith("<svg")
    assert 'class="curve-branch"' in svg
    assert 'class="trajectory"' in svg


def test_portrait_branch_count_over_cycle():
    # window clipped to the certified strip: exactly 2 curve branches
    construct = run_cli(["construct", "--m", "2", "--n", "5"])
    doc = json.loads(construct.stdout)
    proc = run_cli(
        ["portrait", "--stdin", "--window=1,-200,2,200"],
        stdin_text=construct.stdout,
    )
    assert proc.returncode == 0
    assert proc.stdout.count('class="curve-branch"') == 2


def test_usage_error_exit_1():
    proc = run_cli(["bounds", "--m", "3"])
    assert proc.returncode == 2 or proc.returncode != 0  # argparse exits 2
    proc = run_cli(["nonsense"])
    assert proc.returncode != 0


def test_main_callable_directly(capsys):
    rc = main(["bounds", "--m", "4", "--n", "7"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True


def test_load_pattern_keeps_pin_fractions(tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps({"odd_nodes": ["1/2", 3],
                                "pin_fractions": ["1/3", "1", 2]}))
    pattern = _load_pattern(str(path))
    assert pattern.pin_fractions == (Fraction(1, 3), Fraction(1), Fraction(2))
    assert pattern.odd_nodes == (Fraction(1, 2), Fraction(3))
