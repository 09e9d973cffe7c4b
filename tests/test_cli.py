import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hypercycles import cli, rootclass
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


def test_roots_reads_a_leading_minus_after_a_double_dash():
    # argparse reads -x^2+2 as an option and then misses the polynomial;
    # after "--" it is the polynomial
    proc = run_cli(["roots", "-x^2+2"])
    assert proc.returncode == 2
    assert "the following arguments are required: poly" in proc.stderr
    proc = run_cli(["roots", "--", "-x^2+2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distinct_real"] == 2


# `roots` documents of the Bareiss-minor implementation, frozen: polynomials
# with repeated roots, whose discriminant sequences end in zero runs
_FROZEN_ROOTS = {
    "(x-1)^3 (x+2)^2 (x^2+1)": {
        "schema": 1,
        "degree": 7,
        "discriminant_sequence": ["7", "62", "616", "-21600", "0", "0", "0"],
        "sign_list": [1, 1, 1, -1, 0, 0, 0],
        "revised_sign_list": [1, 1, 1, -1, 0, 0, 0],
        "distinct_real": 2,
        "imaginary_pairs": 1,
        "isolating_intervals": [
            {"lo": "-2", "hi": "-2", "exact": True, "multiplicity": 2},
            {"lo": "1", "hi": "1", "exact": True, "multiplicity": 3},
        ],
    },
    "x^4 (2x-3)^2": {
        "schema": 1,
        "degree": 6,
        "discriminant_sequence": ["96", "4608", "0", "0", "0", "0"],
        "sign_list": [1, 1, 0, 0, 0, 0],
        "revised_sign_list": [1, 1, 0, 0, 0, 0],
        "distinct_real": 2,
        "imaginary_pairs": 0,
        "isolating_intervals": [
            {"lo": "0", "hi": "0", "exact": True, "multiplicity": 4},
            {"lo": "3/2", "hi": "3/2", "exact": True, "multiplicity": 2},
        ],
    },
}


@pytest.mark.parametrize("poly", sorted(_FROZEN_ROOTS))
def test_roots_command_output_is_frozen(poly):
    proc = run_cli(["roots", poly])
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(_FROZEN_ROOTS[poly], indent=2) + "\n"


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


@pytest.mark.parametrize("args, error", [
    (["bounds", "--m", "-1", "--n", "3"], "ValueError"),
    (["construct", "--m", "2", "--n", "5", "--s-cap", "1"], "SearchExhausted"),
    (["suite", "--criteria", "1", "--s-cap", "1"], "SearchExhausted"),
    (["certify", "--P", "x", "--Q", "0"], "ValueError"),
    (["portrait", "--f", "0", "--g", "x"], "ValueError"),
    (["portrait", "--f", "x", "--g", "1"], "ValueError"),
    (["portrait", "--f", "x", "--g", "x", "--P", "x", "--Q", "0"], "ValueError"),
])
def test_domain_failure_is_a_json_error_with_exit_2(args, error):
    # every command reports a failed search or an out-of-range type the
    # same way: a JSON error document on stdout, no traceback
    proc = run_cli(args)
    assert (proc.returncode, proc.stderr) == (2, "")
    doc = json.loads(proc.stdout)
    assert (doc["schema"], doc["error"]) == (1, error) and doc["message"]


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
    # argparse rejects a missing option or an unknown command with exit 2
    for args in (["bounds", "--m", "3"], ["nonsense"]):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage:")


@pytest.mark.parametrize(
    "args, stdin_text, complaint",
    [
        (["certify", "--P", "x^", "--Q", "x"], None,
         "error: --P: unexpected end of polynomial expression"),
        (["certify", "--P", "3/0", "--Q", "x"], None, "error: --P: bad polynomial"),
        (["roots", "x^"], None, "error: POLY: unexpected end"),
        (["certify", "--stdin"], "{not json", "error: --stdin: not valid JSON"),
        (["certify", "--stdin"], "[1, 2]", "error: --stdin: the top level must be"),
        (["certify", "--stdin"], json.dumps({"P": ["1/0"], "Q": [1]}),
         "error: --stdin 'P': ZeroDivisionError"),
        (["certify", "--stdin"], json.dumps({"P": 5, "Q": [1]}),
         "error: --stdin 'P': expected a list, got 5"),
        (["portrait", "--f", "x", "--g", "x", "--window", "1,2,3"], None,
         "error: --window: expected 4 comma-separated rationals, got 3"),
        (["portrait", "--f", "x", "--g", "x", "--seed-point", "1"], None,
         "error: --seed-point: expected 2"),
        (["portrait", "--f", "x", "--g", "x", "--window", "1,1,0,0"], None,
         "error: portrait: window must be a nonempty rectangle"),
        (["suite", "--criteria", "a"], None, "error: --criteria: invalid literal"),
        (["suite", "--criteria", "1,99"], None, "error: --criteria: unknown criteria [99]"),
        (["suite", "--criteria", ""], None, "error: --criteria: invalid literal"),
        (["roots", "[0.5, 1, 1]"], None,
         "error: POLY: bad polynomial '[0.5, 1, 1]': expected an integer or a string"),
        (["certify", "--P", "[1, true]", "--Q", "x^2-1"], None,
         "error: --P: bad polynomial '[1, true]': expected an integer or a string"),
        (["roots", "[null, 1]"], None,
         "error: POLY: bad polynomial '[null, 1]': expected an integer or a string"),
        (["reconstruct", "--stdin"], json.dumps({"f": [0.1, 1], "g": [0, 0, 1]}),
         "error: --stdin 'f': TypeError: expected an integer or a string"),
        (["reconstruct", "--stdin"], json.dumps({"f": [1], "g": [0, True]}),
         "error: --stdin 'g': TypeError: expected an integer or a string"),
        (["certify", "--stdin"], json.dumps({"P": [1, None], "Q": [1]}),
         "error: --stdin 'P': TypeError: expected an integer or a string"),
        (["portrait", "--f", "x", "--g", "x", "--Q", "1-x^2"], None,
         "error: missing polynomial --P"),
        (["portrait", "--stdin"], json.dumps({"f": [0, 1], "g": [0, 1], "Q": [1, 0, -1]}),
         "error: missing polynomial --P"),
        (["roots", "x^99999999999"], None,
         "error: POLY: exponent 99999999999 is above MAX_DEGREE = 10000"),
        (["roots", "x^5000 x^5001"], None,
         "error: POLY: degree 10001 is above MAX_DEGREE = 10000"),
        (["roots", "7" * 5000 + "x + 1"], None, "error: POLY: Exceeds the limit"),
        (["certify", "--stdin"], '{"P": [' + "7" * 5000 + '], "Q": [1]}',
         "error: --stdin: not valid JSON: Exceeds the limit"),
    ],
    ids=["dangling_power", "zero_denominator", "roots_dangling_power",
         "stdin_not_json", "stdin_not_object", "stdin_zero_denominator",
         "stdin_not_a_list", "window_three_values", "seed_point_one_value",
         "window_empty", "criteria_not_integer", "criteria_unknown",
         "criteria_empty",
         "float_coefficient", "boolean_coefficient", "null_coefficient",
         "stdin_float_coefficient", "stdin_boolean_coefficient",
         "stdin_null_coefficient", "portrait_lone_Q", "portrait_stdin_lone_Q",
         "exponent_above_max_degree", "product_above_max_degree",
         "coefficient_digits_above_limit", "stdin_digits_above_limit"],
)
def test_bad_input_is_a_usage_error(args, stdin_text, complaint):
    proc = run_cli(args, stdin_text=stdin_text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(complaint)
    assert "Traceback" not in proc.stderr


def test_roots_prints_exact_values_of_any_length():
    # the discriminant sequence of x^1500 - 1 holds values of more than
    # 4,300 digits, the cap Python puts on int-to-text conversion by default
    proc = run_cli(["roots", "x^1500-1"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["degree"] == 1500
    assert max(len(d) for d in doc["discriminant_sequence"]) > 4300
    assert [(i["lo"], i["hi"]) for i in doc["isolating_intervals"]] == [
        ("-1", "-1"), ("1", "1")]


def test_main_restores_the_digit_cap(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["roots", "x^1500-1"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 1500
    assert sys.get_int_max_str_digits() == limit


def test_roots_computes_the_discriminant_sequence_once(monkeypatch, capsys):
    calls = []
    sequence = rootclass.discriminant_sequence
    counting = lambda p: calls.append(p) or sequence(p)
    monkeypatch.setattr(rootclass, "discriminant_sequence", counting)
    monkeypatch.setattr(cli, "discriminant_sequence", counting)
    assert main(["roots", "(x^2-2)(x-3)(x^2+1)"]) == 0
    assert json.loads(capsys.readouterr().out)["distinct_real"] == 3
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "text, complaint",
    [
        (json.dumps([1, 2]), "JSON object"),
        (json.dumps({"max_seed": 1}), "unknown keys ['max_seed']"),
        (json.dumps({"max_seeds": "many"}), "bad value for 'max_seeds': ValueError"),
        (json.dumps({"max_seeds": 2.9}), "bad value for 'max_seeds': TypeError"),
        (json.dumps({"max_seeds": True}), "bad value for 'max_seeds': TypeError"),
        (json.dumps({"halving_steps": 40.0}), "bad value for 'halving_steps': TypeError"),
        (json.dumps({"signs": [0.5, 1]}), "bad value for 'signs': TypeError"),
        (json.dumps({"signs": [0, 1]}), "bad value for 'signs': ValueError: a sign must be"),
        (json.dumps({"signs": [-1, False]}), "bad value for 'signs': TypeError"),
        (json.dumps({"signs": 5}), "bad value for 'signs': TypeError"),
        (json.dumps({"odd_nodes": ["1/0"]}), "bad value for 'odd_nodes': ZeroDivisionError"),
        (json.dumps({"odd_nodes": [0.1, 1]}),
         "bad value for 'odd_nodes': TypeError: expected an integer or a string"),
        (json.dumps({"x0_candidates": ["1/2", True]}),
         "bad value for 'x0_candidates': TypeError: expected an integer or a string"),
        (json.dumps({"pin_fractions": [None]}),
         "bad value for 'pin_fractions': TypeError: expected an integer or a string"),
        ("{not json", "not valid JSON"),
        (None, "No such file or directory"),
    ],
    ids=["not_an_object", "misspelled_key", "non_integer", "float_integer",
         "boolean_integer", "float_steps", "float_sign", "zero_sign", "boolean_sign",
         "not_a_list", "zero_denominator", "float_rational", "boolean_rational",
         "null_rational", "not_json", "missing_file"],
)
def test_construct_rejects_bad_pattern_file(tmp_path, text, complaint):
    path = tmp_path / "pattern.json"
    if text is not None:
        path.write_text(text)
    proc = run_cli(["construct", "--m", "4", "--n", "6", "--pattern", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: --pattern {path}: ")
    assert complaint in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli(["bounds", "--m", "4", "--n", "6", "--out", str(target)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: --out {target}: ")
    assert "Traceback" not in proc.stderr
    assert not target.parent.exists()


def _portrait_read_one_line(env) -> tuple[int, str]:
    """Run a portrait whose SVG (about 260 kB) is larger than a pipe buffer,
    read its first line and close stdout while the write is still under
    way: the exit status and stderr."""
    seeds = [a for k in range(1, 9) for a in ("--seed-point", f"{k}/4,0")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypercycles.cli", "portrait", "--f", "x", "--g", "x", *seeds],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.stdout.readline().startswith("<svg")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=300), stderr


def test_reader_closing_stdout_early_ends_quietly():
    # stdout is left buffered, as in a plain shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    returncode, stderr = _portrait_read_one_line(env)
    assert returncode == 1
    assert "Traceback" not in stderr
    assert stderr == ""


def test_reader_closing_unbuffered_stdout_early_ends_quietly():
    # with PYTHONUNBUFFERED set, stdout's byte layer is a raw FileIO whose
    # write can take part of the bytes; the rest must still be written, so
    # the closed pipe is seen and the run fails instead of exiting 0 with
    # its output cut short
    returncode, stderr = _portrait_read_one_line({**os.environ, "PYTHONUNBUFFERED": "1"})
    assert returncode == 1
    assert "Traceback" not in stderr
    assert stderr == ""


def test_reader_gone_before_any_output_ends_quietly():
    # a short report sits in the stdout buffer until the flush meets the
    # closed pipe; the interpreter's own flush at exit must not meet it again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypercycles.cli", "bounds", "--m", "4", "--n", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
