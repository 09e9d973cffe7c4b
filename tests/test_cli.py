import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypercycles import cli, rootclass
from hypercycles.cli import _load_pattern, main
from hypercycles.polyx import clip, parse_poly


# twelve directories of 250 characters: a path of over 3,000 characters,
# each of its names within the file system's limit
_LONG_DIRS = "/".join(["d" * 250] * 12)


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
    # E is (I) with Q eliminated: the one equation family a witness names
    assert doc["witness_equation"] == "f-identity"
    assert isinstance(doc["witness_degree"], int)


def test_reconstruct_undetermined_type_exit_2():
    # type (2,5): n = 2m+1
    construct = run_cli(["construct", "--m", "2", "--n", "5"])
    doc = json.loads(construct.stdout)
    proc = run_cli(["reconstruct", "--stdin"], stdin_text=construct.stdout)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "UndeterminedType"


def test_reconstruct_of_a_type_above_max_terms_is_a_usage_error():
    # f = x^300, g = x^450 parse well below MAX_DEGREE, but their
    # equations would hold about 28 million terms; the type is refused
    # before any is written, not after the memory runs out
    start = time.perf_counter()
    proc = run_cli(["reconstruct", "--f", "x^300", "--g", "x^450"])
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: reconstruct: type (300,450) could need")
    assert "above MAX_TERMS = 2,000,000" in proc.stderr
    assert "Traceback" not in proc.stderr


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
        (["portrait", "--f", "1", "--g", "x", "--window", "0,0,1e999,1"], None,
         "error: portrait: window x1 is beyond the float range"),
        (["portrait", "--f", "1", "--g", "x", "--seed-point", "1e400,1"], None,
         "error: portrait: seed point 1 x is beyond the float range"),
        (["portrait", "--f", '["1e400"]', "--g", "x", "--seed-point", "0,1"], None,
         "error: portrait: f coefficient of x^0 is beyond the float range"),
        (["portrait", "--f", "1", "--g", "x", "--window", "1,0,1.00000000000000000001,1",
          "--seed-point", "1,1/2"], None,
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
        (["roots", "(" * 5000 + "x" + ")" * 5000], None,
         "error: POLY: polynomial nested too deeply"),
        (["roots", "--", "2*" + "-" * 5000 + "x"], None,
         "error: POLY: polynomial nested too deeply"),
        (["roots", "[" * 30000 + "]" * 30000], None,
         "error: POLY: polynomial nested too deeply"),
        (["certify", "--stdin"], '{"P": ' + "[" * 100000 + "]" * 100000 + ', "Q": [1]}',
         "error: --stdin: not valid JSON"),
        (["portrait", "--f", "x", "--g", "x", "--seed-point", "1,1", "--step", "nan"], None,
         "error: portrait: step must be positive and finite"),
        (["portrait", "--f", "x", "--g", "x", "--seed-point", "1,1", "--step", "inf"], None,
         "error: portrait: step must be positive and finite"),
        (["certify", "--stdin"], json.dumps({"P": ["1" * 3000 + "x"], "Q": [1]}),
         "error: --stdin 'P': ValueError: Invalid literal for Fraction: '1111"),
        (["construct", "--m", "2", "--n", "4", "--pattern", "/dev/stdin"],
         '{"signs": [' + "[" * 500 + "]" * 500 + "]}",
         "error: --pattern /dev/stdin: bad value for 'signs': TypeError: expected an integer, "
         "got [[[["),
        (["portrait", "--f", "x", "--g", "x", "--seed-point", "y" * 3000 + ",1"], None,
         "error: --seed-point: Invalid literal for Fraction: 'yyyy"),
        (["portrait", "--f", "x", "--g", "x", "--window", "y" * 3000 + ",1,2,3"], None,
         "error: --window: Invalid literal for Fraction: 'yyyy"),
        (["portrait", "--f", "x", "--g", "x", "--seed-point", "1" * 3000 + "/0,1"], None,
         "error: --seed-point: zero denominator in '1111"),
        (["roots", "1" * 3000 + "/0"], None, "error: POLY: bad polynomial '1111"),
        (["certify", "--stdin"], json.dumps({"P": ["1" * 3000 + "/0"], "Q": [1]}),
         "error: --stdin 'P': ZeroDivisionError: zero denominator in '1111"),
        (["suite", "--criteria", ",".join(map(str, range(10, 2000)))], None,
         "error: --criteria: unknown criteria [10, 11"),
    ],
    ids=["dangling_power", "zero_denominator", "roots_dangling_power",
         "stdin_not_json", "stdin_not_object", "stdin_zero_denominator",
         "stdin_not_a_list", "window_three_values", "seed_point_one_value",
         "window_empty", "window_beyond_float", "seed_point_beyond_float",
         "coefficient_beyond_float", "window_empty_in_float", "criteria_not_integer",
         "criteria_unknown", "criteria_empty",
         "float_coefficient", "boolean_coefficient", "null_coefficient",
         "stdin_float_coefficient", "stdin_boolean_coefficient",
         "stdin_null_coefficient", "portrait_lone_Q", "portrait_stdin_lone_Q",
         "exponent_above_max_degree", "product_above_max_degree",
         "coefficient_digits_above_limit", "stdin_digits_above_limit",
         "nested_parentheses", "repeated_unary_minus", "nested_json_coefficients",
         "stdin_nested_json", "step_nan", "step_inf", "stdin_long_coefficient",
         "pattern_deep_list", "seed_point_long", "window_long",
         "seed_point_long_zero_denominator", "long_zero_denominator",
         "stdin_long_zero_denominator", "criteria_many_unknown"],
)
def test_bad_input_is_a_usage_error(args, stdin_text, complaint):
    proc = run_cli(args, stdin_text=stdin_text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(complaint)
    assert "Traceback" not in proc.stderr
    # an echoed input value is cut short, so the complaint is one short line
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 300


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
    "where, text, complaint",
    [("pattern.json", text, complaint) for text, complaint in [
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
        ('{"signs": ' + "[" * 100000 + "]" * 100000 + "}", "not valid JSON"),
        (json.dumps({"max_seeds": "y" * 3000}),
         "bad value for 'max_seeds': ValueError: invalid literal for int() with base 10: '"
         + "y" * 59 + "... (3,002 characters)"),
        (json.dumps({"y" * 3000: 1}), "unknown keys ['yyyy"),
    ]] + [
        # a file whose path, about 3,000 characters, is echoed cut short
        (_LONG_DIRS + "/pattern.json", "{not json", "not valid JSON"),
    ],
    ids=["not_an_object", "misspelled_key", "non_integer", "float_integer",
         "boolean_integer", "float_steps", "float_sign", "zero_sign", "boolean_sign",
         "not_a_list", "zero_denominator", "float_rational", "boolean_rational",
         "null_rational", "not_json", "missing_file", "nested_json", "long_integer",
         "long_key", "long_path"],
)
def test_construct_rejects_bad_pattern_file(tmp_path, where, text, complaint):
    path = tmp_path / where
    if text is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    proc = run_cli(["construct", "--m", "4", "--n", "6", "--pattern", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the path, which the test's temporary directory makes longer than the
    # echo limit, is echoed cut short
    prefix = f"error: --pattern {clip(str(path))}: "
    assert proc.stderr.startswith(prefix)
    assert complaint in proc.stderr
    assert "Traceback" not in proc.stderr
    # so is an echoed value, so the complaint after the path is one short line
    why = proc.stderr[len(prefix):]
    assert proc.stderr.count("\n") == 1 and len(why.encode()) < 300


def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path):
    # in a missing directory, and in one whose path of about 3,000
    # characters is echoed cut short
    for target in (tmp_path / "missing" / "x.json", tmp_path / _LONG_DIRS / "x.json"):
        proc = run_cli(["bounds", "--m", "4", "--n", "6", "--out", str(target)])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: --out {clip(str(target))}: ")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 300
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


# -- the CLI contract, on argvs drawn from a small grammar ---------------------

# values that are long, beyond a limit or beyond the float range
_LONG = ["y" * 3000, "1" * 3000 + "x", "1" * 3000 + "/0", "9" * 4400]

_GOOD_POLY = st.sampled_from(["x", "0", "1", "x^2-1", "(x-1/2)^2*(x+3)", "2x^3-x", "x^8-1",
                              "-x^2+2", "1-x^2", "x^4+x+1", "(x^2-1)^3", "x(x^2-4)(x^2-1)",
                              "[1, 0, -1]", '["1/2", 3]', '["1e400", 1]'])
_POLY_TEXT = st.one_of(
    _GOOD_POLY, _GOOD_POLY,
    st.sampled_from(["x^", "3/0", "(x", "x)", "", " ", "x^-1", "x^1.5", "1e5", "x**2",
                     "[0.5]", "[true]", "[null]", "[[1]]", "{}", "[", "x^99999999999",
                     "x^10001", "x^5000 x^5001", "(" * 3000 + "x" + ")" * 3000,
                     "2*" + "-" * 3000 + "x", *_LONG]),
    # token soup; a drawn polynomial above degree 8 is dropped, so every
    # command stays cheap
    st.lists(st.sampled_from(["x", "2", "1/2", "0", "3/0", "^", "3", "(", ")", "+", "-",
                              "*", " ", "[", "]", ",", "y", "9" * 30]),
             max_size=10).map("".join).filter(lambda t: _degree_at_most(t, 8)),
)

_COEFF = st.one_of(
    st.integers(-10**30, 10**30), st.integers(-3, 3),
    st.sampled_from(["1/2", "-3", "1/0", "x", "", "1e400", "0.5", *_LONG]),
    st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2))
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
                     | st.sampled_from(["", "1/2", "y" * 3000]),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["a", "signs"]), inner, max_size=2),
                     max_leaves=6)
_RATIONALS = st.one_of(
    st.sampled_from(["-3,-3,3,3", "0,1", "1/2,-1", "-2,-2,2,2"]),
    st.lists(st.sampled_from(["0", "1", "-2", "1/2", "1/0", "", "y", "1e400", "1e999",
                              "1e-400", "nan", *_LONG]),
             min_size=1, max_size=5).map(",".join))
_PATTERN_KEYS = ["x0_candidates", "odd_nodes", "even_nodes", "signs", "pin_fractions",
                 "halving_steps", "max_seeds", "max_seed", "y" * 3000]


def _degree_at_most(text: str, bound: int) -> bool:
    try:
        return parse_poly(text).degree <= bound
    except ValueError:
        return True


@st.composite
def _polys(draw, names):
    """Options or a --stdin document for the polynomials `names`."""
    argv, doc = [], {}
    for name in names:
        how = draw(st.sampled_from(["option", "option", "stdin", "stdin", "missing"]))
        if how == "option":
            argv += [f"--{name}", draw(_POLY_TEXT)]
        elif how == "stdin":
            doc[name] = draw(st.one_of(st.lists(st.integers(-3, 3), max_size=9),
                                       st.lists(_COEFF, max_size=9), _JSON))
    if not doc and draw(st.booleans()):
        return argv, None
    text = draw(st.one_of(st.just(json.dumps(doc)),
                          st.sampled_from(["{not json", "", "[1, 2]", "[" * 5000 + "]" * 5000])))
    return argv + ["--stdin"], text


@st.composite
def _invocations(draw):
    """(argv, stdin text, --pattern document) of one cheap command."""
    command = draw(st.sampled_from(["roots", "certify", "reconstruct", "portrait",
                                    "construct", "bounds", "suite"]))
    stdin, pattern = None, None
    if command == "roots":
        argv = ["roots", *draw(st.sampled_from([[], ["--"]])), draw(_POLY_TEXT)]
    elif command in ("certify", "reconstruct"):
        argv, stdin = draw(_polys("PQ" if command == "certify" else "fg"))
        argv = [command, *argv]
    elif command == "portrait":
        argv, stdin = draw(_polys("fgPQ"))
        argv = ["portrait", *argv]
        if draw(st.booleans()):
            argv += ["--window", draw(_RATIONALS)]
        for point in draw(st.lists(_RATIONALS, max_size=2)):
            argv += ["--seed-point", point]
        if draw(st.booleans()):
            argv += ["--step", draw(st.sampled_from(
                ["0.25", "1", "0", "-1", "nan", "inf", "1e400", "", "abc"]))]
    elif command in ("construct", "bounds"):
        argv = [command, "--m", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4"] * 2 + ["", "x"])),
                "--n", draw(st.sampled_from([str(n) for n in range(-1, 12)] + ["", "9" * 4400]))]
        if command == "construct" and draw(st.booleans()):
            argv += ["--s-cap", draw(st.sampled_from(["-1", "0", "1", "3", "x"]))]
        if command == "construct" and draw(st.booleans()):
            pattern = draw(st.one_of(
                st.dictionaries(st.sampled_from(_PATTERN_KEYS), st.one_of(
                    st.lists(_COEFF, max_size=3),
                    st.sampled_from([-1, 0, 1, 40, 2.5, True, "7", "y" * 3000]), _JSON),
                    max_size=3).map(json.dumps),
                st.sampled_from(["{not json", "[1]", "", '{"signs": ' + "[" * 5000 + "]" * 5000 + "}"])))
        elif command == "construct" and draw(st.booleans()):
            argv += ["--pattern", _LONG_DIRS + "/pattern.json"]
    else:
        argv = ["suite", "--criteria", draw(st.sampled_from(
            ["", "a", "0", "99", "1,,2", "4,x", ",".join(map(str, range(10, 2000))), *_LONG]))]
    if draw(st.integers(0, 3)) == 0:
        # a file in directories that do not exist, so nothing is written
        argv += ["--out", _LONG_DIRS + "/x.json"]
    return argv, stdin, pattern


def _run_in_process(argv, stdin_text) -> tuple[int, str]:
    """cli.main(argv) with stdin_text on stdin: the exit status and stderr, as
    the interpreter would give them for a SystemExit that leaves main."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                if isinstance(exc.code, str):
                    err.write(exc.code + "\n")
                    status = 1
                else:
                    status = exc.code or 0
    finally:
        sys.stdin = saved
    return status, err.getvalue()


@pytest.fixture(scope="module")
def pattern_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "pattern.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_invocations())
def test_every_drawn_argv_keeps_the_cli_contract(pattern_path, invocation):
    # exit 0, 1 or 2 and nothing raised but SystemExit; a usage error (exit
    # 1) is one short stderr line, whatever the input, a --pattern or --out
    # path of 3,000 characters included.  The pattern file's path is the
    # test's own, so its echo is left out of the length
    argv, stdin_text, pattern = invocation
    if pattern is not None:
        pattern_path.write_text(pattern)
        argv = [*argv, "--pattern", str(pattern_path)]
    status, stderr = _run_in_process(argv, stdin_text)
    assert status in (0, 1, 2), (argv, status)
    if status == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert len(stderr.replace(clip(str(pattern_path)), "").encode()) < 300, stderr
