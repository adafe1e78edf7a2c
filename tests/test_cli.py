"""Command-line behavior: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suspensia import cli
from suspensia.cli import main
from suspensia.parseio import MAX_EXPONENT, save_json

import helpers

FIXTURES = Path(__file__).parent / "fixtures"


def _write(tmp_path, name, data):
    path = tmp_path / name
    save_json(path, data)
    return str(path)


def test_build_yp_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out)]) == 0
    for name in ("Xp.json", "Yp.json", "derivation.json", "certificate.json"):
        assert (out / name).is_file()
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["lnd"]["status"] == "certified"
    assert certificate["lift"]["lnd"]["status"] == "certified"
    assert "certified" in capsys.readouterr().out


def test_build_yp_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out1)]) == 0
    assert main(["build-yp", "--p", "3", "--n", "6", "--out", str(out2)]) == 0
    for name in ("Xp.json", "Yp.json", "derivation.json", "certificate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_derivation_fixture(tmp_path, capsys):
    cert_out = tmp_path / "cert.json"
    code = main(
        [
            "certify-derivation",
            str(FIXTURES / "yp3_derivation.json"),
            "--out",
            str(cert_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "order(z) = 1" in out
    assert "status: certified" in out
    payload = json.loads(cert_out.read_text())
    assert payload["wellDefined"]["ok"]
    assert payload["lnd"]["orders"]["x0"] == 2


def test_certify_derivation_failure_witness(capsys):
    code = main(["certify-derivation", str(FIXTURES / "bad_derivation.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "normal form: w" in err


def test_certify_inconclusive_exit_code(tmp_path, capsys):
    path = _write(
        tmp_path,
        "euler.json",
        {
            "field": "Q",
            "variables": ["x"],
            "relations": [],
            "derivations": {"euler": {"x": "x"}},
        },
    )
    assert main(["--cap", "6", "certify-derivation", path]) == 2


def test_validate_broken_json(capsys):
    assert main(["validate", str(FIXTURES / "broken.json")]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_validate_good_file(capsys):
    assert main(["validate", str(FIXTURES / "yp3.json")]) == 0
    assert "algebra ok" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-file.json"]) == 3


def test_validate_ill_defined_derivation(capsys):
    assert main(["validate", str(FIXTURES / "bad_derivation.json")]) == 1


def test_validate_field_order_over_limit_exits_3_at_once(tmp_path, capsys):
    # trial division of this prime took longer than 20 s before the limit
    path = _write(
        tmp_path,
        "huge_field.json",
        {"field": "Q(z@1000000000000000003)", "variables": ["x"], "relations": []},
    )
    start = time.perf_counter()
    assert main(["validate", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds the limit" in capsys.readouterr().err


def test_build_yp_past_the_prime_ceiling_exits_3_at_once(tmp_path, capsys):
    # p was trial-divided before it was compared with the ceiling: this run
    # did not finish in 20 s
    big = "1000000000000000003"
    out = tmp_path / "out"
    with helpers.wall_clock_budget(1):
        assert main(["build-yp", "--p", big, "--n", big, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "ceiling" in err and "prime" not in err
    assert not out.exists()


def test_grading_row_of_the_wrong_length_is_input_error(tmp_path, capsys):
    # a malformed grading exited 1 ("check failed") from the grading check
    data = {"field": "Q", "variables": ["x", "y"], "relations": ["x*y"],
            "gradings": {"g": [[1, 2, 3]]}}
    assert main(["validate", _write(tmp_path, "rows.json", data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "rows of length 2" in err


def test_boolean_grading_weight_is_input_error(tmp_path, capsys):
    # JSON true/false are Python bools, which isinstance(w, int) accepts
    data = {"field": "Q", "variables": ["x", "y"], "relations": ["x*y"],
            "gradings": {"g": [[True, False]]}}
    assert main(["validate", _write(tmp_path, "bools.json", data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "integer rows" in err


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer text limit")
def test_groebner_basis_past_the_digit_limit_is_input_error(tmp_path, capsys):
    # x_i - N*x_(i+1) with a 999-digit N: every input limit accepts the file,
    # but the reduced basis holds x0 - N^k*x_k, past the interpreter's limit
    # on the digits of an integer's text; groebner ended in a traceback
    links = sys.get_int_max_str_digits() // 999 + 1
    nines = "9" * 999
    data = {
        "field": "Q",
        "variables": [f"x{i}" for i in range(links + 1)],
        "relations": [f"x{i} - {nines}*x{i + 1}" for i in range(links)],
    }
    path = _write(tmp_path, "chain.json", data)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["groebner", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "too many digits" in err


def test_groebner_prints_reduced_basis(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ideal.json",
        {"field": "Q", "variables": ["x", "y"], "relations": ["x^2 - y", "y^2 - x"]},
    )
    assert main(["groebner", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["y^2 - x", "x^2 - y"]


def test_suspend_emits_artifacts(tmp_path, capsys):
    path = _write(
        tmp_path, "base.json", {"field": "Q", "variables": ["x"], "relations": []}
    )
    out = tmp_path / "susp"
    code = main(
        ["suspend", path, "--f", "x", "--k", "2,3", "--out", str(out)]
    )
    assert code == 0
    assert (out / "suspension.json").is_file()
    torus = json.loads((out / "torus.json").read_text())
    assert torus["rows"] == [[0, 3, -2]]
    criterion = json.loads((out / "criterion.json").read_text())
    assert criterion["gcd"] == 1
    assert criterion["verdict"] == "rigidity-preserved"


def test_suspend_constant_function_fails(tmp_path, capsys):
    path = _write(
        tmp_path, "base.json", {"field": "Q", "variables": ["x"], "relations": []}
    )
    assert main(["suspend", path, "--f", "2", "--k", "1,1"]) == 1


def test_torus_command(tmp_path, capsys):
    path = _write(
        tmp_path, "base.json", {"field": "Q", "variables": ["x"], "relations": []}
    )
    assert main(["torus", path, "--f", "x", "--k", "2,2"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 -1"


def test_torus_with_one_exponent_is_input_error(tmp_path, capsys):
    # a torus needs two suspension variables: one --k entry is a malformed request
    path = _write(
        tmp_path, "base.json", {"field": "Q", "variables": ["x"], "relations": []}
    )
    assert main(["torus", path, "--f", "x", "--k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: a torus needs at least two --k exponents\n"


def test_lift_command(capsys):
    code = main(
        [
            "lift",
            str(FIXTURES / "yp3_derivation.json"),
            "--var",
            "y",
            "--new",
            "u",
            "--power",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "order(u) = 0" in out
    assert "certified" in out


def test_decompose_and_homogenize_commands(tmp_path, capsys):
    path = _write(
        tmp_path,
        "graded.json",
        {
            "field": "Q",
            "variables": ["x", "y"],
            "relations": [],
            "gradings": {"std": [[1, 1]]},
            "derivations": {"tri": {"x": "0", "y": "x + x^2"}},
        },
    )
    assert main(["decompose", path, "--grading", "std"]) == 0
    out = capsys.readouterr().out
    assert "degree 0" in out and "degree 1" in out
    assert main(["homogenize", path, "--grading", "std"]) == 0
    out = capsys.readouterr().out
    assert "homogeneous degree: [1]" in out
    assert "y -> x^2" in out


def test_exp_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "tri.json",
        {
            "field": "Q",
            "variables": ["x", "y"],
            "relations": [],
            "derivations": {"tri": {"x": "0", "y": "x"}},
        },
    )
    assert main(["exp", path, "--t", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "y -> 1/2*x + y" in out
    assert "one-parameter law verified" in out


def test_usage_error_is_input_error(capsys):
    assert main(["suspend"]) == 3


def test_unknown_grading_name(tmp_path, capsys):
    path = _write(
        tmp_path,
        "plain.json",
        {
            "field": "Q",
            "variables": ["x"],
            "relations": [],
            "derivations": {"d": {"x": "0"}},
        },
    )
    assert main(["decompose", path, "--grading", "nope"]) == 3


def test_exp_non_constant_t_is_input_error(capsys):
    code = main(["exp", str(FIXTURES / "yp3_derivation.json"), "--t", "x0"])
    assert code == 3
    assert "input error:" in capsys.readouterr().err


def test_validate_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": "Q",\n "variables": ["\xe9"]}')
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error:" in err and "line 2, column 17" in err


_X_SQUARED = '{"field": "Q", "variables": ["x"], "relations": ["x^²"]}'.encode()


@pytest.mark.parametrize(
    "command, file_bytes",
    [
        (["exp", str(FIXTURES / "yp3_derivation.json"), "--t=2^²"], None),
        (["suspend", str(FIXTURES / "yp3.json"), "--f", "x0^²", "--k", "2"], None),
        (["validate", "{file}"], _X_SQUARED),
        (["validate", "{file}"], '{"field": "Q(z@٣)", "variables": [], "relations": []}'.encode()),
    ],
    ids=["exp-t", "suspend-f", "validate-relation", "validate-field"],
)
def test_non_ascii_digits_are_input_errors(command, file_bytes, tmp_path, capsys):
    # '²' and '٣' are Unicode digits but not ASCII 0-9; '²' ended in a
    # ValueError traceback with exit 1, and "Q(z@٣)" loaded as Q(z@3)
    path = tmp_path / "input.json"
    if file_bytes is not None:
        path.write_bytes(file_bytes)
    assert main([arg.replace("{file}", str(path)) for arg in command]) == 3
    assert capsys.readouterr().err.startswith("input error:")


def test_certify_cap_below_order_is_inconclusive(capsys):
    code = main(["--cap", "1", "certify-derivation", str(FIXTURES / "yp3_derivation.json")])
    assert code == 2
    out = capsys.readouterr().out
    assert "order(x0) = inconclusive" in out
    assert "order(z) = 1" in out
    assert "status: inconclusive (cap 1)" in out


def test_non_positive_cap_is_input_error(capsys):
    for cap in ("-5", "0", "two"):
        code = main(["--cap", cap, "certify-derivation", str(FIXTURES / "yp3_derivation.json")])
        assert code == 3
        assert "input error:" in capsys.readouterr().err


def test_non_positive_power_is_input_error(capsys):
    for power in ("0", "-2"):
        code = main(
            [
                "lift",
                str(FIXTURES / "yp3_derivation.json"),
                "--var",
                "y",
                "--new",
                "u",
                "--power",
                power,
            ]
        )
        assert code == 3
        assert "input error:" in capsys.readouterr().err


def test_non_positive_exponent_is_input_error(capsys):
    fixture = str(FIXTURES / "yp3.json")
    for command, ks in (("suspend", "0"), ("torus", "2,-1")):
        assert main([command, fixture, "--f", "x0", "--k", ks]) == 3
        assert "input error:" in capsys.readouterr().err


def test_lift_power_is_refused_where_the_artifact_could_not_be_read(tmp_path, capsys):
    # y^6 is the largest power of y in the Yp(3) relations and images, so
    # the lift writes u^(6 * power): 6 * 166 = 996 reads back, 6 * 167 = 1002
    # and 6 * 10^12 would not, and exited 0 after writing the file
    fixture = str(FIXTURES / "yp3_derivation.json")
    top = MAX_EXPONENT // 6
    for power in (top + 1, 10**12):
        out = tmp_path / f"lift{power}.json"
        argv = ["lift", fixture, "--var", "y", "--new", "u", "--power", str(power),
                "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: --power {power} would write an exponent {6 * power} "
            f"of the new variable, past the limit {MAX_EXPONENT}\n"
        )
        assert not out.exists()
    out = tmp_path / "lift.json"
    argv = ["lift", fixture, "--var", "y", "--new", "u", "--power", str(top), "--out", str(out)]
    assert main(argv) == 0
    assert f"u^{6 * top}" in out.read_text()
    assert main(["validate", str(out)]) == 0
    assert "derivation 'lifted' ok: well defined" in capsys.readouterr().out


def test_suspension_exponent_is_refused_where_the_artifact_could_not_be_read(tmp_path, capsys):
    # an entry past the limit was written as y1^1001 and exited 0; torus
    # reads --k by the same rule
    fixture = str(FIXTURES / "yp3.json")
    for command in ("suspend", "torus"):
        out = tmp_path / command
        argv = [command, fixture, "--f", "x0", "--k", f"{MAX_EXPONENT + 1},2", "--out", str(out)]
        assert main(argv[:-2] if command == "torus" else argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: --k entry {MAX_EXPONENT + 1} exceeds the "
                                f"exponent limit {MAX_EXPONENT}\n")
        assert not out.exists()
    out = tmp_path / "suspension"
    argv = ["suspend", fixture, "--f", "x0", "--k", f"{MAX_EXPONENT},2", "--out", str(out)]
    assert main(argv) == 0
    assert f"y1^{MAX_EXPONENT}" in (out / "suspension.json").read_text()
    assert main(["validate", str(out / "suspension.json")]) == 0


def _nested_algebra(tmp_path, relation):
    return _write(
        tmp_path, "nested.json", {"field": "Q", "variables": ["x"], "relations": [relation]}
    )


def test_deeply_nested_parentheses_are_input_error(tmp_path, capsys):
    path = _nested_algebra(tmp_path, "(" * 3000 + "x" + ")" * 3000)
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "input error:" in err and "nested too deeply" in err


def test_long_unary_minus_chain_is_input_error(tmp_path, capsys):
    path = _nested_algebra(tmp_path, "-" * 3000 + "x")
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "input error:" in err and "nested too deeply" in err


def test_nesting_at_the_limit_parses(tmp_path, capsys):
    path = _nested_algebra(tmp_path, "(" * 100 + "x^2 - x" + ")" * 100)
    assert main(["validate", path]) == 0
    assert "algebra ok" in capsys.readouterr().out


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"field": "Q", "variables": ' + "[" * 100000 + "}", encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "input error:" in err and "nested too deeply" in err


def test_exp_oversized_parameter_is_input_error(monkeypatch, capsys):
    # without the parser's limits these ended in tracebacks (a literal past
    # the interpreter's 4300-digit conversion limit, a 30103-digit power
    # failing to print) or ran for minutes (2^100000000)
    helpers.refuse_large_powers(monkeypatch)
    fixture = str(FIXTURES / "yp3_derivation.json")
    for t in ("1" * 5000, "2^100000", "2^100000000"):
        assert main(["exp", fixture, f"--t={t}"]) == 3
        err = capsys.readouterr().err
        assert "input error:" in err and "exceeds the limit" in err


def test_exp_constant_past_the_digit_limit_is_input_error(capsys):
    # each literal is within MAX_DIGITS, their product is not; t^2/2 of it
    # used to end the run in a traceback past the interpreter's 4300-digit
    # limit for converting integers to text
    nines = "9" * 999
    fixture = str(FIXTURES / "yp3_derivation.json")
    assert main(["exp", fixture, f"--t={nines}*{nines}*{nines}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    assert "exceeds the limit" in lines[0]


def test_exp_on_the_p5_artifacts_within_budget(tmp_path, capsys):
    # the group-law check half.compose(half) ran past 300 s here while
    # composition substituted the 72-term images into each other
    out = tmp_path / "yp5"
    assert main(["build-yp", "--p", "5", "--n", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    with helpers.wall_clock_budget(20):
        code = main(["exp", str(out / "derivation.json"), "--t=1/2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "one-parameter law verified at t/2 + t/2"
    assert len(lines) == 9  # one image per variable of Yp(5), then the law


def test_oversized_json_integer_is_input_error(tmp_path, capsys):
    path = _write(
        tmp_path,
        "huge.json",
        {"field": "Q", "variables": ["x"], "relations": [], "gradings": {"g": [[0]]}},
    )
    text = Path(path).read_text().replace("0", "1" * 5000)
    Path(path).write_text(text)
    assert main(["validate", path]) == 3
    assert "input error:" in capsys.readouterr().err


def _chain_file(tmp_path, scale="1"):
    # Q[x0..x5] with D(x_i) = scale*x_(i-1): x5 has order 5
    names = [f"x{i}" for i in range(6)]
    images = {"x0": "0", **{f"x{i}": f"{scale}*x{i - 1}" for i in range(1, 6)}}
    return _write(
        tmp_path,
        "chain.json",
        {"field": "Q", "variables": names, "relations": [], "derivations": {"chain": images}},
    )


def test_exp_power_of_t_past_the_digit_limit_is_input_error(tmp_path, monkeypatch, capsys):
    # t has 999 digits, within the parser's limits, but exp would build
    # t^5/120, whose 4995 digits the interpreter refuses to print; the run
    # ended in a traceback with exit 1.  The limit triggers once the orders
    # are known, before any series is summed, so t is never raised to a power.
    from suspensia import derivation

    def refuse(*args):
        raise AssertionError("a series was summed")

    path = _chain_file(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(derivation, "_series", refuse)
        assert main(["exp", path, "--t=" + "9" * 999]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:") and "t^5" in lines[0]
    # 5 * bits(t) stays below bits(10^1000) for a 199-digit t: t^5/120 prints
    assert main(["exp", path, "--t=" + "9" * 199]) == 0
    assert "one-parameter law verified" in capsys.readouterr().out


def test_exp_orbit_coefficient_past_the_digit_limit_is_input_error(tmp_path, capsys):
    # D^5(x5) = c^5*x0 has 4995 digits for a 999-digit c, however small t is
    path = _chain_file(tmp_path, scale="9" * 999)
    assert main(["exp", path, "--t=1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    assert "coefficient" in lines[0]


@pytest.mark.parametrize(
    "command",
    [
        ["build-yp", "--p", "3", "--n", "6", "--out", "{file}"],
        ["suspend", str(FIXTURES / "yp3.json"), "--f", "x0", "--k", "2", "--out", "{file}"],
        ["certify-derivation", str(FIXTURES / "yp3_derivation.json"), "--out", "{file}/x.json"],
        ["lift", str(FIXTURES / "yp3_derivation.json"), "--var", "y", "--new", "u",
         "--power", "2", "--out", "{file}/x"],
    ],
    ids=["build-yp", "suspend", "certify-derivation", "lift"],
)
def test_output_path_under_an_existing_file_is_input_error(command, tmp_path, capsys):
    # an --out directory that is a file, or a file under a file; these ended
    # in a FileExistsError or NotADirectoryError traceback with exit 1
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    argv = [arg.replace("{file}", str(existing)) for arg in command]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("input error:")
    assert existing.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (["lift", str(FIXTURES / "yp3_derivation.json"), "--var", "q", "--new", "u",
          "--power", "2"], "unknown variable 'q'"),
        (["lift", str(FIXTURES / "yp3_derivation.json"), "--var", "y", "--new", "x0",
          "--power", "2"], "duplicate variable name 'x0'"),
        (["suspend", str(FIXTURES / "yp3.json"), "--f", "x0", "--k", "2,3",
          "--names", "x0,y2"], "duplicate variable name 'x0'"),
        (["suspend", str(FIXTURES / "yp3.json"), "--f", "x0", "--k", "2,3",
          "--names", "9a,b"], "invalid variable name '9a'"),
        (["suspend", str(FIXTURES / "yp3.json"), "--f", "x0", "--k", "2,3",
          "--names", "a"], "one fresh variable per exponent"),
        (["torus", str(FIXTURES / "yp3.json"), "--f", "x0", "--k", "2,3",
          "--names", "a"], "one fresh variable per exponent"),
    ],
    ids=["lift-var", "lift-new", "suspend-taken", "suspend-invalid", "suspend-count",
         "torus-count"],
)
def test_bad_variable_name_is_input_error(command, message, capsys):
    # each exited 1 ("check failed") although the name is malformed input
    assert main(command) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_derivation_name_on_a_standalone_file_is_input_error(capsys):
    # a standalone file holds one unnamed derivation; the name was ignored
    argv = ["exp", str(FIXTURES / "yp3_derivation.json"), "--derivation", "nope"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "'nope'" in captured.err


def _images_without_w(images):
    del images["w"]


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("certify-derivation", lambda images: images.update(q="0"),
         "image given for unknown variable 'q'"),
        ("certify-derivation", _images_without_w, "missing image for variable 'w'"),
        ("validate", None, "missing image for variable 'x0'"),
    ],
    ids=["standalone-unknown", "standalone-missing", "validate-unknown"],
)
def test_missing_or_unknown_image_is_input_error(command, edit, message, tmp_path, capsys):
    # each exited 1 ("check failed") although the image names are malformed input
    if edit is None:
        data = json.loads((FIXTURES / "yp3.json").read_text())
        data["derivations"] = {"d": {"q": "0"}}
    else:
        data = json.loads((FIXTURES / "yp3_derivation.json").read_text())
        data["algebra"] = str(FIXTURES / data["algebra"])
        edit(data["images"])
    assert main([command, _write(tmp_path, "input.json", data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_exp_power_past_the_term_limit_is_input_error(monkeypatch, capsys):
    helpers.refuse_large_powers(monkeypatch)
    argv = ["exp", str(FIXTURES / "yp3_derivation.json"), "--t=(x0+x1+x2+y+z+w)^1000"]
    with helpers.wall_clock_budget(1):
        assert main(argv) == 3
    assert "terms exceeds the limit" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one parser per process: main builds it on the first call and keeps it


@pytest.fixture
def fresh_parser(monkeypatch):
    """Empty the parser slot, and count the builds, for this test only."""
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    return builds


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import suspensia.cli\n"
        "assert suspensia.cli._parser is None, 'parser slot filled at import'\n"
        "assert not built, f'{len(built)} parsers built at import'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_parser_is_built_once_across_calls(fresh_parser, capsys):
    fixture = str(FIXTURES / "yp3.json")
    assert [main(["validate", fixture]) for _ in range(3)] == [0, 0, 0]
    assert len(fresh_parser) == 1
    assert cli._parser is not None


def test_out_does_not_carry_over_to_the_next_call(fresh_parser, tmp_path, capsys):
    fixture = str(FIXTURES / "yp3_derivation.json")
    written = tmp_path / "cert.json"
    assert main(["certify-derivation", fixture, "--out", str(written)]) == 0
    assert f"wrote {written}" in capsys.readouterr().out
    written.unlink()
    assert main(["certify-derivation", fixture]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_cap_does_not_carry_over_to_the_next_call(fresh_parser, capsys):
    fixture = str(FIXTURES / "yp3_derivation.json")
    assert main(["--cap", "1", "certify-derivation", fixture]) == 2
    assert "status: inconclusive (cap 1)" in capsys.readouterr().out
    assert main(["certify-derivation", fixture]) == 0
    assert "status: certified (cap 64)" in capsys.readouterr().out


def test_usage_error_then_good_call(fresh_parser, capsys):
    assert main(["suspend"]) == 3
    assert capsys.readouterr().err.startswith("input error:")
    assert main(["validate", str(FIXTURES / "yp3.json")]) == 0
    assert capsys.readouterr().err == ""


def test_help_exits_zero_and_the_next_call_works(fresh_parser, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: suspensia")
    assert main(["validate", str(FIXTURES / "yp3.json")]) == 0
    assert len(fresh_parser) == 1


# ----------------------------------------------------------------------
# fuzzing: whatever the input, main returns an exit code and raises nothing

EXIT_CODES = {0, 1, 2, 3}


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=40, deadline=2000)
@given(st.binary(max_size=200), st.sampled_from(["validate", "groebner"]))
@example(b'{"field": "Q", "variables": ["x"], "relations": ["x^1001"]}', "validate")
@example(b'{"field": "Q(z@1000000000000000003)", "variables": [], "relations": []}', "groebner")
@example(b"[" * 100_000, "validate")
@example(_X_SQUARED, "validate")  # a Unicode digit that is not 0-9
def test_fuzz_file_bytes(data, command):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input.json"
        path.write_bytes(data)
        assert _run_quietly([command, str(path)]) in EXIT_CODES


# Characters outside the grammar's ASCII that str.isdigit, str.isalpha or
# str.isspace accept: each is an input error, or a space between tokens.
_NON_ASCII = ["²", "١", "é", "\u00a0"]

# The letters of the p=3 names x0, x1, x2, y, z, w and of the field
# constant z@3; a product or power past parseio.MAX_TERMS is an input error.
_T_TEXT = st.text(alphabet=list("0123456789+-*/^()xyzw@. ") + _NON_ASCII, max_size=10)


@settings(max_examples=40, deadline=2000)
@given(_T_TEXT)
@example("10^1000")  # the constant limit
@example("2^1001")  # the exponent limit
@example("9" * 999)  # t^U past the digit limit, refused before any power
@example("1/0")
@example("(x0+x1+x2+y+z+w)^1000")  # the term limit
def test_fuzz_exp_parameter(text):
    argv = ["exp", str(FIXTURES / "yp3_derivation.json"), "--t=" + text]
    assert _run_quietly(argv) in EXIT_CODES


def test_an_option_value_of_two_dashes_is_input_error(capsys):
    # older argparse releases read "--t=--" as an empty list, newer ones as the
    # string "--"; the list ended in a TypeError traceback (found by
    # test_fuzz_exp_parameter), so both forms are refused alike
    derivation = str(FIXTURES / "yp3_derivation.json")
    algebra = str(FIXTURES / "yp3.json")
    for argv in (["exp", derivation, "--t=--"], ["suspend", algebra, "--f=--", "--k", "2,3"],
                 ["lift", derivation, "--var=--", "--new", "u", "--power", "2"]):
        assert main(argv) == 3
        assert "may not be '--'" in capsys.readouterr().err


@st.composite
def _suspension_function(draw):
    """Short expression text over yp3.json's variables, perhaps made malformed.

    Powers stay at most 3 and products at most 3 factors.  Buchberger has
    no work budget, and a high power of w (w^99 with k = 1) does not finish
    in minutes, so the drawn degrees stay where every basis is quick.  One
    inserted character that is not a digit breaks the text in most draws
    without raising a degree.
    """
    atoms = st.sampled_from(["x0", "x1", "x2", "y", "z", "w", "z@3", "1", "2", "3/2"])

    def power():
        base = draw(atoms)
        e = draw(st.integers(min_value=0, max_value=3))
        return base if e == 1 else f"{base}^{e}"

    def term():
        return "*".join(power() for _ in range(draw(st.integers(min_value=1, max_value=3))))

    text = term()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        text += draw(st.sampled_from(["+", "-"])) + term()
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(list("()+-*/^,@ x") + _NON_ASCII)) + text[at:]
    return text


@settings(max_examples=40, deadline=5000)
@given(_suspension_function(), st.text(alphabet="0123456789,- x", max_size=6))
@example("x0^1001", "2")  # the exponent limit
@example("x0", "0,2")
@example("7", "1,1")  # a constant function
def test_fuzz_suspend_function_and_exponents(function, exponents):
    argv = ["suspend", str(FIXTURES / "yp3.json"), "--f", function, "--k", exponents]
    assert _run_quietly(argv) in EXIT_CODES
