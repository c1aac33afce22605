"""The command-line front end: spec'd outputs, exit codes, JSON reports."""

import io
import json

import pytest

from quadchow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_rho(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "3", "rho 1")
    assert code == 0
    assert out.strip() == "1 x l0 + l0 x 1"


def test_compute_internal_product(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "3", "h*h")
    assert code == 0
    assert out.strip() == "2 l1"


def test_compute_z_on_quadric(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "5", "Z 0 5")
    assert code == 0
    assert out.strip() == "l0"


def test_compute_flag_class_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "5", "--format", "json", "W 1 0")
    assert code == 0
    data = json.loads(out)
    assert data["sheets"][0] == [{"coeff": 1, "window": [1, 2, 3]}]


def test_compute_mod2(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "3", "--coeff", "z2", "h*h")
    assert code == 0
    assert out.strip() == "0"


def test_compute_parse_error_exit2(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "3", "nonsense word")
    assert code == 2
    assert "parse" in err
    code, out, err = run_cli(capsys, "compute", "--n", "6", "h -")
    assert (code, out) == (2, "")
    assert "ends in a sign" in err


def test_second_ruling_off_the_even_middle_exits2(capsys):
    # l<b>' names l_d' only: at even n with b = d, and never at odd n
    for n, atom in (("6", "l2'"), ("7", "l3'")):
        for expr in (atom, "h x " + atom):
            code, out, err = run_cli(capsys, "compute", "--n", n, expr)
            assert (code, out) == (2, "")
            assert err == "error: second ruling only exists in the middle for even n\n"
    code, out, _ = run_cli(capsys, "compute", "--n", "6", "l3'")
    assert (code, out.strip()) == (0, "l3'")


def test_compute_range_error_exit3(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "3", "rho 7")
    assert code == 3
    assert "range" in err
    # theta_action checks its own index before it builds the top Z-class
    code, out, err = run_cli(capsys, "compute", "--n", "7", "alpha 4")
    assert (code, out, err) == (3, "", "error: index out of range\n")


def test_symmetrizing_builtins_stop_at_the_factor_bound(capsys):
    # rho i and delta i symmetrize i + 1 factors: 8 is the bound, 9 exits 3
    code, out, _ = run_cli(capsys, "compute", "--n", "14", "rho 7")
    assert code == 0 and out.count(" x ") == 40320 * 7
    for expr in ("rho 8", "delta 8"):
        code, out, err = run_cli(capsys, "compute", "--n", "16", expr)
        assert (code, out) == (3, "")
        assert "symmetrization over 9 factors (supported: at most 8)" in err
    # lemma21 reaches d + 1 factors, and says so before any case
    code, out, err = run_cli(capsys, "verify", "lemma21", "--n", "16", "--deep")
    assert (code, out) == (3, "") and err == "error: %s\n" % (
        "symmetrization over 9 factors (supported: at most 8)"
    )


def test_verify_text_and_exit0(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma24", "--n", "3")
    assert code == 0
    assert "suite lemma24:" in out
    assert "FAIL" not in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "degrees-gd", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "degrees-gd"
    assert data["n"] == 4
    for case in data["cases"]:
        assert set(case) == {"id", "params", "status", "lhs", "rhs"}
        assert case["status"] == "pass"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma99", "--n", "3")
    assert code == 2
    assert "unknown suite" in err


def test_verify_runs_every_supported_n_without_deep(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma24", "--n", "7")
    assert code == 0 and "suite lemma24:" in out
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "8", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 12
    # past the flag models' range the first flag-variety suite raises a range error
    code, out, err = run_cli(capsys, "verify", "all", "--n", "9")
    assert (code, out) == (3, "")
    assert "range" in err


def test_verify_deep_prints_progress_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma24", "--n", "3", "--deep")
    assert code == 0
    assert err.count("  .. PASS ") == out.count("PASS lemma24 ") > 0
    code, out, err = run_cli(capsys, "verify", "lemma24", "--n", "3", "--deep", "--format", "json")
    assert code == 0 and not err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--n", "3", "--seed", "1", "h*h"),
        ("compute", "--n", "3", "--deep", "h*h"),
        ("verify", "lemma24", "--n", "3", "--coeff", "z2"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (2, "")


def test_builtin_with_the_wrong_number_of_indices_exit2(capsys):
    code, out, err = run_cli(capsys, "compute", "--n", "5", "Z 1")
    assert (code, out) == (2, "")
    assert "expected: z i j" in err
    code, out, err = run_cli(capsys, "compute", "--n", "5", "rost 1")
    assert (code, out) == (2, "")


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "3")
    assert code == 0
    assert out.count("suite ") == 12


def test_edi_command(tmp_path, capsys):
    payload = {"n": 7, "marks": [[1, 0]], "witt_index": 2}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "edi", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert [3, 0] in data["propagated_marks"]
    assert data["inconsistencies"] == [[1, 0]]


def test_edi_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"marks": []}))
    code, _, err = run_cli(capsys, "edi", "--input", str(path))
    assert code == 2
    assert "missing field" in err
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "edi", "--input", str(path))
    assert code == 2


def test_edi_malformed_marks_exit2(monkeypatch, capsys):
    # a non-integer mark is a usage error, not a traceback with the "failed" code
    for marks in ([["a", 1]], [[1.5, 0]]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 6, "marks": marks})))
        code, out, err = run_cli(capsys, "edi")
        assert code == 2 and not out
        assert "integer pairs" in err


def test_edi_bounds_the_square_size(monkeypatch, capsys):
    from quadchow.edi import MAX_N

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": MAX_N})))
    code, out, _ = run_cli(capsys, "edi")
    assert code == 0
    assert len(json.loads(out)["ascii"].splitlines()) == MAX_N // 2 + 1
    # one past the bound is a range error, before any grid is drawn
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": MAX_N + 1})))
    code, out, err = run_cli(capsys, "edi")
    assert (code, out) == (3, "")
    assert "n out of range" in err


@pytest.mark.parametrize(
    "request_",
    [
        {"n": 6, "marks": [[True, 1]]},
        {"n": 6, "witt_index": True},
        {"n": 6, "rho": [False]},
        {"n": True},
    ],
)
def test_edi_refuses_json_booleans_as_integers(monkeypatch, capsys, request_):
    # JSON true/false load as Python bools, which are ints; each is a usage error
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request_)))
    code, out, err = run_cli(capsys, "edi")
    assert code == 2 and not out
    assert "integer" in err


def test_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "compute", "--n", "4", "delta 2")
    code2, out2, _ = run_cli(capsys, "compute", "--n", "4", "delta 2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_range_errors_are_classified_by_type():
    from quadchow import RangeError
    from quadchow.cli import EXIT_RANGE, EXIT_USAGE, _classify_value_error

    assert issubclass(RangeError, ValueError)
    assert _classify_value_error(ValueError("index out of range")) == EXIT_USAGE
    assert _classify_value_error(RangeError("index out of range")) == EXIT_RANGE


def test_every_out_of_range_message_is_a_range_error():
    import pathlib
    import re

    import quadchow

    src = pathlib.Path(quadchow.__file__).parent
    untyped = re.compile(r'ValueError\(\s*"[^"]*out of range')
    for path in sorted(src.glob("*.py")):
        assert not untyped.search(path.read_text()), path.name


def test_one_process_serves_mixed_requests_alike(tmp_path, capsys, monkeypatch):
    # The parser is built once per process, so a usage error or a range error
    # must leave nothing behind that changes a later call's exit code or output.
    from quadchow import cli

    square = tmp_path / "square.json"
    square.write_text(json.dumps({"n": 7, "marks": [[1, 0]], "witt_index": 2}))
    requests = [
        ("compute", "--n", "3", "rho 1"),
        ("compute", "--n"),  # usage error: missing value
        ("compute", "--n", "3", "rho 7"),  # range error
        ("verify", "lemma24", "--n", "3", "--format", "json"),
        ("bogus",),  # usage error: unknown command
        ("compute", "--n", "5", "--coeff", "z2", "--format", "json", "W 1 0"),
        ("edi", "--input", str(square)),
        ("verify", "lemma24", "--n", "7"),
        ("compute", "--n", "3", "--deep", "h*h"),  # usage error: compute has no --deep
        ("compute", "--n", "3", "h*h"),
    ]
    first = [run_cli(capsys, *argv) for argv in requests]
    assert [code for code, _, _ in first] == [0, 2, 3, 0, 2, 0, 0, 0, 2, 0]
    assert first[0][1].strip() == "1 x l0 + l0 x 1"
    assert first[9][1].strip() == "2 l1"
    assert "range" in first[2][2]
    # the same requests again, in reverse order, give the same results
    again = [run_cli(capsys, *argv) for argv in reversed(requests)]
    assert again[::-1] == first
    # and so does a fresh parser for every call
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(capsys, *argv) for argv in requests] == first
