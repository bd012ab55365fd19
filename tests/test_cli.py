"""Command-line interface: record shapes, exit codes, format switches."""

import json
import subprocess
import sys

import pytest

from cubecount import cli
from cubecount.cli import main
from cubecount.oracle import CountResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_json_with_check(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "7", "--a", "2", "--check")
    assert code == 0
    assert json.loads(out) == {
        "p": 7,
        "a_reduced": 2,
        "v_closed": 3,
        "case": "unit",
        "A": -2,
        "B": 1,
        "v_brute": 3,
        "match": True,
    }


def test_eval_rational_parameter(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "7", "--a", "1/2")
    rec = json.loads(out)
    assert code == 0
    assert rec["a_reduced"] == 4
    assert rec["v_closed"] == 6


@pytest.mark.parametrize("command", ["eval", "classify"])
@pytest.mark.parametrize("a_args", [("--a", "-3/5"), ("--a=-3/5",)], ids=" ".join)
def test_negative_rational_parameter(capsys, command, a_args):
    # argparse alone reads "-3/5", which is no plain negative number, as a flag
    code, out, err = run_cli(capsys, command, *a_args, "--p", "1489")
    assert code == 0, err
    rec = json.loads(out)
    assert rec["a_reduced" if command == "eval" else "a"] == -3 * pow(5, -1, 1489) % 1489


def test_eval_2mod3_prime(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "11", "--a", "9")
    rec = json.loads(out)
    assert code == 0
    assert rec["v_closed"] == 7 and rec["case"] == "2mod3"
    assert rec["A"] is None and rec["B"] is None


def test_eval_huge_prime_closed_form_only(capsys):
    p = str(2**61 - 1)
    code, out, _ = run_cli(capsys, "eval", "--p", p, "--a", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["A"] * rec["A"] + 3 * rec["B"] * rec["B"] == 2**61 - 1
    # enumeration at this size is refused, not attempted
    code, _, err = run_cli(capsys, "eval", "--p", p, "--a", "5", "--check")
    assert code == 2
    assert "error:" in err


def test_eval_csv(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "13", "--a", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,a_reduced,v_closed,case,A,B"
    assert lines[1] == "13,1,10,plus,1,2"


def test_eval_bad_inputs_exit_2(capsys):
    assert run_cli(capsys, "eval", "--p", "7", "--a", "7")[0] == 2
    assert run_cli(capsys, "eval", "--p", "7", "--a", "0")[0] == 2
    assert run_cli(capsys, "eval", "--p", "9", "--a", "2")[0] == 2
    assert run_cli(capsys, "eval", "--p", "3", "--a", "1")[0] == 2
    assert run_cli(capsys, "eval", "--p", "7", "--a", "1/7")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--p", "7", "--a", "2.5"),
        ("eval", "--p", "7", "--a", "x"),
        ("classify", "--p", "7", "--a", "1/x"),
        ("eval", "--a", "1", "--p", "x"),
        ("represent", "--p", "7.0"),
        ("classify", "--a", "1", "--p", "x"),
    ],
    ids=" ".join,
)
def test_parse_errors_name_the_flag(capsys, argv):
    # the last flag given is the one that does not parse
    flag, text = argv[-2:]
    forms = {"--a": "an integer or u/v", "--p": "an integer"}[flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} {text!r}: expected {forms}\n"


@pytest.mark.parametrize("command", ["eval", "classify"])
@pytest.mark.parametrize("a", ["1/13", "5/-26", "2/0"])
def test_a_with_a_zero_denominator_names_the_flag(capsys, command, a):
    code, out, err = run_cli(capsys, command, "--p", "13", "--a", a)
    assert code == 2 and out == ""
    assert err == f"error: --a {a!r}: the denominator is 0 mod 13\n"


def test_eval_mismatch_exits_1(capsys, monkeypatch):
    # force a disagreement to exercise the mismatch path
    monkeypatch.setattr(
        "cubecount.cli.vp_brute", lambda *a, **k: CountResult(0)
    )
    code, out, _ = run_cli(capsys, "eval", "--p", "7", "--a", "2", "--check")
    assert code == 1
    assert json.loads(out)["match"] is False


def test_eval_allocation_failure_exits_2(capsys, monkeypatch):
    # numpy's "Unable to allocate" error is a MemoryError, not a mismatch
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr("cubecount.cli.vp_brute", refuse)
    code, out, err = run_cli(capsys, "eval", "--p", "7", "--a", "2", "--check")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_represent(capsys):
    code, out, _ = run_cli(capsys, "represent", "--p", "13")
    assert code == 0
    assert json.loads(out) == {"p": 13, "A": 1, "B": 2, "L": -5, "M": 1}
    assert run_cli(capsys, "represent", "--p", "11")[0] == 2


def test_represent_2mod3_prime_is_refused_by_the_descent(capsys):
    code, out, err = run_cli(capsys, "represent", "--p", "11")
    assert code == 2 and out == ""
    assert err == "error: p = 11 is not 1 (mod 3)\n"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "13", "--a", "3")
    rec = json.loads(out)
    assert code == 0
    assert rec == {"p": 13, "a": 3, "class": "PLUS", "is_cubic_residue": False}
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--a", "3")
    rec = json.loads(out)
    assert code == 0
    assert rec["class"] is None and rec["is_cubic_residue"] is True


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "selftest: 0 failure(s)"
    assert sum(1 for line in lines if line.startswith("ok")) == len(lines) - 1


def test_selftest_reports_a_failing_vector(capsys, monkeypatch):
    monkeypatch.setattr(cli, "jacobsthal_brute", lambda m, p: 4)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL jacobsthal_brute(1, 7): got 4, want 3"
    ]
    assert lines[-1] == "selftest: 1 failure(s)"


def test_sweep_small_json(capsys):
    code, out, err = run_cli(capsys, "sweep", "--max-p", "60", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1  # no mismatch rows, just the summary
    summary = json.loads(lines[0])
    assert summary["prime_range"] == [5, 60]
    assert summary["mismatches"] == 0
    assert summary["pairs_checked"] > 0
    assert "sweep:" in err


def test_sweep_csv_emits_header_even_when_clean(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--max-p", "30", "--checks", "lemma23",
        "--format", "csv", "--jobs", "1",
    )
    assert code == 0
    assert out == "check,p,a,v_closed,v_brute\n"
    assert json.loads(err.splitlines()[0])["mismatches"] == 0


def test_sweep_output_independent_of_jobs(capsys):
    first = run_cli(capsys, "sweep", "--max-p", "150", "--jobs", "1")
    second = run_cli(capsys, "sweep", "--max-p", "150", "--jobs", "3")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_sweep_bad_usage_exit_2(capsys):
    assert run_cli(capsys, "sweep", "--max-p", "50", "--checks", "nope")[0] == 2
    assert run_cli(capsys, "sweep", "--max-p", "50", "--checks", ",")[0] == 2
    assert run_cli(capsys, "sweep", "--max-p", "50", "--checks", "theorem21,theorem21")[0] == 2
    assert run_cli(capsys, "sweep", "--max-p", "4")[0] == 2


def test_console_entrypoint_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "cubecount", "selftest"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert "selftest: 0 failure(s)" in res.stdout
