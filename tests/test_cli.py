"""End-to-end tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lambdafact
from lambdafact import sequences
from lambdafact.cli import BROKEN_PIPE_EXIT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_derangement_csv(capsys):
    code, out, _ = run(capsys, "table", "derangement", "0..5")
    assert code == 0
    values = [line.split(",")[2] for line in out.strip().splitlines()]
    assert values == ["1", "0", "1", "2", "9", "44"]


def test_table_lambda_factorial(capsys):
    code, out, _ = run(capsys, "table", "lambda-factorial", "3")
    assert code == 0
    assert out.strip() == "lambda-factorial,3,λ^3 + 3λ + 2"


def test_table_q(capsys):
    code, out, _ = run(capsys, "table", "q", "1", "1")
    assert code == 0
    assert out.strip() == "q,1,1,λμ + λ^2 + 1"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "bell", "0..3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[3] == {"family": "bell", "n": 3, "value": "u^3 + 3u^2 + u"}


def test_table_stirling_rows(capsys):
    code, out, _ = run(capsys, "table", "stirling2", "4", "0..4")
    assert code == 0
    values = [line.split(",")[3] for line in out.strip().splitlines()]
    assert values == ["0", "1", "7", "6", "1"]


def test_table_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense", "3"])
    assert exc.value.code == 2


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "derangement", "5..2")
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize("indices,bad,spec", [
    (["factorial", "1.5"], "1.5", "1.5"),
    (["factorial", "0..x"], "x", "0..x"),
    (["factorial", "x..3"], "x", "x..3"),
    (["q", "1", "0..y"], "y", "0..y"),
])
def test_table_non_integer_index_names_the_argument(capsys, indices, bad, spec):
    code, out, err = run(capsys, "table", *indices)
    assert code == 2
    assert out == ""
    assert err == f"error: table indices must be integers, got {bad!r} in {spec!r}\n"


def test_table_index_cap(capsys):
    code, _, err = run(capsys, "table", "derangement", "0..80")
    assert code == 2
    assert "--unsafe" in err
    code, out, _ = run(capsys, "table", "factorial", "60..60", "--unsafe")
    assert code == 0
    assert out.strip().endswith(str(__import__("math").factorial(60)))


def test_verify_stream_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "thm1.1", "--n-max", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    for line in lines:
        payload = json.loads(line)
        assert payload["verdict"] == "pass"
        assert payload["residual"] == "0"


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown identity" in err


def test_verify_multiple_ids(capsys):
    code, out, _ = run(capsys, "verify", "riordan", "sunxu", "--n-max", "4")
    assert code == 0
    seen = {json.loads(line)["id"] for line in out.strip().splitlines()}
    assert seen == {"riordan", "sunxu"}


def test_series_tree(capsys):
    code, out, _ = run(capsys, "series", "tree", "--order", "4")
    assert code == 0
    assert out.strip() == "x + x^2 + 3/2 x^3 + 8/3 x^4 + O(x^5)"


def test_series_abel_rhs_factorials(capsys):
    code, out, _ = run(
        capsys, "series", "abel-rhs", "--a", "factorial", "--lambda", "1",
        "--order", "3",
    )
    assert code == 0
    assert out.strip() == "1 + x + 2x^2 + 6x^3 + O(x^4)"


def test_series_abel_rhs_bell_at_symbolic_lambda(capsys):
    code, out, _ = run(capsys, "series", "abel-rhs", "--a", "bell", "--order", "3")
    assert code == 0
    assert out == (
        "1 + (uλ) x + (1/2 u^2λ^2 + 1/2 uλ^2 + 1/2 u^2 + 1/2 u) x^2"
        " + (1/6 u^3λ^3 + 1/2 u^2λ^3 + 1/6 uλ^3 + 1/2 u^3λ + 3/2 u^2λ + 1/3 u^3"
        " + 1/2 uλ + u^2 + 1/3 u) x^3 + O(x^4)\n"
    )


@pytest.mark.parametrize("what", ["tree", "egf-f", "abel-rhs"])
def test_series_negative_order_is_an_error(capsys, what):
    code, out, err = run(capsys, "series", what, "--order", "-1")
    assert code == 2
    assert out == ""
    assert "order must be >= 0" in err


def test_series_egf_f_json(capsys):
    code, out, _ = run(
        capsys, "series", "egf-f", "--order", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["var"] == "t"
    assert payload["coefficients"][0] == "1"
    assert payload["coefficients"][1] == "λ"


def test_series_order_cap(capsys):
    code, _, err = run(capsys, "series", "tree", "--order", "13")
    assert code == 2
    assert "--unsafe" in err
    code, out, _ = run(capsys, "series", "tree", "--order", "13", "--unsafe")
    assert code == 0
    assert "x^13" in out


def test_series_default_order_without_env(capsys, monkeypatch):
    # No environment variable sets the order: it is 8 unless --order says.
    monkeypatch.setenv("LAMBDAFACT_ORDER", "2")
    code, out, _ = run(capsys, "series", "tree")
    assert code == 0
    assert out == (
        "x + x^2 + 3/2 x^3 + 8/3 x^4 + 125/24 x^5 + 54/5 x^6 + 16807/720 x^7"
        " + 16384/315 x^8 + O(x^9)\n"
    )
    code, out, _ = run(capsys, "series", "tree", "--order", "2")
    assert code == 0
    assert out.strip() == "x + x^2 + O(x^3)"


def test_bijection_census(capsys):
    code, out, _ = run(capsys, "bijection", "2", "2")
    assert code == 0
    assert "64 objects, round-trip OK" in out
    assert "total 64 = (2+2)^3" in out
    assert "MISMATCH" not in out


def test_bijection_census_reports_throughput(capsys):
    code, out, _ = run(capsys, "bijection", "2", "2")
    assert code == 0
    first = out.splitlines()[0]
    assert re.fullmatch(r"64 objects, round-trip OK in \d+\.\d{3} s \([\d,]+ objects/s\)", first)


def test_table_derangement_beyond_the_recursion_limit(capsys):
    sequences.derangement.cache_clear()  # a cold cache is the case that recursed
    code, out, _ = run(capsys, "table", "derangement", "1500", "--unsafe")
    assert code == 0
    n = 1500
    expected = sum((-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1))
    assert out.strip() == f"derangement,1500,{expected}"


def test_table_stirling2_beyond_the_recursion_limit(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "_STIRLING2_COLUMNS", [])
    sequences.stirling2.cache_clear()  # a cold cache is the case that recursed
    try:
        code, out, _ = run(capsys, "table", "stirling2", "1200", "3", "--unsafe")
    finally:
        sequences.stirling2.cache_clear()
    assert code == 0
    n = 1200
    assert out.strip() == f"stirling2,1200,3,{(3 ** n - 3 * 2 ** n + 3) // 6}"


def test_closed_stdout_ends_quietly_and_not_as_a_pass():
    # About 1 MB of rows: far more than a pipe holds, so the writer must
    # meet the closed pipe whatever the timing.
    src = str(Path(lambdafact.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "lambdafact.cli", "table", "factorial", "0..1000", "--unsafe"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"factorial,0,1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == BROKEN_PIPE_EXIT != 0
    assert err == b""


def test_import_loads_neither_dataclasses_nor_the_enumeration_layer():
    # What every command pays before it starts: only `bijection` needs the
    # enumeration layer, and it loads that layer when it runs.
    src = str(Path(lambdafact.__file__).resolve().parents[1])
    code = (
        "import sys, lambdafact, lambdafact.cli, lambdafact.identities\n"
        "loaded = {'dataclasses', 'lambdafact.enumeration'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "sys.exit(lambdafact.cli.main(['bijection', '1', '1', '--sigma', '1,1,3']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "round trip: OK" in proc.stdout


def test_bijection_single_object(capsys):
    code, out, _ = run(capsys, "bijection", "0", "1")
    assert code == 0
    assert "1 objects, round-trip OK" in out


def test_bijection_with_sigma(capsys):
    code, out, _ = run(capsys, "bijection", "1", "1", "--sigma", "1,1,3", "--dot")
    assert code == 0
    assert "round trip: OK" in out
    assert "digraph sigma" in out
    assert "digraph pair" in out


def test_bijection_invalid_sigma(capsys):
    code, _, err = run(capsys, "bijection", "2", "2", "--sigma", "1,1,3,5,5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("raw,bad", [("1,a,3", "a"), ("1,1,3.0", "3.0"), (",1,,1,3,", ""),
                                     ("1,1,3,", ""), ("", "")])
def test_bijection_non_integer_sigma_names_the_option(capsys, raw, bad):
    code, out, err = run(capsys, "bijection", "1", "1", "--sigma", raw)
    assert code == 2
    assert out == ""
    assert err == f"error: --sigma entries must be integers, got {bad!r} in {raw!r}\n"


def test_bijection_sigma_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "bijection", "1", "1", "--sigma", "1,1")
    assert code == 2
    assert out == ""
    assert "sigma must list 3 image values" in err


def test_table_q_needs_an_m_range(capsys):
    code, out, err = run(capsys, "table", "q", "1")
    assert code == 2
    assert out == ""
    assert "needs an m range" in err


def test_bijection_cutoff_requires_unsafe(capsys):
    code, _, err = run(capsys, "bijection", "5", "2")
    assert code == 2
    assert "--unsafe" in err
    # Under --unsafe the enumeration's own cutoff still holds.
    code, out, err = run(capsys, "bijection", "6", "2", "--unsafe")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cutoff" in err
    # Both caps are decided without forming (n+lambda)**(n+1), and name n and lambda.
    for argv, cap in ((("1000000", "0"), "more than 100000 objects, beyond the default cap"),
                      (("0", "3000000", "--unsafe"), "exceed the cutoff 1000000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "bijection", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert f"n={argv[0]}, " in err and cap in err, err


def test_verify_empty_point_set_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "2.1", "--n-max", "-3")
    assert code == 2
    assert out == ""
    assert "no parameter points" in err and "2.1" in err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["bijection", "1", "1", "--dot"], "--dot"),
        (["series", "tree", "--lambda", "3"], "--lambda"),
        (["series", "tree", "--a", "bell"], "--a"),
        (["series", "egf-f", "--a", "bell"], "--a"),
        (["series", "tree", "--lambda", "sym"], "--lambda"),
        (["bijection", "1", "1", "--sigma", "1,1,3", "--unsafe"], "--unsafe"),
    ],
)
def test_an_option_the_mode_does_not_read_is_an_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.rstrip().endswith(f"does not read {option}")


@pytest.mark.parametrize("what", ["egf-f", "abel-rhs"])
@pytest.mark.parametrize("lam", ["1.5", "x", ""])
def test_series_non_integer_lambda_names_the_option(capsys, what, lam):
    code, out, err = run(capsys, "series", what, "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err == f"error: --lambda must be an integer or 'sym', got {lam!r}\n"


@pytest.mark.parametrize("ident,order", [("5.2", "-2"), ("5.2", "-1"), ("3.2", "-1")])
def test_verify_negative_total_degree_is_an_error(capsys, ident, order):
    code, out, err = run(capsys, "verify", ident, "--order", order)
    assert code == 2
    assert out == ""
    assert "truncation order must be >= 0" in err


@pytest.mark.parametrize(
    "ident", ["5.1", "5.3", "5.4", "q-second", "q-explicit", "stirling-difference"]
)
def test_verify_empty_sweep_is_an_error(capsys, ident):
    code, out, err = run(capsys, "verify", ident, "--m-max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "empty sweep" in err


@pytest.mark.parametrize(
    "family",
    ["factorial", "derangement", "lambda-factorial", "charlier", "bell", "hermite"],
)
def test_table_one_index_family_rejects_a_second_index(capsys, family):
    code, out, err = run(capsys, "table", family, "3", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "one index" in err


def test_bijection_with_no_objects_is_an_error(capsys):
    code, out, err = run(capsys, "bijection", "0", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["1.0a", "--n-max", "41"],
        ["bogus", "x"],
        ["5.1", "--n-max", "11"],
        ["q-second", "--n-max", "10"],
        ["thm1.1", "5.1", "--n-max", "11"],
        ["thm1.1", "3.2", "--order", "-1"],
        ["thm1.1", "--order", "3", "--m-max", "2"],
        ["5.2", "--n-max", "3"],
        ["2.1", "--n-max", "5000"],
    ],
)
def test_verify_rejects_a_bad_request_before_any_output(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_reports_the_order_it_truncates_5_2_at(capsys):
    code, out, err = run(capsys, "verify", "5.2", "--order", "3")
    assert (code, err) == (0, "")
    assert '"id": "5.2", "params": {"order": 3}, "order": 3,' in out


def test_verify_rejects_an_override_that_no_identity_reads(capsys):
    code, out, err = run(capsys, "verify", "thm1.1", "riordan", "--m-max", "2")
    assert code == 2
    assert out == ""
    assert err == "error: no point of thm1.1, riordan reads m_max=2\n"


@pytest.mark.parametrize("knob", ["--n-max", "--m-max", "--order"])
def test_verify_all_takes_each_override(capsys, knob):
    code, out, err = run(capsys, "verify", "all", knob, "1")
    assert code == 0
    assert err == ""
    assert all(json.loads(line)["verdict"] == "pass" for line in out.splitlines())


def test_a_defect_is_not_reported_as_a_rejected_request(monkeypatch):
    def defect(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(lambdafact.identities, "verify_many", defect)
    with pytest.raises(KeyError):
        main(["verify", "thm1.1"])


# ---- behaviour contract: the stdout of table, series and bijection ----

# Written before the deletions of the surface that only tests reached, by
# running each of GOLDEN_CLI_RUNS through `main` and storing its stdout; the
# last two `--dot` runs were written before the DOT writers were folded into
# one.  The census is left out: it prints its own elapsed time.
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")

GOLDEN_CLI_RUNS = (
    [["series", what, "--order", str(order)]
     for what in ("tree", "egf-f") for order in range(11)]
    + [["series", "abel-rhs", "--a", a, "--lambda", lam, "--order", "8",
        "--format", fmt]
       for a in sorted(sequences.ABEL_FAMILIES) for lam in ("sym", "0", "1", "3")
       for fmt in ("text", "json")]
    + [["table", family, *indices, "--format", fmt]
       for family, *indices in (
           *[(f, "0..12") for f in ("factorial", "derangement", "lambda-factorial",
                                    "charlier", "bell", "hermite")],
           ("stirling2", "0..8"),
           ("q", "0..5", "0..5"),
       )
       for fmt in ("csv", "json")]
    + [["bijection", *argv, "--dot"] for argv in (
        ("1", "1", "--sigma", "1,1,3"),
        ("2", "3", "--sigma", "4,1,1,4,5,6"),  # a colored root and tree edges
        ("3", "1", "--sigma", "2,1,5,3,5"),  # a 2-cycle and an edge into a color vertex
    )]
)


def test_cli_stdout_matches_golden(capsys):
    golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    assert [record["argv"] for record in golden] == GOLDEN_CLI_RUNS
    for record in golden:
        code, out, err = run(capsys, *record["argv"])
        assert (code, err) == (0, ""), record["argv"]
        assert out == record["stdout"], record["argv"]
