"""Command-line interface: subcommands, formats, exit codes, file input."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import mild2
from mild2 import cli, oracle
from mild2.series import WeightSignature, reduced_dims_bn
from mild2.acceptance import (
    GOLDEN_EX1_PRESENT,
    GOLDEN_EX1_REDUCE,
    GOLDEN_EX2_PRESENT,
    GOLDEN_EX2_REDUCE,
)

EX1 = "41,13,5,3,19"
EX2 = "5,29,7,11,3"


def run(argv):
    buffer = io.StringIO()
    errors = io.StringIO()
    with redirect_stdout(buffer), redirect_stderr(errors):
        code = cli.main(argv)
    return code, buffer.getvalue().rstrip("\n")


def run_err(argv):
    """Exit code and stderr; the parser refuses a command line by SystemExit."""
    buffer = io.StringIO()
    errors = io.StringIO()
    with redirect_stdout(buffer), redirect_stderr(errors):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, errors.getvalue().rstrip("\n")


def test_linking_text_golden():
    code, out = run(["linking", "--primes", EX1])
    assert code == 0
    assert out.splitlines()[1] == "a = (0, 0, 0, 1, 1)"
    code, out = run(["linking", "--primes", "17,13"])
    assert code == 0 and out.endswith(". 0\n0 .")


def test_linking_json():
    code, out = run(["linking", "--primes", "17,13", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob == {"primes": [17, 13], "a": [0, 0], "ell": [[0, 0], [0, 0]]}


def test_present_and_reduce_goldens():
    assert run(["present", "--primes", EX1]) == (0, GOLDEN_EX1_PRESENT)
    assert run(["reduce", "--primes", EX1]) == (0, GOLDEN_EX1_REDUCE)
    assert run(["present", "--primes", EX2]) == (0, GOLDEN_EX2_PRESENT)
    assert run(["reduce", "--primes", EX2]) == (0, GOLDEN_EX2_REDUCE)
    # no prime = 3 (mod 4): the product relation is all zero
    assert run(["present", "--primes", "5,13,17"]) == (0, "r1 = [x1,x2][x1,x3]\nr2 = [x2,x1]\nr3 = [x3,x1]\nr = 1")


def test_present_json_round_trip(tmp_path):
    code, out = run(["present", "--primes", EX1, "--format", "json"])
    assert code == 0
    path = tmp_path / "pres.json"
    path.write_text(out)
    # downstream commands accept the emitted file and agree with --primes
    code_a, out_a = run(["check-mild", "--in", str(path)])
    code_b, out_b = run(["check-mild", "--primes", EX1])
    assert (code_a, out_a) == (code_b, out_b) == (0, out_b)
    code_c, out_c = run(["reduce", "--in", str(path)])
    assert (code_c, out_c) == (0, GOLDEN_EX1_REDUCE)


def test_check_mild_exit_codes_and_json():
    code, out = run(["check-mild", "--primes", EX1])
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "mild" and blob["criterion"] == "circuit"
    assert blob["witness"] == {"S": [1, 3], "Sp": [2, 4]}
    code, out = run(["check-mild", "--primes", "17,13"])
    assert code == 4
    assert json.loads(out)["verdict"] == "inapplicable"


# criterion 5's negative control {x1^2, [x1,x2]}
CONTROL = {
    "a": [1, 0],
    "ell": [[0, 1], [1, 0]],
    "relators": [
        {"owner": 1, "square": 1, "comms": []},
        {"owner": 2, "square": 0, "comms": [[1, 2]]},
    ],
    "product_relation": None,
    "primes": None,
}


def test_check_mild_not_shown_exit_code(tmp_path):
    path = tmp_path / "control.json"
    path.write_text(json.dumps(CONTROL))
    code, out = run(["check-mild", "--in", str(path)])
    assert code == 3
    assert json.loads(out)["verdict"] == "not_shown"


def test_check_mild_empty_relator_set_reports_the_parity_split(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"a": [0, 0], "relators": []}))
    code, out = run(["check-mild", "--in", str(path), "--format", "text"])
    assert code == 0
    assert out.splitlines() == ["verdict = mild", "criterion = rank", "witness: S = {1}, Sp = {2}"]
    # one prime: eliminating it leaves d = 0, whose parity split is empty
    code, out = run(["check-mild", "--primes", "3", "--format", "text"])
    assert code == 0 and "witness: S = {}, Sp = {}" in out.splitlines()


def test_check_mild_oracle_depth():
    code, out = run(["check-mild", "--primes", EX1, "--oracle-depth", "4", "--format", "text"])
    assert code == 0
    assert "oracle(F2): dimensions match through degree 4" in out
    # refused as input, also on a set whose verdict would skip the oracle
    for primes in (EX1, "3,5"):
        code, err = run_err(["check-mild", "--primes", primes, "--oracle-depth", "-7"])
        assert (code, err) == (2, "error: oracle_depth must be >= 2, got -7")


def test_bad_primes_exit_2():
    code, err = run_err(["linking", "--primes", "4,9"])
    assert code == 2 and "not an odd prime" in err
    code, _ = run(["present", "--primes", "3,3"])
    assert code == 2


def test_missing_file_exit_2(tmp_path):
    code, out = run(["check-mild", "--in", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(["check-mild", "--in", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "blob",
    [
        {"relators": [1]},
        [],
        {"relators": [{"owner": 1, "square": 0, "comms": [["a", "b"]]}], "a": [0]},
        {"relators": [{"owner": 9, "square": 1, "comms": []}], "a": [0, 1]},
        {"relators": [], "primes": ["foo", "bar"], "product_relation": [0, 1]},
        {"relators": [], "product_relation": ["1", 1]},
        {"relators": [], "product_relation": ["x", 1]},
        {"relators": [{"owner": 1, "square": 0, "comms": [[1, 1000000000]]}]},
        {"relators": [{"owner": 1, "square": 0, "comms": [[1, 1000000000]]}], "a": [0, 0]},
        {"relators": [{"owner": 1, "square": 1, "comms": [[1, 2]]}]},
        {"a": [0, 0], "relators": [{"square": 0, "comms": [[1, 2], [2, 1]]}]},
        {"a": [0, 0, 0], "relators": [{"comms": [[1, 3]]}, {"comms": [[1, 2], [2, 3], [1, 2]]}]},
        {"relators": [], "product_relation": [2, 1]},
        {"a": [0, 0], "relators": [{"owner": 1, "square": False}]},
        {"a": [0, 0], "relators": [{"owner": "1"}]},
    ],
)
def test_malformed_presentation_json_exit_2(tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, err = run_err(["check-mild", "--in", str(path)])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["check-mild", "reduce", "oracle"])
def test_deeply_nested_presentation_json_exits_2(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, err = run_err([command, "--in", str(path)])
    assert (code, err) == (2, f"error: {path}: JSON nested too deeply")


def test_a_json_integer_past_4300_digits_exits_2(tmp_path):
    # main lifts Python's digit limit for printing; an input file keeps it
    path = tmp_path / "big.json"
    path.write_text('{"a": [' + "9" * 4301 + '], "relators": []}')
    code, err = run_err(["check-mild", "--in", str(path)])
    assert (code, err) == (2, "error: a JSON integer has 4301 digits, more than 4300")


@pytest.mark.parametrize(
    "argv",
    [
        ["augment", "--seed", "3", "--bound", "-1"],
        ["basis", "--kind", "elimination", "--weights", "1,1", "--sigma", "1", "--max", "-5"],
        ["basis", "--kind", "y", "--weights", "1,1", "--max", "-1"],
        ["series", "--d", "4", "--m", "4", "--max", "-1"],
        # the parser's refusals: a bad int, a bad choice, an unknown flag, an
        # unknown subcommand, a missing flag, neither and both of --primes/--in
        ["check-mild", "--primes", EX1, "--oracle-depth", "x"],
        ["oracle", "--primes", EX1, "--ring", "f3"],
        ["series", "--d", "4", "--bogus"],
        ["nosuch"],
        ["dims", "--d", "4"],
        ["oracle"],
        ["oracle", "--primes", EX1, "--in", "x.json"],
        # a cap below 1, which check_mild refuses
        ["check-mild", "--primes", EX1, "--memory-cap-mib", "-4"],
    ],
)
def test_unusable_flag_values_exit_2(argv):
    code, err = run_err(argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "--d", "4", "--m", "-3"], "error: --m must be >= 0, got -3"),
        (["series", "--d", "-2", "--max", "3"], "error: --d must be >= 1, got -2"),
        (["dims", "--kind", "reduced-b", "--d", "4", "--m", "-2"], "error: --m must be >= 0, got -2"),
    ],
)
def test_series_and_dims_refuse_impossible_d_and_m(argv, message):
    assert run_err(argv) == (2, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce"], "error: one of the arguments --primes --in is required"),
        (["series"], "error: provide --e/--h or --d/--m"),
        (["dims", "--kind", "zassenhaus"], "error: --kind zassenhaus needs --d (and optionally --m)"),
        (["basis", "--kind", "elimination", "--weights", "1,1"], "error: --kind elimination needs --sigma"),
        (["linking", "--primes", "3,x"], "error: --primes must be a comma-separated list of integers, got '3,x'"),
    ],
)
def test_missing_or_malformed_inputs_exit_2(argv, message):
    assert run_err(argv) == (2, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "--d", "4", "--h", "2,2"], "give --e/--h or --d/--m, not both"),
        (["series", "--e", "1,1", "--d", "4"], "give --e/--h or --d/--m, not both"),
        (["series", "--e", "1,1", "--m", "3"], "give --e/--h or --d/--m, not both"),
        (["dims", "--kind", "lower-central", "--e", "1,1", "--d", "2"], "give --e/--h or --d/--m, not both"),
        (["dims", "--kind", "zassenhaus", "--d", "4", "--e", "1,1"], "--kind zassenhaus takes --d/--m, not --e/--h"),
        (["dims", "--kind", "zassenhaus", "--d", "4", "--h", "2"], "--kind zassenhaus takes --d/--m, not --e/--h"),
        (["reduce", "--primes", EX1, "--in", "pres.json"], "argument --in: not allowed with argument --primes"),
        (["check-mild", "--primes", EX1, "--in", "pres.json"], "argument --in: not allowed with argument --primes"),
        (["oracle", "--primes", EX1, "--in", "pres.json"], "argument --in: not allowed with argument --primes"),
    ],
)
def test_flags_of_both_forms_exit_2(tmp_path, argv, message):
    # a readable --in file, so only the clash itself can be refused
    path = tmp_path / "pres.json"
    path.write_text(run(["present", "--primes", EX2, "--format", "json"])[1])
    argv = [str(path) if arg == "pres.json" else arg for arg in argv]
    assert run_err(argv) == (2, f"error: {message}")


def test_partition_search_limit_exits_5():
    # 22 primes: d = 21 after elimination, odd, so the search is reached
    primes = "349,1913,2837,2699,139,743,293,1613,2689,1459,1543,2251,1193,2789,599,229,1597,53,2971,1229,1409,2081"
    code, err = run_err(["check-mild", "--primes", primes])
    assert (code, err) == (5, "error: exhaustive partition search is limited to d <= 20")


def run_capped(argv, limit=2**30):
    """Run the CLI in a child process capped at limit bytes (1 GiB) of address
    space, so a missing guard fails instead of swapping; returns it and its
    seconds."""
    src = str(Path(mild2.__file__).resolve().parents[1])
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mild2.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc, time.perf_counter() - started


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--d", "4", "--m", "4", "--max", "100000000"],
        ["dims", "--kind", "zassenhaus", "--d", "4", "--m", "4", "--max", "100000000"],
        ["dims", "--kind", "lower-central", "--d", "4", "--m", "4", "--max", "100000"],
        ["series", "--d", "100000000", "--max", "4"],
        ["series", "--e", "1000000000", "--max", "4"],
    ],
)
def test_series_size_guard_stops_before_allocating(argv):
    proc, seconds = run_capped(argv)
    assert seconds < 1
    assert proc.returncode == 5
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.rstrip().endswith("would hold more than 32 MiB")


@pytest.mark.parametrize("degree", [10**20, 2**64 - 1])
@pytest.mark.parametrize("flag", [["oracle", "--max"], ["check-mild", "--oracle-depth"]])
@pytest.mark.parametrize("source", ["ex1", "control"])
def test_oracle_size_flags_end_in_a_clean_exit(tmp_path, degree, flag, source):
    # worked example 1 is refused on Anick's floor; the control's floor reaches
    # 0, so it is refused on the size of its dimension series
    if source == "ex1":
        given = ["--primes", EX1]
    else:
        path = tmp_path / "control.json"
        path.write_text(json.dumps(CONTROL))
        given = ["--in", str(path)]
    proc, seconds = run_capped([flag[0], *given, flag[1], str(degree)])
    assert seconds < 3
    assert proc.returncode in (0, 2, 5), proc.stderr
    assert proc.stderr.count("error:") <= 1


def test_an_allocation_that_fails_below_the_memory_cap_exits_5():
    # the guard admits degree 12 under this cap, but 64 MiB of address space
    # runs out near degree 10: the MemoryError is a resource stop, not a fault
    argv = ["oracle", "--primes", EX1, "--max", "12", "--memory-cap-mib", "100000"]
    proc, seconds = run_capped(argv, limit=64 * 2**20)
    assert seconds < 10
    assert proc.returncode == 5
    assert proc.stderr == "error: out of memory before a resource guard stopped the request\n"


def test_series_and_dims_text():
    code, out = run(["series", "--kind", "strongly-free", "--e", "1,1,1,1", "--h", "2,2,2,2", "--max", "6"])
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 4", "2: 12", "3: 32", "4: 80", "5: 192", "6: 448"]
    code, out = run(["dims", "--kind", "lower-central", "--d", "4", "--m", "4", "--max", "4"])
    assert code == 0
    assert out.splitlines() == ["1: 4", "2: 6", "3: 10", "4: 16"]
    code, out = run(["dims", "--kind", "zassenhaus", "--d", "4", "--m", "4", "--max", "3"])
    assert code == 0
    assert out.splitlines() == ["1: 4", "2: 6", "3: 4"]
    code, out = run(["dims", "--kind", "reduced-b", "--e", "1,1,1,1", "--h", "2,2,2,2", "--max", "4"])
    assert code == 0
    assert out.splitlines() == ["2: 6", "3: 4", "4: 6"]


def test_series_json_has_kind_tag():
    code, out = run(["series", "--kind", "gamma", "--e", "1,1", "--max", "3", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "gamma_series" and blob["start"] == 0


@pytest.mark.parametrize(
    "argv, last",
    [
        (["series", "--d", "8", "--max", "5000", "--format", "json"], lambda: 8**5000),
        (["series", "--d", "2", "--max", "16351"], lambda: 2**16351),
        (
            ["dims", "--kind", "reduced-b", "--d", "8", "--max", "5000"],
            lambda: reduced_dims_bn(WeightSignature((1,) * 8), 5000).values[-1],
        ),
    ],
)
def test_coefficients_past_the_default_digit_limit_print(argv, last):
    # more than the 4300 digits str() converts by default from Python 3.10.7 on
    src = str(Path(mild2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mild2.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # the test process needs the limit lifted too, to compare
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_digits(0)
    try:
        assert len(str(last())) > 4300
        if "json" in argv:
            assert json.loads(proc.stdout)["values"][-1] == last()
        else:
            assert proc.stdout.splitlines()[-1] == f"{argv[argv.index('--max') + 1]}: {last()}"
    finally:
        set_digits(limit)


def test_main_gives_an_in_process_caller_its_digit_limit_back():
    get_digits = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_digits()
    assert run(["series", "--d", "8", "--max", "5000"])[0] == 0
    assert get_digits() == before


def test_dims_nonrealizable_is_diagnostic_not_error():
    code, out = run(["dims", "--kind", "reduced-b", "--e", "1,1", "--h", "2,2", "--max", "5"])
    assert code == 0 and "not realizable" in out
    code, out = run(["dims", "--kind", "reduced-b", "--e", "1,1", "--h", "2,2", "--max", "5", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["error"]["n"] == 3 and blob["error"]["reason"] == "negative"


def test_oracle_match_and_mismatch_exit_codes(tmp_path):
    code, out = run(["oracle", "--primes", EX1, "--max", "4"])
    assert code == 0 and "verdict = match" in out
    blob = {
        "relators": [
            {"owner": 1, "square": 1, "comms": []},
            {"owner": 2, "square": 0, "comms": [[1, 2]]},
        ],
        "a": [1, 0],
        "ell": [[0, 1], [1, 0]],
        "product_relation": None,
        "primes": None,
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(blob))
    code, out = run(["oracle", "--in", str(path), "--max", "4"])
    assert code == 1 and "mismatch at degree 3" in out


@pytest.mark.parametrize(
    "relators, message",
    [
        ([], "error: the oracle needs at least one relator"),
        ([{"owner": 1, "square": 0, "comms": []}], "error: relator 1 is zero"),
    ],
)
def test_oracle_refuses_empty_and_zero_relators(tmp_path, relators, message):
    path = tmp_path / "relators.json"
    path.write_text(json.dumps({"a": [0, 0], "relators": relators}))
    assert run_err(["oracle", "--in", str(path)]) == (2, message)


def test_oracle_json_payload():
    code, out = run(["oracle", "--primes", EX1, "--max", "3", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["match"] is True and blob["mismatch_degree"] is None
    assert blob["oracle_dims"] == [1, 4, 12, 32]
    assert blob["profile"]["per_degree"][2]["quotient"] == 12


def test_oracle_f2pi_ring():
    code, out = run(["oracle", "--primes", EX1, "--max", "3", "--ring", "f2pi"])
    assert code == 0 and "ring = F2pi" in out


def test_memory_cap_flag_and_env():
    # degree 8 is bounded at about 1.8 MiB as the last degree, 3.0 MiB as a middle one
    code, err = run_err(["oracle", "--primes", EX1, "--max", "8", "--memory-cap-mib", "1"])
    assert code == 5 and err == "error: degree 8 needs about 2 MiB of rows, above the 1 MiB cap"
    code, err = run_err(["oracle", "--primes", EX1, "--max", "9", "--memory-cap-mib", "2"])
    assert code == 5 and err == "error: degree 8 needs about 4 MiB of rows, above the 2 MiB cap"
    # degree 7 is bounded at about 0.47 MiB, and nothing before it holds more
    code, out = run(["oracle", "--primes", EX1, "--max", "7", "--memory-cap-mib", "1"])
    assert code == 0 and out.endswith("verdict = match")
    # a cap below 1 MiB is an input error, not a guard stop
    code, err = run_err(["oracle", "--primes", EX1, "--max", "6", "--memory-cap-mib", "0"])
    assert (code, err) == (2, "error: memory_cap_mib must be >= 1, got 0")
    # so is a cap that is not a number
    code, err = run_err(["check-mild", "--primes", EX1, "--memory-cap-mib", "abc"])
    assert (code, err) == (2, "error: argument --memory-cap-mib: invalid int value: 'abc'")


def test_a_doomed_oracle_request_is_refused_before_any_degree_is_built():
    # Anick's floor equals the dimensions here, so degree 12 is refused
    # before degrees 1..11, about 15 s of work, are built
    start = time.perf_counter()
    code, err = run_err(["oracle", "--primes", EX1, "--max", "13"])
    assert time.perf_counter() - start < 2
    assert code == 5 and err == "error: degree 12 needs about 1375 MiB of rows, above the 1024 MiB cap"


def test_unexpected_error_has_its_own_exit_code(monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_linking", broken)
    code, err = run_err(["linking", "--primes", EX1])
    assert code == 70
    assert err.splitlines() == ["error: internal: KeyError: 'lost'"]


def test_oracle_fault_has_the_internal_exit_code(monkeypatch):
    relator_rows = oracle._relator_rows

    def faulty(words, table, dims, n):
        yield from relator_rows(words, table, dims, n)
        if n == 3:  # every unit row: the quotient of degree 3 drops to 0
            yield from (1 << c for c in range(4 * dims[2]))

    monkeypatch.setattr(oracle, "_relator_rows", faulty)
    code, err = run_err(["oracle", "--primes", EX1, "--max", "4"])
    assert code == 70
    assert err.splitlines() == [
        "error: internal: RuntimeError: oracle fault: degree 3 has dimension 0, below 32,"
        " Anick's lower bound for 4 letters and 4 quadratic relators"
    ]


def test_augment_json_and_bound_exit():
    code, out = run(["augment", "--seed", "13,3", "--bound", "100000"])
    assert code == 0
    blob = json.loads(out)
    assert blob["S"] == [5, 13, 41, 3, 23] and blob["attempts"] == 1
    code, out = run(["augment", "--seed", "13,3", "--bound", "20"])
    assert code == 5
    code, err = run_err(["augment", "--seed", "13,3", "--bound", str(2**64)])
    assert code == 2
    assert err.splitlines() == ["error: bound = 18446744073709551616 exceeds the supported 64-bit range"]


def test_augment_and_check_mild_past_the_partition_search_limit():
    # 12 seed primes: d = 24 after elimination; the parity split certifies it
    # (see the theorem next to linking.augment), so no enumeration is needed
    seed = "19,251,277,613,719,727,1163,1193,1531,1811,1933,2579"
    S = [13, 277, 53, 613, 673, 1193, 757, 1933, 857, 19, 3449, 251, 9949, 719, 5953, 727,
         19709, 1163, 137413, 1531, 23893, 1811, 315949, 2579, 102551]
    code, out = run(["augment", "--seed", seed])
    assert code == 0
    assert json.loads(out)["S"] == S
    code, out = run(["check-mild", "--primes", ",".join(map(str, S)), "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert (blob["verdict"], blob["criterion"]) == ("mild", "rank")
    assert blob["witness"] == {"S": list(range(1, 25, 2)), "Sp": list(range(2, 25, 2))}


def test_basis_outputs():
    code, out = run(["basis", "--kind", "y", "--weights", "1,1", "--max", "3"])
    assert code == 0
    assert "P(x1)" in out and "[x2,[x2,x1]]" in out
    code, out = run(["basis", "--kind", "elimination", "--weights", "1,1", "--sigma", "1", "--max", "3"])
    assert code == 0
    assert out.splitlines() == ["1: x2", "2: [x1,x2]", "3: [x1,[x1,x2]]"]
    code, out = run(["basis", "--kind", "y", "--weights", "1,1,2", "--max", "4", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["by_degree"]["2"] == ["P(x1)", "P(x2)", "[x1,x2]", "x3"]


def test_basis_word_limit_stops_before_enumerating():
    # sum over n < 24 of 3^n chains: about 1.4e11 words
    argv = ["basis", "--kind", "elimination", "--weights", "1,1,1,1", "--sigma", "1,2,3", "--max", "24"]
    started = time.perf_counter()
    code, err = run_err(argv)
    assert time.perf_counter() - started < 1
    assert code == 5 and err == "error: elimination_basis would build more than 100000 bracket words"
    code, err = run_err(["basis", "--kind", "y", "--weights", ",".join(["1"] * 40), "--max", "6"])
    assert code == 5 and err == "error: enumerate_y would build more than 100000 bracket words"


def test_basis_word_limit_counts_only_the_words_returned():
    # heavy letters whose words pass the degree limit are never built, so they do not count
    weights = ",".join(["1"] * 12 + ["9"] * 20)
    code, out = run(["basis", "--kind", "y", "--weights", weights, "--max", "8", "--format", "json"])
    assert code == 0
    assert sum(len(ws) for ws in json.loads(out)["by_degree"].values()) == 35828
    code, out = run(
        ["basis", "--kind", "elimination", "--weights", "1,5,5,5,5,5,5", "--sigma", "1,2,3,4,5,6", "--max", "12"]
    )
    assert code == 0 and len(out.splitlines()) == 38


def test_basis_word_limit_admits_criterion_7_and_the_readme_example():
    # criterion 7's largest inputs: four weight-1 letters, enumerate_y to 6 and sigma = {1, 2} to 5
    for argv in (
        ["basis", "--kind", "y", "--weights", "1,1,1,1", "--max", "6"],
        ["basis", "--kind", "elimination", "--weights", "1,1,1,1", "--sigma", "1,2", "--max", "5"],
    ):
        assert run(argv)[0] == 0
    code, out = run(["basis", "--kind", "elimination", "--weights", "1,1,1", "--sigma", "1", "--max", "4"])
    assert code == 0
    assert out.splitlines() == [
        "1: x2",
        "1: x3",
        "2: [x1,x2]",
        "2: [x1,x3]",
        "3: [x1,[x1,x2]]",
        "3: [x1,[x1,x3]]",
        "4: [x1,[x1,[x1,x2]]]",
        "4: [x1,[x1,[x1,x3]]]",
    ]


def test_argparse_rejects_unknown_subcommand():
    src = str(Path(mild2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mild2.cli", "frobnicate"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2


def test_check_mild_with_oracle_runs_on_the_standard_library_alone():
    # -S keeps site-packages off sys.path, so no third-party package can load
    src = str(Path(mild2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "mild2.cli", "check-mild", "--primes", EX1, "--oracle-depth", "6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "verdict": "mild",
        "criterion": "circuit",
        "witness": {"S": [1, 3], "Sp": [2, 4]},
        "oracle_depth": 6,
        "notes": [
            "eliminated x5 (prime 19); d: 5 -> 4",
            "oracle(F2): dimensions match through degree 6",
        ],
    }


def test_console_entry_point_runs():
    src = str(Path(mild2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mild2.cli", "present", "--primes", EX1],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.rstrip("\n") == GOLDEN_EX1_PRESENT


def test_selftest_line_protocol():
    # the full selftest is exercised in the acceptance tests; here only the
    # one-line-per-criterion protocol is checked on a cheap criterion
    from mild2.acceptance import criterion_1

    line = criterion_1().line()
    assert line.startswith("PASS criterion 1:")
    assert "s)" in line  # includes a runtime
