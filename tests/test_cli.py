import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import eulerpade
from eulerpade import cli
from eulerpade.bounds import ValuationSetDescriptor, limsup_sequence
from eulerpade.certify import certificate_from_json, verify_certificate
from eulerpade.cli import build_parser, main
from eulerpade.errors import CutoffTooSmallError, EulerPadeError, InvalidPrimeError, PrecisionCapError
from eulerpade.numfield import QuadraticField
from eulerpade.places import places_above


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_example(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--p", "2", "--alpha", "1", "--prec", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    (value,) = payload["values"]
    assert value["residue"] == 2
    assert value["tail_valuation_bound"] == "3"


def test_eval_quadratic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eval", "--p", "11", "--alpha", "1/2,1/2", "--field", "5", "--prec", "3", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [v["place"] for v in payload["values"]] == ["split_1", "split_2"]


def test_bounds_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "4.1095e8", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["interval_lo"] == pytest.approx(16.85, abs=0.01)
    assert payload["interval_hi"] == pytest.approx(3.523e8, rel=1e-3)
    assert payload["N_ell"] >= 0 > payload["N_ell_plus_1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "1e200", "--json"],
        ["bounds", "--m", "2", "--kappa", "2", "--c1", "3", "--logH", "1e250"],
        ["limsup", "--alphas", "1" + "0" * 200 + ";3", "--lmax", "5"],
        ["limsup", "--alphas", str(2**1100) + ";-1", "--lmax", "8", "--json"],
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "nan"],
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "nan", "--logH", "1e10"],
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "inf"],
        ["bounds", "--m", "1", "--kappa", "1", "--c1", "1e-300", "--logH", "1e10"],
        ["limsup", "--alphas", "1;2", "--lmax", "1000001"],
    ],
)
def test_bound_chain_outside_the_double_range_is_an_input_error(capsys, argv):
    # these once ended in OverflowError or RuntimeError tracebacks
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("eulerpade: error: ")


@pytest.mark.parametrize("lmax", ["0", "-2"])
def test_limsup_without_a_term_is_refused(capsys, lmax):
    # these once exited 0 with an empty log_values and "no decreasing tail yet"
    code, out, err = run_cli(capsys, ["limsup", "--alphas", "1", "--lmax", lmax, "--json"])
    assert code == 1 and out == ""
    assert err == f"eulerpade: error: l_max must be at least 1, got {lmax}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["limsup", "--alphas", ""],
        ["limsup", "--alphas", ";", "--json"],
        ["certify", "--lambdas", "1", "--alphas", ""],
    ],
)
def test_an_empty_point_list_is_refused_by_name(capsys, argv):
    # limsup once ended in an IndexError traceback; certify printed a claim
    # for the constant form 1
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    prefix = "alphas: " if argv[0] == "certify" else ""
    assert err == f"eulerpade: error: {prefix}the list of evaluation points is empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pade", "--m", "3", "--l", "300", "--mu", "0", "--alphas", "1;2;3"],
        ["pade", "--m", "1", "--l", "3000", "--mu", "0", "--alphas", "7"],
        ["pade", "--m", "4", "--l", "500", "--mu", "0", "--alphas", "1;2;3;4"],
    ],
)
def test_pade_over_the_work_budget_is_refused_at_once(capsys, argv):
    # these ran for 50 s and past 300 s; the budget refuses them before
    # sigma is expanded
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("eulerpade: error: ") and "PADE_BUDGET" in err


def test_fib_certificate(capsys):
    code, out, _ = run_cli(capsys, ["fib", "--a", "1", "--b", "1", "--pmax", "50", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "nonzero"
    assert payload["prime"] == 2
    assert payload["place"]["splitting"] == "inert"
    # round trip: parse the emitted certificate and re-verify
    cert = certificate_from_json(payload)
    assert verify_certificate(cert)


def test_certify_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certify", "--lambdas", "0;-1", "--alphas", "1", "--p", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "nonzero"
    assert payload["partial_valuation"] == "1"


def test_certify_undetermined_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certify", "--lambdas", "1;1", "--alphas", "1", "--pmin", "5", "--pmax", "3", "--json"],
    )
    assert code == 2
    assert json.loads(out)["status"] == "undetermined"


def test_a_larger_prec_keeps_the_certificate(capsys):
    # L + F(1) for a 1206-digit L certifies at rational@3, precision 4; a
    # --prec past the last claimable rung (2048) gives the same record
    L = -(sum(math.factorial(n) for n in range(2100)) % 2**4000)
    outs = []
    for prec in ("64", "2048", "4096", "8192"):
        for flag in ([], ["--json"]):
            argv = ["certify", f"--lambdas={L};1", "--alphas", "1", "--prec", prec, *flag]
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            outs.append(out)
    assert outs[0] == "nonzero at rational@3 (precision 4): partial valuation 0 < tail bound 4\n"
    assert outs[0::2] == [outs[0]] * 4 and outs[1::2] == [outs[1]] * 4


def test_evenfact(capsys):
    code, out, _ = run_cli(capsys, ["evenfact", "--a", "1", "--b", "2", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "nonzero"


def test_residue_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["residue", "--n", "4", "--r", "2", "--m", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["slope"] == -1.0


def test_limsup_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, ["limsup", "--alphas", "1", "--lmax", "20", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["log_values"]) == 20
    assert payload["decreasing_from"] is not None
    assert "evidence" in payload["note"]


def test_limsup_large_prime_norm_is_fast(capsys):
    # m = 2: only the gcd of the norms (here 1) is factored, not the prime 10^15 + 37
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["limsup", "--alphas", "1000000000000037;3", "--lmax", "3", "--json"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert len(json.loads(out)["log_values"]) == 3


def test_limsup_at_a_prime_square_norm(capsys):
    # the norm (2^61 - 1)^2 was refused after trial division to 10^7; the
    # product of two distinct primes past 10^12 still is
    code, out, err = run_cli(capsys, ["limsup", "--alphas", "2305843009213693951", "--field", "5", "--lmax", "5"])
    assert (code, err) == (0, "")
    assert out.startswith("c1 = 2.12676e+37, c2 = 9.22337e+18 ")
    code, out, err = run_cli(capsys, ["limsup", "--alphas", "1000000000100000000002379", "--lmax", "3"])
    assert (code, out) == (1, "")
    assert err == (
        "eulerpade: error: the cofactor 1000000000100000000002379 is not shown prime and has no "
        "factor up to the trial-division budget of 10000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # a sieve to 10^9, and trial division to 10^12 for the product of
        # the primes 1000000000039 and 1000000000061, ran without limit
        ["certify", "--lambdas", "1;1", "--alphas", "1", "--p", "1000000007"],
        ["limsup", "--alphas", "1000000000100000000002379", "--lmax", "3"],
        ["eval", "--field", "1000000000100000000002379", "--p", "3", "--alpha", "1"],
    ],
)
def test_sieve_and_trial_division_are_refused_within_their_budget(argv):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    with pytest.raises(PrecisionCapError, match="budget of 10000000"):
        args.func(args)
    assert time.perf_counter() - start < 2


def test_pade_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, ["pade", "--m", "1", "--l", "1", "--mu", "0", "--alphas", "1", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["B"][0]["coeffs"] == ["-1", "1"]
    assert payload["B"][1]["coeffs"] == ["-1"]
    assert payload["order"] == 2 and payload["order_target"] == 2


def test_deterministic_output(capsys):
    argv = ["fib", "--a", "2", "--b", "3", "--pmax", "20", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_input_error_exit_code(capsys):
    # semantic input error: repeated evaluation points
    code, _, err = run_cli(
        capsys, ["certify", "--lambdas", "1;1;1", "--alphas", "1;1", "--p", "2"]
    )
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--lambdas", "1;1"])  # missing --alphas
    assert exc.value.code == 1


def test_human_output(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--p", "2", "--alpha", "1", "--prec", "2"])
    assert code == 0
    assert "residue 2" in out and "tail valuation >= 3" in out


def test_invalid_field_exit_code(capsys):
    code, _, err = run_cli(capsys, ["eval", "--p", "2", "--alpha", "1", "--field", "12"])
    assert code == 1
    assert "squarefree" in err


def test_eval_inert_residue_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eval", "--p", "2", "--alpha", "1/2,1/2", "--field", "5", "--prec", "3", "--json"],
    )
    assert code == 0
    (value,) = json.loads(out)["values"]
    assert value["place"] == "inert"
    assert isinstance(value["residue"], list)
    # golden-ratio residues carry half-integer sqrt(5)-coordinates
    assert any("/2" in part for part in value["residue"])


@pytest.mark.parametrize("p, prec", [(101, 2200), (1009, 4096)])
def test_eval_refuses_unprintable_residue(capsys, p, prec):
    # p^prec has more digits than str(int) allows: refused before summing
    argv = ["eval", "--p", str(p), "--alpha", "1", "--prec", str(prec)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert "decimal digits" in err
    args = build_parser().parse_args(argv)
    with pytest.raises(PrecisionCapError):
        args.func(args)


def test_eval_prints_longest_residue(capsys):
    # 101^2100 has 4209 digits, under the 4300-digit default
    code, out, _ = run_cli(capsys, ["eval", "--p", "101", "--alpha", "1", "--prec", "2100", "--json"])
    assert code == 0
    (value,) = json.loads(out)["values"]
    assert 0 < value["residue"] < 101**2100


def test_printable_check_matches_the_exact_rule(monkeypatch):
    # where prec*bits <= 3*limit the check builds neither power; every
    # answer must be that of the exact rule p^prec >= 10^limit
    edges = set()
    for limit in (0, 1, 2, 5, 12, 31):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        for p in (2, 3, 5, 7, 11, 13, 31, 101, 1009, 2**31 - 1):
            bits = p.bit_length()
            for prec in range(0, 4 * limit + 3):
                try:
                    cli._check_printable(p, prec)
                    refused = False
                except PrecisionCapError:
                    refused = True
                assert refused == (limit > 0 and p**prec >= 10**limit), (limit, p, prec)
                if limit:
                    edges.add(prec * bits - 3 * limit)
    assert {0, 1} <= edges


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--lambdas", "1;1", "--alphas", "1", "--p", "4"],
        ["fib", "--a", "1", "--b", "1", "--p", "4"],
        ["evenfact", "--a", "1", "--b", "2", "--p", "4"],
    ],
)
def test_certificate_commands_refuse_a_composite_p(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert "not prime" in err
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidPrimeError):
        args.func(args)


def test_pade_cutoff_zero_is_checked(capsys):
    argv = ["pade", "--m", "1", "--l", "1", "--mu", "0", "--alphas", "1", "--cutoff", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1 and out == ""
    args = build_parser().parse_args(argv)
    with pytest.raises(CutoffTooSmallError):
        args.func(args)


def test_limsup_exclude_p(capsys):
    code, out, _ = run_cli(
        capsys, ["limsup", "--alphas", "1/2,1/2;1/2,-1/2", "--field", "5", "--lmax", "6",
                 "--exclude-p", "2,3", "--json"]
    )
    assert code == 0
    K = QuadraticField(5)
    V = ValuationSetDescriptor.cofinite(places_above(K, 2) + places_above(K, 3))
    phi = K(Fraction(1, 2), Fraction(1, 2))
    assert json.loads(out)["log_values"] == limsup_sequence(K, [phi, phi.conjugate()], V, 6)


def test_limsup_exclude_p_counts_a_repeated_prime_once(capsys):
    outs = []
    for excluded in ["2,2", "2"]:
        code, out, _ = run_cli(
            capsys, ["limsup", "--alphas", "2", "--exclude-p", excluded, "--lmax", "5", "--json"]
        )
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[1]["log_values"][1] == pytest.approx(7.04925, abs=1e-5)


@pytest.mark.parametrize("m", ["0", "-5"])
def test_residue_refuses_m_below_1(capsys, m):
    code, out, err = run_cli(capsys, ["residue", "--n", "3", "--r", "2", "--m", m])
    assert code == 1 and out == ""
    assert err == f"eulerpade: error: m must be at least 1, got {m}\n"


@pytest.mark.parametrize("excluded", ["4", "x"])
def test_limsup_exclude_p_refuses_a_non_prime(capsys, excluded):
    code, out, _ = run_cli(capsys, ["limsup", "--alphas", "1", "--exclude-p", excluded])
    assert code == 1 and out == ""


# --- one parser per process -------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for _ in range(5):
            assert main(["residue", "--n", "4", "--r", "2", "--m", "1"]) == 0
            assert main(["eval", "--p", "2", "--alpha", "1", "--prec", "2", "--json"]) == 0
            with pytest.raises(SystemExit):
                main(["residue", "--n", "4"])
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


RESIDUE = ["residue", "--n", "4", "--r", "2", "--m", "1"]

#: name: (argv, exit code); "RECORD" stands for a file holding a fib record,
#: and None for an exit code that varies with the Python version's argparse
DISPATCH_LINES = {
    "pade": (["pade", "--m", "1", "--l", "1", "--mu", "0", "--alphas", "1", "--json"], 0),
    "eval": (["eval", "--p", "11", "--alpha", "1/2,1/2", "--field", "5", "--prec", "3"], 0),
    "certify": (["certify", "--lambdas", "1;1", "--alphas", "1", "--pmin", "3", "--json"], 0),
    "bounds": (["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "4.1095e8"], 0),
    "limsup": (["limsup", "--alphas", "1;2", "--lmax", "5", "--exclude-p", "2", "--json"], 0),
    "fib": (["fib", "--a", "2", "--b", "3", "--pmax", "20"], 0),
    "evenfact": (["evenfact", "--a", "1", "--b", "2", "--json"], 0),
    "residue": (RESIDUE, 0),
    "verify": (["verify", "RECORD"], 0),
    "no argv": ([], 1),
    "-h": (["-h"], 0),
    "pade -h": (["pade", "-h"], 0),
    "bogus": (["bogus"], 1),
    "leading --": (["--", *RESIDUE], None),
    "missing required": (["residue", "--n", "4", "--r", "2"], 1),
    "unrecognized": (["fib", "--a", "1", "--b", "1", "--exclude-p", "2"], 1),
    "stray positional": ([*RESIDUE, "stray"], 1),
    "abbreviated": (["bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "4.1095e8", "--js"], 0),
    "repeated": (["residue", "--n", "5", "--n", "4", "--r", "2", "--m", "1"], 0),
    "-- after the name": ([*RESIDUE, "--", "x"], 1),
    "input error": (["eval", "--p", "4", "--alpha", "1"], 1),
}


def _main_through_the_top_level_parser(argv):
    """main with the top-level parser reading every string, as it did
    before main handed the strings after a subcommand's name to its parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EulerPadeError, ValueError, ZeroDivisionError) as exc:
        print(f"eulerpade: error: {exc}", file=sys.stderr)
        return 1


@pytest.mark.parametrize("name", DISPATCH_LINES)
def test_dispatch_matches_the_top_level_parser(capsys, tmp_path, name):
    argv, expected = DISPATCH_LINES[name]
    if "RECORD" in argv:
        record = tmp_path / "record.json"
        record.write_text(run_cli(capsys, ["fib", "--a", "1", "--b", "1", "--json"])[1])
        argv = [str(record) if arg == "RECORD" else arg for arg in argv]
    outcomes = []
    for run in (main, _main_through_the_top_level_parser):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, _, err = outcomes[0]
    assert expected in (None, code), err
    unrecognized = {"unrecognized": "--exclude-p 2", "stray positional": "stray"}
    if name in unrecognized:
        assert err.endswith(f"eulerpade: error: unrecognized arguments: {unrecognized[name]}\n")


def test_json_flag_does_not_carry_over(capsys):
    argv = ["residue", "--n", "4", "--r", "2", "--m", "1"]
    _, as_json, _ = run_cli(capsys, argv + ["--json"])
    _, human, _ = run_cli(capsys, argv)
    assert json.loads(as_json)["ok"] is True
    assert human.startswith("r = 2 classes mod 4")


def test_field_does_not_carry_over(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--p", "11", "--alpha", "1/2,1/2", "--field", "5", "--json"])
    assert code == 0 and len(json.loads(out)["values"]) == 2
    code, out, _ = run_cli(capsys, ["eval", "--p", "11", "--alpha", "1", "--json"])
    assert code == 0
    assert [v["place"] for v in json.loads(out)["values"]] == ["rational"]
    code, _, err = run_cli(capsys, ["eval", "--p", "11", "--alpha", "1,1"])
    assert code == 1 and "no sqrt coordinate" in err


def test_single_prime_does_not_carry_over(capsys):
    form = ["certify", "--lambdas", "1;1", "--alphas", "1", "--json"]
    for p, scanned_from in [(3, 2), (2, 3)]:
        code, out, _ = run_cli(capsys, form + ["--p", str(p)])
        assert code == 0 and json.loads(out)["prime"] == p
        code, out, _ = run_cli(capsys, form + ["--pmin", str(scanned_from)])
        assert code == 0 and json.loads(out)["prime"] == scanned_from
    code, out, _ = run_cli(capsys, form)
    assert code == 0 and json.loads(out)["prime"] == 2


def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(capsys):
    argv = ["fib", "--a", "2", "--b", "3", "--pmax", "20"]
    env = {**os.environ, "PYTHONPATH": str(Path(eulerpade.__file__).resolve().parent.parent)}
    fresh = subprocess.run(
        [sys.executable, "-m", "eulerpade.cli", *argv], capture_output=True, text=True, env=env, check=False
    )
    assert fresh.returncode == 0
    with pytest.raises(SystemExit) as exc:
        main(["fib", "--a", "2", "--pmax", "20"])  # missing --b
    assert exc.value.code == 1
    assert run_cli(capsys, argv)[:2] == (0, fresh.stdout)


# --- verify -------------------------------------------------------------------


def verify_text(capsys, monkeypatch, text, *flags):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run_cli(capsys, ["verify", *flags])


CERTIFICATE_LINES = [
    ["certify", "--lambdas", "0;-1", "--alphas", "1", "--p", "2"],
    ["certify", "--lambdas", "1;1", "--alphas", "1", "--pmin", "3"],
    ["certify", "--lambdas", "1;1;-1", "--alphas", "1/2,1/2;1/2,-1/2", "--field", "5"],
    # partial valuation 1/2 at ramified@5
    ["certify", "--lambdas", "0,1;5", "--alphas", "0,1", "--field", "5", "--p", "5"],
    ["certify", "--lambdas", "1;1", "--alphas", "1", "--pmin", "5", "--pmax", "3"],
    ["fib", "--a", "1", "--b", "1"],
    ["fib", "--a", "-3", "--b", "4", "--pmax", "20"],
    ["fib", "--a", "25", "--b", "25", "--p", "2"],
    ["evenfact", "--a", "1", "--b", "2"],
    ["evenfact", "--a", "3", "--b", "5"],
    ["evenfact", "--a", "-7", "--b", "3", "--pmin", "3"],
]


@pytest.mark.parametrize("argv", CERTIFICATE_LINES, ids=" ".join)
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_accepts_what_the_certificate_commands_print(capsys, monkeypatch, tmp_path, argv, source):
    code, record, _ = run_cli(capsys, argv + ["--json"])
    assert code in (0, 2)
    status = json.loads(record)["status"]
    if source == "stdin":
        code, out, err = verify_text(capsys, monkeypatch, record)
    else:
        path = tmp_path / "certificate.json"
        path.write_text(record)
        code, out, err = run_cli(capsys, ["verify", str(path)])
    assert (code, err) == (0, "")
    claim = "claims nothing" if status == "undetermined" else "nonzero at"
    assert out.startswith("verified: ") and claim in out
    code, out, _ = verify_text(capsys, monkeypatch, record, "-", "--json")
    assert code == 0
    assert json.loads(out) == {"verified": True, "status": status, "place": json.loads(record)["place"]}


FIB = ("fib", "--a", "1", "--b", "1")
CERTIFY = ("certify", "--lambdas", "1;1", "--alphas", "1")
UNDETERMINED = (*CERTIFY, "--pmin", "5", "--pmax", "3")

#: a command line and an edit of the record it prints
FORGERIES = {
    "place ramified@2": (FIB, lambda record: record["place"].update(splitting="ramified")),
    "place xyz@2": (FIB, lambda record: record["place"].update(splitting="xyz")),
    "composite prime": (FIB, lambda record: record["place"].update(p=4)),
    "place without p": (FIB, lambda record: record["place"].pop("p")),
    "place as a string": (FIB, lambda record: record.update(place="inert@2")),
    "extra lambda": (FIB, lambda record: record["lambdas"].append("7")),
    "extra alpha": (FIB, lambda record: record["alphas"].append("3")),
    "int lambda": (FIB, lambda record: record.update(lambdas=[5, -1, -1])),
    "status bogus": (FIB, lambda record: record.update(status="bogus")),
    "null place": (FIB, lambda record: record.update(place=None)),
    "null precision": (FIB, lambda record: record.update(precision=None)),
    "null partial valuation": (FIB, lambda record: record.update(partial_valuation=None)),
    "null tail bound": (FIB, lambda record: record.update(tail_valuation_bound=None)),
    "precision as a string": (FIB, lambda record: record.update(precision="4")),
    "precision 0": (FIB, lambda record: record.update(precision=0)),
    "precision past the cap": (FIB, lambda record: record.update(precision=10**6)),
    "wrong partial valuation": (FIB, lambda record: record.update(partial_valuation="2")),
    "tail bound overstated": (FIB, lambda record: record.update(tail_valuation_bound="1000")),
    "other target": (FIB, lambda record: record.update(lambdas=["10", "-1/2,1/2", "1/2,1/2"])),
    "no status": (FIB, lambda record: record.pop("status")),
    "no lambdas": (FIB, lambda record: record.pop("lambdas")),
    "no place": (FIB, lambda record: record.pop("place")),
    "prime 97": (FIB, lambda record: record.update(prime=97)),
    "prime as a list": (FIB, lambda record: record.update(prime=[1])),
    "prime as a string": (FIB, lambda record: record.update(prime="x")),
    "prime as a float": (FIB, lambda record: record.update(prime=2.0)),
    "prime without a place": (UNDETERMINED, lambda record: record.update(prime=2)),
    "place p as a string": (FIB, lambda record: record["place"].update(p="2")),
    "place e and f": (FIB, lambda record: record["place"].update(e=7, f=9)),
    "place f": (FIB, lambda record: record["place"].update(f=1)),
    "lambdas as a string": (CERTIFY, lambda record: record.update(lambdas="11")),
    "alphas as a string": (CERTIFY, lambda record: record.update(alphas="1")),
    "field_d as a string": (FIB, lambda record: record.update(field_d="5")),
    "field_d true": (CERTIFY, lambda record: record.update(field_d=True)),
}


@pytest.mark.parametrize("argv, forge", FORGERIES.values(), ids=FORGERIES.keys())
def test_verify_refuses_a_forged_record(capsys, monkeypatch, argv, forge):
    record = json.loads(run_cli(capsys, [*argv, "--json"])[1])
    forge(record)
    code, out, err = verify_text(capsys, monkeypatch, json.dumps(record))
    assert (code, out) == (1, "")
    assert err.startswith("eulerpade: error: ") and err.count("\n") == 1
    # the library agrees: the reader refuses by name, or the check says no
    try:
        cert = certificate_from_json(record)
    except ValueError as exc:
        assert err == f"eulerpade: error: {exc}\n"
    else:
        assert verify_certificate(cert) is False


def test_verify_refuses_a_claim_over_the_term_budget(capsys, monkeypatch, over_budget_record):
    code, out, err = verify_text(capsys, monkeypatch, json.dumps(over_budget_record))
    assert (code, out) == (1, "")
    assert err == (
        "eulerpade: error: the sum at rational@47 to precision 4096 needs 188470 terms, "
        "70864720 word products, over the budget of 64000000\n"
    )


def test_verify_refuses_a_field_it_cannot_factor(capsys, monkeypatch):
    record = json.loads(run_cli(capsys, [*FIB, "--json"])[1])
    record["field_d"] = 10**40 + 1
    code, out, err = verify_text(capsys, monkeypatch, json.dumps(record))
    assert (code, out) == (1, "")
    assert err == (
        "eulerpade: error: field_d 10000000000000000000000000000000000000001 cannot be read: "
        "the cofactor 19721061166646717498359681 is not shown prime and has no factor up to "
        "the trial-division budget of 10000000\n"
    )


def test_eval_at_a_p_past_the_primality_bound_is_refused(capsys):
    # 1287836182261 * 2575672364521 passes every base of is_prime; the place
    # is refused for its primality, before any sum is priced
    code, out, err = run_cli(capsys, ["eval", "--p", "3317044064679887385961981", "--alpha", "1", "--prec", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("eulerpade: error: the primality of 3317044064679887385961981 is not settled")


NOT_RECORDS = [
    "", "{", "not json", "[]", "3", '"record"', "null",
    "true", "1.5", "[{}]", "{}", '{"status": "nonzero"}', '{"status": "undetermined"}',
]


@pytest.mark.parametrize("text", NOT_RECORDS)
def test_verify_refuses_what_is_not_a_record(capsys, monkeypatch, text):
    code, out, err = verify_text(capsys, monkeypatch, text)
    assert (code, out) == (1, "")
    assert err.startswith("eulerpade: error: ")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return
    with pytest.raises(ValueError) as refusal:
        certificate_from_json(value)
    assert err == f"eulerpade: error: {refusal.value}\n"


def test_verify_names_what_a_record_lacks(capsys, monkeypatch):
    code, _, err = verify_text(capsys, monkeypatch, "[]")
    assert (code, err) == (1, "eulerpade: error: a certificate record is a JSON object, not list\n")
    code, _, err = verify_text(capsys, monkeypatch, '{"status": "nonzero"}')
    assert (code, err) == (1, "eulerpade: error: the certificate record has no key 'field_d'\n")


def test_verify_refuses_a_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["verify", str(tmp_path / "absent.json")])
    assert (code, out) == (1, "")
    assert "cannot read" in err
