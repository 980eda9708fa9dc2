import json
import time
from fractions import Fraction

import pytest

from eulerpade.certify import (
    ValuationSetDescriptor,
    certificate_from_json,
    limsup_sequence,
    verify_certificate,
)
from eulerpade.cli import build_parser, main
from eulerpade.errors import CutoffTooSmallError, InvalidPrimeError, PrecisionCapError
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


@pytest.mark.parametrize("excluded", ["4", "x"])
def test_limsup_exclude_p_refuses_a_non_prime(capsys, excluded):
    code, out, _ = run_cli(capsys, ["limsup", "--alphas", "1", "--exclude-p", excluded])
    assert code == 1 and out == ""
