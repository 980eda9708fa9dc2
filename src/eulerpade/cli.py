"""Command-line front end with JSON output.

Grammar:
    eulerpade <pade|eval|certify|bounds|limsup|fib|evenfact|residue|verify> [options]

All numeric inputs are exact rational strings ("3", "-1/2", "1/2,1/2" for
field elements) except --logH, which is a float.  `verify [FILE|-]` reads
one certificate record from FILE, or from stdin when FILE is "-" or
omitted, and checks it:

    eulerpade fib --a 1 --b 1 --json | eulerpade verify

Exit codes: 0 on success, 2 when a certificate search ends undetermined, 1
on input errors and on a certificate that does not verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .arith import is_prime
from .bounds import (
    ValuationSetDescriptor,
    _limsup_values,
    constants_c1_c2,
    effective_bounds,
    monotone_decrease_onset,
    residue_condition,
)
from .certify import (
    certificate_from_json,
    certify_nonvanishing,
    even_factorial_linear_form,
    fibonacci_linear_form,
    verify_certificate,
)
from .errors import EulerPadeError, InvalidPrimeError, PrecisionCapError
from .numfield import QuadraticField
from .pade import pade_construct, pade_order_check
from .padics import euler_eval_certified
from .places import places_above


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _field(args) -> QuadraticField:
    return QuadraticField(args.field)


def _parse_elems(K: QuadraticField, text: str):
    return tuple(K.parse(part) for part in text.split(";") if part.strip())


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _cmd_pade(args) -> int:
    K = _field(args)
    alphas = _parse_elems(K, args.alphas)
    system = pade_construct(args.m, args.l, args.mu, alphas)
    cutoff = system.order_target + 6 if args.cutoff is None else args.cutoff
    order = pade_order_check(system, cutoff)
    payload = system.to_json()
    payload["order"] = order
    payload["order_target"] = system.order_target
    lines = [f"Pade system m={args.m} l={args.l} mu={args.mu} alphas={args.alphas}"]
    for i, poly in enumerate(system.B):
        lines.append(f"  B_{i}: {poly.to_json()['coeffs']}")
    lines.append(f"  remainder order {order} (target >= {system.order_target})")
    _emit(args, payload, "\n".join(lines))
    return 0


def _check_printable(p: int, prec: int) -> None:
    """Refuse, before summing, a residue mod p^prec too long for str(int)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 means no limit
    bits = p.bit_length()
    # 2^(prec*(bits-1)) <= p^prec < 2^(prec*bits): below 8^limit < 10^limit or
    # past 16^limit > 10^limit, neither power is built
    if limit and prec > 0 and prec * bits > 3 * limit and (
        prec * (bits - 1) >= 4 * limit or p**prec >= 10**limit
    ):
        raise PrecisionCapError(f"a residue mod {p}^{prec} can exceed {limit} decimal digits")


def _cmd_eval(args) -> int:
    K = _field(args)
    alpha = K.parse(args.alpha)
    places = places_above(K, args.p)
    _check_printable(args.p, args.prec)
    results = [euler_eval_certified(v, alpha, args.prec).to_json() for v in places]
    lines = [
        f"F(alpha) at {r['place']}@{r['p']}: residue {r['residue']} mod {args.p}^{r['N']}, "
        f"tail valuation >= {r['tail_valuation_bound']} ({r['terms_used']} terms)"
        for r in results
    ]
    _emit(args, {"values": results}, "\n".join(lines))
    return 0


def _cmd_certificate(args) -> int:
    K, lambdas, alphas = args.linear_form(args)
    if args.p is not None:
        if not is_prime(args.p):
            raise InvalidPrimeError(f"--p {args.p} is not prime")
        p_min, p_max = args.p, args.p
    else:
        p_min, p_max = args.pmin, args.pmax
    cert = certify_nonvanishing(K, lambdas, alphas, p_min, p_max, args.prec)
    payload = cert.to_json()
    if cert.status == "nonzero":
        human = (
            f"nonzero at {cert.place} (precision {cert.precision}): "
            f"partial valuation {cert.partial_valuation} < tail bound {cert.tail_valuation_bound}"
        )
    else:
        human = "undetermined: no certifying place found in the scanned range"
    _emit(args, payload, human)
    return 0 if cert.status == "nonzero" else 2


def _certify_form(args):
    K = _field(args)
    return K, _parse_elems(K, args.lambdas), _parse_elems(K, args.alphas)


def _cmd_bounds(args) -> int:
    report = effective_bounds(args.m, args.kappa, args.c1, args.logH)
    human = (
        f"s = {report.s}, ell = {report.ell}, N(ell) = {report.n_ell:.6g}, "
        f"N(ell+1) = {report.n_ell_plus_1:.6g}\n"
        f"prime interval ]{report.interval_lo:.6g}, {report.interval_hi:.6g}[\n"
        f"lower-bound exponent {report.exponent:.9g}"
    )
    _emit(args, report.to_json(), human)
    return 0


def _cmd_limsup(args) -> int:
    K = _field(args)
    alphas = _parse_elems(K, args.alphas)
    if args.exclude_p:
        excluded = []
        for p_text in args.exclude_p.split(","):
            excluded.extend(places_above(K, int(p_text)))
        descriptor = ValuationSetDescriptor.cofinite(excluded)
    else:
        descriptor = ValuationSetDescriptor.all_places()
    c1, c2 = constants_c1_c2(K, alphas, descriptor)
    values = _limsup_values(K, len(alphas), c2, descriptor, args.lmax)
    onset = monotone_decrease_onset(values)
    payload = {
        "c1": c1,
        "c2": c2,
        "log_values": values,
        "decreasing_from": onset,
        "note": "finite-prefix evidence for the decay condition, not a proof",
    }
    lines = [f"c1 = {c1:.6g}, c2 = {c2:.6g} (evidence only, finite prefix)"]
    for i, val in enumerate(values, start=1):
        lines.append(f"  l = {i}: log value {val:.6g}")
    lines.append(
        f"strictly decreasing from l = {onset}" if onset else "no decreasing tail yet"
    )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_residue(args) -> int:
    ok, slope = residue_condition(args.n, args.r, args.m)
    payload = {"n": args.n, "r": args.r, "m": args.m, "ok": ok, "slope": slope}
    human = (
        f"r = {args.r} classes mod {args.n} with m = {args.m}: "
        f"{'sufficient' if ok else 'not sufficient'} (slope {slope:.6g})"
    )
    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    try:
        text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
        record = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    cert = certificate_from_json(record)
    if not verify_certificate(cert):  # a check over the term budget raises PrecisionCapError, naming it
        raise ValueError("the certificate does not verify")
    if cert.status == "nonzero":
        human = f"verified: nonzero at {cert.place} (precision {cert.precision})"
    else:
        human = "verified: undetermined, the record claims nothing"
    place = None if cert.place is None else cert.place.to_json()
    _emit(args, {"verified": True, "status": cert.status, "place": place}, human)
    return 0


def _add_common(p, field=True):
    if field:
        p.add_argument("--field", type=int, default=None, help="squarefree d of Q(sqrt(d)); omit for Q")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_certificate(p, linear_form):
    p.add_argument("--prec", type=int, default=64, help="precision ladder cap")
    p.add_argument("--p", type=int, default=None, help="single prime to scan")
    p.add_argument("--pmin", type=int, default=2)
    p.add_argument("--pmax", type=int, default=50)
    p.set_defaults(func=_cmd_certificate, linear_form=linear_form)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eulerpade", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # each subcommand's name to its parser, filled below

    p = sub.add_parser("pade", help="construct a Pade system and check its remainder order")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--alphas", required=True, help='evaluation points "x,y;x,y;..."')
    p.add_argument("--cutoff", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_pade)

    p = sub.add_parser("eval", help="certified residue of Euler's series at a point")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--prec", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("certify", help="search for a non-vanishing certificate")
    p.add_argument("--lambdas", required=True, help='coefficients "l0;l1;..."')
    p.add_argument("--alphas", required=True)
    _add_certificate(p, _certify_form)
    _add_common(p)

    p = sub.add_parser("bounds", help="explicit interval and exponent at a given height")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--logH", type=float, required=True)
    _add_common(p, field=False)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("limsup", help="diagnostic decay sequence (evidence, not proof)")
    p.add_argument("--alphas", required=True)
    p.add_argument("--lmax", type=int, default=40)
    p.add_argument("--exclude-p", default="", help='primes whose places leave V, e.g. "2,3"')
    _add_common(p)
    p.set_defaults(func=_cmd_limsup)

    p = sub.add_parser("fib", help="certify sum n! f_n != a/b over Q(sqrt(5))")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_certificate(p, lambda args: fibonacci_linear_form(args.a, args.b))
    _add_common(p, field=False)

    p = sub.add_parser("evenfact", help="certify sum (2n)! != a/b over Q")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_certificate(p, lambda args: even_factorial_linear_form(args.a, args.b))
    _add_common(p, field=False)

    p = sub.add_parser("residue", help="residue-class sufficiency test")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p, field=False)
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("verify", help="check a certificate record that certify, fib or evenfact printed")
    p.add_argument("file", nargs="?", default="-", help='JSON record; "-" or omitted reads stdin')
    _add_common(p, field=False)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: parse_args leaves a
    parser unchanged and returns a fresh Namespace, so one serves them all."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:  # no argv, -h, an unknown name or a leading --
        args = parser.parse_args(argv)
    else:
        # parser would pass every string after the name unread to sub; strings
        # sub leaves over are the top level's "unrecognized arguments"
        args, extras = sub.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (EulerPadeError, ValueError, ZeroDivisionError) as exc:
        print(f"eulerpade: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
