"""Non-vanishing certificates for linear forms in Euler's series values.

The certificate record and its JSON reader, the scan that issues one, the
checker that re-derives it, the remainder of a Pade system at t = 1, and
ready-made linear forms for the worked examples (order-<=2 recurrences,
Fibonacci, even factorials).

A certificate asserts only non-vanishing: the truncated linear form has a
residue whose valuation sits strictly below a proven tail bound, which no
continuation of the series can cancel.  Exhaustion of the search space is
reported as "undetermined", never as vanishing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .arith import prime_range, squarefree_part
from .errors import OrderUnsupportedError, PrecisionCapError, RepeatedRootsError
from .numfield import (
    FieldElement,
    QuadraticField,
    _algebraic_integer,
    _parsed,
    _validated_alphas,
    _validated_lambdas,
)
from .padics import PRECISION_CAP, CompletionElement, linear_form_value
from .pade import PadeSystem
from .places import Place, places_above

# not used here: perfbench's tracer looks these four spans up on this module
from .bounds import constants_c1_c2, effective_bounds, limsup_sequence, residue_condition  # noqa: F401


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable non-vanishing record for one linear form.

    status "nonzero" means: at the recorded place and precision, the
    residue of the truncated linear form has valuation partial_valuation,
    strictly below both the precision and the proven tail bound, so the
    full value cannot vanish.  status "undetermined" carries no claim.
    """

    field_d: int | None
    lambdas: tuple[FieldElement, ...]
    alphas: tuple[FieldElement, ...]
    place: Place | None
    precision: int | None
    partial_valuation: Fraction | None
    tail_valuation_bound: Fraction | None
    status: str

    def to_json(self) -> dict:
        return {
            "field_d": self.field_d,
            "lambdas": [str(c) for c in self.lambdas],
            "alphas": [str(a) for a in self.alphas],
            "prime": None if self.place is None else self.place.p,
            "place": None if self.place is None else self.place.to_json(),
            "precision": self.precision,
            "partial_valuation": None if self.partial_valuation is None else str(self.partial_valuation),
            "tail_valuation_bound": None if self.tail_valuation_bound is None else str(self.tail_valuation_bound),
            "status": self.status,
        }


#: digits of precision verify_certificate adds to the certificate's own
VERIFY_EXTRA_DIGITS = 4


def _claimable_precision(precision) -> bool:
    """Whether a nonzero claim may carry this precision: an int (not a bool)
    that verify_certificate can raise by VERIFY_EXTRA_DIGITS within the cap;
    the scan's precision ladder ends at the last rung that is one."""
    return type(precision) is int and 1 <= precision <= PRECISION_CAP - VERIFY_EXTRA_DIGITS


def _parsed_list(obj: dict, key: str, d) -> tuple[FieldElement, ...]:
    """obj[key], a list of strings, parsed as elements of Q(sqrt(d)); a refusal names the key."""
    value = obj[key]
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    try:
        return tuple(_parsed(s, d) for s in value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _parsed_valuation(obj: dict, key: str) -> Fraction | None:
    """obj[key], null or a rational string; a refusal names the key."""
    value = obj[key]
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValueError(f"{key} must be null or a string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _validated_form(lambda_vec, alpha_vec, d) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
    """The scan's input rules: m nonzero, pairwise distinct algebraic-integer
    alphas and m + 1 algebraic-integer lambdas, not all zero.  A refusal
    names the vector it is about."""
    try:
        alphas = _validated_alphas(alpha_vec, d)
    except ValueError as exc:
        raise type(exc)(f"alphas: {exc}") from None
    try:
        lambdas = _validated_lambdas(lambda_vec, len(alphas), d)
        for c in lambdas:
            _algebraic_integer(c, d)
    except ValueError as exc:
        raise type(exc)(f"lambdas: {exc}") from None
    return lambdas, alphas


_field = functools.lru_cache(maxsize=64)(QuadraticField)  # memoized: building a field factors d


def _check_record(cert: Certificate) -> None:
    """The rules of a certificate, shared by the reader and the check: a known
    status; for a nonzero claim, every claim field, a claimable precision and
    int or Fraction valuations; an int precision; a field_d QuadraticField
    reads; tuples of m + 1 lambdas and m alphas, all algebraic integers; a
    place places_above lists.  Refuses with ValueError (TypeError for an
    entry that is no number)."""
    status, precision = cert.status, cert.precision
    nonzero = status == "nonzero"
    if not nonzero and status != "undetermined":
        raise ValueError(f"unknown certificate status {status!r}")
    pv, tb = cert.partial_valuation, cert.tail_valuation_bound
    if nonzero and (cert.place is None or precision is None or pv is None or tb is None):
        claim = ("place", "precision", "partial_valuation", "tail_valuation_bound")
        missing = [key for key in claim if getattr(cert, key) is None]
        raise ValueError(f"a nonzero certificate needs {', '.join(missing)}")
    if precision is not None and type(precision) is not int:
        raise ValueError(f"precision must be an int, got {precision!r}")
    if nonzero:
        if not _claimable_precision(precision):
            raise ValueError(f"precision {precision} is outside 1..{PRECISION_CAP - VERIFY_EXTRA_DIGITS}")
        if type(pv) not in (int, Fraction) or type(tb) not in (int, Fraction):
            raise ValueError(f"the valuations must be ints or Fractions, got {pv!r} and {tb!r}")
    d = cert.field_d
    if d is not None and type(d) is not int:
        raise ValueError(f"field_d must be null or an int, got {d!r}")
    try:
        K = _field(d)
    except PrecisionCapError as exc:  # squarefree is not settled within the factoring budget
        raise ValueError(f"field_d {d} cannot be read: {exc}") from None
    lambdas, alphas = cert.lambdas, cert.alphas
    if not (isinstance(lambdas, tuple) and isinstance(alphas, tuple)):
        raise ValueError("lambdas and alphas must be tuples")
    if len(lambdas) != len(alphas) + 1:
        raise ValueError(f"lambdas: expected {len(alphas) + 1} linear-form coefficients")
    for key, xs in (("alphas", alphas), ("lambdas", lambdas)):
        for x in xs:
            try:
                _algebraic_integer(x, d)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    v = cert.place
    if v is not None and not (isinstance(v, Place) and v in places_above(K, v.p)):
        raise ValueError(f"{K} has no place {v}")


def certificate_from_json(obj: object) -> Certificate:
    """Read back a to_json() record, refusing with ValueError what is not
    one (JSON types, keys, parsing), what breaks _check_record or the scan's
    input rules, a place whose e and f are not its own, and a prime other
    than the place's p (null without a place)."""
    if not isinstance(obj, dict):
        raise ValueError(f"a certificate record is a JSON object, not {type(obj).__name__}")
    for key in (*(f.name for f in fields(Certificate)), "prime"):  # to_json()'s keys
        if key not in obj:
            raise ValueError(f"the certificate record has no key {key!r}")
    place_obj = obj["place"]
    if place_obj is not None and not (
        isinstance(place_obj, dict) and place_obj.keys() >= {"p", "splitting", "e", "f"}
    ):
        raise ValueError(f"the place must be null or an object with p, splitting, e and f, got {place_obj!r}")
    d = obj["field_d"]
    alphas = _parsed_list(obj, "alphas", d)
    lambdas = _parsed_list(obj, "lambdas", d)
    place, p = None, None
    if place_obj is not None:
        p = place_obj["p"]
        if type(p) is not int:
            raise ValueError(f"the place's p must be an int, got {p!r}")
        place = Place(p, place_obj["splitting"], d)
    pv, tb = (_parsed_valuation(obj, key) for key in ("partial_valuation", "tail_valuation_bound"))
    cert = Certificate(d, lambdas, alphas, place, obj["precision"], pv, tb, obj["status"])
    _check_record(cert)
    _validated_form(lambdas, alphas, d)
    if place is not None:
        for key in ("e", "f"):
            got, want = place_obj[key], getattr(place, key)
            if type(got) is not int or got != want:
                raise ValueError(f"the place's {key} must be {want}, got {got!r}")
    prime = obj["prime"]
    if type(prime) is not type(p) or prime != p:
        want = "null without a place" if p is None else f"the place's p, {p}"
        raise ValueError(f"prime must be {want}, got {prime!r}")
    return cert


def certify_nonvanishing(
    K: QuadraticField,
    lambda_vec,
    alpha_vec,
    p_min: int,
    p_max: int,
    n_max: int = 64,
) -> Certificate:
    """Scan primes p_min..p_max for a place where the linear form provably
    does not vanish.

    Scan order is deterministic: ascending primes, places in the canonical
    order, precision doubling 4, 8, ... up to n_max (an int, at least 4), and
    never to a rung no claim could carry (_claimable_precision: 2048 at
    most).  The first residue whose valuation drops strictly below both the
    precision and the tail bound is re-verified at four more digits and
    returned; running out of places yields an "undetermined" certificate
    with precision n_max, never a claim of vanishing.  Each rung decides on
    ints, in half-units: twice the valuation against twice the precision
    and, cross-multiplied, twice the tail bound.  The record's Fractions are
    built only for a claim.
    """
    lambdas, alphas = _validated_form(lambda_vec, alpha_vec, K.d)
    if type(n_max) is not int:
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    for p in prime_range(p_min, p_max):
        for v in places_above(K, p):
            n = 4
            while n <= n_max and _claimable_precision(n):
                value, tail = linear_form_value(lambdas, alphas, v, n)
                w2 = value.half_valuation()  # w_v of the residue in half-units
                if w2 is not None and w2 < 2 * n and w2 * tail.denominator < 2 * tail.numerator:
                    cert = Certificate(
                        K.d, lambdas, alphas, v, n, Fraction(w2, 2), tail, "nonzero"
                    )
                    if not verify_certificate(cert):
                        raise RuntimeError("re-verification failed; evaluator inconsistent")
                    return cert
                n *= 2
    return Certificate(K.d, lambdas, alphas, None, n_max, None, None, "undetermined")


def verify_certificate(cert: Certificate) -> bool:
    """Whether a certificate keeps the rules of _check_record and, if nonzero,
    reproduces at higher precision: its residue valuation exactly, below its
    precision and tail bound, which the recomputed tail bound must reach (in
    half-units, cross-multiplied).  An undetermined one claims nothing.  A
    re-evaluation over the term budget of padics is not decided: the
    evaluator's PrecisionCapError, naming the sum, comes out unchanged."""
    try:
        _check_record(cert)
    except (TypeError, ValueError):
        return False
    if cert.status != "nonzero":
        return True
    value, tail = linear_form_value(cert.lambdas, cert.alphas, cert.place, cert.precision + VERIFY_EXTRA_DIGITS)
    w2 = value.half_valuation()
    # w2 / 2 against the record's int or Fraction valuations, cross-multiplied
    pv, tb = cert.partial_valuation, cert.tail_valuation_bound
    return (
        w2 is not None
        and w2 * pv.denominator == 2 * pv.numerator
        and w2 < 2 * cert.precision
        and w2 * tb.denominator < 2 * tb.numerator
        and tb.numerator * tail.denominator <= tail.numerator * tb.denominator
    )


# ---------------------------------------------------------------------------
# Pade remainders


def remainder_at_unity(system: PadeSystem, v: Place, j: int, precision: int) -> CompletionElement:
    """The residue mod p^precision of s_{l,mu,j} = B_0(1) F_v(alpha_j) - B_j(1).

    The infinite remainder series is never summed directly: s_{l,mu,j} is
    the linear form (-B_j(1), B_0(1)) at the one point alpha_j, and the
    listed precision is honest because B_0(1) and B_j(1) are algebraic
    integers.  Systems over any other P are refused, since their B_0
    multiplies another series.
    """
    if (system.p0, system.p1) != (1, 1):
        raise ValueError("remainder_at_unity needs Euler's series, P(x) = 1 + x")
    if not 1 <= j <= system.m:
        raise ValueError(f"j must be in 1..{system.m}")
    lambdas = (-system.B[j](1), system.B[0](1))
    return linear_form_value(lambdas, (system.alpha[j - 1],), v, precision)[0]


# ---------------------------------------------------------------------------
# ready-made linear forms for the worked examples


def recurrence_to_linear_form(c_vec, init) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...], int]:
    """Reduce x_n = c_1 x_{n-1} + ... + c_k x_{n-k} (k <= 2, distinct roots)
    to sum_i b_i F(alpha_i) = d * sum_n n! x_n.

    The characteristic roots alpha_i are algebraic integers (the polynomial
    is monic with integer coefficients); the solution weights a_i are solved
    exactly, d clears their denominators, and b_i = d*a_i.
    """
    c_vec = tuple(int(c) for c in c_vec)
    init = tuple(int(x) for x in init)
    k = len(c_vec)
    if k > 2:
        raise OrderUnsupportedError("only recurrences of order <= 2 are reduced")
    if k == 0 or c_vec[-1] == 0:
        raise ValueError("the leading recurrence coefficient c_k must be nonzero")
    if len(init) != k:
        raise ValueError(f"expected {k} initial values")
    if k == 1:
        K = QuadraticField()
        return (K(c_vec[0]),), (K(init[0]),), 1
    c1, c2 = c_vec
    disc = c1 * c1 + 4 * c2
    if disc == 0:
        raise RepeatedRootsError("the characteristic polynomial has a double root")
    s = squarefree_part(disc)
    f = math.isqrt(disc // s)
    if s == 1:
        K = QuadraticField()
        r1, r2 = K(Fraction(c1 + f, 2)), K(Fraction(c1 - f, 2))
    else:
        K = QuadraticField(s)
        r1, r2 = K(Fraction(c1, 2), Fraction(f, 2)), K(Fraction(c1, 2), Fraction(-f, 2))
    x0, x1 = K(init[0]), K(init[1])
    a1 = (x1 - x0 * r2) / (r1 - r2)
    a2 = x0 - a1
    d = math.lcm(a1.denominator(), a2.denominator())
    return (r1, r2), (a1 * d, a2 * d), d


def fibonacci_linear_form(a: int, b: int):
    """The linear form certifying sum_n n! f_n != a/b over Q(sqrt(5)).

    Reduces the Fibonacci recurrence to d * sum n! f_n = sum_i b_i F(alpha_i)
    with d = 5 and returns (K, lambdas, alphas) for lambda_0 = d*a,
    lambda_i = -b * b_i.
    """
    if b == 0:
        raise ValueError("the target denominator b must be nonzero")
    alphas, bs, d = recurrence_to_linear_form((1, 1), (0, 1))
    K = QuadraticField(alphas[0].d)
    lambdas = (K(d * a),) + tuple(-b * bi for bi in bs)
    return K, lambdas, alphas


def even_factorial_linear_form(a: int, b: int):
    """The linear form certifying sum_n (2n)! != a/b over Q.

    F(1) + F(-1) = 2 * sum (2n)!, so lambda = (2a, -b, -b) at alpha = (1, -1).
    """
    if b == 0:
        raise ValueError("the target denominator b must be nonzero")
    K = QuadraticField()
    return K, (K(2 * a), K(-b), K(-b)), (K(1), K(-1))
