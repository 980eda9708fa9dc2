"""Adversarial certificate records: valid records with one or two fields
changed must be refused by name, or checked to a bool, and a record that
verifies must pass an oracle written here.

The oracle shares no code with the evaluator: it sums each series exactly
in K up to an index M whose Legendre bound v_p(M!) passes the claimed
valuation, so every dropped term lies strictly above the claim, and values
the truncated form at the place itself.  It imports nothing from padics.
"""

import copy
import dataclasses
import functools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from eulerpade.certify import (
    VERIFY_EXTRA_DIGITS,
    Certificate,
    certificate_from_json,
    certify_nonvanishing,
    even_factorial_linear_form,
    fibonacci_linear_form,
    verify_certificate,
)
from eulerpade.numfield import FieldElement, QuadraticField
from eulerpade.places import Place, places_above


def _vp(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _legendre(p: int, n: int) -> int:
    """v_p(n!)."""
    k, q = 0, p
    while q <= n:
        k += n // q
        q *= p
    return k


def _truncation(lambdas, alphas, M: int):
    """lambda_0 + sum_j lambda_j sum_{n<M} n! alpha_j^n, exactly."""
    total = lambdas[0]
    for lam, alpha in zip(lambdas[1:], alphas):
        term, partial = alpha * 0 + 1, alpha * 0
        for n in range(M):
            partial = partial + term
            term = term * (n + 1) * alpha
        total = total + lam * partial
    return total


def _split_image(v: Place, x: FieldElement, k: int) -> int:
    """The image of x mod p^k in Z_p at a split place (v_p(c) = 0)."""
    A, B, c = x.integral_form()
    mod = v.p**k
    return (A + B * v.hensel_root(k)) * pow(c, -1, mod) % mod


def _valuation(v: Place, x: FieldElement) -> Fraction:
    """w_v(x) for x != 0, from the integral form (A + B*sqrt(d))/c."""
    A, B, c = x.integral_form()
    p = v.p
    if v.splitting == "rational":
        return Fraction(_vp(A, p) - _vp(c, p))
    if v.splitting in ("inert", "ramified"):
        # the one place above p: w_v is half of v_p of the norm
        return Fraction(_vp(A * A - v.d * B * B, p) - 2 * _vp(c, p), 2)
    # a split place: the image of x mod p^k, for the least k where it is not 0
    k = 1
    while not (image := (A + B * v.hensel_root(k)) % p**k):
        k += 1
    return Fraction(_vp(image, p) - _vp(c, p))


def _tail_bound(cert, precision: int) -> Fraction:
    """The tail bound of the cut made for `precision`: for each lambda_j != 0
    (j >= 1), w_v(lambda_j) plus the term bound v_p(N!) + N*w_v(alpha_j) at
    the least N where that bound reaches the precision; the precision itself
    when every such lambda_j is 0."""
    v, bounds = cert.place, []
    for lam, alpha in zip(cert.lambdas[1:], cert.alphas):
        if lam:
            w = _valuation(v, alpha)
            N = 0
            while _legendre(v.p, N) + N * w < precision:
                N += 1
            bounds.append(_valuation(v, lam) + _legendre(v.p, N) + N * w)
    return min(bounds, default=Fraction(precision))


def _claim_holds(cert) -> bool:
    """The oracle: an undetermined record claims nothing; a nonzero one
    holds when its form and place are well formed and the form has exactly
    the claimed valuation, below its precision and its tail bound."""
    if cert.status == "undetermined":
        return True
    if cert.status != "nonzero":
        return False
    if not (cert.field_d is None or type(cert.field_d) is int):
        return False
    try:
        K = QuadraticField(cert.field_d)
    except ValueError:
        return False
    v, n, w, tail = cert.place, cert.precision, cert.partial_valuation, cert.tail_valuation_bound
    if not (isinstance(v, Place) and v in places_above(K, v.p)):
        return False
    if type(n) is not int or not all(type(x) in (int, Fraction) for x in (w, tail)):
        return False
    if not (0 <= w < n and w < tail):
        return False
    lambdas, alphas = cert.lambdas, cert.alphas
    if not (isinstance(lambdas, tuple) and isinstance(alphas, tuple)):
        return False
    if len(lambdas) != len(alphas) + 1:
        return False
    # a rational element lies in every field, whatever field it was made in
    for x in lambdas + alphas:
        if not (isinstance(x, FieldElement) and (x.d in (None, K.d) or not x.y)):
            return False
    lambdas, alphas = (tuple(K(x.x, x.y) for x in xs) for xs in (lambdas, alphas))
    if not all(x.is_algebraic_integer() for x in lambdas + alphas):
        return False
    # every term from M on has w_v >= v_p(M!) > w
    M = 0
    while _legendre(v.p, M) <= w:
        M += 1
    value = _truncation(lambdas, alphas, M)
    return bool(value) and _valuation(v, value) == w


def _annihilating_constant(K, v: Place, alpha, k: int) -> int:
    """An int lambda_0 with w_v(lambda_0 + F_v(alpha)) >= k at a rational or
    split place v: minus the image of F_v(alpha) mod p^k."""
    M = 0
    while _legendre(v.p, M) < k:
        M += 1
    value = _truncation((K(0), K(1)), (alpha,), M)
    if v.splitting == "rational":
        A, _, c = value.integral_form()
        return -A * pow(c, -1, v.p**k) % v.p**k
    return -_split_image(v, value, k)


@functools.cache
def _seeds():
    """Valid records, as certificates, from the certify, fib and evenfact
    linear forms: both statuses and every kind of place."""
    KQ, K5, Km1 = QuadraticField(), QuadraticField(5), QuadraticField(-1)
    s5 = K5(0, 1)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    forms = [
        (KQ, [1, 1], [1], 2, 50, 64),
        (KQ, [3, -1, 2], [1, -1], 2, 50, 64),
        (K5, [1, s5, 2], [phi, 1 + s5], 5, 5, 64),  # ramified
        (K5, [1, 1, -1], [2 + s5, 3], 11, 11, 64),  # split_1
        (K5, [2, 1], [s5], 3, 3, 64),  # inert
        (Km1, [1, Km1(1, 1)], [Km1(0, 1)], 2, 2, 64),  # ramified at 2
        (Km1, [1, 2, 1], [Km1(1, 1), 3], 7, 7, 64),  # inert
        (*fibonacci_linear_form(1, 1), 2, 50, 64),
        (*fibonacci_linear_form(3, 7), 2, 50, 64),
        (*even_factorial_linear_form(1, 1), 2, 50, 64),
        (*even_factorial_linear_form(5, 3), 2, 50, 64),
    ]
    # a form that vanishes to w_v >= 4 at split_1@11, so the scan at
    # precision 4 passes on to split_2, and one at rational@11 that leaves
    # the scan undetermined
    split_1 = places_above(K5, 11)[0]
    forms.append((K5, [_annihilating_constant(K5, split_1, 2 + s5, 4), 1], [2 + s5], 11, 11, 4))
    (rational,) = places_above(KQ, 11)
    forms.append((KQ, [_annihilating_constant(KQ, rational, KQ(3), 4), 1], [3], 11, 11, 4))
    forms.append((KQ, [1, 1], [1], 4, 4, 8))  # no prime in range: undetermined
    seeds = []
    for K, lambdas, alphas, p_min, p_max, n_max in forms:
        cert = certify_nonvanishing(K, lambdas, alphas, p_min, p_max, n_max)
        assert verify_certificate(cert) and _claim_holds(cert)
        seeds.append(cert)
    return seeds


def test_seeds_cover_both_statuses_and_every_place_kind():
    kinds = {c.place.splitting for c in _seeds() if c.place is not None}
    assert kinds == {"rational", "split_1", "split_2", "inert", "ramified"}
    assert {c.status for c in _seeds()} == {"nonzero", "undetermined"}


_ELEMENTS = ["0", "1", "-1", "2", "3", "1/2", "0,1", "1,1", "1/2,1/2", "2,-1", "x", ""]
_PRIMES = [None, 2, 3, 5, 7, 11, 13, 97, 4, 1, 0, -5, "2", 2.0, True]
_KINDS = ["rational", "split_1", "split_2", "inert", "ramified", "bogus", None]


def _list_mutants(values, extras, other_types):
    """values with one entry replaced, one dropped or one added, or another type."""
    out = [values[:i] + [e] + values[i + 1 :] for i in range(len(values)) for e in extras]
    out += [values[:i] + values[i + 1 :] for i in range(len(values))]
    return out + [values + [e] for e in extras] + other_types


def _near(x, kinds):
    """Values near the rational x, then others of the given kinds."""
    x = Fraction(0) if x is None else Fraction(x)
    return [x + delta for delta in (-1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 100)] + kinds


@functools.cache
def _record_mutants(i: int) -> dict:
    """For seed i, the new values each field of its JSON record may take."""
    record = _seeds()[i].to_json()
    n = record["precision"] or 8
    place = record["place"] or {"p": 2, "splitting": "rational", "e": 1, "f": 1}
    small = [1, 2, 3, "1", True]
    values = {"p": _PRIMES, "splitting": _KINDS, "e": small, "f": small}
    return {
        "status": ["nonzero", "undetermined", "zero", "", None, 1],
        "field_d": [None, 5, -1, 2, 3, -3, 13, 4, 0, 1, "5", 5.0, True],
        "lambdas": _list_mutants(record["lambdas"], _ELEMENTS, ["1", None, [1]]),
        "alphas": _list_mutants(record["alphas"], _ELEMENTS, ["1", None, [1]]),
        "prime": _PRIMES,
        "place": [None] + [{**place, k: x} for k, xs in values.items() for x in xs],
        "precision": [n - 1, n + 1, 2 * n, 1, 2, 0, -1, 64, 4093, True, "4", 4.0, None],
        "partial_valuation": [str(x) for x in _near(record["partial_valuation"], [])]
        + ["x", "1/0", None, 0, 1.5],
        "tail_valuation_bound": [str(x) for x in _near(record["tail_valuation_bound"], [])]
        + [record["partial_valuation"], "x", "1/0", None, 0, 1.5],
    }


@functools.cache
def _object_mutants(i: int) -> dict:
    """For seed i, the new values each field of its Certificate may take past
    the reader: places not from places_above, lists in place of tuples,
    elements of another field, and numbers of any type."""
    cert = _seeds()[i]
    K = QuadraticField(cert.field_d)
    other = QuadraticField(5 if cert.field_d is None else None)
    p = cert.place.p if cert.place is not None else 2
    places = [None, "rational@2"]
    for d in (None, 5, -1):
        for q in (2, 3, 5, 11, p):
            places += places_above(QuadraticField(d), q)
        places += [Place(p, kind, d) for kind in _KINDS[:5]]
    extras = [K(1), K(2), K(0), K(Fraction(1, 2)), other(1), cert.alphas[0]]
    n = cert.precision or 8
    return {
        "status": ["nonzero", "undetermined", "zero", None],
        "field_d": [None, 5, -1, 2, 3, 13, 4, "5", 5.0],
        "lambdas": [tuple(x) for x in _list_mutants(list(cert.lambdas), extras, [])]
        + [list(cert.lambdas)],
        "alphas": [tuple(x) for x in _list_mutants(list(cert.alphas), extras, [])]
        + [list(cert.alphas)],
        "place": places,
        "precision": [n - 1, n + 1, 2 * n, 1, 0, -1, 64, 4093, True, "4", 4.0, None],
        "partial_valuation": _near(cert.partial_valuation, [0, 1, 1.5, "0", None, True]),
        "tail_valuation_bound": _near(
            cert.tail_valuation_bound, [cert.partial_valuation, 0, 1, 1.5, "0", None, True]
        ),
    }


def _mutants(keys):
    """(seed, [(key, candidate)] of one or two keys), indices taken modulo."""
    return st.tuples(
        st.integers(0, 10**6),
        st.lists(
            st.tuples(st.sampled_from(keys), st.integers(0, 10**6)),
            min_size=1,
            max_size=2,
            unique_by=lambda t: t[0],
        ),
    )


_OBJECT_KEYS = [f.name for f in dataclasses.fields(Certificate)]
_RECORD_KEYS = _OBJECT_KEYS + ["prime"]


def _mutated(fields: dict, choices, table: dict) -> dict:
    """fields with each chosen key set to one of its candidate values."""
    for key, j in choices:
        candidates = table[key]
        fields[key] = candidates[j % len(candidates)]
    return fields


@settings(max_examples=1200, deadline=None)
@given(_mutants(_RECORD_KEYS))
@example((0, [("tail_valuation_bound", 6)]))  # the tail bound set to the valuation
def test_mutated_records_are_refused_by_name_or_checked(mutant):
    i, choices = mutant[0] % len(_seeds()), mutant[1]
    record = _mutated(copy.deepcopy(_seeds()[i].to_json()), choices, _record_mutants(i))
    try:
        cert = certificate_from_json(record)
    except ValueError as exc:
        assert str(exc)
        return
    ok = verify_certificate(cert)
    assert type(ok) is bool
    if ok:
        assert _claim_holds(cert), record


@settings(max_examples=1000, deadline=None)
@given(_mutants(_OBJECT_KEYS))
@example((0, [("lambdas", 14)]))  # a lambda appended
@example((0, [("place", 12)]))  # a place of Q(sqrt 5) on a record over Q
@example((0, [("partial_valuation", 3)]))  # the valuation moved by 1
def test_mutated_certificates_verify_only_when_the_claim_holds(mutant):
    i, choices = mutant[0] % len(_seeds()), mutant[1]
    cert = Certificate(**_mutated(vars(_seeds()[i]).copy(), choices, _object_mutants(i)))
    ok = verify_certificate(cert)
    assert type(ok) is bool
    if ok:
        assert _claim_holds(cert), cert


def test_oracle_refuses_a_moved_valuation():
    # the oracle is not vacuous: each valid claim holds, and the same record
    # with its valuation moved but still below its precision does not
    checked = 0
    for cert in _seeds():
        if cert.status != "nonzero":
            continue
        assert _claim_holds(cert)
        for w in (cert.partial_valuation + Fraction(1, 2), cert.partial_valuation + 1):
            if w < cert.precision:
                assert not _claim_holds(dataclasses.replace(cert, partial_valuation=w))
                checked += 1
    assert checked >= 10


def test_a_verified_tail_bound_is_one_the_oracle_proves():
    # the scan records the oracle's tail bound at its precision; the check
    # accepts a tail bound above the claimed valuation only up to the
    # oracle's at the precision the check evaluates at, so an overstated
    # tail bound does not verify
    checked = 0
    for cert in _seeds():
        if cert.status != "nonzero":
            continue
        assert cert.tail_valuation_bound == _tail_bound(cert, cert.precision)
        reach = _tail_bound(cert, cert.precision + VERIFY_EXTRA_DIGITS)
        for delta in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 100):
            tail = reach + delta
            if tail > cert.partial_valuation:
                ok = verify_certificate(dataclasses.replace(cert, tail_valuation_bound=tail))
                assert ok == (delta <= 0), (cert, tail)
                checked += 1
    assert checked >= 30
