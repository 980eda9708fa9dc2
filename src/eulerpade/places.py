"""Non-Archimedean places of Q and of quadratic fields, with exact valuations.

Valuations w_v are normalized so that w_v(p) = 1; at a ramified place the
uniformizer then has w_v = 1/2, so values live in (1/2)Z.  Absolute values
are only ever materialized in log-space, as the exact rational c =
w_v(x) * kappa_v / kappa with ||x||_v = p^(-c), which keeps the
non-Archimedean side of the product formula exactly checkable.  Every Place
the package builds comes from places_above.

At rational and split places one integer image of the integral form
(A + B*sqrt(d))/c gives both residues and exact valuations, split ones from
a single lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    canonical_sqrt_mod,
    factorize,
    is_prime,
    legendre_symbol,
    padic_ord,
    padic_ord_int,
)
from .errors import InvalidPrimeError, ZeroElementError
from .numfield import FieldElement, QuadraticField, _as_elem, arch_abs_normalized

RATIONAL = "rational"
SPLIT_1 = "split_1"
SPLIT_2 = "split_2"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class Place:
    """A non-Archimedean place v|p of Q(sqrt(d)) (or of Q itself)."""

    p: int
    splitting: str
    d: int | None

    @property
    def e(self) -> int:
        return 2 if self.splitting == RAMIFIED else 1

    @property
    def f(self) -> int:
        return 2 if self.splitting == INERT else 1

    @property
    def kappa_v(self) -> int:
        return self.e * self.f

    @property
    def kappa(self) -> int:
        return 1 if self.d is None else 2

    def hensel_root(self, n: int) -> int:
        """The split embedding of sqrt(d): the canonical root of d mod p^n.

        split_1 uses the canonical root, split_2 its negative.
        """
        if self.splitting not in (SPLIT_1, SPLIT_2):
            raise ValueError(f"{self.splitting} place has no split embedding")
        r = canonical_sqrt_mod(self.d, self.p, n)
        return r if self.splitting == SPLIT_1 else (self.p**n - r) % self.p**n

    def to_json(self) -> dict:
        return {"p": self.p, "splitting": self.splitting, "e": self.e, "f": self.f}

    def __str__(self) -> str:
        return f"{self.splitting}@{self.p}"


def places_above(K: QuadraticField, p: int) -> list[Place]:
    """All places of K above the prime p, in canonical order.

    For odd p the splitting is read off the Legendre symbol (d|p); for
    p = 2 the maximal-order convention applies: d = 1 mod 8 splits,
    d = 5 mod 8 is inert, anything else ramifies.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    if K.d is None:
        return [Place(p, RATIONAL, None)]
    d = K.d
    if p == 2:
        if d % 8 == 1:
            return [Place(2, SPLIT_1, d), Place(2, SPLIT_2, d)]
        if d % 8 == 5:
            return [Place(2, INERT, d)]
        return [Place(2, RAMIFIED, d)]
    if d % p == 0:
        return [Place(p, RAMIFIED, d)]
    if legendre_symbol(d, p) == 1:
        return [Place(p, SPLIT_1, d), Place(p, SPLIT_2, d)]
    return [Place(p, INERT, d)]


def _integer_image(v: Place, a: FieldElement, n: int | None = None) -> tuple[int, int, int]:
    """(image, k, c) for a = (A + B*sqrt(d))/c at a rational or split place v.

    (A, B, c) is a's integral form, B = 0 over Q; k = v_p(c), and image is
    A + B*r mod p^(n+k), r the embedding of sqrt(d) at v.  With n None
    (a != 0) the image has v_p(A^2 - d*B^2) + 1 digits: A + B*sqrt(d) is
    integral at every place above p, so its w_v is at most that norm's v_p,
    and v_p(image) is w_v(A + B*sqrt(d)).
    """
    p = v.p
    A, B, c = a.integral_form()
    k = padic_ord_int(c, p)
    digits = n + k if n is not None else padic_ord_int(A * A - (v.d or 0) * B * B, p) + 1
    if v.d is not None:
        A += B * v.hensel_root(digits)
    return A % p**digits, k, c


def valuation(v: Place, a: FieldElement) -> Fraction:
    """Exact w_v(a), normalized so w_v(p) = 1."""
    a = _as_elem(a, v.d)
    if not a:
        raise ZeroElementError("w_v(0) is undefined")
    if v.splitting in (RATIONAL, SPLIT_1, SPLIT_2):
        image, k, _ = _integer_image(v, a)
        return Fraction(padic_ord_int(image, v.p) - k)
    # inert and ramified places: w_v(a) = v_p(norm(a)) / 2, with e = 2
    # making half-integers possible only in the ramified case
    return Fraction(padic_ord(a.norm(), v.p), 2)


def normalized_abs_log(v: Place, a: FieldElement) -> Fraction:
    """The exact c with ||a||_v = p^(-c): c = w_v(a) * kappa_v / kappa."""
    return valuation(v, a) * Fraction(v.kappa_v, v.kappa)


def factorial_valuation(p: int, n: int) -> int:
    """v_p(n!) by Legendre's formula sum_i floor(n / p^i)."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def product_formula_defect(K: QuadraticField, a: FieldElement) -> float:
    """|sum_v ln||a||_v| over all places; exactly 0 in theory.

    Non-Archimedean contributions are exact rationals times ln p (only the
    primes dividing the norm's numerator or denominator contribute); the
    Archimedean contributions are floats, so the defect is float roundoff.
    """
    if not a:
        raise ZeroElementError("the product formula needs a nonzero element")
    total = 0.0
    for _, val in arch_abs_normalized(K, a):
        total += math.log(val)
    for p, coeff in nonarch_log_coefficients(K, a).items():
        total -= float(coeff) * math.log(p)
    return abs(total)


def nonarch_log_coefficients(K: QuadraticField, a: FieldElement) -> dict[int, Fraction]:
    """Per-prime exact coefficients c_p with prod_{v|p} ||a||_v = p^(-c_p)."""
    n = a.norm()
    return {
        p: sum(normalized_abs_log(v, a) for v in places_above(K, p))
        for p in sorted(factorize(n.numerator) | factorize(n.denominator))
    }
