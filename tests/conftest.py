import random
from fractions import Fraction

import pytest

from eulerpade.numfield import FieldElement, QuadraticField
from eulerpade.padics import CompletionElement
from eulerpade.polys import Poly


@pytest.fixture
def K5():
    return QuadraticField(5)


@pytest.fixture
def KQ():
    return QuadraticField()


@pytest.fixture
def Km1():
    return QuadraticField(-1)


@pytest.fixture
def over_budget_record():
    """A nonzero certificate record at rational@47 that certificate_from_json
    accepts and whose re-evaluation at precision 4096 needs 188470 terms of
    a 355-word p^N, over padics.TERM_BUDGET."""
    return {
        "field_d": None, "lambdas": ["1", "1"], "alphas": ["1"], "prime": 47,
        "place": {"p": 47, "splitting": "rational", "e": 1, "f": 1}, "precision": 4092,
        "partial_valuation": "0", "tail_valuation_bound": "4092", "status": "nonzero",
    }


def random_integral_element(rng: random.Random, K: QuadraticField, lo=-50, hi=50) -> FieldElement:
    """A random nonzero algebraic integer with coordinates within [lo, hi];
    for d = 1 mod 4 half of the draws use half-integer coordinates."""
    while True:
        if K.d is None:
            x = rng.randint(lo, hi)
            if x:
                return K(x)
            continue
        if K.d % 4 == 1 and rng.random() < 0.5:
            a = rng.randint(2 * lo, 2 * hi)
            b = rng.randint(2 * lo, 2 * hi)
            if (a - b) % 2 == 1:
                b += 1
            elem = K(Fraction(a, 2), Fraction(b, 2))
        else:
            elem = K(rng.randint(lo, hi), rng.randint(lo, hi))
        if elem:
            assert elem.is_algebraic_integer()
            return elem


def sigma_by_linear_factors(l_vec, beta, one=1) -> list:
    """Coefficients of prod_j (beta_j - w)^{l_j}, ascending, multiplied out
    one linear factor at a time; one is the 1 of the coefficients' field."""
    sigma = [one]
    for lj, b in zip(l_vec, beta):
        for _ in range(lj):
            sigma = [b * c - prev for c, prev in zip(sigma + [0], [0] + sigma)]
    return sigma


def plus_monomial(poly: Poly, coeff, n: int) -> Poly:
    """poly + coeff t^n, built from its coefficient list."""
    coeffs = list(poly.coeffs) + [0] * (n + 1 - len(poly.coeffs))
    coeffs[n] += coeff
    return Poly(coeffs, poly.d)


def residue_add(x: CompletionElement, y: CompletionElement, sign: int = 1) -> CompletionElement:
    """x + sign*y for two residues at one place and precision."""
    assert (x.place, x.n) == (y.place, y.n)
    mod = x.modulus
    return CompletionElement(x.place, x.n, (x.a + sign * y.a) % mod, (x.b + sign * y.b) % mod)


def residue_mul(x: CompletionElement, y) -> CompletionElement:
    """x*y for two residues at one place and precision; y may be an int.

    The law x^2 = c + s*x of the basis is written out here from x.basis, not
    taken from padics, so the tests that use it check the library's law."""
    if isinstance(y, int):
        y = CompletionElement(x.place, x.n, y % x.modulus)
    assert (x.place, x.n) == (y.place, y.n)
    d, mod = x.place.d, x.modulus
    c, s = ((d - 1) // 4, 1) if x.basis == "omega" else (d or 0, 0)
    bb = x.b * y.b
    return CompletionElement(
        x.place, x.n, (x.a * y.a + c * bb) % mod, (x.a * y.b + x.b * y.a + s * bb) % mod
    )
