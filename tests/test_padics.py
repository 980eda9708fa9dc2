import math
import random
import time
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

import eulerpade.padics as padics
from eulerpade.arith import legendre_symbol, primes_upto
from eulerpade.errors import (
    DegeneratePolynomialError,
    NoConvergenceError,
    NotSplitError,
    PrecisionCapError,
)
from eulerpade.numfield import QuadraticField
from eulerpade.padics import (
    PRECISION_CAP,
    CompletionElement,
    euler_eval_certified,
    genfact_eval,
    hensel_sqrt,
)
from eulerpade.places import places_above, valuation

from conftest import random_integral_element, residue_add, residue_mul


def brute_force_sqrt(d, p, n):
    mod = p**n
    return sorted(r for r in range(mod) if (r * r - d) % mod == 0)


def test_hensel_sqrt_examples():
    # oracle: 48 is a root of x^2 = 5 mod 121 and 48 = 4 mod 11 with min(4, 7) = 4
    roots = brute_force_sqrt(5, 11, 2)
    assert 48 in roots
    assert hensel_sqrt(5, 11, 2) == 48
    assert hensel_sqrt(2, 7, 1) == 3
    with pytest.raises(NotSplitError):
        hensel_sqrt(5, 2, 1)
    with pytest.raises(NotSplitError):
        hensel_sqrt(3, 7, 1)  # 3 is not a QR mod 7
    with pytest.raises(NotSplitError):
        hensel_sqrt(25, 5, 2)  # p | d
    with pytest.raises(NotSplitError):
        hensel_sqrt(5, 9, 2)  # not a prime


def test_hensel_sqrt_random():
    rng = random.Random(7)
    odd_primes = [p for p in primes_upto(200) if p > 2]
    done = 0
    while done < 200:
        p = rng.choice(odd_primes)
        d = rng.randint(2, 10_000)
        if d % p == 0 or legendre_symbol(d, p) != 1:
            continue
        n = rng.randint(1, 64)
        r = hensel_sqrt(d, p, n)
        assert 0 < r < p**n
        assert (r * r - d) % p**n == 0
        # canonical choice: smaller residue mod p, stable under refinement
        assert r % p == min(r % p, p - r % p)
        assert hensel_sqrt(d, p, n + 3) % p**n == r
        done += 1


def test_two_adic_sqrt_chain_consistency():
    # the embedding at split places over 2 (d = 1 mod 8) must refine the
    # same 2-adic root at every precision: the mod-4-canonical roots mod 2^n
    # come in pairs differing by 2^(n-1), and only the reduction-consistent
    # member is acceptable
    from eulerpade.arith import canonical_sqrt_mod

    for d in (17, 33, 41, 73, 97):
        previous = None
        for n in range(1, 40):
            r = canonical_sqrt_mod(d, 2, n)
            assert (r * r - d) % (1 << n) == 0
            if previous is not None:
                assert r % (1 << (n - 1)) == previous
            previous = r


def test_two_adic_sqrt_is_1_below_three_digits():
    # mod 2 and mod 4 the root congruent to 1 mod 4 is 1 itself
    from eulerpade.arith import canonical_sqrt_mod

    for d in (1, 9, 17, -7, -15, 41, 8 * 10**30 + 1):
        for n in (1, 2):
            assert canonical_sqrt_mod(d, 2, n) == 1


def test_sqrt_mod_p_3_mod_4_is_the_lift_of_the_smaller_power_root():
    # for p = 3 mod 4, r = d^((p+1)/4) is a root mod p; the canonical root
    # is min(r, p - r) lifted one digit at a time
    from eulerpade.arith import canonical_sqrt_mod

    def lifted(d, p, n):
        r = pow(d, (p + 1) // 4, p)
        r = min(r, p - r)
        for k in range(1, n):
            # the next digit t solves (r + t p^k)^2 = d mod p^(k+1)
            t = (d - r * r) // p**k * pow(2 * r, -1, p) % p
            r += t * p**k
        return r

    rng = random.Random(5)
    for p in (q for q in primes_upto(2000) if q % 4 == 3):
        squares = [x * x % p for x in rng.sample(range(1, p), min(p - 1, 4))]
        for d in {*squares, squares[0] - p, squares[-1] + 7 * p}:
            for n in (1, 2, 5):
                assert canonical_sqrt_mod(d, p, n) == lifted(d, p, n), (d, p, n)


def test_euler_eval_frozen_values(KQ):
    (p2,) = places_above(KQ, 2)
    cv = euler_eval_certified(p2, 1, 2)
    assert cv.value.a == (1 + 1 + 2 + 6) % 4 == 2
    assert cv.tail_valuation_bound >= 3
    assert cv.terms_used == 4

    (p5,) = places_above(KQ, 5)
    cv5 = euler_eval_certified(p5, 1, 2)
    assert cv5.value.a == sum(math.factorial(n) for n in range(10)) % 25 == 14
    assert cv5.tail_valuation_bound >= 2


def test_euler_eval_zero_argument(KQ, K5):
    for K, p in ((KQ, 3), (K5, 2), (K5, 5)):
        for v in places_above(K, p):
            cv = euler_eval_certified(v, 0, 5)
            assert cv.value == CompletionElement.one(v, 5)
            assert cv.tail_valuation_bound >= 5


def test_euler_eval_rejects_non_integral(KQ, K5):
    (p2,) = places_above(KQ, 2)
    with pytest.raises(ValueError):
        euler_eval_certified(p2, Fraction(1, 2), 4)
    (v5,) = places_above(K5, 5)
    with pytest.raises(ValueError):
        euler_eval_certified(v5, K5(Fraction(1, 3), Fraction(1, 3)), 4)


def test_precision_cap(KQ):
    (p2,) = places_above(KQ, 2)
    with pytest.raises(PrecisionCapError):
        euler_eval_certified(p2, 1, PRECISION_CAP + 1)


def test_cauchy_consistency(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    psi = phi.conjugate()
    for p in (2, 3, 5, 7, 11, 13):
        for v in places_above(K5, p):
            for alpha in (K5(1), K5(-1), phi, psi):
                previous = None
                for n in (4, 8, 16, 32):
                    cv = euler_eval_certified(v, alpha, n)
                    assert cv.tail_valuation_bound >= n
                    if previous is not None:
                        assert cv.value.reduce_to(previous.value.n) == previous.value
                    previous = cv


def test_tail_bound_soundness(K5, KQ):
    # adding 3 * terms_used more terms must not change the residue
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases = [
        (places_above(KQ, 2)[0], KQ(1)),
        (places_above(KQ, 5)[0], KQ(-1)),
        (places_above(K5, 2)[0], phi),
        (places_above(K5, 5)[0], phi),
        (places_above(K5, 11)[0], K5(-1)),
    ]
    for v, alpha in cases:
        cv = euler_eval_certified(v, alpha, 6)
        n0 = cv.terms_used
        alpha_c = CompletionElement.from_field_element(v, 6, alpha)
        term = CompletionElement.one(v, 6)
        for n in range(1, n0):
            term = residue_mul(residue_mul(term, alpha_c), n)
        extended = cv.value
        for n in range(n0, 4 * n0):
            term = residue_mul(residue_mul(term, alpha_c), n)
            extended = residue_add(extended, term)
        assert extended == cv.value


def exact_partial_sum(K, p0, p1, t, terms):
    """sum_{n < terms} [P]_n t^n in the field, P(x) = p0 + p1 x."""
    total, term = K(0), K(1)
    for n in range(terms):
        if n > 0:
            term = term * (p0 + p1 * (n - 1)) * t
        total = total + term
    return total


def test_genfact_matches_exact_sums(K5, Km1, KQ):
    # each certified residue must agree to within w_v >= N with the exact
    # field sum of the terms it used, and with twice as many terms, which
    # a cut made too early would miss; p0 = p1 = 1 is Euler's series
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    K3 = QuadraticField(3)
    split, split_2 = places_above(K5, 11)
    (inert,) = places_above(K5, 2)
    (ramified,) = places_above(K5, 5)
    (ramified_2,) = places_above(Km1, 2)  # d = 3 mod 4
    cases = [
        (places_above(KQ, 2)[0], KQ(1), KQ(1), KQ(1), 6),
        (inert, K5(1), K5(1), phi, 6),
        (split_2, K5(1), K5(1), K5(2), 6),
        (ramified, K5(1), K5(1), K5.sqrt_gen(), 6),  # fractional w(t) = 1/2
        (places_above(KQ, 3)[0], KQ(1), KQ(1), KQ(2), 40),
        (ramified_2, Km1(1), Km1(1), Km1(1, 1), 32),
        (places_above(K3, 2)[0], K3(1), K3(1), K3(1, 1), 32),
        (split, phi, K5(1), K5(3), 32),
        (split_2, phi, K5(1), phi, 8),
        (inert, phi, K5(1), K5(2), 32),
        (ramified, phi, K5(1), K5.sqrt_gen(), 8),
        (ramified_2, Km1(0, 1), Km1(1), Km1(1, 1), 16),
        (places_above(KQ, 5)[0], KQ(2), KQ(3), KQ(5), 32),
    ]
    for v, p0, p1, t, N in cases:
        K = QuadraticField(v.d)
        results = [genfact_eval(v, p0, p1, t, N, 10_000)]
        if p0 == 1 and p1 == 1:
            results.append(euler_eval_certified(v, t, N))
        for cv in results:
            assert cv.value.n == N and cv.tail_valuation_bound >= N
            residue = K(*cv.value.sqrt_coordinates())
            for terms in (cv.terms_used, 2 * cv.terms_used):
                diff = exact_partial_sum(K, p0, p1, t, terms) - residue
                assert not diff or valuation(v, diff) >= N


def test_genfact_odd_double_factorial(KQ):
    (p3,) = places_above(KQ, 3)
    cv = genfact_eval(p3, 1, 2, 1, 2, 1000)
    # oracle: 1 + 1 + 3 + 15 + 105 = 125 = 8 mod 9, and 945 has v_3 = 3
    assert cv.value.a == 125 % 9 == 8
    assert cv.terms_used == 5
    assert cv.tail_valuation_bound >= 2


def test_genfact_no_convergence(KQ):
    (p3,) = places_above(KQ, 3)
    with pytest.raises(NoConvergenceError):
        genfact_eval(p3, 1, 3, 1, 2, 500)  # every [P]_n is a 3-adic unit
    # P = 1 + x, t = 1 at 5: v_5(n!) first reaches 8 at n = 35
    (p5,) = places_above(KQ, 5)
    with pytest.raises(NoConvergenceError, match="within 10 terms"):
        genfact_eval(p5, 1, 1, 1, 8, n_max=10)


def test_genfact_terminating_product(KQ):
    (p2,) = places_above(KQ, 2)
    # P(x) = 2 - x vanishes at x = 2, so [P]_n = 0 for n >= 3
    cv = genfact_eval(p2, 2, -1, 1, 4, 100)
    assert cv.value.a == (1 + 2 + 2) % 16
    assert cv.tail_valuation_bound >= 4
    # a factor that vanishes counts only within n_max: P = x - 5 vanishes at
    # k = 5, which the sixth term reaches and the fifth does not
    (p3,) = places_above(KQ, 3)
    assert genfact_eval(p3, -5, 1, 1, 100, 6).terms_used == 6
    with pytest.raises(NoConvergenceError, match="within 5 terms"):
        genfact_eval(p3, -5, 1, 1, 100, 5)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_genfact_rejects_non_integral(KQ, K5, slot):
    for K, bad in ((KQ, Fraction(1, 2)), (K5, K5(Fraction(1, 3), Fraction(1, 3)))):
        (v,) = places_above(K, 5)
        args = [1, 1, 1]  # p0, p1, t
        args[slot] = bad
        with pytest.raises(ValueError) as info:
            genfact_eval(v, *args, 4, 100)
        assert str(bad) in str(info.value)


def test_genfact_degree_checked_before_integrality(KQ):
    (p3,) = places_above(KQ, 3)
    with pytest.raises(DegeneratePolynomialError):
        genfact_eval(p3, Fraction(1, 2), 0, Fraction(1, 2), 4, 100)


def test_residue_json_shapes(K5, KQ):
    (p2,) = places_above(KQ, 2)
    cv = euler_eval_certified(p2, 1, 3)
    js = cv.to_json()
    assert js["p"] == 2 and js["place"] == "rational" and js["N"] == 3
    assert isinstance(js["residue"], int)
    assert js["tail_valuation_bound"] == str(cv.tail_valuation_bound)

    (inert2,) = places_above(K5, 2)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    js2 = euler_eval_certified(inert2, phi, 3).to_json()
    assert isinstance(js2["residue"], list) and len(js2["residue"]) == 2
    u, w = (Fraction(part) for part in js2["residue"])
    # the pair is the residue in sqrt(5)-coordinates (half-integers allowed)
    assert u.denominator in (1, 2) and w.denominator in (1, 2)

    # ramified places produce half-integer tail bounds: at w(sqrt(5)) = 1/2
    # the first term clearing 3 is n = 5 with v_5(5!) + 5/2 = 7/2
    (ram5,) = places_above(K5, 5)
    js3 = euler_eval_certified(ram5, K5.sqrt_gen(), 3).to_json()
    assert js3["tail_valuation_bound"] == "7/2"
    assert js3["place"] == "ramified"


def test_reduction_is_ring_homomorphism(K5, Km1, KQ):
    # reduce(a) op reduce(b) == reduce(a op b) for + and * at every place kind
    rng = random.Random(8)

    places = [
        places_above(KQ, 5)[0],
        places_above(K5, 11)[0],
        places_above(K5, 11)[1],
        places_above(K5, 3)[0],
        places_above(K5, 2)[0],
        places_above(K5, 5)[0],
        places_above(Km1, 2)[0],
        places_above(QuadraticField(17), 2)[0],
        places_above(QuadraticField(2), 2)[0],  # ramified, d = 2 mod 4
    ]
    for v in places:
        K = QuadraticField(v.d)
        for _ in range(40):
            a = random_integral_element(rng, K, -60, 60)
            b = random_integral_element(rng, K, -60, 60)
            ra = CompletionElement.from_field_element(v, 10, a)
            rb = CompletionElement.from_field_element(v, 10, b)
            assert residue_add(ra, rb) == CompletionElement.from_field_element(v, 10, a + b)
            assert residue_mul(ra, rb) == CompletionElement.from_field_element(v, 10, a * b)
            assert residue_add(ra, rb, -1) == CompletionElement.from_field_element(v, 10, a - b)


def test_completion_half_valuation(K5, Km1, KQ):
    # the residue-read valuation, in half-units, agrees with the exact one on
    # nonzero residues
    rng = random.Random(9)
    from conftest import random_integral_element

    places = [
        places_above(KQ, 3)[0],
        places_above(K5, 11)[0],
        places_above(K5, 2)[0],
        places_above(K5, 5)[0],
        places_above(Km1, 2)[0],
        places_above(QuadraticField(2), 2)[0],
    ]
    for v in places:
        K = QuadraticField(v.d)
        for _ in range(50):
            a = random_integral_element(rng, K, -40, 40)
            exact = valuation(v, a)
            got = CompletionElement.from_field_element(v, 12, a).half_valuation()
            if got is None:
                assert exact >= 12
            else:
                assert got == 2 * exact
    # 11 in the denominator, integral at split_1 only
    split_1, split_2 = places_above(K5, 11)
    a = K5(Fraction(48, 11), Fraction(-1, 11))
    assert valuation(split_1, a) == 1 and valuation(split_2, a) == -1
    assert CompletionElement.from_field_element(split_1, 12, a).half_valuation() == 2
    with pytest.raises(ValueError):
        CompletionElement.from_field_element(split_2, 12, a)
    # 9 is 0 mod 3^2 at the inert place: a zero pair says nothing
    (inert3,) = places_above(K5, 3)
    assert CompletionElement.from_field_element(inert3, 2, K5(9)).half_valuation() is None
    # at ramified 2 with d = 3 mod 4 the value is read off the norm mod 2^N
    K3 = QuadraticField(3)
    (ram2,) = places_above(K3, 2)
    x = K3(2, 2)
    w2 = CompletionElement.from_field_element(ram2, 2, x).half_valuation()
    assert w2 is None or w2 == 2 * valuation(ram2, x) == 3


@pytest.mark.parametrize(
    "d, p, x, y",
    [
        (5, 2, Fraction(1, 4), Fraction(1, 4)),  # omega basis at inert@2
        (3, 2, 0, Fraction(1, 2)),  # sqrt basis at ramified@2
        (-1, 2, Fraction(1, 2), Fraction(1, 2)),  # sqrt basis, half-integral coordinates
        (5, 3, Fraction(1, 3), 0),  # sqrt basis at inert@3
        (None, 2, Fraction(1, 2), 0),  # int residue at a rational place
    ],
)
def test_from_field_element_refuses_non_integral(d, p, x, y):
    K = QuadraticField(d)
    (v,) = places_above(K, p)
    with pytest.raises(ValueError):
        CompletionElement.from_field_element(v, 8, K(x, y))


def _vp(q, p):
    """v_p of a nonzero rational, by repeated division."""
    q = Fraction(q)
    num, den, k = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        k += 1
    while den % p == 0:
        den //= p
        k -= 1
    return k


def _reaches(v, z, N):
    """Whether w_v(z) >= N for an algebraic integer z, decided from the norm
    at inert and ramified places and from an independently lifted root of d
    at split places over odd p, without the library's valuations or
    residues."""
    if not z:
        return True
    p = v.p
    if v.splitting == "rational":
        return _vp(z.x, p) >= N
    if v.splitting in ("inert", "ramified"):
        return _vp(z.norm(), p) >= 2 * N
    # split: sqrt(d) maps to the lift of the smaller root mod p (split_1)
    # or to its negative (split_2); Newton's step doubles the digits fixed
    mod = p**N
    r = min(x for x in range(p) if (x * x - v.d) % p == 0)
    for _ in range(N.bit_length() + 1):
        r = (r - (r * r - v.d) * pow(2 * r, -1, mod)) % mod
    if v.splitting == "split_2":
        r = -r
    image = z.x + z.y * r
    return image.numerator % mod == 0


def _legendre_stop(p, N):
    """The least n with v_p(n!) >= N, by Legendre's formula."""

    def vp_factorial(n):
        k, q = 0, p
        while q <= n:
            k += n // q
            q *= p
        return k

    lo, hi = 1, p * N  # v_p((p*N)!) >= N
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if vp_factorial(mid) < N else (lo, mid)
    return lo


def test_anchor_matches_plain_int_sum(KQ):
    # p = 101, N = 256: a bare-int sum of n! alpha^n mod p^N, cut at the
    # least n with v_101(n!) >= 256 by Legendre's formula
    p, N = 101, 256
    (v,) = places_above(KQ, p)
    stop = _legendre_stop(p, N)
    assert stop == 25654
    mod = p**N
    for alpha in (37, -2):
        total, term = 1, 1
        for n in range(1, stop):
            term = term * n * alpha % mod
            total += term
        cv = euler_eval_certified(v, alpha, N)
        assert cv.terms_used == stop
        assert cv.tail_valuation_bound == N
        assert cv.value.a == total % mod


def test_high_precision_matches_exact_sums(K5, Km1):
    # N = 64..128 at every kind of place; the residue must agree to within
    # w_v >= N with the exact field sum of the terms used and of twice as many
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    split, split_2 = places_above(K5, 11)
    (inert_sqrt,) = places_above(K5, 3)
    (inert_omega,) = places_above(K5, 2)
    (ramified,) = places_above(K5, 5)
    (ramified_2,) = places_above(Km1, 2)  # d = 3 mod 4
    cases = [
        (split, K5(1), K5(1), K5(3), 64),
        (split_2, K5(1), K5(1), phi, 64),
        (inert_sqrt, K5(1), K5(1), phi, 128),
        (inert_omega, K5(1), K5(1), phi, 128),
        (inert_omega, K5(3), K5(2), K5(2), 96),
        (ramified, K5(1), K5(1), K5.sqrt_gen(), 96),
        (ramified, K5(2), K5(3), K5(3), 64),
        (ramified_2, Km1(1), Km1(1), Km1(1, 1), 64),
        (ramified_2, Km1(1), Km1(1), Km1(0, 1), 128),
        (split, phi, K5(1), K5(3), 64),  # algebraic P = phi + x
    ]
    for v, p0, p1, t, N in cases:
        K = QuadraticField(v.d)
        cv = genfact_eval(v, p0, p1, t, N, 10**6)
        assert cv.value.n == N and cv.tail_valuation_bound >= N
        residue = K(*cv.value.sqrt_coordinates())
        for terms in (cv.terms_used, 2 * cv.terms_used):
            assert _reaches(v, exact_partial_sum(K, p0, p1, t, terms) - residue, N), (v, N, terms)


def test_genfact_refuses_when_every_factor_is_a_unit(K5, monkeypatch):
    # P(k + 2) - P(k) = 2*p1, so units P(0) = 3 and P(1) = 5 make every P(k)
    # a unit at inert@2, and with w(t) = 0 no term can ever reach N
    (inert,) = places_above(K5, 2)
    with pytest.raises(NoConvergenceError, match="k < 2"):
        genfact_eval(inert, 3, 2, 1, 16, 10**6)
    # with algebraic P = phi + 2x the refusal comes after exactly two terms:
    # a one-term limit is reached first, a two-term limit is not.  Every
    # residue pins its valuation, so no exact valuation is taken
    calls = []

    def counted(v, a):
        calls.append(a)
        return valuation(v, a)

    monkeypatch.setattr(padics, "valuation", counted)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(NoConvergenceError, match="within 1 terms"):
        genfact_eval(inert, phi, K5(2), K5(1), 16, 1)
    for n_max in (2, 10**6):
        with pytest.raises(NoConvergenceError, match="unit"):
            genfact_eval(inert, phi, K5(2), K5(1), 16, n_max)
    assert calls == []


def _exact_stop(v, p0, p1, t, N):
    """(terms, tail bound) of the factorial series with every factor valued
    exactly: the first n with w([P]_n) + n w(t) >= N, or the first vanishing
    factor with the tail N."""
    w_t, w = valuation(v, t), 0
    for n in count(1):
        factor = p0 + p1 * (n - 1)
        if not factor:
            return n, N
        w += valuation(v, factor)
        if w + n * w_t >= N:
            return n, w + n * w_t


def test_genfact_tail_bounds_are_exact(K5, Km1):
    # factors are valued off their residues, and exactly when a residue is
    # 0: phi = 4 at split_1@11, so phi + 7 has residue 0 mod 11; the
    # factor 2*sqrt(5) - 2*sqrt(5) is exactly 0
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    split, split_2 = places_above(K5, 11)
    (inert,) = places_above(K5, 2)
    (ramified,) = places_above(K5, 5)
    (ramified_2,) = places_above(Km1, 2)
    cases = [
        (split, phi, K5(1), K5(3), 1),
        (split, phi, K5(1), K5(1), 2),
        (split_2, phi, K5(1), K5(11), 3),
        (split, phi, K5(1), K5(3), 128),
        (inert, phi, K5(2), K5(2), 5),
        (ramified, K5(0, 1), K5(0, 1), K5(1), 3),
        (ramified, K5(0, -2), K5(0, 1), K5(1), 40),
        (ramified_2, Km1(0, 1), Km1(1), Km1(1, 1), 4),
        (ramified_2, Km1(1, 1), Km1(2), Km1(1), 7),
    ]
    for v, p0, p1, t, N in cases:
        cv = genfact_eval(v, p0, p1, t, N, 10**6)
        assert (cv.terms_used, cv.tail_valuation_bound) == _exact_stop(v, p0, p1, t, N), (v, N)


def test_genfact_refusal_iff_unit_factors(KQ, K5, Km1):
    # the sum refuses exactly when w_v(t) = 0 and P(0), ..., P(p-1) are
    # units; otherwise the factor valuations grow and it answers
    places = [
        places_above(KQ, 3)[0],
        places_above(KQ, 5)[0],
        places_above(K5, 2)[0],
        places_above(K5, 3)[0],
        places_above(K5, 5)[0],
        places_above(Km1, 2)[0],
    ]
    for v in places:
        K = QuadraticField(v.d)
        p = v.p
        coefficients = [K(a) for a in range(-3, 4)]
        if v.d is not None:
            coefficients += [K(a, 1) for a in range(-2, 3)]
        for p0 in coefficients:
            for p1 in (K(1), K(2), K(p)) + ((K(1, -1),) if v.d is not None else ()):
                units = all(
                    (p0 + p1 * k) and _vp((p0 + p1 * k).norm(), p) == 0 for k in range(p)
                )
                for t in (K(1), K(p)):
                    try:
                        cv = genfact_eval(v, p0, p1, t, 8, 10**4)
                    except NoConvergenceError:
                        assert units and t == 1, (v, p0, p1, t)
                    else:
                        assert not (units and t == 1), (v, p0, p1, t)
                        assert cv.tail_valuation_bound >= 8


def test_summation_loop_is_int_native(KQ, K5, Km1):
    # the loop must not do CompletionElement arithmetic: the record defines
    # none, so an evaluation at every kind of place runs on ints alone
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    split, split_2 = places_above(K5, 11)
    cases = [
        (euler_eval_certified, places_above(KQ, 7)[0], (KQ(-3),)),
        (euler_eval_certified, split, (phi,)),
        (euler_eval_certified, split_2, (K5(2, 1),)),
        (euler_eval_certified, places_above(K5, 3)[0], (phi,)),  # inert, sqrt basis
        (euler_eval_certified, places_above(K5, 2)[0], (phi,)),  # inert, omega basis
        (euler_eval_certified, places_above(K5, 5)[0], (K5.sqrt_gen(),)),
        (euler_eval_certified, places_above(Km1, 2)[0], (Km1(1, 1),)),
        (genfact_eval, places_above(KQ, 5)[0], (2, 3, KQ(1))),
        (genfact_eval, split, (phi, K5(1), K5(3))),
        (genfact_eval, places_above(K5, 2)[0], (phi, K5(1), K5(2))),
        (genfact_eval, places_above(Km1, 2)[0], (Km1(0, 1), Km1(1), Km1(1, 1))),
    ]

    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        assert name not in vars(CompletionElement)
    for fn, v, args in cases:
        extra = (1000,) if fn is genfact_eval else ()
        assert fn(v, *args, 24, *extra).value.n == 24


def test_canonical_sqrt_mod_refusals_are_not_split():
    # the one admissibility rule for a root of d in Z_p^*, at 2 and odd p
    from eulerpade.arith import canonical_sqrt_mod

    for d, p in ((5, 2), (3, 2), (3, 7), (25, 5)):
        with pytest.raises(NotSplitError):
            canonical_sqrt_mod(d, p, 3)


def test_term_budget_refuses_before_summing(KQ, monkeypatch):
    # p = 1009, N = 4096 needs about 4.1M terms of a 639-word p^N; the stop
    # is known before the first term, so the refusal names it at once
    (v,) = places_above(KQ, 1009)
    stop = _legendre_stop(1009, 4096)
    cost = stop * (639 + padics._TERM_OVERHEAD)
    assert cost > padics.TERM_BUDGET
    start = time.perf_counter()
    with pytest.raises(PrecisionCapError, match=f"needs {stop} terms, {cost} word products"):
        euler_eval_certified(v, 1, 4096)
    assert time.perf_counter() - start < 0.1
    # the budget is inclusive, in word products: the anchor's 25654 terms of
    # a 27-word p^N with t = 3 pass at a budget of exactly their cost and are
    # refused at one less; a term limit does not exempt genfact_eval
    (v,) = places_above(KQ, 101)
    cost = 25654 * (27 + padics._TERM_OVERHEAD)
    monkeypatch.setattr(padics, "TERM_BUDGET", cost)
    assert euler_eval_certified(v, 3, 256).terms_used == 25654
    assert genfact_eval(v, 1, 1, 3, 256, 10**5).terms_used == 25654
    monkeypatch.setattr(padics, "TERM_BUDGET", cost - 1)
    with pytest.raises(PrecisionCapError, match=f"needs 25654 terms, {cost} word products"):
        euler_eval_certified(v, 3, 256)
    with pytest.raises(PrecisionCapError, match=f"needs 25654 terms, {cost} word products"):
        genfact_eval(v, 1, 1, 3, 256, 10**5)


def test_term_budget_weighs_terms_by_their_products(KQ, K5):
    # a term multiplies a residue mod p^N by t's multiplier, so the budget
    # admits a million cheap terms at a large p and refuses far fewer long
    # ones: 1200008 terms mod a 3-word 150001^8 pass, and so do the 258304
    # terms mod a 40-word 1009^256 with t = 1; at a split place t's image is
    # as long as p^N, and the same count of 40-word by 40-word products is
    # refused before the first term
    (v,) = places_above(KQ, 150001)
    assert euler_eval_certified(v, 1, 8).terms_used == 1200008
    (v,) = places_above(KQ, 1009)
    assert euler_eval_certified(v, 1, 256).terms_used == 258304
    split = places_above(K5, 1009)[0]
    start = time.perf_counter()
    with pytest.raises(PrecisionCapError, match="needs 258304 terms, 418452480 word products"):
        euler_eval_certified(split, K5(2, 1), 256)
    assert time.perf_counter() - start < 0.1


def _phase_places():
    KQ, K5, Km1 = QuadraticField(), QuadraticField(5), QuadraticField(-1)
    split_1, split_2 = places_above(K5, 11)
    return (
        places_above(KQ, 3)[0],
        split_1,
        split_2,
        places_above(K5, 3)[0],  # inert, sqrt basis, d = 1 mod 4
        places_above(Km1, 3)[0],  # inert, sqrt basis, d = 3 mod 4
        places_above(K5, 2)[0],  # inert, omega basis
        places_above(K5, 5)[0],  # ramified
        places_above(Km1, 2)[0],  # ramified at 2, d = 3 mod 4
    )


PHASE_PLACES = _phase_places()


@st.composite
def series_inputs(draw):
    """(v, p0, p1, t, N): P over Z or with algebraic coefficients, an
    algebraic-integer t != 0, half-integral where d = 1 mod 4, and factors
    or t made divisible by p now and then."""
    v = draw(st.sampled_from(PHASE_PLACES))
    K = QuadraticField(v.d)

    def integer(bound):
        x, y = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
        if v.d is None:
            return K(x)
        if v.d % 4 == 1 and draw(st.booleans()):
            return K(Fraction(2 * x + 1, 2), Fraction(2 * y + 1, 2))
        return K(x, y)

    if draw(st.booleans()):
        p0, p1 = draw(st.integers(-12, 12)), draw(st.sampled_from([x for x in range(-12, 13) if x]))
    else:
        p0, p1 = integer(6), integer(4) or K(1)
    if draw(st.integers(0, 3)) == 0:
        p0, p1 = p0 * v.p, p1 * v.p
    t = (integer(8) or K(1)) * draw(st.sampled_from((1, 1, v.p)))
    return v, p0, p1, t, draw(st.integers(1, 24))


def _in_field(K, x):
    return K(x) if isinstance(x, int) else x


def _check_both_phases(v, p0, p1, t, N):
    K = QuadraticField(v.d)
    cv = genfact_eval(v, p0, p1, t, N, 10**4)
    P0, P1 = _in_field(K, p0), _in_field(K, p1)
    assert (cv.terms_used, cv.tail_valuation_bound) == _exact_stop(v, P0, P1, t, N), (v, p0, p1, t, N)
    residue = K(*cv.value.sqrt_coordinates())
    assert _reaches(v, exact_partial_sum(K, P0, P1, t, cv.terms_used) - residue, N), (v, p0, p1, t, N)
    assert cv.value.b == 0 or v.splitting in ("inert", "ramified")
    if P0 == 1 and P1 == 1:
        assert euler_eval_certified(v, t, N) == cv
    return cv


@settings(max_examples=300, deadline=None)
@given(series_inputs())
def test_stop_and_sum_match_exact_valuations(case):
    # phase 1's stop and tail bound equal the ones found by valuing every
    # factor exactly, and phase 2's residue agrees with the exact field sum
    # of the terms used to w_v >= N, at every kind of place
    v, p0, p1, t, N = case
    K = QuadraticField(v.d)
    P0, P1 = _in_field(K, p0), _in_field(K, p1)
    units = valuation(v, t) == 0 and all(
        (P0 + P1 * k) and valuation(v, P0 + P1 * k) == 0 for k in range(v.p)
    )
    if units:
        with pytest.raises(NoConvergenceError, match="unit"):
            genfact_eval(v, p0, p1, t, N, 10**4)
    else:
        _check_both_phases(v, p0, p1, t, N)


def _chunk_cases():
    """(v, t_high, t_unit) at every kind of place, w_v(t_high) = 1 and
    t_unit a unit: negative points at rational and split places, and points
    over 128 bits, whose powers pass p^N, at rational@7 and inert@3."""
    KQ, K5, Km1 = QuadraticField(), QuadraticField(5), QuadraticField(-1)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    split_1, split_2 = places_above(K5, 11)
    big = K5(2**200, 1)  # norm 2^400 - 5, a unit at 3
    return [
        (places_above(KQ, 3)[0], KQ(-3), KQ(-2)),
        (places_above(KQ, 7)[0], KQ(7 * 3**90), KQ(-(3**90))),
        (split_1, 11 * phi, K5(-2, -1)),
        (split_2, K5(-11, 11), phi),
        (places_above(K5, 3)[0], 3 * phi, phi),  # inert, sqrt basis, d = 1 mod 4
        (places_above(K5, 3)[0], 3 * big, big),
        (places_above(Km1, 3)[0], Km1(3, 3), Km1(1, 1)),  # inert, d = 3 mod 4
        (places_above(K5, 2)[0], 2 * phi, phi),  # inert, omega basis
        (places_above(K5, 5)[0], K5(5, 5), K5(1, 1)),  # ramified
        (places_above(Km1, 2)[0], Km1(4, 2), Km1(2, 1)),  # ramified at 2, d = 3 mod 4
    ]


CHUNK_CASES = _chunk_cases()


@pytest.mark.parametrize("stop", [1, 31, 32, 33, 64, 65])
def test_stops_around_the_chunk_length(stop):
    # P over Z with p1 > 1: with P = 1 + p*x, so P(k) = 1 mod p, and
    # w(t) = 1 the stop is N itself, and with P = (p + 1)(x - stop + 1),
    # which vanishes at stop - 1, and a unit t it is the vanishing factor,
    # so the cuts fall just below, on and just above multiples of the
    # 32-term chunk.  The vanishing-factor sums run with p^N on both sides
    # of 2^128 and at three times the narrower precision, where t's residue
    # at split places and the huge point at rational@7 are wider than 128
    # bits, so they switch from a per-term loop to the chunks, while small
    # points at rational places keep the loop.  Each residue and tail bound
    # is checked against the exact field sum of the terms, one term at a
    # time, and an exact valuation of every factor (_check_both_phases);
    # Euler's series at the same points is checked the same way
    for v, t_high, t_unit in CHUNK_CASES:
        p = v.p
        cv = _check_both_phases(v, 1, p, t_high, stop)
        assert (cv.terms_used, cv.tail_valuation_bound) == (stop, stop)
        narrow = max(N for N in range(1, 200) if (p**N).bit_length() <= 128)
        for N in (narrow, narrow + 1, 3 * narrow):
            cv = _check_both_phases(v, -(p + 1) * (stop - 1), p + 1, t_unit, N)
            assert (cv.terms_used, cv.tail_valuation_bound) == (stop, N)
        _check_both_phases(v, 1, 1, t_high, stop)
