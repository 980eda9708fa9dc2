import random
from fractions import Fraction

import pytest

import eulerpade.arith as arith
from eulerpade.arith import factorize, padic_ord, primes_upto
from eulerpade.errors import InvalidPrimeError, PrecisionCapError, ZeroElementError
from eulerpade.numfield import QuadraticField
from eulerpade.places import (
    factorial_valuation,
    nonarch_log_coefficients,
    normalized_abs_log,
    places_above,
    product_formula_defect,
    valuation,
)

from conftest import random_integral_element


def test_places_above_examples(K5, KQ):
    split = places_above(K5, 11)
    assert [v.splitting for v in split] == ["split_1", "split_2"]
    assert all(v.e == 1 and v.f == 1 and v.kappa_v == 1 for v in split)

    (inert,) = places_above(K5, 2)  # 5 = 5 mod 8
    assert inert.splitting == "inert" and inert.e == 1 and inert.f == 2

    (ram,) = places_above(K5, 5)
    assert ram.splitting == "ramified" and ram.e == 2 and ram.f == 1

    (rat,) = places_above(KQ, 7)
    assert rat.splitting == "rational" and rat.kappa_v == 1

    with pytest.raises(InvalidPrimeError):
        places_above(K5, 10)


def test_p2_conventions():
    assert places_above(QuadraticField(17), 2)[0].splitting == "split_1"  # 17 = 1 mod 8
    assert places_above(QuadraticField(5), 2)[0].splitting == "inert"  # 5 mod 8
    assert places_above(QuadraticField(-1), 2)[0].splitting == "ramified"  # 7 mod 8
    assert places_above(QuadraticField(2), 2)[0].splitting == "ramified"
    assert places_above(QuadraticField(3), 2)[0].splitting == "ramified"


def test_local_degrees_sum_to_kappa():
    for d in (5, -1, 2):
        K = QuadraticField(d)
        for p in primes_upto(1000):
            assert sum(v.kappa_v for v in places_above(K, p)) == K.kappa


def test_valuation_examples(K5, KQ):
    (ram5,) = places_above(K5, 5)
    assert valuation(ram5, K5.sqrt_gen()) == Fraction(1, 2)

    (p2,) = places_above(KQ, 2)
    assert valuation(p2, KQ(10)) == 1

    v1, v2 = places_above(K5, 11)
    assert valuation(v1, K5(48, -1)) >= 2
    assert valuation(v2, K5(48, -1)) == 0

    with pytest.raises(ZeroElementError):
        valuation(p2, KQ(0))
    # a rational place cannot value an irrational element of another field
    with pytest.raises(ValueError, match="different field"):
        valuation(places_above(KQ, 5)[0], K5.sqrt_gen())


def test_valuation_additive(K5, Km1, KQ):
    rng = random.Random(41)
    place_pool = [
        places_above(KQ, 3)[0],
        places_above(K5, 11)[0],
        places_above(K5, 3)[0],
        places_above(K5, 5)[0],
        places_above(Km1, 2)[0],
        places_above(QuadraticField(17), 2)[0],
        places_above(QuadraticField(17), 2)[1],
    ]
    for v in place_pool:
        K = QuadraticField(v.d)
        for _ in range(60):
            a = random_integral_element(rng, K, -30, 30)
            b = random_integral_element(rng, K, -30, 30)
            assert valuation(v, a * b) == valuation(v, a) + valuation(v, b)


def test_normalized_abs_log_examples(K5, KQ):
    (ram5,) = places_above(K5, 5)
    assert normalized_abs_log(ram5, K5.sqrt_gen()) == Fraction(1, 2)

    (p3,) = places_above(KQ, 3)
    assert normalized_abs_log(p3, KQ(Fraction(1, 9))) == -2

    (inert2,) = places_above(K5, 2)
    assert normalized_abs_log(inert2, K5(2)) == 1


def _trial_division(n):
    """factorize's reference: every divisor up to the square root."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    rng = random.Random(7)
    primes = primes_upto(30000)
    cases = [1, 2, 1001**2, 1009**2, 1009 * 1013, 1002001 * 1009, 10007 * 10009, 2**40 - 1]
    cases += [rng.randint(2, 10**9) for _ in range(100)]
    cases += [rng.choice(primes) * rng.choice(primes) * rng.randint(1, 500) for _ in range(100)]
    for n in cases:
        assert list(factorize(n).items()) == list(_trial_division(n).items()), n
        assert factorize(-n) == factorize(n)


def test_factorize_stops_at_a_prime_cofactor(monkeypatch):
    # past a divisor of 1000, is_prime runs once per cofactor, and only
    # below 3.3e24, where it is exact
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    p = 1000000000000037  # over a second of trial division without the stop
    assert list(factorize(2**5 * 3 * 997 * p).items()) == [(2, 5), (3, 1), (997, 1), (p, 1)]
    assert calls == [p]
    calls.clear()
    assert factorize(1009**7) == {1009: 7}
    assert calls == [1009**7]
    calls.clear()
    assert factorize(1009**9) == {1009: 9}
    assert factorize(2**20 * 3**5 * 997 * 991) == {2: 20, 3: 5, 991: 1, 997: 1}
    assert calls == []
    # a factor just past 1000 shrinks the cofactor to a prime: asked again
    assert factorize(1009 * p) == {1009: 1, p: 1}
    assert calls == [1009 * p, p]


def test_factorize_refuses_past_the_divisor_budget(monkeypatch):
    # trial division tries every divisor up to PRIME_SCAN_MAX and refuses a
    # cofactor it has not shown prime past it
    n = 2003 * 2011
    monkeypatch.setattr(arith, "PRIME_SCAN_MAX", 2003)
    assert factorize(6 * n) == {2: 1, 3: 1, 2003: 1, 2011: 1}
    monkeypatch.setattr(arith, "PRIME_SCAN_MAX", 2002)
    with pytest.raises(PrecisionCapError, match=f"cofactor {n} is not shown prime"):
        factorize(6 * n)
    assert factorize(7 * 1000000007) == {7: 1, 1000000007: 1}  # shown prime at divisor 1001


def test_factorize_stops_at_a_prime_power_cofactor(monkeypatch):
    # a cofactor r^k with r prime: an r below f^2 needs no is_prime, a larger
    # one is shown prime by it, and only below 3.3e24
    m61 = 2**61 - 1
    for k in range(1, 12):
        assert factorize(7**3 * m61**k) == {7: 3, m61: k}
    assert factorize(1009**40 * 7) == {7: 1, 1009: 40}
    # the cofactor left at divisor 1019 is looked at again once f has doubled
    assert factorize(1013 * 1019 * m61**3) == {1013: 1, 1019: 1, m61: 3}
    p12 = 10**12 + 39  # its square, below 3.3e24, once ran trial division to the budget
    assert factorize(p12**2) == {p12: 2}
    monkeypatch.setattr(arith, "PRIME_SCAN_MAX", 2003)
    # a composite root, and is_prime's first liar past 3.3e24, are not taken for primes
    psi_13 = 1287836182261 * 2575672364521
    for n in ((2011 * 2017) ** 2, psi_13**2):
        with pytest.raises(PrecisionCapError, match=f"cofactor {n} is not shown prime"):
            factorize(n)


def test_integer_root_is_the_floor_of_the_root():
    rng = random.Random(66)
    for _ in range(3000):
        k = rng.randint(3, 60)
        r = rng.randint(2, 2**rng.randint(2, 100))
        for n in (r**k - 1, r**k, r**k + 1, rng.randint(r**k, (r + 1) ** k - 1)):
            root = arith._integer_root(n, k)
            assert root**k <= n < (root + 1) ** k, (n, k)


def test_padic_ord_int_matches_the_plain_loop():
    # past a few factors the valuation is split off by repeated squaring
    def plain(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    rng = random.Random(65)
    for _ in range(400):
        p = rng.choice((2, 3, 101))
        e = rng.choice((0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, rng.randint(0, 2000)))
        u = rng.randint(1, 10**30) * rng.choice((1, -1))
        assert arith.padic_ord_int(u * p**e, p) == plain(u * p**e, p), (u, p, e)


class _Composite(Exception):
    pass


def test_factorize_is_not_stopped_by_a_strong_pseudoprime(monkeypatch):
    # psi_12 is a strong pseudoprime to every prime base up to 37 and has
    # no factor below 1001; base 41 shows it composite
    psi_12 = 399165290221 * 798330580441
    assert psi_12 == 318665857834031151167461
    assert not arith.is_prime(psi_12)
    # psi_13 is the first composite that every base passes: is_prime refuses
    # it, and every n past it that the bases pass, rather than call it prime
    psi_13 = 1287836182261 * 2575672364521
    assert psi_13 == 3317044064679887385961981 > 3.3e24
    for n in (psi_13, 2**89 - 1):
        with pytest.raises(InvalidPrimeError, match=f"primality of {n} is not settled"):
            arith.is_prime(n)
    assert not arith.is_prime(psi_13 + 2) and not arith.is_prime(2**89 + 1)
    calls = []
    real = arith.is_prime

    def stub(n):
        calls.append(n)
        if real(n):
            return True
        raise _Composite  # trial division past here runs to 4e11

    monkeypatch.setattr(arith, "is_prime", stub)
    with pytest.raises(_Composite):
        factorize(psi_12)
    assert calls == [psi_12]


def test_factorial_valuation():
    assert factorial_valuation(2, 10) == 8  # 5 + 2 + 1
    assert factorial_valuation(3, 2) == 0
    assert factorial_valuation(2, 10) <= 10 / (2 - 1)
    with pytest.raises(InvalidPrimeError):
        factorial_valuation(4, 10)


def test_factorial_valuation_brute_force():
    # oracle: count prime factors of n! by summing v_p(k) for k <= n
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        running = 0
        for n in range(1, 2001):
            k = n
            while k % p == 0:
                running += 1
                k //= p
            assert factorial_valuation(p, n) == running
        assert factorial_valuation(p, 2000) <= 2000 / (p - 1)


def test_rational_prime_decomposition_exact(K5, Km1):
    # prod_{v|p} ||x||_v = |x|_p for rational x, checked on exact coefficients
    rng = random.Random(42)
    for K in (K5, Km1):
        for _ in range(100):
            x = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
            elem = K(x)
            for p in (2, 3, 5, 7, 11):
                total = sum(
                    (
                        valuation(v, elem) * Fraction(v.kappa_v, v.kappa)
                        for v in places_above(K, p)
                    ),
                    Fraction(0),
                )
                expected = padic_ord(x, p) if (x.numerator % p == 0 or x.denominator % p == 0) else 0
                assert total == expected


def test_product_formula_defect_examples(K5, KQ):
    assert product_formula_defect(KQ, KQ(10)) < 1e-12
    assert product_formula_defect(K5, K5(Fraction(1, 2), Fraction(1, 2))) < 1e-9
    assert product_formula_defect(K5, K5.sqrt_gen()) < 1e-9


def test_product_formula_random(K5, Km1):
    rng = random.Random(43)
    for K in (K5, Km1):
        for _ in range(500):
            a = random_integral_element(rng, K)
            assert product_formula_defect(K, a) < 1e-9
            # the non-Archimedean side cancels exactly as rationals
            nrm = a.norm()
            for p, coeff in nonarch_log_coefficients(K, a).items():
                assert coeff == Fraction(padic_ord(nrm, p), K.kappa)


def test_place_json(K5):
    v1, _ = places_above(K5, 11)
    assert v1.to_json() == {"p": 11, "splitting": "split_1", "e": 1, "f": 1}
    (inert,) = places_above(K5, 2)
    assert inert.to_json() == {"p": 2, "splitting": "inert", "e": 1, "f": 2}


def test_split_valuation_negative(K5):
    v1, v2 = places_above(K5, 11)
    elem = K5(Fraction(48, 11), Fraction(-1, 11))
    assert valuation(v1, elem) >= 1
    assert valuation(v2, elem) == -1


def test_split_valuation_beyond_old_cap():
    # split valuations are exact at any size; 256 digits used to be a cap
    K17 = QuadraticField(17)
    v1, v2 = places_above(K17, 2)
    assert valuation(v1, K17(2**300)) == 300
    assert valuation(v2, K17(2**300)) == 300
    # (3 + sqrt(17))/2 has norm -2, so it is a uniformizer at one place
    # above 2 and a unit at the other
    pi = K17(Fraction(3, 2), Fraction(1, 2))
    assert sorted([valuation(v1, pi**400), valuation(v2, pi**400)]) == [0, 400]


def test_split_valuations_sum_to_norm_valuation():
    # w_v1(a) + w_v2(a) = v_p(N(a)), read off the norm alone
    rng = random.Random(44)
    for d in (5, 17, -7, 13, -15, 41):
        K = QuadraticField(d)
        for p in primes_upto(60):
            places = places_above(K, p)
            if places[0].splitting != "split_1":
                continue
            for _ in range(20):
                a = random_integral_element(rng, K, -80, 80)
                a = a ** rng.randint(1, 40) * Fraction(p ** rng.randint(0, 5), rng.randint(1, 30))
                assert sum(valuation(v, a) for v in places) == padic_ord(a.norm(), p)
