"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as the
criteria complete.  Every tolerance is pinned here; timing limits are
asserted with time.monotonic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from eulerpade.arith import padic_ord, primes_upto
from eulerpade.numfield import QuadraticField
from eulerpade.pade import (
    pade_construct,
    pade_determinant,
    pade_order_check,
    sigma_annihilation_check,
    sigma_coeffs,
)
from eulerpade.places import (
    nonarch_log_coefficients,
    places_above,
    product_formula_defect,
)
from eulerpade.padics import euler_eval_certified
from eulerpade.polys import Poly
from eulerpade.bounds import ValuationSetDescriptor, constants_c1_c2, effective_bounds, z_inverse
from eulerpade.certify import (
    certify_nonvanishing,
    even_factorial_linear_form,
    fibonacci_linear_form,
    verify_certificate,
)

from bareiss import _poly_det
from conftest import random_integral_element


def _report(number: int, description: str) -> None:
    print(f"[PASS] criterion {number}: {description}")


ALPHA_TUPLES = {
    1: [(1,), (-2,)],
    2: [(1, -1), (2, 3)],
    3: [(1, -1, 2), (-2, 3, 1)],
}


def test_criterion_1_pade_order_suite():
    start = time.monotonic()
    checked = 0
    for m in (1, 2, 3):
        for l in (1, 2, 3, 4):
            for mu in range(m + 1):
                for alphas in ALPHA_TUPLES[m]:
                    system = pade_construct(m, l, mu, list(alphas))
                    target = (m + 1) * l + mu
                    order = pade_order_check(system, target + 6)
                    assert order >= target, (m, l, mu, alphas, order)
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"order suite took {elapsed:.1f}s"
    _report(1, f"remainder order >= (m+1)l+mu on {checked} systems in {elapsed:.1f}s")


def test_criterion_2_determinant_suite():
    start = time.monotonic()
    pool = [1, -1, 2, -2, 3]
    grid = [(m, l) for m in (1, 2) for l in (1, 2, 3)] + [(m, l) for m in (3, 4, 5) for l in (1, 2)]
    cases = [(m, l, alphas) for m, l in grid for alphas in itertools.combinations(pool, m)]
    K5 = QuadraticField(5)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases.append((3, 2, (phi, phi.conjugate(), K5(2))))
    checked = 0
    for m, l, alphas in cases:
        exponent, b, equal = pade_determinant(m, l, list(alphas))
        assert equal, (m, l, alphas)
        assert exponent == m * (m + 1) * l + m * (m - 1) // 2
        matrix = [list(pade_construct(m, l, mu, list(alphas)).B) for mu in range(m + 1)]
        d = matrix[0][0].d
        assert _poly_det(matrix, d) == Poly([0] * exponent + [b], d), (m, l, alphas)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"determinant suite took {elapsed:.1f}s"
    _report(2, f"closed form matches the leading-minor decision and the Bareiss determinant on {checked} instances in {elapsed:.1f}s")


def test_criterion_3_sigma_annihilation():
    rng = random.Random(303)
    for _ in range(20):
        m = rng.randint(1, 3)
        l_vec = [rng.randint(1, 4) for _ in range(m)]
        if len(set(l_vec)) == 1 and m > 1:
            l_vec[0] += 1  # force an unequal instance
        beta = rng.sample([x for x in range(-8, 9) if x != 0], m)
        sv = sigma_coeffs(l_vec, beta)
        for j in range(1, m + 1):
            for k in range(l_vec[j - 1]):
                assert not sigma_annihilation_check(sv, j, k)
    # sharpness: equality index k = l_j may not vanish
    sv = sigma_coeffs([2], [3])
    assert sigma_annihilation_check(sv, 1, 2) == 18
    _report(3, "sigma relations vanish for k < l_j (20 random runs) and are sharp at k = l_j")


def test_criterion_4_padic_evaluator():
    start = time.monotonic()
    KQ = QuadraticField()
    (p2,) = places_above(KQ, 2)
    cv2 = euler_eval_certified(p2, 1, 2)
    assert cv2.value.a == 2 and cv2.tail_valuation_bound >= 3
    (p5,) = places_above(KQ, 5)
    cv5 = euler_eval_certified(p5, 1, 2)
    assert cv5.value.a == 14

    K5 = QuadraticField(5)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    count = 0
    for p in (2, 3, 5, 7, 11, 13):
        for v in places_above(K5, p):
            for alpha in (K5(1), K5(-1), phi, phi.conjugate()):
                previous = None
                for n in (4, 8, 16, 32):
                    cv = euler_eval_certified(v, alpha, n)
                    assert cv.tail_valuation_bound >= n
                    if previous is not None:
                        assert cv.value.reduce_to(previous.value.n) == previous.value
                    previous = cv
                    count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"evaluator suite took {elapsed:.1f}s"
    _report(4, f"frozen residues and Cauchy consistency over {count} evaluations in {elapsed:.1f}s")


def test_criterion_5_fibonacci_demo():
    start = time.monotonic()
    K, lambdas, alphas = fibonacci_linear_form(1, 1)
    cert = certify_nonvanishing(K, lambdas, alphas, 2, 50)
    assert cert.status == "nonzero"
    assert cert.place.p == 2 and cert.place.splitting == "inert"
    assert cert.partial_valuation == 1
    assert cert.tail_valuation_bound >= 3
    assert verify_certificate(cert)
    _, c2 = constants_c1_c2(K, alphas, ValuationSetDescriptor.all_places())
    assert abs(c2 - 72) < 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(5, f"sum n! f_n != 1 certified at inert place over 2, c2 = {c2:.2f} (within 0.5 of 72)")


def test_criterion_6_even_factorial_demo():
    found = []
    for a, b in [(0, 1), (1, 1), (1, 2)]:
        K, lambdas, alphas = even_factorial_linear_form(a, b)
        cert = certify_nonvanishing(K, lambdas, alphas, 2, 50)
        assert cert.status == "nonzero"
        assert cert.place.p <= 50
        found.append((a, b, cert.place.p))
    _report(6, f"sum (2n)! != a/b certified for {found}")


def test_criterion_7_bound_chain_arithmetic():
    base = 17 * math.exp(17)
    report = effective_bounds(1, 1, 2.0, base)
    loglog = math.log(base)
    expected_exp = 2 + 114 * math.log(loglog) / loglog
    assert abs(report.exponent - expected_exp) <= 1e-6 * expected_exp
    rng = random.Random(707)
    checked = 0
    for _ in range(50):
        log_h = base * math.exp(rng.uniform(0, 9))
        rep = effective_bounds(1, 1, 2.0, log_h)
        assert rep.n_ell >= 0 > rep.n_ell_plus_1
        assert rep.interval_lo < math.log(rep.ell + 1)
        assert rep.m * (rep.ell + 2) < rep.interval_hi
        ll = math.log(log_h)
        assert abs(rep.exponent - (2 + 114 * math.log(ll) / ll)) <= 1e-6 * rep.exponent
        checked += 1
    _report(7, f"margin bracket, interval containment, exponent formula over {checked} heights")


def test_criterion_8_rosser_mertens():
    start = time.monotonic()
    limit = 10**5
    prime_set = set(primes_upto(limit))
    running = 0.0
    for x in range(2, limit + 1):
        if x in prime_set:
            running += math.log(x) / x
        assert running < math.log(x), f"Rosser inequality failed at x = {x}"
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"sieve check took {elapsed:.1f}s"
    _report(8, f"sum log p/p < log x for every x <= 1e5 in {elapsed:.1f}s")


def test_criterion_9_product_formula():
    rng = random.Random(909)
    for d in (5, -1):
        K = QuadraticField(d)
        for _ in range(500):
            a = random_integral_element(rng, K)
            assert product_formula_defect(K, a) < 1e-9
            nrm = a.norm()
            for p, coeff in nonarch_log_coefficients(K, a).items():
                assert coeff == Fraction(padic_ord(nrm, p), K.kappa)
    _report(9, "defect < 1e-9 and exact non-Archimedean cancellation on 2x500 elements")


def test_criterion_10_z_function():
    rng = random.Random(1010)
    for r in (math.e, 17.0):
        floor_y = r * math.exp(r)
        for _ in range(100):
            y = floor_y * math.exp(rng.uniform(0, 6))
            z, _ = z_inverse(y)
            assert abs(z * math.log(z) - y) <= 1e-9 * y
            bound = (1 + math.log(r) / r) * y / math.log(y)
            assert z <= bound * (1 + 1e-12)
    _report(10, "z log z = y to 1e-9 and the nested-log upper bound for 2x100 heights")
