import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from eulerpade.errors import FieldMismatchError
from eulerpade.numfield import QuadraticField, _as_elem, arch_abs_normalized
from eulerpade.polys import Poly

from conftest import random_integral_element


def test_golden_ratio_product(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    psi = K5(Fraction(1, 2), Fraction(-1, 2))
    assert phi * psi == -1


def test_additive_identity(K5):
    x = K5(Fraction(3, 7), Fraction(-2, 5))
    assert x + K5(0) == x


def test_division_by_sqrt5(K5):
    # oracle: multiplying the quotient back by sqrt(5) must give 1
    q = K5(1) / K5.sqrt_gen()
    assert q == K5(0, Fraction(1, 5))
    assert q * K5.sqrt_gen() == 1


def test_rational_division(KQ):
    assert KQ(1) / KQ(3) == KQ(Fraction(1, 3))
    assert KQ(Fraction(2, 3)) * KQ(Fraction(3, 2)) == 1


def test_division_by_zero(K5):
    with pytest.raises(ZeroDivisionError):
        K5(1) / K5(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QuadraticField(5)(0, 1) + QuadraticField(2)(0, 1)


def test_every_field_mix_raises_field_mismatch():
    # coercion, Poly construction and Poly's scalar product refuse irrational
    # elements of another field with the same error as FieldElement arithmetic
    root5, root2 = QuadraticField(5).sqrt_gen(), QuadraticField(2).sqrt_gen()
    with pytest.raises(FieldMismatchError, match="different field"):
        _as_elem(root5, 2)
    with pytest.raises(FieldMismatchError, match="different field"):
        Poly([1, root5], 2)
    with pytest.raises(FieldMismatchError, match="different field"):
        Poly([1, root5], 5) * root2
    with pytest.raises(FieldMismatchError, match="different field"):
        Poly([root2], 2) * root5
    # rational elements of another field still carry over
    assert _as_elem(QuadraticField(5)(3), 2) == QuadraticField(2)(3)


def test_conjugate_norm_trace(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    assert phi.conjugate() == K5(Fraction(1, 2), Fraction(-1, 2))
    assert K5(2, 1).norm() == -1
    assert phi.trace() == 1
    # over Q both norm and trace are the value itself
    q = QuadraticField()(Fraction(5, 3))
    assert q.norm() == Fraction(5, 3)
    assert q.trace() == Fraction(5, 3)


def test_is_algebraic_integer(K5):
    assert K5(Fraction(1, 2), Fraction(1, 2)).is_algebraic_integer()
    assert not K5(Fraction(1, 3), Fraction(1, 3)).is_algebraic_integer()
    # oracle: norm of sqrt(5)/2 is -5/4, not an integer
    half_sqrt = K5(0, Fraction(1, 2))
    assert half_sqrt.norm() == Fraction(-5, 4)
    assert not half_sqrt.is_algebraic_integer()
    assert QuadraticField()(7).is_algebraic_integer()
    assert not QuadraticField()(Fraction(1, 2)).is_algebraic_integer()


def test_arch_abs_examples(K5, KQ):
    vals = arch_abs_normalized(K5, K5(1, 1))
    # oracle: direct evaluation sqrt(1 + sqrt(5)), sqrt(sqrt(5) - 1)
    assert vals[0][1] == pytest.approx(math.sqrt(1 + math.sqrt(5)), abs=1e-12)
    assert vals[1][1] == pytest.approx(math.sqrt(math.sqrt(5) - 1), abs=1e-12)
    assert vals[0][1] == pytest.approx(1.7989, abs=5e-4)
    assert vals[1][1] == pytest.approx(1.1118, abs=5e-4)

    assert arch_abs_normalized(KQ, KQ(-7)) == [("real", 7.0)]

    v1, v2 = (v for _, v in arch_abs_normalized(K5, K5.sqrt_gen()))
    assert v1 * v2 == pytest.approx(math.sqrt(5), rel=1e-12)


def test_arch_abs_imaginary(Km1):
    (label, val), = arch_abs_normalized(Km1, Km1(3, 4))
    assert label == "complex"
    assert val == pytest.approx(5.0, rel=1e-12)


def test_norm_multiplicative_exact(K5):
    rng = random.Random(101)
    for _ in range(200):
        a = random_integral_element(rng, K5)
        b = random_integral_element(rng, K5)
        assert (a * b).norm() == a.norm() * b.norm()


def test_conjugation_involution(K5):
    rng = random.Random(102)
    for _ in range(200):
        a = random_integral_element(rng, K5)
        assert a.conjugate().conjugate() == a


def test_integral_closure_under_add_and_mul(K5, Km1):
    rng = random.Random(103)
    for K in (K5, Km1):
        for _ in range(1000):
            a = random_integral_element(rng, K, -20, 20)
            b = random_integral_element(rng, K, -20, 20)
            assert (a + b).is_algebraic_integer()
            assert (a * b).is_algebraic_integer()


def _denominator_by_search(a):
    """The old reference: the least divisor n of 2*lcm(coordinate
    denominators) with n*a integral, integrality read off trace and norm."""
    def integral(z):
        if z.d is None:
            return z.x.denominator == 1
        return (2 * z.x).denominator == 1 and (z.x * z.x - z.d * z.y * z.y).denominator == 1

    cap = 2 * math.lcm(a.x.denominator, a.y.denominator)
    return next(n for n in range(1, cap + 1) if cap % n == 0 and integral(a * n))


def test_denominator_and_integrality_match_divisor_search():
    # d = 1, 2, 3 mod 4 of both signs, plus Q
    fields = [QuadraticField(d) for d in (None, 5, 13, -3, -7, -15, 2, 6, -2, -6, 3, 7, -1, -5)]
    rng = random.Random(105)
    dens = (1, 2, 3, 4, 5, 6, 8, 12)
    for K in fields:
        for _ in range(300):
            x = Fraction(rng.randint(-40, 40), rng.choice(dens))
            y = Fraction(rng.randint(-40, 40), rng.choice(dens)) if K.d is not None else 0
            a = K(x, y)
            A, B, c = a.integral_form()
            assert c > 0 and math.gcd(A, B, c) == 1
            assert a == K(Fraction(A, c), Fraction(B, c))
            n = _denominator_by_search(a)
            assert a.denominator() == n
            assert a.is_algebraic_integer() == (n == 1)


def test_arch_product_squared_is_norm(K5):
    rng = random.Random(104)
    K2 = QuadraticField(2)
    for K in (K5, K2):
        for _ in range(200):
            a = random_integral_element(rng, K)
            v1, v2 = (v for _, v in arch_abs_normalized(K, a))
            assert (v1 * v2) ** 2 == pytest.approx(abs(float(a.norm())), rel=1e-12)


def test_parse_roundtrip(K5, KQ):
    phi = K5.parse("1/2,1/2")
    assert phi == K5(Fraction(1, 2), Fraction(1, 2))
    assert K5.parse(str(phi)) == phi
    assert KQ.parse("-3/4") == KQ(Fraction(-3, 4))
    with pytest.raises(ValueError):
        KQ.parse("1,2")


def test_field_validation():
    with pytest.raises(ValueError):
        QuadraticField(12)  # not squarefree
    with pytest.raises(ValueError):
        QuadraticField(1)
    assert QuadraticField(-1).kappa == 2
    assert QuadraticField().kappa == 1


def test_power_and_inverse(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    assert phi**0 == 1
    assert phi**5 == phi * phi * phi * phi * phi
    assert phi**-1 == 1 / phi
    assert phi**-3 * phi**3 == 1


def test_pickle_and_deepcopy_round_trip(K5, KQ):
    for a in (K5(Fraction(1, 2), Fraction(-3, 2)), K5(7), KQ(Fraction(-5, 6)), K5(0)):
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is type(a)
            assert b == a and b.d == a.d and hash(b) == hash(a)
            assert b.integral_form() == a.integral_form() and repr(b) == repr(a)


def test_elements_are_immutable(K5):
    a = K5(1, 2)
    for name in ("x", "y", "d", "_A", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 3)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == K5(1, 2)
