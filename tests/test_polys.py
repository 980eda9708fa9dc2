"""Property tests of Poly's int representation against RefPoly, the
reference in bareiss that keeps one FieldElement per coefficient."""

import math
import pickle
from fractions import Fraction

import pytest

from eulerpade.numfield import FieldElement, QuadraticField, _as_elem
from eulerpade.polys import Poly, _first_difference

from bareiss import RefPoly, ref_exact_quotient

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FIELDS = (None, 5, -1, 2)


def elements(d):
    """Elements of Q(sqrt(d)) with coordinate denominators 1, 2 and 3, zero included."""
    coord = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3)))
    y = st.just(0) if d is None else coord
    return st.builds(lambda x, y: FieldElement(x, y, d), coord, y)


@st.composite
def cases(draw, n_polys=2, max_len=6, fields=FIELDS):
    """(d, coefficient lists, a field element); lists may be empty or end in zeros."""
    d = draw(st.sampled_from(fields))
    elem = elements(d)
    lists = [draw(st.lists(elem, max_size=max_len)) for _ in range(n_polys)]
    if draw(st.booleans()):  # zero and trailing-zero coefficients, trimmed away
        lists[0] = lists[0] + [_as_elem(0, d)] * draw(st.integers(1, 3))
    return d, lists, draw(elem)


def assert_same(poly: Poly, ref: RefPoly):
    assert poly.coeffs == ref.coeffs
    assert poly.coeffs is poly.coeffs  # built once, on the first read
    assert poly.degree == len(ref.coeffs) - 1
    assert bool(poly) == bool(ref.coeffs)
    assert poly.to_json() == ref.to_json()
    assert repr(poly) == repr(ref)
    for i in range(-1, len(ref.coeffs) + 2):
        assert poly[i] == ref[i]
    for start in range(len(ref.coeffs) + 2):
        first = (i for i in range(start, len(ref.coeffs)) if ref[i])
        assert poly.order(start) == next(first, None)
    A, B, c = poly._A, poly._B, poly._c
    assert c > 0 and len(A) == len(B) == len(ref.coeffs)
    assert math.gcd(c, *A, *B) == 1
    assert not A or A[-1] or B[-1]
    if poly.d is None:
        assert not any(B)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_poly_operations_match_the_reference(case):
    d, (xs, ys), elem = case
    x, y = Poly(xs, d), Poly(ys, d)
    rx, ry = RefPoly(xs, d), RefPoly(ys, d)
    assert_same(x, rx)
    assert_same(y, ry)
    for scalar in (elem, 3, Fraction(-2, 3)):
        assert_same(x * scalar, rx * scalar)
        assert_same(scalar * x, rx * scalar)
    for point in (elem, 1, Fraction(1, 2)):
        assert x(point) == rx(point)
    equal = rx.coeffs == ry.coeffs
    assert (x == y) is equal
    assert (x == Poly(list(rx.coeffs), d)) and hash(x) == hash(Poly(list(rx.coeffs), d))
    if equal:
        assert hash(x) == hash(y)
    assert pickle.loads(pickle.dumps(x)) == x


@settings(max_examples=200, deadline=None)
@given(cases())
def test_exact_quotient_matches_long_division(case):
    # the Bareiss reference's division undoes a product and refuses a remainder
    d, (qs, ds), _ = case
    q, den = RefPoly(qs, d), RefPoly(ds, d)
    hypothesis.assume(den.coeffs)
    num = q * den
    assert ref_exact_quotient(num, den).coeffs == q.coeffs == Poly(qs, d).coeffs
    if len(den.coeffs) >= 2:
        with pytest.raises(ArithmeticError):
            ref_exact_quotient(num + RefPoly([1], d), den)


@pytest.mark.parametrize("d", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_difference_is_the_order_of_the_difference(d, data):
    # one run per field, so each is certainly drawn; a shared prefix puts the
    # first difference past index 0, where the denominators are cross-multiplied
    _, (xs, ys, prefix), _ = data.draw(cases(n_polys=3, fields=(d,)))
    xs, ys = prefix + xs, prefix + ys
    diff = (RefPoly(xs, d) - RefPoly(ys, d)).coeffs
    first = next((i for i, c in enumerate(diff) if c), None)
    x, y = Poly(xs, d), Poly(ys, d)
    assert _first_difference(x, y) == _first_difference(y, x) == first
    assert _first_difference(x, Poly(xs + [0], d)) is None


def test_zero_polynomial():
    for d in FIELDS:
        zero = Poly([0, 0], d)
        assert zero == Poly([], d)
        assert (zero._A, zero._B, zero._c) == ((), (), 1)
        assert (zero.degree, zero.coeffs, repr(zero)) == (-1, (), "Poly(0)")
        assert zero(QuadraticField(d)(3)) == 0
        assert not zero * 5 and not Poly([1, 2], d) * 0


def test_fields_of_equal_polynomials():
    # rational coefficients compare equal across fields, irrational ones never
    assert Poly([1, Fraction(1, 2)], None) == Poly([1, Fraction(1, 2)], 5)
    root5, i = QuadraticField(5).sqrt_gen(), QuadraticField(-1).sqrt_gen()
    assert Poly([1, root5], 5) != Poly([1, i], -1)
    with pytest.raises(ValueError):
        Poly([1, root5], None)
    with pytest.raises(ValueError):
        Poly([i], -1) * root5
