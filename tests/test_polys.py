"""Property tests of Poly's int representation against a reference that
keeps one FieldElement per coefficient, written here: the coefficient-list
polynomial and long division that Poly and _exact_quotient replaced."""

import math
import pickle
from fractions import Fraction

import pytest

from eulerpade.numfield import FieldElement, QuadraticField, _as_elem
from eulerpade.polys import Poly, _pair_product

from bareiss import _exact_quotient

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FIELDS = (None, 5, -1, 2)


class RefPoly:
    """Coefficients ascending as FieldElements, trimmed."""

    def __init__(self, coeffs, d):
        coeffs = [_as_elem(c, d) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.d = d

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _as_elem(0, self.d)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self[i] + other[i] for i in range(n)], self.d)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs], self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RefPoly):
            if not self.coeffs or not other.coeffs:
                return RefPoly([], self.d)
            out = [_as_elem(0, self.d)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ci in enumerate(self.coeffs):
                for j, cj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ci * cj
            return RefPoly(out, self.d)
        return RefPoly([c * other for c in self.coeffs], self.d)

    def __call__(self, point):
        point = _as_elem(point, self.d)
        acc = _as_elem(0, self.d)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def to_json(self):
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c})t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def ref_exact_quotient(num: RefPoly, den: RefPoly) -> RefPoly:
    """num / den by long division over the field, for den dividing num."""
    rem = list(num.coeffs)
    top = len(den.coeffs) - 1
    lead = den.coeffs[-1].inverse()
    quotient = [None] * (len(num.coeffs) - top)
    for i in range(len(quotient) - 1, -1, -1):
        q = quotient[i] = rem[i + top] * lead
        for k in range(top):
            rem[i + k] = rem[i + k] - q * den.coeffs[k]
    assert not any(rem[:top])
    return RefPoly(quotient, num.d)


def elements(d):
    """Elements of Q(sqrt(d)) with coordinate denominators 1, 2 and 3, zero included."""
    coord = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3)))
    y = st.just(0) if d is None else coord
    return st.builds(lambda x, y: FieldElement(x, y, d), coord, y)


@st.composite
def cases(draw, n_polys=2, max_len=6):
    """(d, coefficient lists, a field element); lists may be empty or end in zeros."""
    d = draw(st.sampled_from(FIELDS))
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
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(-x, -rx)
    assert_same(x * y, rx * ry)
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
    d, (qs, ds), _ = case
    q, den = Poly(qs, d), Poly(ds, d)
    hypothesis.assume(den)
    num = q * den
    quotient = _exact_quotient(num, den)
    assert quotient == q
    assert_same(quotient, ref_exact_quotient(RefPoly(num.coeffs, d), RefPoly(den.coeffs, d)))
    if den.degree >= 1:
        # adding a constant leaves a remainder below deg(den)
        with pytest.raises(ArithmeticError):
            _exact_quotient(num + Poly([1], d), den)


def test_zero_polynomial():
    for d in FIELDS:
        zero = Poly([0, 0], d)
        assert zero == Poly.zero(d) == Poly([], d)
        assert (zero._A, zero._B, zero._c) == ((), (), 1)
        assert (zero.degree, zero.coeffs, repr(zero)) == (-1, (), "Poly(0)")
        assert zero(QuadraticField(d)(3)) == 0
        assert not zero * Poly([1, 2], d) and not zero * 5
        assert _exact_quotient(zero, Poly([1, 1], d)) == zero


def test_fields_of_equal_polynomials():
    # rational coefficients compare equal across fields, irrational ones never
    assert Poly([1, Fraction(1, 2)], None) == Poly([1, Fraction(1, 2)], 5)
    root5, i = QuadraticField(5).sqrt_gen(), QuadraticField(-1).sqrt_gen()
    assert Poly([1, root5], 5) != Poly([1, i], -1)
    with pytest.raises(ValueError):
        Poly([1], None) + Poly([root5], 5)
    with pytest.raises(ValueError):
        Poly([i], -1) * Poly([root5], 5)


#: numerator pairs (A, B) of factors: empty, zero, constant, with zero coefficients
PAIR_FACTORS = [
    ((), ()),
    ((0,), (0,)),
    ((3,), (-2,)),
    ((0, 0, 2), (1, 0, 0)),
    ((1, -2, 0, 5), (0, 3, 0, -1)),
    ((7, 0, 0, 0, -1, 4), (0, 0, -3, 0, 0, 0)),
]


def whole_pair_product(A1, B1, A2, B2, d):
    """All len(A1) + len(A2) - 1 numerator pairs of the product, each a sum of
    FieldElement products."""
    coeffs = [FieldElement(0, 0, d)] * max(len(A1) + len(A2) - 1, 0)
    for i, (a1, b1) in enumerate(zip(A1, B1)):
        for j, (a2, b2) in enumerate(zip(A2, B2)):
            coeffs[i + j] += FieldElement(a1, b1, d) * FieldElement(a2, b2, d)
    return [c.x for c in coeffs], [c.y for c in coeffs]


@pytest.mark.parametrize("d", [None, 5, -1])
def test_pair_product_is_the_whole_product_below_t_n(d):
    # over Q every B_i is 0
    factors = [(A, B if d else (0,) * len(B)) for A, B in PAIR_FACTORS]
    for A1, B1 in factors:
        for A2, B2 in factors:  # both orders of every pair
            A, B = whole_pair_product(A1, B1, A2, B2, d)
            for n in range(len(A) + 3):  # n = 0, below, at and past the whole length
                assert _pair_product(A1, B1, A2, B2, d, n) == (A[:n], B[:n]), (A1, B1, A2, B2, n)
