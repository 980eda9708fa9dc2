"""Property tests of FieldElement's int arithmetic against a reference
that keeps x + y*sqrt(d) as a pair of Fractions, written here."""

import math
from fractions import Fraction

import pytest

from eulerpade.numfield import FieldElement, QuadraticField

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# d = 1, 2, 3 mod 4 of both signs, plus Q
FIELDS = (None, 5, 13, -3, -7, -15, 2, 6, -2, -6, 3, 7, -1, -5)

rationals = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))
)


class Ref:
    """x + y*sqrt(d) as two Fractions; d is None over Q."""

    def __init__(self, x, y, d):
        self.x, self.y, self.d = Fraction(x), Fraction(y), d

    def __add__(self, o):
        return Ref(self.x + o.x, self.y + o.y, self.d or o.d)

    def __neg__(self):
        return Ref(-self.x, -self.y, self.d)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        d = self.d or o.d
        return Ref(self.x * o.x + (d or 0) * self.y * o.y, self.x * o.y + self.y * o.x, d)

    def inverse(self):
        n = self.x * self.x - (self.d or 0) * self.y * self.y
        return Ref(self.x / n, -self.y / n, self.d)

    def __pow__(self, n):
        out = Ref(1, 0, self.d)
        for _ in range(abs(n)):
            out = out * self
        return out.inverse() if n < 0 else out

    def conjugate(self):
        return Ref(self.x, -self.y, self.d)

    def norm(self):
        return self.x if self.d is None else self.x * self.x - self.d * self.y * self.y

    def trace(self):
        return self.x if self.d is None else 2 * self.x

    def nonzero(self):
        return self.x != 0 or self.y != 0


def _integral(x, y, d):
    """Whether x + y*sqrt(d) is an algebraic integer, from trace and norm."""
    if d is None:
        return x.denominator == 1
    return (2 * x).denominator == 1 and (x * x - d * y * y).denominator == 1


def _denominator(x, y, d):
    """The lcm of the denominators of x + y*sqrt(d) in a Z-basis of the ring
    of integers: 1, (1 + sqrt(d))/2 when d = 1 mod 4, else 1, sqrt(d)."""
    if d is not None and d % 4 == 1:
        return math.lcm((x - y).denominator, (2 * y).denominator)
    return math.lcm(x.denominator, y.denominator)


def assert_matches(elem, ref):
    """Every observable of elem agrees with the reference pair."""
    x, y, d = ref.x, ref.y, ref.d
    assert type(elem) is FieldElement
    assert (elem.x, elem.y, elem.d) == (x, y, d)
    assert type(elem.x) is Fraction and type(elem.y) is Fraction
    c = math.lcm(x.denominator, y.denominator)
    assert elem.integral_form() == (x.numerator * c // x.denominator, y.numerator * c // y.denominator, c)
    assert elem.denominator() == _denominator(x, y, d)
    assert elem.is_algebraic_integer() == _integral(x, y, d)
    assert elem == FieldElement(x, y, d)
    # equal values hash equal: a rational element hashes as its Fraction
    # (and so as an int when it is one), whatever its field
    assert hash(elem) == hash(FieldElement(x, y, d))
    if y == 0:
        assert hash(elem) == hash(x) == hash(FieldElement(x, 0, None))
        assert elem in {x} and x in {elem}
    assert str(elem) == (str(x) if d is None or y == 0 else f"{x},{y}")
    assert repr(elem) == f"FieldElement({x}, {y}, d={d})"
    assert bool(elem) == ref.nonzero()
    assert elem.norm() == ref.norm() and type(elem.norm()) is Fraction
    assert elem.trace() == ref.trace() and type(elem.trace()) is Fraction
    assert (elem.conjugate().x, elem.conjugate().y) == (x, -y)


@st.composite
def elements(draw, fields=FIELDS):
    """(element, reference) in Q(sqrt(d)) for a d drawn from fields."""
    d = draw(st.sampled_from(fields))
    x = draw(rationals)
    y = draw(rationals) if d is not None else Fraction(0)
    return QuadraticField(d)(x, y), Ref(x, y, d)


@st.composite
def operands(draw):
    """(a, ra, b, rb): a in some field, b in the same field, in Q, an int or a Fraction."""
    a, ra = draw(elements())
    kind = draw(st.sampled_from(("same", "Q", "int", "Fraction")))
    if kind == "same":
        b, rb = draw(elements((ra.d,)))
    elif kind == "Q":
        b, rb = draw(elements((None,)))
    elif kind == "int":
        b = draw(st.integers(-60, 60))
        rb = Ref(b, 0, None)
    else:
        b = draw(rationals)
        rb = Ref(b, 0, None)
    return a, ra, b, rb


SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


@SETTINGS
@given(operands())
def test_ring_operations_match_reference(ops):
    a, ra, b, rb = ops
    for result, ref in (
        (a + b, ra + rb), (b + a, rb + ra),
        (a - b, ra - rb), (b - a, rb - ra),
        (a * b, ra * rb), (b * a, rb * ra),
        (-a, -ra),
    ):
        assert_matches(result, ref)
    assert (a == b) == (b == a) == (ra.x == rb.x and ra.y == rb.y)
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(operands())
def test_division_matches_reference(ops):
    a, ra, b, rb = ops
    if rb.nonzero():
        assert_matches(a / b, ra * rb.inverse())
    if ra.nonzero():
        assert_matches(b / a, rb * ra.inverse())
        assert_matches(a.inverse(), ra.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@SETTINGS
@given(elements(), st.integers(-5, 5))
def test_powers_match_reference(pair, n):
    a, ra = pair
    hypothesis.assume(n >= 0 or ra.nonzero())
    assert_matches(a**n, ra**n)


@SETTINGS
@given(elements())
def test_unary_observables_match_reference(pair):
    a, ra = pair
    assert_matches(a, ra)
    assert_matches(a.conjugate(), ra.conjugate())
    assert_matches(a.conjugate().conjugate(), ra)
