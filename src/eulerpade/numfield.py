"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

An element x + y*sqrt(d) is stored as its integral form: ints (A, B, c)
with x + y*sqrt(d) = (A + B*sqrt(d))/c, c > 0 and gcd(A, B, c) = 1; the
rational field is the degenerate case d = None with B = 0.  Values are
immutable, arithmetic is exact int arithmetic with one gcd per operation,
and equality compares the triples.  Equal values hash equal, ints and
Fractions included.  The coordinates x and y are read as Fractions.

Every layer that asks what an element is over Z reads this one integral
form; integrality and the least denominator n with n*a integral are
closed forms in (A, B, c) and d.  The input rules of the other layers
(algebraic-integer inputs, nonzero and pairwise distinct points, linear-form
coefficients that do not all vanish) are each checked by one helper here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_squarefree
from .errors import AllLambdaZeroError, FieldMismatchError, RepeatedAlphaError, ZeroAlphaError


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)) for a squarefree d not in {0, 1}, or Q when d is None."""

    d: int | None = None

    def __post_init__(self) -> None:
        if self.d is not None and (self.d in (0, 1) or not is_squarefree(self.d)):
            raise ValueError(f"d must be squarefree and not 0 or 1, got {self.d}")

    @property
    def kappa(self) -> int:
        return 1 if self.d is None else 2

    def __call__(self, x, y=0) -> FieldElement:
        return FieldElement(x, y, self.d)

    def sqrt_gen(self) -> FieldElement:
        """The generator sqrt(d) itself (only for quadratic fields)."""
        if self.d is None:
            raise ValueError("Q has no quadratic generator")
        return self(0, 1)

    def parse(self, text: str) -> FieldElement:
        """Parse "x" or "x,y" with rational coordinates like "3" or "-1/2"."""
        return _parsed(text, self.d)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


class FieldElement:
    """x + y*sqrt(d), stored as the integral form (A + B*sqrt(d))/c."""

    __slots__ = ("_A", "_B", "_c", "d")

    def __init__(self, x, y, d: int | None) -> None:
        x, y = Fraction(x), Fraction(y)
        if d is None and y != 0:
            raise ValueError("rational field elements must have y = 0")
        # with c the lcm of the coordinate denominators, gcd(A, B, c) = 1
        c = math.lcm(x.denominator, y.denominator)
        _set_A(self, x.numerator * (c // x.denominator))
        _set_B(self, y.numerator * (c // y.denominator))
        _set_c(self, c)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return _make, (self._A, self._B, self._c, self.d)

    @property
    def x(self) -> Fraction:
        return Fraction(self._A, self._c)

    @property
    def y(self) -> Fraction:
        return Fraction(self._B, self._c)

    def _common(self, other):
        """(d, A, B, c): the common field of self and other, and other's
        integral form; None when other is not a number."""
        if isinstance(other, FieldElement):
            d = self.d
            if other.d != d:
                if d is None:
                    d = other.d
                elif other.d is not None:
                    raise FieldMismatchError(
                        f"cannot mix Q(sqrt({self.d})) and Q(sqrt({other.d})) elements"
                    )
            return d, other._A, other._B, other._c
        if isinstance(other, int):
            return self.d, other, 0, 1
        if isinstance(other, Fraction):
            return self.d, other.numerator, 0, other.denominator
        return None

    def __bool__(self) -> bool:
        return self._A != 0 or self._B != 0

    def __eq__(self, other) -> bool:
        common = self._common(other)
        if common is None:
            return NotImplemented
        return (self._A, self._B, self._c) == common[1:]

    def __hash__(self) -> int:
        """Equal values hash equal: a rational element hashes as the Fraction
        A/c, so as the equal int or Fraction, an irrational one as its
        integral form and field."""
        A, B, c = self._A, self._B, self._c
        if B:
            return hash((A, B, c, self.d))
        return hash(Fraction(A, c))

    def __add__(self, other) -> FieldElement:
        common = self._common(other)
        if common is None:
            return NotImplemented
        d, A, B, c = common
        return _reduced(self._A * c + A * self._c, self._B * c + B * self._c, self._c * c, d)

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        return _make(-self._A, -self._B, self._c, self.d)

    def __sub__(self, other) -> FieldElement:
        common = self._common(other)
        if common is None:
            return NotImplemented
        d, A, B, c = common
        return _reduced(self._A * c - A * self._c, self._B * c - B * self._c, self._c * c, d)

    def __rsub__(self, other) -> FieldElement:
        return (-self) + other

    def __mul__(self, other) -> FieldElement:
        common = self._common(other)
        if common is None:
            return NotImplemented
        d, A, B, c = common
        A1, B1 = self._A, self._B
        return _reduced(A1 * A + (d or 0) * B1 * B, A1 * B + B1 * A, self._c * c, d)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """c(A - B*sqrt(d))/(A^2 - d*B^2)."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        A, B, c = self._A, self._B, self._c
        n = A * A - (self.d or 0) * B * B
        if n < 0:
            c, n = -c, -n
        return _reduced(c * A, -c * B, n, self.d)

    def __truediv__(self, other) -> FieldElement:
        common = self._common(other)
        if common is None:
            return NotImplemented
        d, A, B, c = common
        return self * _make(A, B, c, d).inverse()

    def __rtruediv__(self, other) -> FieldElement:
        return self.inverse() * other

    def __pow__(self, n: int) -> FieldElement:
        if n < 0:
            return self.inverse() ** (-n)
        out = _make(1, 0, 1, self.d)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> FieldElement:
        return _make(self._A, -self._B, self._c, self.d)

    def norm(self) -> Fraction:
        """x^2 - d*y^2; over Q the element itself."""
        if self.d is None:
            return self.x
        return Fraction(self._A * self._A - self.d * self._B * self._B, self._c * self._c)

    def trace(self) -> Fraction:
        """2x; over Q the element itself."""
        if self.d is None:
            return self.x
        return Fraction(2 * self._A, self._c)

    def integral_form(self) -> tuple[int, int, int]:
        """(A, B, c) with self = (A + B*sqrt(d))/c, c > 0, gcd(A, B, c) = 1; B = 0 over Q."""
        return self._A, self._B, self._c

    def denominator(self) -> int:
        """The least n >= 1 with n*self an algebraic integer.

        The ring of integers is Z[(1 + sqrt(d))/2] when d = 1 mod 4 and
        Z[sqrt(d)] otherwise, so n is c, halved when d = 1 mod 4 and c is
        even with A and B both odd.
        """
        A, B, c = self._A, self._B, self._c
        if c % 2 == 0 and self.d is not None and self.d % 4 == 1 and A % 2 and B % 2:
            return c // 2
        return c

    def is_algebraic_integer(self) -> bool:
        return self.denominator() == 1

    def __str__(self) -> str:
        if self.d is None or self._B == 0:
            return str(self.x)
        return f"{self.x},{self.y}"

    def __repr__(self) -> str:
        return f"FieldElement({self.x}, {self.y}, d={self.d})"


_new = object.__new__
_set_A, _set_B, _set_c, _set_d = (
    FieldElement._A.__set__, FieldElement._B.__set__, FieldElement._c.__set__, FieldElement.d.__set__
)


def _make(A: int, B: int, c: int, d) -> FieldElement:
    """(A + B*sqrt(d))/c from a triple already in lowest terms with c > 0."""
    elem = _new(FieldElement)
    _set_A(elem, A)
    _set_B(elem, B)
    _set_c(elem, c)
    _set_d(elem, d)
    return elem


def _reduced(A: int, B: int, c: int, d) -> FieldElement:
    """(A + B*sqrt(d))/c for any c > 0."""
    g = math.gcd(A, B, c)
    return _make(A // g, B // g, c // g, d)


def _parsed(text: str, d) -> FieldElement:
    """QuadraticField(d).parse(text), for a d that is not checked."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) == 1:
        return FieldElement(Fraction(parts[0]), 0, d)
    if len(parts) == 2:
        if d is None:
            raise ValueError("a rational field element has no sqrt coordinate")
        return FieldElement(Fraction(parts[0]), Fraction(parts[1]), d)
    raise ValueError(f"cannot parse field element {text!r}")


def _as_elem(value, d) -> FieldElement:
    """value as an element of Q(sqrt(d)); rational elements of another
    quadratic field are carried over, irrational ones are refused."""
    if isinstance(value, FieldElement):
        if value.d == d:
            return value
        if value._B == 0:
            return _make(value._A, 0, value._c, d)
        raise FieldMismatchError("element belongs to a different field")
    if type(value) is int:
        return _make(value, 0, 1, d)
    value = Fraction(value)
    return _make(value.numerator, 0, value.denominator, d)


def _validated_points(points, d) -> tuple[FieldElement, ...]:
    """Evaluation points as elements of Q(sqrt(d)), nonzero and pairwise distinct."""
    points = tuple(_as_elem(a, d) for a in points)
    if any(not a for a in points):
        raise ZeroAlphaError("evaluation points must be nonzero")
    if len({a.integral_form() for a in points}) != len(points):
        raise RepeatedAlphaError("evaluation points must be pairwise distinct")
    return points


def _algebraic_integer(value, d) -> FieldElement:
    """value as an element of Q(sqrt(d)), refused unless it is an algebraic integer."""
    elem = _as_elem(value, d)
    if not elem.is_algebraic_integer():
        raise ValueError(f"{elem} is not an algebraic integer")
    return elem


def _validated_alphas(alpha_vec, d) -> tuple[FieldElement, ...]:
    """At least one evaluation point; nonzero, pairwise distinct algebraic integers."""
    alphas = _validated_points(alpha_vec, d)
    if not alphas:
        raise ValueError("the list of evaluation points is empty")
    for a in alphas:
        _algebraic_integer(a, d)
    return alphas


def _validated_lambdas(lambda_vec, m: int, d) -> tuple[FieldElement, ...]:
    """The m + 1 coefficients of a linear form as elements of Q(sqrt(d)), not all zero."""
    lambdas = tuple(_as_elem(c, d) for c in lambda_vec)
    if len(lambdas) != m + 1:
        raise ValueError(f"expected {m + 1} linear-form coefficients")
    if not any(lambdas):
        raise AllLambdaZeroError("the coefficient vector must not vanish")
    return lambdas


def arch_abs_normalized(K: QuadraticField, a: FieldElement) -> list[tuple[str, float]]:
    """Normalized absolute values ||a||_v at the Archimedean places of K.

    Real quadratic fields have two real places, each with local weight 1/2
    (so each value is the square root of a conjugate's absolute value);
    imaginary quadratic fields have a single complex place with weight 1;
    Q has its single real place.
    """
    if K.d is None:
        return [("real", abs(float(a.x)))]
    x, y = float(a.x), float(a.y)
    if K.d > 0:
        s = math.sqrt(K.d)
        return [
            ("real_1", math.sqrt(abs(x + y * s))),
            ("real_2", math.sqrt(abs(x - y * s))),
        ]
    s = math.sqrt(-K.d)
    return [("complex", math.hypot(x, y * s))]
