"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

An element is a pair (x, y) of rationals meaning x + y*sqrt(d); the
rational field is the degenerate case d = None with y = 0.  Values are
immutable, arithmetic is exact, and equality is coordinatewise.

Every layer that asks what an element is over Z reads its one integral
form (A + B*sqrt(d))/c; integrality and the least denominator n with
n*a integral are closed forms in (A, B, c) and d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_squarefree
from .errors import FieldMismatchError, RepeatedAlphaError, ZeroAlphaError


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
        return FieldElement(Fraction(x), Fraction(y), self.d)

    def sqrt_gen(self) -> FieldElement:
        """The generator sqrt(d) itself (only for quadratic fields)."""
        if self.d is None:
            raise ValueError("Q has no quadratic generator")
        return self(0, 1)

    def parse(self, text: str) -> FieldElement:
        """Parse "x" or "x,y" with rational coordinates like "3" or "-1/2"."""
        parts = [t.strip() for t in text.split(",")]
        if len(parts) == 1:
            return self(Fraction(parts[0]))
        if len(parts) == 2:
            if self.d is None:
                raise ValueError("a rational field element has no sqrt coordinate")
            return self(Fraction(parts[0]), Fraction(parts[1]))
        raise ValueError(f"cannot parse field element {text!r}")

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


@dataclass(frozen=True, eq=False)
class FieldElement:
    """x + y*sqrt(d) with exact rational coordinates."""

    x: Fraction
    y: Fraction
    d: int | None

    def __post_init__(self) -> None:
        if self.d is None and self.y != 0:
            raise ValueError("rational field elements must have y = 0")

    def _pair(self, other) -> tuple[FieldElement, FieldElement] | None:
        """Promote self and other into a common field, or None if impossible."""
        if isinstance(other, (int, Fraction)):
            other = FieldElement(Fraction(other), Fraction(0), None)
        if not isinstance(other, FieldElement):
            return None
        if self.d == other.d:
            return self, other
        if self.d is None:
            return FieldElement(self.x, Fraction(0), other.d), other
        if other.d is None:
            return self, FieldElement(other.x, Fraction(0), self.d)
        raise FieldMismatchError(
            f"cannot mix Q(sqrt({self.d})) and Q(sqrt({other.d})) elements"
        )

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __eq__(self, other) -> bool:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.x == b.x and a.y == b.y

    def __hash__(self) -> int:
        return hash((self.x, self.y, None if self.y == 0 else self.d))

    def __add__(self, other) -> FieldElement:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return FieldElement(a.x + b.x, a.y + b.y, a.d)

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.x, -self.y, self.d)

    def __sub__(self, other) -> FieldElement:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return FieldElement(a.x - b.x, a.y - b.y, a.d)

    def __rsub__(self, other) -> FieldElement:
        return (-self) + other

    def __mul__(self, other) -> FieldElement:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.d is None:
            return FieldElement(a.x * b.x, Fraction(0), None)
        return FieldElement(
            a.x * b.x + a.d * a.y * b.y,
            a.x * b.y + a.y * b.x,
            a.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        if self.d is None:
            return FieldElement(1 / self.x, Fraction(0), None)
        n = self.norm()
        return FieldElement(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other) -> FieldElement:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other) -> FieldElement:
        return self.inverse() * other

    def __pow__(self, n: int) -> FieldElement:
        if n < 0:
            return self.inverse() ** (-n)
        out = FieldElement(Fraction(1), Fraction(0), self.d)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> FieldElement:
        return FieldElement(self.x, -self.y, self.d)

    def norm(self) -> Fraction:
        """x^2 - d*y^2; over Q the element itself."""
        if self.d is None:
            return self.x
        return self.x * self.x - self.d * self.y * self.y

    def trace(self) -> Fraction:
        """2x; over Q the element itself."""
        if self.d is None:
            return self.x
        return 2 * self.x

    def integral_form(self) -> tuple[int, int, int]:
        """(A, B, c) with self = (A + B*sqrt(d))/c, c > 0, gcd(A, B, c) = 1.

        c is the lcm of the coordinate denominators; B = 0 over Q.
        """
        x, y = self.x, self.y
        c = math.lcm(x.denominator, y.denominator)
        return x.numerator * (c // x.denominator), y.numerator * (c // y.denominator), c

    def denominator(self) -> int:
        """The least n >= 1 with n*self an algebraic integer.

        The ring of integers is Z[(1 + sqrt(d))/2] when d = 1 mod 4 and
        Z[sqrt(d)] otherwise, so n is c, halved when d = 1 mod 4 and c is
        even with A and B both odd.
        """
        A, B, c = self.integral_form()
        if c % 2 == 0 and self.d is not None and self.d % 4 == 1 and A % 2 and B % 2:
            return c // 2
        return c

    def is_algebraic_integer(self) -> bool:
        return self.denominator() == 1

    def __str__(self) -> str:
        if self.d is None or self.y == 0:
            return str(self.x)
        return f"{self.x},{self.y}"

    def __repr__(self) -> str:
        return f"FieldElement({self.x}, {self.y}, d={self.d})"


def _as_elem(value, d) -> FieldElement:
    """value as an element of Q(sqrt(d)); rational elements of another
    quadratic field are carried over, irrational ones are refused."""
    if isinstance(value, FieldElement):
        if value.d == d:
            return value
        if value.y == 0:
            return FieldElement(value.x, Fraction(0), d)
        raise ValueError("element belongs to a different field")
    return FieldElement(Fraction(value), Fraction(0), d)


def _validated_points(points, d) -> tuple[FieldElement, ...]:
    """Evaluation points as elements of Q(sqrt(d)), nonzero and pairwise distinct."""
    points = tuple(_as_elem(a, d) for a in points)
    if any(not a for a in points):
        raise ZeroAlphaError("evaluation points must be nonzero")
    if len({(a.x, a.y) for a in points}) != len(points):
        raise RepeatedAlphaError("evaluation points must be pairwise distinct")
    return points


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
