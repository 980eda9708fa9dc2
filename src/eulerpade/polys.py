"""Dense univariate polynomials with exact field-element coefficients.

Coefficients are stored ascending by exponent and trimmed, so the zero
polynomial has an empty coefficient list and degree -1.  Only what the
Pade construction needs lives here.
"""

from __future__ import annotations

from .numfield import FieldElement, _as_elem


class Poly:
    """A polynomial over Q(sqrt(d)), immutable in practice."""

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs, d):
        coeffs = [_as_elem(c, d) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.d = d

    @classmethod
    def zero(cls, d) -> Poly:
        return cls([], d)

    @classmethod
    def monomial(cls, coeff, exponent: int, d) -> Poly:
        return cls([0] * exponent + [coeff], d)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _as_elem(0, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)], self.d)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs], self.d)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly.zero(self.d)
            out = [_as_elem(0, self.d)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ci in enumerate(self.coeffs):
                if not ci:
                    continue
                for j, cj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ci * cj
            return Poly(out, self.d)
        return Poly([c * other for c in self.coeffs], self.d)

    __rmul__ = __mul__

    def __call__(self, point) -> FieldElement:
        point = _as_elem(point, self.d)
        acc = _as_elem(0, self.d)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c})t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"
