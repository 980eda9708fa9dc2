"""The reference ring and the whole Pade determinant over K[t], for tests to
check Poly and pade_determinant against: RefPoly keeps one FieldElement per
coefficient, and _poly_det runs fraction-free Bareiss elimination on
RefPolys, each exact division a long division over the field.  It forms the
whole polynomial, which pade_determinant never does: that reads the
determinant off its rows' degree caps, the Pade band and one scalar leading
minor."""

from eulerpade.numfield import _as_elem
from eulerpade.polys import Poly


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
    if any(rem[:top]):
        raise ArithmeticError("den does not divide num")
    return RefPoly(quotient, num.d)


def _poly_det(matrix, d) -> Poly:
    """The determinant over K[t] of a matrix of Polys or RefPolys, as a Poly,
    by fraction-free Bareiss elimination on RefPolys.

    Step k replaces each entry below and right of the pivot by the 2x2
    minor with the pivot, divided exactly by the previous pivot (Bareiss,
    Math. Comp. 22, 1968), so entries stay minors of the input and the
    last one is the determinant.  A zero pivot swaps in a later row.
    """
    rows = [[RefPoly(entry.coeffs, d) for entry in row] for row in matrix]
    n = len(rows)
    sign = 1
    previous = RefPoly([1], d)
    for k in range(n - 1):
        if not rows[k][k].coeffs:
            swap = next((i for i in range(k + 1, n) if rows[i][k].coeffs), None)
            if swap is None:
                return Poly([], d)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = ref_exact_quotient(
                    rows[i][j] * pivot - rows[i][k] * rows[k][j], previous
                )
        previous = pivot
    return Poly((rows[-1][-1] * sign).coeffs, d)
