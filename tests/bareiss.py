"""The whole Pade determinant over K[t], for tests to check pade_determinant
against: fraction-free Bareiss elimination on Polys with each exact division
an int pseudo-division on the numerators.  It forms the whole polynomial,
which pade_determinant never does: that reads the determinant off its rows'
degree caps, the Pade band and one scalar leading minor."""

import math

from eulerpade.polys import Poly, _pair_product, _poly


def _poly_det(matrix: list[list[Poly]], d) -> Poly:
    """The determinant over K[t] by fraction-free Bareiss elimination.

    Step k replaces each entry below and right of the pivot by the 2x2
    minor with the pivot, divided exactly by the previous pivot (Bareiss,
    Math. Comp. 22, 1968), so entries stay minors of the input and the
    last one is the determinant.  A zero pivot swaps in a later row.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    sign = 1
    previous = Poly([1], d)
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return Poly.zero(d)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = _exact_quotient(
                    rows[i][j] * pivot - rows[i][k] * rows[k][j], previous
                )
        previous = pivot
    return rows[-1][-1] if sign == 1 else -rows[-1][-1]


def _exact_quotient(num: Poly, den: Poly) -> Poly:
    """num / den by pseudo-division on the int numerators.

    Both numerators are multiplied by the conjugate of den's lead, which
    makes that lead the int norm N, and den's numerators and denominator
    are negated together if N < 0.  Each quotient step divides a remainder
    pair exactly by N, after scaling the remainder and the quotient so far
    by the part of N the pair lacks.  A nonzero remainder means den does
    not divide num and raises ArithmeticError.
    """
    d = num.d
    NA, NB, num_c = num._A, num._B, num._c
    DA, DB, den_c = den._A, den._B, den._c
    a, b = DA[-1], DB[-1]
    if b:
        NA, NB = _pair_product(NA, NB, (a,), (-b,), d, len(NA))
        DA, DB = _pair_product(DA, DB, (a,), (-b,), d, len(DA))
    if DA[-1] < 0:
        DA, DB, den_c = [-u for u in DA], [-v for v in DB], -den_c
    top = len(DA) - 1
    lead, DA, DB = DA[-1], DA[:top], DB[:top]
    remA, remB = list(NA), list(NB)
    QA = [0] * (len(NA) - top)
    QB = list(QA)
    scale = 1
    for i in range(len(QA) - 1, -1, -1):
        x, y = remA[i + top], remB[i + top]
        g = math.gcd(x, y, lead)
        s = lead // g
        if s != 1:
            remA, remB = [r * s for r in remA], [r * s for r in remB]
            QA, QB = [q * s for q in QA], [q * s for q in QB]
            scale *= s
        qa = QA[i] = x // g
        qb = QB[i] = y // g
        PA, PB = _pair_product((qa,), (qb,), DA, DB, d, top)
        remA[i : i + top] = [r - u for r, u in zip(remA[i : i + top], PA)]
        remB[i : i + top] = [r - v for r, v in zip(remB[i : i + top], PB)]
    if any(remA[:top]) or any(remB[:top]):
        raise ArithmeticError("the divisor leaves a nonzero remainder")
    return _poly([q * den_c for q in QA], [q * den_c for q in QB], scale * num_c, d)
