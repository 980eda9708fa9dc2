"""Dense univariate polynomials over Q(sqrt(d)), held as ints.

A polynomial sum_i (A_i + B_i sqrt(d))/c t^i is stored the way a
FieldElement stores one number: one denominator c > 0 and the int tuples
A and B of the numerators, ascending by exponent, trimmed so that the top
pair is nonzero, with gcd(c, all A, all B) = 1; zero has empty tuples, c = 1
and degree -1, and over Q every B_i is 0.  Poly is a value record built from
a coefficient list, not a ring: coeffs (FieldElements, built on the first
read), degree, order, [i], == and hash (on the ints, and d when some B_i is
not 0), evaluation, to_json and repr.  Its one operation, the product by a
scalar, stays for pade_generic's columns (and the benchmark's tracer wraps
Poly.__mul__ by name).  This module alone reads the numerators: it also
holds _first_difference, the order check's comparison of two Polys, and the
Pade kernels: prod_j (beta_j - w)^{l_j} expanded, the column C_0 with the
clearing factor [P]_{L+mu}, any window of the product of a polynomial with
sum_n [P]_n (x t)^n by Horner's rule, and the leading minor that decides
the Pade determinant.
"""

from __future__ import annotations

import math

from .numfield import FieldElement, _as_elem, _make, _reduced

_new = object.__new__


def _poly(A, B, c: int, d) -> Poly:
    """The Poly (A + B sqrt(d))/c for int sequences A, B of one length and an int c > 0."""
    n = len(A)
    while n and not A[n - 1] and not B[n - 1]:
        n -= 1
    A, B = A[:n], B[:n]
    g = 1 if c == 1 else math.gcd(c, *A, *B)
    if g != 1:
        A, B, c = [a // g for a in A], [b // g for b in B], c // g
    poly = _new(Poly)
    poly._A, poly._B, poly._c, poly.d, poly._coeffs = tuple(A), tuple(B), c, d, None
    return poly


def _pair_mul(x, y, u, v, dd):
    """(x + y sqrt(d))(u + v sqrt(d)) as an int pair, with dd = d (0 over Q)."""
    return x * u + dd * y * v, x * v + y * u


class Poly:
    """A polynomial over Q(sqrt(d)), immutable in practice."""

    __slots__ = ("_A", "_B", "_c", "d", "_coeffs")

    def __new__(cls, coeffs, d):
        forms = [_as_elem(x, d).integral_form() for x in coeffs]
        c = math.lcm(*(k for _, _, k in forms))
        return _poly([a * (c // k) for a, _, k in forms], [b * (c // k) for _, b, k in forms], c, d)

    def __reduce__(self):
        return _poly, (self._A, self._B, self._c, self.d)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        if self._coeffs is None:
            c, d = self._c, self.d
            self._coeffs = tuple(_reduced(a, b, c, d) for a, b in zip(self._A, self._B))
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._A) - 1

    def __bool__(self) -> bool:
        return bool(self._A)

    def order(self, start: int = 0) -> int | None:
        """The least exponent i >= start with a nonzero coefficient, or None."""
        A, B = self._A, self._B
        return next((i for i in range(start, len(A)) if A[i] or B[i]), None)

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self._A):
            return _reduced(self._A[i], self._B[i], self._c, self.d)
        return _make(0, 0, 1, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        same = (self._c, self._A, self._B) == (other._c, other._A, other._B)
        return same and (self.d == other.d or not any(self._B))

    def __hash__(self) -> int:
        return hash((self._A, self._B, self._c))

    def __mul__(self, scalar) -> Poly:
        """The product by a scalar; pade_generic scales its columns with it."""
        a, b, c = _as_elem(scalar, self.d).integral_form()
        dd = self.d or 0
        pairs = [_pair_mul(x, y, a, b, dd) for x, y in zip(self._A, self._B)]
        return _poly([x for x, _ in pairs], [y for _, y in pairs], self._c * c, self.d)

    __rmul__ = __mul__

    def __call__(self, point) -> FieldElement:
        """The value at point, by Horner's rule on the numerators."""
        a, b, c = _as_elem(point, self.d).integral_form()
        dd = self.d or 0
        x = y = 0
        scale = 1  # c^(degree - i) at step i
        for ai, bi in zip(reversed(self._A), reversed(self._B)):
            x, y = _pair_mul(x, y, a, b, dd)
            x, y = x + ai * scale, y + bi * scale
            scale *= c
        return _reduced(x, y, self._c * c ** max(self.degree, 0), self.d)

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        if not self._A:
            return "Poly(0)"
        terms = [f"({c})t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def _first_difference(x: Poly, y: Poly) -> int | None:
    """The least exponent at which two Polys over one field differ, or None:
    the numerators are compared cross-multiplied by the two denominators."""
    if len(x._A) < len(y._A):
        x, y = y, x
    r, s = y._c, x._c
    for i, (a, b, u, v) in enumerate(zip(x._A, x._B, y._A, y._B)):
        if a * r != u * s or b * r != v * s:
            return i
    return x.order(len(y._A))


def _linear_pairs(p, d) -> tuple[tuple[int, int], tuple[int, int], int]:
    """The int pairs of e P = (r0 + s0 sqrt(d)) + (r1 + s1 sqrt(d)) x and e > 0,
    for P = p[0] + p[1] x and e the lcm of the two denominators."""
    (a0, b0, c0), (a1, b1, c1) = [(x, 0, 1) if type(x) is int else _as_elem(x, d).integral_form() for x in p]
    e = math.lcm(c0, c1)
    return (a0 * (e // c0), b0 * (e // c0)), (a1 * (e // c1), b1 * (e // c1)), e


def _root_power_product(points, l_vec, d) -> Poly:
    """prod_j (beta_j - w)^{l_j} for points beta_j = (a_j + b_j sqrt(d))/f_j:
    the numerators are multiplied by (a_j + b_j sqrt(d)) - f_j w once per
    unit of l_j, over the one denominator prod_j f_j^{l_j}."""
    dd = d or 0
    A, B, c = [1], [0], 1
    for point, lj in zip(points, l_vec):
        a, b, f = point.integral_form()
        for _ in range(lj):
            A, B = (
                [a * x + dd * b * y - f * u for x, y, u in zip(A + [0], B + [0], [0] + A)],
                [a * y + b * x - f * v for x, y, v in zip(A + [0], B + [0], [0] + B)],
            )
        c *= f**lj
    return _poly(A, B, c, d)


def _cleared_leading_column(sigma: Poly, p, mu: int) -> tuple[Poly, FieldElement]:
    """C_0(t) = sum_i sigma_i prod_{k=i+mu}^{L+mu-1} P(k) t^(L-i) and the
    clearing factor [P]_{L+mu}, for sigma of degree L and P = p[0] + p[1] x,
    on the int pairs e P(k): coefficient L - i is scaled by e^i to lie over e^L."""
    d = sigma.d
    dd = d or 0
    (r0, s0), (r1, s1), e = _linear_pairs(p, d)
    L = sigma.degree
    A, B = [sigma._A[L] * e**L], [sigma._B[L] * e**L]  # ascending: sigma_i at index L - i
    x, y = 1, 0  # prod_{j=k}^{L+mu-1} e P(j)
    for k in range(L + mu - 1, -1, -1):
        x, y = _pair_mul(x, y, r0 + r1 * k, s0 + s1 * k, dd)
        i = k - mu
        if i >= 0:
            u, v = _pair_mul(sigma._A[i], sigma._B[i], x, y, dd)
            A.append(u * e**i)
            B.append(v * e**i)
    return _poly(A, B, sigma._c * e**L, d), _reduced(x, y, e ** (L + mu), d)


def _factorial_series_product(a0: Poly, p, point, n_terms: int, lo: int = 0) -> Poly:
    """a0(t) sum_n [P]_n (point t)^n from t^lo to below t^n_terms (0 below
    t^lo), [P]_n = prod_{k<n} P(k), for P = p[0] + p[1] x of degree one.

    With q the product of the denominators of P and the point, the series'
    term n is S_n / q^n, S_n the product of the int pairs pi(k) = q P(k) point
    for k < n.  Coefficient n is q^(n_terms-1-n) S_a H over q^(n_terms-1),
    with E = min(deg a0, n), a = n - E and, by Horner's rule on a0's
    numerators a_i, H = q^E a_E + pi(a) (q^(E-1) a_(E-1) + ... + pi(n-1) a_0):
    every step multiplies by a small pair.
    """
    d = a0.d
    dd = d or 0
    (p0, q0), (p1, q1), e = _linear_pairs(p, d)
    a, b, f = _as_elem(point, d).integral_form()
    (r0, s0), (r1, s1) = _pair_mul(p0, q0, a, b, dd), _pair_mul(p1, q1, a, b, dd)
    q, top, L = e * f, n_terms - 1, a0.degree
    CA, CB = [x * q**i for i, x in enumerate(a0._A)], [y * q**i for i, y in enumerate(a0._B)]
    PA = [r0 + r1 * k for k in range(top)]
    PB = [s0 + s1 * k for k in range(top)]
    S = [(1, 0)]  # S_a for a <= n_terms - 1 - deg a0
    for k in range(max(0, top - L)):
        S.append(_pair_mul(*S[-1], PA[k], PB[k], dd))
    irrational = any(CB) or s0 or s1
    A, B = [0] * n_terms, [0] * n_terms
    for n in range(max(lo, 0), n_terms):
        E = min(L, n)
        x, y = CA[0], CB[0]
        if irrational:
            for i in range(1, E + 1):
                u, v = PA[n - i], PB[n - i]
                x, y = CA[i] + x * u + dd * y * v, CB[i] + x * v + y * u
            A[n], B[n] = _pair_mul(x, y, *S[n - E], dd)
        else:
            for i in range(1, E + 1):
                x = CA[i] + x * PA[n - i]
            A[n] = x * S[n - E][0]
    if q != 1:
        A = [x * q ** (top - n) for n, x in enumerate(A)]
        B = [y * q ** (top - n) for n, y in enumerate(B)]
    return _poly(A, B, a0._c * q ** max(top, 0), d)


def _leading_minor(rows: list[list[Poly]], tops: list[int]) -> FieldElement:
    """det T, T_ik the coefficient of t^tops[i] in entry ik of a square matrix
    of Polys whose row i has degree at most tops[i]: the determinant's
    coefficient of t^(sum tops).  Each row of T is cleared by the lcm of its
    denominators, and its int pairs are eliminated fraction-free over
    Z[sqrt(d)] (Bareiss, Math. Comp. 22, 1968), each exact division by the
    previous pivot through its conjugate and int norm.
    """
    d = rows[0][0].d
    dd = d or 0
    T, scale = [], 1
    for row, top in zip(rows, tops):
        c = math.lcm(*(poly._c for poly in row))
        scale *= c
        T.append([
            (poly._A[top] * (c // poly._c), poly._B[top] * (c // poly._c))
            if top < len(poly._A) else (0, 0)
            for poly in row
        ])
    n, sign, (u, v) = len(T), 1, (1, 0)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if T[i][k] != (0, 0)), None)
        if pivot is None:
            return _make(0, 0, 1, d)
        if pivot != k:
            T[k], T[pivot], sign = T[pivot], T[k], -sign
        (x, y), norm = T[k][k], u * u - dd * v * v
        for i in range(k + 1, n):
            a, b = T[i][k]
            for j in range(k + 1, n):
                p, q = _pair_mul(*T[i][j], x, y, dd)
                r, s = _pair_mul(a, b, *T[k][j], dd)
                p, q = _pair_mul(p - r, q - s, u, -v, dd)
                T[i][j] = (p // norm, q // norm)
        u, v = x, y
    x, y = T[-1][-1]
    return _reduced(sign * x, sign * y, scale, d)
