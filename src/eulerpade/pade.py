"""Explicit Pade approximations to factorial-type power series.

The construction pivots on the expansion prod_j (beta_j - w)^{l_j}
= sum_i sigma_i w^i, whose coefficients annihilate sum_i sigma_i i^k beta_j^i
for every k < l_j.  Layering those annihilations produces, for the series
G(t) = sum_n [P]_n t^n with [P]_n = prod_{k<n} P(k) and deg P = 1,
polynomials A_0, A_j with

    A_0(t) G(beta_j t) - A_j(t) = R_j(t),    ord R_j >= L + mu + l_j,

where L = sum l_j and mu in {0..m} shifts the denominators.  One
construction builds them cleared by [P]_{L+mu}: C_0 has the division-free
coefficients sigma_i prod_{k=i+mu}^{L+mu-1} P(k), and each C_j, the
remainder coefficients and the order check are read off the one product
series C_0(t) G(beta_j t).  Euler's series is the case P(x) = 1 + x, where
[P]_{ml+mu} = (ml+mu)! and the cleared polynomials B_* have
algebraic-integer coefficients; the determinant of the (m+1) x (m+1)
matrix of the B's collapses to a single monomial whose coefficient has a
closed form, which is what guarantees a usable mu.

All of it runs on int numerators over one denominator per polynomial (see
polys): the product series scales the denominators of P and of the point
once, the order check compares numerators, and the determinant is decided
from the Pade band and one scalar leading minor (see pade_determinant),
with no polynomial product.
Every entry point refuses, before it builds anything, a call over
PADE_BUDGET series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import (
    CutoffTooSmallError,
    DegeneratePolynomialError,
    FieldMismatchError,
    PrecisionCapError,
)
from .numfield import FieldElement, _as_elem, _validated_lambdas, _validated_points
from .polys import (
    Poly,
    _cleared_leading_column,
    _factorial_series_product,
    _first_difference,
    _leading_minor,
    _root_power_product,
)


#: the most series coefficients one call may build, counted before anything
#: is built: m columns of L + mu for a system, m series to the cutoff for an
#: order check, and the systems for every mu in 0..m for pade_determinant
#: and select_mu; pade_determinant builds l more per series than it counts,
#: the Pade band.  The slowest calls it admits have m = 1:
#: pade_construct(1, 799, 1, [1]) takes about 0.2 s, pade_generic 0.21 s,
#: an order check to 800 0.08 s and pade_determinant(1, 399, [1]) 0.1 s;
#: for m = 2..5 the slowest determinants (l = 66, 21, 9, 4) take about 9,
#: 3, 3 and 1.2 ms.  The count is blind to height: pade_determinant(1, 399,
#: [10**20]) takes 0.9-1.0 s (Python 3.11, x86-64)
PADE_BUDGET = 800


def _check_budget(series: int, length: int) -> None:
    """Refuse `series` series of `length` coefficients each over PADE_BUDGET."""
    if series * length > PADE_BUDGET:
        raise PrecisionCapError(
            f"needs {series * length} series coefficients ({series} x {length}), "
            f"over the budget of PADE_BUDGET = {PADE_BUDGET}"
        )


def _common_field(elems) -> int | None:
    d = None
    for e in elems:
        if isinstance(e, FieldElement) and e.d is not None:
            if d is not None and e.d != d:
                raise FieldMismatchError("mixed quadratic fields")
            d = e.d
    return d


@dataclass(frozen=True)
class SigmaVector:
    """Coefficients sigma_0..sigma_L of prod_j (beta_j - w)^{l_j}, held as
    the Poly sum_i sigma_i w^i."""

    l_vec: tuple[int, ...]
    beta: tuple[FieldElement, ...]
    poly: Poly

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return self.poly.coeffs

    @property
    def L(self) -> int:
        return sum(self.l_vec)


def sigma_coeffs(l_vec, beta) -> SigmaVector:
    """Expand prod_j (beta_j - w)^{l_j} exactly."""
    l_vec = tuple(int(l) for l in l_vec)
    if len(l_vec) != len(beta) or any(l < 1 for l in l_vec):
        raise ValueError("need one exponent l_j >= 1 per beta_j")
    d = _common_field(beta)
    beta = tuple(_as_elem(b, d) for b in beta)
    return SigmaVector(l_vec, beta, _root_power_product(beta, l_vec, d))


def sigma_annihilation_check(sv: SigmaVector, j: int, k: int) -> FieldElement:
    """sum_i sigma_i i^k beta_j^i, exactly; zero whenever k < l_j (j is 1-based)."""
    if not 1 <= j <= len(sv.beta):
        raise ValueError(f"j must be in 1..{len(sv.beta)}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    bj = sv.beta[j - 1]
    d = bj.d
    acc = _as_elem(0, d)
    power = _as_elem(1, d)
    for i, sig in enumerate(sv.coeffs):
        acc = acc + sig * (i**k) * power
        power = power * bj
    return acc


@dataclass(frozen=True)
class PadeSystem:
    """Polynomials B_0..B_m for G(t) = sum_n [P]_n t^n, P(x) = p0 + p1 x.

    B_0(t) G(alpha_j t) - B_j(t) vanishes to order at least L + mu + l_j.
    pade_construct builds Euler's system: P(x) = 1 + x, every l_j = l and
    the columns cleared by (ml+mu)!; pade_generic divides them by
    [P]_{L+mu} instead.
    """

    l_vec: tuple[int, ...]
    mu: int
    alpha: tuple[FieldElement, ...]
    p0: int | FieldElement
    p1: int | FieldElement
    sigma: SigmaVector
    B: tuple[Poly, ...]
    d: int | None

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def l(self) -> int:
        return min(self.l_vec)

    @property
    def order_target(self) -> int:
        return self.sigma.L + self.mu + self.l

    def b_values(self) -> tuple[FieldElement, ...]:
        """b_{l,mu,i} = B_i(1) for i = 0..m."""
        return tuple(B(1) for B in self.B)

    def remainder_coefficient(self, n: int, j: int) -> FieldElement:
        """Coefficient n of B_0(t) G(alpha_j t) (j 1-based).

        It equals B_j's coefficient below L+mu, and the Pade property makes
        it vanish for L+mu <= n < L+mu+l_j.  For Euler's system it is
        (ml+mu)! * r_{n,j}.
        """
        if not 1 <= j <= self.m:
            raise ValueError(f"j must be in 1..{self.m}")
        _check_budget(1, n + 1)
        return _factorial_series_product(
            self.B[0], (self.p0, self.p1), self.alpha[j - 1], n + 1, n
        )[n]

    def order_check(self, cutoff: int) -> list[int]:
        """First nonzero exponent of B_0(t) G(alpha_j t) - B_j(t) below the cutoff, per column.

        Expands B_0 times the series below t^cutoff, which must vanish on the
        band L+mu <= n < L+mu+l_j (else RuntimeError), and compares it with
        B_j on the numerators (polys._first_difference).
        """
        start = self.sigma.L + self.mu
        if cutoff < start + max(self.l_vec) + 5:
            raise CutoffTooSmallError(f"cutoff must be at least {start + max(self.l_vec) + 5}")
        _check_budget(self.m, cutoff)
        orders = []
        for j, (point, lj) in enumerate(zip(self.alpha, self.l_vec), start=1):
            series = _factorial_series_product(self.B[0], (self.p0, self.p1), point, cutoff)
            n = series.order(start)
            if n is not None and n < start + lj:
                raise RuntimeError(f"vanishing band violated at n={n}, j={j}")
            n = _first_difference(series, self.B[j])
            orders.append(cutoff if n is None else n)
        return orders

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "mu": self.mu,
            "alphas": [str(a) for a in self.alpha],
            "B": [B.to_json() for B in self.B],
        }


def _cleared_columns(sv: SigmaVector, mu: int, p0, p1) -> tuple[tuple[Poly, ...], FieldElement]:
    """The columns C = [P]_{L+mu} * A and the clearing factor [P]_{L+mu}.

    C_0(t) = sum_i sigma_i prod_{k=i+mu}^{L+mu-1} P(k) t^(L-i), and C_j is
    C_0(t) G(beta_j t) below t^(L+mu).
    """
    c0, cleared = _cleared_leading_column(sv.poly, (p0, p1), mu)
    columns = (c0, *(_factorial_series_product(c0, (p0, p1), b, sv.L + mu) for b in sv.beta))
    return columns, cleared


def _euler_sigma(m: int, l: int, alpha) -> SigmaVector:
    """sigma for Euler's system: m >= 1 nonzero, pairwise distinct points, each of order l >= 1."""
    if m < 1 or l < 1:
        raise ValueError("need m >= 1, l >= 1, 0 <= mu <= m")
    if len(alpha) != m:
        raise ValueError(f"expected {m} evaluation points")
    return sigma_coeffs([l] * m, _validated_points(alpha, _common_field(alpha)))


def pade_construct(m: int, l: int, mu: int, alpha) -> PadeSystem:
    """Build the cleared Euler-series system for given m >= 1, l >= 1, 0 <= mu <= m.

    B_0(t) = sum_i sigma_i ((ml+mu)!/(i+mu)!) t^(ml-i) of degree ml, and
    B_j collects the product-series coefficients below t^(ml+mu); all
    coefficients are algebraic integers.  These are the generic columns
    for P(x) = 1 + x, where the clearing factor [P]_{ml+mu} is (ml+mu)!.
    """
    if not 0 <= mu <= m:
        raise ValueError("need m >= 1, l >= 1, 0 <= mu <= m")
    _check_budget(m, m * l + mu)
    sv = _euler_sigma(m, l, alpha)
    columns, _ = _cleared_columns(sv, mu, 1, 1)
    return PadeSystem(sv.l_vec, mu, sv.beta, 1, 1, sv, columns, sv.poly.d)


def pade_order_check(system: PadeSystem, cutoff: int) -> int:
    """Minimal vanishing order over j of B_0(t) G(alpha_j t) - B_j(t).

    The smallest entry of system.order_check(cutoff), which also confirms
    the vanishing band of every column.
    """
    return min(system.order_check(cutoff))


def pade_generic(l_vec, mu: int, beta, p0, p1) -> PadeSystem:
    """Build B_0(t) = sum_i sigma_i/[P]_{i+mu} t^(L-i) and the matching B_j.

    The orders l_j may differ from column to column; the remainder in
    column j vanishes to order at least L + mu + l_j.  The columns are the
    cleared ones divided by [P]_{L+mu}.  The points beta must be nonzero
    and pairwise distinct, as in pade_construct.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    _check_budget(len(l_vec), sum(l_vec) + mu)
    d = _common_field((*beta, p0, p1))
    beta = _validated_points(beta, d)
    p0 = _as_elem(p0, d)
    p1 = _as_elem(p1, d)
    if not p1:
        raise DegeneratePolynomialError("P must have degree exactly one")
    sv = sigma_coeffs(l_vec, beta)
    columns, cleared = _cleared_columns(sv, mu, p0, p1)
    if not cleared:
        raise ZeroDivisionError("P vanishes at a nonnegative integer below L + mu")
    scale = cleared.inverse()
    return PadeSystem(
        sv.l_vec, mu, sv.beta, p0, p1, sv, tuple(column * scale for column in columns), d
    )


def pade_determinant(m: int, l: int, alpha) -> tuple[int, FieldElement, bool]:
    """The determinant of the (m+1) x (m+1) matrix of B_{l,mu,j} over mu, j.

    Returns (exponent, b, determinant_equal): the determinant is the single
    monomial b * t^e, e = m(m+1)l + m(m-1)/2, with

        b = (-1)^(l m(m-1)/2) (l!)^m prod_{mu<m} (ml+mu)!
            * prod_j alpha_j^(2l) * Delta^(2l+1),  Delta = prod_{i<j} (alpha_j - alpha_i)

    and the flag reports exactly whether the determinant is b t^e.
    (Expanding along the first column, the lowest order is attained at the
    row mu = m, which gives b = (-1)^(ml) prod_{mu<m} (ml+mu)!
    prod_j alpha_j^l S_j * Delta with S_j = sum_i sigma_i i^l alpha_j^i.
    Each alpha_j is an l-fold root of sigma, so S_j, the value of
    (w d/dw)^l sigma at alpha_j, is (-1)^l l! alpha_j^l
    prod_{k != j} (alpha_k - alpha_j)^l.)  So b is nonzero exactly when the
    points are nonzero and pairwise distinct.

    The flag is decided with no polynomial product.  Row mu of the matrix
    holds C_0, of degree at most L = ml, and for each j the part B_j of
    Y_j = C_0(t) G(alpha_j t) below t^(L+mu), so its degree is at most
    D_mu = max(L, L+mu-1), and sum_mu D_mu = e.  Hence deg det <= e, and
    det's coefficient of t^e is det T, T's row mu holding the row's
    coefficients of t^(D_mu) (polys._leading_minor).  In K[[t]], subtracting
    G(alpha_j t) times column 0 from column j keeps det and turns entry
    (mu, j) into -R_j, the part of Y_j from t^(L+mu) on.  The band
    L+mu <= n < L+mu+l of Y_j is checked to vanish (RuntimeError naming n,
    mu and j if not), so R_j has order at least L+mu+l; expanding along
    column 0, the term in which row mu0 supplies column 0 has order at least
    sum_{mu != mu0} (L+mu+l) >= e.  So ord det >= e, det = det(T) t^e, and
    the flag is det T == b; a row of degree below D_mu makes det T = 0.
    Y_j is built only from t^(L+mu-1), B_j's top coefficient.
    """
    _check_budget(m, sum(m * l + mu for mu in range(m + 1)))
    sv = _euler_sigma(m, l, alpha)
    d, alpha = sv.poly.d, sv.beta
    exponent = m * (m + 1) * l + m * (m - 1) // 2

    delta = _as_elem(1, d)
    for i in range(m):
        for j in range(i + 1, m):
            delta = delta * (alpha[j] - alpha[i])
    scale = math.factorial(l) ** m * math.prod(math.factorial(m * l + mu) for mu in range(m))
    sign = -1 if l * (m * (m - 1) // 2) % 2 else 1
    b = sign * scale * math.prod(alpha) ** (2 * l) * delta ** (2 * l + 1)

    rows, tops = [], []
    for mu in range(m + 1):
        c0, _ = _cleared_leading_column(sv.poly, (1, 1), mu)
        start = sv.L + mu
        rows.append([c0])
        tops.append(max(sv.L, start - 1))
        for j, point in enumerate(alpha, start=1):
            window = _factorial_series_product(c0, (1, 1), point, start + l, start - 1)
            n = window.order(start)
            if n is not None:
                raise RuntimeError(f"vanishing band violated at n={n}, mu={mu}, j={j}")
            rows[-1].append(window)
    return exponent, b, _leading_minor(rows, tops) == b


def select_mu(l: int, lambda_vec, alpha) -> tuple[int, FieldElement]:
    """The least mu in {0..m} with W(l, mu) = sum_i lambda_i B_i(1) nonzero.

    Existence is guaranteed by the nonvanishing of the Pade determinant at
    t = 1.
    """
    m = len(alpha)
    d = _common_field((*lambda_vec, *alpha))
    lambdas = _validated_lambdas(lambda_vec, m, d)
    _check_budget(m, sum(m * l + mu for mu in range(m + 1)))
    sv = _euler_sigma(m, l, alpha)
    for mu in range(m + 1):
        columns, _ = _cleared_columns(sv, mu, 1, 1)
        w = sum((lam * column(1) for lam, column in zip(lambdas, columns)), _as_elem(0, d))
        if w:
            return mu, w
    raise RuntimeError("no mu produced a nonzero W; determinant nonvanishing violated")
