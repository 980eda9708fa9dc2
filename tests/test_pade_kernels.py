"""Property tests of the int-pair Pade kernels in polys against references
that keep one FieldElement per coefficient: sigma multiplied out one linear
factor at a time, C_0 and the clearing factor [P]_{L+mu} by the product loop
the kernel replaced, the determinant matrix built one pade_construct per mu,
and the determinant's decision against the whole Bareiss determinant and
against mutants of its band and its leading minor."""

from fractions import Fraction

import pytest

from eulerpade import pade
from eulerpade.errors import FieldMismatchError, RepeatedAlphaError, ZeroAlphaError
from eulerpade.numfield import FieldElement, QuadraticField, _as_elem
from eulerpade.pade import pade_construct, pade_determinant, pade_generic, sigma_coeffs
from eulerpade.polys import Poly, _cleared_leading_column, _factorial_series_product

from bareiss import _poly_det
from conftest import sigma_by_linear_factors

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

FIELDS = (None, 5, -1)


def _elem(d, x, y=0):
    return FieldElement(Fraction(x), Fraction(y), d)


@st.composite
def configurations(draw, max_m=3, max_l=4):
    """(d, points, l_vec): m nonzero, pairwise distinct points whose
    coordinates have denominator 1 or 2, and one order l_j per point."""
    d = draw(st.sampled_from(FIELDS))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2)))
    elem = st.builds(lambda x, y: FieldElement(x, y, d), coord, st.just(0) if d is None else coord)
    m = draw(st.integers(1, max_m))
    points = draw(st.lists(elem.filter(bool), min_size=m, max_size=m, unique_by=FieldElement.integral_form))
    l_vec = draw(st.lists(st.integers(1, max_l), min_size=m, max_size=m))
    return d, points, l_vec


HALF_INTEGRAL = [
    (5, [_elem(5, Fraction(1, 2), Fraction(1, 2)), _elem(5, Fraction(3, 2), Fraction(-1, 2))], [2, 1]),
    (-1, [_elem(-1, Fraction(1, 2), 1), _elem(-1, 0, 2), _elem(-1, -3)], [1, 3, 2]),
    (None, [_elem(None, Fraction(1, 2)), _elem(None, Fraction(-5, 2))], [3, 1]),
]


def _examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


@settings(max_examples=200, deadline=None)
@given(configurations())
@_examples(HALF_INTEGRAL)
def test_sigma_matches_the_linear_factor_oracle(case):
    d, points, l_vec = case
    sv = sigma_coeffs(l_vec, points)
    expected = sigma_by_linear_factors(l_vec, points, _as_elem(1, d))
    assert list(sv.coeffs) == expected
    assert sv.coeffs is sv.coeffs  # built once, on the first read
    assert sv.poly == Poly(expected, d) and sv.poly.degree == sv.L


def _cleared_reference(sigma, mu, p0, p1, one):
    """C_0's coefficients, ascending, and [P]_{L+mu}, by FieldElement products."""
    L = len(sigma) - 1
    c0, cleared = [], one  # cleared is prod_{k=i+mu}^{L+mu-1} P(k)
    for i in range(L, -1, -1):
        c0.append(sigma[i] * cleared)
        if i:
            cleared = cleared * (p0 + p1 * (i - 1 + mu))
    for k in range(mu):
        cleared = cleared * (p0 + p1 * k)
    return c0, cleared


def _polynomials(d):
    """(p0, p1) for P = p0 + p1 x, none vanishing at a nonnegative integer."""
    rational = [(Fraction(1, 2), Fraction(3, 2)), (Fraction(-7, 3), Fraction(2, 5)), (1, 1)]
    if d is None:
        return rational
    irrational = (_elem(d, Fraction(1, 2), Fraction(3, 2)), _elem(d, -2, Fraction(1, 3)))
    return rational + [irrational, (3, _elem(d, 0, 1))]


@settings(max_examples=60, deadline=None)
@given(configurations(max_l=3))
@_examples(HALF_INTEGRAL)
def test_cleared_leading_column_matches_the_field_element_loop(case):
    d, points, l_vec = case
    sv = sigma_coeffs(l_vec, points)
    one = _as_elem(1, d)
    for p0, p1 in _polynomials(d):
        p0, p1 = _as_elem(p0, d), _as_elem(p1, d)
        for mu in range(len(points) + 1):
            c0_ref, cleared_ref = _cleared_reference(list(sv.coeffs), mu, p0, p1, one)
            c0, cleared = _cleared_leading_column(sv.poly, (p0, p1), mu)
            assert list(c0.coeffs) == c0_ref and cleared == cleared_ref
            system = pade_generic(l_vec, mu, points, p0, p1)
            scale = cleared_ref.inverse()
            assert list(system.B[0].coeffs) == [c * scale for c in c0_ref]


@settings(max_examples=60, deadline=None)
@given(configurations(max_m=2, max_l=3), st.integers(0, 14), st.integers(0, 16))
def test_series_product_window_matches_the_field_element_sum(case, lo, n_terms):
    # coefficients lo..n_terms-1 of a0(t) sum_n [P]_n (x t)^n by Horner's
    # rule, against the convolution of a0 with the series summed term by
    # term; a0 is sigma, whose denominators come from the points
    d, points, l_vec = case
    a0 = sigma_coeffs(l_vec, points).poly
    one = _as_elem(1, d)
    for p0, p1 in _polynomials(d):
        p0, p1 = _as_elem(p0, d), _as_elem(p1, d)
        for point in points:
            series = [one]
            for k in range(n_terms):
                series.append(series[-1] * (p0 + p1 * k) * point)
            expected = [
                sum((a0[i] * series[n - i] for i in range(min(a0.degree, n) + 1)), 0 * one)
                if n >= lo else 0 * one
                for n in range(n_terms)
            ]
            got = _factorial_series_product(a0, (p0, p1), point, n_terms, lo)
            assert got.degree < n_terms
            assert [got[n] for n in range(n_terms)] == expected


HALF_INTEGRAL_M4 = [
    (None, [_elem(None, Fraction(1, 2)), _elem(None, -1), _elem(None, Fraction(3, 2)), _elem(None, 2)], [1] * 4),
    (5, [_elem(5, Fraction(1, 2), Fraction(1, 2)), _elem(5, Fraction(1, 2), Fraction(-1, 2)),
         _elem(5, 2), _elem(5, 0, 1)], [1] * 4),
    (-1, [_elem(-1, Fraction(1, 2), 1), _elem(-1, 0, 2), _elem(-1, -3), _elem(-1, 1, -1)], [2] * 4),
]


@settings(max_examples=40, deadline=None)
@given(configurations(max_m=4, max_l=2))
@_examples(HALF_INTEGRAL_M4 + HALF_INTEGRAL)
def test_determinant_matches_the_matrix_of_constructed_systems(case):
    # the flag, decided from the Pade band and one scalar leading minor,
    # and the whole determinant over K[t] are both b t^e
    d, points, l_vec = case
    m, l = len(points), l_vec[0]
    exponent, b, ok = pade_determinant(m, l, points)
    matrix = [list(pade_construct(m, l, mu, points).B) for mu in range(m + 1)]
    assert ok is True and b
    assert exponent == m * (m + 1) * l + m * (m - 1) // 2
    assert _poly_det(matrix, d) == Poly.monomial(b, exponent, d)


@pytest.mark.parametrize(
    "m, l, alpha, error",
    [
        (0, 1, [], ValueError),
        (1, 0, [1], ValueError),
        (2, 1, [1], ValueError),
        (2, 1, [1, 2, 3], ValueError),
        (2, 1, [1, 0], ZeroAlphaError),
        (2, 1, [3, 3], RepeatedAlphaError),
        (2, 1, [QuadraticField(5).sqrt_gen(), QuadraticField(2).sqrt_gen()], FieldMismatchError),
    ],
)
def test_determinant_refuses_what_construct_refuses(m, l, alpha, error):
    with pytest.raises(error) as construct:
        pade_construct(m, l, 0, alpha)
    with pytest.raises(error) as determinant:
        pade_determinant(m, l, alpha)
    assert str(determinant.value) == str(construct.value)


MUTANT_CASES = [
    (None, [_elem(None, 1), _elem(None, -1)], 2),
    (5, [_elem(5, Fraction(1, 2), Fraction(1, 2)), _elem(5, 2), _elem(5, Fraction(-3, 2), Fraction(1, 2))], 1),
    (-1, [_elem(-1, 0, 1), _elem(-1, Fraction(1, 2), -1)], 3),
]


@pytest.mark.parametrize("d, points, l", MUTANT_CASES)
def test_a_nonzero_band_coefficient_raises(monkeypatch, d, points, l):
    # a term added at either end of the band L+mu <= n < L+mu+l of one
    # column's product series is refused by name, for every row and column
    m = len(points)
    real = pade._factorial_series_product
    for mu in range(m + 1):
        for j in range(1, m + 1):
            for n in (m * l + mu, m * l + mu + l - 1):
                calls = []

                def mutant(a0, p, point, n_terms, lo=0):
                    series = real(a0, p, point, n_terms, lo)
                    calls.append(n_terms)
                    if len(calls) == mu * m + j and n < n_terms:  # a term the series has
                        series = series + Poly.monomial(1, n, d)
                    return series

                monkeypatch.setattr(pade, "_factorial_series_product", mutant)
                with pytest.raises(RuntimeError, match=f"band violated at n={n}, mu={mu}, j={j}$"):
                    pade_determinant(m, l, points)
    monkeypatch.undo()
    assert pade_determinant(m, l, points)[2] is True


@pytest.mark.parametrize("d, points, l", MUTANT_CASES)
def test_a_changed_or_dropped_leading_row_gives_false(monkeypatch, d, points, l):
    # the rows reach the leading minor with their degree caps; doubling one
    # row's top coefficients doubles the minor, and dropping them leaves a
    # row of lower degree, so the determinant is 0: both must read False
    m = len(points)
    real = pade._leading_minor
    assert pade_determinant(m, l, points)[2] is True
    for row in range(m + 1):
        for sign in (1, -1):

            def mutant(rows, tops):
                top = tops[row]
                rows[row] = [p + Poly.monomial(sign * p[top], top, d) for p in rows[row]]
                return real(rows, tops)

            monkeypatch.setattr(pade, "_leading_minor", mutant)
            assert pade_determinant(m, l, points)[2] is False, (row, sign)
