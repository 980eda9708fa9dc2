import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import eulerpade
from eulerpade import bounds, certify, pade, polys
from eulerpade.certify import remainder_at_unity
from eulerpade.errors import (
    AllLambdaZeroError,
    CutoffTooSmallError,
    DegeneratePolynomialError,
    FieldMismatchError,
    PrecisionCapError,
    RepeatedAlphaError,
    ZeroAlphaError,
)
from eulerpade.numfield import QuadraticField, arch_abs_normalized
from eulerpade.pade import (
    pade_construct,
    pade_determinant,
    pade_generic,
    pade_order_check,
    select_mu,
    sigma_annihilation_check,
    sigma_coeffs,
)
from eulerpade.places import factorial_valuation, places_above, valuation
from eulerpade.polys import Poly

from bareiss import _poly_det
from conftest import sigma_by_linear_factors


def test_sigma_examples():
    sv = sigma_coeffs([2], [1])
    assert [c for c in sv.coeffs] == [1, -2, 1]
    sv2 = sigma_coeffs([1, 1], [1, -1])
    assert [c for c in sv2.coeffs] == [-1, 0, 1]


def test_sigma_top_coefficient():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 3)
        l_vec = [rng.randint(1, 3) for _ in range(m)]
        beta = rng.sample(range(-6, 7), m)
        sv = sigma_coeffs(l_vec, beta)
        sign = -1 if sv.L % 2 else 1
        assert sv.coeffs[-1] == sign


def test_sigma_annihilation_examples():
    sv = sigma_coeffs([1, 1], [1, -1])
    assert not sigma_annihilation_check(sv, 1, 0)
    sv2 = sigma_coeffs([2], [3])
    assert not sigma_annihilation_check(sv2, 1, 1)
    # sharpness at k = l_j: sum is 0*9 - 6*3*1 + 1*4*9 = 18
    assert sigma_annihilation_check(sv2, 1, 2) == 18


def test_sigma_annihilation_random_unequal():
    rng = random.Random(12)
    for _ in range(20):
        m = rng.randint(1, 3)
        l_vec = [rng.randint(1, 4) for _ in range(m)]
        beta = rng.sample([x for x in range(-7, 8) if x != 0], m)
        sv = sigma_coeffs(l_vec, beta)
        for j in range(1, m + 1):
            for k in range(l_vec[j - 1]):
                assert not sigma_annihilation_check(sv, j, k)


def test_pade_construct_minimal_example():
    system = pade_construct(1, 1, 0, [1])
    assert system.B[0] == Poly([-1, 1], None)  # t - 1
    assert system.B[1] == Poly([-1], None)  # -1
    # oracle: (t-1)(1 + t + 2t^2 + 6t^3 + ...) + 1 = -t^2 - 4t^3 - ...
    assert system.remainder_coefficient(2, 1) == -1
    assert system.remainder_coefficient(3, 1) == -4
    assert pade_order_check(system, 10) == 2


def test_pade_constant_term_sign():
    for m, l, mu, alphas in [(1, 2, 1, [3]), (2, 1, 0, [1, 2]), (2, 2, 2, [1, -1]), (3, 1, 1, [1, -2, 3])]:
        system = pade_construct(m, l, mu, alphas)
        assert system.B[0][0] == (-1) ** (m * l)
        assert system.B[0].degree == m * l


def test_pade_coefficients_integral(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    psi = phi.conjugate()
    for system in (pade_construct(2, 2, 1, [1, -2]), pade_construct(2, 1, 2, [phi, psi])):
        for poly in system.B:
            assert all(c.is_algebraic_integer() for c in poly.coeffs)
        assert all(b.is_algebraic_integer() for b in system.b_values())


def test_pade_degree_bounds():
    for m, l, mu in [(1, 1, 1), (2, 2, 0), (2, 3, 2), (3, 2, 3)]:
        alphas = [1, -1, 2][:m]
        system = pade_construct(m, l, mu, alphas)
        assert system.B[0].degree == m * l
        for j in range(1, m + 1):
            assert system.B[j].degree <= m * l + mu - 1


def test_pade_order_examples():
    assert pade_order_check(pade_construct(2, 1, 1, [1, 2]), 12) >= 4
    for mu in (0, 1):
        system = pade_construct(1, 2, mu, [3])
        assert pade_order_check(system, 12) >= 2 * 2 + mu


def test_pade_validation():
    with pytest.raises(RepeatedAlphaError):
        pade_construct(2, 1, 0, [1, 1])
    with pytest.raises(ZeroAlphaError):
        pade_construct(2, 1, 0, [1, 0])
    with pytest.raises(CutoffTooSmallError):
        pade_order_check(pade_construct(1, 1, 0, [1]), 3)


def test_pade_generic_validation(K5):
    with pytest.raises(ZeroAlphaError):
        pade_generic([1], 0, [0], 1, 1)
    with pytest.raises(RepeatedAlphaError):
        pade_generic([1, 1], 0, [1, 1], 1, 1)
    s5, s2 = K5.sqrt_gen(), QuadraticField(2).sqrt_gen()
    with pytest.raises(FieldMismatchError):
        pade_generic([1, 1], 0, [s5, s5], 1, s2)


def test_order_check_compares_the_whole_prefix():
    # a windowed comparison near the order target would miss both edits
    s = pade_construct(2, 1, 1, [1, 2])
    raised = dataclasses.replace(s, B=(s.B[0] + Poly([1], s.d),) + s.B[1:])
    with pytest.raises(RuntimeError, match=r"^vanishing band violated at n=3, j=1$"):
        raised.order_check(s.order_target + 5)
    shifted = dataclasses.replace(s, B=(s.B[0], s.B[1] + Poly([0, 1], s.d), s.B[2]))
    assert shifted.order_check(s.order_target + 5) == [1, 4]
    assert s.order_check(s.order_target + 5) == [4, 4]


def reference_column(system, j, n):
    """The explicit closed form of coefficient n of B_0(t) F(alpha_j t):
    sum_h sigma_{ml-h} (ml+mu)! (n-h)!/(ml-h+mu)! alpha_j^(n-h)."""
    ml, mu = system.m * system.l, system.mu
    top = math.factorial(ml + mu)
    alpha = system.alpha[j - 1]
    acc = QuadraticField(system.d)(0)
    for h in range(min(ml, n) + 1):
        scale = Fraction(top * math.factorial(n - h), math.factorial(ml - h + mu))
        acc = acc + system.sigma.coeffs[ml - h] * scale * alpha ** (n - h)
    return acc


def test_pade_columns_match_closed_form(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    pools = [
        [QuadraticField()(a) for a in (1, -2, 3)],
        [phi, phi.conjugate(), K5.sqrt_gen()],
    ]
    for points in pools:
        for m in (1, 2, 3):
            for l in (1, 2, 3):
                for mu in range(m + 1):
                    system = pade_construct(m, l, mu, points[:m])
                    ml = m * l
                    top = math.factorial(ml + mu)
                    for i, sig in enumerate(system.sigma.coeffs):
                        assert system.B[0][ml - i] == sig * (top // math.factorial(i + mu))
                    for j in range(1, m + 1):
                        for n in range(system.order_target + 3):
                            expected = reference_column(system, j, n)
                            assert system.remainder_coefficient(n, j) == expected
                            if n < ml + mu:
                                assert system.B[j][n] == expected
                            elif n < system.order_target:
                                assert not expected
                        assert system.B[j].degree < ml + mu


def test_pade_generic_reduces_to_cleared():
    # P(x) = 1 + x scaled by (L + mu)! reproduces the cleared polynomials
    for m, l, mu, alphas in [(1, 1, 0, [1]), (2, 1, 1, [1, 2]), (1, 2, 1, [-2])]:
        cleared = pade_construct(m, l, mu, alphas)
        generic = pade_generic([l] * m, mu, alphas, 1, 1)
        scale = math.factorial(m * l + mu)
        for cleared_poly, generic_poly in zip(cleared.B, generic.B):
            assert cleared_poly == generic_poly * scale


def test_pade_generic_unequal_orders():
    generic = pade_generic([1, 2], 0, [1, 2], 1, 1)
    o1, o2 = generic.order_check(15)
    assert o1 >= 4 and o2 >= 5


def test_pade_generic_other_polynomial():
    generic = pade_generic([1], 1, [1], 1, 2)
    assert generic.order_check(12)[0] >= 3


def test_pade_generic_degenerate():
    with pytest.raises(DegeneratePolynomialError):
        pade_generic([1], 0, [1], 1, 0)
    # P = x - 1 vanishes at 1 < L + mu = 2, so [P]_{L+mu} = 0 clears nothing
    with pytest.raises(ZeroDivisionError):
        pade_generic([1], 1, [1], -1, 1)


def _rising(p0, p1, n):
    """[P]_n = prod_{k<n} (p0 + p1 k)."""
    return math.prod(p0 + p1 * k for k in range(n))


def _generic_remainder(l_vec, mu, beta, p0, p1, j, n):
    """Coefficient n of A_0(t) G(beta_j t) by the closed form
    r_{n,j} = sum_h sigma_{L-h} [P]_{n-h}/[P]_{L-h+mu} beta_j^{n-h}, with
    sigma, the coefficients of prod_j (beta_j - w)^{l_j}, multiplied out
    one linear factor at a time."""
    sigma = sigma_by_linear_factors(l_vec, beta)
    L = len(sigma) - 1
    bj = Fraction(beta[j - 1])
    return sum(
        Fraction(sigma[L - h] * _rising(p0, p1, n - h), _rising(p0, p1, L - h + mu)) * bj ** (n - h)
        for h in range(min(L, n) + 1)
    )


def test_pade_generic_remainder_and_orders():
    l_vec, mu, beta, p0, p1 = [1, 2], 1, [1, -2], 1, 2
    system = pade_generic(l_vec, mu, beta, p0=p0, p1=p1)
    assert (system.m, system.l, system.order_target) == (2, 1, 5)
    start = sum(l_vec) + mu
    for j, lj in enumerate(l_vec, start=1):
        for n in range(start + lj + 3):
            expected = _generic_remainder(l_vec, mu, beta, p0, p1, j, n)
            assert system.remainder_coefficient(n, j) == expected
            if n < start:
                assert system.B[j][n] == expected
            elif n < start + lj:
                assert not expected
    cutoff = start + max(l_vec) + 5
    orders = system.order_check(cutoff)
    assert all(order >= start + lj for order, lj in zip(orders, l_vec))
    assert pade_order_check(system, cutoff) == min(orders) >= system.order_target


def test_pade_generic_non_integral_inputs(K5):
    # P(x) = 1/2 + x/3 and half-integral points: every denominator the
    # product series scales away, checked against a series summed here
    p0, p1 = Fraction(1, 2), Fraction(1, 3)
    beta = [K5(Fraction(1, 2), Fraction(3, 2)), K5(Fraction(3, 2), Fraction(-1, 2))]
    l_vec, mu = [2, 1], 1
    system = pade_generic(l_vec, mu, beta, p0, p1)
    sigma = sigma_by_linear_factors(l_vec, beta, K5(1))
    L = len(sigma) - 1
    start = L + mu
    b0 = [sigma[L - h] * Fraction(1, _rising(p0, p1, L - h + mu)) for h in range(L + 1)]
    assert list(system.B[0].coeffs) == b0
    cutoff = start + max(l_vec) + 5
    orders = system.order_check(cutoff)
    for j, (bj, lj) in enumerate(zip(beta, l_vec), start=1):
        series = [
            sum((b0[h] * _rising(p0, p1, n - h) * bj ** (n - h) for h in range(min(L, n) + 1)), K5(0))
            for n in range(cutoff + 1)
        ]
        column = system.B[j]
        assert column.degree < start
        assert [column[n] for n in range(start)] == series[:start]
        for n in range(start + lj + 3):
            assert system.remainder_coefficient(n, j) == series[n]
        assert not any(series[start : start + lj])
        assert orders[j - 1] == next(n for n in range(cutoff) if series[n] != column[n])
        assert orders[j - 1] >= start + lj


def test_remainder_at_unity_needs_euler_series():
    system = pade_generic([1], 0, [1], 1, 2)
    v = places_above(QuadraticField(), 3)[0]
    with pytest.raises(ValueError, match="1 \\+ x"):
        remainder_at_unity(system, v, 1, 4)


def test_rational_point_joins_the_quadratic_field(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    mixed = pade_construct(2, 1, 0, [QuadraticField()(1), phi])
    assert mixed == pade_construct(2, 1, 0, [K5(1), phi])


def test_mixed_fields_refused(K5):
    s5, s2 = K5.sqrt_gen(), QuadraticField(2).sqrt_gen()
    with pytest.raises(FieldMismatchError):
        pade_construct(2, 1, 0, [s5, s2])
    with pytest.raises(FieldMismatchError):
        pade_generic([1, 1], 0, [s5, s2], 1, 1)
    with pytest.raises(FieldMismatchError):
        sigma_coeffs([1, 1], [s5, s2])
    with pytest.raises(FieldMismatchError):
        select_mu(1, [1, s2], [s5])


def test_exports_complete():
    for name in eulerpade.__all__:
        assert getattr(eulerpade, name) is not None, name
    assert len(set(eulerpade.__all__)) == len(eulerpade.__all__)
    for module, sample in ((pade, "PadeSystem"), (bounds, "BoundReport"), (certify, "Certificate")):
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert sample in defined
        assert defined <= set(eulerpade.__all__), module.__name__


def test_determinant_minimal():
    exponent, b, ok = pade_determinant(1, 1, [1])
    assert exponent == 2
    assert ok
    # direct 2x2 oracle: B matrix rows mu = 0, 1 give (t-1)(t-1) - (-1)(2t-1) = t^2
    s0 = pade_construct(1, 1, 0, [1])
    s1 = pade_construct(1, 1, 1, [1])
    det = s0.B[0] * s1.B[1] - s0.B[1] * s1.B[0]
    assert det == Poly([0, 0, 1], None)
    assert b == 1


def test_determinant_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for m, l, alphas in [(1, 2, [1]), (2, 1, [1, -1]), (2, 1, [2, 3])]:
        matrix = []
        for mu in range(m + 1):
            system = pade_construct(m, l, mu, alphas)
            matrix.append(
                [
                    sum(sympy.Rational(str(c.x)) * t**i for i, c in enumerate(poly.coeffs))
                    for poly in system.B
                ]
            )
        det = sympy.expand(sympy.Matrix(matrix).det())
        exponent, b, ok = pade_determinant(m, l, alphas)
        assert ok
        assert det == sympy.Rational(str(b.x)) * t**exponent


def test_determinant_closed_form_suite():
    pool = [1, -1, 2, -2, 3]
    for m in (1, 2):
        for l in (1, 2, 3):
            for alphas in itertools.combinations(pool, m):
                exponent, _, ok = pade_determinant(m, l, list(alphas))
                assert exponent == m * (m + 1) * l + m * (m - 1) // 2
                assert ok


def test_determinant_quadratic_field(K5):
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    exponent, b, ok = pade_determinant(2, 1, [phi, phi.conjugate()])
    assert ok and exponent == 7 and b


@st.composite
def _points(draw, max_m=4):
    """(K, m, l, points): m <= max_m nonzero, pairwise distinct points of
    Q, Q(sqrt 5) or Q(sqrt -1) with coordinates over 1 or 2, and l <= 3."""
    K = QuadraticField(draw(st.sampled_from([None, 5, -1])))
    m, l = draw(st.integers(1, max_m)), draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))
    y = st.just(Fraction(0)) if K.d is None else coord
    point = st.builds(K, coord, y).filter(bool)
    return K, m, l, draw(st.lists(point, min_size=m, max_size=m, unique=True))


@settings(max_examples=40, deadline=None)
@given(_points())
def test_determinant_coefficient_is_the_papers_product(case):
    # b as the paper writes it, with S_j = sum_i sigma_i i^l alpha_j^i summed
    # over sigma: (-1)^(ml) prod_{mu<m} (ml+mu)! prod_j alpha_j^l S_j
    # prod_{i<j} (alpha_j - alpha_i)
    K, m, l, alphas = case
    sv = sigma_coeffs([l] * m, alphas)
    b = K((-1) ** (m * l) * math.prod(math.factorial(m * l + mu) for mu in range(m)))
    for j, aj in enumerate(alphas, start=1):
        b = b * aj**l * sigma_annihilation_check(sv, j, l)
    for i, j in itertools.combinations(range(m), 2):
        b = b * (alphas[j] - alphas[i])
    assert pade_determinant(m, l, alphas) == (m * (m + 1) * l + m * (m - 1) // 2, b, True)


def _select_mu_reference(l, lambdas, alphas):
    """The least mu whose pade_construct system gives a nonzero W."""
    for mu in range(len(alphas) + 1):
        system = pade_construct(len(alphas), l, mu, alphas)
        w = sum((lam * B(1) for lam, B in zip(lambdas, system.B)), 0)
        if w:
            return mu, w


@settings(max_examples=40, deadline=None)
@given(_points(max_m=3), st.data())
def test_select_mu_matches_a_construct_per_mu(case, data):
    K, m, l, alphas = case
    if data.draw(st.booleans()):
        lambdas = data.draw(st.lists(st.integers(-3, 3), min_size=m + 1, max_size=m + 1))
        assume(any(lambdas))
    else:
        # a form with W(l, 0) = 0, so the search must go past mu = 0
        b = pade_construct(m, l, 0, alphas).b_values()
        lambdas = [b[1], -b[0]] + [0] * (m - 1)
    assert select_mu(l, lambdas, alphas) == _select_mu_reference(l, lambdas, alphas)


def test_pade_budget_refuses_before_building(monkeypatch):
    # each entry point counts the series coefficients it would build and
    # refuses a count over PADE_BUDGET before it expands sigma
    def no_sigma(*args):
        raise AssertionError("sigma expanded")

    monkeypatch.setattr(pade, "sigma_coeffs", no_sigma)
    calls = [
        (lambda: pade_construct(1, 3000, 0, [7]), 3000),
        (lambda: pade_construct(3, 300, 0, [1, 2, 3]), 2700),
        (lambda: pade_construct(4, 500, 0, [1, 2, 3, 4]), 8000),
        (lambda: pade_generic([400, 401], 0, [1, 2], 1, 1), 1602),
        (lambda: pade_determinant(2, 100, [1, 2]), 1206),
        (lambda: select_mu(400, [1, 1], [1]), 801),
    ]
    for call, count in calls:
        with pytest.raises(PrecisionCapError, match=f"needs {count} series coefficients"):
            call()
    monkeypatch.undo()
    system = pade_construct(2, 3, 1, [1, 2])
    with pytest.raises(PrecisionCapError, match="needs 802 series coefficients"):
        system.order_check(401)
    with pytest.raises(PrecisionCapError, match="needs 802 series coefficients"):
        system.remainder_coefficient(801, 1)
    # the budget is inclusive: 2 x 400 and 1 x 800 coefficients are built
    assert min(system.order_check(400)) >= system.order_target
    system.remainder_coefficient(799, 1)


@pytest.mark.parametrize(
    "m, l, count",
    [(1, 399, 799), (2, 66, 798), (3, 21, 774), (4, 9, 760), (5, 4, 675)],
)
def test_pade_determinant_budget_boundary(m, l, count):
    # the largest l for each m is admitted and decided; one more is refused
    points = [1, -1, 2, -2, 3][:m]
    assert m * sum(m * l + mu for mu in range(m + 1)) == count <= pade.PADE_BUDGET
    assert pade_determinant(m, l, points)[2] is True
    over = m * sum(m * (l + 1) + mu for mu in range(m + 1))
    with pytest.raises(PrecisionCapError, match=f"needs {over} series coefficients"):
        pade_determinant(m, l + 1, points)


def _cofactor_det(matrix, d):
    """The determinant by recursive cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = Poly.zero(d)
    for col in range(n):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = matrix[0][col] * _cofactor_det(minor, d)
        acc = acc + term if col % 2 == 0 else acc - term
    return acc


def _random_poly(rng, K, max_degree=3):
    def coeff():
        y = Fraction(rng.randint(-5, 5), rng.choice((1, 2))) if K.d is not None else 0
        return K(Fraction(rng.randint(-5, 5), rng.choice((1, 2))), y)

    return Poly([coeff() for _ in range(rng.randint(0, max_degree + 1))], K.d)


def _random_matrix(rng, K, n):
    return [[_random_poly(rng, K) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("d", [None, 5])
def test_bareiss_matches_cofactor_expansion(d):
    K = QuadraticField(d)
    rng = random.Random(f"bareiss {d}")
    t = Poly([0, 1], d)
    for n in range(1, 6):
        for _ in range(6):
            matrix = _random_matrix(rng, K, n)
            assert _poly_det(matrix, d) == _cofactor_det(matrix, d)
        # a zero top-left pivot forces a row swap at the first step
        matrix = _random_matrix(rng, K, n)
        matrix[0][0] = Poly.zero(d)
        assert _poly_det(matrix, d) == _cofactor_det(matrix, d)
        # a zero first column leaves no pivot at all
        matrix = _random_matrix(rng, K, n)
        for row in matrix:
            row[0] = Poly.zero(d)
        assert not _poly_det(matrix, d) and not _cofactor_det(matrix, d)
        if n < 3:
            continue
        # row 1 starts as t * row 0, so the leading 2x2 minor and with it
        # the second pivot vanish, while the determinant does not
        while True:
            matrix = _random_matrix(rng, K, n)
            matrix[1][0], matrix[1][1] = t * matrix[0][0], t * matrix[0][1]
            det = _cofactor_det(matrix, d)
            if matrix[0][0] and det:
                break
        assert _poly_det(matrix, d) == det
        # the last row a combination of the first two: determinant 0
        matrix = _random_matrix(rng, K, n)
        matrix[-1] = [a + t * b for a, b in zip(matrix[0], matrix[1])]
        assert not _cofactor_det(matrix, d)
        assert not _poly_det(matrix, d)


@pytest.mark.parametrize("d", [None, 5, -1])
def test_leading_minor_is_the_top_coefficient_of_the_determinant(d):
    # with row i of degree at most tops[i], the minor of the rows' t^tops[i]
    # coefficients is the determinant's coefficient of t^(sum tops); rows
    # below their cap, zero pivots and rows that must be swapped included
    K = QuadraticField(d)
    rng = random.Random(f"leading minor {d}")

    def coeff():
        y = Fraction(rng.randint(-5, 5), rng.choice((1, 2))) if d is not None else 0
        return K(Fraction(rng.randint(-5, 5), rng.choice((1, 2))), y)

    swapped = 0
    for n in range(1, 6):
        for trial in range(10):
            tops = [rng.randint(0, 3) for _ in range(n)]
            matrix = [[Poly([coeff() for _ in range(top + 1)], d) for _ in range(n)] for top in tops]
            if trial == 1:  # the first pivot is 0
                matrix[0][0] = Poly.zero(d)
            if trial == 2:  # no pivot at all in the first column
                for row in matrix:
                    row[0] = Poly.zero(d)
            if trial == 3:  # a row below its cap
                tops[-1] += 1
            if trial >= 4 and n > 2:  # the second pivot is 0: row 1 leads with twice row 0
                top = tops[0] = tops[1] = max(tops[0], tops[1])
                for k in (0, 1):
                    a, b = matrix[0][k], matrix[1][k]
                    matrix[1][k] = b + Poly.monomial(2 * a[top] - b[top], top, d)
            det = _cofactor_det(matrix, d)
            assert polys._leading_minor(matrix, tops) == det[sum(tops)]
            assert det.degree <= sum(tops)
            swapped += (trial == 1 or trial >= 4) and n > 2 and bool(det[sum(tops)])
    assert swapped >= 10


def test_select_mu_example():
    mu, w = select_mu(1, [0, 1], [1])
    assert mu == 0
    assert w == -1


def test_select_mu_validation():
    with pytest.raises(AllLambdaZeroError):
        select_mu(1, [0, 0], [1])


def test_select_mu_always_finds():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 2)
        l = rng.randint(1, 3)
        alphas = rng.sample([x for x in range(-5, 6) if x != 0], m)
        lambdas = [rng.randint(-9, 9) for _ in range(m + 1)]
        if not any(lambdas):
            lambdas[rng.randrange(m + 1)] = 1
        mu, w = select_mu(l, lambdas, alphas)
        assert 0 <= mu <= m
        assert w


def test_sigma_majorant_property(K5):
    # sum_i ||sigma_i||_v t^i <= prod_j (||beta_j||_v + t)^(l_j) at every
    # Archimedean place, for t in {0, 1/2, 1, 2}
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases = [
        (QuadraticField(), [2], [3]),
        (QuadraticField(), [1, 2], [1, -2]),
        (K5, [1, 1], [phi, phi.conjugate()]),
        (K5, [2, 1], [K5(1, 1), K5(2, -1)]),
    ]
    for K, l_vec, beta in cases:
        beta = [K(b) if not hasattr(b, "d") else b for b in beta]
        sv = sigma_coeffs(l_vec, beta)
        n_places = len(arch_abs_normalized(K, beta[0]))
        for place_idx in range(n_places):
            beta_vals = [arch_abs_normalized(K, b)[place_idx][1] for b in beta]
            for t in (0.0, 0.5, 1.0, 2.0):
                lhs = sum(
                    arch_abs_normalized(K, sig)[place_idx][1] * t**i
                    for i, sig in enumerate(sv.coeffs)
                    if sig
                )
                rhs = 1.0
                for lj, bval in zip(l_vec, beta_vals):
                    rhs *= (bval + t) ** lj
                assert lhs <= rhs * (1 + 1e-12)


def test_coefficient_size_estimate(K5):
    # ||b_{l,mu,j}||_v <= ||(ml+mu)!||_v (max{1,||alpha_j||_v})^(ml) (ml+m)
    #                     prod_i (||alpha_i||_v + max{1,||alpha_j||_v})^l
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases = [
        (QuadraticField(), 2, 2, 1, [1, -2]),
        (K5, 2, 1, 2, [phi, phi.conjugate()]),
        (QuadraticField(), 3, 1, 0, [1, -1, 2]),
    ]
    for K, m, l, mu, alphas in cases:
        alphas = [a if hasattr(a, "d") else K(a) for a in alphas]
        system = pade_construct(m, l, mu, alphas)
        n_places = len(arch_abs_normalized(K, alphas[0]))
        fact = K(math.factorial(m * l + mu))
        for place_idx in range(n_places):
            fact_val = arch_abs_normalized(K, fact)[place_idx][1]
            alpha_vals = [arch_abs_normalized(K, a)[place_idx][1] for a in alphas]
            for j in range(1, m + 1):
                big = max(1.0, alpha_vals[j - 1])
                bound = fact_val * big ** (m * l) * (m * l + m)
                for av in alpha_vals:
                    bound *= (av + big) ** l
                b_val = arch_abs_normalized(K, system.B[j](1))[place_idx][1]
                assert b_val <= bound * (1 + 1e-12)


def test_remainder_valuation_bound(K5):
    # w_v(s_{l,mu,j}) >= v_p((ml+mu)! l!) + l * w_v(alpha_j)
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases = [
        (QuadraticField(), 1, 2, 1, [2]),
        (QuadraticField(), 2, 1, 0, [1, -1]),
        (K5, 2, 1, 1, [phi, phi.conjugate()]),
        (K5, 1, 2, 0, [K5.sqrt_gen()]),
    ]
    for K, m, l, mu, alphas in cases:
        alphas = [a if hasattr(a, "d") else K(a) for a in alphas]
        system = pade_construct(m, l, mu, alphas)
        for p in (2, 3, 5, 7, 11, 13):
            for v in places_above(K, p):
                for j in range(1, m + 1):
                    lower = (
                        factorial_valuation(p, m * l + mu)
                        + factorial_valuation(p, l)
                        + l * valuation(v, alphas[j - 1])
                    )
                    precision = int(lower) + 6
                    s_val = remainder_at_unity(system, v, j, precision)
                    got = s_val.valuation_lower()
                    if got is None:
                        assert precision >= lower
                    else:
                        assert got >= lower
