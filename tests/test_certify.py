import dataclasses
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import eulerpade.arith as arith
import eulerpade.bounds as bounds
import eulerpade.certify as certify
from eulerpade.arith import factorize, prime_range, primes_upto
from eulerpade.errors import (
    AllLambdaZeroError,
    BoundChainError,
    HeightTooSmallError,
    InvalidModulusError,
    InvalidPrimeError,
    OrderUnsupportedError,
    PrecisionCapError,
    RepeatedRootsError,
    UnsupportedDescriptorError,
)
from eulerpade.numfield import QuadraticField
from eulerpade.pade import pade_construct, select_mu
from eulerpade.padics import PRECISION_CAP, CompletionElement, euler_eval_certified
from eulerpade.places import Place, factorial_valuation, places_above, valuation
import eulerpade.padics as padics
from eulerpade.bounds import (
    LIMSUP_MAX_L,
    BoundReport,
    ValuationSetDescriptor,
    _DOUBLING_TABLE,
    _doubling_bracket,
    _key_class_edge,
    _margin_key,
    constants_c1_c2,
    effective_bounds,
    limsup_sequence,
    log_height_margin,
    mertens_sum,
    monotone_decrease_onset,
    residue_condition,
    z_inverse,
)
from eulerpade.certify import (
    VERIFY_EXTRA_DIGITS,
    certificate_from_json,
    certify_nonvanishing,
    even_factorial_linear_form,
    fibonacci_linear_form,
    linear_form_value,
    recurrence_to_linear_form,
    remainder_at_unity,
    verify_certificate,
)

from conftest import random_integral_element, residue_add, residue_mul


V_ALL = ValuationSetDescriptor.all_places()


def test_c2_examples(KQ, K5):
    c1, c2 = constants_c1_c2(KQ, [1, -1], V_ALL)
    assert c2 == pytest.approx(4.0, rel=1e-12)

    phi = K5(Fraction(1, 2), Fraction(1, 2))
    _, c2_fib = constants_c1_c2(K5, [phi, phi.conjugate()], V_ALL)
    assert abs(c2_fib - 72) < 0.5

    c1_single, _ = constants_c1_c2(KQ, [1], V_ALL)
    assert c1_single == pytest.approx(2.0, rel=1e-12)


def test_c2_nonarch_contribution(KQ):
    # alpha = (2): the place over 2 contributes max ||2||_2 = 1/2
    c1, c2 = constants_c1_c2(KQ, [2], V_ALL)
    assert c1 == pytest.approx(2 * (2 + 2), rel=1e-12)
    assert c2 == pytest.approx(c1 / 2, rel=1e-12)
    # excluding that place restores c2 = c1
    excl = ValuationSetDescriptor.cofinite(places_above(KQ, 2))
    _, c2_excl = constants_c1_c2(KQ, [2], excl)
    assert c2_excl == pytest.approx(c1, rel=1e-12)


def test_an_empty_point_list_is_refused_by_name(KQ):
    # these once ended in an IndexError from the Archimedean table
    with pytest.raises(ValueError, match="^the list of evaluation points is empty$"):
        constants_c1_c2(KQ, [], V_ALL)
    with pytest.raises(ValueError, match="^the list of evaluation points is empty$"):
        limsup_sequence(KQ, [], V_ALL, 5)
    # the constant form 1 with no points was once certified at rational@2
    with pytest.raises(ValueError, match="^alphas: the list of evaluation points is empty$"):
        certify_nonvanishing(KQ, [1], [], 2, 50)


def _c2_over_union_of_norms(K, alphas, V):
    """c2 with the non-Archimedean product taken over every prime that
    divides some norm(alpha_j)."""
    c1, _ = constants_c1_c2(K, alphas, V)
    primes = set()
    for a in alphas:
        primes |= set(factorize(int(a.norm())))
    c2 = c1
    for p in sorted(primes):
        for v in places_above(K, p):
            if not V.excludes_place(v):
                c2 *= max(p ** -float(valuation(v, a) * Fraction(v.kappa_v, v.kappa)) for a in alphas)
    return c1, c2


# (d, alphas, (c1, c2)) over real, imaginary and rational fields
_C1_C2_DOUBLES = [
    (5, ["1/2,1/2", "1/2,-1/2", "3"], (18541.566873551765, 18541.566873551765)),
    (5, ["2", "1,1", "-3/2,1/2"], (18456.004400003912, 18456.004400003912)),
    (2, ["0,1", "2,2", "-3,1"], (210743.7567427417, 210743.7567427417)),
    (-1, ["1,1", "2", "0,-3"], (3575.5129855222067, 3575.5129855222067)),
    (-1, ["1,1", "0,2", "-5"], (56124.36867076458, 56124.36867076458)),
    (None, ["2", "-4", "6"], (207360.0, 103680.0)),
    (None, ["7"], (98.0, 14.0)),
]


@pytest.mark.parametrize("d, alphas, doubles", _C1_C2_DOUBLES)
def test_c1_c2_doubles_are_frozen(d, alphas, doubles):
    # the same doubles, bit for bit
    K = QuadraticField(d)
    assert constants_c1_c2(K, [K.parse(a) for a in alphas], V_ALL) == doubles


def test_c2_matches_union_of_norms_reference():
    # factoring only the gcd of the norms drops factors of exactly 1.0
    rng = random.Random(43)
    for d in (None, 5, -1, 2, -3, 13):
        K = QuadraticField(d)
        descriptors = [
            V_ALL,
            ValuationSetDescriptor.cofinite(places_above(K, 2) + places_above(K, 3)[:1]),
            ValuationSetDescriptor.residue_classes(5, [1, 2]),
        ]
        for _ in range(40):
            alphas = {random_integral_element(rng, K, -12, 12) for _ in range(rng.randint(1, 3))}
            alphas = sorted(alphas, key=str)
            for V in descriptors:
                got = constants_c1_c2(K, alphas, V)
                assert repr(got) == repr(_c2_over_union_of_norms(K, alphas, V))


def test_limsup_sequence_closed_form(KQ):
    # m = 1, alpha = (1), V = everything: the sequence is log(2^l (l+1)^2 / l!)
    values = limsup_sequence(KQ, [1], V_ALL, 30)
    for l, got in enumerate(values, start=1):
        expected = math.log(2**l * (l + 1) ** 2 / math.factorial(l))
        assert got == pytest.approx(expected, abs=1e-9)
    onset = monotone_decrease_onset(values)
    assert onset is not None
    assert all(values[k] < values[k - 1] for k in range(onset, len(values)))
    assert values[-1] < -20  # heading to -infinity


def test_limsup_exclusion_slope(KQ):
    # removing the place over 2 adds exactly (v_2((ml)!) + v_2(l!)) log 2
    base = limsup_sequence(KQ, [1], V_ALL, 60)
    excl = ValuationSetDescriptor.cofinite(places_above(KQ, 2))
    raised = limsup_sequence(KQ, [1], excl, 60)
    for l, (a, b) in enumerate(zip(base, raised), start=1):
        extra = (factorial_valuation(2, l) + factorial_valuation(2, l)) * math.log(2)
        assert b - a == pytest.approx(extra, abs=1e-9)
    # the added slope is roughly (m+1) log 2 per l, and l! still wins:
    # the raised sequence keeps heading to -infinity
    assert raised[-1] < -20
    assert max(raised[40:]) < min(raised[:10])


def test_limsup_stepped_valuations_match_legendre(KQ, K5):
    # the factorial valuations of excluded places are stepped with l; each
    # value must equal, bit for bit, the sum with v_p((ml)!) and v_p(l!)
    # taken by Legendre's formula and weighted by the exact kappa_v/kappa
    cases = [
        (KQ, [1], (2,)),
        (KQ, [1, 2], (2, 3, 5, 7, 11, 13)),
        (KQ, [3, -1, 2], (3, 5)),
        (K5, [K5(Fraction(1, 2), Fraction(1, 2)), 2], (2, 5, 11)),
    ]
    for K, alphas, primes in cases:
        excluded = [v for p in primes for v in places_above(K, p)]
        V = ValuationSetDescriptor.cofinite(excluded)
        base = limsup_sequence(K, alphas, V_ALL, 400)
        got = limsup_sequence(K, alphas, V, 400)
        _, c2 = constants_c1_c2(K, alphas, V)
        _, c2_all = constants_c1_c2(K, alphas, V_ALL)
        assert c2 == c2_all  # the bases agree, so only the excluded terms differ
        m = len(alphas)
        for l, (a, b) in enumerate(zip(base, got), start=1):
            expected = a
            for v in excluded:
                vp = factorial_valuation(v.p, m * l) + factorial_valuation(v.p, l)
                expected += Fraction(v.kappa_v, K.kappa) * vp * math.log(v.p)
            assert b == expected, (K, alphas, l)


def test_limsup_counts_each_excluded_place_of_k_once(KQ, K5):
    # a repeated place is one place, and a place of another field is no place
    # of K: constants_c1_c2 skips neither, so the sequence must not count them
    twice = ValuationSetDescriptor.cofinite(places_above(KQ, 2) * 2)
    assert limsup_sequence(KQ, [2], twice, 5) == limsup_sequence(
        KQ, [2], ValuationSetDescriptor.cofinite(places_above(KQ, 2)), 5
    )
    foreign = ValuationSetDescriptor.cofinite(places_above(QuadraticField(2), 3))
    assert constants_c1_c2(K5, [2], foreign) == constants_c1_c2(K5, [2], V_ALL)
    assert limsup_sequence(K5, [2], foreign, 4) == limsup_sequence(K5, [2], V_ALL, 4)
    # beside a place of K, a foreign one over the same prime adds nothing
    mixed = ValuationSetDescriptor.cofinite(places_above(K5, 3) + places_above(KQ, 3))
    own = ValuationSetDescriptor.cofinite(places_above(K5, 3))
    assert limsup_sequence(K5, [3], mixed, 6) == limsup_sequence(K5, [3], own, 6)
    assert limsup_sequence(K5, [3], own, 6) != limsup_sequence(K5, [3], V_ALL, 6)


def test_limsup_counts_only_the_excluded_places_places_above_lists(K5):
    # 3 is inert in Q(sqrt 5): a hand-built split place over it is no place
    # of K5, as constants_c1_c2 already holds, so it must not move the sequence
    hand_built = ValuationSetDescriptor.cofinite([Place(3, "split_1", 5)])
    assert constants_c1_c2(K5, [3], hand_built) == constants_c1_c2(K5, [3], V_ALL)
    assert limsup_sequence(K5, [3], hand_built, 3) == limsup_sequence(K5, [3], V_ALL, 3)
    assert limsup_sequence(K5, [3], V_ALL, 3)[2] == pytest.approx(9.8218, abs=1e-4)
    # beside it, the inert place of K5 over 3 counts as it does alone
    inert = ValuationSetDescriptor.cofinite(places_above(K5, 3))
    both = ValuationSetDescriptor.cofinite([Place(3, "split_1", 5), *places_above(K5, 3)])
    assert limsup_sequence(K5, [3], both, 6) == limsup_sequence(K5, [3], inert, 6)
    # a place over a p that is not prime is refused by name
    with pytest.raises(InvalidPrimeError, match="^9 is not prime$"):
        limsup_sequence(K5, [3], ValuationSetDescriptor.cofinite([Place(9, "inert", 5)]), 3)


def test_limsup_past_the_work_budget_is_refused(KQ, monkeypatch):
    assert len(limsup_sequence(KQ, [1], V_ALL, 5)) == 5
    # refused before any term is summed: every term calls math.lgamma
    monkeypatch.setattr(math, "lgamma", None)
    with pytest.raises(PrecisionCapError, match="work budget"):
        limsup_sequence(KQ, [1], ValuationSetDescriptor.cofinite(places_above(KQ, 2)), LIMSUP_MAX_L + 1)


@pytest.mark.parametrize("l_max", [0, -2])
def test_limsup_without_a_term_is_refused(KQ, l_max):
    with pytest.raises(ValueError, match=f"l_max must be at least 1, got {l_max}"):
        limsup_sequence(KQ, [1], V_ALL, l_max)


def test_limsup_rejects_residue_classes(KQ):
    desc = ValuationSetDescriptor.residue_classes(4, {1, 3})
    with pytest.raises(UnsupportedDescriptorError):
        limsup_sequence(KQ, [1], desc, 5)


def test_effective_bounds_example_numbers():
    log_h = 17 * math.exp(17)
    report = effective_bounds(1, 1, 2.0, log_h)
    assert report.s == 17
    assert report.interval_lo == pytest.approx(16.85, abs=0.01)
    assert report.interval_hi == pytest.approx(3.523e8, rel=1e-3)
    loglog = math.log(log_h)
    assert report.exponent == pytest.approx(2 + 114 * math.log(loglog) / loglog, rel=1e-12)
    assert report.exponent == pytest.approx(19.17, abs=0.01)
    assert report.n_ell >= 0 > report.n_ell_plus_1
    assert math.log(report.ell + 1) > report.interval_lo
    assert report.m * (report.ell + 2) < report.interval_hi


def test_effective_bounds_bracket_many_heights():
    rng = random.Random(21)
    s = 17.0
    for _ in range(50):
        log_h = s * math.exp(s) * math.exp(rng.uniform(0, 8))
        report = effective_bounds(1, 1, 2.0, log_h)
        assert report.n_ell >= 0 > report.n_ell_plus_1
        assert log_height_margin(report.ell, 1, 1, 2.0, log_h) == report.n_ell


MARGIN_DOUBLES = json.loads((Path(__file__).parent / "data" / "margin_doubles.json").read_text())


def test_margin_doubles_are_frozen():
    # l up to a 130-digit int, m up to 400, log H up to 9e150: each N(l), and
    # each ell with N(ell) and N(ell + 1), is the double computed before the
    # margin function took its l-free logs once
    for l, m, kappa, c1, log_h, expected in MARGIN_DOUBLES["margins"]:
        assert float.hex(log_height_margin(l, m, kappa, c1, log_h)) == expected, (l, m, kappa, c1, log_h)
    for m, kappa, c1, log_h, ell, n_ell, n_ell_plus_1 in MARGIN_DOUBLES["reports"]:
        report = effective_bounds(m, kappa, c1, log_h)
        assert (report.ell, float.hex(report.n_ell), float.hex(report.n_ell_plus_1)) == (
            ell, n_ell, n_ell_plus_1,
        ), (m, kappa, c1, log_h)


def test_effective_bounds_at_a_128_digit_ell():
    # N(ell) is exactly 0.0 and N(ell + 1) minus one ulp of log H (2^378),
    # so this ell rests on the search's ">= 0" and on every double of N
    report = effective_bounds(1, 1, 3.678, 4.1829e129)
    assert report.ell == int(
        "15616418738835486035223300194007260685391282442752601007672796416623468548941784626705554"
        "244526778371827355330565657400648400896"
    )
    assert report.n_ell == 0.0
    assert report.n_ell_plus_1 == -6.156563468186638e113


def _reference_effective_bounds(m, kappa, c1, log_h):
    """effective_bounds with the plain search: N evaluated at every l it
    doubles to and every bisection midpoint."""
    if m < 1 or kappa < 1:
        raise ValueError("need m >= 1 and kappa >= 1")
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError(f"c1 must be finite and positive, got {c1}")
    if not math.isfinite(log_h):
        raise ValueError(f"log_h must be finite, got {log_h}")

    def margin(l):
        return log_height_margin(l, m, kappa, c1, log_h)

    try:
        s = max(math.e**kappa + 1, c1 + 1, (m + 3) ** 2 + 1)
        if log_h < s * math.exp(s):
            raise HeightTooSmallError(f"log H must be at least s*e^s = {s * math.exp(s):.6g}")
        if margin(2) < 0:
            raise HeightTooSmallError("the margin function is already negative at l = 2")
        lo, hi = 2, 4
        while margin(hi) >= 0:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if margin(mid) >= 0:
                lo = mid
            else:
                hi = mid
        ell = lo
        loglog_h = math.log(log_h)
        interval_lo = math.log(log_h / loglog_h)
        interval_hi = 17 * m * log_h / loglog_h
        exponent = (m + 1) + 114 * m * m * math.log(loglog_h) / loglog_h
        if not (interval_lo < math.log(ell + 1) and m * (ell + 2) < interval_hi):
            raise BoundChainError("interval containment failed; bound chain inconsistent")
        return BoundReport(
            m, kappa, c1, s, log_h, ell, margin(ell), margin(ell + 1), interval_lo, interval_hi, exponent,
        )
    except OverflowError:
        raise PrecisionCapError(f"the bound chain at log H = {log_h:g} leaves the double range") from None


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def test_effective_bounds_search_matches_the_plain_search():
    # the search skips N where the doubling is proven and where a midpoint
    # shares an end's key; every report and every error must stay the same
    rng = random.Random(2024)
    # with these c1 < 1, N(hi) < 0 at a power of two hi with hi*log(hi) <= log H,
    # so the doubling must evaluate N to stop where it does
    small_c1 = [(1, 2, 1.0177868006914824e-12, 3.760121177449236e39),
                (1, 1, 2.653796392325798e-11, 9.446031738119706e27),
                (2, 3, 8.270497823159784e-13, 69486488497674.34)]
    for m, kappa, c1, log_h in small_c1:
        assert any(2**k * math.log(2**k) <= log_h and log_height_margin(2**k, m, kappa, c1, log_h) < 0
                   for k in range(2, 512))
    inputs = [(1, 1, 0.5, 1e40), (1, 1, 3.678, 4.1829e129), (1, 1, 2.0, 1e200), (1, 1, 1e-300, 1e10), *small_c1]
    for _ in range(1500):
        m = rng.randint(1, 23) if rng.random() < 0.9 else rng.randint(24, 400)
        c1 = rng.choice([
            1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
            10 ** rng.uniform(-30, 0), 10 ** rng.uniform(0, 2.85), 10 ** rng.uniform(0, 30),
        ])
        inputs.append((m, rng.randint(1, 6), c1, 10 ** rng.uniform(8, 200)))
    seen = {"c1 < 1": 0, "c1 = 1": 0, "refused past 1e160": 0}
    for args in inputs:
        expected = _outcome(_reference_effective_bounds, *args)
        assert _outcome(effective_bounds, *args) == expected, args
        _, _, c1, log_h = args
        if expected.startswith("BoundReport"):
            seen["c1 < 1"] += c1 < 1
            seen["c1 = 1"] += c1 == 1
        elif log_h > 1e160 and expected.startswith("PrecisionCapError"):
            seen["refused past 1e160"] += 1
    assert min(seen.values()) >= 50, seen


def test_margin_is_nonnegative_where_the_doubling_skips_it():
    # the doubling takes N(hi) >= 0 without evaluating it for c1 >= 1 and a
    # power of two 4 <= hi <= 2^511 with hi*log(hi) <= log H, the tight
    # case hi*log(hi) == log H included
    heights = [1e9, 4.1829e129, 1e160, 1e307, sys.float_info.max]
    heights += [2**k * math.log(2**k) for k in (2, 3, 10, 100, 300, 511)]
    checked = 0
    for m in (1, 2, 23, 400):
        for kappa in (1, 2, 6):
            for c1 in (1.0, math.nextafter(1.0, 2.0), 3.678, 700.0, 1e300):
                for log_h in heights:
                    for k in range(2, 512):
                        hi = 2**k
                        if hi * math.log(hi) <= log_h:
                            assert log_height_margin(hi, m, kappa, c1, log_h) >= 0, (hi, m, kappa, c1, log_h)
                            checked += 1
    assert checked > 100000


def test_doubling_table_gives_the_doubling_loops_bracket():
    # the doubling's steps are a bisection of hi*log(hi) for hi = 4 .. 2^511,
    # exact only while those doubles strictly increase
    assert len(_DOUBLING_TABLE) == 510
    assert all(a < b for a, b in zip(_DOUBLING_TABLE, _DOUBLING_TABLE[1:]))

    def loop(c1, log_h):
        lo, hi = 2, 4
        while c1 >= 1 and hi.bit_length() <= 512 and hi * math.log(hi) <= log_h:
            lo, hi = hi, hi * 2
        return lo, hi

    heights = [-1.0, 0.0, sys.float_info.max]
    for entry in _DOUBLING_TABLE:
        heights += [math.nextafter(entry, -math.inf), entry, math.nextafter(entry, math.inf)]
    for c1 in (0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 3.678):
        for log_h in heights:
            assert _doubling_bracket(c1, log_h) == loop(c1, log_h), (c1, log_h)


def test_equal_keys_give_equal_margins():
    # N takes l only through (float(l), 2m/l, float(l*l)), so the search may
    # give a midpoint the sign of an end with the same key
    ell = int(
        "15616418738835486035223300194007260685391282442752601007672796416623468548941784626705554"
        "244526778371827355330565657400648400896"
    )
    equal = 0
    for base in (2**53 + 1, 3**40, 10**20, 7**80, ell - 20, 2**511 - 30):
        for m, kappa, c1, log_h in ((1, 1, 3.678, 4.1829e129), (3, 2, 0.5, 1e18), (23, 6, 700.0, 1e300)):
            for d in range(1, 41):
                if _margin_key(base, m) == _margin_key(base + d, m):
                    equal += 1
                    assert float.hex(log_height_margin(base, m, kappa, c1, log_h)) == float.hex(
                        log_height_margin(base + d, m, kappa, c1, log_h)
                    ), (base, d, m)
    assert equal > 300


def test_key_class_edges_bound_the_key_class():
    # each part of the key is monotone in l, so l's key class is the interval
    # between its edges: the edges share l's key and the ints just past them do not
    rng = random.Random(14)
    for l in range(2, 200):
        for m in (1, 400):
            key = _margin_key(l, m)
            assert _key_class_edge(key, m, False) == l == _key_class_edge(key, m, True)
    checked = 0
    for bits in range(53, 512):
        # at a power of two the spacing of float(l) halves below l
        ls = {2**bits, 2**bits - 1, 2**bits + 1, rng.randrange(2**bits, 2 ** (bits + 1))}
        for l in sorted(x for x in ls if x <= 2**511):
            for m in (1, 2, rng.randint(3, 399), 400):
                key = _margin_key(l, m)
                down, up = _key_class_edge(key, m, False), _key_class_edge(key, m, True)
                assert down <= l <= up, (l, m)
                assert _margin_key(up, m) == key != _margin_key(up + 1, m), (l, m)
                assert _margin_key(down, m) == key != _margin_key(down - 1, m), (l, m)
                checked += 1
    assert checked > 7000


def _plain_search_points(m, kappa, c1, log_h):
    """Every l at which the plain search evaluates N, doubling and bisecting from (2, 4)."""
    points, lo, hi = {2, 4}, 2, 4
    while log_height_margin(hi, m, kappa, c1, log_h) >= 0:
        lo, hi = hi, hi * 2
        points.add(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        points.add(mid)
        if log_height_margin(mid, m, kappa, c1, log_h) >= 0:
            lo = mid
        else:
            hi = mid
    return points


def test_the_ell_search_skips_key_classes_on_the_plain_path(monkeypatch):
    # past the switch the search builds keys only where the plain search
    # evaluates N, plus ell + 1, and far fewer of them
    keyed = []
    real = bounds._margin_key
    monkeypatch.setattr(bounds, "_margin_key", lambda l, m: keyed.append(l) or real(l, m))
    effective_bounds(1, 1, 3.678, 4.1829e129)  # 428 keys before the class search
    assert len(keyed) <= 80
    rng = random.Random(27)
    inputs = [(1, 1, 3.678, 4.1829e129), (3, 1, 1.231, 1.1943e141), (1, 1, 0.5, 1e40)]
    inputs += [(rng.randint(1, 23), rng.randint(1, 6), 10 ** rng.uniform(-3, 2), 10 ** rng.uniform(30, 150))
               for _ in range(40)]
    for args in inputs:
        keyed.clear()
        try:
            report = effective_bounds(*args)
        except (HeightTooSmallError, BoundChainError):
            continue
        assert set(keyed) <= _plain_search_points(*args) | {report.ell + 1}, args


@pytest.mark.parametrize("l", [1, 0, -3])
@pytest.mark.parametrize("m, c1", [(1, 3.678), (1, 0.0), (1, -2.0), (0, 3.678), (0, -2.0)])
def test_margin_refuses_l_below_2_before_any_log(l, m, c1):
    # log(c1) and log(m) would raise "math domain error" first
    with pytest.raises(ValueError, match="the margin function starts at l = 2"):
        log_height_margin(l, m, 1, c1, 1e18)


def test_effective_bounds_height_too_small():
    with pytest.raises(HeightTooSmallError):
        effective_bounds(1, 1, 2.0, 1e6)


@pytest.mark.parametrize(
    "c1, log_h, name",
    [(2.0, math.nan, "log_h"), (2.0, math.inf, "log_h"), (2.0, -math.inf, "log_h"),
     (math.nan, 1e10, "c1"), (math.inf, 1e10, "c1"), (0.0, 1e10, "c1"), (-2.0, 1e10, "c1")],
)
def test_effective_bounds_refuses_a_bad_c1_or_height(c1, log_h, name):
    with pytest.raises(ValueError, match=name):
        effective_bounds(1, 1, c1, log_h)


def test_failed_interval_containment_is_a_named_error():
    # a tiny c1 leaves ell past the prime interval; c1 < 1 itself is allowed
    assert effective_bounds(1, 1, 0.5, 1e10).ell > 2
    with pytest.raises(BoundChainError, match="interval containment") as info:
        effective_bounds(1, 1, 1e-300, 1e10)
    assert isinstance(info.value, RuntimeError)


@pytest.mark.parametrize("m, kappa, c1, log_h", [(1, 1, 2.0, 1e200), (2, 2, 3.0, 1e250), (1, 800, 2.0, 1e10)])
def test_effective_bounds_past_the_double_range_is_refused(m, kappa, c1, log_h):
    with pytest.raises(PrecisionCapError, match="double range"):
        effective_bounds(m, kappa, c1, log_h)


@pytest.mark.parametrize("alphas", [[10**200, 3], [2**1100, -1]])
def test_c1_past_the_double_range_is_refused(KQ, alphas):
    with pytest.raises(PrecisionCapError, match="double range"):
        constants_c1_c2(KQ, alphas, ValuationSetDescriptor.all_places())


def test_z_inverse_fixed_points():
    z, _ = z_inverse(math.e)
    assert z == pytest.approx(math.e, rel=1e-9)
    z2, _ = z_inverse(2 * math.e**2)
    assert z2 == pytest.approx(math.e**2, rel=1e-9)
    with pytest.raises(ValueError):
        z_inverse(2.0)


@pytest.mark.parametrize("y", [math.inf, math.nan])
def test_z_inverse_refuses_a_non_finite_y(y):
    with pytest.raises(ValueError, match="finite"):
        z_inverse(y)


def test_z_inverse_defining_equation_and_ordering():
    rng = random.Random(22)
    for _ in range(100):
        y = math.exp(rng.uniform(1.1, 25))
        z, iterates = z_inverse(y)
        assert z * math.log(z) == pytest.approx(y, rel=1e-9)
        # alternating squeeze: z1 < z3 < ... < z < ... < z2 < z0
        if len(iterates) >= 4:
            z0, z1, z2, z3 = iterates[:4]
            tol = 1e-12 * z
            assert z1 <= z3 + tol <= z + 2 * tol
            assert z - tol <= z2 + tol <= z0 + 2 * tol
            assert z1 - tol <= z <= z0 + tol


def test_z_inverse_upper_bound():
    rng = random.Random(23)
    for r in (math.e, 17.0):
        floor_y = r * math.exp(r)
        for _ in range(100):
            y = floor_y * math.exp(rng.uniform(0, 5))
            z, _ = z_inverse(y)
            bound = (1 + math.log(r) / r) * y / math.log(y)
            assert z <= bound * (1 + 1e-12)


def test_mertens_examples():
    total, ok = mertens_sum(10)
    # oracle: log2/1 + log3/2 + log5/4 + log7/6
    expected = math.log(2) + math.log(3) / 2 + math.log(5) / 4 + math.log(7) / 6
    assert total == pytest.approx(expected, rel=1e-12)
    assert ok  # 1.3127 < log 10 = 2.3026

    total2, ok2 = mertens_sum(2)
    assert total2 == pytest.approx(math.log(2), rel=1e-12)
    assert ok2


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_mertens_refuses_a_non_finite_x(x):
    with pytest.raises(ValueError, match="finite"):
        mertens_sum(x)


def test_sieve_budget_is_inclusive(monkeypatch):
    # the sieve checks the bound itself, so mertens_sum and prime_range (the
    # certificate scan's primes) inherit it; a small bound shows where it falls
    monkeypatch.setattr(arith, "PRIME_SCAN_MAX", 50)
    monkeypatch.setattr(arith, "_sieve", (1, []))
    assert primes_upto(50)[-1] == 47
    assert prime_range(40, 50) == [41, 43, 47]
    assert mertens_sum(50) == mertens_sum(math.nextafter(51, 0))
    for refused in (lambda: primes_upto(51), lambda: prime_range(51, 51), lambda: mertens_sum(51),
                    lambda: mertens_sum(1e300)):
        with pytest.raises(PrecisionCapError, match="over the sieve budget of 50"):
            refused()
    assert arith._sieve[0] == 50


def test_rosser_inequality_window():
    check = 0.0
    primes = set(primes_upto(2000))
    for x in range(2, 2001):
        if x in primes:
            check += math.log(x) / x
        assert check < math.log(x)


def test_prime_range_slices_one_sieve():
    # bounds that rise, fall and repeat, as a certificate search sends them
    for lo, hi in [(2, 50), (11, 71), (2, 50), (0, 1), (30, 20), (47, 107), (5, 5), (100, 101)]:
        primes = prime_range(lo, hi)
        assert primes == [p for p in primes_upto(hi) if p >= lo]
        primes.append(0)  # a fresh list: the sieve is not touched
        assert prime_range(lo, hi) == [p for p in primes_upto(hi) if p >= lo]


def test_residue_condition_examples():
    ok, slope = residue_condition(4, 2, 1)
    assert ok and slope == pytest.approx(-1.0)
    ok2, slope2 = residue_condition(3, 1, 1)
    assert not ok2 and slope2 == pytest.approx(0.0)
    with pytest.raises(InvalidModulusError):
        residue_condition(2, 1, 1)
    with pytest.raises(ValueError):
        residue_condition(5, 5, 1)


@pytest.mark.parametrize("m", [0, -5])
def test_residue_condition_refuses_m_below_1(m):
    with pytest.raises(ValueError, match=f"m must be at least 1, got {m}"):
        residue_condition(3, 2, m)


def test_residue_condition_slope_sign_iff():
    from eulerpade.arith import euler_phi

    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(3, 60)
        phi = euler_phi(n)
        r = rng.randint(1, phi)
        m = rng.randint(1, 4)
        ok, _ = residue_condition(n, r, m)
        # exact rational comparison of the slope sign
        slope_exact = Fraction(m) - Fraction(r * (m + 1), phi)
        assert ok == (slope_exact < 0)
        # m = 1 reduces to r > phi/2
        if m == 1:
            assert ok == (2 * r > phi)


def test_recurrence_fibonacci():
    alphas, bs, d = recurrence_to_linear_form((1, 1), (0, 1))
    K5 = QuadraticField(5)
    assert alphas[0] == K5(Fraction(1, 2), Fraction(1, 2))
    assert alphas[1] == K5(Fraction(1, 2), Fraction(-1, 2))
    assert bs[0] == K5.sqrt_gen()
    assert bs[1] == -K5.sqrt_gen()
    assert d == 5


def test_recurrence_reproduces_sequence():
    # oracle: b_1 alpha_1^n + b_2 alpha_2^n = d * x_n
    for c_vec, init in [((1, 1), (0, 1)), ((2, 3), (1, 2)), ((1, -1), (2, 1)), ((6, -8), (0, 1))]:
        alphas, bs, d = recurrence_to_linear_form(c_vec, init)
        seq = list(init)
        for n in range(2, 10):
            seq.append(c_vec[0] * seq[n - 1] + c_vec[1] * seq[n - 2])
        for n in range(10):
            combo = bs[0] * alphas[0] ** n + bs[1] * alphas[1] ** n
            assert combo == d * seq[n]


def test_recurrence_simple_and_errors():
    alphas, bs, d = recurrence_to_linear_form((2,), (1,))
    assert alphas[0] == 2 and bs[0] == 1 and d == 1
    with pytest.raises(RepeatedRootsError):
        recurrence_to_linear_form((2, -1), (0, 1))
    with pytest.raises(OrderUnsupportedError):
        recurrence_to_linear_form((1, 1, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        recurrence_to_linear_form((1, 0), (0, 1))


def test_certify_examples(KQ):
    cert = certify_nonvanishing(KQ, [0, -1], [1], 2, 2)
    assert cert.status == "nonzero"
    assert cert.place.p == 2
    assert cert.partial_valuation == 1
    assert cert.tail_valuation_bound >= 3

    cert2 = certify_nonvanishing(KQ, [1, -1], [1], 2, 2)
    assert cert2.status == "nonzero"
    assert cert2.partial_valuation == 0


def test_certify_at_a_large_prime_within_the_term_budget(KQ):
    # the scan's sum at p = 150001, N = 4 takes 600004 terms and the
    # re-verification's at N = 8 1200008, each on a p^N of at most 3 words
    cert = certify_nonvanishing(KQ, [1, 1], [1], 150001, 150001)
    assert cert.status == "nonzero"
    assert (cert.place.p, cert.precision) == (150001, 4)
    assert verify_certificate(certificate_from_json(cert.to_json()))


def test_certify_fibonacci(K5):
    K, lambdas, alphas = fibonacci_linear_form(1, 1)
    assert K.d == 5
    cert = certify_nonvanishing(K, lambdas, alphas, 2, 50)
    assert cert.status == "nonzero"
    assert cert.place.p == 2 and cert.place.splitting == "inert"
    assert cert.partial_valuation == 1
    assert cert.tail_valuation_bound >= 3
    assert verify_certificate(cert)


def test_certify_even_factorials():
    for a, b in [(0, 1), (1, 1), (1, 2)]:
        K, lambdas, alphas = even_factorial_linear_form(a, b)
        cert = certify_nonvanishing(K, lambdas, alphas, 2, 50)
        assert cert.status == "nonzero"
        assert cert.place.p <= 50


def test_certify_soundness_invariant(KQ, K5):
    # a nonzero status always comes with w < tail bound and w < N
    cases = [
        (KQ, [0, -1], [1]),
        (KQ, [3, 2, 1], [1, -1]),
        (K5, [1, K5.sqrt_gen()], [K5(Fraction(1, 2), Fraction(1, 2))]),
    ]
    for K, lambdas, alphas in cases:
        cert = certify_nonvanishing(K, lambdas, alphas, 2, 30)
        if cert.status == "nonzero":
            assert cert.partial_valuation < cert.tail_valuation_bound
            assert cert.partial_valuation < cert.precision
            assert verify_certificate(cert)


def test_certify_undetermined_paths(KQ):
    # empty prime window: nothing scanned, nothing claimed
    cert = certify_nonvanishing(KQ, [1, 1], [1], 5, 3)
    assert cert.status == "undetermined"
    assert cert.place is None
    # 64 * (1 - F(1)) needs more than 4 digits at p = 2; with the ladder
    # capped there the scan must refuse to decide
    cert2 = certify_nonvanishing(KQ, [64, -64], [1], 2, 2, n_max=4)
    assert cert2.status == "undetermined"
    cert3 = certify_nonvanishing(KQ, [64, -64], [1], 2, 2, n_max=64)
    assert cert3.status == "nonzero"
    assert cert3.partial_valuation == 6


def test_a_larger_n_max_keeps_the_record():
    # F(1) - S at rational@5 first certifies at precision 2048, the last rung
    # a claim can carry, and a larger n_max gives the same record
    S = sum(math.factorial(n) for n in range(4300))
    certs = [
        certify_nonvanishing(QuadraticField(), [-S, 1], [1], 2, 50, n_max)
        for n_max in (2048, 4096, 8192)
    ]
    assert (certs[0].status, str(certs[0].place), certs[0].precision) == ("nonzero", "rational@5", 2048)
    assert certs[1] == certs[0] and certs[2] == certs[0]
    assert verify_certificate(certs[2])


def test_the_ladder_stops_at_the_last_claimable_rung(KQ, monkeypatch):
    # with every valuation left open, n_max = 8192 sums no rung above 2048,
    # and the undetermined record still names n_max
    asked = []

    def open_valuation(lambdas, alphas, v, n):
        asked.append(n)
        return _residue_with(None), Fraction(n)

    monkeypatch.setattr(certify, "linear_form_value", open_valuation)
    cert = certify_nonvanishing(KQ, [1, 1], [1], 2, 2, n_max=8192)
    assert asked == [2**k for k in range(2, 12)]
    assert (cert.status, cert.precision) == ("undetermined", 8192)


def _residue_with(w2):
    """A stand-in for linear_form_value's residue whose valuation is w2 / 2."""
    return SimpleNamespace(half_valuation=lambda: w2)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_scan_rung_rule_matches_the_fraction_rule(KQ, monkeypatch, n):
    # each rung decides on half-unit ints; the reference is w < tail and
    # w < n on Fractions
    monkeypatch.setattr(certify, "verify_certificate", lambda cert: True)
    tails = [Fraction(k, 2) for k in range(-4, 2 * n + 8)]
    assert {t.denominator for t in tails} == {1, 2}
    for w2 in range(-3, 13):
        for tail in tails:
            # the rungs below n leave the valuation open
            monkeypatch.setattr(
                certify, "linear_form_value",
                lambda lambdas, alphas, v, m: (_residue_with(w2 if m == n else None), tail),
            )
            cert = certify_nonvanishing(KQ, [1, 1], [1], 2, 2, n_max=n)
            w = Fraction(w2, 2)
            assert (cert.status == "nonzero") == (w < tail and w < n), (w2, tail)
            if cert.status == "nonzero":
                assert (cert.precision, cert.partial_valuation, cert.tail_valuation_bound) == (n, w, tail)
                assert type(cert.partial_valuation) is Fraction


_RECORD_VALUATIONS = [
    0, 1, 2, -1, True, False,
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(7, 2),
]


def test_recheck_matches_the_fraction_rule(monkeypatch):
    # the recomputed half-units meet the record's int or Fraction valuations
    # cross-multiplied; the reference compares Fractions, after the type
    # check that refuses a bool
    record = certificate_from_json(_fib_record())
    assert record.precision == 4
    for precision in (1, 4):
        for pv in _RECORD_VALUATIONS:
            for tb in _RECORD_VALUATIONS + [5, Fraction(9, 2)]:
                cert = dataclasses.replace(record, precision=precision, partial_valuation=pv, tail_valuation_bound=tb)
                typed = type(pv) in (int, Fraction) and type(tb) in (int, Fraction)
                for w2 in [None, *range(-3, 13)]:
                    for tail in (Fraction(1, 2), Fraction(2), Fraction(9, 2), Fraction(5)):
                        monkeypatch.setattr(
                            certify, "linear_form_value", lambda *args: (_residue_with(w2), tail)
                        )
                        w = None if w2 is None else Fraction(w2, 2)
                        want = typed and w is not None and w == pv and w < precision and w < tb <= tail
                        assert verify_certificate(cert) is want, (precision, pv, tb, w2, tail)


def test_fibonacci_box_scan_path_and_records_are_pinned(monkeypatch):
    # the 1275 forms |a|, b <= 25 from p = 2: a change to any rung's
    # decision moves the number of rungs tried or a record
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return linear_form_value(*args)

    monkeypatch.setattr(certify, "linear_form_value", counted)
    digest = hashlib.md5()
    for a in range(-25, 26):
        for b in range(1, 26):
            K, lambdas, alphas = fibonacci_linear_form(a, b)
            record = certify_nonvanishing(K, lambdas, alphas, 2, 50).to_json()
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert calls == 2636
    assert digest.hexdigest() == "f238d772b60fc118cef0fbb5eaf85da2"


def test_certify_validation(KQ):
    with pytest.raises(AllLambdaZeroError):
        certify_nonvanishing(KQ, [0, 0], [1], 2, 10)
    with pytest.raises(ValueError):
        certify_nonvanishing(KQ, [1, Fraction(1, 2)], [1], 2, 10)


def test_non_integral_points_refused(KQ, K5):
    V = ValuationSetDescriptor.all_places()
    for K, bad in ((KQ, Fraction(1, 2)), (K5, K5(Fraction(1, 3), Fraction(1, 3)))):
        for call in (
            lambda: certify_nonvanishing(K, [0, 1], [bad], 2, 10),
            lambda: constants_c1_c2(K, [bad], V),
            lambda: limsup_sequence(K, [bad], V, 3),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(bad) in str(info.value)


def test_certificate_json_roundtrip(KQ):
    cert = certify_nonvanishing(KQ, [0, -1], [1], 2, 10)
    obj = cert.to_json()
    assert obj["status"] == "nonzero"
    assert obj["prime"] == 2
    assert obj["partial_valuation"] == "1"
    back = certificate_from_json(obj)
    assert back.place == cert.place
    assert back.partial_valuation == cert.partial_valuation
    assert verify_certificate(back)


def test_linear_form_identity_with_pade(KQ, K5):
    # b_0 Lambda_v = W + sum_j lambda_j s_j holds in the completion
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    cases = [
        (KQ, [1, -1], [KQ(2)], 2, 2),
        (KQ, [5, 3, -2], [KQ(1), KQ(-1)], 1, 3),
        (K5, [K5(5), -K5.sqrt_gen(), K5.sqrt_gen()], [phi, phi.conjugate()], 1, 2),
    ]
    for K, lambdas, alphas, l, p in cases:
        lambdas = [K(c) if not hasattr(c, "d") else c for c in lambdas]
        mu, w = select_mu(l, lambdas, alphas)
        system = pade_construct(len(alphas), l, mu, alphas)
        for v in places_above(K, p):
            precision = 8
            lam_value, _ = linear_form_value(lambdas, alphas, v, precision)
            b0 = CompletionElement.from_field_element(v, precision, system.B[0](1))
            lhs = residue_mul(b0, lam_value)
            rhs = CompletionElement.from_field_element(v, precision, w)
            for j in range(1, len(alphas) + 1):
                s_j = remainder_at_unity(system, v, j, precision)
                lam_c = CompletionElement.from_field_element(v, precision, lambdas[j])
                rhs = residue_add(rhs, residue_mul(lam_c, s_j))
            assert lhs == rhs


def test_remainder_at_unity_is_a_linear_form_at_every_kind_of_place():
    # s_j = B_0(1) F_v(alpha_j) - B_j(1) is the form (-B_j(1), B_0(1)) at
    # alpha_j: ramified places over 2 with d = 3 and 2 mod 4, both split
    # places over 2 of Q(sqrt(17)), inert@2 of Q(sqrt(5)) (the omega basis),
    # and places of Q and of the same fields over odd primes
    half = Fraction(1, 2)
    cases = [
        (None, (1, -2), (2, 3)),
        (-1, (1, 1), (2, 3)),
        (2, (1, 1), (2, 7)),
        (17, (half, half), (2, 13)),
        (5, (half, half), (2, 5)),
    ]
    checked = 0
    for d, (x, y), primes in cases:
        K = QuadraticField(d)
        points = [K(x), K(y)] if d is None else [K(x, y), K(x, -y)]
        places = [v for p in primes for v in places_above(K, p)]
        for m in (1, 2):
            for l in (1, 2):
                for mu in range(m + 1):
                    system = pade_construct(m, l, mu, points[:m])
                    for v in places:
                        for j in range(1, m + 1):
                            for precision in (1, 6):
                                lambdas = (-system.B[j](1), system.B[0](1))
                                alpha = (system.alpha[j - 1],)
                                form, _ = linear_form_value(lambdas, alpha, v, precision)
                                assert remainder_at_unity(system, v, j, precision) == form
                                checked += 1
    assert checked == 416
    kinds = {(v.p, v.splitting) for d, _, primes in cases for p in primes
             for v in places_above(QuadraticField(d), p)}
    assert {(2, "ramified"), (2, "split_1"), (2, "split_2"), (2, "inert")} <= kinds


def test_descriptor_validation():
    with pytest.raises(InvalidModulusError):
        ValuationSetDescriptor.residue_classes(2, {1})
    with pytest.raises(ValueError):
        ValuationSetDescriptor.residue_classes(6, {2})
    desc = ValuationSetDescriptor.residue_classes(4, {1})
    assert desc.excludes_place(places_above(QuadraticField(), 3)[0])
    assert not desc.excludes_place(places_above(QuadraticField(), 5)[0])


def _fib_record():
    K, lambdas, alphas = fibonacci_linear_form(1, 1)
    obj = certify_nonvanishing(K, lambdas, alphas, 2, 50).to_json()
    assert obj["status"] == "nonzero" and obj["place"]["splitting"] == "inert"
    return obj


@pytest.mark.parametrize("splitting", ["ramified", "xyz"])
def test_certificate_record_with_a_forged_place_is_refused(splitting):
    # 2 is inert in Q(sqrt(5)): no other place lies above it
    obj = _fib_record()
    obj["place"]["splitting"] = splitting
    with pytest.raises(ValueError, match=f"no place {splitting}@2"):
        certificate_from_json(obj)


@pytest.mark.parametrize("splitting, d", [("ramified", 5), ("inert", None)])
def test_certificate_at_a_place_the_field_lacks_does_not_verify(splitting, d):
    cert = certificate_from_json(_fib_record())
    assert verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, place=Place(2, splitting, d)))


@pytest.mark.parametrize("key, extra", [("lambdas", "7"), ("alphas", "3")])
def test_certificate_record_of_a_different_form_is_refused(key, extra):
    # verification pairs lambda_j with alpha_j, so an unpaired entry would go unchecked
    obj = _fib_record()
    obj[key].append(extra)
    with pytest.raises(ValueError, match="linear-form coefficients"):
        certificate_from_json(obj)


@pytest.mark.parametrize(
    "key, values",
    [("lambdas", ["1/2", "0,-1", "0,1"]), ("lambdas", ["5", "0,1/2", "0,1"]),
     ("alphas", ["1/3,1/3", "1/3,1/3"]), ("alphas", ["1/2,1/2", "1/2,1/2"]), ("alphas", ["0", "1/2,-1/2"]),
     ("alphas", ["x", "1"]), ("lambdas", ["1/0", "0,1", "0,1"])],
)
def test_certificate_record_outside_the_scan_rules_is_refused(key, values):
    # the reader takes only what certify_nonvanishing takes, so the checker
    # never meets a form it cannot evaluate
    obj = _fib_record()
    obj[key] = values
    with pytest.raises(ValueError, match=key):
        certificate_from_json(obj)


_BAD_ENTRIES = {
    "non-integral lambda": lambda cert: {"lambdas": (cert.lambdas[0] / 2,) + cert.lambdas[1:]},
    "non-integral alpha": lambda cert: {"alphas": (cert.alphas[0], cert.alphas[1] / 3)},
    "lambda that is no number": lambda cert: {"lambdas": (None,) + cert.lambdas[1:]},
    "field_d that names no field": lambda cert: {"field_d": 4},
    # the reader's "cannot be read", not the factoring budget's PrecisionCapError
    "field_d past the factoring budget": lambda cert: {"field_d": 10**40 + 1},
}


@pytest.mark.parametrize("bad_entry", _BAD_ENTRIES.values(), ids=_BAD_ENTRIES.keys())
def test_certificate_built_with_a_bad_entry_does_not_verify(bad_entry):
    # the checker answers False where the evaluator would raise
    cert = certificate_from_json(_fib_record())
    assert verify_certificate(dataclasses.replace(cert, **bad_entry(cert))) is False


def test_certificate_record_with_a_composite_prime_is_refused():
    obj = _fib_record()
    obj["place"]["p"] = 4
    with pytest.raises(InvalidPrimeError):
        certificate_from_json(obj)


#: the least composite that every Miller-Rabin base of arith.is_prime passes
PSI_13 = 1287836182261 * 2575672364521


def test_certificate_at_a_p_past_the_primality_bound_is_refused():
    # the reader refuses, with ValueError, a place at a p that is_prime cannot
    # show prime, and the checker answers False for one built past the reader
    record = _certify_record(3, 3)
    record["place"]["p"] = record["prime"] = PSI_13
    with pytest.raises(ValueError, match=f"primality of {PSI_13} is not settled"):
        certificate_from_json(record)
    cert = certificate_from_json(_certify_record(3, 3))
    place = Place(PSI_13, cert.place.splitting, None)
    assert verify_certificate(dataclasses.replace(cert, place=place)) is False


def _certify_record(p_min=2, p_max=50):
    return certify_nonvanishing(QuadraticField(), [1, 1], [1], p_min, p_max).to_json()


@pytest.mark.parametrize(
    "record, forge, field",
    [
        (_fib_record, lambda obj: obj.update(prime=97), "prime"),
        (_fib_record, lambda obj: obj.update(prime=[1]), "prime"),
        (_fib_record, lambda obj: obj.update(prime="x"), "prime"),
        (_fib_record, lambda obj: obj.update(prime=2.0), "prime"),
        (lambda: _certify_record(5, 3), lambda obj: obj.update(prime=2), "prime"),
        (_fib_record, lambda obj: obj["place"].update(p="2"), "place's p"),
        (_fib_record, lambda obj: obj["place"].update(e=7), "place's e"),
        (_fib_record, lambda obj: obj["place"].update(f=9), "place's f"),
        (_fib_record, lambda obj: obj["place"].update(f=True), "place's f"),
        (_certify_record, lambda obj: obj.update(lambdas="11"), "lambdas"),
        (_certify_record, lambda obj: obj.update(alphas="1"), "alphas"),
        (_fib_record, lambda obj: obj.update(lambdas=[5, 0, 0]), "lambdas"),
        (_fib_record, lambda obj: obj.update(field_d="5"), "field_d"),
        (_certify_record, lambda obj: obj.update(field_d=True), "field_d"),
    ],
)
def test_certificate_record_with_a_mistyped_or_inconsistent_field_is_refused(record, forge, field):
    # a verifying record with one field forged is refused, naming the field
    obj = record()
    assert verify_certificate(certificate_from_json(obj))
    forge(obj)
    with pytest.raises(ValueError, match=field):
        certificate_from_json(obj)


def test_certificate_record_whose_field_cannot_be_factored_is_refused():
    # trial division cannot settle whether 10^40 + 1 is squarefree; the reader
    # refuses with ValueError, as for every other value it cannot read
    obj = _fib_record()
    obj["field_d"] = 10**40 + 1
    with pytest.raises(ValueError, match=r"^field_d 10000000000000000000000000000000000000001 cannot be read: ") as refusal:
        certificate_from_json(obj)
    assert not isinstance(refusal.value, PrecisionCapError)


def test_certificate_with_an_unknown_status():
    obj = _fib_record()
    obj["status"] = "bogus"
    with pytest.raises(ValueError, match="status"):
        certificate_from_json(obj)
    cert = dataclasses.replace(certificate_from_json(_fib_record()), status="bogus")
    assert not verify_certificate(cert)


@pytest.mark.parametrize(
    "key", ["place", "precision", "partial_valuation", "tail_valuation_bound"]
)
def test_nonzero_record_with_a_null_field_is_refused(key):
    obj = _fib_record()
    obj[key] = None
    with pytest.raises(ValueError, match=key):
        certificate_from_json(obj)


def test_undetermined_record_roundtrip(KQ):
    cert = certify_nonvanishing(KQ, [1, 1], [1], 5, 3)
    back = certificate_from_json(cert.to_json())
    assert back == cert and back.status == "undetermined"
    assert verify_certificate(back)


@pytest.mark.parametrize("n_max", [64.0, Fraction(9, 2), "64", None])
def test_an_n_max_that_is_not_an_int_is_refused(KQ, n_max):
    # an undetermined record carries n_max as its precision, which the
    # reader takes only as an int and JSON writes only as a number
    with pytest.raises(ValueError) as refusal:
        certify_nonvanishing(KQ, [1, 1], [1], 5, 3, n_max=n_max)
    assert str(refusal.value) == f"n_max must be an int, got {n_max!r}"


_BAD_UNDETERMINED = {
    "field_d as a string": {"field_d": "5"},
    "lambda that is no number": {"lambdas": (None,)},
    "field_d that names no field": {"field_d": 4},
    "precision as a string": {"precision": "64"},
    "a place the field lacks": {"place": Place(2, "inert", 5)},
}


@pytest.mark.parametrize("change", _BAD_UNDETERMINED.values(), ids=_BAD_UNDETERMINED.keys())
def test_an_undetermined_certificate_the_reader_refuses_does_not_verify(KQ, change):
    cert = dataclasses.replace(certify_nonvanishing(KQ, [1, 1], [1], 5, 3), **change)
    with pytest.raises(ValueError):
        certificate_from_json(cert.to_json())
    assert verify_certificate(cert) is False


def test_zero_lambda_drops_its_point(KQ):
    full = certify_nonvanishing(KQ, (1, 0, 1), (1, 2), 2, 50)
    reduced = certify_nonvanishing(KQ, (1, 1), (2,), 2, 50)
    assert dataclasses.replace(full, lambdas=(), alphas=()) == dataclasses.replace(
        reduced, lambdas=(), alphas=()
    )
    assert verify_certificate(full)


def test_cofinite_exclusion_compares_whole_places():
    excluded = ValuationSetDescriptor.cofinite(places_above(QuadraticField(5), 3))
    assert excluded.excludes_place(places_above(QuadraticField(5), 3)[0])
    # inert@3 of Q(sqrt(2)) is another place with the same name
    other = places_above(QuadraticField(2), 3)[0]
    assert str(other) == "inert@3"
    assert not excluded.excludes_place(other)


def _exact_linear_form(lambdas, alphas, v, precision):
    """The residue and tail of linear_form_value, from exact field sums:
    lambda_0 + sum_j lambda_j * (sum_{n < terms} n! alpha_j^n), with the
    terms and tail bound of each series and w_v(lambda_j) taken exactly."""
    total, tail = lambdas[0], None
    for lam, al in zip(lambdas[1:], alphas):
        if not lam:
            continue
        cv = euler_eval_certified(v, al, precision)
        partial, term = al * 0, al * 0 + 1
        for n in range(cv.terms_used):
            if n:
                term = term * n * al
            partial = partial + term
        total = total + lam * partial
        bound = cv.tail_valuation_bound + valuation(v, lam)
        tail = bound if tail is None else min(tail, bound)
    residue = CompletionElement.from_field_element(v, precision, total)
    return residue, Fraction(precision) if tail is None else tail


def test_linear_form_value_memo_matches_exact_sums(KQ, K5, Km1):
    # warm memo, cleared memo and exact sums agree at every kind of place:
    # both split places over 11 with the same points, inert@2 of Q(sqrt(5))
    # (the omega basis), ramified@2 of Q(i) (d = 3 mod 4), a zero lambda,
    # and lambdas whose residue is 0, valued exactly
    phi = K5(Fraction(1, 2), Fraction(1, 2))
    i = Km1(0, 1)
    forms = [
        (K5, [K5(3), K5(1, 1), -K5(2)], [phi, phi.conjugate()], 11),
        (K5, [K5(5), K5(0, -1), K5(0, 1)], [phi, phi.conjugate()], 2),
        (K5, [K5(1), K5(2**9), K5(3)], [phi, K5(2)], 2),
        (Km1, [Km1(1, 1), i, Km1(2)], [Km1(1, 1), i], 2),
        (Km1, [Km1(0), Km1(0), Km1(1, 1)], [i, Km1(3)], 2),
        (KQ, [KQ(4), KQ(0), KQ(-7)], [KQ(1), KQ(-1)], 3),
        (KQ, [KQ(1), KQ(3**5)], [KQ(3)], 3),
    ]
    cases = [
        (lambdas, alphas, v, precision)
        for K, lambdas, alphas, p in forms
        for v in places_above(K, p)
        for precision in (1, 4, 8, 32)
    ]
    assert {v.splitting for _, _, v, _ in cases} == {
        "split_1", "split_2", "inert", "ramified", "rational"}
    expected = [_exact_linear_form(*case) for case in cases]
    padics._series_value.cache_clear()
    cold = [linear_form_value(*case) for case in cases]
    assert padics._series_value.cache_info().hits > 0  # forms at inert@2 share phi
    warm = [linear_form_value(*case) for case in cases]
    assert cold == warm == expected


def test_certificates_verify_after_the_memo_is_cleared():
    certs = []
    for a, b in [(1, 1), (-3, 4), (0, 7), (25, 25), (-25, 1)]:
        K, lambdas, alphas = fibonacci_linear_form(a, b)
        certs.append(certify_nonvanishing(K, lambdas, alphas, 2, 50))
    padics._series_value.cache_clear()
    for cert in certs:
        assert cert.status == "nonzero"
        assert verify_certificate(cert)
        padics._series_value.cache_clear()
        assert verify_certificate(certificate_from_json(cert.to_json()))


def test_memo_stays_within_its_bound(KQ):
    padics._series_value.cache_clear()
    for k in range(1, 2001):
        cert = certify_nonvanishing(KQ, [1, 1], [k], 2, 50)
        assert cert.status == "nonzero"
    info = padics._series_value.cache_info()
    assert info.maxsize == padics.EVAL_MEMO_SIZE
    assert info.misses > info.maxsize >= info.currsize


@pytest.mark.parametrize("precision", ["4", 4.0, True, 0, -4, 10**6, PRECISION_CAP - 3])
def test_certificate_with_a_bad_precision_is_refused(precision):
    obj = _fib_record()
    obj["precision"] = precision
    with pytest.raises(ValueError, match="precision"):
        certificate_from_json(obj)
    cert = dataclasses.replace(certificate_from_json(_fib_record()), precision=precision)
    assert verify_certificate(cert) is False


def test_certificate_precision_limits():
    obj = _fib_record()
    obj["precision"] = PRECISION_CAP - VERIFY_EXTRA_DIGITS
    assert certificate_from_json(obj).precision == PRECISION_CAP - VERIFY_EXTRA_DIGITS
    # an undetermined record claims nothing: its precision is the ladder's cap
    record = certify_nonvanishing(QuadraticField(), [1, 1], [1], 5, 3, n_max=PRECISION_CAP).to_json()
    assert certificate_from_json(record).precision == PRECISION_CAP
    record["precision"] = "64"
    with pytest.raises(ValueError, match="precision"):
        certificate_from_json(record)


def test_a_claim_over_the_term_budget_raises_by_name(KQ, monkeypatch, over_budget_record):
    padics._series_value.cache_clear()
    # the check is not decided: the evaluator's refusal comes out unchanged
    with pytest.raises(
        PrecisionCapError, match="188470 terms, 70864720 word products, over the budget of 64000000"
    ):
        verify_certificate(certificate_from_json(over_budget_record))
    # the scan still refuses a claim it cannot re-verify, naming the budget:
    # the claim at rational@2, precision 4, sums 6 one-word terms (126 word
    # products), and its re-verification at precision 8 sums 10 (210)
    monkeypatch.setattr(padics, "TERM_BUDGET", 126)
    with pytest.raises(PrecisionCapError, match="10 terms, 210 word products, over the budget of 126"):
        certify_nonvanishing(KQ, [1, 1], [1], 2, 50)


def test_a_claim_the_check_refuses_is_not_issued(KQ, monkeypatch):
    # the scan's one re-check: a claim verify_certificate rejects means the
    # evaluator disagrees with itself
    monkeypatch.setattr(certify, "verify_certificate", lambda cert: False)
    with pytest.raises(RuntimeError, match="^re-verification failed; evaluator inconsistent$"):
        certify_nonvanishing(KQ, [1, 1], [1], 2, 50)


@pytest.mark.parametrize("place", [None, "inert@2", {"p": 2, "splitting": "inert"}])
def test_certificate_built_with_a_bad_place_does_not_verify(place):
    cert = certificate_from_json(_fib_record())
    assert verify_certificate(dataclasses.replace(cert, place=place)) is False


_BAD_CLAIMS = {
    "no tail bound": lambda cert: {"tail_valuation_bound": None},
    "no partial valuation": lambda cert: {"partial_valuation": None},
    "no lambdas": lambda cert: {"lambdas": None},
    "no alphas": lambda cert: {"alphas": None},
    "partial valuation as a string": lambda cert: {"partial_valuation": "1"},
    "extra lambda": lambda cert: {"lambdas": cert.lambdas + (cert.lambdas[0],)},
    "extra alpha": lambda cert: {"alphas": cert.alphas + (3 * cert.alphas[0],)},
}


@pytest.mark.parametrize("bad_claim", _BAD_CLAIMS.values(), ids=_BAD_CLAIMS.keys())
def test_certificate_built_with_a_bad_claim_does_not_verify(bad_claim):
    cert = certificate_from_json(_fib_record())
    assert verify_certificate(cert)
    assert verify_certificate(dataclasses.replace(cert, **bad_claim(cert))) is False
