"""Constants, effective bounds, and non-vanishing certificates.

Everything here sits on top of the exact layers below it: the growth
constants c1, c2 of a point configuration, the diagnostic sequence whose
decay drives the pigeonhole argument, the explicit bound chain (margin
function, its largest nonnegative integer, prime interval and exponent),
the inverse of z*log(z), prime sums, the residue-class decay condition,
reduction of order-<=2 linear recurrences to linear forms, and the
certificate search itself.

A certificate asserts only non-vanishing: the truncated linear form has a
residue whose valuation sits strictly below a proven tail bound, which no
continuation of the series can cancel.  Exhaustion of the search space is
reported as "undetermined", never as vanishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import euler_phi, factorize, prime_range, primes_upto, squarefree_part
from .errors import (
    HeightTooSmallError,
    InvalidModulusError,
    OrderUnsupportedError,
    PrecisionCapError,
    RepeatedRootsError,
    UnsupportedDescriptorError,
)
from .numfield import (
    FieldElement,
    QuadraticField,
    _algebraic_integer,
    _validated_lambdas,
    _validated_points,
    arch_abs_normalized,
)
from .padics import PRECISION_CAP, linear_form_value
from .places import Place, factorial_valuation, normalized_abs_log, places_above


# ---------------------------------------------------------------------------
# valuation-set descriptors


@dataclass(frozen=True)
class ValuationSetDescriptor:
    """A collection V of non-Archimedean places: everything, everything
    except finitely many places, or the places over primes in given
    residue classes."""

    kind: str
    excluded: tuple[Place, ...] = ()
    modulus: int | None = None
    classes: frozenset[int] | None = None

    @classmethod
    def all_places(cls) -> ValuationSetDescriptor:
        return cls("all")

    @classmethod
    def cofinite(cls, excluded) -> ValuationSetDescriptor:
        excluded = tuple(excluded)
        if not all(isinstance(v, Place) for v in excluded):
            raise ValueError("cofinite exclusions must be places")
        return cls("cofinite", excluded)

    @classmethod
    def residue_classes(cls, n: int, classes) -> ValuationSetDescriptor:
        if n < 3:
            raise InvalidModulusError("the modulus must be at least 3")
        classes = frozenset(int(c) % n for c in classes)
        if not classes or any(math.gcd(c, n) != 1 for c in classes):
            raise ValueError("classes must be nonempty and prime to the modulus")
        return cls("residue_classes", (), n, classes)

    def excludes_place(self, place: Place) -> bool:
        if self.kind == "cofinite":
            return place in self.excluded
        if self.kind == "residue_classes":
            return place.p % self.modulus not in self.classes
        return False


# ---------------------------------------------------------------------------
# growth constants


def _arch_value_table(K: QuadraticField, elems) -> list[list[float]]:
    """Rows: Archimedean places of K; columns: normalized values of elems."""
    per_elem = [arch_abs_normalized(K, e) for e in elems]
    n_places = len(per_elem[0])
    return [[per_elem[j][i][1] for j in range(len(elems))] for i in range(n_places)]


def _validated_alphas(K: QuadraticField, alpha_vec) -> tuple[FieldElement, ...]:
    alphas = _validated_points(alpha_vec, K.d)
    for a in alphas:
        _algebraic_integer(a, K.d)
    return alphas


def constants_c1_c2(
    K: QuadraticField, alpha_vec, V: ValuationSetDescriptor
) -> tuple[float, float]:
    """The Archimedean constant c1 of the points and c2 = c1 * prod_{v in V}
    max_j ||alpha_j||_v.

    max_j ||alpha_j||_v < 1 needs w_v(alpha_j) > 0 for every j, so only
    places over primes dividing every norm(alpha_j) can push the
    non-Archimedean product below 1, and only the gcd of the norms is
    factored.
    """
    alphas = _validated_alphas(K, alpha_vec)
    m = len(alphas)
    c1 = 1.0
    for row in _arch_value_table(K, alphas):
        big = max(1.0, max(row))
        c1 *= big**m
        for val in row:
            c1 *= val + big
    c2 = c1
    for p in sorted(factorize(math.gcd(*(int(a.norm()) for a in alphas)))):
        for v in places_above(K, p):
            if V.excludes_place(v):
                continue
            c2 *= max(p ** -float(normalized_abs_log(v, a)) for a in alphas)
    return c1, c2


def limsup_sequence(
    K: QuadraticField, alpha_vec, V: ValuationSetDescriptor, l_max: int
) -> list[float]:
    """log of c2^l (ml+m)^kappa (ml+m)! prod_{v in V} ||(ml)! l!||_v for l = 1..l_max.

    With V cofinite the product over V is rewritten through the product
    formula: the full product over all finite places is 1/((ml)! l!), and
    each excluded place gives back its exact factorial valuation.  The
    sequence is diagnostic evidence for the decay condition, not a proof.
    """
    if V.kind == "residue_classes":
        raise UnsupportedDescriptorError(
            "residue-class collections are judged by their decay slope instead"
        )
    _, c2 = constants_c1_c2(K, alpha_vec, V)
    return _limsup_values(K.kappa, len(alpha_vec), c2, V, l_max)


def _limsup_values(
    kappa: int, m: int, c2: float, V: ValuationSetDescriptor, l_max: int
) -> list[float]:
    """limsup_sequence for m points whose constant c2 is already known."""
    out = []
    for l in range(1, l_max + 1):
        a_l = (
            l * math.log(c2)
            + kappa * math.log(m * l + m)
            + math.lgamma(m * l + m + 1)
            - math.lgamma(m * l + 1)
            - math.lgamma(l + 1)
        )
        for v in V.excluded:
            vp = factorial_valuation(v.p, m * l) + factorial_valuation(v.p, l)
            a_l += Fraction(v.kappa_v, kappa) * vp * math.log(v.p)
        out.append(a_l)
    return out


def monotone_decrease_onset(values: list[float]) -> int | None:
    """The first 1-based index from which the sequence strictly decreases."""
    onset = 1
    for k in range(1, len(values)):
        if values[k] >= values[k - 1]:
            onset = k + 1
    return onset if onset < len(values) else None


# ---------------------------------------------------------------------------
# the effective bound chain


def log_height_margin(l: int, m: int, kappa: int, c1: float, log_h: float) -> float:
    """The margin function N(l) whose last nonnegative integer drives the bound.

    N(l) = log H + (2(m+1) + 2m/l + log(c1)/loglog(l) + 1/loglog(l)
           + (kappa - 1/2) log(l)/(l loglog(l)) + kappa log(m)/(l loglog(l))
           + kappa log(m+1)/(l loglog(l)) + kappa/(l^2 loglog(l))) * l loglog(l)
           - l log(l)
    """
    if l < 2:
        raise ValueError("the margin function starts at l = 2")
    ll = math.log(l)
    lll = math.log(ll)
    bracket = (
        2 * (m + 1)
        + 2 * m / l
        + math.log(c1) / lll
        + 1 / lll
        + (kappa - 0.5) * ll / (l * lll)
        + kappa * math.log(m) / (l * lll)
        + kappa * math.log(m + 1) / (l * lll)
        + kappa / (l * l * lll)
    )
    return log_h + bracket * l * lll - l * ll


@dataclass(frozen=True)
class BoundReport:
    """Everything the explicit lower-bound chain pins down for one height."""

    m: int
    kappa: int
    c1: float
    s: float
    log_h: float
    ell: int
    n_ell: float
    n_ell_plus_1: float
    interval_lo: float
    interval_hi: float
    exponent: float

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "kappa": self.kappa,
            "c1": self.c1,
            "s": self.s,
            "logH": self.log_h,
            "ell": self.ell,
            "N_ell": self.n_ell,
            "N_ell_plus_1": self.n_ell_plus_1,
            "interval_lo": self.interval_lo,
            "interval_hi": self.interval_hi,
            "exponent": self.exponent,
        }


def effective_bounds(m: int, kappa: int, c1: float, log_h: float) -> BoundReport:
    """Evaluate the explicit bound chain at height log H.

    Computes s, scans for ell = max{l >= 2 : N(l) >= 0} (geometric bracket,
    then binary search on the decreasing flank), and emits the prime
    interval ]log(logH/loglogH), 17m logH/loglogH[ together with the
    exponent (m+1) + 114 m^2 logloglogH/loglogH.  The containment of
    [log(ell+1), m(ell+2)] in the interval is re-checked on every call.
    """
    if m < 1 or kappa < 1:
        raise ValueError("need m >= 1 and kappa >= 1")
    s = max(math.e**kappa + 1, c1 + 1, (m + 3) ** 2 + 1)
    if log_h < s * math.exp(s):
        raise HeightTooSmallError(f"log H must be at least s*e^s = {s * math.exp(s):.6g}")

    def margin(l: int) -> float:
        return log_height_margin(l, m, kappa, c1, log_h)

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
        raise RuntimeError("interval containment failed; bound chain inconsistent")
    return BoundReport(
        m, kappa, c1, s, log_h, ell, margin(ell), margin(ell + 1),
        interval_lo, interval_hi, exponent,
    )


#: z_inverse stops once successive iterates agree to this relative tolerance,
#: or after Z_INVERSE_MAX_ITER steps
Z_INVERSE_REL_TOL = 1e-12
Z_INVERSE_MAX_ITER = 100000


def z_inverse(y: float) -> tuple[float, list[float]]:
    """Invert z*log(z) = y for y >= e by the nested-logarithm iteration.

    z_0 = y, z_n = y / log(z_{n-1}); odd iterates climb from below and even
    iterates descend from above, squeezing the fixed point.  Returns the
    limit and the iterate list.
    """
    if y < math.e:
        raise ValueError("y must be at least e")
    iterates = [y]
    z = y
    for _ in range(Z_INVERSE_MAX_ITER):
        nz = y / math.log(z)
        iterates.append(nz)
        if abs(nz - z) <= Z_INVERSE_REL_TOL * abs(nz):
            z = nz
            break
        z = nz
    if abs(z * math.log(z) - y) > 1e-9 * abs(y):
        raise RuntimeError(f"iteration failed to invert z*log(z) = {y}")
    return z, iterates


def mertens_sum(x: float) -> tuple[float, bool]:
    """(sum_{p<=x} log(p)/(p-1), whether sum_{p<=x} log(p)/p < log(x))."""
    if x < 2:
        raise ValueError("x must be at least 2")
    total, check = 0.0, 0.0
    for p in primes_upto(int(math.floor(x))):
        total += math.log(p) / (p - 1)
        check += math.log(p) / p
    return total, check < math.log(x)


def residue_condition(n: int, r: int, m: int) -> tuple[bool, float]:
    """Whether r residue classes mod n force the decay, and the slope
    m - r(m+1)/phi(n) of the leading l*log(l) term (negative iff ok)."""
    if n < 3:
        raise InvalidModulusError("the modulus must be at least 3")
    phi = euler_phi(n)
    if not 1 <= r <= phi:
        raise ValueError(f"r must be within 1..phi({n}) = {phi}")
    ok = r * (m + 1) > m * phi
    slope = m - r * (m + 1) / phi
    return ok, slope


# ---------------------------------------------------------------------------
# linear recurrences


def recurrence_to_linear_form(c_vec, init) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...], int]:
    """Reduce x_n = c_1 x_{n-1} + ... + c_k x_{n-k} (k <= 2, distinct roots)
    to sum_i b_i F(alpha_i) = d * sum_n n! x_n.

    The characteristic roots alpha_i are algebraic integers (the polynomial
    is monic with integer coefficients); the solution weights a_i are solved
    exactly, d clears their denominators, and b_i = d*a_i.
    """
    c_vec = tuple(int(c) for c in c_vec)
    init = tuple(int(x) for x in init)
    k = len(c_vec)
    if k > 2:
        raise OrderUnsupportedError("only recurrences of order <= 2 are reduced")
    if k == 0 or c_vec[-1] == 0:
        raise ValueError("the leading recurrence coefficient c_k must be nonzero")
    if len(init) != k:
        raise ValueError(f"expected {k} initial values")
    if k == 1:
        K = QuadraticField()
        return (K(c_vec[0]),), (K(init[0]),), 1
    c1, c2 = c_vec
    disc = c1 * c1 + 4 * c2
    if disc == 0:
        raise RepeatedRootsError("the characteristic polynomial has a double root")
    s = squarefree_part(disc)
    f = math.isqrt(disc // s)
    if s == 1:
        K = QuadraticField()
        r1, r2 = K(Fraction(c1 + f, 2)), K(Fraction(c1 - f, 2))
    else:
        K = QuadraticField(s)
        r1, r2 = K(Fraction(c1, 2), Fraction(f, 2)), K(Fraction(c1, 2), Fraction(-f, 2))
    x0, x1 = K(init[0]), K(init[1])
    a1 = (x1 - x0 * r2) / (r1 - r2)
    a2 = x0 - a1
    d = math.lcm(a1.denominator(), a2.denominator())
    return (r1, r2), (a1 * d, a2 * d), d


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable non-vanishing record for one linear form.

    status "nonzero" means: at the recorded place and precision, the
    residue of the truncated linear form has valuation partial_valuation,
    strictly below both the precision and the proven tail bound, so the
    full value cannot vanish.  status "undetermined" carries no claim.
    """

    field_d: int | None
    lambdas: tuple[FieldElement, ...]
    alphas: tuple[FieldElement, ...]
    place: Place | None
    precision: int | None
    partial_valuation: Fraction | None
    tail_valuation_bound: Fraction | None
    status: str

    def to_json(self) -> dict:
        return {
            "field_d": self.field_d,
            "lambdas": [str(c) for c in self.lambdas],
            "alphas": [str(a) for a in self.alphas],
            "prime": None if self.place is None else self.place.p,
            "place": None if self.place is None else self.place.to_json(),
            "precision": self.precision,
            "partial_valuation": None if self.partial_valuation is None else str(self.partial_valuation),
            "tail_valuation_bound": None if self.tail_valuation_bound is None else str(self.tail_valuation_bound),
            "status": self.status,
        }


#: digits of precision verify_certificate adds to the certificate's own
VERIFY_EXTRA_DIGITS = 4


def _claimable_precision(precision) -> bool:
    """Whether a nonzero claim may carry this precision: an int (not a bool)
    that verify_certificate can raise by VERIFY_EXTRA_DIGITS within the cap."""
    return type(precision) is int and 1 <= precision <= PRECISION_CAP - VERIFY_EXTRA_DIGITS


def _string_list(obj: dict, key: str) -> list:
    value = obj[key]
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return value


def certificate_from_json(obj: dict) -> Certificate:
    """Read back a to_json() record, refusing an unknown status, a field_d
    that is neither null nor an int, lambdas or alphas that are not lists of
    strings, a count of lambdas other than m + 1, a place whose p is not an
    int, a place that places_above(K, p) does not list or whose e and f are
    not that place's, a prime other than the place's p (null without a
    place), a precision that is not an int, and a nonzero claim with a gap
    or with a precision outside 1..PRECISION_CAP - VERIFY_EXTRA_DIGITS."""
    status = obj["status"]
    if status not in ("nonzero", "undetermined"):
        raise ValueError(f"unknown certificate status {status!r}")
    claim = ("place", "precision", "partial_valuation", "tail_valuation_bound")
    missing = [key for key in claim if obj[key] is None]
    if status == "nonzero" and missing:
        raise ValueError(f"a nonzero certificate needs {', '.join(missing)}")
    precision = obj["precision"]
    if precision is not None and type(precision) is not int:
        raise ValueError(f"precision must be an int, got {precision!r}")
    if status == "nonzero" and not _claimable_precision(precision):
        raise ValueError(
            f"precision {precision} is outside 1..{PRECISION_CAP - VERIFY_EXTRA_DIGITS}"
        )
    field_d = obj["field_d"]
    if field_d is not None and type(field_d) is not int:
        raise ValueError(f"field_d must be null or an int, got {field_d!r}")
    K = QuadraticField(field_d)
    alphas = tuple(K.parse(s) for s in _string_list(obj, "alphas"))
    lambdas = [K.parse(s) for s in _string_list(obj, "lambdas")]
    lambdas = _validated_lambdas(lambdas, len(alphas), K.d)
    place, p = None, None
    if obj["place"] is not None:
        p, splitting = obj["place"]["p"], obj["place"]["splitting"]
        if type(p) is not int:
            raise ValueError(f"the place's p must be an int, got {p!r}")
        place = next((v for v in places_above(K, p) if v.splitting == splitting), None)
        if place is None:
            raise ValueError(f"{K} has no place {splitting}@{p}")
        for key in ("e", "f"):
            got, want = obj["place"][key], getattr(place, key)
            if type(got) is not int or got != want:
                raise ValueError(f"the place's {key} must be {want}, got {got!r}")
    prime = obj["prime"]
    if type(prime) is not type(p) or prime != p:
        want = "null without a place" if p is None else f"the place's p, {p}"
        raise ValueError(f"prime must be {want}, got {prime!r}")
    return Certificate(
        K.d,
        lambdas,
        alphas,
        place,
        precision,
        None if obj["partial_valuation"] is None else Fraction(obj["partial_valuation"]),
        None if obj["tail_valuation_bound"] is None else Fraction(obj["tail_valuation_bound"]),
        status,
    )


def certify_nonvanishing(
    K: QuadraticField,
    lambda_vec,
    alpha_vec,
    p_min: int,
    p_max: int,
    n_max: int = 64,
) -> Certificate:
    """Scan primes p_min..p_max for a place where the linear form provably
    does not vanish.

    Scan order is deterministic: ascending primes, places in the canonical
    order, precision doubling 4, 8, ..., n_max.  The first residue whose
    valuation drops strictly below both the precision and the tail bound is
    re-verified at four more digits and returned; running out of places
    yields an "undetermined" certificate, never a claim of vanishing.
    """
    alphas = _validated_alphas(K, alpha_vec)
    lambdas = _validated_lambdas(lambda_vec, len(alphas), K.d)
    for c in lambdas:
        _algebraic_integer(c, K.d)
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    for p in prime_range(max(2, p_min), p_max):
        for v in places_above(K, p):
            n = 4
            while n <= n_max:
                value, tail = linear_form_value(lambdas, alphas, v, n)
                w = value.valuation_lower()
                if w is not None and w < tail and w < n:
                    if not _claimable_precision(n):
                        raise PrecisionCapError(
                            f"a claim at precision {n} cannot be re-verified "
                            f"within the cap {PRECISION_CAP}"
                        )
                    cert = Certificate(
                        K.d, lambdas, alphas, v, n, w, tail, "nonzero"
                    )
                    if not verify_certificate(cert):
                        raise RuntimeError("re-verification failed; evaluator inconsistent")
                    return cert
                n *= 2
    return Certificate(K.d, lambdas, alphas, None, n_max, None, None, "undetermined")


def verify_certificate(cert: Certificate) -> bool:
    """Independently recompute a nonzero certificate at higher precision.

    The place must be one that places_above lists for the field, the
    precision one that certificate_from_json accepts, and the valuation of
    the residue must reproduce exactly and still sit below the (now larger)
    tail bound.  Undetermined certificates claim nothing and verify
    vacuously; any other status does not verify, and neither does a nonzero
    certificate with a claim field missing or mistyped, or with lambdas and
    alphas that are not tuples of m + 1 and m entries.
    """
    if cert.status != "nonzero":
        return cert.status == "undetermined"
    v = cert.place
    if not (
        isinstance(v, Place)
        and _claimable_precision(cert.precision)
        and isinstance(cert.partial_valuation, (int, Fraction))
        and isinstance(cert.tail_valuation_bound, (int, Fraction))
        and isinstance(cert.lambdas, tuple)
        and isinstance(cert.alphas, tuple)
        and len(cert.lambdas) == len(cert.alphas) + 1
    ):
        return False
    if v not in places_above(QuadraticField(cert.field_d), v.p):
        return False
    precision = cert.precision + VERIFY_EXTRA_DIGITS
    value, tail = linear_form_value(cert.lambdas, cert.alphas, v, precision)
    w = value.valuation_lower()
    return (
        w is not None
        and w == cert.partial_valuation
        and w < tail
        and w < precision
        and tail >= cert.tail_valuation_bound
    )


# ---------------------------------------------------------------------------
# ready-made linear forms for the worked examples


def fibonacci_linear_form(a: int, b: int):
    """The linear form certifying sum_n n! f_n != a/b over Q(sqrt(5)).

    Reduces the Fibonacci recurrence to d * sum n! f_n = sum_i b_i F(alpha_i)
    with d = 5 and returns (K, lambdas, alphas) for lambda_0 = d*a,
    lambda_i = -b * b_i.
    """
    if b == 0:
        raise ValueError("the target denominator b must be nonzero")
    alphas, bs, d = recurrence_to_linear_form((1, 1), (0, 1))
    K = QuadraticField(alphas[0].d)
    lambdas = (K(d * a),) + tuple(-b * bi for bi in bs)
    return K, lambdas, alphas


def even_factorial_linear_form(a: int, b: int):
    """The linear form certifying sum_n (2n)! != a/b over Q.

    F(1) + F(-1) = 2 * sum (2n)!, so lambda = (2a, -b, -b) at alpha = (1, -1).
    """
    if b == 0:
        raise ValueError("the target denominator b must be nonzero")
    K = QuadraticField()
    return K, (K(2 * a), K(-b), K(-b)), (K(1), K(-1))
