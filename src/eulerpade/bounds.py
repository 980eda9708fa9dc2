"""The paper's effective bound chain, in floating point.

The growth constants c1, c2 of a point configuration, the diagnostic
sequence whose decay drives the pigeonhole argument, the explicit bound
chain (margin function, its largest nonnegative integer, prime interval and
exponent), the inverse of z*log(z), prime sums, and the residue-class decay
condition, over a collection V of places.  Nothing here issues a
certificate: the values are estimates, not enclosures.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .arith import euler_phi, factorize, primes_upto
from .errors import (
    BoundChainError,
    HeightTooSmallError,
    InvalidModulusError,
    PrecisionCapError,
    UnsupportedDescriptorError,
)
from .numfield import QuadraticField, _validated_alphas, arch_abs_normalized
from .places import Place, normalized_abs_log, places_above


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
        excluded = tuple(dict.fromkeys(excluded))
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


def constants_c1_c2(
    K: QuadraticField, alpha_vec, V: ValuationSetDescriptor
) -> tuple[float, float]:
    """The Archimedean constant c1 of the points and c2 = c1 * prod_{v in V}
    max_j ||alpha_j||_v, or PrecisionCapError when c1 overflows a double.

    max_j ||alpha_j||_v < 1 needs w_v(alpha_j) > 0 for every j, so only
    places over primes dividing every norm(alpha_j) can push the
    non-Archimedean product below 1, and only the gcd of the norms is
    factored.
    """
    alphas = _validated_alphas(alpha_vec, K.d)
    m = len(alphas)
    try:
        c1 = 1.0
        # one row of normalized values of the alphas for each Archimedean place
        for row in zip(*(arch_abs_normalized(K, a) for a in alphas)):
            big = max(1.0, max(val for _, val in row))
            c1 *= big**m
            for _, val in row:
                c1 *= val + big
    except OverflowError:
        c1 = math.inf
    if math.isinf(c1):
        raise PrecisionCapError("c1 of these points leaves the double range")
    c2 = c1
    for p in sorted(factorize(math.gcd(*(int(a.norm()) for a in alphas)))):
        for v in places_above(K, p):
            if V.excludes_place(v):
                continue
            c2 *= max(p ** -float(normalized_abs_log(v, a)) for a in alphas)
    return c1, c2


#: the longest limsup sequence computed: about 0.12 s over all places, plus
#: about 0.1 s for each excluded place, whose factorial valuations are
#: stepped with l (m = 2, Python 3.11, x86-64)
LIMSUP_MAX_L = 100000


def limsup_sequence(
    K: QuadraticField, alpha_vec, V: ValuationSetDescriptor, l_max: int
) -> list[float]:
    """log of c2^l (ml+m)^kappa (ml+m)! prod_{v in V} ||(ml)! l!||_v for l = 1..l_max.

    With V cofinite the product over V is rewritten through the product
    formula: the full product over all finite places is 1/((ml)! l!), and each
    excluded place that places_above(K, p) lists gives back its exact
    factorial valuation once (InvalidPrimeError if p is not prime).  The
    sequence is diagnostic evidence for the decay condition, not a proof.
    """
    if V.kind == "residue_classes":
        raise UnsupportedDescriptorError(
            "residue-class collections are judged by their decay slope instead"
        )
    _, c2 = constants_c1_c2(K, alpha_vec, V)
    return _limsup_values(K, len(alpha_vec), c2, V, l_max)


def _limsup_values(
    K: QuadraticField, m: int, c2: float, V: ValuationSetDescriptor, l_max: int
) -> list[float]:
    """limsup_sequence for m points whose constant c2 is already known;
    an l_max below 1 raises ValueError, one over LIMSUP_MAX_L
    PrecisionCapError."""
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, got {l_max}")
    if l_max > LIMSUP_MAX_L:
        raise PrecisionCapError(f"l_max {l_max} is over the work budget of {LIMSUP_MAX_L}")
    out, log_c2, kappa = [], math.log(c2), K.kappa
    # for each excluded place places_above(K, p) lists, in V's order: p, kappa_v, log p and
    # v_p((ml)!) + v_p(l!), which each step of l raises by v_p of m*l - m + 1, ..., m*l and of l
    excluded = [[v.p, v.kappa_v, math.log(v.p), 0] for v in V.excluded if v in places_above(K, v.p)]
    for l in range(1, l_max + 1):
        a_l = (
            l * log_c2
            + kappa * math.log(m * l + m)
            + math.lgamma(m * l + m + 1)
            - math.lgamma(m * l + 1)
            - math.lgamma(l + 1)
        )
        for e in excluded:
            p, kappa_v, log_p, vp = e
            for j in (*range(m * l - m + 1, m * l + 1), l):
                while j % p == 0:
                    j //= p
                    vp += 1
            e[3] = vp
            a_l += kappa_v * vp / kappa * log_p
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
    return _margin_of_key(m, kappa, c1, log_h)(*_margin_key(l, m))


def _margin_key(l: int, m: int) -> tuple[float, float, float]:
    """The only doubles N takes from l: math.log of an int and every
    int-by-float product convert l to float(l) first."""
    return float(l), 2 * m / l, float(l * l)


def _key_class_edge(key: tuple[float, float, float], m: int, up: bool) -> int:
    """The last int k (up) or the first (not up) with _margin_key(k, m) == key,
    for the key of an l with 2 <= l <= 2^511.

    int-to-float conversion and int/int true division are correctly rounded,
    so each part of the key is monotone in k: float(k) and float(k*k) never
    fall and 2m/k never rises.  The k that share one part's double are then
    an interval, and the k that share the key, the intersection of three
    intervals, are one too: every k between l and its class edge has l's N.
    Each part's interval ends where the part's exact value crosses the
    midpoint between its double and that double's neighbour, found in ints;
    a k on the midpoint rounds half to even, so the candidate is tested and
    its neighbour back toward l taken when it rounds away.
    """
    x, q, y = key

    def half_gap(d: float, toward: float) -> int:
        """Half the gap from the integral double d to its neighbour toward `toward`, rounded down."""
        return int(abs(math.nextafter(d, toward) - d)) // 2

    # q's neighbour on the edge's side is toward 0 for larger k, as 2m/k falls;
    # 2m/k crosses their midpoint (qa*nb + na*qb) / (2*qb*nb) at k = 4m*qb*nb / (qa*nb + na*qb)
    (qa, qb), (na, nb) = q.as_integer_ratio(), math.nextafter(q, 0.0 if up else math.inf).as_integer_ratio()
    kq_num, kq_den = 4 * m * qb * nb, qa * nb + na * qb
    if up:  # the largest k with k, 2m/k and k*k on the key's side of each midpoint
        kx, kq = int(x) + half_gap(x, math.inf), kq_num // kq_den
        ky = math.isqrt(int(y) + half_gap(y, math.inf))
    else:  # the least such k
        kx, kq = int(x) - half_gap(x, 0.0), -(-kq_num // kq_den)
        ky = math.isqrt(int(y) - half_gap(y, 0.0) - 1) + 1
    back = 1 if up else -1
    settled = kx - back * (float(kx) != x), kq - back * (2 * m / kq != q), ky - back * (float(ky * ky) != y)
    return min(settled) if up else max(settled)


def _margin_of_key(m: int, kappa: int, c1: float, log_h: float):
    """N(l) for l >= 2 from the doubles _margin_key(l, m), the logs free of l taken once;
    each operation keeps the formula's order and grouping, so every value is the same double."""
    log_c1, kappa_log_m, kappa_log_m1 = math.log(c1), kappa * math.log(m), kappa * math.log(m + 1)
    two_m_plus_2, kappa_half = 2 * (m + 1), kappa - 0.5

    def margin(l: float, two_m_over_l: float, l_sq: float) -> float:
        ll = math.log(l)
        lll = math.log(ll)
        l_lll = l * lll
        bracket = (
            two_m_plus_2 + two_m_over_l
            + log_c1 / lll
            + 1 / lll
            + kappa_half * ll / l_lll
            + kappa_log_m / l_lll
            + kappa_log_m1 / l_lll
            + kappa / (l_sq * lll)
        )
        return log_h + bracket * l * lll - l * ll

    return margin


#: hi*log(hi), the double N(hi) subtracts, at the doubling's hi = 4, 8, ..., 2^511;
#: strictly increasing, so the doubling's steps are a bisection of it
_DOUBLING_TABLE = tuple((1 << k) * math.log(1 << k) for k in range(2, 512))


def _doubling_bracket(c1: float, log_h: float) -> tuple[int, int]:
    """(lo, hi) after the doubling steps from (2, 4) that need no N.

    For c1 >= 1 and 4 <= l <= 2^511 each term of N's bracket is a double
    >= 0 and nothing overflows, so N(hi) >= 0 once hi*log(hi) <= log H:
    the doubling climbs past every table entry at most log H.
    """
    steps = bisect.bisect_right(_DOUBLING_TABLE, log_h) if c1 >= 1 else 0
    return 2 << steps, 4 << steps


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
    its first steps a lookup in _DOUBLING_TABLE, then binary search on the
    decreasing flank, which past 2^96 gives each midpoint in the key class
    of an end that end's sign from the class edges), and emits the prime
    interval ]log(logH/loglogH), 17m logH/loglogH[ together with the
    exponent (m+1) + 114 m^2 logloglogH/loglogH.  The containment of
    [log(ell+1), m(ell+2)] in the interval is re-checked on every call; a
    failure raises BoundChainError.
    c1 must be finite and positive and log_h finite; a step whose double
    overflows raises PrecisionCapError.
    """
    if m < 1 or kappa < 1:
        raise ValueError("need m >= 1 and kappa >= 1")
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError(f"c1 must be finite and positive, got {c1}")
    if not math.isfinite(log_h):
        raise ValueError(f"log_h must be finite, got {log_h}")
    try:
        s = max(math.e**kappa + 1, c1 + 1, (m + 3) ** 2 + 1)
        if log_h < s * math.exp(s):
            raise HeightTooSmallError(f"log H must be at least s*e^s = {s * math.exp(s):.6g}")

        margin = _margin_of_key(m, kappa, c1, log_h)
        if margin(*_margin_key(2, m)) < 0:
            raise HeightTooSmallError("the margin function is already negative at l = 2")
        lo, hi = _doubling_bracket(c1, log_h)
        while margin(*_margin_key(hi, m)) >= 0:
            lo, hi = hi, hi * 2
        # N takes l only through its key: a mid with lo's or hi's key has that end's sign.
        # A key class holds about l/2^53 ints, so skipping the classes of lo and hi saves
        # about log2(lo) - 53 keys for a few class edges, each costing about eight keys:
        # it pays from about lo = 2^96, once hi - lo is a few classes; until then N decides each mid
        while hi - lo > 1 and (lo < 2**96 or hi - lo > lo >> 50):
            mid = (lo + hi) // 2
            if margin(*_margin_key(mid, m)) >= 0:
                lo = mid
            else:
                hi = mid
        if hi - lo > 1:
            # the same path, once [lo, hi] spans only a few key classes: a mid
            # up to the end of lo's class or from the start of hi's has that
            # end's sign, and once the two classes meet every later mid does,
            # so the path ends at the end of lo's class
            lo_edge = _key_class_edge(_margin_key(lo, m), m, True)
            hi_edge = _key_class_edge(_margin_key(hi, m), m, False)
            while lo_edge + 1 < hi_edge:
                mid = (lo + hi) // 2
                if mid <= lo_edge:
                    lo = mid
                elif mid >= hi_edge:
                    hi = mid
                elif margin(*(key := _margin_key(mid, m))) >= 0:
                    lo, lo_edge = mid, _key_class_edge(key, m, True)
                else:
                    hi, hi_edge = mid, _key_class_edge(key, m, False)
            lo = lo_edge
        ell = lo

        loglog_h = math.log(log_h)
        interval_lo = math.log(log_h / loglog_h)
        interval_hi = 17 * m * log_h / loglog_h
        exponent = (m + 1) + 114 * m * m * math.log(loglog_h) / loglog_h
        if not (interval_lo < math.log(ell + 1) and m * (ell + 2) < interval_hi):
            raise BoundChainError("interval containment failed; bound chain inconsistent")
        return BoundReport(
            m, kappa, c1, s, log_h, ell, margin(*_margin_key(ell, m)), margin(*_margin_key(ell + 1, m)),
            interval_lo, interval_hi, exponent,
        )
    except OverflowError:
        raise PrecisionCapError(f"the bound chain at log H = {log_h:g} leaves the double range") from None


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
    if not math.e <= y < math.inf:
        raise ValueError(f"y must be finite and at least e, got {y}")
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
    """(sum_{p<=x} log(p)/(p-1), whether sum_{p<=x} log(p)/p < log(x));
    an x whose floor is over arith.PRIME_SCAN_MAX is refused by the sieve."""
    if not 2 <= x < math.inf:
        raise ValueError(f"x must be finite and at least 2, got {x}")
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
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    phi = euler_phi(n)
    if not 1 <= r <= phi:
        raise ValueError(f"r must be within 1..phi({n}) = {phi}")
    ok = r * (m + 1) > m * phi
    slope = m - r * (m + 1) / phi
    return ok, slope
