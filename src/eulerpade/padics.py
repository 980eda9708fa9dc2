"""Finite-precision arithmetic in completions and certified series evaluation.

A completion element is a residue modulo p^N of an element of the valuation
ring at a place v, and the place alone fixes its basis.  Rational and split
places use plain integer residues (the integer image of `places`); inert
and ramified places use coordinate pairs in the quotient of the local ring
of integers.  At the places where the local ring is Z_p[sqrt(d)] the pair
(u, w) means u + w*sqrt(d); the one exception is p = 2 with d = 5 mod 8,
where sqrt(d)-coordinates of integral elements can carry denominator 2, so
the pair is kept in the basis (1, (1+sqrt(d))/2) internally and converted
back to sqrt(d)-coordinates (then possibly half-integral) for output.  Every
residue is read off the element's integral form (A + B*sqrt(d))/c.
_pair_mul, under x^2 = c + s*x with (c, s) from _law(place), is the one
residue law in every basis; int residues are pairs (a, 0).  A
CompletionElement is a value record that does no arithmetic.  Linear forms
in series values are summed here too, so no other module combines residues.

Series are summed with exact tail control: a term is dropped only once its
valuation, and by monotonicity every later term's, provably reaches the
target precision.  The resulting CertifiedValue pins the series sum mod p^N.
One routine sums every factorial series sum_n [P]_n t^n with deg P = 1;
Euler's series is P(x) = 1 + x.  It works in two phases, with valuations
counted in half-units.  Phase 1 finds the stopping index from valuations
alone.  P(k + p) - P(k) = p*p1, so whether w_v(P(k)) > 0 depends on k mod p
only: for P over Z the class is solved for, otherwise it is read off
residues mod p.  Only the factors in those classes are valued; w_v(t) and
an algebraic w_v(P(k)) are read off their residues, and computed exactly
from the field element only when a residue leaves them open (a zero
residue, or a norm that vanishes mod 2^N at a 2-adic ramified place), so
every reported tail bound is exact.  Between two such factors the bound
grows by w_v(t) a term, so the cut there is one division.  When w_v(t) = 0
and P(0), ..., P(p-1) are all units no term can ever clear the target, and
the sum refuses at once; every sum, whoever asks for it, refuses before the
first term a stop whose cost in word products is over TERM_BUDGET.
Phase 2 sums the terms before the stop with no valuation work.  With P
over Z one kernel sums chunks of 32 terms on exact factor products and
powers of t (reduced mod p^N once they outgrow its words), combined by
Horner's rule at one product mod p^N a chunk: on t's exact pair in Z[x],
x = sqrt(d) or omega = (1 + sqrt(d))/2 when d = 1 mod 4, at inert and
ramified places, and on t's signed residue at rational and split places
when that residue is wider than 128 bits, as it is at split places with a
wider p^N and for huge points; with a narrower residue the sum runs on a
plain int loop.  An algebraic P goes one term, and one pair product mod
p^N, at a time, at every place.  Only the result becomes a CompletionElement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from operator import mul

from .arith import canonical_sqrt_mod, is_prime, padic_ord_int
from .errors import (
    DegeneratePolynomialError,
    NoConvergenceError,
    NotSplitError,
    PrecisionCapError,
)
from .numfield import FieldElement, _algebraic_integer, _as_elem, _make
from .places import RAMIFIED, RATIONAL, SPLIT_1, SPLIT_2, Place, _integer_image, valuation

#: hard ceiling on the requested residue precision N
PRECISION_CAP = 4096

#: the most work any factorial series sum may do, with a term limit or without,
#: in word products: a term multiplies a residue mod p^N by t's multiplier,
#: so it costs (64-bit words of p^N) * (words of t) + _TERM_OVERHEAD, where
#: t's words are those of its signed residue at rational and split places
#: (as long as p^N at split ones) and of its exact coordinates at inert and
#: ramified ones.  The stop is known before the first term, so a larger sum
#: is refused at once.  The chunk kernel makes split places and huge points
#: cheaper than that; the pricing is kept on purpose, so the budget admits
#: the same sums.  The slowest admitted, with t = 1 or 2 + sqrt 5 at p = 1009
#: and p = 100003 to 300007, took 0.2 s (split@1009) to 2.0 s (inert@300007;
#: Python 3.11, x86-64).  Euler's series costs 1.2 million at p = 101, N = 256,
#: 15 million at p = 1009, N = 256 and 2.7 billion at p = 1009, N = 4096
TERM_BUDGET = 64 * 10**6

#: a term's cost beyond its word product, in word products: at p^N of 1 to
#: 3 words a term took about 0.2 us at rational places and 0.7 us at inert
#: ones, where a word product costs about 0.022 and 0.03 us
_TERM_OVERHEAD = 20

#: terms per chunk of the exact pair kernel
_CHUNK = 32

_INT = "int"
_SQRT = "sqrt"
_OMEGA = "omega"


def hensel_sqrt(d: int, p: int, n: int) -> int:
    """The canonical square root of d mod p^n for an odd prime p.

    Requires d to be an invertible quadratic residue mod p.  The canonical
    choice is the Hensel lift of min(r0, p - r0), so the value is stable
    across precisions; the other root is p^n - r.
    """
    if p == 2 or not is_prime(p):
        raise NotSplitError(f"p = {p} is not an admissible odd prime")
    return canonical_sqrt_mod(d, p, n)


def _basis_for(place: Place) -> str:
    if place.splitting in (RATIONAL, SPLIT_1, SPLIT_2):
        return _INT
    if place.p == 2 and place.d is not None and place.d % 4 == 1:
        return _OMEGA
    return _SQRT


def _law(place: Place) -> tuple[int, int]:
    """(c, s) with x^2 = c + s*x in the place's basis: x = sqrt(d) has (d, 0),
    omega = (1 + sqrt(d))/2 has ((d - 1)/4, 1); int residues keep b = 0, so
    their law never acts."""
    d = place.d
    return ((d - 1) // 4, 1) if _basis_for(place) == _OMEGA else (d or 0, 0)


def _pair_mul(a1: int, b1: int, a2: int, b2: int, c: int, s: int, mod: int) -> tuple[int, int]:
    """(a1 + b1*x)(a2 + b2*x) mod `mod`, where x^2 = c + s*x."""
    bb = b1 * b2
    return (a1 * a2 + c * bb) % mod, (a1 * b2 + b1 * a2 + s * bb) % mod


def _residue(place: Place, n: int, value) -> tuple[int, int]:
    """The pair (a, b) in the place's basis of the residue mod p^n of an
    exact element with w_v >= 0."""
    value = _as_elem(value, place.d)
    p = place.p
    mod = p**n
    basis = _basis_for(place)
    if basis == _INT:
        image, k, c = _integer_image(place, value, n)
        q = p**k
        if image % q:
            raise ValueError(f"{value} has negative valuation at {place}")
        return image // q * pow(c // q, -1, mod) % mod, 0
    A, B, c = value.integral_form()
    if basis == _OMEGA:
        # (A + B*sqrt(d))/c = ((A - B) + 2B * omega)/c
        A, B = A - B, 2 * B
        g = math.gcd(A, B, c)
        A, B, c = A // g, B // g, c // g
    if c % p == 0:
        raise ValueError(f"{value} is not integral at {place}")
    inv = pow(c, -1, mod)
    return A * inv % mod, B * inv % mod


def _residue_w2(place: Place, a: int, b: int, mod: int) -> int | None:
    """2*w_v of any element whose residue mod `mod` is the pair (a, b) in
    the place's basis, when the residue pins it down; None when it does not.

    A zero residue is always undetermined (the element may sit anywhere at
    or above w = N).  At a 2-adic ramified place with d = 3 mod 4 the
    coordinates do not separate the uniformizer, so the valuation is read
    off the norm instead, at one fewer digit of certainty.
    """
    p = place.p
    if place.splitting in (RATIONAL, SPLIT_1, SPLIT_2):
        return None if a == 0 else 2 * padic_ord_int(a, p)
    if not (a or b):
        return None
    if p == 2 and place.d % 4 == 3:
        nrm = (a * a - place.d * b * b) % mod
        return None if nrm == 0 else padic_ord_int(nrm, 2)
    if not b:
        return 2 * padic_ord_int(a, p)
    # the second basis vector is a unit at inert places, a uniformizer at
    # ramified ones
    w2_b = 2 * padic_ord_int(b, p) + (1 if place.splitting == RAMIFIED else 0)
    return min(2 * padic_ord_int(a, p), w2_b) if a else w2_b


@dataclass(frozen=True)
class CompletionElement:
    """A residue mod p^N in the valuation ring at a place, as a value
    record; the place fixes the basis of the pair (a, b).  It defines no
    arithmetic: residues are combined as int pairs with _pair_mul."""

    place: Place
    n: int
    a: int
    b: int = 0

    @property
    def basis(self) -> str:
        return _basis_for(self.place)

    @property
    def modulus(self) -> int:
        return self.place.p**self.n

    @classmethod
    def one(cls, place: Place, n: int) -> CompletionElement:
        return cls(place, n, 1 % place.p**n)

    @classmethod
    def from_field_element(cls, place: Place, n: int, value) -> CompletionElement:
        """Reduce an exact element with w_v >= 0 to its residue mod p^N."""
        return cls(place, n, *_residue(place, n, value))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def reduce_to(self, m: int) -> CompletionElement:
        """The same residue at a lower precision m <= N."""
        if m > self.n:
            raise ValueError("cannot raise precision of a residue")
        mod = self.place.p**m
        return CompletionElement(self.place, m, self.a % mod, self.b % mod)

    def half_valuation(self) -> int | None:
        """2 * valuation_lower(), an int: w_v in half-units."""
        return _residue_w2(self.place, self.a, self.b, self.modulus)

    def valuation_lower(self) -> Fraction | None:
        """The exact w_v of any element with this residue, when the residue
        pins it down; None when it leaves it undetermined (see _residue_w2)."""
        w2 = self.half_valuation()
        return None if w2 is None else Fraction(w2, 2)

    def sqrt_coordinates(self) -> tuple[Fraction, Fraction]:
        """Residue coordinates with respect to (1, sqrt(d)); an int residue gives (a, 0)."""
        if self.basis != _OMEGA:
            return Fraction(self.a), Fraction(self.b)
        return Fraction(self.a) + Fraction(self.b, 2), Fraction(self.b, 2)

    def residue_json(self):
        if self.basis == _INT:
            return self.a
        u, w = self.sqrt_coordinates()
        return [str(u), str(w)]


@dataclass(frozen=True)
class CertifiedValue:
    """A series value mod p^N together with a proven tail valuation bound."""

    value: CompletionElement
    tail_valuation_bound: Fraction
    terms_used: int

    def to_json(self) -> dict:
        v = self.value
        return {
            "p": v.place.p,
            "place": v.place.splitting,
            "N": v.n,
            "residue": v.residue_json(),
            "tail_valuation_bound": str(self.tail_valuation_bound),
            "terms_used": self.terms_used,
        }


def _check_precision(n: int) -> None:
    if n < 1:
        raise ValueError("precision must be >= 1")
    if n > PRECISION_CAP:
        raise PrecisionCapError(f"requested precision {n} exceeds cap {PRECISION_CAP}")


def euler_eval_certified(v: Place, alpha, n_target: int) -> CertifiedValue:
    """Sum n! * alpha^n in the completion at v until the tail provably
    lies above w_v = n_target.

    This is the factorial series at P(x) = 1 + x.  alpha must be an
    algebraic integer, so v_p(n!) + n*w_v(alpha) is a nondecreasing exact
    lower bound for the term at index n; the first index whose bound
    reaches the target closes the sum, and the bound achieved there is
    reported.  That index is found before the first term, and a sum whose
    cost is over TERM_BUDGET word products raises PrecisionCapError.
    """
    _check_precision(n_target)
    return _sum_factorial_series(v, 1, 1, _algebraic_integer(alpha, v.d), n_target, math.inf)


def genfact_eval(v: Place, p0, p1, t, n_target: int, n_max: int) -> CertifiedValue:
    """Sum prod_{k<n} (p0 + p1*k) * t^n in the completion at v.

    The factor products have nondecreasing valuation because every factor
    is an algebraic integer, so the term bound w([prod]_n) + n*w(t) is
    tracked exactly and the cut is sound as soon as one term clears the
    target.  If no term does so by n_max the evaluation refuses to answer;
    it refuses after p terms when w_v(t) = 0 and P(0), ..., P(p-1) are all
    units, since then every P(k) is a unit and no term ever can.  As in
    euler_eval_certified, a stop over TERM_BUDGET raises PrecisionCapError.
    """
    _check_precision(n_target)
    if not _as_elem(p1, v.d):
        raise DegeneratePolynomialError("the coefficient polynomial must have degree one")
    p0, p1, t = (_algebraic_integer(x, v.d) for x in (p0, p1, t))
    if not (p0.y or p1.y):
        # integral rational coefficients: every factor P(k) is a plain int
        p0, p1 = int(p0.x), int(p1.x)
    return _sum_factorial_series(v, p0, p1, t, n_target, n_max)


def _sum_factorial_series(
    v: Place, p0, p1, t: FieldElement, n_target: int, n_max: float
) -> CertifiedValue:
    """The certified sum of [P]_n t^n, P(x) = p0 + p1*x, for validated inputs.

    t is an algebraic integer, so w_v(t) >= 0; p0 and p1 are either both
    ints or both algebraic-integer field elements.  n_max limits the terms
    (math.inf: no limit); every sum is priced against TERM_BUDGET first.
    Valuations are counted in half-units (w2 is 2*w_v), which keeps them
    ints at ramified places too.  The stopping index comes first, from
    valuations alone, and then the terms before it are summed with no
    valuation work.
    """
    if not t:
        return CertifiedValue(CompletionElement.one(v, n_target), Fraction(n_target), 1)
    mod = v.p**n_target
    t_c = CompletionElement.from_field_element(v, n_target, t)
    w2_t = _residue_w2(v, t_c.a, t_c.b, mod)
    if w2_t is None:
        w2_t = int(2 * valuation(v, t))
    if isinstance(p0, int):
        f = step = None
    else:
        # the residues of P(0) and of p1, stepping the residue of P(k)
        f = CompletionElement.from_field_element(v, n_target, p0)
        step = CompletionElement.from_field_element(v, n_target, p1)
    stop, bound2 = _stopping_index(v, p0, p1, f, step, w2_t, n_target, n_max)
    if v.splitting in (RATIONAL, SPLIT_1, SPLIT_2):
        size = min(t_c.a, mod - t_c.a)
    else:
        A, B, _ = t.integral_form()
        size = max(A, -A, B, -B)
    cost = stop * (_words(mod) * _words(size) + _TERM_OVERHEAD)
    if cost > TERM_BUDGET:
        raise PrecisionCapError(
            f"the sum at {v} to precision {n_target} needs {stop} terms, "
            f"{cost} word products, over the budget of {TERM_BUDGET}"
        )
    a, b = _partial_sum(v, p0, p1, f, step, t, t_c, stop, mod)
    return CertifiedValue(CompletionElement(v, n_target, a, b), Fraction(bound2, 2), stop)


def _words(x: int) -> int:
    return -(-x.bit_length() // 64)


def _stopping_index(v: Place, p0, p1, f, step, w2_t: int, n_target: int, n_max: float) -> tuple[int, int]:
    """(stop, 2 * tail bound): the least n whose term bound w2([P]_n) + n*w2_t
    reaches 2*n_target, or one past the first vanishing factor, whose tail
    is exactly 0 (bound 2*n_target).

    Only the factors with w_v(P(k)) > 0 are valued; between two of them the
    bound grows by w2_t a term, so the cut there is one division.  Refuses
    with NoConvergenceError when the stop lies beyond n_max, or when every
    P(k) is a unit and w_v(t) = 0.
    """
    p, target = v.p, 2 * n_target
    mod = p**n_target
    w2_prod, n = 0, 1  # w2([P]_n) and the least n not yet ruled out
    for k in _positive_factors(v, p0, p1, f, step, w2_t, target, n_max):
        if k >= n:
            # the term bound at n..k is w2_prod + n*w2_t
            if w2_prod + n * w2_t >= target:
                break
            if w2_t:
                cut = -((w2_prod - target) // w2_t)
                if cut <= k:
                    n = cut
                    break
        if k >= n_max:
            n = k + 1  # the stop lies past k, so past n_max
            break
        if f is None:
            factor = p0 + p1 * k
            w2 = 2 * padic_ord_int(factor, p) if factor else None
        else:
            # w_v(P(k)) off its residue; P(k) itself is built only when the
            # residue leaves w_v open, so the bound stays exact
            w2 = _residue_w2(v, (f.a + k * step.a) % mod, (f.b + k * step.b) % mod, mod)
            if w2 is None:
                factor = p0 + p1 * k
                w2 = int(2 * valuation(v, factor)) if factor else None
        if w2 is None:
            # the factor product vanishes from here on: the tail is exactly 0
            return k + 1, target
        w2_prod += w2
        n = k + 1
    else:
        if w2_prod + n * w2_t < target:
            if w2_t:
                n = -((w2_prod - target) // w2_t)
            elif not w2_prod and n_max >= p:
                # w_v(P(k + p) - P(k)) = w_v(p*p1) >= 1, so P(k) is a unit
                # for every k: the term bound stays 0 for ever
                raise NoConvergenceError(
                    f"P(k) is a unit at {v} for k < {p}, hence for every k, and "
                    f"w_v(t) = 0: no term can reach valuation {n_target}"
                )
            else:
                n = math.inf  # the bound stops growing short of the target, below n_max
    if n > n_max:
        raise NoConvergenceError(
            f"no term reached valuation {n_target} within {n_max} terms at {v}"
        )
    return n, w2_prod + n * w2_t


def _positive_factors(v: Place, p0, p1, f, step, w2_t: int, target: int, n_max: float):
    """The k with w_v(P(k)) > 0, in increasing order.

    P(k + p) - P(k) = p*p1, so whether w_v(P(k)) > 0 depends on k mod p
    alone.  For int P the classes are solved for; otherwise they are read
    off residues mod p, over k < p and only as far as a stop can lie: below
    n_max, and below 2*N / w2_t, where n*w2_t alone reaches the target.
    """
    p = v.p
    if f is None:
        if p1 % p:
            yield from count(-p0 * pow(p1, -1, p) % p, p)
        elif p0 % p == 0:
            yield from count()
        return
    limit = min(p, n_max, -(-target // w2_t) if w2_t else p)
    fa, fb, sa, sb = f.a % p, f.b % p, step.a % p, step.b % p
    classes = []
    for k in range(limit):
        if _residue_w2(v, (fa + k * sa) % p, (fb + k * sb) % p, p) != 0:
            classes.append(k)
            yield k
    if classes and limit == p:
        for base in count(p, p):
            for k in classes:
                yield base + k


def _partial_sum(v: Place, p0, p1, f, step, t: FieldElement, t_c, stop: int, mod: int):
    """The pair of sum_{n < stop} [P]_n t^n mod `mod` in the place's basis: P
    over Z on the int loop or a chunk kernel, an algebraic P on the pair loop at every place."""
    if f is None and t_c.basis == _INT:
        # t's residue is taken signed, so a small t keeps it short
        ta = t_c.a - mod if 2 * t_c.a > mod else t_c.a
        # chunks pay once t is over two words (split places at a wider p^N,
        # huge points); a narrower t is as fast or faster one term at a time
        if ta.bit_length() > 128:
            return _chunked_pair_sum(p0, p1, ta, 0, 0, 0, stop, mod)
        # the multiplier t*P(n-1) that takes term n-1 to term n, stepped by t*p1
        m, dm = ta * p0, ta * p1
        a = sa = 1
        for _ in range(stop - 1):
            a = a * m % mod
            sa += a
            m += dm
        return sa % mod, 0
    if f is None:
        d = v.d
        A, B, c = t.integral_form()
        if d % 4 != 1:
            return _chunked_pair_sum(p0, p1, A, B, d, 0, stop, mod)
        # in Z[omega], omega = (1 + sqrt(d))/2, a half-integral t has small
        # coordinates too
        a, b = _chunked_pair_sum(p0, p1, (A - B) // c, 2 * B // c, (d - 1) // 4, 1, stop, mod)
        if t_c.basis == _OMEGA:
            return a, b
        half = (mod + 1) // 2  # a + b*omega in sqrt(d)-coordinates, p odd
        return (a + b * half) % mod, b * half % mod
    c, s = _law(v)
    ta, tb = (x - mod if 2 * x > mod else x for x in (t_c.a, t_c.b))
    fa, fb = f.a, f.b
    a, b, sa, sb = 1, 0, 1, 0
    for _ in range(stop - 1):
        ma, mb = _pair_mul(ta, tb, fa, fb, c, s, mod)
        fa, fb = (fa + step.a) % mod, (fb + step.b) % mod
        a, b = _pair_mul(a, b, ma, mb, c, s, mod)
        sa += a
        sb += b
    return sa % mod, sb % mod


def _chunked_pair_sum(p0: int, p1: int, u: int, w: int, c: int, s: int, stop: int, mod: int):
    """sum_{n < stop} [P]_n t^n mod `mod` for P(x) = p0 + p1*x over Z and
    t = u + w*x in Z[x], x^2 = c + s*x; an int t has w = 0.

    A chunk of _CHUNK terms opening at n0 sums to [P]_n0 t^n0 D(n0), D(n0) a
    dot product of exact factor products with powers of t, exact while they
    fit in the words of `mod` (judged once) and reduced otherwise.  Horner's
    rule from the last chunk, acc = D(n0) + ([P] over the chunk) t^size acc,
    costs one product mod `mod` a chunk.
    """
    size = min(stop, _CHUNK)
    reduce = size * max(u, -u, w, -w).bit_length() > 64 * _words(mod)
    pa, pb = [1], [0]  # t^0 .. t^size; t^size, which steps a chunk, only if there are two
    la, lb = 1, 0
    cw, sw = c * w, u + s * w  # t*(a + b*x) = (u*a + c*w*b) + (w*a + (u + s*w)*b)*x
    for _ in range(min(stop - 1, _CHUNK)):
        la, lb = u * la + cw * lb, w * la + sw * lb
        if reduce:
            la, lb = la % mod, lb % mod
        pa.append(la)
        pb.append(lb)
    sa = sb = 0
    for n0 in reversed(range(0, stop, size)):
        last = min(size, stop - n0) - 1
        f0 = p0 + p1 * n0
        # q[i] = P(n0) ... P(n0 + i - 1), the factors of term n0 + i past term n0
        q = list(accumulate(range(f0, f0 + p1 * last, p1), mul, initial=1))
        if n0 + size < stop:
            whole = q[-1] * (f0 + p1 * last)
            sa, sb = _pair_mul(whole * la, whole * lb, sa, sb, c, s, mod)
        sa += sum(map(mul, q, pa))
        if w:
            sb += sum(map(mul, q, pb))
    return sa % mod, sb % mod


#: the number of series values linear_form_value keeps, least recently used
#: dropped first: forms over the same points share their values, and forms
#: on small points of Q come back to them after a few hundred others
EVAL_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=EVAL_MEMO_SIZE)
def _series_value(v: Place, A: int, B: int, c: int, precision: int) -> tuple[int, int, int]:
    """(a, b, 2 * tail bound) of F_v(alpha) mod p^precision, alpha = (A + B*sqrt(d))/c."""
    cv = euler_eval_certified(v, _make(A, B, c, v.d), precision)
    return cv.value.a, cv.value.b, int(2 * cv.tail_valuation_bound)


def linear_form_value(
    lambdas, alphas, v: Place, precision: int
) -> tuple[CompletionElement, Fraction]:
    """Residue mod p^precision of lambda_0 + sum_j lambda_j F_v(alpha_j),
    together with an exact lower bound on the valuation of what was cut.

    Each F_v(alpha_j) is looked up in a bounded memo of series values, and
    the form is summed on int pairs, with valuations in half-units.
    w_v(lambda_j) is read off lambda_j's residue, and computed exactly only
    when the residue leaves it open.
    """
    _check_precision(precision)
    mod = v.p**precision
    c, s = _law(v)
    acc_a, acc_b = _residue(v, precision, lambdas[0])
    tail2 = None
    for lam, al in zip(lambdas[1:], alphas):
        if not lam:
            continue
        a, b, bound2 = _series_value(v, *_as_elem(al, v.d).integral_form(), precision)
        la, lb = _residue(v, precision, lam)
        ta, tb = _pair_mul(la, lb, a, b, c, s, mod)
        acc_a, acc_b = acc_a + ta, acc_b + tb
        w2 = _residue_w2(v, la, lb, mod)
        bound2 += int(2 * valuation(v, lam)) if w2 is None else w2
        tail2 = bound2 if tail2 is None else min(tail2, bound2)
    value = CompletionElement(v, precision, acc_a % mod, acc_b % mod)
    return value, Fraction(precision) if tail2 is None else Fraction(tail2, 2)
