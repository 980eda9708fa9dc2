"""Integer and rational helpers shared across the package.

Everything here is exact: primality, sieves, p-adic orders of integers
and fractions, and square roots modulo prime powers (the base step for
embedding quadratic irrationals into Z_p).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import InvalidPrimeError, NotSplitError, PrecisionCapError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # 41 lifts the first miss from 3.2e23
_MR_EXACT_BELOW = 3317044064679887385961981  # 1287836182261 * 2575672364521, the least liar to all

#: the largest integer a sieve or a trial divisor reaches (about 0.5 s and 0.9 s of work)
PRIME_SCAN_MAX = 10**7


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_EXACT_BELOW (about 3.3e24);
    an n past it that every base passes is refused with InvalidPrimeError."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise InvalidPrimeError(f"the primality of {n} is not settled: it passes every "
                                f"Miller-Rabin base, shown exact only below {_MR_EXACT_BELOW}")
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n (none below 2) by a byte sieve; an n over PRIME_SCAN_MAX
    is refused at once."""
    if n > PRIME_SCAN_MAX:
        raise PrecisionCapError(f"n = {n} is over the sieve budget of {PRIME_SCAN_MAX}")
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    p = 2
    while p * p <= n:
        if sieve[p]:
            start = p * p
            sieve[start ::p] = b"\x00" * ((n - start) // p + 1)
        p += 1
    return [i for i, flag in enumerate(sieve) if flag]


_sieve = (1, [])  # (bound, primes_upto(bound)) for the largest bound asked for


def prime_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, a fresh list sliced from one sieve that
    is regrown only when hi passes its bound."""
    global _sieve
    bound, primes = _sieve
    if hi > bound:
        primes = primes_upto(hi)
        _sieve = hi, primes
    return primes[bisect_left(primes, lo) : bisect_right(primes, hi)]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, stopped at a cofactor that
    is a prime or a prime's power and refused at one not shown to be either
    once the divisor passes PRIME_SCAN_MAX."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, tested, next_power_check, k = 5, 0, 1001, 1
    while f * f <= n:
        # past 1000, ask is_prime once about each cofactor below 3.3e24, where it is exact
        if f > 1000 and n != tested and n < _MR_EXACT_BELOW and is_prime(tested := n):
            break
        # and, each time f doubles, whether it is a prime's power: a cofactor
        # that loses many factors past 1000 does not pay for each
        if f >= next_power_check:
            next_power_check = 2 * f
            if root := _prime_power(n, f):
                n, k = root
                break
        if f > PRIME_SCAN_MAX:
            raise PrecisionCapError(
                f"the cofactor {n} is not shown prime and has no factor up to "
                f"the trial-division budget of {PRIME_SCAN_MAX}"
            )
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + k
    return out


def _prime_power(n: int, f: int) -> tuple[int, int] | None:
    """(r, k) with n = r^k, k >= 2 and r prime, for an n with no prime factor
    below f; None if n is no such power or r is not shown prime.

    Only the largest k with an integer root can have a prime root, since
    r = s^j would make n an s^(jk).  r's prime factors are n's, so r < f^2
    is prime; a larger r is shown prime by is_prime, below 3.3e24 only.
    """
    log2_n = math.log2(n)
    # r < 3.3e24 < 2^82 needs n < 2^(82k), and r >= f > 2^9 needs n > 2^(9k)
    for k in range(n.bit_length() // 9, max(1, -(-n.bit_length() // 82) - 1), -1):
        # n^(1/k) to a relative 2^-44, as log2(n)/k < 82: a root below 2^40 is
        # within 1/16 of it, so an estimate 1/4 from every integer rules k out
        estimate = 2.0 ** (log2_n / k)
        if estimate < 2**40 and abs(estimate - round(estimate)) > 0.25:
            continue
        r = _integer_root(n, k)
        if r**k == n:
            return (r, k) if r < f * f or r < _MR_EXACT_BELOW and is_prime(r) else None
    return None


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, k >= 2 and a root below 2^1000: Newton's
    method from above, started just above the root's double."""
    r = int(2.0 ** (math.log2(n) / k) * (1 + 2**-30)) + 2
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * f^2 (sign carried by s)."""
    if n == 0:
        return 0
    s = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            s *= p
    return s


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorize(n).values())


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def padic_ord_int(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer: one division a factor for the first few,
    which is all most calls need, then the powers p^(2^i) by repeated squaring,
    so a valuation v costs O(log v) big divisions, not v."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 8:
            break
    else:
        return v
    powers = [p]  # p^(2^i) for each i whose power divided n, and the next
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    # what is left of v is below 2^(len(powers) - 1): its binary digits, from the top
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def padic_ord(q: Fraction | int, p: int) -> int:
    """v_p of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("v_p(0) is undefined")
    return padic_ord_int(q.numerator, p) - padic_ord_int(q.denominator, p)


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of a mod an odd prime p; requires (a|p) = 1."""
    a %= p
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def canonical_sqrt_mod(d: int, p: int, n: int) -> int:
    """The canonical square root r of d mod p^n.

    For odd p the canonical root is the Hensel lift of min(r0, p - r0)
    where r0 is a root mod p; for p = 2 (requires d = 1 mod 8, n arbitrary)
    it is the root congruent to 1 mod 4.  The choice is compatible under
    reduction, so raising n refines the same p-adic root.  A d with no root
    in Z_p^* raises NotSplitError.
    """
    if n < 1:
        raise ValueError("precision must be >= 1")
    if p == 2:
        if d % 8 != 1:
            raise NotSplitError(f"{d} must be 1 mod 8 for a 2-adic square root")
        # lift one level past n and reduce: of the four roots mod 2^(n+1),
        # the two congruent to 1 mod 4 agree mod 2^n, so the reduction is
        # the unique 2-adic root r = 1 mod 4, consistent across precisions
        r, k = 1, 3
        while k <= n:
            if (r * r - d) % (1 << (k + 1)) != 0:
                r += 1 << (k - 1)
            k += 1
        return r % (1 << n)
    if d % p == 0 or legendre_symbol(d, p) != 1:
        raise NotSplitError(f"{d} is not an invertible square mod {p}")
    r0 = _tonelli_shanks(d, p)
    r = min(r0, p - r0)
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = p**k
        # Newton step: r <- r - (r^2 - d) / (2r)
        r = (r - (r * r - d) * pow(2 * r, -1, mod)) % mod
    return r
