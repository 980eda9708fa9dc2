"""Output checks that share no code with the eulerpade evaluator.

Each place is rebuilt from (p, splitting, d).  Elements are reduced by hand:
to a plain int mod p^M at rational and split places (split places send
sqrt(d) to the canonical p-adic root, found here by brute force and Newton
steps), and to an int pair in an integral basis mod p^M at inert and
ramified places.  Series are summed term by term, with a stopping index
taken from Legendre's formula, so a residue computed here is the series
value mod p^N whatever the library's own stopping rule.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL, SPLIT_1, SPLIT_2, INERT, RAMIFIED = "rational", "split_1", "split_2", "inert", "ramified"


def vp(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def splitting_kind(d: int | None, p: int) -> str:
    """rational, split, inert or ramified, from d mod 8 at 2 and Euler's criterion."""
    if d is None:
        return RATIONAL
    if p == 2:
        return {1: "split", 5: INERT}.get(d % 8, RAMIFIED)
    if d % p == 0:
        return RAMIFIED
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else INERT


def canonical_root(d: int, p: int, n: int) -> int:
    """The root of d mod p^n that the library's split_1 embedding uses:
    min(r0, p - r0) lifted for odd p, the root = 1 mod 4 for p = 2."""
    if p == 2:
        r = 1
        for k in range(3, n + 2):  # r^2 = d mod 2^k  ->  mod 2^(k+1)
            if (r * r - d) % (1 << (k + 1)):
                r += 1 << (k - 1)
        return r % (1 << n)
    r = min(x for x in range(1, p) if (x * x - d) % p == 0)
    mod = p
    while mod < p**n:
        mod = min(mod * mod, p**n)
        r = (r - (r * r - d) * pow(2 * r, -1, mod)) % mod
    return r


class Local:
    """Residues mod p^M at one place, as pairs (a, b) of ints.

    The basis is (1, omega) with omega = (1 + sqrt d)/2 when d = 1 mod 4 and
    (1, sqrt d) otherwise.  At rational and split places b is always 0.
    """

    def __init__(self, p: int, splitting: str, d: int | None, M: int):
        self.p, self.d, self.M, self.mod = p, d, M, p**M
        self.pair = splitting in (INERT, RAMIFIED)
        self.omega = d is not None and d % 4 == 1
        self.k = (d - 1) // 4 if self.omega else d
        self.image = 0
        if splitting in (SPLIT_1, SPLIT_2):
            r = canonical_root(d, p, M + 1)
            if splitting == SPLIT_2:
                r = -r
            if not self.omega:
                self.image = r % self.mod
            elif p == 2:
                self.image = ((1 + r) % (1 << (M + 1))) // 2 % self.mod
            else:
                self.image = (1 + r) * pow(2, -1, self.mod) % self.mod

    def coords(self, x: Fraction, y: Fraction) -> tuple[int, int]:
        """Integral-basis coordinates of x + y sqrt(d); raises if not integral."""
        a, b = (x - y, 2 * y) if self.omega else (x, y)
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"{x} + {y} sqrt({self.d}) is not integral")
        return int(a), int(b)

    def elem(self, value) -> tuple[int, int]:
        """Residue of an int, a Fraction or a field element (fields x, y)."""
        x, y = (value.x, value.y) if hasattr(value, "x") else (Fraction(value), Fraction(0))
        a, b = self.coords(x, y)
        if self.pair:
            return a % self.mod, b % self.mod
        return (a + b * self.image) % self.mod, 0

    def mul(self, u, v) -> tuple[int, int]:
        mod = self.mod
        if not self.pair:
            return u[0] * v[0] % mod, 0
        if self.omega:
            return (
                (u[0] * v[0] + self.k * u[1] * v[1]) % mod,
                (u[0] * v[1] + u[1] * v[0] + u[1] * v[1]) % mod,
            )
        return (u[0] * v[0] + self.k * u[1] * v[1]) % mod, (u[0] * v[1] + u[1] * v[0]) % mod

    def add(self, u, v) -> tuple[int, int]:
        return (u[0] + v[0]) % self.mod, (u[1] + v[1]) % self.mod

    def val(self, u) -> Fraction | None:
        """w_v (w_v(p) = 1) of anything with residue u, or None when u does
        not pin it down.  Inert and ramified places read it off the norm."""
        if not self.pair:
            return None if u[0] == 0 else Fraction(vp(u[0], self.p))
        a, b = u
        if self.omega:
            norm = (a * a + a * b - self.k * b * b) % self.mod
        else:
            norm = (a * a - self.k * b * b) % self.mod
        return None if norm == 0 else Fraction(vp(norm, self.p), 2)

    def series(self, p0: int, p1: int, t, N: int) -> tuple[int, int]:
        """sum_n prod_{k<n} (p0 + p1 k) t^n mod p^M, for integers p0, p1 > 0
        and an integral t, summed up to the first n whose term provably has
        w_v >= N.  The coefficient product is an integer, so its w_v is its
        v_p; Euler's series is p0 = p1 = 1.
        """
        t_res = self.elem(t)
        w_t = self.val(t_res)
        if w_t is None:
            raise ValueError(f"w_v({t}) is not pinned down mod p^{self.M}")
        p, mod, k = self.p, self.mod, self.k
        ta, tb = t_res
        acc_a, acc_b, a, b = 1, 0, 1, 0
        w2 = int(2 * w_t)  # valuations live in (1/2)Z: compare them doubled
        bound2 = 0
        n = 0
        while True:
            n += 1
            c = p0 + p1 * (n - 1)
            if c % p == 0:
                bound2 += 2 * vp(c, p)
            if bound2 + n * w2 >= 2 * N:
                return acc_a % mod, acc_b % mod
            if not self.pair:
                a = a * ta * c % mod
            elif self.omega:
                a, b = (a * ta + k * b * tb) * c % mod, (a * tb + b * ta + b * tb) * c % mod
            else:
                a, b = (a * ta + k * b * tb) * c % mod, (a * tb + b * ta) * c % mod
            acc_a += a
            acc_b += b


def truncated_form_valuation(place, lambdas, alphas, precision: int) -> Fraction | None:
    """w_v of lambda_0 + sum_j lambda_j F(alpha_j), each series cut where its
    terms provably reach w_v >= precision, or None if not pinned down.

    Residues are kept to 2*precision + 2 digits, so every valuation below
    the precision is read exactly, through the norm included.
    """
    loc = Local(place.p, place.splitting, place.d, 2 * precision + 2)
    acc = loc.elem(lambdas[0])
    for lam, alpha in zip(lambdas[1:], alphas):
        if lam:
            acc = loc.add(acc, loc.mul(loc.elem(lam), loc.series(1, 1, alpha, precision)))
    return loc.val(acc)


def residue_coords(loc: Local, residue_json) -> tuple[int, int]:
    """A library residue, as the CLI prints it, in this module's basis."""
    if isinstance(residue_json, int):
        return residue_json % loc.mod, 0
    a, b = loc.coords(Fraction(residue_json[0]), Fraction(residue_json[1]))
    return a % loc.mod, b % loc.mod
