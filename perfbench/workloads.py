"""The benchmark's four workloads: seeded inputs, the timed call, the check.

Each pass draws its inputs from (workload, seed, pass index) alone, and
fixes everything that sets the cost of an input (the Fibonacci box, the
Pade grid, the work level of each evaluation, the share of each CLI
subcommand) so that seeds change the numbers but not the amount of work.
The library is called through its public names, looked up on every call so
that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import eulerpade as ep

import checks

HERE = Path(__file__).resolve().parent
PRIMES = [p for p in range(2, 102) if all(p % q for q in range(2, p))]
#: quadratic fields of the evaluation workloads, chosen so that places of
#: every kind, ramified ones included, occur over primes up to 101
EVAL_FIELDS = (5, -1, 2, -3, 3, -2, 7, -7, 13, -11, 17, 6, -5, 10, -23, 29, 53, -67, 97)
CERT_FIELDS = (None, 5, -1, 2, -3)


def integral(rng: random.Random, K, bound: int):
    """A random nonzero algebraic integer of K with coordinates within bound;
    for d = 1 mod 4 half of the draws have half-integer coordinates."""
    while True:
        if K.d is None:
            elem = K(rng.randint(-bound, bound))
        elif K.d % 4 == 1 and rng.random() < 0.5:
            x = rng.randint(-bound, bound - 1)
            y = rng.randint(-bound, bound - 1)
            elem = K(Fraction(2 * x + 1, 2), Fraction(2 * y + 1, 2))
        else:
            elem = K(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if elem:
            return elem


def places_of_kind(d, kind: str, primes) -> list:
    """Places of Q(sqrt d) of one kind ("split" covers both split places)."""
    K = ep.QuadraticField(d)
    return [v for p in primes for v in ep.places_above(K, p)
            if v.splitting.startswith(kind)]


class Workload:
    name = ""
    tail_pct = 99
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def make_pass(self, k: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None when the result is right, else what is wrong with it."""
        raise NotImplementedError


class CertBox(Workload):
    """Certificate searches: ROADMAP's Fibonacci box |a|, b <= 25 scanned from
    p = 2, plus seeded even-factorial and random forms, each starting its
    scan at a prime <= 47 chosen so that certificates land at places of
    every kind.  Every form is known to be nonzero, so an undetermined
    certificate counts as a failure."""

    name = "cert-box"
    tail_pct = 99
    layers = ("arith", "numfield", "places", "padics", "certify")
    EVEN = 75
    RANDOM = 300

    def make_pass(self, k):
        rng = self.rng(k)
        ops = []
        for a in range(-25, 26):
            for b in range(1, 26):
                K, lambdas, alphas = ep.fibonacci_linear_form(a, b)
                ops.append((K, lambdas, alphas, 2, 50))
        primes47 = [p for p in PRIMES if p <= 47]
        for i in range(self.EVEN):
            K, lambdas, alphas = ep.even_factorial_linear_form(
                rng.randint(-30, 30), rng.randint(1, 30))
            p_min = primes47[i % len(primes47)]
            ops.append((K, lambdas, alphas, p_min, p_min + 60))
        # start primes: a fixed spread over the place kinds of each field
        starts = {d: [sorted({v.p for v in places_of_kind(d, kind, primes47)})
                      for kind in (("rational",) if d is None else ("split", "inert", "ramified"))]
                  for d in CERT_FIELDS}
        for i in range(self.RANDOM):
            d = CERT_FIELDS[i % len(CERT_FIELDS)]
            K = ep.QuadraticField(d)
            by_kind = starts[d]
            primes = by_kind[(i // len(CERT_FIELDS)) % len(by_kind)]
            p_min = primes[(i // 15) % len(primes)]
            m = 1 + i % 3
            alphas = []
            while len(alphas) < m:
                alpha = integral(rng, K, 6)
                if alpha not in alphas:
                    alphas.append(alpha)
            lambdas = [K(0)]
            while not any(lambdas):
                lambdas = [integral(rng, K, 9) if rng.random() < 0.9 else K(0)
                           for _ in range(m + 1)]
            ops.append((K, tuple(lambdas), tuple(alphas), p_min, p_min + 60))
        return ops

    def run(self, op):
        K, lambdas, alphas, p_min, p_max = op
        return ep.certify_nonvanishing(K, lambdas, alphas, p_min, p_max)

    def check(self, op, cert):
        K, lambdas, alphas, p_min, p_max = op
        if cert.status != "nonzero":
            return f"status {cert.status} for a form known to be nonzero"
        v = cert.place
        if not p_min <= v.p <= p_max or not v.splitting.startswith(checks.splitting_kind(K.d, v.p)):
            return f"certificate at {v}, not a place of {K} in [{p_min}, {p_max}]"
        w = checks.truncated_form_valuation(v, lambdas, alphas, cert.precision)
        if w is None or w != cert.partial_valuation or not w < cert.precision:
            return f"partial valuation {cert.partial_valuation} at {v}, independent sum gives {w}"
        return None


class DeepEval(Workload):
    """Certified evaluations with distinct keys at every kind of place,
    primes up to 101 and N from 32 to 256, p*N capped, plus the anchor
    p = 101, N = 256.  A share of them are genfact_eval calls."""

    name = "deep-eval"
    tail_pct = 90
    layers = ("numfield", "places", "padics")
    PER_KIND = 74
    GENFACT_EVERY = 5      # every fifth op of a kind is a genfact_eval call
    PN_CAP = 3300

    def __init__(self, seed):
        super().__init__(seed)
        self.seen: set = set()
        self.places = {"rational": places_of_kind(None, "rational", PRIMES)}
        for kind in ("split", "inert", "ramified"):
            self.places[kind] = [v for d in EVAL_FIELDS for v in places_of_kind(d, kind, PRIMES)]

    def _unit(self, rng, v, bound):
        K = ep.QuadraticField(v.d)
        while True:
            alpha = integral(rng, K, bound)
            if alpha.norm() % v.p:
                return alpha

    def make_pass(self, k):
        rng = self.rng(k)
        ops = []
        for kind, places in self.places.items():
            for i in range(self.PER_KIND):
                # work levels from 64 to 3200 terms, the same in every pass;
                # the seed picks a place that reaches the level with 32 <= N <= 256
                work = round(64 * 50 ** (i / (self.PER_KIND - 1)))
                fits = [v for v in places if 32 * (v.p - 1) <= work <= 256 * (v.p - 1)
                        and 32 * v.p <= self.PN_CAP]
                while True:
                    v = rng.choice(fits)
                    N = min(max(32, work // (v.p - 1)), 256, self.PN_CAP // v.p)
                    t = self._unit(rng, v, 20 if v.d is not None else 60)
                    if i % self.GENFACT_EVERY == 0:
                        p1 = rng.choice([c for c in range(1, 13) if c % v.p])
                        op = ("genfact", v, rng.randint(1, 12), p1, t, N)
                    else:
                        op = ("euler", v, t, N)
                    if op not in self.seen:
                        break
                self.seen.add(op)
                ops.append(op)
        anchor = ep.places_above(ep.QuadraticField(), 101)[0]
        while True:
            op = ("euler", anchor, ep.QuadraticField()(rng.randint(2, 100)), 256)
            if op not in self.seen:
                break
        self.seen.add(op)
        ops.append(op)
        return ops

    def run(self, op):
        if op[0] == "euler":
            return ep.euler_eval_certified(op[1], op[2], op[3])
        _, v, p0, p1, t, N = op
        return ep.genfact_eval(v, p0, p1, t, N, 10**6)

    def check(self, op, cv):
        v, N = op[1], op[-1]
        p0, p1, t = (1, 1, op[2]) if op[0] == "euler" else op[2:5]
        if cv.value.n != N or cv.tail_valuation_bound < N:
            return f"precision {cv.value.n}, tail bound {cv.tail_valuation_bound} for N = {N}"
        loc = checks.Local(v.p, v.splitting, v.d, N)
        expected = loc.series(p0, p1, t, N)
        got = checks.residue_coords(loc, cv.value.residue_json())
        if got != expected:
            return f"residue {got} at {v}, independent sum gives {expected}"
        if v.splitting in ("inert", "ramified"):
            # Cauchy consistency: a second precision must agree after reduction
            low = self.run(op[:-1] + (N // 4,)).value
            if cv.value.reduce_to(N // 4).residue_json() != low.residue_json():
                return f"residues at N = {N} and N = {N // 4} disagree at {v}"
        return None


class PadeGrid(Workload):
    """Pade jobs: construct and order check twice over every (m, l, mu)
    with m <= 4, m*l <= 10, mu <= m, in Q and in Q(sqrt 5), plus
    determinants up to m = 4 and one at m = 5.  Only the points are seeded."""

    name = "pade-grid"
    tail_pct = 90
    layers = ("numfield", "polys", "pade")
    DETERMINANTS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 1), (2, 2),
                    (3, 1), (3, 1), (3, 2), (4, 1), (4, 1), (4, 1))

    def _points(self, rng, K, m):
        points = []
        while len(points) < m:
            alpha = integral(rng, K, 4)
            if alpha not in points:
                points.append(alpha)
        return tuple(points)

    def make_pass(self, k):
        rng = self.rng(k)
        fields = (ep.QuadraticField(), ep.QuadraticField(5))
        ops = []
        for K in fields:
            for m in range(1, 5):
                for l in range(1, 10 // m + 1):
                    for mu in range(m + 1):
                        ops += [("pade", m, l, mu, self._points(rng, K, m)) for _ in range(2)]
        for i, (m, l) in enumerate(self.DETERMINANTS):
            ops.append(("det", m, l, self._points(rng, fields[i % 2], m)))
        KQ = fields[0]
        ops.append(("det", 5, 1, tuple(KQ(rng.choice((-1, 1)) * a) for a in range(1, 6))))
        return ops

    def run(self, op):
        if op[0] == "det":
            return ep.pade_determinant(op[1], op[2], op[3])
        _, m, l, mu, points = op
        system = ep.pade_construct(m, l, mu, points)
        return ep.pade_order_check(system, system.order_target + 5), system.order_target

    def check(self, op, result):
        if op[0] == "det":
            return None if result[2] is True else "determinant differs from its closed form"
        order, target = result
        return None if order >= target else f"remainder order {order} below target {target}"


#: inputs that end in a traceback at the commit the reference was made at;
#: they run apart from the timed mix, and the run reports how many still fail
KNOWN_DEFECTS = (
    ("bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "1e200", "--json"),
    ("bounds", "--m", "2", "--kappa", "2", "--c1", "3", "--logH", "1e250"),
    ("limsup", "--alphas", "1" + "0" * 200 + ";3", "--lmax", "5"),
    ("limsup", "--alphas", str(2**1100) + ";-1", "--lmax", "8", "--json"),
)
#: left out of the mix: it does not finish (about 4.1M terms)
EXCLUDED = (("eval", "--p", "1009", "--alpha", "1", "--prec", "4096"),)


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    """The fixed pool of small command lines that cli-mix runs, by subcommand."""
    rng = random.Random("cli-mix pool")
    pool: dict[str, list[tuple[str, ...]]] = {}

    def elem(K, bound):
        return str(integral(rng, K, bound))

    def add(cmd, *argv):
        json_flag = ("--json",) if rng.random() < 0.5 else ()
        pool.setdefault(cmd, []).append((cmd, *argv, *json_flag))

    for _ in range(40):
        d = rng.choice((None, 5))
        K = ep.QuadraticField(d)
        m = rng.randint(1, 2)
        points = []
        while len(points) < m:
            e = elem(K, 3)
            if e not in points:
                points.append(e)
        field = ("--field", "5") if d else ()
        add("pade", "--m", str(m), "--l", str(rng.randint(1, 2)), "--mu", str(rng.randint(0, m)),
            "--alphas=" + ";".join(points), *field)
    for _ in range(40):
        d = rng.choice((None, 5, -1, 2, -3))
        K = ep.QuadraticField(d)
        field = ("--field", str(d)) if d else ()
        add("eval", "--p", str(rng.choice((2, 3, 5, 7, 11, 13))), "--alpha=" + elem(K, 9),
            "--prec", str(rng.randint(2, 8)), *field)
    for _ in range(40):
        d = rng.choice((None, 5, -1))
        K = ep.QuadraticField(d)
        m = rng.randint(1, 2)
        points = []
        while len(points) < m:
            e = elem(K, 4)
            if e not in points:
                points.append(e)
        lambdas = ";".join(elem(K, 6) for _ in range(m + 1))
        window = rng.choice((("--p", "2"), ("--pmin", "2", "--pmax", "30"),
                             ("--pmin", str(rng.choice(PRIMES[:10])), "--pmax", "40")))
        field = ("--field", str(d)) if d else ()
        add("certify", "--lambdas=" + lambdas, "--alphas=" + ";".join(points), *window, *field)
    for _ in range(40):
        m = rng.randint(1, 3)
        kappa = rng.randint(1, 2)
        log_h = f"{rng.uniform(1, 9):.4f}e{rng.randint(18, 150)}"
        add("bounds", "--m", str(m), "--kappa", str(kappa), "--c1", f"{rng.uniform(1, 5):.3f}",
            "--logH", log_h)
    for _ in range(40):
        d = rng.choice((None, 5))
        K = ep.QuadraticField(d)
        count = rng.randint(1, 3)
        points = []
        while len(points) < count:
            e = elem(K, 5)
            if e not in points:
                points.append(e)
        field = ("--field", "5") if d else ()
        exclude = ("--exclude-p", rng.choice(("2", "2,3", "5"))) if rng.random() < 0.3 else ()
        add("limsup", "--alphas=" + ";".join(points), "--lmax", str(rng.randint(5, 40)),
            *exclude, *field)
    for _ in range(40):
        add("fib", "--a", str(rng.randint(-25, 25)), "--b", str(rng.randint(1, 25)))
    for _ in range(40):
        add("evenfact", "--a", str(rng.randint(-20, 20)), "--b", str(rng.randint(1, 20)))
    for _ in range(40):
        n = rng.randint(3, 60)
        phi = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
        add("residue", "--n", str(n), "--r", str(rng.randint(1, phi)), "--m", str(rng.randint(1, 4)))
    # inputs that end in a named error, exit code 1
    add("limsup", "--alphas", "10^200;3", "--lmax", "5")
    add("bounds", "--m", "1", "--kappa", "1", "--c1", "2", "--logH", "1e5")
    add("eval", "--p", "5", "--alpha", "1/2")
    add("certify", "--lambdas", "1;1", "--alphas", "0", "--p", "2")
    return pool


class CliMix(Workload):
    """In-process eulerpade.cli.main calls: every command line of a fixed pool
    of small inputs to all eight subcommands, three times each per pass in a
    seeded order, stdout checked against a reference stored with the
    benchmark."""

    name = "cli-mix"
    tail_pct = 99
    layers = ("cli", "bounds", "certify", "padics", "pade", "places", "arith", "numfield", "polys")
    REPEATS = 3

    def __init__(self, seed):
        super().__init__(seed)
        import eulerpade.cli  # noqa: F401  (CLI users pay this import)
        self.pool = cli_pool()

    def make_pass(self, k):
        rng = self.rng(k)
        ops = [argv for _, entries in sorted(self.pool.items()) for argv in entries] * self.REPEATS
        rng.shuffle(ops)
        return ops

    def run(self, argv):
        return run_cli(list(argv))

    def check(self, argv, result):
        expected = self.reference[argv]
        if result != (expected["code"], expected["stdout"]):
            return f"{' '.join(argv)}: exit {result[0]}, stdout differs from the reference"
        return None

    def load_reference(self):
        with open(HERE / "cli_reference.json") as fh:
            ref = json.load(fh)
        self.reference = {tuple(e["argv"]): e for e in ref["pool"]}
        pool = {argv for entries in self.pool.values() for argv in entries}
        if pool != set(self.reference):
            raise SystemExit("cli_reference.json does not match the command pool; regenerate it")
        self.defects = ref["known_defects"]

    def known_defect_failures(self) -> int:
        """How many known-defect inputs still end in their recorded exception."""
        failing = 0
        for entry in self.defects:
            try:
                run_cli(list(entry["argv"]))
            except Exception as exc:  # noqa: BLE001  (the defect is the traceback)
                failing += type(exc).__name__ == entry["exception"]
        return failing


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    import eulerpade.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = eulerpade.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (CertBox, DeepEval, PadeGrid, CliMix)}
