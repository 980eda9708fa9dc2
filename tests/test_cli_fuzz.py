"""A seeded fuzzer for the command line: every subcommand, run in process.

Each command line draws its options from plausible values and from edge
values (0, +-1, 2^61 - 1, 10^30, the fields 0, 1, 4 and -7, empty and
malformed lists, nan and inf).  Every call must end within a 3 s alarm in
exit 0, 1 or 2, with no uncaught exception, and exit 2 only with an
undetermined certificate record.  verify is fed mutated copies of the
records that certify, fib and evenfact print.
"""

import contextlib
import copy
import functools
import io
import json
import random
import signal
import sys

import pytest

from eulerpade import cli
from eulerpade.certify import certificate_from_json, verify_certificate
from eulerpade.errors import PrecisionCapError

SECONDS = 3
SEEDS = range(8)
#: command lines per subcommand and seed
CALLS = 500

BIG = [str(2**61 - 1), str(10**30)]
EDGE_INTS = ["0", "1", "-1", *BIG, "nan", "inf", "", "x"]
EDGE_FLOATS = ["0", "1", "-1", *BIG, "1e300", "nan", "inf", "-inf", "x"]
EDGE_ELEMS = ["0", "1", "-1", *BIG, "nan", "inf", "1/0", "x", ",", "1,2,3", "1,1", "1/2", "1/2,1/2"]
EDGE_LISTS = ["", ";", ";;", "1;;2", "1;1", ",", "nan;1", "inf"]
EDGE_FIELDS = ["0", "1", "4", "-7", *BIG]
#: plausible elements of Q and of Q(sqrt(d)), d = 5 or -1
RATIONALS = ["1", "-1", "2", "3", "-2", "5", "7"]
PAIRS = ["1", "-2", "3", "1,1", "0,1", "2,-1", "1/2,1/2", "-1/2,3/2"]
CERTIFICATE_COMMANDS = {"certify", "fib", "evenfact"}


class Draw:
    """The seeded choices of one command line: a plausible value with odds
    4 in 5, else an edge value."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick(self, plausible, edges):
        return self.rng.choice(plausible if self.rng.random() < 0.8 else edges)

    def int(self, *plausible):
        return self.pick([str(x) for x in plausible], EDGE_INTS)

    def float(self, *plausible):
        return self.pick([str(x) for x in plausible], EDGE_FLOATS)

    def field(self):
        """--field and its value, or nothing for Q, with the elements that fit."""
        d = self.pick([None, None, "5", "-1"], EDGE_FIELDS)
        return ([] if d is None else ["--field", d]), (RATIONALS if d is None else PAIRS)

    def elements(self, pool, count):
        """count distinct plausible elements joined by ";", or with odds 1 in 5
        an edge list or one edge element among them."""
        parts = self.rng.sample(pool, count)
        if self.rng.random() < 0.1:
            return self.rng.choice(EDGE_LISTS)
        if self.rng.random() < 0.1:
            parts[self.rng.randrange(count)] = self.rng.choice(EDGE_ELEMS)
        return ";".join(parts)


def _pade(draw):
    field, pool = draw.field()
    m = draw.rng.randint(1, 3)
    return [
        "--m", draw.int(m), "--l", draw.int(1, 2, 3), "--mu", draw.int(*range(m + 1)),
        "--alphas", draw.elements(pool, m), *draw.rng.choice([[], ["--cutoff", draw.int(4, 10, 20)]]), *field,
    ]


def _eval(draw):
    field, pool = draw.field()
    alpha = draw.pick(pool, EDGE_ELEMS)
    return ["--p", draw.int(2, 3, 5, 7, 13), "--alpha", alpha, "--prec", draw.int(2, 4, 8), *field]


def _window(draw):
    prec = draw.rng.choice([[], ["--prec", draw.int(4, 16, 64)]])
    if draw.rng.random() < 0.3:
        return [*prec, "--p", draw.int(2, 3, 5, 7)]
    return [*prec, "--pmin", draw.int(2, 3, 5), "--pmax", draw.int(3, 20, 50)]


def _certify(draw):
    field, pool = draw.field()
    m = draw.rng.randint(1, 2)
    return ["--lambdas", draw.elements(pool, m + 1), "--alphas", draw.elements(pool, m), *_window(draw), *field]


def _bounds(draw):
    return [
        "--m", draw.int(1, 2, 3), "--kappa", draw.int(1, 2),
        "--c1", draw.float(1.5, 2, 3.678, 5), "--logH", draw.float("1e20", "4.5e60", "1e100"),
    ]


def _limsup(draw):
    field, pool = draw.field()
    excluded = draw.pick(["2", "2,3", "5"], ["", ",", "4", "-1", *BIG, "x"])
    exclude = draw.rng.choice([[], ["--exclude-p", excluded]])
    return ["--alphas", draw.elements(pool, draw.rng.randint(1, 3)), "--lmax", draw.int(5, 10, 40), *exclude, *field]


def _fib(draw):
    return ["--a", draw.int(1, -3, 25), "--b", draw.int(1, 4, 25), *_window(draw)]


def _evenfact(draw):
    return ["--a", draw.int(1, -7, 3), "--b", draw.int(2, 3, 5), *_window(draw)]


def _residue(draw):
    return ["--n", draw.int(4, 12, 60), "--r", draw.int(1, 2, 4), "--m", draw.int(1, 2, 4)]


#: each computing subcommand and the draw of its options, a flat list of names and values
GRAMMAR = {
    "pade": _pade, "eval": _eval, "certify": _certify, "bounds": _bounds, "limsup": _limsup,
    "fib": _fib, "evenfact": _evenfact, "residue": _residue,
}


def command_line(rng: random.Random, name: str) -> list[str]:
    """One command line: the subcommand's options, each kept with odds 19 in
    20 and written "--opt=value" with odds 1 in 2, then maybe --json and,
    rarely, a stray string."""
    options = GRAMMAR[name](Draw(rng))
    argv = [name]
    for option, value in zip(options[::2], options[1::2]):
        if rng.random() < 0.95:
            argv += [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.03:
        argv.append(rng.choice(["--bogus", "extra", "--"]))
    return argv


class _Overtime(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _on_alarm(signum, frame):
    raise _Overtime


def run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process call, under the alarm;
    an exception out of main fails the calling test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except _Overtime:
        pytest.fail(f"over {SECONDS} s: {argv}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert out == "" and ": error: " in err, (argv, out, err)
    if code == 2:
        assert argv[0] in CERTIFICATE_COMMANDS, argv
        if "--json" in argv:
            assert json.loads(out)["status"] == "undetermined", (argv, out)
        else:
            assert out.startswith("undetermined: "), (argv, out)


#: command lines whose records verify is fed, mutated
RECORD_LINES = [
    ["fib", "--a", "1", "--b", "1"],
    ["fib", "--a", "-3", "--b", "4", "--pmax", "20"],
    ["evenfact", "--a", "1", "--b", "2"],
    ["certify", "--lambdas", "0,1;5", "--alphas", "0,1", "--field", "5", "--p", "5"],
    ["certify", "--lambdas", "1;1;-1", "--alphas", "1/2,1/2;1/2,-1/2", "--field", "5"],
    ["certify", "--lambdas", "1;1", "--alphas", "1", "--pmin", "5", "--pmax", "3"],
]
JSON_EDGES = [
    None, True, False, 0, 1, -1, 2**61 - 1, 10**30, 1.5, float("nan"), float("inf"),
    "", "0", "1", "-1", "1/2", "nan", "inf", "1/0", "x", str(2**61 - 1), [], ["1"], [1], {}, "inert@2",
]


@functools.cache
def records() -> tuple[str, ...]:
    texts = []
    for argv in RECORD_LINES:
        code, out, _ = run([*argv, "--json"])
        assert code in (0, 2)
        texts.append(out)
    return tuple(texts)


def mutated(rng: random.Random, text: str) -> str:
    """A record with up to three keys replaced, deleted or edited, one in
    ten cut short."""
    record = json.loads(text)
    for _ in range(rng.randint(0, 3)):
        target = record
        if isinstance(record.get("place"), dict) and rng.random() < 0.3:
            target = record["place"]
        if not target:
            break
        key = rng.choice(sorted(target))
        roll = rng.random()
        if roll < 0.15:
            del target[key]
        elif roll < 0.35 and isinstance(target[key], list):
            items = target[key]
            if items and rng.random() < 0.5:
                items.pop(rng.randrange(len(items)))
            else:
                items.insert(rng.randint(0, len(items)), rng.choice(EDGE_ELEMS))
        else:
            target[key] = copy.deepcopy(rng.choice(JSON_EDGES))
    text = json.dumps(record)
    return text[: rng.randrange(len(text))] if rng.random() < 0.1 else text


def library_verdict(text: str) -> bool:
    """Whether the library reads the record and its check says yes: the
    reader refuses only with ValueError, and the check returns a bool or,
    over the term budget, raises PrecisionCapError."""
    try:
        cert = certificate_from_json(json.loads(text))
    except ValueError:
        return False
    try:
        verdict = verify_certificate(cert)
    except PrecisionCapError:
        return False
    assert type(verdict) is bool
    return verdict


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GRAMMAR))
def test_every_subcommand_ends_in_an_answer_or_a_named_error(name, seed):
    rng = random.Random(f"{name} {seed}")
    answered = 0
    for _ in range(CALLS):
        argv = command_line(rng, name)
        code, out, err = run(argv)
        check_outcome(argv, code, out, err)
        answered += code != 1
    # most of the grammar is plausible, so the subcommand reaches its work
    assert answered > CALLS // 10


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_ends_in_a_verdict_or_a_named_error(seed):
    rng = random.Random(f"verify {seed}")
    verified = 0
    for _ in range(4 * CALLS):
        text = mutated(rng, rng.choice(records()))
        argv = ["verify", *rng.choice([(), ("-",), ("--json",)])]
        code, out, err = run(argv, stdin=text)
        check_outcome(argv, code, out, err)
        assert code in (0, 1), (text, code)
        assert (code == 0) == library_verdict(text), text
        verified += code == 0
    assert verified > 0
