"""Code mutants of the certificate check: each must fail its killing tests.

Each mutant is one exact text replacement in a copy of src/ under a
temporary directory.  The snippet must occur exactly once in its file, so
a refactor that moves the code fails here by name instead of letting the
mutant pass unseen.  The killing tests run on the mutated copy in a
subprocess, with a fixed Hypothesis seed, and must fail.  Nothing under
src/ changes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_SUITE = "tests/test_certificate_mutants.py"
RECORDS = f"{MUTANTS_SUITE}::test_mutated_records_are_refused_by_name_or_checked"
OBJECTS = f"{MUTANTS_SUITE}::test_mutated_certificates_verify_only_when_the_claim_holds"
TAIL = f"{MUTANTS_SUITE}::test_a_verified_tail_bound_is_one_the_oracle_proves"

#: pytest with Hypothesis's first failing example kept as found: a mutant
#: is killed by any failure, so shrinking one only costs time
PYTEST_WITHOUT_SHRINKING = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""

#: name: (file under src/eulerpade, snippet, replacement, killing tests)
MUTANTS = {
    "places_above check dropped": (
        "certify.py",
        " and v in places_above(K, v.p)",
        "",
        [OBJECTS],
    ),
    "w <= tail": (
        "certify.py",
        "and w2 * tb.denominator < 2 * tb.numerator",
        "and w2 * tb.denominator <= 2 * tb.numerator",
        [RECORDS],
    ),
    "partial_valuation comparison dropped": (
        "certify.py",
        "and w2 * pv.denominator == 2 * pv.numerator\n",
        "",
        [RECORDS],
    ),
    "lambda count unchecked": (
        "certify.py",
        "if len(lambdas) != len(alphas) + 1:",
        "if False:",
        [OBJECTS],
    ),
    "w <= precision": (
        "certify.py",
        "and w2 < 2 * cert.precision",
        "and w2 <= 2 * cert.precision",
        [OBJECTS],
    ),
    "integrality check dropped": (
        "certify.py",
        'for key, xs in (("alphas", alphas), ("lambdas", lambdas)):',
        "for key, xs in ():",
        [OBJECTS],
    ),
    "tail-bound reach dropped": (
        "certify.py",
        "and tb.numerator * tail.denominator <= tail.numerator * tb.denominator\n",
        "",
        [TAIL],
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_checker_mutant_is_killed(name, tmp_path):
    file, snippet, replacement, killers = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "eulerpade" / file
    text = path.read_text()
    assert text.count(snippet) == 1, f"{name}: the snippet does not occur exactly once in {file}"
    path.write_text(text.replace(snippet, replacement))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-c", PYTEST_WITHOUT_SHRINKING, "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *(str(ROOT / test) for test in killers)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    # exit 1: tests ran and one failed; anything else (a usage or collection
    # error) is not a kill
    output = run.stdout[-2000:] + run.stderr[-2000:]
    assert run.returncode == 1, f"mutant not killed: {name} (exit {run.returncode})\n{output}"
