"""Each demo prints exactly its stored reference output.

The references in tests/data/demos/<name>.txt are the demos' stdout; the
demos are deterministic, so any difference is a change in behaviour.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_reference():
    stored = sorted(p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert stored == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text()
    assert run.stdout == expected
