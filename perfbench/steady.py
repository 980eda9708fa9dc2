"""Steadiness self-check: are the end-to-end metrics reproducible within their bounds?

    python3 perfbench/steady.py [workload ...]

For each workload (default: all in BENCHMARK.json) it runs the benchmark
twice on a seed used while the benchmark was written and once on a seed
held out from that work.  Every end-to-end metric of the second and the
held-out run must lie within the metric's bound of the first run, as a
share of it.  Exit code 1 if one does not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEV_SEED = 1
HELD_OUT_SEED = 90217


def run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in names:
        first, again, held_out = (run(spec, workload, seed)
                                  for seed in (DEV_SEED, DEV_SEED, HELD_OUT_SEED))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = first[name]["value"]
            shifts = [abs(other[name]["value"] - base) / base for other in (again, held_out)]
            ok = max(shifts) <= bound
            steady &= ok
            print(f"{workload:10} {name:16} {base:12.5g} {metric['unit']:5} "
                  f"same seed {shifts[0]:.3f}  held-out seed {shifts[1]:.3f}  "
                  f"bound {bound}  {'ok' if ok else 'OUTSIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
