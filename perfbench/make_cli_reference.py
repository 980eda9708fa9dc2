"""Write cli_reference.json: the exit code and stdout of every command line
in the cli-mix pool, and the exception each known-defect input ends in.

    python3 perfbench/make_cli_reference.py

Run it only at a commit whose CLI output is trusted: cli-mix counts every
later difference from this file as a wrong output.
"""

from __future__ import annotations

import json

from run import import_package

import_package()
import workloads  # noqa: E402


def main() -> None:
    pool = [argv for _, entries in sorted(workloads.cli_pool().items()) for argv in entries]
    entries = []
    for argv in dict.fromkeys(pool):
        code, stdout = workloads.run_cli(list(argv))
        entries.append({"argv": list(argv), "code": code, "stdout": stdout})
    defects = []
    for argv in workloads.KNOWN_DEFECTS:
        try:
            workloads.run_cli(list(argv))
        except Exception as exc:  # noqa: BLE001  (recording the defect)
            defects.append({"argv": list(argv), "exception": type(exc).__name__, "message": str(exc)})
        else:
            raise SystemExit(f"{argv} no longer fails; drop it from KNOWN_DEFECTS")
    excluded = [{"argv": list(argv), "reason": "does not finish: about 4.1M series terms"}
                for argv in workloads.EXCLUDED]
    with open(workloads.HERE / "cli_reference.json", "w") as fh:
        json.dump({"pool": entries, "known_defects": defects, "excluded": excluded}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
