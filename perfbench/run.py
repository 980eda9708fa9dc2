"""Run one eulerpade benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cert-box --seed 1 --seconds 10 --trace 0

Workloads: cert-box, deep-eval, pade-grid, cli-mix (see workloads.py).  One
caller runs the workload's ops back to back (a closed loop, one thread, one
process at a time), in whole passes over seeded inputs, for about --seconds
of op time on the reference core.  Each pass runs three times, in rounds spread over the run and
each time in a process forked fresh from this one.  Every op time is scaled
to a reference core by a calibration loop timed around it (see measure),
and an op's latency is the median of its three scaled times; the times as
measured are in the meta line.  Each op's output is checked after its first
run, outside the timed region, and its later runs must give the same
output; a wrong output or an exception is a failure, and any failure makes
the exit code 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (ops_per_s, latency_p50_ms, latency_tail_ms, setup_s,
peak_rss_mb); the lines before it give the run metadata, failed_frac and
the tail sample count.  With --trace 1 passes run in this process, traced
and untraced in turn, and the metrics are the per-layer ones from tracer.py
plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WALL_LIMIT_S = 120  # no new pass starts after this, so a run ends well within 180 s
REPEATS = 3  # rounds of forked runs of each pass; an op's latency is their median
CAL_LOOPS = 6000  # iterations of one calibration slice, about 2 ms of pure Python
CAL_EVERY_S = 0.2  # a pass is calibrated again after this much time
#: a calibration slice's time on the core that times are scaled to: a round
#: figure between its times on a 2-vCPU Xeon (Sapphire Rapids) VM while the
#: host is busy (about 2.4 ms) and while it is not (about 1.5 ms)
CAL_REFERENCE_S = 2.0e-3


def import_package():
    """Import eulerpade from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import eulerpade
    except ImportError as exc:
        sys.exit(f"run.py: eulerpade is not importable from {SRC}: {exc}")
    if Path(eulerpade.__file__).resolve().parent != (SRC / "eulerpade").resolve():
        sys.exit(f"run.py: eulerpade was imported from {eulerpade.__file__}, not {SRC}")
    return eulerpade


def calibration_slice() -> float:
    """Seconds that a fixed piece of pure-Python work (integer arithmetic and
    dict stores) takes now, the least of two tries.  Its ratio to
    CAL_REFERENCE_S is how much slower than the reference core this core
    runs at the moment, while other machines on the host load it."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        x, table = 1, {}
        for i in range(CAL_LOOPS):
            x = (x * 48271 + i) % 2147483647
            table[i & 1023] = x
        best = min(best, perf_counter() - t0)
    return best


def setup_probe(workload: str, seed: int) -> None:
    """Time, in this fresh interpreter, the import and the first pass's
    inputs; print that time and the mean calibration slice around it."""
    cal = calibration_slice()
    t0 = perf_counter()
    import_package()
    import workloads

    workloads.WORKLOADS[workload](seed).make_pass(0)
    setup = perf_counter() - t0
    print(setup, (cal + calibration_slice()) / 2)


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, calibration slice seconds) of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        setup, cal = map(float, out.stdout.strip().splitlines()[-1].split())
        probes.append((setup, cal))
    return probes


def run_metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eulerpade").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_pass(wl, ops, tracer=None, check=True) -> dict:
    """Time each op of one pass, then check every output, or with check
    False only digest them.  Returns the latencies ("lat"), the failures,
    the seconds the checks took, for each op the mean of the calibration
    slices taken before and after it ("cal"), and a digest of each output."""
    latencies, results = [], []
    cal, cal_at = [calibration_slice()], [0]
    t_cal = perf_counter()
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if perf_counter() - t_cal > CAL_EVERY_S:
                cal.append(calibration_slice())
                cal_at.append(i)
                t_cal = perf_counter()
            t0 = perf_counter()
            try:
                result, error = wl.run(op), None
            except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            results.append((result, error))
    finally:
        if tracer:
            tracer.uninstall()
    cal.append(calibration_slice())
    cal_at.append(len(ops))
    op_cal = []
    for j in range(len(cal) - 1):
        op_cal += [(cal[j] + cal[j + 1]) / 2] * (cal_at[j + 1] - cal_at[j])
    t_check = perf_counter()
    failures = []
    for op, (result, error) in zip(ops, results):
        if error is None and check:
            try:
                error = wl.check(op, result)
            except Exception as exc:  # noqa: BLE001
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(error)
    digests = [hashlib.sha256(repr(r).encode()).hexdigest()[:16] for r in results]
    return {"lat": latencies, "failures": failures, "check_s": perf_counter() - t_check,
            "cal": op_cal, "digests": digests}


def run_pass_forked(wl, ops, check: bool) -> dict:
    """run_pass in a forked child, so that every run of a pass starts from
    the same program state: nothing an earlier run or pass left in a cache
    is seen.  The parent waits for the child to end.  Adds the child's peak
    RSS in KiB to run_pass's results."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = json.dumps(run_pass(wl, ops, check=check)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:  # noqa: BLE001  (reported here, the parent exits 1)
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        sys.exit(f"run.py: the child running a pass ended with wait status {status}")
    return dict(json.loads(payload), peak_kb=usage.ru_maxrss)


def scale(pass_run: dict) -> list[float]:
    """A pass run's op times scaled to the reference core, each by
    CAL_REFERENCE_S over the calibration slices taken around it."""
    return [t * CAL_REFERENCE_S / c for t, c in zip(pass_run["lat"], pass_run["cal"])]


def measure(wl, seconds: float):
    """Run whole passes for about `seconds` of op time on the reference
    core, in REPEATS rounds.  The first round makes and runs as many passes
    as come nearest to its share of the time, and checks every output; each
    later round runs the same passes again, and each of its outputs must
    equal the first round's.  Every run of a pass is a fresh fork.

    Other machines that share the host cut its speed to as little as half, in
    spells of seconds to minutes.  So op times are scaled to the reference
    core, and an op's latency is the median of its REPEATS runs, which lie
    apart across the whole run.  Returns the scaled latencies, the
    latencies as measured (each the median of its runs), the failures, the
    per-pass record and the peak RSS of the first child, whose start state
    is the same however many passes follow."""
    target = seconds / REPEATS
    start = perf_counter()
    made, runs = [], []
    spent = 0.0
    while not made or (spent + spent / len(made) / 2 < target
                       and perf_counter() - start < WALL_LIMIT_S / REPEATS):
        t_make = perf_counter()
        ops = wl.make_pass(len(made))
        made.append((ops, perf_counter() - t_make))
        runs.append([run_pass_forked(wl, ops, check=True)])
        spent += sum(scale(runs[-1][0]))
    for _ in range(1, REPEATS):
        for (ops, _), pass_runs in zip(made, runs):
            pass_runs.append(run_pass_forked(wl, ops, check=False))

    scaled, measured, failures, passes = [], [], [], []
    for (ops, make_s), pass_runs in zip(made, runs):
        measured += map(statistics.median, zip(*(r["lat"] for r in pass_runs)))
        scaled += map(statistics.median, zip(*map(scale, pass_runs)))
        first = pass_runs[0]["digests"]
        for r in pass_runs:
            failures += r["failures"]
            failures += [f"{op!r}: output differs from its first run"
                         for op, a, b in zip(ops, first, r["digests"]) if a != b]
        passes.append({"ops": len(ops), "op_s": [round(sum(r["lat"]), 4) for r in pass_runs],
                       "cal_ms": [round(1e3 * statistics.mean(r["cal"]), 4) for r in pass_runs],
                       "make_s": round(make_s, 4), "check_s": round(pass_runs[0]["check_s"], 4)})
    return scaled, measured, failures, passes, runs[0][0]["peak_kb"]


def time_metrics(lat: list[float], tail_pct: int) -> dict[str, float]:
    tail = statistics.quantiles(lat, n=100, method="inclusive")[tail_pct - 1]
    return {"ops_per_s": len(lat) / sum(lat), "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail, "tail_samples_beyond": sum(x > tail for x in lat)}


def measure_traced(wl, seconds: float):
    """Run whole passes in this process until `seconds` of op time is spent,
    even passes traced and odd ones not, at least one of each.  Op times are
    scaled as in measure, so that the tracing overhead compares like with
    like; span times are as measured."""
    from tracer import Tracer

    latencies = {True: [], False: []}
    tracers, failures, passes = [], [], []
    start = perf_counter()
    k = 0
    while k < 2 or (
        sum(map(sum, latencies.values())) < seconds and perf_counter() - start < WALL_LIMIT_S
    ):
        t_make = perf_counter()
        ops = wl.make_pass(k)
        make_s = perf_counter() - t_make
        traced = k % 2 == 0
        tracer = Tracer() if traced else None
        result = run_pass(wl, ops, tracer)
        if tracer:
            tracers.append(tracer)
        latencies[traced] += scale(result)
        failures += result["failures"]
        passes.append({"traced": traced, "ops": len(ops), "op_s": round(sum(result["lat"]), 4),
                       "make_s": round(make_s, 4), "check_s": round(result["check_s"], 4)})
        k += 1
    return latencies, tracers, failures, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if isinstance(wl, workloads.CliMix):
        wl.load_reference()

    if args.trace:
        latencies, tracers, failures, passes = measure_traced(wl, args.seconds)
        lat = latencies[False]
        attempted = len(lat) + len(latencies[True])
    else:
        lat, measured, failures, passes, peak_kb = measure(wl, args.seconds)
        attempted = REPEATS * len(lat)
    known_defects = wl.known_defect_failures() if isinstance(wl, workloads.CliMix) else 0
    meta = run_metadata(args)
    meta.update(
        why=" ".join(wl.__doc__.split()), layers=list(wl.layers), passes=passes,
        attempted=attempted, failed=len(failures), failed_frac=len(failures) / attempted,
        known_defects_failing=known_defects, failures=failures[:5],
    )

    if args.trace:
        from tracer import is_exact, layer_metrics

        metrics = layer_metrics(tracers)
        traced_rate = len(latencies[True]) / sum(latencies[True])
        metrics["trace.ops_per_s"] = (traced_rate, "op/s")
        metrics["trace.overhead_frac"] = (1 - traced_rate * sum(lat) / len(lat), "ratio")
        metrics["cli.known_defects"] = (known_defects, "count")
        meta["exact"] = [name for name in metrics if is_exact(name)]
    else:
        times = time_metrics(lat, wl.tail_pct)
        setup_scaled = [t * CAL_REFERENCE_S / c for t, c in setup]
        meta.update(repeats=REPEATS, tail_percentile=wl.tail_pct, tail_samples=len(lat),
                    tail_samples_beyond=times.pop("tail_samples_beyond"), setup_probes=setup,
                    as_measured=dict(time_metrics(measured, wl.tail_pct),
                                     setup_s=statistics.median(t for t, _ in setup)))
        metrics = {
            "ops_per_s": (times["ops_per_s"], "op/s"),
            "latency_p50_ms": (times["latency_p50_ms"], "ms"),
            "latency_tail_ms": (times["latency_tail_ms"], "ms"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    print("meta " + json.dumps(meta))
    print(f"failed_frac {meta['failed_frac']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
