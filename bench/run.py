"""uwitness benchmark: one closed-loop workload per run, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the library is imported from src/ next to this
directory, and BENCHMARK.json at the repository root names the workloads
and the metrics.  With --trace 0 the result carries the end-to-end metrics,
with --trace 1 the per-layer ones.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and the line before it, starting with "env ", records the environment.
See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WARMUP_S = 2.0   # in-process workloads; the cli set-up starts warm the file cache
# median time of workloads.Calibration in corridor runs on the reference
# machine (see README); ops_per_s is scaled to the host speed it stands for
NOMINAL_CAL_S = 0.0022


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(n):
    """Cap every BLAS/OpenMP thread variable at n; children inherit them."""
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= n
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(n)


def environment(n):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": n,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(name, traced, env):
    """Median over SETUP_REPEATS fresh interpreters of the time from start to
    first result (imports plus the first call of each route), after one
    untimed warm-up start; with tracing, the median time spent in the
    collective layer during those first calls."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "setup", name, "1" if traced else "0"]
    times, first = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child for {name} failed ({proc.returncode}): {err[-500:]}")
        if i:
            times.append(elapsed)
            first.append(json.loads(line)["collective_first_call_s"])
    return statistics.median(times), (statistics.median(first) if traced else None)


def run_loop(wl, seconds, tally, warmup_s, calibrate):
    """Closed loop: whole rounds, back to back.  Rounds in the first
    `warmup_s` are checked and counted but not timed; then rounds run until
    `seconds` more have passed and the workload's minimum number of timed
    rounds is done.  With `calibrate`, the calibration runs before and after
    every timed round.

    Returns the medians over timed rounds of operations per second of
    program time (scaled to the nominal host speed when calibrated), of the
    same as measured, and of the calibration time (None if not calibrated)."""
    index = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < warmup_s:
        wl.round(index, tally)
        index += 1
    first = index
    rates, raw, cal = [], [], []
    t0 = time.perf_counter()
    while index - first < wl.min_rounds or time.perf_counter() - t0 < seconds:
        ops, busy, cal_s, cal_n = tally.ops, tally.busy_s, tally.cal_s, tally.cal_n
        if calibrate:
            tally.calibrate()
        wl.round(index, tally)
        if calibrate:
            tally.calibrate()
        if tally.busy_s > busy:
            raw.append((tally.ops - ops) / (tally.busy_s - busy))
            if calibrate:
                cal.append((tally.cal_s - cal_s) / (tally.cal_n - cal_n))
                rates.append(raw[-1] * cal[-1] / NOMINAL_CAL_S)
        index += 1
    if hasattr(wl, "finish"):
        wl.finish(tally)
    if not raw:   # only when every operation raised
        return 0.0, 0.0, None
    if not calibrate:
        return statistics.median(raw), statistics.median(raw), None
    return statistics.median(rates), statistics.median(raw), statistics.median(cal)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uwitness", "__init__.py")) or not os.path.isfile(SPEC):
        print(f"bench: no uwitness sources under {SRC} or no {SPEC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    n = nproc()
    cap_threads(n)
    sys.path.insert(0, SRC)
    import uwitness

    if os.path.dirname(os.path.abspath(uwitness.__file__)) != os.path.join(SRC, "uwitness"):
        print(f"bench: imported uwitness from {uwitness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import selftest
    import spans
    import workloads

    bad = selftest.run()
    if bad:
        print("bench: reference self-test failed:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    env_info = environment(n)
    print("env " + json.dumps(env_info), flush=True)

    traced = bool(args.trace)
    child_env = workloads.child_env(SRC)
    try:
        setup_s, first_call_s = measure_setup(args.workload, traced, child_env)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    cls = workloads.WORKLOADS[args.workload]
    is_cli = issubclass(cls, workloads.Cli)
    tally = workloads.Tally()
    if is_cli:
        wl = cls(args.seed, SRC, traced)
    else:
        wl = cls(args.seed)
        cls.first_calls()              # lazy set-up happens before timing
        if traced:
            tracer = spans.Tracer()
            tracer.install()
    ops_per_s, raw_ops_per_s, cal_s = run_loop(wl, args.seconds, tally, 0.0 if is_cli else WARMUP_S,
                                               calibrate=not is_cli)
    print("host " + json.dumps({"raw_ops_per_s": raw_ops_per_s, "calibration_s": cal_s,
                                "nominal_calibration_s": NOMINAL_CAL_S}), flush=True)

    if traced:
        trace = spans.merge(wl.traces) if is_cli else {"spans": tracer.spans, "counts": tracer.counts}
        values = spans.summarize(trace, tally.ops, wl.main_s if is_cli else None)
        values["cli.import_s"] = statistics.median(wl.import_s) if is_cli and wl.import_s else 0.0
        values["collective.first_call_s"] = first_call_s
        values["trace.ops_per_s"] = ops_per_s
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans.write(os.path.join(TRACE_DIR, f"{args.workload}.json"), trace, env_info)
        wanted = spec["per_layer"]
    else:
        peak_kb = wl.peak_rss_kb if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "ops_per_s": ops_per_s,
        }
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    for line in tally.problems[:20]:
        print("bench: check failed:", line, file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
