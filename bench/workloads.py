"""The benchmark's workloads: closed loops of whole rounds, one caller each.

corridor, collective and shots call the library in this process; cli starts
one fresh interpreter per command.  Inputs come from the
run's seed through this file's own numpy code (see reference.py), never from
the program's samplers or seeding.  Each operation is timed around the
program's calls only; generating inputs and checking outputs stay outside
the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

import uwitness.collective as C
import uwitness.invariants as I
import uwitness.simulate as M
import uwitness.states as S
import uwitness.witness as W

import reference as R

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
COPY_COUNTS = (2, 3, 4)
CHILD_TIMEOUT_S = 150
CAL_SEED, CAL_STATES, CAL_DIM = 0, 16, 128


class Calibration:
    """A fixed piece of numpy work that shares no code with uwitness: the
    reference spectra of CAL_STATES fixed states and one CAL_DIM-square
    complex product.  Timed before and after every round of an in-process
    workload, it tracks how fast the shared host runs at that moment."""

    def __init__(self):
        rng = np.random.default_rng(CAL_SEED)
        self.states = [R.hs_state(rng) for _ in range(CAL_STATES)]
        self.dense = rng.standard_normal((CAL_DIM, CAL_DIM)) + 1j * rng.standard_normal((CAL_DIM, CAL_DIM))

    def __call__(self):
        t0 = time.perf_counter()
        for rho in self.states:
            R.Reference(rho)
        self.dense @ self.dense
        return time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, program time, calibration time and
    unexpected problems."""

    def __init__(self):
        self.attempted = self.failed = self.ops = self.cal_n = 0
        self.busy_s = self.cal_s = 0.0
        self.problems = []
        self._calibration = Calibration()

    def calibrate(self):
        self.cal_s += self._calibration()
        self.cal_n += 1

    def record(self, problems, known_fault=False):
        """One attempted operation.  A failure is a correctness error unless it
        is the known `lower_bound` fault, which only counts as failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.problems.extend(problems)


def _guarded(tally, label, fn):
    """Run one operation; an exception is a failed operation with its message."""
    try:
        return fn()
    except Exception as exc:  # the benchmark must report, not crash, on a program error
        tally.record([f"{label}: {type(exc).__name__}: {exc}"])
        return None


def _seeds(seed, index, k):
    return [int(x) for x in np.random.SeedSequence([seed, index]).generate_state(k)]


# ---- corridor ---------------------------------------------------------------

CORRIDOR_MIX = (("mixed", 8), ("pure", 4), ("werner", 4))  # states per round
NEAR_PPT = (0.34, 0.40)                                     # Werner p range


def _states(rng, mix, werner_range):
    for kind, count in mix:
        for _ in range(count):
            if kind == "mixed":
                yield R.Reference(R.hs_state(rng))
            elif kind == "pure":
                v = R.pure_vector(rng)
                yield R.Reference(R.pure_state(v), "pure", vector=v)
            else:
                p = float(rng.uniform(*werner_range))
                yield R.Reference(R.werner_state(p), "werner", p=p)


def corridor_first_calls():
    rho = R.hs_state(np.random.default_rng(0))
    S.validate(rho), W.moments_direct(rho), I.moments_via_invariants(rho)
    W.witness_report(rho), W.negativity(rho), W.concurrence(rho), W.bounds(0.5)


class Corridor:
    """Scatter/report path: validate, two moment routes, report, N, C, bounds;
    plus the fixed lower_bound inversion grid."""

    min_rounds = 1
    first_calls = staticmethod(corridor_first_calls)

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.grid = R.inverse_grid()

    def round(self, index, tally):
        for ref in list(_states(self.rng, CORRIDOR_MIX, NEAR_PPT)):
            rho = ref.rho

            def calls():
                t0 = time.perf_counter()
                out = (S.validate(rho), W.moments_direct(rho), I.moments_via_invariants(rho),
                       W.witness_report(rho), W.negativity(rho), W.concurrence(rho))
                out += (W.bounds(out[3].w),)
                tally.busy_s += time.perf_counter() - t0
                tally.ops += 1
                return out

            out = _guarded(tally, f"corridor state ({ref.kind})", calls)
            if out is not None:
                tally.record(_check_corridor_state(ref, *out))
        for w in self.grid:
            c = _guarded(tally, f"lower_bound({w:.1e})", lambda: W.lower_bound(w))
            if c is not None:
                tally.record(R.check_inverse(w, c), known_fault=True)


def _check_corridor_state(ref, valid, direct, invariants, rep, neg, con, bounds):
    problems = [] if np.array_equal(valid, ref.rho) else ["validate changed the state"]
    problems += R.check_moments("direct", direct.as_tuple(), ref)
    problems += R.check_moments("invariants", invariants.as_tuple(), ref)
    problems += R.check_witness(rep.witness, ref)
    problems += R.check_measures(neg, con, ref)
    if (rep.negativity, rep.concurrence) != (neg, con):
        problems.append("witness_report measures differ from negativity/concurrence")
    if abs(rep.w - ref.w) > R.W_ATOL:
        problems.append(f"w {rep.w!r} vs reference {ref.w!r}")
    if abs(ref.det + 1e-12) > 1e-14 and rep.entangled != (ref.det < -1e-12):
        problems.append(f"entangled={rep.entangled} for det {ref.det!r}")
    problems += R.check_corridor(ref.w, neg, con)
    # C <= hi is not checked directly: near w = 0, w**(1/4) turns w's ~1e-15
    # absolute error into ~1e-9 in hi, so hi is checked through its forward map
    lo, hi = bounds
    if abs(hi ** 4 - rep.w) > 1e-12 * rep.w or lo > neg + R.MEASURE_ATOL:
        problems.append(f"bounds ({lo!r}, {hi!r}) inconsistent with w={rep.w!r}, N={neg!r}")
    return problems


# ---- collective -------------------------------------------------------------

COLLECTIVE_MIX = (("mixed", 2), ("pure", 1), ("werner", 1))


def collective_first_calls():
    rho = R.hs_state(np.random.default_rng(0))
    for n in COPY_COUNTS:
        C.outcome_probabilities(rho, n), C.moment_cycle(rho, n)
    C.moments_collective(rho), C.moment_via_observable(rho, 3), C.moment_via_observable(rho, 4)


class Collective:
    """Every state fresh: outcome tables, moments_collective, cycle and observable routes."""

    min_rounds = 1
    first_calls = staticmethod(collective_first_calls)

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def round(self, index, tally):
        for ref in list(_states(self.rng, COLLECTIVE_MIX, (0.0, 1.0))):
            rho = ref.rho

            def calls():
                t0 = time.perf_counter()
                out = ([C.outcome_probabilities(rho, n) for n in COPY_COUNTS],
                       C.moments_collective(rho),
                       [C.moment_cycle(rho, n) for n in COPY_COUNTS],
                       [C.moment_via_observable(rho, n) for n in (3, 4)])
                tally.busy_s += time.perf_counter() - t0
                tally.ops += 1
                return out

            out = _guarded(tally, f"collective state ({ref.kind})", calls)
            if out is None:
                continue
            tables, moments, cycle, observable = out
            problems = []
            for n, table in zip(COPY_COUNTS, tables):
                problems += R.check_table(n, table.as_vector(), ref)
            problems += R.check_moments("collective", moments.as_tuple(), ref)
            for n, value in zip(COPY_COUNTS, cycle):
                problems += R.check_moment("cycle", n, value, ref)
            for n, value in zip((3, 4), observable):
                problems += R.check_moment("observable", n, value, ref)
            tally.record(problems)


# ---- shots ------------------------------------------------------------------

WERNER_LADDER = (0.35, 0.5, 0.65, 0.8)
HS_FIXED = 2
SHOTS = 100_000
RESAMPLES = 1000
MIN_COVERAGE = 0.90
SHOTS_MIN_ROUNDS = 40   # 240 experiments: enough for the coverage check to mean something


def shots_first_calls():
    rho = R.hs_state(np.random.default_rng(0))
    recs = [M.sample_shots(rho, n, SHOTS, n) for n in COPY_COUNTS]
    M.estimate(recs, resamples=RESAMPLES, seed=0)


class Shots:
    """A few fixed states, one seeded experiment per state each round: three
    records of SHOTS shots and a bootstrap of RESAMPLES resamples."""

    min_rounds = SHOTS_MIN_ROUNDS
    first_calls = staticmethod(shots_first_calls)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.refs = [R.Reference(R.werner_state(p), "werner", p=p) for p in WERNER_LADDER]
        self.refs += [R.Reference(R.hs_state(rng)) for _ in range(HS_FIXED)]
        self.experiments = self.covered = 0

    def round(self, index, tally):
        for k, ref in enumerate(self.refs):
            seeds = _seeds(self.seed, index * len(self.refs) + k, 4)

            def calls():
                t0 = time.perf_counter()
                recs = [M.sample_shots(ref.rho, n, SHOTS, s) for n, s in zip(COPY_COUNTS, seeds)]
                est = M.estimate(recs, resamples=RESAMPLES, seed=seeds[3])
                tally.busy_s += time.perf_counter() - t0
                tally.ops += 1
                return recs, est

            out = _guarded(tally, "experiment", calls)
            if out is None:
                continue
            recs, est = out
            problems = []
            for n, rec in zip(COPY_COUNTS, recs):
                problems += R.check_counts(n, rec.counts, SHOTS, ref)
            hats = [R.signed_sum(r.counts) / SHOTS for r in recs]
            if max(abs(a - b) for a, b in zip(hats, (est.pi2_hat, est.pi3_hat, est.pi4_hat))) > 1e-15:
                problems.append("estimate moments differ from the counts")
            if abs(est.witness_hat - R.witness_polynomial(*hats)) > 1e-12 or not est.ci_low <= est.ci_high:
                problems.append(f"estimate {est.witness_hat!r} [{est.ci_low!r}, {est.ci_high!r}] inconsistent")
            self.experiments += 1
            self.covered += est.ci_low <= ref.det <= est.ci_high
            tally.record(problems)

    def finish(self, tally):
        coverage = self.covered / self.experiments if self.experiments else 0.0
        if coverage < MIN_COVERAGE:
            tally.problems.append(f"bootstrap coverage {coverage:.3f} over {self.experiments} "
                                  f"experiments is below {MIN_COVERAGE}")


# ---- cli --------------------------------------------------------------------

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one child to completion.

    Returns (wall_s, returncode, stdout, stderr, peak_rss_kb); the child is
    reaped with wait4 so that its own peak resident memory is known.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, out, err[0], usage.ru_maxrss


class Cli:
    """The four commands a user types, each in a fresh interpreter; one
    round runs report, scatter, verify and simulate once each.

    Untraced, the child is `python3 -m uwitness.cli ...`, exactly the entry
    point; traced, it is child.py, which times the import and wraps the
    library before calling `uwitness.cli.main`.
    """

    min_rounds = 1
    # set-up time is a fresh interpreter up to this command's result
    setup_args = ["--command", "report", "--state", "werner:0.5"]

    def __init__(self, seed, src, traced):
        self.rng = np.random.default_rng(seed)
        self.env = child_env(src)
        self.traced = traced
        self.traces, self.import_s = [], []
        self.main_s = {name: [] for name, _ in CLI_COMMANDS}
        self.peak_rss_kb = 0

    def argv(self, args):
        if self.traced:
            return [sys.executable, os.path.join(BENCH_DIR, "child.py"), "command", *args]
        return [sys.executable, "-m", "uwitness.cli", *args]

    def round(self, index, tally):
        for name, make_input in CLI_COMMANDS:
            self.run_command(name, *make_input(self.rng), tally)

    def run_command(self, name, args, check, tally):
        wall, code, out, err, rss_kb = run_child(self.argv(args), self.env)
        tally.busy_s += wall
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        tally.ops += 1
        if self.traced:
            try:
                doc = json.loads(out.splitlines()[-1])
            except (ValueError, IndexError):
                tally.record([f"traced {name} printed no result: {err[-300:]}"])
                return
            code, out = doc["code"], doc["output"]
            self.traces.append(doc["trace"])
            self.import_s.append(doc["import_s"])
            self.main_s[name].append(sum(end - start for span, start, end, parent in doc["trace"]["spans"]
                                         if span == "cli.main" and parent < 0) / 1e9)
        if code != 0:
            tally.record([f"{name} exited {code}: {err[-300:]}"])
            return
        try:
            tally.record(check(out))
        except (ValueError, KeyError, TypeError) as exc:
            tally.record([f"{name} output unreadable: {exc}"])


def _werner_arg(rng, low, high):
    p = round(float(rng.uniform(low, high)), 6)
    return p, f"werner:{p!r}"


def report_input(rng):
    p, state = _werner_arg(rng, 0.4, 0.95)
    ref = R.Reference(R.werner_state(p), "werner", p=p)

    def check(text):
        doc = json.loads(text)
        problems = R.check_witness(doc["witness"], ref)
        problems += R.check_measures(doc["negativity"], doc["concurrence"], ref)
        for route, m in doc["moments"].items():
            problems += R.check_moments(route, (m["pi2"], m["pi3"], m["pi4"]), ref)
        if sorted(doc["moments"]) != ["collective", "direct", "invariants"]:
            problems.append(f"report has routes {sorted(doc['moments'])}")
        if abs(doc["w"] - ref.w) > R.W_ATOL or doc["entangled"] is not (p > 1 / 3):
            problems.append(f"w {doc['w']!r} / entangled {doc['entangled']} wrong for p={p}")
        problems += R.check_corridor(ref.w, doc["negativity"], doc["concurrence"])
        if abs(doc["upper_bound"] - ref.w ** 0.25) > 1e-12:
            problems.append(f"upper bound {doc['upper_bound']!r} is not w^(1/4)")
        problems += R.check_inverse(doc["w"], doc["lower_bound"])
        return problems

    return ["--command", "report", "--state", state], check


SCATTER_SAMPLES = 10_000


def scatter_input(rng):
    seed = int(rng.integers(2 ** 31))

    def check(text):
        rows = text.strip().split("\n")
        if rows[0] != "w,negativity,concurrence" or len(rows) != SCATTER_SAMPLES + 1:
            return [f"scatter printed {len(rows)} lines under header {rows[0]!r}"]
        for i, line in enumerate(rows[1:]):
            w, n, c = map(float, line.split(","))
            problems = R.check_corridor(w, n, c)
            if problems:
                return [f"scatter seed {seed} row {i}: " + "; ".join(problems)]
        return []

    return ["--command", "scatter", "--samples", str(SCATTER_SAMPLES), "--seed", str(seed)], check


VERIFY_SAMPLES = 200
VERIFY_SUITES = 8


def verify_input(rng):
    seed = int(rng.integers(2 ** 31))

    def check(text):
        lines = text.strip().split("\n")
        passed = sum(line.startswith("PASS ") for line in lines)
        if lines[-1] != "overall: PASS" or passed != VERIFY_SUITES:
            return [f"verify seed {seed}: {passed} suites passed, last line {lines[-1]!r}"]
        return []

    return ["--command", "verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)], check


SIMULATE_SHOTS = 30_000


def simulate_input(rng):
    p, state = _werner_arg(rng, 0.4, 0.95)
    seed = int(rng.integers(2 ** 31))
    ref = R.Reference(R.werner_state(p), "werner", p=p)

    def check(text):
        doc = json.loads(text)
        est = doc["estimate"]
        per_moment = {int(n): v for n, v in est["shots_per_moment"].items()}
        problems = []
        if sum(per_moment.values()) != SIMULATE_SHOTS or doc["shots"] != SIMULATE_SHOTS:
            problems.append(f"shots per moment {per_moment} do not sum to {SIMULATE_SHOTS}")
        hats = []
        for n in COPY_COUNTS:
            counts = doc["counts"][str(n)]
            problems += R.check_counts(n, counts, per_moment[n], ref)
            hats.append(R.signed_sum(counts) / per_moment[n])
        if max(abs(a - est[k]) for a, k in zip(hats, ("pi2_hat", "pi3_hat", "pi4_hat"))) > 1e-15:
            problems.append("estimated moments differ from the counts")
        problems += R.check_witness(doc["true_witness"], ref)
        covers = est["ci_low"] <= doc["true_witness"] <= est["ci_high"]
        if doc["ci_covers_truth"] is not covers or est["resamples"] != 1000:
            problems.append("interval, coverage flag or resample count inconsistent")
        return problems

    args = ["--command", "simulate", "--state", state, "--shots", str(SIMULATE_SHOTS),
            "--seed", str(seed)]
    return args, check


CLI_COMMANDS = (("report", report_input), ("scatter", scatter_input),
                ("verify", verify_input), ("simulate", simulate_input))


WORKLOADS = {
    "corridor": Corridor,
    "collective": Collective,
    "shots": Shots,
    "cli": Cli,
}


def setup_first_calls(name):
    """The first result of a fresh process: first call of each route the workload uses."""
    cls = WORKLOADS[name]
    if issubclass(cls, Cli):
        import uwitness.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = uwitness.cli.main(cls.setup_args)
        if code != 0:
            raise RuntimeError(f"{cls.setup_args} exited {code}")
    else:
        cls.first_calls()
