"""Spans around the public functions of uwitness, recorded from outside.

`Tracer.install()` replaces every public function of the seven modules with
a wrapper, in every uwitness namespace that holds it (so the names other
modules import, such as `uwitness.simulate.outcome_probabilities` and the
functions `uwitness.cli` imports, are traced too).  A span is
(name, start_ns, end_ns, parent_index); spans stay in memory and
`summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("states", "linalg", "witness", "invariants", "collective", "simulate", "cli")

# per-call inclusive time, in microseconds: metric -> span names averaged over
MEAN_US = {
    "states.validate_us": ("states.validate",),
    "states.sample_us": ("states.random_mixed_state", "states.random_pure_state"),
    "linalg.partial_transpose_us": ("linalg.partial_transpose",),
    "linalg.tensor_power_us": ("linalg.tensor_power",),
    "witness.moments_direct_us": ("witness.moments_direct",),
    "witness.negativity_us": ("witness.negativity",),
    "witness.concurrence_us": ("witness.concurrence",),
    "witness.bounds_us": ("witness.bounds",),
    "witness.witness_report_us": ("witness.witness_report",),
    "invariants.decompose_us": ("invariants.decompose",),
    "invariants.makhlin_us": ("invariants.makhlin",),
    "invariants.moments_via_invariants_us": ("invariants.moments_via_invariants",),
    "collective.outcome_probabilities_n2_us": ("collective.outcome_probabilities_n2",),
    "collective.outcome_probabilities_n3_us": ("collective.outcome_probabilities_n3",),
    "collective.outcome_probabilities_n4_us": ("collective.outcome_probabilities_n4",),
    "collective.moments_collective_us": ("collective.moments_collective",),
    "collective.moment_cycle_us": ("collective.moment_cycle",),
    "collective.moment_via_observable_us": ("collective.moment_via_observable",),
    "simulate.estimate_us": ("simulate.estimate",),
}


def _outcome_name(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return f"collective.outcome_probabilities_n{n}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, name_of=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name_of(args, kwargs) if name_of else name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_shots(self, record):
        self.counts["simulate.shots_drawn"] += int(record.shots)

    def install(self):
        """Wrap every public function of the seven modules, wherever it is bound."""
        mods = {m: importlib.import_module(f"uwitness.{m}") for m in MODULES}
        special = {
            "collective.outcome_probabilities": {"name_of": _outcome_name},
            "simulate.sample_shots": {"on_result": self._count_shots},
        }
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, **special.get(name, {})))
        for modname, mod in list(sys.modules.items()):
            if modname != "uwitness" and not modname.startswith("uwitness."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        sampler = mods["states"].StateSampler
        sampler.sample = self.wrap("states.StateSampler.sample", sampler.sample)

    def export(self):
        """Spans as plain lists (name, start_ns, end_ns, parent) plus counts."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def merge(parts):
    """Concatenate exported span lists from several processes, re-basing parents."""
    spans, counts = [], defaultdict(int)
    for part in parts:
        base = len(spans)
        for name, start, end, parent in part["spans"]:
            spans.append((name, start, end, parent + base if parent >= 0 else -1))
        for key, value in part["counts"].items():
            counts[key] += value
    return {"spans": spans, "counts": dict(counts)}


def collective_seconds(spans):
    """Time inside the collective layer: collective spans not nested in another."""
    total = 0
    for name, start, end, parent in spans:
        if name.startswith("collective.") and (parent < 0 or not spans[parent][0].startswith("collective.")):
            total += end - start
    return total / 1e9


def summarize(trace, ops, main_s=None):
    """Per-layer metrics from spans; module calls and self time are per operation.

    `main_s` maps each CLI command to the wall times of its `cli.main`
    calls, whose mean gives `cli.<command>_main_s` (0 when not run).
    """
    spans, counts = trace["spans"], trace["counts"]
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, incl, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += end - start - child_ns[i]

    def mean_us(names, table=incl):
        n = sum(calls[x] for x in names)
        return sum(table[x] for x in names) / n / 1e3 if n else 0.0

    out = {metric: mean_us(names) for metric, names in MEAN_US.items()}
    out["simulate.sample_shots_self_us"] = mean_us(("simulate.sample_shots",), self_ns)
    records = calls["simulate.sample_shots"]
    builds = sum(1 for name, _, _, parent in spans
                 if name.startswith("collective.outcome_probabilities")
                 and parent >= 0 and spans[parent][0] == "simulate.sample_shots")
    out["simulate.distribution_builds_per_record"] = builds / records if records else 0.0
    out["simulate.shots_drawn"] = counts.get("simulate.shots_drawn", 0) / ops
    for name in ("report", "scatter", "verify", "simulate"):
        times = (main_s or {}).get(name)
        out[f"cli.{name}_main_s"] = sum(times) / len(times) if times else 0.0
    for m in MODULES:
        names = [x for x in calls if x.startswith(m + ".")]
        out[f"{m}.calls"] = sum(calls[x] for x in names) / ops
        out[f"{m}.self_s"] = sum(self_ns[x] for x in names) / 1e9 / ops
    return out


def write(path, trace, env):
    """Write the spans once, at the end of a run, in a compact form."""
    names = sorted({s[0] for s in trace["spans"]})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({
            "env": env,
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in trace["spans"]],
            "counts": trace["counts"],
        }, fh, separators=(",", ":"))
