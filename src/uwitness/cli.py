"""Command-line front end.

Four commands, selected with --command:

  report    witness, bounds, and three-route moments for one state (JSON)
  scatter   Monte Carlo sweep of (w, negativity, concurrence) rows (CSV)
  verify    the paper's claims on random states, one PASS/FAIL line each (text)
  simulate  finite-shot estimation with a bootstrap interval (JSON)

verify runs the uwitness.checks functions that tests/test_acceptance.py
runs too.  Suite -> acceptance criterion: moment routes -> 3, projector
composition -> none (verify only), spectra and projection count -> 4,
stage-1 nondemolition -> 6, invariant route and local-unitary drift -> 5,
witness = det -> 2, bound corridor -> 1 (through checks.in_corridor, which
scatter applies to every row).  Only verify's projector, spectrum and
nondemolition suites build the dense 4^n-dimensional oracle of checks;
report, scatter and simulate run on the permutation traces alone.

simulate takes --split as three positive finite weights, scaled by the
largest before the shots are allotted, so no finite weight overflows.

Exit codes: 0 success, 1 a verification suite or state validation failed,
2 usage or file I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checks, states
from .collective import COPY_COUNTS, moments_collective
from .invariants import moments_via_invariants
from .simulate import estimate, sample_shots
from .witness import moments_direct, witness_report, witness_value


# scatter evaluates its states in blocks of this many: one call per layer per
# block, with a peak memory that does not grow with --samples
SCATTER_BLOCK = 1024


class UsageError(Exception):
    """Bad flags, bad state grammar, unreadable or malformed files (exit 2)."""


class CheckFailure(Exception):
    """A state failed validation or a verification check failed (exit 1)."""


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uwitness",
        description="Two-qubit entanglement witness from partial-transpose moments.",
    )
    p.add_argument(
        "--command",
        required=True,
        choices=("report", "scatter", "verify", "simulate"),
        help="what to run",
    )
    p.add_argument(
        "--state",
        help="named state ('singlet', 'phi_plus', 'werner:0.5', 'product:0.7', "
        "'pure_schmidt:0.8') or path to a JSON state file",
    )
    p.add_argument("--ensemble", choices=states.ENSEMBLE_KINDS, default="hs",
                   help="random ensemble for scatter/verify (default: hs)")
    p.add_argument("--samples", type=int, default=100,
                   help="number of random states (default: 100)")
    p.add_argument("--shots", type=int, help="total shot budget for simulate")
    p.add_argument("--seed", type=int,
                   help="RNG seed; required for scatter and simulate")
    p.add_argument("--bootstrap", type=int, default=1000,
                   help="bootstrap resamples for simulate (default: 1000)")
    p.add_argument("--split", default="1,1,1",
                   help="relative shot weights for the n=2,3,4 moments (default: 1,1,1)")
    p.add_argument("--out", help="output path (default: stdout)")
    return p


def _load_state(spec):
    """Resolve --state into (rho, label).  Named states and files are split by
    grammar: anything matching a known name (with optional :param) is named."""
    if spec is None:
        raise UsageError("--state is required for this command")
    head = spec.partition(":")[0].strip()
    if head in states.NAMED_STATES:
        try:
            return states.named_state(spec), spec
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not os.path.exists(spec):
        raise UsageError(f"state {spec!r} is neither a known name nor an existing file")
    try:
        raw = states.load_state(spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not read state file {spec!r}: {exc}") from None
    try:
        return states.validate(raw), spec
    except ValueError as exc:
        raise CheckFailure(str(exc)) from None


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError(f"--seed is required for {args.command} (no silent nondeterminism)")
    return args.seed


def _derived_seeds(seed: int, k: int) -> list:
    """k seeds drawn from np.random.SeedSequence(seed): unlike seed + i, they
    share no stream with a neighbouring --seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(k)]


def cmd_report(args):
    rho, label = _load_state(args.state)
    rep = witness_report(rho)
    sets = (moments_direct(rho), moments_collective(rho), moments_via_invariants(rho))
    doc = {"state": label}
    doc.update(rep.as_dict())
    doc["moments"] = {m.source: {"pi2": m.pi2, "pi3": m.pi3, "pi4": m.pi4} for m in sets}
    # the largest pairwise gap between routes, per moment
    doc["max_moment_deviation"] = max(max(v) - min(v) for v in zip(*(m.as_tuple() for m in sets)))
    return json.dumps(doc, indent=2) + "\n", 0


def cmd_scatter(args):
    seed = _require_seed(args)
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    sampler = states.StateSampler(args.ensemble, seed)
    lines = ["w,negativity,concurrence"]
    for start in range(0, args.samples, SCATTER_BLOCK):
        rep = witness_report(sampler.sample(min(SCATTER_BLOCK, args.samples - start)))
        w, lo, n, c = rep.w, rep.lower_bound, rep.negativity, rep.concurrence
        inside = np.broadcast_to(checks.in_corridor(w, lo, n, c), w.shape)
        if not inside.all():
            i = int(np.argmin(inside))
            raise CheckFailure(
                f"bound violation at sample {start + i} of --seed {seed}: "
                f"f(w)={lo[i].item()!r} N={n[i].item()!r} C={c[i].item()!r} "
                f"w^(1/4)={rep.upper_bound[i].item()!r} w={w[i].item()!r}"
            )
        lines += [f"{wi!r},{ni!r},{ci!r}" for wi, ni, ci in zip(w.tolist(), n.tolist(), c.tolist())]
    return "\n".join(lines) + "\n", 0


def cmd_simulate(args) -> tuple:
    rho, label = _load_state(args.state)
    seed = _require_seed(args)
    if args.shots is None or args.shots < 1:
        raise UsageError("--shots must be a positive total shot budget")
    if args.bootstrap < 1:
        raise UsageError(f"--bootstrap must be >= 1, got {args.bootstrap}")
    try:
        weights = [float(x) for x in args.split.split(",")]
    except ValueError:
        raise UsageError(f"could not parse --split {args.split!r}") from None
    # 0 < x < inf also rejects nan, which fails every comparison
    if len(weights) != 3 or not all(0.0 < x < np.inf for x in weights):
        raise UsageError("--split needs three positive finite numbers, e.g. 1,1,2")

    # largest-remainder allocation so the per-moment shots sum to the budget;
    # the weights are scaled to a largest weight of 1 first, so their sum
    # cannot overflow
    scaled = np.asarray(weights) / max(weights)
    raw = args.shots * scaled / scaled.sum()
    alloc = np.floor(raw).astype(int)
    for k in np.argsort(raw - np.floor(raw))[::-1][: args.shots - alloc.sum()]:
        alloc[k] += 1
    if alloc.min() < 1:
        raise UsageError(f"shot budget {args.shots} with split {args.split} starves a moment")

    *record_seeds, bootstrap_seed = _derived_seeds(seed, len(COPY_COUNTS) + 1)
    records = [
        sample_shots(rho, n, int(alloc[k]), record_seeds[k])
        for k, n in enumerate(COPY_COUNTS)
    ]
    est = estimate(records, resamples=args.bootstrap, seed=bootstrap_seed)
    truth = witness_value(moments_direct(rho))
    doc = {
        "state": label,
        "seed": seed,
        "shots": args.shots,
        "split": weights,
        "counts": {str(r.n_copies): [int(c) for c in r.counts] for r in records},
        "estimate": est.as_dict(),
        "true_witness": truth,
        "ci_covers_truth": bool(est.ci_low <= truth <= est.ci_high),
    }
    return json.dumps(doc, indent=2) + "\n", 0


def _verify_suites(kind: str, samples: int, seed: int):
    """Yield (name, detail, passed) rows, one uwitness.checks claim each, every
    check taking its states as one stack."""
    batch = states.StateSampler(kind, seed).sample(samples)
    lu_rng = np.random.default_rng(_derived_seeds(seed, 1)[0])

    def max_dev(name, dev, limit):
        return name, f"max dev {dev:.2e}", dev < limit

    yield max_dev("moment routes agree (direct/cycle/observable/sequential)",
                  checks.moment_routes(batch), 1e-10)
    yield max_dev("pairwise-composed projectors equal (I +/- layer)/2",
                  checks.projector_composition(), 1e-12)
    s3, s4, count = checks.spectra_and_count()
    yield ("observable spectra and projection count", f"n=3 {list(s3)}, n=4 {list(s4)}, count {count}",
           (s3, s4, count) == ((1.0, 4.0), (0.0, 2.0, 4.0), 7))
    yield max_dev("stage-1 parity is nondemolition on the symmetrized stack",
                  checks.nondemolition(batch[: max(1, samples // 10)]), 1e-12)
    yield max_dev("invariant combinations reproduce the moments",
                  checks.invariant_route(batch), 1e-10)
    yield max_dev("invariants unchanged under local unitaries",
                  checks.local_unitary_drift(batch[: max(1, samples // 20)], lu_rng, 10), 1e-9)
    yield max_dev("witness polynomial equals det of the partial transpose",
                  checks.witness_det(batch), 1e-10)
    slack, upper, inside = checks.corridor(batch)
    yield ("bound corridor f(w) <= N <= C <= w^(1/4)",
           f"worst slack {slack:.2e}, worst C^4 - w {upper:.2e}", inside)


def cmd_verify(args):
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    seed = args.seed if args.seed is not None else 0
    lines = []
    all_ok = True
    for name, detail, ok in _verify_suites(args.ensemble, args.samples, seed):
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "report": cmd_report,
        "scatter": cmd_scatter,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        text, code = handler(args)
    except UsageError as exc:
        print(f"uwitness: error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"uwitness: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"uwitness: error: could not write {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
