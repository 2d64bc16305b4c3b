"""Command-line front end.

Four commands, selected with --command:

  report    witness, bounds, and three-route moments for one state (JSON)
  scatter   Monte Carlo sweep of (w, negativity, concurrence) rows (CSV)
  verify    the paper's claims on random states, one PASS/FAIL line each (text)
  simulate  finite-shot estimation with a bootstrap interval (JSON)

verify runs the uwitness.checks functions that tests/test_acceptance.py
runs too.  Each returns its own (passed, figures, state), so this module
writes no threshold and judges no figure: verify prints the verdict, and a
FAIL line of a check on states ends with 'at sample i of --seed s --ensemble
k', the state that reproduces it; scatter judges each block with
checks.corridor and names its first state outside; report's
max_moment_deviation is checks.route_spread, the rule the route checks
apply.  Suite -> acceptance criterion: moment routes -> 3, projector
composition -> none (verify only), spectra and projection count -> 4,
stage-1 nondemolition -> 6, invariant route and local-unitary drift -> 5,
witness = det -> 2, bound corridor -> 1.  verify's operator suites work on
the basis permutations of the swap layers (see uwitness.checks); report,
scatter and simulate run on the permutation traces alone.

--state is a name, a state by construction, or a JSON file that must pass
states.validate (exit 1 otherwise).  simulate samples any such state: a third
of --shots for each of n = 2, 3, 4 (the remainder to n = 4, then n = 3) and
1000 bootstrap resamples; other splits and counts are library calls.

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


# scatter evaluates its states in blocks of this many: one witness_report call
# per block, whose numpy work (the states and their spectra) is bounded by the
# block, not by --samples; so is the state gate's record of the last block,
# about 0.6 KB a state, kept until the next gated call; the CSV rows
# themselves are all kept until the end
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
                   help="nonnegative RNG seed; required for scatter and simulate")
    p.add_argument("--out", help="output path (default: stdout)")
    return p


def _load_state(spec):
    """Resolve --state into rho.  Named states and files are split by
    grammar: anything matching a known name (with optional :param) is named."""
    if spec is None:
        raise UsageError("--state is required for this command")
    head = spec.partition(":")[0].strip()
    if head in states.NAMED_STATES:
        try:
            return states.named_state(spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not os.path.exists(spec):
        raise UsageError(f"state {spec!r} is neither a known name nor an existing file")
    try:
        raw = states.load_state(spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not read state file {spec!r}: {exc}") from None
    try:
        return states.validate(raw)
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
    rho = _load_state(args.state)
    rep = witness_report(rho)
    sets = (moments_direct(rho), moments_collective(rho), moments_via_invariants(rho))
    doc = {"state": args.state}
    doc.update(rep.as_dict())
    doc["moments"] = {m.source: {"pi2": m.pi2, "pi3": m.pi3, "pi4": m.pi4} for m in sets}
    # the largest spread between the routes over the three moments
    doc["max_moment_deviation"] = float(checks.route_spread([m.as_tuple() for m in sets]).max())
    return json.dumps(doc, indent=2) + "\n", 0


def cmd_scatter(args):
    seed = _require_seed(args)
    sampler = states.StateSampler(args.ensemble, seed)
    lines = ["w,negativity,concurrence"]
    for start in range(0, args.samples, SCATTER_BLOCK):
        rep = witness_report(sampler.sample(min(SCATTER_BLOCK, args.samples - start)))
        w, lo, n, c = rep.w, rep.lower_bound, rep.negativity, rep.concurrence
        inside, _, i = checks.corridor(rep)
        if not inside:
            raise CheckFailure(
                f"bound violation at sample {start + i} of --seed {seed}: "
                f"f(w)={lo[i].item()!r} N={n[i].item()!r} C={c[i].item()!r} "
                f"w^(1/4)={rep.upper_bound[i].item()!r} w={w[i].item()!r}"
            )
        lines += [f"{wi!r},{ni!r},{ci!r}" for wi, ni, ci in zip(w.tolist(), n.tolist(), c.tolist())]
    return "\n".join(lines) + "\n", 0


def cmd_simulate(args) -> tuple:
    rho = _load_state(args.state)
    seed = _require_seed(args)
    if args.shots is None or args.shots < 1:
        raise UsageError("--shots must be a positive total shot budget")
    # equal thirds for n = 2, 3, 4; the remainder goes to n = 4, then n = 3
    third, rest = divmod(args.shots, 3)
    alloc = [third + (k >= 3 - rest) for k in range(3)]
    if third < 1:
        raise UsageError(f"shot budget {args.shots} starves a moment: n = 2, 3, 4 need a shot each")

    *record_seeds, bootstrap_seed = _derived_seeds(seed, len(COPY_COUNTS) + 1)
    try:
        records = [sample_shots(rho, n, alloc[k], record_seeds[k]) for k, n in enumerate(COPY_COUNTS)]
    except ValueError as exc:  # rho passed validate: a share of --shots past the count bound
        raise UsageError(str(exc)) from None
    est = estimate(records, seed=bootstrap_seed)
    truth = witness_value(moments_direct(rho))
    doc = {
        "state": args.state,
        "seed": seed,
        "shots": args.shots,
        "counts": {str(r.n_copies): [int(c) for c in r.counts] for r in records},
        "estimate": est.as_dict(),
        "true_witness": truth,
        "ci_covers_truth": bool(est.ci_low <= truth <= est.ci_high),
    }
    return json.dumps(doc, indent=2) + "\n", 0


def _verify_suites(kind: str, samples: int, seed: int):
    """Yield (name, describe, verdict) per uwitness.checks claim: the claim's
    own (passed, figures, state) and how verify prints its figures.  Every
    check on states takes them as one stack."""
    batch = states.StateSampler(kind, seed).sample(samples)
    lu_rng = np.random.default_rng(_derived_seeds(seed, 1)[0])
    max_dev = "max dev {:.2e}".format
    yield "moment routes agree (direct/cycle/observable/sequential)", max_dev, checks.moment_routes(batch)
    yield "pairwise-composed projectors equal (I +/- layer)/2", max_dev, checks.projector_composition()
    yield ("observable spectra and projection count",
           lambda found: f"n=3 {list(found[0])}, n=4 {list(found[1])}, count {found[2]}", checks.spectra_and_count())
    yield "stage-1 parity is nondemolition on the symmetrized stack", max_dev, checks.nondemolition()
    yield "invariant combinations reproduce the moments", max_dev, checks.invariant_route(batch)
    yield ("invariants unchanged under local unitaries", max_dev,
           checks.local_unitary_drift(batch[: max(1, samples // 20)], lu_rng, 10))
    yield "witness polynomial equals det of the partial transpose", max_dev, checks.witness_det(batch)
    yield ("bound corridor f(w) <= N <= C <= w^(1/4)", "worst slack {0[0]:.2e}, worst C^4 - w {0[1]:.2e}".format,
           checks.corridor(witness_report(batch)))


def cmd_verify(args):
    seed = args.seed if args.seed is not None else 0
    lines = []
    all_ok = True
    for name, describe, (ok, figures, state) in _verify_suites(args.ensemble, args.samples, seed):
        all_ok = all_ok and ok
        where = "" if ok or state is None else f" at sample {state} of --seed {seed} --ensemble {args.ensemble}"
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {describe(figures)}{where}")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0 (numpy seeds are nonnegative), got {args.seed}")
    if args.samples < 1:
        parser.error(f"argument --samples: must be >= 1, got {args.samples}")
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
