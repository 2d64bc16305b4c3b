"""Self-test of the reference checks: exact values pass, perturbed ones fail.

Runs at the start of every benchmark run, and alone with
`python3 bench/selftest.py` (exit code 0 when every case behaves).
"""

from __future__ import annotations

import sys

import numpy as np

import reference as R


def run():
    """Return a list of cases that did not behave; empty when all did."""
    bad = []

    def expect(label, problems, should_fail):
        if bool(problems) != should_fail:
            bad.append(f"{label}: expected {'failure' if should_fail else 'pass'}, got {problems}")

    rng = np.random.default_rng(20260814)
    p = 0.6
    werner = R.Reference(R.werner_state(p), "werner", p=p)
    v = R.pure_vector(rng)
    pure = R.Reference(R.pure_state(v), "pure", vector=v)
    mixed = R.Reference(R.hs_state(rng))

    # closed forms agree with the spectrum-based route, and the paper's polynomial with det
    for ref in (werner, pure):
        generic = R.Reference(ref.rho)
        expect(f"{ref.kind} closed forms vs spectrum",
               R.check_witness(generic.det, ref) + R.check_measures(generic.negativity, generic.concurrence, generic)
               + ([] if abs(generic.concurrence - ref.concurrence) <= R.MIXED_C_ATOL else ["C differs"]),
               False)
    for ref in (werner, pure, mixed):
        expect(f"{ref.kind} polynomial vs det", R.check_witness(R.witness_polynomial(*ref.moments), ref), False)

    pi2, pi3, pi4 = mixed.moments
    expect("exact moments", R.check_moments("t", mixed.moments, mixed), False)
    expect("moment perturbed by 1e-9", R.check_moments("t", (pi2, pi3 + 1e-9, pi4), mixed), True)
    expect("witness perturbed by 1e-11", R.check_witness(mixed.det + 1e-11, mixed), True)

    table = np.array([(1 + pi3) / 4, (1 - pi3) / 4, (1 - pi3) / 4, (1 + pi3) / 4])
    expect("exact table", R.check_table(3, table, mixed), False)
    expect("table mass moved by 1e-9", R.check_table(3, table + [1e-9, -1e-9, 0, 0], mixed), True)
    expect("table not normalised", R.check_table(3, table * (1 + 1e-9), mixed), True)

    for ref in (werner, pure, mixed):
        expect(f"{ref.kind} corridor", R.check_corridor(ref.w, ref.negativity, ref.concurrence), False)
    expect("Werner N below the lower edge",
           R.check_corridor(werner.w, werner.negativity * (1 - 1e-6), werner.concurrence), True)
    expect("pure C above the upper edge", R.check_corridor(pure.w, pure.negativity, pure.concurrence * (1 + 1e-6)), True)
    expect("N above C", R.check_corridor(mixed.w, mixed.concurrence + 1e-6, mixed.concurrence), True)

    c = 0.3
    expect("exact inverse", R.check_inverse(R.forward_map(c), c), False)
    expect("inverse off by 1e-8", R.check_inverse(R.forward_map(c), c * (1 + 1e-8)), True)

    shots = 100_000
    probs = np.array([(1 + pi4) / 4, (1 - pi4) / 4, (1 - pi4) / 4, (1 + pi4) / 4])
    counts = np.random.default_rng(1).multinomial(shots, probs)
    expect("sampled counts", R.check_counts(4, counts, shots, mixed), False)
    expect("counts missing a shot", R.check_counts(4, counts - [1, 0, 0, 0], shots, mixed), True)
    expect("counts about 20 SE off", R.check_counts(4, counts + [3000, -3000, 0, 0], shots, mixed), True)
    return bad


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print("FAIL", line)
    print("selftest:", "FAIL" if failures else "PASS")
    sys.exit(1 if failures else 0)
