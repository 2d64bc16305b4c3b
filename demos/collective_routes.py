"""The same three moments, four different ways.

The n-th moment of the partially transposed state is (1) a trace of matrix
powers, (2) a two-layer swap expectation on n copies, (3) half the
expectation of the squared layer sum minus one, and (4) a signed sum of four
sequential parity probabilities.  This script prints all four on a random
state, then shows the small spectra that make the collective scheme cheap:
seven projective outcomes cover everything.
"""

import numpy as np

from uwitness import (
    moment_cycle,
    moment_via_observable,
    moments_direct,
    outcome_probabilities,
)
from uwitness.checks import spectra_and_count
from uwitness.states import random_mixed_state, singlet


def show_state(rho, label):
    print(f"\n=== {label} ===")
    direct = moments_direct(rho)
    for n, d in zip((2, 3, 4), direct.as_tuple()):
        table = outcome_probabilities(rho, n)
        row = [f"direct {d:+.12f}", f"cycle {moment_cycle(rho, n):+.12f}"]
        if n >= 3:
            row.append(f"squared-sum {moment_via_observable(rho, n):+.12f}")
        row.append(f"sequential {table.moment:+.12f}")
        print(f"  n={n}:  " + "   ".join(row))
        probs = ", ".join(f"{p:.6f}" for p in table.as_vector())
        print(f"        outcome probabilities (++, +-, -+, --): {probs}")


def main():
    show_state(singlet(), "singlet")
    show_state(random_mixed_state(np.random.default_rng(6)), "random mixed state (seed 6)")

    s3, s4, count = spectra_and_count()
    print("\n=== why only seven projections ===")
    print(f"  n=2: one two-outcome parity per stage          -> 2 outcomes")
    print(f"  n=3: squared layer sum has spectrum {s3} -> 2 outcomes")
    print(f"  n=4: squared layer sum has spectrum {s4} -> 3 outcomes")
    print(f"  total distinct projective outcomes: {count}")


if __name__ == "__main__":
    main()
