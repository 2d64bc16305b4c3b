"""How fast does the finite-shot witness estimate converge?

Simulates the three sequential parity measurements at increasing shot
budgets, tracks the RMS error of the plug-in witness against the exact
value, and shows a single bootstrap confidence interval in detail.
The error should shrink roughly like 1/sqrt(shots): a 4x budget buys
about half the error.
"""

import numpy as np

from uwitness import (
    estimate,
    moment_estimate,
    moments_direct,
    sample_shots,
    witness_polynomial,
    witness_value,
)
from uwitness.states import werner


def plugin_witness(rho, shots, seeds):
    hats = [moment_estimate(sample_shots(rho, n, shots, int(s))) for n, s in zip((2, 3, 4), seeds)]
    return witness_polynomial(*hats)


def rms_error(rho, shots, trials, seed):
    """RMS error over `trials` runs; the three records of trial t draw from
    SeedSequence([seed, shots, t]), one stream per (budget, trial)."""
    exact = witness_value(moments_direct(rho))
    errs = np.array([
        plugin_witness(rho, shots, np.random.SeedSequence([seed, shots, t]).generate_state(3)) - exact
        for t in range(trials)
    ])
    return float(np.sqrt(np.mean(errs**2)))


def main():
    rho = werner(0.7)
    exact = witness_value(moments_direct(rho))
    print(f"target: Werner state p = 0.7, exact witness = {exact:+.8f}\n")

    print(f"{'shots/moment':>14} {'RMS error':>12} {'ratio to prev':>14}")
    prev = None
    for shots in (1_000, 4_000, 16_000, 64_000):
        r = rms_error(rho, shots, trials=60, seed=5_000)
        note = f"{prev / r:>14.2f}" if prev is not None else f"{'-':>14}"
        print(f"{shots:>14,} {r:>12.2e} {note}")
        prev = r

    print("\none run at 50,000 shots per moment, with a bootstrap interval:")
    recs = [sample_shots(rho, n, 50_000, seed=777 + n) for n in (2, 3, 4)]
    est = estimate(recs, resamples=2_000, seed=778)
    lo, hi = est.ci_low, est.ci_high
    print(f"  estimate {est.witness_hat:+.6f}, 95% CI [{lo:+.6f}, {hi:+.6f}]")
    print(f"  exact    {exact:+.6f} ({'inside' if lo <= exact <= hi else 'outside'} the interval)")
    verdict = "entangled at 95% confidence" if hi < 0.0 else "not resolved from zero"
    print(f"  verdict from the interval alone: {verdict}")


if __name__ == "__main__":
    main()
