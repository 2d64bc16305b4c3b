"""Finite-shot simulation of the sequential parity measurements.

A record of N shots on n copies is one multinomial draw of N on the exact
four-outcome distribution of the two-stage measurement: that is the law of
the four counts of N independent shots, and it costs the same for any N.
The witness estimate plugs the three empirical moments into the witness
polynomial.  Its percentile bootstrap redraws each moment as
(2k - N)/N with k ~ Binomial(N, (c++ + c--)/N): the moment depends on the
even-parity count c++ + c-- alone, and that count is binomial under the
multinomial resample.  Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .collective import COPY_COUNTS, outcome_probabilities
from .witness import witness_polynomial

DEFAULT_RESAMPLES = 1000
# a table entry below -NEGATIVE_TOLERANCE, or a table sum further than
# SUM_TOLERANCE from 1, means the input is not a normalised state
NEGATIVE_TOLERANCE = 1e-12
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of one finite-shot run on n_copies stacked pairs.

    counts follows OutcomeTable.as_vector() order: (+,+), (+,-), (-,+), (-,-).
    A hand-built record is checked like a drawn one: ValueError unless
    shots >= 1 and the counts are four nonnegative integers summing to shots.
    """

    n_copies: int
    shots: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=float)
        if c.shape != (4,):
            raise ValueError(f"counts must have 4 entries, got shape {c.shape}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not np.all((c >= 0) & (c == np.floor(c))):
            raise ValueError(f"counts must be nonnegative integers, got {c.tolist()}")
        if c.sum() != self.shots:
            raise ValueError(f"counts sum to {c.sum():g}, not to shots = {self.shots}")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class WitnessEstimate:
    pi2_hat: float
    pi3_hat: float
    pi4_hat: float
    witness_hat: float
    ci_low: float
    ci_high: float
    shots_per_moment: dict
    resamples: int

    def as_dict(self) -> dict:
        """The fields in order, shots_per_moment keyed by str(n) for JSON."""
        doc = asdict(self)
        doc["shots_per_moment"] = {str(k): int(v) for k, v in sorted(self.shots_per_moment.items())}
        return doc


def sample_shots(rho: np.ndarray, n: int, shots: int, seed: int) -> ShotRecord:
    """Draw the outcome counts of ``shots`` runs of the n-copy sequential
    measurement.

    One multinomial draw of ``shots`` on the exact outcome probabilities:
    the exact law of the counts of ``shots`` independent outcomes, at a cost
    that does not grow with ``shots``.  Cells with probability zero can never
    fire.  Raises ValueError unless ``shots`` is a positive integer and the
    table is a distribution: no entry below -1e-12 or NaN, sum within 1e-9
    of 1.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = outcome_probabilities(rho, n).as_vector()
    # each comparison is written so that a NaN fails it
    if not p.min() >= -NEGATIVE_TOLERANCE:
        raise ValueError(
            f"outcome table for n = {n} has an entry {p.min():.3e}, "
            f"below the tolerance -{NEGATIVE_TOLERANCE:.0e} or not a number: not a state"
        )
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise ValueError(
            f"outcome table for n = {n} sums to {total!r}, {abs(total - 1.0):.3e} from 1, "
            f"beyond the tolerance {SUM_TOLERANCE:.0e}: not a normalised state"
        )
    p = np.clip(p, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    return ShotRecord(n_copies=n, shots=int(shots), counts=counts, seed=seed)


def _parity_moment(even, shots):
    """(2 k - N)/N for k even-parity outcomes (c++ + c--) of N shots: the
    signed sum (c++ - c+- - c-+ + c--)/N, exact in the integer counts."""
    return (2 * even - shots) / shots


def moment_estimate(record: ShotRecord) -> float:
    """Empirical signed sum (c++ - c+- - c-+ + c--)/shots."""
    c = record.counts
    return float(_parity_moment(c[0] + c[3], record.shots))


def estimate(records, resamples: int = DEFAULT_RESAMPLES, seed: int = 0) -> WitnessEstimate:
    """Plug-in witness estimate with a percentile bootstrap 95% interval.

    ``records`` must hold exactly one ShotRecord for each of n = 2, 3, 4.
    The bootstrap redraws each record's moment ``resamples`` times as
    (2k - N)/N with k ~ Binomial(N, (c++ + c--)/N), the law of the moment
    under a multinomial resample of the counts (the moment depends on the
    even-parity count alone), and takes the 2.5% / 97.5% quantiles of the
    recomputed witness values.
    """
    by_n = {}
    for r in records:
        if r.n_copies in by_n:
            raise ValueError(f"duplicate record for n = {r.n_copies}")
        by_n[r.n_copies] = r
    missing = [n for n in COPY_COUNTS if n not in by_n]
    if missing:
        raise ValueError(f"missing shot records for n = {missing}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")

    hats = {n: moment_estimate(by_n[n]) for n in COPY_COUNTS}
    witness_hat = float(witness_polynomial(hats[2], hats[3], hats[4]))

    rng = np.random.default_rng(seed)
    boot_moments = {}
    for n in COPY_COUNTS:
        r = by_n[n]
        c = r.counts
        k = rng.binomial(int(r.shots), (c[0] + c[3]) / r.shots, size=resamples)
        boot_moments[n] = _parity_moment(k, r.shots)
    boot_w = witness_polynomial(boot_moments[2], boot_moments[3], boot_moments[4])
    ci_low, ci_high = np.quantile(boot_w, (0.025, 0.975))

    return WitnessEstimate(
        pi2_hat=hats[2],
        pi3_hat=hats[3],
        pi4_hat=hats[4],
        witness_hat=witness_hat,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        shots_per_moment={n: int(by_n[n].shots) for n in COPY_COUNTS},
        resamples=resamples,
    )
