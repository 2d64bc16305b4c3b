"""Finite-shot simulation of the sequential parity measurements.

A record of N shots on n copies is one multinomial draw of N on the exact
four-outcome distribution of the two-stage measurement: that is the law of
the four counts of N independent shots, and it costs the same for any N.
The distribution is built, checked and normalised once per (state, n) and
kept in a small cache, so sampling one state again costs only the draw.
The witness estimate plugs the three empirical moments into the witness
polynomial.  Its percentile bootstrap redraws each moment as
(2k - N)/N with k ~ Binomial(N, (c++ + c--)/N): the moment depends on the
even-parity count c++ + c-- alone, and that count is binomial under the
multinomial resample.  The interval's ends are order statistics of the R
resampled witnesses, the ceil(0.025 R)-th and ceil(0.975 R)-th smallest
(np.quantile's inverted_cdf rule), read from one partition.
Everything is deterministic under a fixed seed.
sample_shots samples exactly the states states.validate accepts: the state
rule is judged, with validate's message, when a distribution is built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .collective import COPY_COUNTS, _check_n, outcome_probabilities
from .linalg import _integer, _matrix, _real
from .states import validate
from .witness import witness_polynomial

DEFAULT_RESAMPLES = 1000
_INTERVAL = (0.025, 0.975)


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of one finite-shot run on n_copies stacked pairs.

    counts follows OutcomeTable.as_vector() order: (+,+), (+,-), (-,+), (-,-).
    A hand-built record is checked like a drawn one: ValueError unless
    n_copies is one of 2, 3, 4, shots an integer in [1, 2**53] and seed an
    integer >= 0, by the integer rule of uwitness.linalg, and the counts, by
    its number rule, are four nonnegative integers summing to shots.
    """

    n_copies: int
    shots: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        _check_n(self.n_copies)
        c = _real(self.counts, "counts", "integers")
        if c.shape != (4,):
            raise ValueError(f"counts must have 4 entries, got shape {c.shape}")
        _integer(self.shots, "shots", low=1, float_exact=True)
        _integer(self.seed, "seed", low=0)
        if not ((c >= 0) & (c == np.floor(c))).all():
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
    measurement on the single (4, 4) state ``rho``.

    One multinomial draw of ``shots`` on the exact outcome probabilities:
    the exact law of the counts of ``shots`` independent outcomes, at a cost
    that does not grow with ``shots``.  Cells with probability zero can never
    fire.  The checked, normalised distribution of each (state, n) is cached
    (the last 64), keyed on the state's complex entries, so a state sampled
    again is not tabled again and a state edited in place gets its own
    table.  Raises ValueError unless ``shots`` is an integer in [1, 2**53],
    ``n`` one of 2, 3, 4, ``seed`` an integer >= 0 (not None: a record
    carries the seed that reproduces it), and ``rho`` one matrix (not a
    stack) that validate accepts, with validate's message.
    """
    _integer(shots, "shots", low=1, float_exact=True)
    _check_n(n)
    _integer(seed, "seed", low=0)
    rho = _matrix(rho)
    if rho.ndim != 2:
        raise ValueError(f"sample_shots takes one (4, 4) state, got shape {rho.shape}")
    counts = np.random.default_rng(seed).multinomial(shots, _distribution(rho.tobytes(), n))
    return ShotRecord(n_copies=n, shots=int(shots), counts=counts, seed=seed)


@lru_cache(maxsize=64)
def _distribution(state: bytes, n: int) -> np.ndarray:
    """The outcome probabilities of n copies of the complex (4, 4) matrix
    whose bytes are ``state``, once the state rule has passed it, clipped at
    0 and normalised; read-only.  A rejected matrix raises before any table
    is built, and lru_cache keeps no exception."""
    rho = validate(np.frombuffer(state, dtype=complex).reshape(4, 4))
    p = np.clip(outcome_probabilities(rho, n).as_vector(), 0.0, None)
    p /= p.sum()
    p.setflags(write=False)
    return p


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
    even-parity count alone).  The interval's ends are the ceil(0.025 R)-th
    and ceil(0.975 R)-th smallest of the R = ``resamples`` recomputed witness
    values.  Raises ValueError unless ``resamples`` is an integer in
    [1, 2**53] and ``seed`` an integer >= 0.
    """
    by_n = {}
    for r in records:
        if r.n_copies in by_n:
            raise ValueError(f"duplicate record for n = {r.n_copies}")
        by_n[r.n_copies] = r
    missing = [n for n in COPY_COUNTS if n not in by_n]
    if missing:
        raise ValueError(f"missing shot records for n = {missing}")
    _integer(resamples, "resamples", low=1, float_exact=True)
    _integer(seed, "seed", low=0)

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
    ci_low, ci_high = _interval(boot_w)

    return WitnessEstimate(
        pi2_hat=hats[2],
        pi3_hat=hats[3],
        pi4_hat=hats[4],
        witness_hat=witness_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        shots_per_moment={n: int(by_n[n].shots) for n in COPY_COUNTS},
        resamples=resamples,
    )


def _interval(values: np.ndarray) -> tuple:
    """The percentile interval of R resampled values as two Python floats:
    for each q in _INTERVAL the ceil(q R)-th smallest value (np.quantile's
    inverted_cdf rule, no interpolation), both read from one partition."""
    ranks = [math.ceil(q * len(values)) - 1 for q in _INTERVAL]
    part = np.partition(values, ranks)
    return tuple(float(part[k]) for k in ranks)
