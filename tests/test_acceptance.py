"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np

from uwitness import checks
from uwitness.cli import main
from uwitness.collective import COPY_COUNTS
from uwitness.simulate import estimate, moment_estimate, sample_shots
from uwitness.states import StateSampler, pure_schmidt, singlet, werner
from uwitness.witness import (
    concurrence,
    lower_bound,
    moments_direct,
    negativity,
    rescaled_witness,
    witness_polynomial,
    witness_value,
)

from test_collective import kron_power, parity_projector, swap_layer


def announce(k, name, ok):
    print(f"\n[criterion {k}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} failed: {name}"


def hs_states(seed, count):
    """One (count, 4, 4) block from the Hilbert-Schmidt stream of `seed`."""
    return StateSampler("hs", seed).sample(count)


def test_criterion_1_bound_corridor_on_10000_states(tmp_path):
    """10^4 Hilbert-Schmidt states: every point obeys f(w) <= N <= C <= w^(1/4)."""
    out = tmp_path / "scatter.csv"
    code = main(
        [
            "--command", "scatter",
            "--samples", "10000",
            "--seed", "20260814",
            "--out", str(out),
        ]
    )
    rows = out.read_text().strip().split("\n")
    ok = code == 0 and rows[0] == "w,negativity,concurrence" and len(rows) == 10001
    violations = 0
    for line in rows[1:]:
        w, n, c = map(float, line.split(","))
        if not (checks.in_corridor(w, lower_bound(w), n, c) and n <= c):
            violations += 1
    ok = ok and violations == 0
    announce(1, f"bound corridor on 10000 random states ({violations} violations)", ok)


def test_criterion_2_witness_equals_determinant():
    """10^3 states: moment polynomial equals the product of PT eigenvalues."""
    ok, worst, _ = checks.witness_det(hs_states(101, 1000))
    announce(2, f"witness equals det of partial transpose (max dev {worst:.2e})", ok)


def test_criterion_3_four_moment_routes_agree():
    """200 states, n in 2..4: direct, cycle, observable, and sequential-
    probability routes agree pairwise, and every outcome table sums to 1."""
    ok, worst, _ = checks.moment_routes(hs_states(4001, 200))
    announce(3, f"four moment routes agree on 200 states (max dev {worst:.2e})", ok)


def test_criterion_4_observable_spectra_and_projection_count():
    """Squared-sum observables have spectra {1,4} and {0,2,4}; seven
    projective outcomes cover all three moments."""
    ok, (s3, s4, count), _ = checks.spectra_and_count()
    announce(4, f"spectra {list(s3)} / {list(s4)}, projection count {count}", ok)


def test_criterion_5_invariants_route_and_local_unitary_invariance():
    """Invariant combinations reproduce the moments on 10^3 states, and all
    invariants survive 100 random local unitaries."""
    ok_inv, worst, _ = checks.invariant_route(hs_states(7001, 1000))
    ok_lu, worst_lu, _ = checks.local_unitary_drift(hs_states(9001, 20), np.random.default_rng(31415), 5)
    ok = ok_inv and ok_lu
    announce(
        5,
        f"invariant moments (max dev {worst:.2e}), local-unitary drift ({worst_lu:.2e})",
        ok,
    )


def test_criterion_6_symmetrized_stack_is_measurement_safe():
    """50 states, n in 2..4: the symmetrized copy stack commutes with the
    stage-1 layer and projects identically to the raw stack, on the dense
    reference operators; checks.nondemolition proves it for every state from
    the measured projectors alone, exactly."""
    batch = hs_states(12001, 50)
    worst = 0.0
    for n in COPY_COUNTS:
        # complex once here, not cast again by every product
        layer = swap_layer(n, 1).astype(complex)
        projectors = [parity_projector(n, 1, sign).astype(complex) for sign in (1, -1)]
        for rho in batch:
            rn = kron_power(rho, n)
            sym = 0.5 * (rn + layer @ rn @ layer)
            worst = max(worst, np.abs(layer @ sym - sym @ layer).max())
            for proj in projectors:
                worst = max(worst, np.abs(proj @ (sym - rn) @ proj).max())
    exact_ok, exact, _ = checks.nondemolition()
    ok = worst < checks.ROUNDING_MARK and exact_ok
    announce(6, f"symmetrized stack: commutator and projection mismatch {worst:.2e}, "
                f"projector residual {exact:.1e}", ok)


def test_criterion_7_reference_states():
    """Singlet, werner(0.5), pure Schmidt family, and the separability
    boundary match their closed forms."""
    mark = checks.ROUNDING_MARK
    rep_w = rescaled_witness(witness_value(moments_direct(singlet())))
    ok = abs(rep_w - 1.0) < mark
    ok = ok and abs(negativity(singlet()) - 1.0) < mark
    ok = ok and abs(concurrence(singlet()) - 1.0) < mark

    w_half = rescaled_witness(witness_value(moments_direct(werner(0.5))))
    ok = ok and abs(w_half - 27.0 / 256.0) < mark
    ok = ok and abs(negativity(werner(0.5)) - 0.25) < mark
    ok = ok and abs(concurrence(werner(0.5)) - 0.25) < mark
    ok = ok and abs(lower_bound(w_half) - 0.25) < mark

    # pure states saturate C = w^(1/4), checked in the forward form C^4 = w:
    # near w = 0 the fourth root magnifies w's rounding error past any fixed
    # tolerance on C
    schmidt = np.stack([pure_schmidt(lam1) for lam1 in np.linspace(0.05, 0.95, 19)])
    pure = np.concatenate([schmidt, StateSampler("pure", 15001).sample(50)])
    w = rescaled_witness(witness_value(moments_direct(pure)))
    dev = np.abs(concurrence(pure) ** 4 - w)
    worst_pure = dev.max()
    ok = ok and bool(np.all(dev <= mark * w + checks.W_SLACK))

    boundary = witness_value(moments_direct(werner(1.0 / 3.0)))
    ok = ok and abs(boundary) < mark
    announce(
        7,
        f"reference states (pure |C^4 - w| {worst_pure:.2e}, boundary witness {boundary:.1e})",
        ok,
    )


def test_criterion_8_finite_shot_coverage_and_scaling():
    """werner(0.8), 200 seeds: 95% bootstrap interval covers the true witness
    in >= 90% of runs, and the RMS error halves when shots quadruple."""
    rho = werner(0.8)
    truth = witness_value(moments_direct(rho))

    def seeds(arm, s):
        # three record seeds and one bootstrap seed, one independent stream per (arm, s)
        return [int(x) for x in np.random.SeedSequence([8, arm, s]).generate_state(4)]

    covered = 0
    for s in range(200):
        *record_seeds, boot_seed = seeds(0, s)
        recs = [sample_shots(rho, n, 100_000, seed) for n, seed in zip(COPY_COUNTS, record_seeds)]
        est = estimate(recs, resamples=1000, seed=boot_seed)
        covered += est.ci_low <= truth <= est.ci_high
    coverage = covered / 200.0

    def rms(shots, arm):
        errs = []
        for s in range(200):
            recs = [sample_shots(rho, n, shots, seed) for n, seed in zip(COPY_COUNTS, seeds(arm, s))]
            hats = [moment_estimate(r) for r in recs]
            errs.append(witness_polynomial(*hats) - truth)
        return float(np.sqrt(np.mean(np.square(errs))))

    ratio = rms(25_000, 1) / rms(100_000, 2)
    ok = coverage >= 0.90 and 1.6 <= ratio <= 2.6
    announce(
        8,
        f"coverage {coverage:.1%} (>= 90%), RMS ratio for 4x shots {ratio:.2f} (~2)",
        ok,
    )
