import numpy as np
import pytest

from uwitness.collective import outcome_probabilities
from uwitness.simulate import (
    ShotRecord,
    estimate,
    moment_estimate,
    sample_shots,
)
from uwitness.states import random_mixed_state, random_pure_state, singlet, werner
from uwitness.witness import moments_direct, witness_value

MAX_MIXED = np.eye(4) / 4
HS_STATE = random_mixed_state(np.random.default_rng(2))
PURE_STATE = random_pure_state(np.random.default_rng(3))


def draw_records(rho, shots, base_seed):
    return [sample_shots(rho, n, shots, base_seed + k) for k, n in enumerate((2, 3, 4))]


class TestSampleShots:
    def test_counts_sum_to_shots(self):
        rec = sample_shots(werner(0.5), 3, 1234, seed=0)
        assert rec.counts.sum() == 1234
        assert rec.n_copies == 3 and rec.shots == 1234

    def test_equal_seeds_reproduce(self):
        a = sample_shots(werner(0.5), 4, 5000, seed=77)
        b = sample_shots(werner(0.5), 4, 5000, seed=77)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = sample_shots(werner(0.5), 2, 5000, seed=1)
        b = sample_shots(werner(0.5), 2, 5000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_impossible_outcomes_never_fire(self):
        # the mixed singlet cells have probability exactly zero
        table = outcome_probabilities(singlet(), 2)
        assert table.probabilities[0, 1] == 0.0 and table.probabilities[1, 0] == 0.0
        for seed in range(5):
            rec = sample_shots(singlet(), 2, 10000, seed=seed)
            assert rec.counts[1] == 0 and rec.counts[2] == 0

    def test_frequencies_converge_to_probabilities(self):
        shots = 1_000_000
        rec = sample_shots(MAX_MIXED, 2, shots, seed=99)
        p = np.array([9, 3, 3, 1]) / 16.0
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(rec.counts / shots - p) < 5 * sigma)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("rho", [HS_STATE, PURE_STATE], ids=["hs", "pure"])
    def test_frequencies_converge_to_table_at_more_copies(self, rho, n):
        shots = 1_000_000
        p = np.clip(outcome_probabilities(rho, n).as_vector(), 0.0, None)
        rec = sample_shots(rho, n, shots, seed=99)
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(rec.counts / shots - p) < 5 * sigma)

    def test_huge_record_is_one_draw(self):
        # 10^12 outcomes would not fit in memory one by one
        shots = 10**12
        rec = sample_shots(werner(0.8), 4, shots, seed=5)
        assert rec.counts.sum() == shots
        p = outcome_probabilities(werner(0.8), 4).as_vector()
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(rec.counts / shots - p) < 6 * sigma)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(MAX_MIXED, 2, 0, seed=0)

    @pytest.mark.parametrize("shots", [1.5, 1000.0, True, "1000"])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="integer"):
            sample_shots(MAX_MIXED, 2, shots, seed=0)

    def test_non_state_rejected(self):
        # trace 2: every table sums to 2**n
        with pytest.raises(ValueError, match=r"3\.000e\+00 from 1"):
            sample_shots(2 * werner(0.6), 2, 1000, seed=1)
        # trace 1 but not positive: the n = 2 table has an entry -0.115
        rho = np.diag([1.2, -0.1, -0.1, 0.0])
        with pytest.raises(ValueError, match=r"entry -1\.150e-01"):
            sample_shots(rho, 2, 1000, seed=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, value):
        # every table of an all-NaN or all-inf matrix holds a NaN, which fails
        # the entry check before the multinomial draw sees it
        with pytest.raises(ValueError, match=r"entry nan, below the tolerance -1e-12 or not a number"):
            sample_shots(np.full((4, 4), value), 2, 100, 0)

    def test_record_counts_are_frozen(self):
        rec = sample_shots(MAX_MIXED, 2, 10, seed=0)
        with pytest.raises(ValueError):
            rec.counts[0] = 5


class TestMomentEstimate:
    def test_signed_sum(self):
        rec = ShotRecord(n_copies=2, shots=10, counts=np.array([7, 1, 1, 1]), seed=0)
        assert moment_estimate(rec) == 0.6

    def test_estimator_is_unbiased(self):
        rho = werner(0.8)
        truth = moments_direct(rho).pi3
        errs = [
            moment_estimate(sample_shots(rho, 3, 2000, seed=s)) - truth
            for s in range(100)
        ]
        se = np.std(errs) / np.sqrt(len(errs))
        assert abs(np.mean(errs)) < 5 * se


class TestEstimate:
    def test_plugin_reproduces_exact_witness(self):
        # counts equal to shots times the exact outcome probabilities make
        # the plug-in estimate coincide with the true witness; the Werner
        # p = 1/2 tables are dyadic, so 2^20 shots give integer counts
        rho = werner(0.5)
        shots = 2 ** 20
        records = [
            ShotRecord(
                n_copies=n,
                shots=shots,
                counts=np.round(outcome_probabilities(rho, n).as_vector() * shots),
                seed=0,
            )
            for n in (2, 3, 4)
        ]
        est = estimate(records, resamples=10, seed=0)
        assert abs(est.witness_hat - witness_value(moments_direct(rho))) < 1e-12

    def test_deterministic_under_seed(self):
        rho = werner(0.8)
        a = estimate(draw_records(rho, 4000, 11), resamples=200, seed=5)
        b = estimate(draw_records(rho, 4000, 11), resamples=200, seed=5)
        assert a == b

    def test_interval_covers_truth_for_reference_run(self):
        rho = werner(0.8)
        truth = witness_value(moments_direct(rho))
        est = estimate(draw_records(rho, 100_000, 50000), resamples=1000, seed=50003)
        assert est.ci_low <= truth <= est.ci_high
        assert est.ci_low < est.witness_hat < est.ci_high

    @pytest.mark.parametrize(
        "rho", [werner(0.8), werner(0.5), HS_STATE], ids=["werner-0.8", "werner-0.5", "hs"]
    )
    def test_interval_width_matches_delta_method(self, rho):
        shots = 100_000
        m = moments_direct(rho)
        pis = np.array(m.as_tuple())
        grad = np.array([(6 * m.pi2 - 6) / 24, 8 / 24, -6 / 24])  # dw/dpi_n
        se = np.sqrt(np.sum(grad**2 * (1 - pis**2)) / shots)
        *record_seeds, boot_seed = np.random.SeedSequence([5, 0]).generate_state(4)
        recs = [sample_shots(rho, n, shots, int(k)) for n, k in zip((2, 3, 4), record_seeds)]
        est = estimate(recs, resamples=1000, seed=int(boot_seed))
        half_width = (est.ci_high - est.ci_low) / 2
        assert abs(half_width / 1.96 / se - 1) < 0.15

    def test_interval_narrows_with_more_shots(self):
        rho = werner(0.8)
        wide = estimate(draw_records(rho, 1000, 7), resamples=500, seed=3)
        narrow = estimate(draw_records(rho, 100_000, 7), resamples=500, seed=3)
        assert (narrow.ci_high - narrow.ci_low) < 0.25 * (wide.ci_high - wide.ci_low)

    def test_records_validated(self):
        rho = werner(0.5)
        recs = draw_records(rho, 100, 0)
        with pytest.raises(ValueError, match="missing"):
            estimate(recs[:2])
        with pytest.raises(ValueError, match="duplicate"):
            estimate(recs + [recs[0]])
        with pytest.raises(ValueError, match="resamples"):
            estimate(recs, resamples=0)

    @pytest.mark.parametrize(
        "shots, counts, message",
        [
            (0, [0, 0, 0, 0], "shots must be >= 1"),
            (100, [90, 5, 5, -50], "nonnegative integers"),
            (1, [1.5, 0, 0, 0], "nonnegative integers"),
            (100, [90, 5, 5, 5], "sum to 105"),
        ],
        ids=["zero-shots", "negative", "fractional", "wrong-sum"],
    )
    def test_hand_built_record_rejected(self, shots, counts, message):
        with pytest.raises(ValueError, match=message):
            ShotRecord(n_copies=2, shots=shots, counts=counts, seed=0)

    def test_estimate_fields(self):
        rho = werner(0.6)
        est = estimate(draw_records(rho, 500, 1), resamples=50, seed=9)
        assert est.shots_per_moment == {2: 500, 3: 500, 4: 500}
        assert est.resamples == 50
        d = est.as_dict()
        assert d["shots_per_moment"] == {"2": 500, "3": 500, "4": 500}
        assert d["ci_low"] <= d["witness_hat"] <= d["ci_high"]
