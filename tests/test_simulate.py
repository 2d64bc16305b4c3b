import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uwitness import simulate
from uwitness.collective import outcome_probabilities
from uwitness.simulate import (
    _INTERVAL,
    ShotRecord,
    _distribution,
    _interval,
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

    def test_shots_past_float64_exact_counts_rejected(self):
        # counts are kept in float64, which holds every integer up to 2**53
        rec = sample_shots(werner(0.7), 2, 2**53, 0)
        assert rec.counts.sum() == 2**53 and rec.counts.dtype == np.float64
        with pytest.raises(ValueError, match=re.escape(f"shots must be <= 2**53, got {2**53 + 1}")):
            sample_shots(werner(0.7), 2, 2**53 + 1, 0)

    @pytest.mark.parametrize("shots", [1.5, 1000.0, True, "1000"])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="integer"):
            sample_shots(MAX_MIXED, 2, shots, seed=0)

    def test_non_state_rejected(self):
        # trace 2 (every table would sum to 2**n), and trace 1 but not positive
        # (the n = 2 table would have an entry -0.115): validate's message each
        trace2 = "invalid density matrix: trace differs from 1 by 1.000e+00"
        with pytest.raises(ValueError, match=re.escape(trace2)):
            sample_shots(2 * werner(0.6), 2, 1000, seed=1)
        rho = np.diag([1.2, -0.1, -0.1, 0.0])
        not_psd = "invalid density matrix: not positive semidefinite (min eigenvalue = -1.000e-01)"
        with pytest.raises(ValueError, match=re.escape(not_psd)):
            sample_shots(rho, 2, 1000, seed=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, value):
        # an all-NaN or all-inf matrix is rejected before any table or draw
        with pytest.raises(ValueError, match=re.escape("non-finite entry in the matrix")):
            sample_shots(np.full((4, 4), value), 2, 100, 0)

    def test_record_counts_are_frozen(self):
        rec = sample_shots(MAX_MIXED, 2, 10, seed=0)
        with pytest.raises(ValueError):
            rec.counts[0] = 5


@pytest.fixture
def table_builds(monkeypatch):
    """An emptied distribution cache, and a list that gains each n for which
    sample_shots builds an outcome table while the test runs."""
    _distribution.cache_clear()
    builds = []

    def counted(rho, n):
        builds.append(n)
        return outcome_probabilities(rho, n)

    monkeypatch.setattr(simulate, "outcome_probabilities", counted)
    yield builds
    _distribution.cache_clear()


class TestDistributionCache:
    def test_one_table_per_state_and_n(self, table_builds):
        rho = werner(0.7)
        for seed in range(5):
            sample_shots(rho, 4, 1000, seed)
        # an equal state in another array is the same key
        sample_shots(werner(0.7).astype(complex), 4, 1000, 9)
        assert table_builds == [4]
        sample_shots(rho, 2, 1000, 0)
        assert table_builds == [4, 2]
        assert _distribution.cache_info().currsize == 2

    def test_cached_vector_is_read_only(self, table_builds):
        p = _distribution(np.asarray(werner(0.7), dtype=complex).tobytes(), 3)
        assert not p.flags.writeable and p.sum() == 1.0

    def test_state_edited_in_place_gets_its_own_table(self, table_builds):
        rho = werner(0.7).copy()
        first = sample_shots(rho, 3, 10_000, seed=4)
        rho[...] = werner(0.3)
        edited = sample_shots(rho, 3, 10_000, seed=4)
        assert table_builds == [3, 3]
        assert not np.array_equal(first.counts, edited.counts)
        _distribution.cache_clear()
        assert np.array_equal(edited.counts, sample_shots(werner(0.3), 3, 10_000, seed=4).counts)

    def test_invalid_state_raises_on_every_call(self, table_builds):
        for _ in range(3):
            with pytest.raises(ValueError, match=re.escape("trace differs from 1 by 1.000e+00")):
                sample_shots(2 * werner(0.6), 2, 1000, seed=1)
        # the state rule rejects it before a table is built, and no entry is kept
        assert table_builds == []
        assert _distribution.cache_info().currsize == 0

    def test_cache_is_bounded(self, table_builds):
        for rho in random_mixed_state(np.random.default_rng(8), 200):
            sample_shots(rho, 2, 10, seed=0)
        assert len(table_builds) == 200
        assert _distribution.cache_info().currsize <= 64

    def test_cache_accepts_no_other_copy_count(self, table_builds):
        sample_shots(werner(0.7), 2, 1000, seed=0)
        with pytest.raises(ValueError, match="copy count must be one of"):
            sample_shots(werner(0.7), [2], 1000, seed=0)
        # 2.0 == 2 and hashes alike, but is no copy count the engine takes
        with pytest.raises(ValueError, match=re.escape("copy count must be one of (2, 3, 4), got 2.0")):
            sample_shots(werner(0.7), 2.0, 1000, seed=0)
        assert table_builds == [2]

    @pytest.mark.parametrize("shape", [(2, 4, 4), (2, 2)])
    def test_one_state_only(self, table_builds, shape):
        # a stack would be normalised over all its tables together and reported
        # as one bad table; one matrix of another size is judged by the state
        # rule, as validate judges it
        rho = np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape)
        message = (f"sample_shots takes one (4, 4) state, got shape {shape}" if len(shape) == 3
                   else f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_shots(rho, 2, 1000, seed=0)
        assert table_builds == [] and _distribution.cache_info().currsize == 0


# a few values, so that draws repeat them: the bootstrap witness takes at most
# resamples + 1 distinct values per moment and often repeats one
_tied_arrays = st.lists(st.floats(-1e3, 1e3, width=64), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=1200).map(np.array))
_finite_arrays = hnp.arrays(np.float64, st.integers(1, 1200), elements=st.floats(-1e100, 1e100))


def _equals_inverted_cdf(interval, x):
    # == rather than bits: which of two tied zeros, -0.0 or 0.0, a partition
    # puts at a rank is numpy's choice
    expected = np.quantile(x, _INTERVAL, method="inverted_cdf")
    return all(type(v) is float for v in interval) and interval == tuple(expected)


class TestInterval:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.one_of(_tied_arrays, _finite_arrays))
    def test_equals_numpy_quantile(self, x):
        assert _equals_inverted_cdf(_interval(x), x)

    @pytest.mark.parametrize("x", [
        np.array([0.25]), np.array([-0.0]), np.array([0.3, -0.1]), np.array([-0.0, 0.0]),
        np.full(1000, -0.0625), np.full(2, 0.1),
    ], ids=["one", "one-negative-zero", "two", "two-zeros", "constant-1000", "constant-2"])
    def test_short_and_constant_arrays(self, x):
        assert _equals_inverted_cdf(_interval(x), x)

    @pytest.mark.parametrize("resamples", [1, 2, 1000])
    def test_one_parity_records_give_a_point_interval(self, resamples):
        # every outcome even: each moment is 1 in every resample, so is the witness
        recs = [ShotRecord(n, 500, [300, 0, 0, 200], 0) for n in (2, 3, 4)]
        est = estimate(recs, resamples=resamples, seed=1)
        assert est.ci_low == est.ci_high == est.witness_hat


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


# (pi2_hat, pi3_hat, pi4_hat, witness_hat, ci_low, ci_high) of ten experiments on
# one Hilbert-Schmidt state: three 100 000-shot records and a 1000-resample
# bootstrap each, seeded as SeedSequence([0, t]).generate_state(4).  Any change to
# the sampling or to the interval that moves a bit fails here.
FROZEN_ESTIMATES = [
    (0.44556, 0.21476, 0.11338, -0.0016662024666666737, -0.004397299533333325, 0.0008181645333333506),
    (0.44148, 0.21498, 0.11296, -0.0009202595333333378, -0.0035595039500000056, 0.0018110640499999775),
    (0.43506, 0.215, 0.109, 0.0009779837833333211, -0.0017406931333333227, 0.0036724914666666684),
    (0.43938, 0.21566, 0.11026, 0.00027518138333332276, -0.0023049006166666794, 0.0028579613833333295),
    (0.43522, 0.20936, 0.11366, -0.0020896106166666817, -0.004770087799999989, 0.0005182787166666536),
    (0.4386, 0.21494, 0.11484, -0.0010004216666666583, -0.0036885132833333243, 0.0014964084500000048),
    (0.43592, 0.21622, 0.11578, -0.0004317192000000136, -0.0031161666666666608, 0.0019880365333333296),
    (0.43536, 0.21632, 0.11818, -0.0009193754666666498, -0.003571250466666657, 0.0020711249999999883),
    (0.43666, 0.21336, 0.1193, -0.002369338883333331, -0.005218128333333331, 0.0002639578666666642),
    (0.44122, 0.21106, 0.11296, -0.002190613949999994, -0.004627166666666664, 0.0004442800000000006),
]


def frozen_hs_state():
    """The first state of the `shots` benchmark: Ginibre G from default_rng(0),
    G G^dag over its trace."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_frozen_estimates():
    rho = frozen_hs_state()
    for t, expected in enumerate(FROZEN_ESTIMATES):
        *record_seeds, boot_seed = (int(x) for x in np.random.SeedSequence([0, t]).generate_state(4))
        recs = [sample_shots(rho, n, 100_000, s) for n, s in zip((2, 3, 4), record_seeds)]
        est = estimate(recs, resamples=1000, seed=boot_seed)
        assert (est.pi2_hat, est.pi3_hat, est.pi4_hat, est.witness_hat, est.ci_low, est.ci_high) == expected
        assert est.shots_per_moment == {2: 100_000, 3: 100_000, 4: 100_000} and est.resamples == 1000


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
        with pytest.raises(ValueError, match=re.escape("resamples must be <= 2**53")):
            estimate(recs, resamples=2**53 + 1)

    @pytest.mark.parametrize("resamples", [True, 2.5, 1000.0, "1000"])
    def test_non_integer_resamples_rejected(self, resamples):
        # the policy sample_shots applies to shots; numpy would raise a TypeError
        recs = draw_records(werner(0.5), 100, 0)
        with pytest.raises(ValueError, match=f"integer, got {re.escape(repr(resamples))}"):
            estimate(recs, resamples=resamples)

    @pytest.mark.parametrize(
        "shots, counts, message",
        [
            (0, [0, 0, 0, 0], "shots must be >= 1"),
            (100, [90, 5, 5, -50], "nonnegative integers"),
            (1, [1.5, 0, 0, 0], "nonnegative integers"),
            (100, [90, 5, 5, 5], "sum to 105"),
            (True, [1, 0, 0, 0], "shots must be an integer, got True"),
            (1000.0, [500, 0, 0, 500], r"shots must be an integer, got 1000\.0"),
            (2**53 + 1, [2**53 + 1, 0, 0, 0], r"shots must be <= 2\*\*53"),
            (3, [True, True, True, False], "counts must be integers, not bools"),
            (3, np.array([True, True, True, False]), "counts must be integers, not bools"),
            (3, [1, 1, 1], "counts must have 4 entries, got shape \\(3,\\)"),
        ],
        ids=["zero-shots", "negative", "fractional", "wrong-sum", "bool-shots", "float-shots", "past-2**53",
             "bool-counts-list", "bool-counts-array", "three-counts"],
    )
    def test_hand_built_record_rejected(self, shots, counts, message):
        with pytest.raises(ValueError, match=message):
            ShotRecord(n_copies=2, shots=shots, counts=counts, seed=0)

    @pytest.mark.parametrize("n", [7, 1, 2.0, True])
    def test_hand_built_record_copy_count_rejected(self, n):
        # a record for n = 7 would be silently ignored next to those for n = 2, 3, 4
        with pytest.raises(ValueError, match=re.escape(f"copy count must be one of (2, 3, 4), got {n}")):
            ShotRecord(n_copies=n, shots=3, counts=[1, 1, 1, 0], seed=0)

    def test_estimate_fields(self):
        rho = werner(0.6)
        est = estimate(draw_records(rho, 500, 1), resamples=50, seed=9)
        assert est.shots_per_moment == {2: 500, 3: 500, 4: 500}
        assert est.resamples == 50
        d = est.as_dict()
        assert d["shots_per_moment"] == {"2": 500, "3": 500, "4": 500}
        assert d["ci_low"] <= d["witness_hat"] <= d["ci_high"]
