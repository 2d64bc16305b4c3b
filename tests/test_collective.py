from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations

import numpy as np
import pytest

import uwitness.checks as checks_module
import uwitness.collective
import uwitness.invariants
import uwitness.simulate
import uwitness.witness
from uwitness.collective import (
    _TABLE_WORDS,
    COPY_COUNTS,
    OutcomeTable,
    _permutation_traces,
    _swap_permutation,
    _trace_indices,
    layer_permutation,
    moment_cycle,
    moment_via_observable,
    moments_collective,
    outcome_probabilities,
)
from uwitness.linalg import partial_transpose
from uwitness.states import (phi_plus, product_state, random_mixed_state, random_pure_state, singlet,
                              werner)
from uwitness.witness import moments_direct

MAX_MIXED = np.eye(4) / 4

# swap factors per (n, stage), duplicated here as an independent fixture
LAYER_PAIRS = {
    (2, 1): [("a", 1, 2)],
    (2, 2): [("b", 1, 2)],
    (3, 1): [("a", 1, 2), ("b", 2, 3)],
    (3, 2): [("b", 1, 2), ("a", 2, 3)],
    (4, 1): [("a", 1, 2), ("a", 3, 4), ("b", 2, 3)],
    (4, 2): [("b", 1, 2), ("b", 3, 4), ("a", 2, 3)],
}


def permutation_matrix(n, pairs):
    """Independent layer construction: compose bit swaps on basis indices."""
    nq = 2 * n
    dim = 2 ** nq
    offset = {"a": 0, "b": 1}  # copy k holds qubits a_k = 2(k-1) and b_k = 2(k-1) + 1
    m = np.zeros((dim, dim))
    for src in range(dim):
        bits = [(src >> (nq - 1 - q)) & 1 for q in range(nq)]
        for side, i, j in pairs:
            qi, qj = 2 * (i - 1) + offset[side], 2 * (j - 1) + offset[side]
            bits[qi], bits[qj] = bits[qj], bits[qi]
        dest = sum(bit << (nq - 1 - q) for q, bit in enumerate(bits))
        m[dest, src] = 1.0
    return m


@lru_cache(maxsize=None)
def swap_layer(n, stage):
    """Dense layer of one stage, from the independent construction."""
    return permutation_matrix(n, LAYER_PAIRS[(n, stage)])


def parity_projector(n, stage, sign):
    """(I + sign * layer)/2, the projector onto a layer's +/-1 eigenspace."""
    return (np.eye(4**n) + sign * swap_layer(n, stage)) / 2.0


def moment_observable(n):
    """(stage1 + stage2)^2; its expectation on rho^(x)n is 2 (moment + 1)."""
    s = swap_layer(n, 1) + swap_layer(n, 2)
    return s @ s


def kron_power(m, n):
    """m^(x)n by repeated np.kron, left factor most significant."""
    return reduce(np.kron, [m] * n)


def spectral_moments(rho):
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    return tuple(float(np.sum(eigs**n)) for n in COPY_COUNTS)


class TestLayers:
    def test_layers_match_independent_construction(self):
        # L @ X = X[perm], so the rows of I taken in perm order are L
        for (n, stage), pairs in LAYER_PAIRS.items():
            perm = layer_permutation(n, stage)
            assert not perm.flags.writeable
            assert np.array_equal(np.eye(4**n)[perm], permutation_matrix(n, pairs)), (n, stage)

    def test_pair_swaps_are_hermitian_involutions(self):
        # every single swap the projector composition uses, against the dense construction
        for n in (3, 4):
            for side in ("a", "b"):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        perm = _swap_permutation(n, ((side, i, j),))
                        assert np.array_equal(perm[perm], np.arange(4**n))
                        s = np.eye(4**n)[perm]
                        assert np.array_equal(s, permutation_matrix(n, [(side, i, j)]))
                        assert np.array_equal(s, s.T)
                        assert np.array_equal(s @ s, np.eye(4**n))

    def test_layers_are_hermitian_involutions(self):
        for n in COPY_COUNTS:
            for stage in (1, 2):
                layer = swap_layer(n, stage)
                assert np.array_equal(layer, layer.T)
                assert np.array_equal(layer @ layer, np.eye(layer.shape[0]))

    def test_two_copy_layers_commute(self):
        a, b = swap_layer(2, 1), swap_layer(2, 2)
        assert np.array_equal(a @ b, b @ a)

    def test_layer_product_is_a_full_cycle(self):
        # the product permutes basis states with no fixed point outside the
        # all-equal bit patterns per side register; simplest invariant: its
        # n-th power is the identity and lower powers are not
        for n in (3, 4):
            cyc = swap_layer(n, 1) @ swap_layer(n, 2)
            power = np.eye(cyc.shape[0])
            for _ in range(n - 1):
                power = power @ cyc
                assert not np.array_equal(power, np.eye(cyc.shape[0]))
            assert np.array_equal(power @ cyc, np.eye(cyc.shape[0]))

    def test_bad_arguments_rejected(self):
        # a copy count without layers is rejected by the routes that read them
        with pytest.raises(ValueError):
            outcome_probabilities(MAX_MIXED, 5)
        with pytest.raises(ValueError):
            moment_cycle(MAX_MIXED, 1)
        with pytest.raises(ValueError, match=r"copy count must be one of \(3, 4\), got 2"):
            moment_via_observable(MAX_MIXED, 2)
        # layer_permutation names the allowed values instead of a bare KeyError
        with pytest.raises(ValueError, match=r"stage must be one of \(1, 2\), got 3"):
            layer_permutation(2, 3)
        with pytest.raises(ValueError, match=r"copy count must be one of \(2, 3, 4\), got 5"):
            layer_permutation(5, 1)
        # 2.0 == 2, but a float copy count is refused as every other bad n is,
        # not by numpy's bit shifts; a numpy integer is still a copy count
        with pytest.raises(ValueError, match=r"copy count must be one of \(2, 3, 4\), got 2\.0"):
            outcome_probabilities(MAX_MIXED, 2.0)
        with pytest.raises(ValueError, match=r"copy count must be one of \(2, 3, 4\), got 2\.0"):
            layer_permutation(2.0, 1)
        with pytest.raises(ValueError, match=r"copy count must be one of \(3, 4\), got 3\.0"):
            moment_via_observable(MAX_MIXED, 3.0)
        assert np.array_equal(outcome_probabilities(MAX_MIXED, np.int64(2)).probabilities,
                              outcome_probabilities(MAX_MIXED, 2).probabilities)


def pair_projector(n, pair, sign):
    """(I + sign * S)/2 for the swap S of one (side, copy, copy) pair."""
    return (np.eye(4**n) + sign * permutation_matrix(n, [pair])) / 2.0


class TestParityProjectors:
    def test_composition_equals_eigenspace_projector(self):
        # the pairwise-composed projectors must equal (I + sign*layer)/2; the
        # algebra is exact, so no tolerance is needed
        assert checks_module.projector_composition() == (True, 0.0, None)
        for n in COPY_COUNTS:
            for stage in (1, 2):
                layer = swap_layer(n, stage)
                eye = np.eye(layer.shape[0])
                first, *rest = LAYER_PAIRS[(n, stage)]
                even, odd = pair_projector(n, first, 1), pair_projector(n, first, -1)
                for pair in rest:
                    plus, minus = pair_projector(n, pair, 1), pair_projector(n, pair, -1)
                    even, odd = even @ plus + odd @ minus, even @ minus + odd @ plus
                for sign, composed in ((1, even), (-1, odd)):
                    assert np.abs(composed - (eye + sign * layer) / 2.0).max() == 0.0

    def test_a_broken_pairwise_composition_fails_the_claims(self, monkeypatch):
        # the stage-1 projector on 3 copies without its (b, 2, 3) swap is no
        # longer (I +/- L)/2, so L no longer maps it to +/- itself.  Patch a
        # copy: layer_permutation reads the dict itself, so an in-place edit
        # would change the layer too
        pairs = dict(checks_module._LAYER_PAIRS)
        pairs[(3, 1)] = pairs[(3, 1)][:1]
        monkeypatch.setattr(checks_module, "_LAYER_PAIRS", pairs)
        assert checks_module.nondemolition() == (False, 1.0, None)
        assert checks_module.projector_composition() == (False, 0.5, None)
        assert len(uwitness.collective._LAYER_PAIRS[(3, 1)]) == 2  # the layer is untouched

    def test_projector_algebra(self):
        for n in COPY_COUNTS:
            for stage in (1, 2):
                plus = parity_projector(n, stage, 1)
                minus = parity_projector(n, stage, -1)
                eye = np.eye(plus.shape[0])
                assert np.abs(plus @ minus).max() < 1e-14
                assert np.abs(plus @ plus - plus).max() < 1e-14
                assert np.abs(plus + minus - eye).max() == 0.0


class TestMomentRoutes:
    def test_cycle_route_matches_direct(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = random_mixed_state(rng)
            m = moments_direct(rho)
            for n, direct in zip(COPY_COUNTS, m.as_tuple()):
                assert abs(moment_cycle(rho, n) - direct) < 1e-12

    def test_cycle_route_matches_spectral_moments(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            rho = random_mixed_state(rng)
            for n, smom in zip(COPY_COUNTS, spectral_moments(rho)):
                assert abs(moment_cycle(rho, n) - smom) < 1e-10

    def test_cycle_trace_is_order_symmetric(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = random_mixed_state(rng)
            for n in COPY_COUNTS:
                rn = kron_power(rho, n)
                ab = np.trace(swap_layer(n, 1) @ swap_layer(n, 2) @ rn).real
                ba = np.trace(swap_layer(n, 2) @ swap_layer(n, 1) @ rn).real
                assert abs(ab - ba) < 1e-12

    def test_observable_route_matches_direct(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            rho = random_mixed_state(rng)
            m = moments_direct(rho)
            assert abs(moment_via_observable(rho, 3) - m.pi3) < 1e-12
            assert abs(moment_via_observable(rho, 4) - m.pi4) < 1e-12
        with pytest.raises(ValueError):
            moment_via_observable(MAX_MIXED, 2)

    def test_direct_and_collective_routes_are_homogeneous(self):
        # on c * rho both give c^n pi_n, exactly for a power of two (every term
        # and partial sum scales without rounding); the invariants route
        # assumes unit trace and is not checked here
        rng = np.random.default_rng(37)
        states = [werner(0.6), random_mixed_state(rng), random_pure_state(rng)]
        for rho in states:
            for route in (moments_direct, moments_collective):
                base = route(rho).as_tuple()
                for c, rtol in ((0.5, 0.0), (2.0, 0.0), (3.0, 1e-14)):
                    scaled = route(c * rho).as_tuple()
                    for n, b, v in zip(COPY_COUNTS, base, scaled):
                        assert abs(v - c**n * b) <= rtol * c**n, (route.__name__, c, n)
        assert abs(moments_direct(2.0 * werner(0.6)).pi2 - 4.0 * 0.52) < 1e-14

    def test_known_moment_values(self):
        assert abs(moment_cycle(singlet(), 3) - 0.25) < 1e-12
        assert abs(moment_cycle(werner(0.5), 3) - 0.15625) < 1e-12
        assert abs(moment_cycle(MAX_MIXED, 4) - 1.0 / 64.0) < 1e-14


class TestObservable:
    def test_spectra(self):
        _, (s3, s4, _), _ = checks_module.spectra_and_count()
        assert s3 == (1.0, 4.0)
        assert s4 == (0.0, 2.0, 4.0)

    def test_projection_count_totals_seven(self):
        passed, (_, _, count), state = checks_module.spectra_and_count()
        assert count == 7 and passed and state is None

    def test_spectra_and_multiplicities_match_dense_eigensolve(self):
        # the cycle spectrum against the eigenvalues of the dense (L1 + L2)^2
        _, spectra, _ = checks_module.spectra_and_count()
        for n, distinct in zip((3, 4), spectra):
            eigs = np.linalg.eigvalsh(moment_observable(n))
            dense = Counter(v + 0.0 for v in np.round(eigs, 8).tolist())
            assert checks_module._cycle_spectrum(n) == dict(dense)
            assert distinct == tuple(sorted(dense))
        assert checks_module._cycle_spectrum(3) == {1.0: 40, 4.0: 24}
        assert checks_module._cycle_spectrum(4) == {0.0: 66, 2.0: 120, 4.0: 70}

    def test_a_layer_that_is_not_an_involution_fails_the_claims(self, monkeypatch):
        real = layer_permutation

        def broken(n, stage):
            # every entry moved one place along: no longer squares to the identity
            return np.roll(real(n, stage), 1) if (n, stage) == (3, 1) else real(n, stage)

        monkeypatch.setattr(checks_module, "layer_permutation", broken)
        for claim in (checks_module.spectra_and_count, checks_module.projector_composition,
                      checks_module.nondemolition):
            with pytest.raises(ValueError, match="stage-1 layer on 3 copies does not square"):
                claim()

    def test_observable_is_shifted_cycle_sum(self):
        # (L1 + L2)^2 = 2 I + L1 L2 + L2 L1
        for n in (3, 4):
            l1, l2 = swap_layer(n, 1), swap_layer(n, 2)
            expected = 2 * np.eye(l1.shape[0]) + l1 @ l2 + l2 @ l1
            assert np.abs(moment_observable(n) - expected).max() == 0.0


class TestSequentialProbabilities:
    def test_singlet_table(self):
        table = outcome_probabilities(singlet(), 2)
        assert np.allclose(table.as_vector(), [0.75, 0.0, 0.0, 0.25], atol=1e-14)
        # the impossible outcomes are exactly zero, not merely small
        assert table.probabilities[0, 1] == 0.0 and table.probabilities[1, 0] == 0.0
        assert abs(table.moment - 1.0) < 1e-14

    def test_maximally_mixed_table(self):
        table = outcome_probabilities(MAX_MIXED, 2)
        assert np.allclose(table.as_vector(), np.array([9, 3, 3, 1]) / 16.0, atol=1e-14)
        assert abs(table.moment - 0.25) < 1e-14

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            rho = random_mixed_state(rng)
            for n in COPY_COUNTS:
                table = outcome_probabilities(rho, n)
                vec = table.as_vector()
                assert vec.min() > -1e-14
                assert abs(vec.sum() - 1.0) < 1e-12

    def test_signed_sum_recovers_moment(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            rho = random_mixed_state(rng)
            m = moments_direct(rho)
            for n, direct in zip(COPY_COUNTS, m.as_tuple()):
                assert abs(outcome_probabilities(rho, n).moment - direct) < 1e-12

    def test_moments_collective_bundle(self):
        rng = np.random.default_rng(37)
        rho = random_mixed_state(rng)
        mc = moments_collective(rho)
        md = moments_direct(rho)
        assert mc.source == "collective"
        assert max(abs(a - b) for a, b in zip(mc.as_tuple(), md.as_tuple())) < 1e-12

    def test_outcome_table_validation(self):
        with pytest.raises(ValueError):
            OutcomeTable(n_copies=2, probabilities=np.zeros(3))
        table = OutcomeTable(n_copies=2, probabilities=np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            table.probabilities[0, 0] = 1.0  # frozen storage

    @pytest.mark.parametrize("n", [7, 1, 2.0, True])
    def test_outcome_table_copy_count_rejected(self, n):
        # as for a hand-built ShotRecord: a table for n = 7 is no table of the measurement
        with pytest.raises(ValueError, match=rf"copy count must be one of \(2, 3, 4\), got {n}"):
            OutcomeTable(n_copies=n, probabilities=np.zeros((2, 2)))


def symmetrized_copies(rho, n):
    """(rho^(x)n + L rho^(x)n L)/2 for the dense stage-1 layer L."""
    rn = kron_power(np.asarray(rho, dtype=complex), n)
    layer = swap_layer(n, 1)
    return 0.5 * (rn + layer @ rn @ layer)


class TestSymmetrizedCopies:
    def test_commutes_with_stage1_layer(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            rho = random_mixed_state(rng)
            for n in COPY_COUNTS:
                rp = symmetrized_copies(rho, n)
                layer = swap_layer(n, 1)
                assert np.abs(layer @ rp - rp @ layer).max() < 1e-14

    def test_projections_match_raw_stack(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            rho = random_mixed_state(rng)
            for n in (2, 3):
                rp = symmetrized_copies(rho, n)
                rn = kron_power(rho, n)
                for sign in (1, -1):
                    proj = parity_projector(n, 1, sign)
                    assert np.abs(proj @ rp @ proj - proj @ rn @ proj).max() < 1e-14

    def test_is_a_state(self):
        rng = np.random.default_rng(40)
        rho = random_mixed_state(rng)
        rp = symmetrized_copies(rho, 3)
        assert abs(np.trace(rp) - 1.0) < 1e-12
        assert np.abs(rp - rp.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(rp).min() > -1e-12


def oracle_states():
    """Named edge cases plus random HS and pure states, as (label, rho)."""
    rng = np.random.default_rng(41)
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rank2 = v @ v.conj().T
    yield "singlet", singlet()
    yield "phi_plus", phi_plus()
    yield "maximally mixed", MAX_MIXED
    yield "werner 1/3 - 1e-9", werner(1 / 3 - 1e-9)
    yield "werner 1/3 + 1e-9", werner(1 / 3 + 1e-9)
    yield "rank 2", rank2 / np.trace(rank2).real
    for k in range(5):
        yield f"hs {k}", random_mixed_state(rng)
        yield f"pure {k}", random_pure_state(rng)


class TestEngineAgainstDenseOracle:
    """The permutation-trace engine against the dense 4^n-dimensional operators
    of permutation_matrix."""

    def test_outcome_tables(self):
        for label, rho in oracle_states():
            for n in COPY_COUNTS:
                rn = kron_power(rho, n)
                table = outcome_probabilities(rho, n).probabilities
                for yi, y in enumerate((1, -1)):
                    p = parity_projector(n, 1, y)
                    for xi, x in enumerate((1, -1)):
                        q = parity_projector(n, 2, x)
                        dense = np.trace(q @ p @ rn @ p @ q).real
                        assert abs(table[xi, yi] - dense) < 1e-12, (label, n, x, y)

    def test_cycle_and_observable_routes(self):
        for label, rho in oracle_states():
            for n in COPY_COUNTS:
                rn = kron_power(rho, n)
                cycle = np.trace(swap_layer(n, 1) @ swap_layer(n, 2) @ rn).real
                assert abs(moment_cycle(rho, n) - cycle) < 1e-12, (label, n)
                if n >= 3:
                    observable = 0.5 * np.trace(moment_observable(n) @ rn).real - 1.0
                    assert abs(moment_via_observable(rho, n) - observable) < 1e-12, (label, n)

    def test_each_table_word_trace(self):
        # the table reads t(L2) + t(L1 L2 L1) and t(L1 L2) + t(L2 L1) only as
        # sums, so each of its six words is checked on its own
        assert _TABLE_WORDS == ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))
        for n in COPY_COUNTS:
            dense = [reduce(np.matmul, [swap_layer(n, stage) for stage in word], np.eye(4**n))
                     for word in _TABLE_WORDS]
            for label, rho in oracle_states():
                rn = kron_power(rho, n)
                traces = _permutation_traces(rho, n, _TABLE_WORDS)
                for word, op, trace in zip(_TABLE_WORDS, dense, traces):
                    assert abs(trace - np.trace(op @ rn).real) < 1e-12, (label, n, word)

    def test_gather_tables_follow_the_dense_words(self):
        # tr[W R] = sum_j R[j, q(j)], q(j) the row of the 1 in column j of W; the
        # real traces cannot tell W from W^-1, so the tables are pinned entry by entry.
        # Copies 2f and 2f + 1 read entry 16 e_2f + e_2f+1 of the flat pair table
        # rho_i rho_j, and an odd last copy its entry e of rho.reshape(16)
        for n in COPY_COUNTS:
            digits = (np.arange(4**n) >> 2 * np.arange(n - 1, -1, -1)[:, None]) & 3  # base-4 digit of copy k
            expected = np.empty((n // 2 + n % 2, len(_TABLE_WORDS), 4**n), dtype=np.intp)
            for w, word in enumerate(_TABLE_WORDS):
                dense = reduce(np.matmul, [swap_layer(n, stage) for stage in word], np.eye(4**n))
                entry = 4 * digits + digits[:, dense.argmax(axis=0)]  # entry of rho copy k reads
                for f in range(n // 2):
                    expected[f, w] = 16 * entry[2 * f] + entry[2 * f + 1]
                if n % 2:
                    expected[-1, w] = entry[-1]
            assert np.array_equal(_trace_indices(n, _TABLE_WORDS), expected), n

    def test_unnormalized_input_matches_oracle(self):
        # t(I) = (tr rho)^n enters the table as it does the dense trace, and
        # the four probabilities sum to it
        rho = 2.0 * werner(0.6)
        for n in COPY_COUNTS:
            rn = kron_power(rho, n)
            p, q = parity_projector(n, 1, 1), parity_projector(n, 2, 1)
            dense = np.trace(q @ p @ rn @ p @ q).real
            table = outcome_probabilities(rho, n).probabilities
            assert abs(table[0, 0] - dense) < 1e-12
            assert abs(table.sum() - 2.0**n) < 1e-12 * 2.0**n, n

    def test_nan_passes_through_silently(self):
        # filterwarnings = error: a warning here fails the test.  Every trace
        # reads rho[0, 0]^n (the basis state 0 is fixed by every permutation)
        rho = werner(0.6).astype(complex)
        rho[0, 0] = np.nan
        for n in COPY_COUNTS:
            assert all(np.isnan(_permutation_traces(rho, n, _TABLE_WORDS))), n
            assert np.isnan(outcome_probabilities(rho, n).probabilities).all(), n
        assert np.isnan(moments_collective(rho).as_tuple()).all()

    @pytest.mark.parametrize("bad", [np.diag([np.inf, 0.0, 0.0, 0.0]), 1e200 * np.eye(4)],
                             ids=["inf", "overflow"])
    def test_inf_and_overflow_warn_like_the_direct_route(self, bad):
        with pytest.warns(RuntimeWarning):
            moments_direct(bad)
        for n in COPY_COUNTS:
            with pytest.warns(RuntimeWarning):
                _permutation_traces(bad, n, _TABLE_WORDS)

    def test_wrong_shape_rejected(self):
        for bad in (np.eye(3), np.eye(2), np.zeros(16), np.zeros((2, 8))):
            with pytest.raises(ValueError):
                outcome_probabilities(bad, 2)
            with pytest.raises(ValueError):
                moment_cycle(bad, 3)
            with pytest.raises(ValueError):
                moment_via_observable(bad, 4)

    def test_runtime_routes_build_no_dense_operator(self):
        # the runtime modules hold no reference to checks or to anything it defines
        checks_objects = {id(checks_module)} | {
            id(obj) for obj in vars(checks_module).values()
            if callable(obj) and getattr(obj, "__module__", None) == checks_module.__name__
        }
        for module in (uwitness.collective, uwitness.witness, uwitness.invariants, uwitness.simulate):
            leaks = [name for name, obj in vars(module).items() if id(obj) in checks_objects]
            assert leaks == [], (module.__name__, leaks)


def exact_entries(rho):
    """Each float entry of rho as the exact (re, im) pair of Fractions."""
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(rho, dtype=complex)]


def times(a, b):
    """The exact product of two (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def plus(a, b):
    """The exact sum of two (re, im) pairs."""
    return a[0] + b[0], a[1] + b[1]


def exact_table_traces(rho, n):
    """Re t(pi_w) for the six table words in exact rational arithmetic from
    exact_entries, each trace summed term by term over the basis from the
    dense words of swap_layer."""
    entry = exact_entries(rho)
    digits = [[(j >> 2 * (n - 1 - k)) & 3 for k in range(n)] for j in range(4**n)]
    traces = []
    for word in _TABLE_WORDS:
        q = reduce(np.matmul, [swap_layer(n, stage) for stage in word], np.eye(4**n)).argmax(axis=0)
        terms = (reduce(times, [entry[digits[j][k]][digits[q[j]][k]] for k in range(n)]) for j in range(4**n))
        traces.append(sum(term[0] for term in terms))
    return traces


def exact_moments_and_det(rho):
    """((pi2, pi3, pi4), det) of rho^PT in exact rational arithmetic from
    exact_entries: exact 4x4 products for the moments, the 24-term Leibniz
    sum for det; the real parts, as the routes return."""
    entry = exact_entries(rho)
    # rho^PT[(a, b), (c, d)] = rho[(c, b), (a, d)]: a relabelling, no arithmetic
    g = [[entry[2 * (j >> 1) + (i & 1)][2 * (i >> 1) + (j & 1)] for j in range(4)] for i in range(4)]

    def matmul(x, y):
        return [[reduce(plus, (times(x[i][k], y[k][j]) for k in range(4))) for j in range(4)] for i in range(4)]

    g2 = matmul(g, g)
    moments = tuple(sum(m[i][i][0] for i in range(4)) for m in (g2, matmul(g2, g), matmul(g2, g2)))
    det = Fraction(0)
    for perm in permutations(range(4)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        det += sign * reduce(times, (g[i][perm[i]] for i in range(4)))[0]
    return moments, det


def exact_oracle_states():
    """The states the exact oracle checks, as (label, rho)."""
    rng = np.random.default_rng(43)
    yield "singlet", singlet()
    yield "werner 1/3 - 1e-9", werner(1 / 3 - 1e-9)
    yield "werner 1/3 + 1e-9", werner(1 / 3 + 1e-9)
    yield "product", product_state(0.7)
    yield "hs", random_mixed_state(rng)
    yield "pure", random_pure_state(rng)
    yield "rank 2", 0.7 * random_pure_state(rng) + 0.3 * random_pure_state(rng)


class TestExactOracle:
    EPS = np.finfo(float).eps
    # Each moment is the trace of a product of matrices whose rows have norm
    # <= 1, a sum of O(1) terms with a few roundings each; the invariants
    # route adds the roundings of the 15 Pauli coefficients and of the y
    # combinations.  Worst seen: 0.24 eps direct (hs), 0.74 eps via the
    # invariants (hs).  The collective routes build on the engine traces,
    # each within 4 eps (test_table_traces_within_a_few_eps):
    # - cycle is one trace, t(L1 L2): 4 eps.  Worst seen 0.26 eps (hs, n = 2).
    # - collective is the table's signed sum, (t(L1 L2) + t(L2 L1))/2 exactly:
    #   4 eps from the traces; the table's own roundings, on sums of at most
    #   8 that are divided by 8 before the signed sum of four probabilities,
    #   add at most 4 more.  Worst seen 0.68 eps (rank 2, n = 2).
    # - observable is (2 t(I) + t(L1 L2) + t(L2 L1))/2 - 1: 8 eps from the
    #   three traces, whose - 1 cancels t(I) and leaves that error whole on a
    #   moment below 1, and the roundings of the O(1) sums add a few more:
    #   16 eps.  Worst seen 3.6 eps (pure, n = 4).
    MOMENT_BOUND = {"direct": 2, "invariants": 4, "collective": 8, "cycle": 4, "observable": 16}
    # each route's (pi2, pi3, pi4); the observable route has no n = 2
    ROUTES = {
        "direct": lambda rho: moments_direct(rho).as_tuple(),
        "invariants": lambda rho: uwitness.invariants.moments_via_invariants(rho).as_tuple(),
        "collective": lambda rho: moments_collective(rho).as_tuple(),
        "cycle": lambda rho: tuple(moment_cycle(rho, n) for n in COPY_COUNTS),
        "observable": lambda rho: (None,) + tuple(moment_via_observable(rho, n) for n in (3, 4)),
    }

    def test_table_traces_within_a_few_eps(self):
        # A term is a product of entries of modulus <= 1 with at most three
        # complex roundings, and the <= 256 terms are summed pairwise, so a
        # trace of a state lands within a few eps of its exact value; the
        # worst here is 1.0 eps (werner 1/3 - 1e-9, t(I) at n = 4)
        for label, rho in exact_oracle_states():
            for n in COPY_COUNTS:
                traces = _permutation_traces(rho, n, _TABLE_WORDS)
                for word, got, exact in zip(_TABLE_WORDS, traces, exact_table_traces(rho, n)):
                    assert abs(Fraction(got) - exact) <= 4 * self.EPS, (label, n, word)

    @pytest.mark.parametrize("route", sorted(MOMENT_BOUND))
    def test_moments_within_a_few_eps(self, route):
        for label, rho in exact_oracle_states():
            exact, _ = exact_moments_and_det(rho)
            for n, got, want in zip(COPY_COUNTS, self.ROUTES[route](rho), exact):
                if got is not None:
                    assert abs(Fraction(got) - want) <= self.MOMENT_BOUND[route] * self.EPS, (label, n)

    def test_w_error_is_about_1e_15(self):
        # The moment polynomial's error model (the witness docstring), against
        # the exact det of the float input.  w = -16 witness sums terms up to 16 * 8 / 24 in size,
        # each off by a moment error above times its coefficient and by a
        # few roundings, whatever the size of w: within 16 eps = 3.6e-15.
        # Worst seen: 2.7 eps (rank 2), 2.0 eps (pure), 0 (singlet, whose
        # entries are exact), and 0.6 and 0.1 eps at werner 1/3 -/+ 1e-9,
        # where |w| is about 4e-10; over 3450 random Haar-pure, HS and rank-2
        # states, 8.1 eps = 1.8e-15 (pure).
        for label, rho in exact_oracle_states():
            _, det = exact_moments_and_det(rho)
            got = uwitness.witness.witness_value(moments_direct(rho))
            assert 16 * abs(Fraction(got) - det) <= 16 * self.EPS, label

    def test_report_w_error_is_about_1e_15(self):
        # The report's witness is the product of the four eigenvalues of
        # rho^PT from one eigvalsh.  eigvalsh is backward stable and
        # ||rho^PT|| <= 1, so each eigenvalue is off by about eps; an error in
        # one moves 16 det by 16 times the product of the other three, about
        # 2 on the maximally entangled spectrum (1/2, 1/2, 1/2, -1/2) and
        # smaller elsewhere, and the product's three roundings add 3 eps of
        # 16 |det| <= 1: within 16 eps, as for the polynomial.  Near w = 0
        # the small eigenvalues shrink the error with w, which the
        # polynomial's cancellation does not.  Worst seen: 1.05 eps (hs),
        # 0.46 eps (pure), 0.18 eps (rank 2), 0 on the singlet, 2e-10 eps at
        # werner 1/3 -/+ 1e-9 (0.6 and 0.1 eps for the polynomial) and 1e-33
        # eps on the product state; over 3450 random Haar-pure, HS and rank-2
        # states, 11.0 eps = 2.4e-15 (pure, w near 1).
        for label, rho in exact_oracle_states():
            _, det = exact_moments_and_det(rho)
            got = uwitness.witness.witness_report(rho).witness
            assert 16 * abs(Fraction(got) - det) <= 16 * self.EPS, label
