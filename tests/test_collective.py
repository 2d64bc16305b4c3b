import numpy as np
import pytest

import uwitness.checks as checks_module
import uwitness.collective
import uwitness.invariants
import uwitness.simulate
import uwitness.witness
from uwitness.checks import (
    moment_observable,
    observable_spectrum,
    parity_projector,
    projection_count,
    swap_layer,
    symmetrized_copies,
    tensor_power,
)
from uwitness.collective import (
    COPY_COUNTS,
    OutcomeTable,
    moment_cycle,
    moment_via_observable,
    moments_collective,
    outcome_probabilities,
)
from uwitness.linalg import hermitian_eig, partial_transpose
from uwitness.simulate import sample_shots
from uwitness.states import phi_plus, random_mixed_state, random_pure_state, singlet, werner
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


def spectral_moments(rho):
    eigs = hermitian_eig(partial_transpose(rho))
    return tuple(float(np.sum(eigs**n)) for n in COPY_COUNTS)


class TestLayers:
    def test_layers_match_independent_construction(self):
        for (n, stage), pairs in LAYER_PAIRS.items():
            assert np.array_equal(swap_layer(n, stage), permutation_matrix(n, pairs)), (n, stage)

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
        with pytest.raises(ValueError):
            swap_layer(5, 1)
        with pytest.raises(ValueError):
            swap_layer(2, 3)


class TestParityProjectors:
    def test_composition_equals_eigenspace_projector(self):
        # the pairwise-composed projectors must equal (I + sign*layer)/2; the
        # algebra is exact, so no tolerance is needed
        for n in COPY_COUNTS:
            for stage in (1, 2):
                layer = swap_layer(n, stage)
                eye = np.eye(layer.shape[0])
                for sign in (1, -1):
                    composed = parity_projector(n, stage, sign)
                    assert np.abs(composed - (eye + sign * layer) / 2.0).max() == 0.0

    def test_projector_algebra(self):
        for n in COPY_COUNTS:
            for stage in (1, 2):
                plus = parity_projector(n, stage, 1)
                minus = parity_projector(n, stage, -1)
                eye = np.eye(plus.shape[0])
                assert np.abs(plus @ minus).max() < 1e-14
                assert np.abs(plus @ plus - plus).max() < 1e-14
                assert np.abs(plus + minus - eye).max() == 0.0

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            parity_projector(2, 1, 0)


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
                rn = tensor_power(rho, n)
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

    def test_known_moment_values(self):
        assert abs(moment_cycle(singlet(), 3) - 0.25) < 1e-12
        assert abs(moment_cycle(werner(0.5), 3) - 0.15625) < 1e-12
        assert abs(moment_cycle(MAX_MIXED, 4) - 1.0 / 64.0) < 1e-14


class TestObservable:
    def test_spectra(self):
        assert observable_spectrum(3) == (1.0, 4.0)
        assert observable_spectrum(4) == (0.0, 2.0, 4.0)

    def test_projection_count_totals_seven(self):
        assert projection_count() == 7

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
                rn = tensor_power(rho, n)
                for sign in (1, -1):
                    proj = parity_projector(n, 1, sign)
                    assert np.abs(proj @ rp @ proj - proj @ rn @ proj).max() < 1e-14

    def test_is_a_state(self):
        rng = np.random.default_rng(40)
        rho = random_mixed_state(rng)
        rp = symmetrized_copies(rho, 3)
        assert abs(np.trace(rp) - 1.0) < 1e-12
        assert np.abs(rp - rp.conj().T).max() < 1e-14
        assert hermitian_eig(rp).min() > -1e-12


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
    """The permutation-trace engine against the dense 4^n-dimensional operators."""

    def test_outcome_tables(self):
        for label, rho in oracle_states():
            for n in COPY_COUNTS:
                rn = tensor_power(rho, n)
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
                rn = tensor_power(rho, n)
                cycle = np.trace(swap_layer(n, 1) @ swap_layer(n, 2) @ rn).real
                assert abs(moment_cycle(rho, n) - cycle) < 1e-12, (label, n)
                if n >= 3:
                    observable = 0.5 * np.trace(moment_observable(n) @ rn).real - 1.0
                    assert abs(moment_via_observable(rho, n) - observable) < 1e-12, (label, n)

    def test_unnormalized_input_matches_oracle(self):
        # t(I) = (tr rho)^n enters the table as it does the dense trace
        rho = 2.0 * werner(0.6)
        for n in COPY_COUNTS:
            rn = tensor_power(rho, n)
            p, q = parity_projector(n, 1, 1), parity_projector(n, 2, 1)
            dense = np.trace(q @ p @ rn @ p @ q).real
            assert abs(outcome_probabilities(rho, n).probabilities[0, 0] - dense) < 1e-12

    def test_wrong_shape_rejected(self):
        for bad in (np.eye(3), np.eye(2), np.zeros(16), np.zeros((2, 8))):
            with pytest.raises(ValueError):
                outcome_probabilities(bad, 2)
            with pytest.raises(ValueError):
                moment_cycle(bad, 3)
            with pytest.raises(ValueError):
                moment_via_observable(bad, 4)

    def test_runtime_routes_build_no_dense_operator(self):
        # the runtime modules hold no reference to the oracle or to checks ...
        oracle = {id(checks_module)} | {
            id(obj) for obj in vars(checks_module).values()
            if callable(obj) and getattr(obj, "__module__", None) == checks_module.__name__
        }
        for module in (uwitness.collective, uwitness.witness, uwitness.invariants, uwitness.simulate):
            leaks = [name for name, obj in vars(module).items() if id(obj) in oracle]
            assert leaks == [], (module.__name__, leaks)
        # ... and running them builds no dense operator
        caches = (swap_layer, parity_projector, moment_observable, checks_module.layer_permutation)
        for cache in caches:
            cache.cache_clear()
        rho = random_mixed_state(np.random.default_rng(42))
        for n in COPY_COUNTS:
            outcome_probabilities(rho, n)
            moment_cycle(rho, n)
            sample_shots(rho, n, 100, seed=n)
        moments_collective(rho)
        for n in (3, 4):
            moment_via_observable(rho, n)
        assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0, 0]
