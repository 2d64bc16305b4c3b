import dataclasses
import re

import numpy as np
import pytest

from uwitness import checks
from uwitness.invariants import (
    PAULI,
    MakhlinInvariants,
    apply_local_unitary,
    decompose,
    makhlin,
    moments_from_invariants,
    moments_via_invariants,
)
from uwitness.states import (
    haar_unitary,
    phi_plus,
    product_state,
    random_mixed_state,
    singlet,
    validate,
    werner,
)
from uwitness.witness import moments_direct

MAX_MIXED = np.eye(4) / 4


def reconstruct(t: np.ndarray) -> np.ndarray:
    """Rebuild the density matrix, (1/4) sum_ij t_ij sigma_i x sigma_j."""
    return np.einsum("...ij,iac,jbd->...abcd", t, PAULI, PAULI).reshape(*t.shape[:-2], 4, 4) / 4.0

INVARIANT_FIELDS = [f.name for f in dataclasses.fields(MakhlinInvariants)]


class TestDecompose:
    def test_maximally_mixed_has_no_bloch_data(self):
        t = decompose(MAX_MIXED)
        assert np.allclose(t[1:, 0], 0.0, atol=1e-14)
        assert np.allclose(t[0, 1:], 0.0, atol=1e-14)
        assert np.allclose(t[1:, 1:], 0.0, atol=1e-14)

    def test_singlet_correlations(self):
        t = decompose(singlet())
        assert np.allclose(t[1:, 0], 0.0, atol=1e-14)
        assert np.allclose(t[0, 1:], 0.0, atol=1e-14)
        assert np.allclose(t[1:, 1:], -np.eye(3), atol=1e-14)

    def test_phi_plus_correlations(self):
        t = decompose(phi_plus())
        assert np.allclose(t[1:, 1:], np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_werner_correlations_scale_with_p(self):
        for p in (0.2, 0.7):
            t = decompose(werner(p))
            assert np.allclose(t[1:, 1:], -p * np.eye(3), atol=1e-13)

    def test_product_state_has_rank_one_beta(self):
        t = decompose(product_state(0.4))
        assert np.allclose(t[1:, 1:], np.outer(t[1:, 0], t[0, 1:]), atol=1e-12)

    def test_matches_kron_trace_definition(self):
        # t_ij = tr[(sigma_i x sigma_j) rho], evaluated one Kronecker product at a time
        rng = np.random.default_rng(40)
        for _ in range(20):
            rho = random_mixed_state(rng)
            t = decompose(rho)
            expected = [[np.trace(np.kron(PAULI[i], PAULI[j]) @ rho).real for j in range(4)]
                        for i in range(4)]
            assert type(t) is np.ndarray and t.dtype == np.float64 and t.shape == (4, 4)
            assert np.abs(t - expected).max() < 1e-14

    def test_reconstruct_roundtrip(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho = random_mixed_state(rng)
            assert np.abs(reconstruct(decompose(rho)) - rho).max() < 1e-12


class TestMakhlin:
    def test_singlet_values(self):
        inv = makhlin(decompose(singlet()))
        assert abs(inv.i1 + 1.0) < 1e-12
        assert abs(inv.i2 - 3.0) < 1e-12
        assert abs(inv.i3 - 3.0) < 1e-12
        for name in ("i4", "i5", "i7", "i8", "i12", "i14"):
            assert abs(getattr(inv, name)) < 1e-12, name
        assert np.allclose(inv.y, (3.0, 3.0, 0.0, 0.0, -1.0, 0.0), rtol=0, atol=1e-12)

    def test_maximally_mixed_values(self):
        inv = makhlin(decompose(MAX_MIXED))
        for name in INVARIANT_FIELDS:
            assert abs(getattr(inv, name)) < 1e-14, name
        assert max(abs(v) for v in inv.y) < 1e-14

    def test_werner_half_values(self):
        inv = makhlin(decompose(werner(0.5)))
        assert abs(inv.i1 + 0.125) < 1e-12
        assert abs(inv.i2 - 0.75) < 1e-12
        assert abs(inv.i3 - 0.1875) < 1e-12
        assert np.allclose(inv.y, (0.75, 0.1875, 0.0, 0.0, -0.125, 0.0), rtol=0, atol=1e-12)

    def test_exactly_the_nine_makhlin_invariants(self):
        assert INVARIANT_FIELDS == ["i1", "i2", "i3", "i4", "i5", "i7", "i8", "i12", "i14"]

    def test_y_combinations_are_consistent(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            inv = makhlin(decompose(random_mixed_state(rng)))
            assert inv.y == (inv.i2, inv.i3, inv.i4, inv.i7, inv.i1 + inv.i12,
                             inv.i5 + inv.i8 + inv.i14)


class TestMomentsFromInvariants:
    def test_reference_states(self):
        cases = [
            (singlet(), (1.0, 0.25, 0.25)),
            (MAX_MIXED, (0.25, 0.0625, 0.015625)),
        ]
        for rho, expected in cases:
            m = moments_via_invariants(rho)
            assert m.source == "invariants"
            assert np.allclose(m.as_tuple(), expected, atol=1e-12)
        # the six numbers alone fix the moments: singlet y = (3, 3, 0, 0, -1, 0)
        m = moments_from_invariants((3.0, 3.0, 0.0, 0.0, -1.0, 0.0))
        assert m.as_tuple() == (1.0, 0.25, 0.25)

    def test_matches_direct_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            rho = random_mixed_state(rng)
            md = moments_direct(rho)
            mi = moments_via_invariants(rho)
            assert max(abs(a - b) for a, b in zip(md.as_tuple(), mi.as_tuple())) < 1e-12


class TestLocalUnitaryInvariance:
    def test_invariants_are_invariant(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            rho = random_mixed_state(rng)
            base = makhlin(decompose(rho))
            rotated_rho = apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng))
            rotated = makhlin(decompose(rotated_rho))
            for name in INVARIANT_FIELDS:
                assert abs(getattr(rotated, name) - getattr(base, name)) < checks.ROUNDING_MARK, name

    def test_moments_are_invariant(self):
        rng = np.random.default_rng(46)
        rho = random_mixed_state(rng)
        base = moments_via_invariants(rho)
        for _ in range(10):
            rotated = apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng))
            m = moments_via_invariants(rotated)
            assert max(abs(a - b) for a, b in zip(m.as_tuple(), base.as_tuple())) < checks.ROUNDING_MARK

    def test_rotation_preserves_physicality_and_spectrum(self):
        rng = np.random.default_rng(47)
        rho = random_mixed_state(rng)
        rotated = validate(apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng)))
        assert np.allclose(
            np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(rho), atol=1e-12
        )

    def test_bloch_data_itself_rotates(self):
        # sanity: beta is generally not invariant, only its combinations are
        rng = np.random.default_rng(48)
        rho = werner(0.8)
        rotated = apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng))
        assert np.abs(decompose(rotated)[1:, 1:] - decompose(rho)[1:, 1:]).max() > 1e-3

    @pytest.mark.parametrize("shape", [(3, 3), (2,)])
    def test_factor_must_be_2x2(self, shape):
        # a (3, 3) factor reached numpy's reshape error, a (2,) factor an IndexError
        for u_a, u_b in ((np.ones(shape), np.eye(2)), (np.eye(2), np.ones(shape))):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected 2x2 local factors or (..., 2, 2) stacks, got shape {shape}")):
                apply_local_unitary(werner(0.5), u_a, u_b)
