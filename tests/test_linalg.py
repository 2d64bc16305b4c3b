import numpy as np
import pytest

from uwitness.checks import swap_qubits, tensor_power
from uwitness.linalg import hermitian_eig, partial_transpose

SWAP4 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=float,
)


def random_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_tensor_power_shapes_and_values():
    rng = np.random.default_rng(1)
    rho = random_state(rng)
    r3 = tensor_power(rho, 3)
    assert r3.shape == (64, 64)
    assert abs(np.trace(r3) - 1.0) < 1e-12
    assert np.allclose(r3, np.kron(np.kron(rho, rho), rho))
    with pytest.raises(ValueError):
        tensor_power(rho, 0)


def test_partial_transpose_identity_fixed_point():
    assert np.array_equal(partial_transpose(np.eye(4) / 4), np.eye(4) / 4)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(2)
    rho = random_state(rng)
    assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_singlet_spectrum():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(v, v)
    eigs = hermitian_eig(partial_transpose(rho))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_preserves_trace_and_purity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = random_state(rng)
        g = partial_transpose(rho)
        assert abs(np.trace(g) - np.trace(rho)) < 1e-13
        assert abs(np.trace(g @ g) - np.trace(rho @ rho)) < 1e-12


def test_partial_transpose_rejects_bad_shape():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(3))


def test_swap_qubits_two_qubit_matrix():
    assert np.array_equal(swap_qubits(2, 0, 1), SWAP4)


def test_swap_qubits_involution_and_hermitian():
    for n_qubits in (6, 8):
        for i in range(n_qubits):
            for j in range(i + 1, n_qubits):
                s = swap_qubits(n_qubits, i, j)
                assert np.array_equal(s, s.T)
                assert np.array_equal(s @ s, np.eye(2 ** n_qubits))


def test_swap_qubits_bad_indices():
    with pytest.raises(IndexError):
        swap_qubits(4, 0, 4)
    with pytest.raises(ValueError):
        swap_qubits(4, 1, 1)


def test_swap_expectation_equals_purity_of_reduction():
    # swap trick: tr[S_a1a2 (rho (x) rho)] = tr[(tr_b rho)^2]
    rng = np.random.default_rng(4)
    s_a = swap_qubits(4, 0, 2)  # the a-side qubits of copies 1 and 2
    for _ in range(20):
        rho = random_state(rng)
        lhs = np.trace(s_a @ np.kron(rho, rho)).real
        ra = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))  # tr_b rho
        assert abs(lhs - np.trace(ra @ ra).real) < 1e-12


def test_hermitian_eig_known_spectra():
    assert np.allclose(hermitian_eig(np.eye(4)), np.ones(4))
    # werner-type spectrum of the partial transpose at p = 1/2
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = 0.5 * np.outer(v, v) + 0.5 * np.eye(4) / 4
    eigs = hermitian_eig(partial_transpose(rho))
    assert np.allclose(eigs, [-0.125, 0.375, 0.375, 0.375], atol=1e-12)


def test_hermitian_eig_sum_matches_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_state(rng)
        assert abs(hermitian_eig(rho).sum() - 1.0) < 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(m)

