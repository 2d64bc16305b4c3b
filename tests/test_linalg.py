import numpy as np
import pytest

from uwitness.linalg import partial_transpose

from test_collective import permutation_matrix


def random_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_partial_transpose_identity_fixed_point():
    g = partial_transpose(np.eye(4) / 4)
    # a real matrix comes back complex, as from every route through the matrix rule
    assert g.dtype == complex and np.array_equal(g, np.eye(4) / 4)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(2)
    rho = random_state(rng)
    assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_singlet_spectrum():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(v, v)
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
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


def test_swap_expectation_equals_purity_of_reduction():
    # swap trick: tr[S_a1a2 (rho (x) rho)] = tr[(tr_b rho)^2]
    rng = np.random.default_rng(4)
    s_a = permutation_matrix(2, [("a", 1, 2)])  # the a-side qubits of copies 1 and 2
    for _ in range(20):
        rho = random_state(rng)
        lhs = np.trace(s_a @ np.kron(rho, rho)).real
        ra = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))  # tr_b rho
        assert abs(lhs - np.trace(ra @ ra).real) < 1e-12

