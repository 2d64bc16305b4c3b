"""Dense linear algebra for small multi-qubit registers.

Everything here works on plain complex ndarrays.  Qubits are indexed
left-to-right in the tensor product (qubit 0 is the most significant bit
of the computational-basis index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

HERMITICITY_ATOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit ordering for ``n_copies`` stacked two-qubit pairs.

    Copies are stacked copy-major: a1, b1, a2, b2, ...  With this ordering
    the register state of n identically prepared pairs is the literal n-fold
    tensor power of the single-pair density matrix.
    """

    n_copies: int

    def __post_init__(self):
        if not 1 <= self.n_copies <= 4:
            raise ValueError(f"n_copies must be in 1..4, got {self.n_copies}")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_copies

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def a(self, k: int) -> int:
        """Global position of the a-side qubit of copy k (copies count from 1)."""
        self._check_copy(k)
        return 2 * (k - 1)

    def b(self, k: int) -> int:
        """Global position of the b-side qubit of copy k."""
        self._check_copy(k)
        return 2 * (k - 1) + 1

    def _check_copy(self, k: int):
        if not 1 <= k <= self.n_copies:
            raise IndexError(f"copy index {k} out of range 1..{self.n_copies}")


def kron(*matrices) -> np.ndarray:
    """Tensor product of the given matrices, left factor most significant."""
    if not matrices:
        raise ValueError("kron needs at least one factor")
    return reduce(np.kron, matrices)


def tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power of a matrix."""
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    return kron(*([m] * n))


def partial_transpose(rho: np.ndarray, d_a: int = 2, d_b: int = 2) -> np.ndarray:
    """Transpose the first tensor factor of a bipartite matrix.

    For a two-qubit density matrix this is the partial transpose whose
    spectrum decides the PPT separability test.
    """
    rho = np.asarray(rho)
    d = d_a * d_b
    if rho.shape != (d, d):
        raise ValueError(f"expected shape ({d}, {d}), got {rho.shape}")
    return (
        rho.reshape(d_a, d_b, d_a, d_b)
        .transpose(2, 1, 0, 3)
        .reshape(d, d)
    )


def swap_qubits(layout: RegisterLayout, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j of the register.

    Built by permuting computational-basis indices bitwise, so the result
    is exact (entries 0 and 1 only).
    """
    n = layout.n_qubits
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"qubit index out of range 0..{n - 1}: ({i}, {j})")
    if i == j:
        raise ValueError("swap needs two distinct qubits")
    dim = layout.dim
    # bit positions count from the left (qubit 0 = most significant bit)
    shift_i = n - 1 - i
    shift_j = n - 1 - j
    src = np.arange(dim)
    bit_i = (src >> shift_i) & 1
    bit_j = (src >> shift_j) & 1
    dest = src & ~(1 << shift_i) & ~(1 << shift_j)
    dest |= bit_j << shift_i
    dest |= bit_i << shift_j
    s = np.zeros((dim, dim))
    s[dest, src] = 1.0
    return s


def hermitian_eig(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises ValueError if the matrix deviates from Hermiticity by more than
    ``atol`` in any entry; silent symmetrization hides real bugs.
    """
    m = np.asarray(m)
    dev = np.abs(m - m.conj().T).max()
    if dev > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| entry is {dev:.3e} (atol {atol:.1e})"
        )
    return np.linalg.eigvalsh(m)

