"""Dense linear algebra for small multi-qubit registers.

Everything here works on plain complex ndarrays.  Qubits are indexed
left-to-right in the tensor product (qubit 0 is the most significant bit
of the computational-basis index).  partial_transpose and hermitian_eig take
a matrix of shape (..., d, d) and broadcast over the leading axes: a single
matrix is the case with no leading axes.
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
    """Transpose the first tensor factor of a bipartite matrix, or of each
    matrix in a (..., d, d) stack.

    For a two-qubit density matrix this is the partial transpose whose
    spectrum decides the PPT separability test.
    """
    rho = np.asarray(rho)
    d = d_a * d_b
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"expected shape (..., {d}, {d}), got {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b)).swapaxes(-4, -2).reshape(rho.shape)


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
    """Real eigenvalues of a Hermitian matrix, or of each matrix in a
    (..., d, d) stack, ascending along the last axis.

    Raises ValueError if a matrix deviates from Hermiticity by more than
    ``atol`` in any entry; silent symmetrization hides real bugs.  A NaN or
    infinite entry fails the same comparison and is named as such.
    """
    m = np.asarray(m)
    dev = np.abs(m - _dagger(m)).max(initial=0.0)
    if not dev <= atol:
        _require_finite(m)
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| entry is {dev:.3e} (atol {atol:.1e})"
        )
    return np.linalg.eigvalsh(m)


def _require_finite(rho) -> np.ndarray:
    """rho as a complex array; ValueError naming the first matrix of the
    (..., d, d) stack that holds a NaN or an infinity."""
    rho = np.asarray(rho, dtype=complex)
    if np.count_nonzero(np.isfinite(rho)) != rho.size:
        index = np.argwhere(~np.isfinite(rho).all(axis=(-2, -1)))[0].tolist()
        where = f"state {', '.join(map(str, index))} of the stack" if index else "the matrix"
        raise ValueError(f"non-finite entry in {where}")
    return rho


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., d, d) stack."""
    return m.conj().swapaxes(-1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    """Trace of each matrix of a (..., d, d) stack: the sum np.trace takes,
    a little cheaper on one matrix."""
    return m.diagonal(0, -2, -1).sum(-1)


def _result(x):
    """One state's real result (a numpy scalar or 0-d array) as a Python
    float, a stack's as its array; a Python number passes through.
    Arithmetic on a Python float is an order of magnitude cheaper than on a
    numpy scalar, and float() than .item()."""
    return float(x) if getattr(x, "ndim", None) == 0 else x


def _positive_part(x):
    """max(x, 0) with +0.0 for x <= 0, on a scalar (returned as a Python
    float) or elementwise on an array; operators instead of np.maximum,
    whose call costs more than the arithmetic on a scalar.  x is finite."""
    x = _result(x)
    return x * (x > 0.0) + 0.0
