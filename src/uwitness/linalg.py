"""Linear algebra on two-qubit matrices and stacks of them.

Everything here works on plain ndarrays of shape (..., d, d) and broadcasts
over the leading axes: a single matrix is the case with no leading axes.
Qubits are indexed left-to-right in the tensor product (qubit 0 is the most
significant bit of the computational-basis index), so a two-qubit matrix
reshapes to the tensor r[..., a_row, b_row, a_col, b_col] (_pair_tensor).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_ATOL = 1e-10


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the first qubit of a two-qubit matrix, or of each matrix in
    a (..., 4, 4) stack.

    For a two-qubit density matrix this is the partial transpose whose
    spectrum decides the PPT separability test.
    """
    r = _pair_tensor(rho)
    return r.swapaxes(-4, -2).reshape(r.shape[:-4] + (4, 4))


def _pair_tensor(rho) -> np.ndarray:
    """A (..., 4, 4) stack of two-qubit matrices as the view
    r[..., a_row, b_row, a_col, b_col]; ValueError on any other shape."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a (..., 4, 4) two-qubit matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))


def hermitian_eig(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each matrix in a
    (..., d, d) stack, ascending along the last axis.

    Raises ValueError if a matrix deviates from Hermiticity by more than
    HERMITICITY_ATOL in any entry; silent symmetrization hides real bugs.
    A NaN or infinite entry is named as such, and is caught before the
    comparison, where inf - inf would make numpy warn.
    """
    m = np.asarray(m)
    _require_finite(m)
    dev = np.abs(m - _dagger(m)).max(initial=0.0)
    if dev > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| entry is {dev:.3e} (atol {HERMITICITY_ATOL:.1e})"
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
