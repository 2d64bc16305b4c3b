"""Linear algebra on two-qubit matrices and stacks of them.

Everything here works on plain ndarrays of shape (..., d, d) and broadcasts
over the leading axes: a single matrix is the case with no leading axes.
Qubits are indexed left-to-right in the tensor product (qubit 0 is the most
significant bit of the computational-basis index), so a two-qubit matrix
reshapes to the tensor r[..., a_row, b_row, a_col, b_col].

The matrix rule lives here, in _matrix: a two-qubit matrix is anything
np.asarray reads as a complex (..., 4, 4) array, else ValueError "expected a
4x4 matrix or a (..., 4, 4) stack, got shape ...".  It is the one shape
check of the package.  The moment routes, partial_transpose, decompose and
apply_local_unitary apply this rule alone, so a NaN passes through them;
sample_shots and save_state also require exactly one matrix, not a stack.
Whether a matrix is a state is the stricter rule of uwitness.states, built
on this one, which names a bad matrix of a stack through _position.
"""

from __future__ import annotations

import numpy as np


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the first qubit of a two-qubit matrix, or of each matrix in
    a (..., 4, 4) stack; complex, whatever the input's dtype.

    For a two-qubit density matrix this is the partial transpose whose
    spectrum decides the PPT separability test.
    """
    rho = _matrix(rho)
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(rho.shape)


def _matrix(rho) -> np.ndarray:
    """rho as a complex (..., 4, 4) array: the matrix rule, the one shape
    check of every entry point; ValueError on any other shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {rho.shape}")
    return rho


def _position(bad) -> str:
    """'state i of the stack' (i, j, ... over several leading axes) for the first
    True of the per-matrix flags `bad`; '' for a single matrix."""
    index = np.argwhere(bad)[0].tolist()
    return f"state {', '.join(map(str, index))} of the stack" if index else ""


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
