"""Linear algebra on two-qubit matrices and stacks of them.

Everything here works on plain ndarrays of shape (..., d, d) and broadcasts
over the leading axes: a single matrix is the case with no leading axes.
Qubits are indexed left-to-right in the tensor product (qubit 0 is the most
significant bit of the computational-basis index), so a two-qubit matrix
reshapes to the tensor r[..., a_row, b_row, a_col, b_col].

Every number the package takes from a caller is judged here, and nowhere
else, by one of three rules; each refusal is a ValueError naming the
argument:

- the number rule (_numbers, through _real for real arrays and _complex
  for complex ones): numpy must read the input as int, uint or float
  numbers, or complex where a matrix is due; a bool, a string, an object
  array (None, a complex in a list of objects, an int past int64) or a
  bool entry of a list is refused;
- the matrix rule (_matrix): a two-qubit matrix is input the number rule
  passes, read as a complex (..., 4, 4) array, else "expected a 4x4 matrix
  or a (..., 4, 4) stack, got shape ...", the one shape check of the
  package.  The moment routes, partial_transpose, decompose and
  apply_local_unitary apply this rule alone, so a NaN passes through them;
  sample_shots and save_state also require exactly one matrix, not a stack;
- the integer rule (_integer): a Python or numpy integer, not a bool, in an
  allowed set (copy counts, stages) or at least a floor (seeds, shots,
  resamples, rotations, k), and at most 2**53 where it counts float64
  entries (shots, resamples).

Whether a matrix is a state is the stricter rule of uwitness.states, built
on the matrix rule, which names a bad matrix of a stack through _position.
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


# a complex128 ndarray, the dtype of every state the package builds, is
# read with no conversion: the matrix rule runs on every route call
_COMPLEX = np.dtype(complex)


def _matrix(rho, name: str = "rho") -> np.ndarray:
    """rho as a complex (..., 4, 4) array: the matrix rule, the one shape
    check of every entry point; ValueError naming `name` on input off the
    number rule, and on any other shape."""
    rho = _complex(rho, name)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {rho.shape}")
    return rho


def _complex(x, name: str) -> np.ndarray:
    """x as a complex array, by the number rule with complex allowed."""
    if type(x) is np.ndarray and x.dtype is _COMPLEX:
        return x
    return _numbers(x, name, "iufc", "numeric").astype(complex, copy=False)


def _real(x, name: str, what: str = "real") -> np.ndarray:
    """x as a new float array, by the number rule: a complex dtype is
    refused, since a cast to float would silently drop its imaginary part.
    `what` is what the entries must be, for the message."""
    return _numbers(x, name, "iuf", what).astype(float)


def _numbers(x, name: str, kinds: str, what: str) -> np.ndarray:
    """np.asarray(x), or ValueError naming `name` unless its dtype kind is
    one of `kinds` and no entry of a list or tuple is a bool, which
    np.asarray would read as 0 or 1."""
    a = np.asarray(x)
    if a.dtype.kind == "b" or isinstance(x, (list, tuple)) and any(
            isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat):
        raise ValueError(f"{name} must be {what}, not bools, got {x!r}")
    if a.dtype.kind not in kinds:
        raise ValueError(f"{name} must be {'real' if a.dtype.kind == 'c' else what}, got dtype {a.dtype}")
    return a


def _integer(value, name: str, allowed: tuple = None, low: int = None, float_exact: bool = False):
    """value, unchanged, by the integer rule: a Python or numpy integer, not
    a bool, that is one of `allowed` if given, at least `low` if given, and
    at most 2**53, the largest count float64 holds exactly, if float_exact;
    else ValueError naming `name`."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if allowed is not None:
        if not (integer and value in allowed):
            raise ValueError(f"{name} must be one of {allowed}, got {value}")
        return value
    if not integer:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if float_exact and value > 2**53:
        raise ValueError(f"{name} must be <= 2**53, got {value}")
    return value


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
