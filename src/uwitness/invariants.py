"""Pauli decomposition and local-unitary invariants of a two-qubit state.

Every two-qubit state is rho = (1/4) sum_ij T_ij sigma_i x sigma_j with the
real 4x4 Pauli-coefficient matrix T_ij = tr[(sigma_i x sigma_j) rho],
sigma_0 = I; decompose returns T itself, a plain real array.  Its blocks are
the Bloch data: the one-qubit vectors s = T[1:, 0] and p = T[0, 1:] and the
3x3 correlation matrix beta = T[1:, 1:], which local unitaries rotate by
independent SO(3) rotations.  Makhlin's polynomial invariants of
(s, p, beta) (Quantum Inf. Process. 1, 243 (2002)) determine the state up to
local unitaries; six combinations of them, `y`, already fix the moments of
the partially transposed state, hence the witness:

    moments_from_invariants(makhlin(decompose(rho)).y)

The moment formulas hold for unit trace only: they take T_00 = tr rho = 1,
so on c * rho this route does not give c^n pi_n as the direct and collective
routes do (2 * werner(0.6) gives pi2 = 1.33, not 4 x 0.52 = 2.08).

Every function takes rho of shape (..., 4, 4) and broadcasts over the
leading axes: T is then (..., 4, 4), and each invariant is an array of the
leading shape (a Python float for one state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _dagger, _matrix, _result, _trace
from .witness import MomentSet

# sigma_0 = I, sigma_x, sigma_y, sigma_z as one (4, 2, 2) stack
PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# cofactor (i, l) of a 3x3 matrix m is m[i+1, l+1] m[i+2, l+2] - m[i+1, l+2] m[i+2, l+1]
# (indices mod 3); m[..., _COF_ROWS, _COF_COLS] gathers the four factors on a last axis
_NEXT, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])
_COF_ROWS = np.stack([_NEXT, _NEXT2, _NEXT, _NEXT2], axis=-1)[:, None, :]
_COF_COLS = np.stack([_NEXT, _NEXT2, _NEXT2, _NEXT], axis=-1)[None, :, :]


def decompose(rho: np.ndarray) -> np.ndarray:
    """Pauli-coefficient matrix t[i, j] = tr[(sigma_i x sigma_j) rho] of a
    two-qubit state, real (..., 4, 4) for a Hermitian rho."""
    r = _matrix(rho)  # as r[..., a_row, b_row, a_col, b_col] in the einsum
    return np.einsum("iac,jbd,...cdab->...ij", PAULI, PAULI, r.reshape(r.shape[:-2] + (2, 2, 2, 2))).real


@dataclass(frozen=True)
class MakhlinInvariants:
    """Local-unitary invariants of a two-qubit state, in Makhlin's numbering
    (the subset that fixes the moments of the partial transpose)."""

    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i7: float
    i8: float
    i12: float
    i14: float

    @property
    def y(self) -> tuple:
        """(y1, ..., y6), the six combinations that fix all three moments."""
        return (self.i2, self.i3, self.i4, self.i7, self.i1 + self.i12,
                self.i5 + self.i8 + self.i14)


def makhlin(t: np.ndarray) -> MakhlinInvariants:
    """Evaluate the invariants from the Pauli-coefficient matrix t of decompose.

    s is taken as a row and p as a column, so every contraction is a matmul
    over the leading axes, the same BLAS call as for one state's vectors.
    """
    beta = t[..., 1:, 1:]
    s, p = t[..., None, 1:, 0], t[..., 0, 1:, None]
    f = beta[..., _COF_ROWS, _COF_COLS]
    cof = f[..., 0] * f[..., 1] - f[..., 2] * f[..., 3]
    btb = beta.swapaxes(-1, -2) @ beta
    sb, bp = s @ beta, beta @ p
    return MakhlinInvariants(
        i1=_scalar(beta[..., :1, :] @ cof[..., :1, :].swapaxes(-1, -2)),
        i2=_result(_trace(btb)),
        i3=_result(_trace(btb @ btb)),
        i4=_scalar(s @ s.swapaxes(-1, -2)),
        i5=_scalar(sb @ sb.swapaxes(-1, -2)),
        i7=_scalar(p.swapaxes(-1, -2) @ p),
        i8=_scalar(bp.swapaxes(-1, -2) @ bp),
        i12=_scalar(sb @ p),
        i14=_scalar(2.0 * s @ cof @ p),
    )


def _scalar(m: np.ndarray):
    """The entry of each 1x1 matrix of a (..., 1, 1) stack."""
    return _result(m[..., 0, 0])


def moments_from_invariants(y) -> MomentSet:
    """Moments of the partially transposed state from the six numbers
    y = (y1, ..., y6) of MakhlinInvariants.y:

        4  pi2 = 1 + x1
        16 pi3 = 1 + 3 x1 + 6 x2
        64 pi4 = 1 + 6 x1 + 24 x2 + x1^2 + 2 x3 + 4 x4

    The constant terms are T_00 = tr rho = 1: the formulas assume unit trace,
    and y carries no trace, so a matrix of another trace gets wrong moments
    rather than an error.
    """
    y1, y2, y3, y4, y5, y6 = y
    x1 = y1 + y3 + y4
    x2 = y5
    x3 = y1 ** 2 - y2
    x4 = y6 + y3 * y4
    return MomentSet(
        pi2=(1.0 + x1) / 4.0,
        pi3=(1.0 + 3.0 * x1 + 6.0 * x2) / 16.0,
        pi4=(1.0 + 6.0 * x1 + 24.0 * x2 + x1 ** 2 + 2.0 * x3 + 4.0 * x4) / 64.0,
        source="invariants",
    )


def moments_via_invariants(rho: np.ndarray) -> MomentSet:
    """Convenience chain: decompose -> makhlin -> y -> moments."""
    return moments_from_invariants(makhlin(decompose(rho)).y)


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """(u_a x u_b) rho (u_a x u_b)^dag; the (..., 2, 2) factors broadcast
    against the (..., 4, 4) states.  ValueError naming the shape of a factor
    that is not (..., 2, 2) or of a rho off the matrix rule."""
    u_a, u_b = np.asarray(u_a, dtype=complex), np.asarray(u_b, dtype=complex)
    for u in (u_a, u_b):
        if u.shape[-2:] != (2, 2):
            raise ValueError(f"expected 2x2 local factors or (..., 2, 2) stacks, got shape {u.shape}")
    u = u_a[..., :, None, :, None] * u_b[..., None, :, None, :]
    u = u.reshape(*u.shape[:-4], 4, 4)
    return u @ _matrix(rho) @ _dagger(u)
