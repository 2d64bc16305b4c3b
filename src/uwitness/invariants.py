"""Pauli decomposition and local-unitary invariants of a two-qubit state.

Every two-qubit state is rho = (1/4) sum_ij T_ij sigma_i x sigma_j with the
real 4x4 Pauli-coefficient matrix T_ij = tr[(sigma_i x sigma_j) rho],
sigma_0 = I.  Its blocks are the Bloch data: the one-qubit vectors
s = T[1:, 0] and p = T[0, 1:] and the 3x3 correlation matrix beta = T[1:, 1:],
which local unitaries rotate by independent SO(3) rotations.  Makhlin's
polynomial invariants of (s, p, beta) (Quantum Inf. Process. 1, 243 (2002))
determine the state up to local unitaries; six combinations of them, `y`,
already fix the moments of the partially transposed state, hence the witness:

    moments_from_invariants(makhlin(decompose(rho)).y)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .witness import MomentSet

# sigma_0 = I, sigma_x, sigma_y, sigma_z as one (4, 2, 2) stack
PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# i+1 and i+2 (mod 3), the rows and columns that make up cofactor i of a 3x3 matrix
_J, _K = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass(frozen=True)
class BlochDecomposition:
    """Pauli-coefficient matrix t[i, j] = tr[(sigma_i x sigma_j) rho] and its
    blocks: local Bloch vectors s (side a), p (side b), correlations beta."""

    t: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return self.t[1:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.t[0, 1:]

    @property
    def beta(self) -> np.ndarray:
        return self.t[1:, 1:]


def decompose(rho: np.ndarray) -> BlochDecomposition:
    """Pauli coefficients of a two-qubit state, real for a Hermitian rho."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return BlochDecomposition(np.einsum("iac,jbd,cdab->ij", PAULI, PAULI, r).real)


def reconstruct(bloch: BlochDecomposition) -> np.ndarray:
    """Rebuild the density matrix, (1/4) sum_ij t_ij sigma_i x sigma_j."""
    return np.einsum("ij,iac,jbd->abcd", bloch.t, PAULI, PAULI).reshape(4, 4) / 4.0


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


def makhlin(bloch: BlochDecomposition) -> MakhlinInvariants:
    """Evaluate the invariants from Bloch data."""
    s, p, beta = bloch.s, bloch.p, bloch.beta
    btb = beta.T @ beta
    # cofactor matrix, cof_il = beta_{i+1,l+1} beta_{i+2,l+2} - beta_{i+1,l+2} beta_{i+2,l+1}
    j, k = _J[:, None], _K[:, None]
    cof = beta[j, _J] * beta[k, _K] - beta[j, _K] * beta[k, _J]
    return MakhlinInvariants(
        i1=float(beta[0] @ cof[0]),
        i2=float(np.trace(btb)),
        i3=float(np.trace(btb @ btb)),
        i4=float(s @ s),
        i5=float((s @ beta) @ (s @ beta)),
        i7=float(p @ p),
        i8=float((beta @ p) @ (beta @ p)),
        i12=float(s @ beta @ p),
        i14=float(2.0 * s @ cof @ p),
    )


def moments_from_invariants(y) -> MomentSet:
    """Moments of the partially transposed state from the six numbers
    y = (y1, ..., y6) of MakhlinInvariants.y:

        4  pi2 = 1 + x1
        16 pi3 = 1 + 3 x1 + 6 x2
        64 pi4 = 1 + 6 x1 + 24 x2 + x1^2 + 2 x3 + 4 x4
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
    """(u_a x u_b) rho (u_a x u_b)^dag."""
    u = np.kron(np.asarray(u_a, dtype=complex), np.asarray(u_b, dtype=complex))
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T
