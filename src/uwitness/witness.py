"""Determinant-based entanglement witness and entanglement-measure bounds.

The witness is the determinant of the partially transposed two-qubit state,
written as a polynomial in the moments pi_n = tr[(rho^PT)^n]:

    witness = (1 - 6 pi4 + 8 pi3 + 3 pi2^2 - 6 pi2) / 24

A two-qubit state is entangled exactly when this is negative.  The rescaled
value w = max(0, -16 * witness) pins the negativity N and concurrence C into
the tight corridor  f(w) <= N <= C <= w**(1/4), where f inverts the Werner
line w = C (C + 2)^3 / 27.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import partial_transpose, hermitian_eig

# witness values within this band of zero are treated as "not detected"
ENTANGLEMENT_ATOL = 1e-12

# lower_bound: where the series start replaces the closed form, and the Newton
# steps after either start (the second one is already below rounding on [0, 1])
_SERIES_BELOW = 1e-6
_NEWTON_STEPS = 2

_SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA2, _SIGMA2)


@dataclass(frozen=True)
class MomentSet:
    """Moments tr[(rho^PT)^n] for n = 2, 3, 4, tagged with how they were obtained."""

    pi2: float
    pi3: float
    pi4: float
    source: str = "direct"

    def as_tuple(self):
        return (self.pi2, self.pi3, self.pi4)


@dataclass(frozen=True)
class WitnessReport:
    witness: float
    w: float
    negativity: float
    concurrence: float
    lower_bound: float
    upper_bound: float
    entangled: bool

    def as_dict(self) -> dict:
        return asdict(self)


def moments_direct(rho: np.ndarray) -> MomentSet:
    """Moments from explicit powers of the partially transposed matrix."""
    g = partial_transpose(np.asarray(rho, dtype=complex))
    g2 = g @ g
    return MomentSet(
        pi2=float(np.trace(g2).real),
        pi3=float(np.trace(g2 @ g).real),
        pi4=float(np.trace(g2 @ g2).real),
        source="direct",
    )


def witness_polynomial(pi2, pi3, pi4):
    """det(rho^PT) from the three nontrivial moments; vectorizes over arrays."""
    return (1.0 - 6.0 * pi4 + 8.0 * pi3 + 3.0 * pi2 ** 2 - 6.0 * pi2) / 24.0


def witness_value(moments: MomentSet) -> float:
    return float(witness_polynomial(moments.pi2, moments.pi3, moments.pi4))


def rescaled_witness(value: float) -> float:
    """w = -16 * witness clamped to [0, 1]; 0 for any PPT (undetected) state,
    and eps overshoot past 1 for maximally entangled states is cut back."""
    return min(1.0, max(0.0, -16.0 * value))


def negativity(rho: np.ndarray) -> float:
    """N = 2 * max(0, -min eigenvalue of rho^PT); equals |sum of negative eigenvalues| * 2."""
    eigs = hermitian_eig(partial_transpose(np.asarray(rho, dtype=complex)))
    return 2.0 * max(0.0, -float(eigs[0]))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence C = max(0, 2 max_j lam_j - sum_j lam_j).

    The lam_j are the square roots of the eigenvalues of the spin-flipped
    product rho (s2 x s2) rho* (s2 x s2).  They are evaluated here as the
    singular values of sqrt(rho) (s2 x s2) sqrt(rho)* -- the same numbers,
    but accurate to machine precision even in the rank-deficient pure-state
    case, where a non-Hermitian eigensolve loses half the digits on the
    degenerate zeros.  concurrence_spinflip_eigs is the brute-force route
    and the tests keep the two in agreement.
    """
    lam = _wootters_lambdas(rho)
    return max(0.0, float(2.0 * lam.max() - lam.sum()))


def _wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    d, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(d, 0.0, None))) @ v.conj().T
    return np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)


def concurrence_spinflip_eigs(rho: np.ndarray) -> np.ndarray:
    """lam_j by direct (non-Hermitian) diagonalization of rho S rho* S.

    Cross-check for concurrence; carries sqrt(eps)-level noise on degenerate
    zero eigenvalues, so comparisons should allow ~1e-7.
    """
    rho = np.asarray(rho, dtype=complex)
    m = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
    return np.sort(lam)[::-1]


def _check_w(w: float) -> float:
    if not -1e-9 <= w <= 1.0 + 1e-9:
        raise ValueError(f"rescaled witness must be in [0, 1], got {w}")
    return min(max(w, 0.0), 1.0)


def lower_bound(w: float) -> float:
    """Tight lower bound on the negativity given w = max(0, -16 * witness).

    Inverse of the Werner line w(C) = C (C + 2)^3 / 27, continuous at w = 0:
    the closed-form root, polished by Newton steps on w(C) = w to full
    relative accuracy.  Below _SERIES_BELOW the closed form cancels two O(1)
    terms (and returns nan once w**2 underflows against w), so the start
    there is the first-order series C = 27 w / 8 instead.
    """
    w = _check_w(w)
    if w == 0.0:
        return 0.0
    if w < _SERIES_BELOW:
        c = 27.0 * w / 8.0
    else:
        x = 3.0 * np.cbrt(2.0 * np.sqrt(w * w * (16.0 * w + 1.0)) - 2.0 * w)
        z = 1.0 + x - 36.0 * w / x
        sz = np.sqrt(z)
        c = float(0.5 * (-3.0 + sz + np.sqrt(3.0 - z + 2.0 / sz)))
    for _ in range(_NEWTON_STEPS):
        c -= (c * (c + 2.0) ** 3 / 27.0 - w) / ((c + 2.0) ** 2 * (4.0 * c + 2.0) / 27.0)
    return float(c)


def upper_bound(w: float) -> float:
    """Tight upper bound on the concurrence: w**(1/4), saturated by pure states."""
    return float(_check_w(w) ** 0.25)


def bounds(w: float) -> tuple:
    """(lower bound on N, upper bound on C) for a given rescaled witness value."""
    return lower_bound(w), upper_bound(w)


def witness_report(rho: np.ndarray) -> WitnessReport:
    """Witness, rescaled value, exact measures, and the bound corridor for one state."""
    value = witness_value(moments_direct(rho))
    w = rescaled_witness(value)
    lo, hi = bounds(w)
    return WitnessReport(
        witness=float(value),
        w=float(w),
        negativity=negativity(rho),
        concurrence=concurrence(rho),
        lower_bound=lo,
        upper_bound=hi,
        entangled=bool(value < -ENTANGLEMENT_ATOL),
    )
