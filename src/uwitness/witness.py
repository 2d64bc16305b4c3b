"""Determinant-based entanglement witness and entanglement-measure bounds.

The witness is the determinant of the partially transposed two-qubit state,
written as a polynomial in the moments pi_n = tr[(rho^PT)^n]:

    witness = (1 - 6 pi4 + 8 pi3 + 3 pi2^2 - 6 pi2) / 24

A two-qubit state is entangled exactly when this is negative.  The rescaled
value w = max(0, -16 * witness) pins the negativity N and concurrence C into
the tight corridor  f(w) <= N <= C <= w**(1/4), where f inverts the Werner
line w = C (C + 2)^3 / 27.

Every function takes rho of shape (..., 4, 4), or w of any shape, and
broadcasts over the leading axes; a single state gives Python floats and
bools, a stack gives arrays of its leading shape.  negativity, concurrence
and witness_report mean something only for a state, and raise ValueError
naming the first state of the stack with a non-finite entry; the moments
are polynomials and pass a NaN through.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import (_dagger, _positive_part, _require_finite, _result, _trace, hermitian_eig,
                     partial_transpose)

# witness values within this band of zero are treated as "not detected"
ENTANGLEMENT_ATOL = 1e-12

# lower_bound's Newton steps: the fewest that reach 1e-15 relative accuracy on
# [1e-300, 1]; four fall short where the two starts cross, near w = 0.198
_NEWTON_STEPS = 5

_SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA2, _SIGMA2)


@dataclass(frozen=True)
class MomentSet:
    """Moments tr[(rho^PT)^n] for n = 2, 3, 4, tagged with how they were
    obtained; floats for one state, arrays of the leading shape for a stack."""

    pi2: float
    pi3: float
    pi4: float
    source: str = "direct"

    def as_tuple(self):
        return (self.pi2, self.pi3, self.pi4)


@dataclass(frozen=True)
class WitnessReport:
    """One state's report (floats and a bool), or a stack's (arrays)."""

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
        pi2=_result(_trace(g2).real),
        pi3=_result(_trace(g2 @ g).real),
        pi4=_result(_trace(g2 @ g2).real),
        source="direct",
    )


def witness_polynomial(pi2, pi3, pi4):
    """det(rho^PT) from the three nontrivial moments; vectorizes over arrays."""
    return (1.0 - 6.0 * pi4 + 8.0 * pi3 + 3.0 * pi2 ** 2 - 6.0 * pi2) / 24.0


def witness_value(moments: MomentSet):
    return _result(witness_polynomial(moments.pi2, moments.pi3, moments.pi4))


def rescaled_witness(value):
    """w = -16 * witness clamped to [0, 1]; 0 for any PPT (undetected) state,
    and eps overshoot past 1 for maximally entangled states is cut back."""
    return _result(np.minimum(np.maximum(-16.0 * value, 0.0), 1.0))


def negativity(rho: np.ndarray):
    """N = 2 * max(0, -min eigenvalue of rho^PT); equals |sum of negative eigenvalues| * 2."""
    # hermitian_eig rejects a non-finite entry before its Hermiticity check
    lowest = _result(hermitian_eig(partial_transpose(np.asarray(rho, dtype=complex)))[..., 0])
    return 2.0 * _positive_part(-lowest)


def concurrence(rho: np.ndarray):
    """Wootters concurrence C = max(0, 2 max_j lam_j - sum_j lam_j).

    The lam_j are the square roots of the eigenvalues of the spin-flipped
    product rho (s2 x s2) rho* (s2 x s2).  They are evaluated here as the
    singular values of sqrt(rho) (s2 x s2) sqrt(rho)* -- the same numbers,
    but accurate to machine precision even in the rank-deficient pure-state
    case, where a non-Hermitian eigensolve loses half the digits on the
    degenerate zeros.  concurrence_spinflip_eigs is the brute-force route
    and the tests keep the two in agreement.
    """
    lam = _wootters_lambdas(_require_finite(rho))
    return _positive_part(2.0 * lam.max(axis=-1) - lam.sum(axis=-1))


def _wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    d, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.maximum(d, 0.0))[..., None, :]) @ _dagger(v)
    return np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)


def concurrence_spinflip_eigs(rho: np.ndarray) -> np.ndarray:
    """lam_j by direct (non-Hermitian) diagonalization of rho S rho* S,
    descending along the last axis.

    Cross-check for concurrence; carries sqrt(eps)-level noise on degenerate
    zero eigenvalues, so comparisons should allow ~1e-7.
    """
    rho = np.asarray(rho, dtype=complex)
    m = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
    return np.sort(lam, axis=-1)[..., ::-1]


def _check_w(w):
    """w as Python floats or an array, clamped to [0, 1] after checking that
    it lies within 1e-9 of that interval (a NaN fails the check)."""
    w = _result(w)
    outside = (w < -1e-9) | (w > 1.0 + 1e-9) | (w != w)
    if np.count_nonzero(outside):
        raise ValueError(f"rescaled witness must be in [0, 1], got {np.ravel(w)[np.ravel(outside)][0]}")
    w = _positive_part(w)
    return w - (w - 1.0) * (w > 1.0)


def lower_bound(w):
    """Tight lower bound on the negativity given w = max(0, -16 * witness).

    Inverse of the Werner line g(C) = C (C + 2)^3 / 27 = w, continuous at
    w = 0: Newton steps on g(C) - w from C = min(27 w / 8, w**(1/4)).  On
    [0, 1], g(C) >= 8 C / 27 and g(C) >= C^4, so both starts lie above the
    root, and g is increasing and convex there, so each step moves down onto
    the root; w = 0 gives exactly 0 and w = 1 exactly 1.  A scalar and an
    array take the same path: the smaller start is picked by multiplying
    with 1 or 0.
    """
    return _lower_bound(_check_w(w))


def _lower_bound(w):
    """lower_bound for a w that _check_w or rescaled_witness has already
    checked and clamped to [0, 1]."""
    series, root4 = 27.0 * w / 8.0, w ** 0.25
    c = series * (series <= root4) + root4 * (series > root4)
    for _ in range(_NEWTON_STEPS):
        c = c - (c * (c + 2.0) ** 3 / 27.0 - w) / ((c + 2.0) ** 2 * (4.0 * c + 2.0) / 27.0)
    return c


def upper_bound(w):
    """Tight upper bound on the concurrence: w**(1/4), saturated by pure states."""
    return _upper_bound(_check_w(w))


def _upper_bound(w):
    """upper_bound for an already checked and clamped w."""
    return w ** 0.25


def bounds(w) -> tuple:
    """(lower bound on N, upper bound on C) for a given rescaled witness
    value, checked once for both."""
    w = _check_w(w)
    return _lower_bound(w), _upper_bound(w)


def witness_report(rho: np.ndarray) -> WitnessReport:
    """Witness, rescaled value, exact measures, and the bound corridor for a
    state, or for each state of a (..., 4, 4) stack (every field an array)."""
    # the measures first: they reject non-finite input, which the moments pass
    c, n = concurrence(rho), negativity(rho)
    value = witness_value(moments_direct(rho))
    # rescaled_witness already clamps w to [0, 1]: no second check
    w = rescaled_witness(value)
    lo, hi = _lower_bound(w), _upper_bound(w)
    return WitnessReport(
        witness=value,
        w=w,
        negativity=n,
        concurrence=c,
        lower_bound=lo,
        upper_bound=hi,
        entangled=value < -ENTANGLEMENT_ATOL,
    )
