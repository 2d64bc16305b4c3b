"""Determinant-based entanglement witness and entanglement-measure bounds.

The witness is the determinant of the partially transposed two-qubit state.
The paper measures it as a polynomial in the moments pi_n = tr[(rho^PT)^n]:

    witness = (1 - 6 pi4 + 8 pi3 + 3 pi2^2 - 6 pi2) / 24

A two-qubit state is entangled exactly when this is negative.  The rescaled
value w = max(0, -16 * witness) pins the negativity N and concurrence C into
the tight corridor  f(w) <= N <= C <= w**(1/4), where f inverts the Werner
line w = C (C + 2)^3 / 27.

witness_value evaluates the polynomial, as the measurement does.
witness_report and negativity instead read det rho^PT and N off one
eigvalsh of rho^PT: it has at most one negative eigenvalue, so the product
of its spectrum is the witness and its sign the verdict.

Every function takes rho of shape (..., 4, 4), or any array-like w, and
broadcasts over the leading axes; a single state gives Python floats and
bools, a stack gives arrays of its leading shape.  witness_report and
concurrence raise validate's ValueError for the first state of the stack
that validate would reject, judged from the eigendecomposition concurrence
needs anyway; negativity the same short of positivity, which would take a
second eigensolve.  All three read the state gate's record of their input
(see uwitness.states): the eigvalsh of rho^PT and C are solved once per
record and copied out, so validate, witness_report, negativity and
concurrence on one state make one eigh, one eigvalsh and one svd.  The
moments are polynomials and pass a NaN through.

Error model: the report's w carries at most a few 1e-15 absolute error,
since each eigenvalue of rho^PT is off by about eps, and less near w = 0,
where the small eigenvalues scale the error down with w.  The polynomial
carries about 1e-15 whatever the size of w, since it cancels O(1) terms.
ENTANGLEMENT_ATOL = 1e-12 on the witness is the verdict cut-off:
werner(1/3 + 1e-12) gives w = 4.44435e-13, the exact -16 det of its float
matrix to 1e-28 (the polynomial gives 4.43853e-13), and entangled = False
although N = 1.5e-12.  checks.in_corridor allows checks.ROUNDING_MARK on
the edges and checks.W_SLACK on w, and compares the upper edge as C^4 <= w.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .linalg import _positive_part, _real, _result, _trace, partial_transpose
from .states import _eigh, _require_state

# witness values within this band of zero are treated as "not detected"
ENTANGLEMENT_ATOL = 1e-12

# lower_bound's Newton steps: the fewest that reach 1e-15 relative accuracy on
# [1e-300, 1]; four fall short where the two starts cross, near w = 0.198
_NEWTON_STEPS = 5

_SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA2, _SIGMA2)
_ZERO_EIGENVALUE_RTOL = 4.0 * np.finfo(float).eps


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
    g = partial_transpose(rho)
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
    """N = 2 * max(0, -min eigenvalue of rho^PT); equals |sum of negative eigenvalues| * 2.

    The state rule is applied short of positivity: a matrix with a negative
    eigenvalue passes, since judging it would take an eigensolve of rho on
    top of the one of rho^PT.
    """
    return _owned(_require_state(rho, positive=False).kept(_spectrum)[0])


def _spectrum(record):
    """(N, det rho^PT) of the record's matrix from the one ascending eigvalsh
    of rho^PT: N is 2 max(0, -lambda_min), det the product of the
    eigenvalues."""
    lam = np.linalg.eigvalsh(partial_transpose(record.rho))
    return 2.0 * _positive_part(-lam[..., 0]), _result(np.prod(lam, axis=-1))


def _owned(x):
    """A value kept in a state's record as the caller's own: a stack's array
    copied, so writing to it leaves the record as it was; a float as it is."""
    return x.copy() if isinstance(x, np.ndarray) else x


def concurrence(rho: np.ndarray):
    """Wootters concurrence C = max(0, 2 max_j lam_j - sum_j lam_j).

    The lam_j are the square roots of the eigenvalues of rho S rho* S,
    S = s2 x s2, evaluated as the singular values of a^T S a with
    a = v sqrt(d) from rho = v diag(d) v^dag: the same numbers as for
    sqrt(rho) S sqrt(rho)*, since S is real.  Eigenvalues of rho at or below
    4 eps times the largest count as 0, so C is accurate to ~1e-15 even on
    rank-deficient states, pure or mixed, where a non-Hermitian eigensolve
    loses half the digits on the degenerate zeros.  That brute-force route
    is test code, concurrence_spinflip_eigs in tests/test_witness.py, which
    keeps the two in agreement.  On exact input C is within 2 eps of its
    exact value, so it can sit up to 2.2e-16 below N where the two are
    equal (werner(k/16), the Bell states); checks.ROUNDING_MARK absorbs this.
    ValueError for any input that validate would reject, judged from the
    same eigendecomposition.
    """
    return _owned(_require_state(rho).kept(_wootters))


def _wootters(record):
    """C of the record's matrix, from its kept eigh."""
    return _concurrence(*record.kept(_eigh))


def _concurrence(d, v):
    # eigh leaves a zero eigenvalue at a few eps of the largest, and its ~1e-9
    # square root would enter every lam_j: such and negative ones count as 0
    d = np.where(d <= _ZERO_EIGENVALUE_RTOL * d[..., -1:], 0.0, d)
    a = v * np.sqrt(d)[..., None, :]
    lam = np.linalg.svd(a.swapaxes(-1, -2) @ _SPIN_FLIP @ a, compute_uv=False)
    return _positive_part(2.0 * lam.max(axis=-1) - lam.sum(axis=-1))


def _check_w(w):
    """Any array-like w of real numbers (the number rule of uwitness.linalg)
    as a Python float or a float array, clamped to [0, 1] after checking
    that it lies within 1e-9 of that interval (a NaN fails)."""
    w = _result(_real(w, "rescaled witness"))
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
    return bounds(w)[0]


def upper_bound(w):
    """Tight upper bound on the concurrence: w**(1/4), saturated by pure states."""
    return bounds(w)[1]


def bounds(w) -> tuple:
    """(lower bound on N, upper bound on C) for a given rescaled witness
    value, checked once for both."""
    return _bounds(_check_w(w))


def _bounds(w):
    """(f(w), w**(1/4)) for a w that _check_w or rescaled_witness has
    already checked and clamped to [0, 1]; the upper edge is also
    lower_bound's larger Newton start."""
    series, root4 = 27.0 * w / 8.0, w ** 0.25
    c = series * (series <= root4) + root4 * (series > root4)
    for _ in range(_NEWTON_STEPS):
        c = c - (c * (c + 2.0) ** 3 / 27.0 - w) / ((c + 2.0) ** 2 * (4.0 * c + 2.0) / 27.0)
    return c, root4


def witness_report(rho: np.ndarray) -> WitnessReport:
    """Witness, rescaled value, exact measures, and the bound corridor for a
    state, or for each state of a (..., 4, 4) stack (every field an array);
    ValueError for any input that validate would reject."""
    record = _require_state(rho)
    (n, value), c = record.kept(_spectrum), record.kept(_wootters)
    # rescaled_witness already clamps w to [0, 1]: no second check
    w = rescaled_witness(value)
    lo, hi = _bounds(w)
    return WitnessReport(
        witness=_owned(value),
        w=w,
        negativity=_owned(n),
        concurrence=_owned(c),
        lower_bound=lo,
        upper_bound=hi,
        entangled=value < -ENTANGLEMENT_ATOL,
    )
