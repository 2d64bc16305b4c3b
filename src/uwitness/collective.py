"""Collective swap measurements on stacked copies of a two-qubit state.

The n-th moment tr[(rho^PT)^n] of the partially transposed pair state is a
plain expectation value on n copies: two commuting layers of pairwise qubit
swaps, one acting mostly on the a-side register and one on the b-side,
multiply to opposite n-cycles, and the trace of their product against
rho^(x)n is exactly the moment.

Copies live in the copy-major layout of RegisterLayout (a1, b1, a2, b2, ...).
The swap pairs of each layer, per copy count:

    stage 1:  n=2  (a,1,2)            stage 2:  n=2  (b,1,2)
              n=3  (a,1,2)(b,2,3)               n=3  (b,1,2)(a,2,3)
              n=4  (a,1,2)(a,3,4)(b,2,3)        n=4  (b,1,2)(b,3,4)(a,2,3)

Each layer squares to the identity, so its +/-1 eigenspace projectors realize
a two-outcome parity measurement; measuring stage 1 projectively and then
stage 2 on the post-measurement state gives four outcome probabilities whose
signed sum is the moment.

Every number the measurement yields is a permutation trace
t(pi) = tr[pi rho^(x)n] (the swap-test construction of Ekert et al.,
PRL 88, 217901 (2002)).  With the stage-1 layer L1, the stage-2 layer L2,
P_y = (I + y L1)/2 and Q_x = (I + x L2)/2, and since L1 and L2 square to I,

    p(x, y) = tr[Q_x P_y rho^(x)n P_y Q_x]
            = [2 t(I) + 2y t(L1) + x t(L2) + xy (t(L1 L2) + t(L2 L1))
               + x t(L1 L2 L1)] / 8,

with t(I) = (tr rho)^n = 1 for a state; (t(I) + y t(L1))/2 is the stage-1
probability of outcome y.  The cycle route is t(L1 L2) and the
squared-sum route uses (L1 + L2)^2 = 2I + L1 L2 + L2 L1.  Each t(pi) is one
einsum over n copies of the 2x2x2x2 tensor of rho, whose subscripts pair the
row label of every qubit with the column label of its image under pi.  No
4^n-dimensional operator is built at run time.  The runtime routes take rho
of shape (..., 4, 4) and broadcast over the leading axes (every einsum
operand carries them as `...`); one state gives Python floats.

The dense operators -- swap_layer, parity_projector (assembled from two-qubit
swap projectors, composed recursively from n=2 up to n=4), moment_observable
and symmetrized_copies -- are kept as the oracle for the claims about the
operators themselves: projector algebra, spectra, the seven projections and
nondemolition.  The test suite checks the traces against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .linalg import RegisterLayout, _result, hermitian_eig, swap_qubits, tensor_power
from .witness import MomentSet

COPY_COUNTS = (2, 3, 4)

# (side, copy, copy) swap factors for each (n_copies, stage)
_LAYER_PAIRS = {
    (2, 1): (("a", 1, 2),),
    (2, 2): (("b", 1, 2),),
    (3, 1): (("a", 1, 2), ("b", 2, 3)),
    (3, 2): (("b", 1, 2), ("a", 2, 3)),
    (4, 1): (("a", 1, 2), ("a", 3, 4), ("b", 2, 3)),
    (4, 2): (("b", 1, 2), ("b", 3, 4), ("a", 2, 3)),
}

# outcome index 0 <-> parity +1, index 1 <-> parity -1
OUTCOME_SIGNS = (1, -1)


def _check_n(n: int):
    if n not in COPY_COUNTS:
        raise ValueError(f"copy count must be one of {COPY_COUNTS}, got {n}")


def _check_stage(stage: int):
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _qubit_of(layout: RegisterLayout, side: str, copy: int) -> int:
    return layout.a(copy) if side == "a" else layout.b(copy)


@lru_cache(maxsize=None)
def swap_layer(n: int, stage: int) -> np.ndarray:
    """Product of the pairwise swaps of one measurement stage on n copies.

    The factors act on disjoint qubits, so the result is a Hermitian
    permutation matrix squaring to the identity.
    """
    _check_n(n)
    _check_stage(stage)
    layout = RegisterLayout(n)
    m = np.eye(layout.dim)
    for side, i, j in _LAYER_PAIRS[(n, stage)]:
        m = m @ swap_qubits(layout, _qubit_of(layout, side, i), _qubit_of(layout, side, j))
    return _frozen(m)


@lru_cache(maxsize=None)
def layer_permutation(n: int, stage: int) -> np.ndarray:
    """swap_layer(n, stage) as an index array perm: the layer L is a
    symmetric permutation matrix, so L @ X = X[perm] and X @ L = X[:, perm]
    exactly, at the cost of a gather instead of a 4^n-dimensional product."""
    return _frozen(swap_layer(n, stage).argmax(axis=1))


def _pair_projector(layout: RegisterLayout, side: str, i: int, j: int, sign: int) -> np.ndarray:
    """(I + sign * S)/2 for the swap S of one qubit pair (side qubits of copies i, j)."""
    s = swap_qubits(layout, _qubit_of(layout, side, i), _qubit_of(layout, side, j))
    return (np.eye(layout.dim) + sign * s) / 2.0


def _composed_projector(layout: RegisterLayout, n: int, side: str, sign: int) -> np.ndarray:
    """Stage projector assembled from two-qubit swap projectors.

    Recursion over the copy count: the (n=4, +/-) projector reuses the n=3
    ones embedded in the four-copy register, times a swap projector on the
    last two copies; an odd inner parity flips the target parity.
    """
    if n == 2:
        return _pair_projector(layout, side, 1, 2, sign)
    other = "b" if side == "a" else "a"
    if n == 3:
        p_minus = _pair_projector(layout, side, 1, 2, -sign) @ _pair_projector(layout, other, 2, 3, -1)
        p_plus = _pair_projector(layout, side, 1, 2, sign) @ _pair_projector(layout, other, 2, 3, 1)
        return p_minus + p_plus
    if n == 4:
        inner_minus = _composed_projector(layout, 3, side, -sign)
        inner_plus = _composed_projector(layout, 3, side, sign)
        return (
            inner_minus @ _pair_projector(layout, side, 3, 4, -1)
            + inner_plus @ _pair_projector(layout, side, 3, 4, 1)
        )
    raise ValueError(f"no projector recursion for n = {n}")


@lru_cache(maxsize=None)
def parity_projector(n: int, stage: int, sign: int) -> np.ndarray:
    """Projector onto the +/-1 eigenspace of a stage's swap layer.

    Built from pairwise swap projectors (the operationally measurable
    pieces), not from (I + sign * layer)/2 -- the two agree exactly, which
    the tests assert.
    """
    _check_n(n)
    _check_stage(stage)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    side = "a" if stage == 1 else "b"
    return _frozen(_composed_projector(RegisterLayout(n), n, side, sign))


@lru_cache(maxsize=None)
def moment_observable(n: int) -> np.ndarray:
    """(stage1 + stage2)^2; its expectation on rho^(x)n is 2 (moment + 1).

    The square has a handful of distinct eigenvalues ({1, 4} for n=3,
    {0, 2, 4} for n=4), so the moment is measurable by a few projections
    instead of full tomography.
    """
    _check_n(n)
    s = swap_layer(n, 1) + swap_layer(n, 2)
    return _frozen(s @ s)


def observable_spectrum(n: int) -> tuple:
    """Distinct eigenvalues of moment_observable(n), rounded at 1e-8, ascending."""
    eigs = hermitian_eig(moment_observable(n))
    return tuple(float(v) for v in np.unique(np.round(eigs, 8)))


def projection_count() -> int:
    """Projective outcomes needed for all three moments: 2 (n=2) plus one per
    distinct eigenvalue of the n=3 and n=4 observables."""
    return 2 + len(observable_spectrum(3)) + len(observable_spectrum(4))


def _copy_tensor(rho: np.ndarray) -> np.ndarray:
    """One copy of rho as the tensor r[..., a_row, b_row, a_col, b_col]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a (..., 4, 4) two-qubit matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))


@lru_cache(maxsize=None)
def _trace_subscripts(n: int, stages: tuple) -> str:
    """einsum subscripts of tr[pi rho^(x)n] for pi = layer(stages[0]) @ layer(stages[1]) @ ...

    pi maps basis state `src` to the state whose qubit q holds bit
    source[q] of `src`, so tr[pi R] = sum_src R[src, pi(src)]: the column
    label of qubit q is the row label of qubit source[q].  The sum runs over
    one binary label per qubit, at most 2^8 terms (n = 4); numpy's one-pass
    contraction is cheaper there than planning and running a pairwise path.
    """
    layout = RegisterLayout(n)
    source = list(range(layout.n_qubits))
    for stage in stages:
        swap = list(range(layout.n_qubits))
        for side, i, j in _LAYER_PAIRS[(n, stage)]:
            qi, qj = _qubit_of(layout, side, i), _qubit_of(layout, side, j)
            swap[qi], swap[qj] = qj, qi
        source = [swap[q] for q in source]
    copies = [(layout.a(k), layout.b(k)) for k in range(1, n + 1)]
    return ",".join(
        "..." + ascii_letters[a] + ascii_letters[b] + ascii_letters[source[a]] + ascii_letters[source[b]]
        for a, b in copies
    ) + "->..."


def _permutation_trace(r: np.ndarray, n: int, stages: tuple):
    """Re t(pi) = Re tr[pi rho^(x)n] for the layer product named by `stages`."""
    return _result(np.einsum(_trace_subscripts(n, stages), *([r] * n)).real)


def moment_cycle(rho: np.ndarray, n: int) -> float:
    """Moment as tr[(stage1 stage2) rho^(x)n]; the layer product is an n-cycle
    on each side register, and the order of the factors does not matter."""
    _check_n(n)
    return _permutation_trace(_copy_tensor(rho), n, (1, 2))


def moment_via_observable(rho: np.ndarray, n: int) -> float:
    """Moment as tr[moment_observable rho^(x)n] / 2 - 1 (n = 3 or 4 only)."""
    if n not in (3, 4):
        raise ValueError(f"the squared-sum route needs n in (3, 4), got {n}")
    r = _copy_tensor(rho)
    # (L1 + L2)^2 = 2I + L1 L2 + L2 L1
    expectation = (
        2.0 * _permutation_trace(r, n, ())
        + _permutation_trace(r, n, (1, 2))
        + _permutation_trace(r, n, (2, 1))
    )
    return 0.5 * expectation - 1.0


@dataclass(frozen=True)
class OutcomeTable:
    """Probabilities of the sequential two-stage parity measurement.

    probabilities[..., x, y] is the chance of stage-2 outcome x after
    stage-1 outcome y, indexed 0 <-> +1 and 1 <-> -1, with the leading axes
    of the states.  The signed sum p(+,+) - p(+,-) - p(-,+) + p(-,-)
    recovers the moment.
    """

    n_copies: int
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.shape[-2:] != (2, 2):
            raise ValueError(f"probabilities must be (..., 2, 2) tables, got shape {p.shape}")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def moment(self):
        p = self.probabilities
        return _result(p[..., 0, 0]) - _result(p[..., 0, 1]) - _result(p[..., 1, 0]) + _result(p[..., 1, 1])

    def as_vector(self) -> np.ndarray:
        """Flat order (+,+), (+,-), (-,+), (-,-) along the last axis."""
        p = self.probabilities
        return p.reshape(*p.shape[:-2], 4)


def outcome_probabilities(rho: np.ndarray, n: int) -> OutcomeTable:
    """Sequential probabilities tr[Q_x P_y rho^(x)n P_y Q_x].

    Stage 1 (P) is measured first; its post-measurement branches are then
    measured with stage 2 (Q).  The four probabilities sum to one.  They are
    evaluated from six permutation traces (see the module docstring).
    """
    _check_n(n)
    r = _copy_tensor(rho)
    t_id, t1, t2, t12, t21, t121 = (
        _permutation_trace(r, n, stages) for stages in ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))
    )
    probs = np.empty(r.shape[:-4] + (2, 2))
    for yi, y in enumerate(OUTCOME_SIGNS):
        # grouped so that outcomes the state forbids (e.g. the singlet's) come out exactly 0
        stage1 = t_id + y * t1
        stage2 = (t2 + t121) + y * (t12 + t21)
        for xi, x in enumerate(OUTCOME_SIGNS):
            probs[..., xi, yi] = (2.0 * stage1 + x * stage2) / 8.0
    return OutcomeTable(n_copies=n, probabilities=probs)


def symmetrized_copies(rho: np.ndarray, n: int) -> np.ndarray:
    """(rho^(x)n + L rho^(x)n L)/2 for the stage-1 layer L.

    Commutes with the stage-1 layer, so the first parity measurement is
    nondemolition on it: projecting the symmetrized state equals projecting
    the raw copy stack.
    """
    _check_n(n)
    rn = tensor_power(np.asarray(rho, dtype=complex), n)
    perm = layer_permutation(n, 1)
    return 0.5 * (rn + rn[perm][:, perm])


def moments_collective(rho: np.ndarray) -> MomentSet:
    """All three moments from the sequential measurement probabilities."""
    return MomentSet(
        pi2=outcome_probabilities(rho, 2).moment,
        pi3=outcome_probabilities(rho, 3).moment,
        pi4=outcome_probabilities(rho, 4).moment,
        source="collective",
    )
