"""Collective swap measurements on stacked copies of a two-qubit state.

The n-th moment tr[(rho^PT)^n] of the partially transposed pair state is a
plain expectation value on n copies: two commuting layers of pairwise qubit
swaps, one acting mostly on the a-side register and one on the b-side,
multiply to opposite n-cycles, and the trace of their product against
rho^(x)n is exactly the moment.

Copies are stacked copy-major (a1, b1, a2, b2, ...), so the register state of
n identically prepared pairs is the literal n-fold tensor power rho^(x)n.
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
4^n-dimensional operator is built here.  Every route takes rho of shape
(..., 4, 4) and broadcasts over the leading axes (every einsum operand
carries them as `...`); one state gives Python floats.

The dense operators (swap layers, parity projectors, the squared-sum
observable, the symmetrized copy stack) live in uwitness.checks, the module
whose claims are about them; the test suite checks every trace here against
them.  Nothing in this module imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .linalg import _pair_tensor, _result
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


def _qubit(side: str, copy: int) -> int:
    """Register position of the side-a or side-b qubit of a copy (copies
    count from 1) in the copy-major order a1, b1, a2, b2, ..."""
    return 2 * (copy - 1) + (side == "b")


@lru_cache(maxsize=None)
def _trace_subscripts(n: int, stages: tuple) -> str:
    """einsum subscripts of tr[pi rho^(x)n] for pi = layer(stages[0]) @ layer(stages[1]) @ ...

    pi maps basis state `src` to the state whose qubit q holds bit
    source[q] of `src`, so tr[pi R] = sum_src R[src, pi(src)]: the column
    label of qubit q is the row label of qubit source[q].  The sum runs over
    one binary label per qubit, at most 2^8 terms (n = 4); numpy's one-pass
    contraction is cheaper there than planning and running a pairwise path.
    """
    source = list(range(2 * n))
    for stage in stages:
        swap = list(range(2 * n))
        for side, i, j in _LAYER_PAIRS[(n, stage)]:
            qi, qj = _qubit(side, i), _qubit(side, j)
            swap[qi], swap[qj] = qj, qi
        source = [swap[q] for q in source]
    copies = [(_qubit("a", k), _qubit("b", k)) for k in range(1, n + 1)]
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
    return _permutation_trace(_pair_tensor(np.asarray(rho, dtype=complex)), n, (1, 2))


def moment_via_observable(rho: np.ndarray, n: int) -> float:
    """Moment as tr[(L1 + L2)^2 rho^(x)n] / 2 - 1 (n = 3 or 4 only)."""
    if n not in (3, 4):
        raise ValueError(f"the squared-sum route needs n in (3, 4), got {n}")
    r = _pair_tensor(np.asarray(rho, dtype=complex))
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
    r = _pair_tensor(np.asarray(rho, dtype=complex))
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


def moments_collective(rho: np.ndarray) -> MomentSet:
    """All three moments from the sequential measurement probabilities."""
    return MomentSet(
        pi2=outcome_probabilities(rho, 2).moment,
        pi3=outcome_probabilities(rho, 3).moment,
        pi4=outcome_probabilities(rho, 4).moment,
        source="collective",
    )
