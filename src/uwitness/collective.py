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

with t(I) = (tr rho)^n, 1 for a state; (t(I) + y t(L1))/2 is the stage-1
probability of outcome y.  The cycle route is t(L1 L2) and the
squared-sum route uses (L1 + L2)^2 = 2I + L1 L2 + L2 L1.

Each layer is defined once, as a permutation of the 4^n basis states
(layer_permutation, built from the swap pairs above); the engine here and
the operator claims of uwitness.checks both read it.  Since
tr[pi R] = sum_src R[src, pi(src)] and R = rho^(x)n factorizes over the
copies, t(pi) is a sum over the 4^n basis states of a product of n entries
of rho, one per copy.  Which entry copy k contributes to basis state src
depends on pi alone.  The layer products (words) a route needs are compiled
once per (n, words) into a cached table of gather indices, one row per
factor (_trace_indices).  At n = 2 and 3 each copy is a factor, an entry of
rho itself.  At n = 4 copies are taken in pairs: a call builds the pair
table rho_i rho_j (256 products, one multiply) and each of the two factors
is an entry of it, which halves the gathers.  A call gathers the factors of
all its words at once, multiplies them left to right and sums over the
basis states: no einsum, and no call per trace.  A stack is traced in
blocks of _TRACE_BLOCK states, so the gathered factors stay small whatever
the size of the stack.  No 4^n-dimensional operator is built here.
Every route takes rho of shape (..., 4, 4) and broadcasts over the leading
axes; one state gives Python floats.

The dense 4^n-dimensional operators (swap layers, parity projectors, the
squared-sum observable) exist only as the test suite's reference,
permutation_matrix in tests/test_collective.py, which checks every layer
and trace here against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _matrix, _real, _result
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

def _check_n(n: int, allowed: tuple = COPY_COUNTS):
    # 2.0 == 2, but a float is no copy count: it would fail in the bit shifts
    if not isinstance(n, (int, np.integer)) or n not in allowed:
        raise ValueError(f"copy count must be one of {allowed}, got {n}")


def _qubit(side: str, copy: int) -> int:
    """Register position of the side-a or side-b qubit of a copy (copies
    count from 1) in the copy-major order a1, b1, a2, b2, ..."""
    return 2 * (copy - 1) + (side == "b")


@lru_cache(maxsize=None)
def _swap_permutation(n: int, pairs: tuple) -> np.ndarray:
    """The swaps `pairs`, each (side, copy, copy) on disjoint qubits, as the
    permutation perm of the 4^n basis states of n copies; cached and
    read-only.

    perm[src] is src with the bits of each swapped qubit pair exchanged.  The
    swaps are symmetric permutation matrices S, so S @ X = X[perm] and
    X @ S = X[:, perm] exactly, at the cost of a gather instead of a
    4^n-dimensional product.
    """
    shift = np.arange(2 * n - 1, -1, -1)  # bit position of qubit q, qubit 0 most significant
    source = list(range(2 * n))
    for side, i, j in pairs:
        qi, qj = _qubit(side, i), _qubit(side, j)
        source[qi], source[qj] = source[qj], source[qi]
    # qubit q of perm[src] holds qubit source[q] of src
    perm = ((np.arange(4**n)[:, None] >> shift[source]) & 1) @ (1 << shift)
    perm.setflags(write=False)
    return perm


def layer_permutation(n: int, stage: int) -> np.ndarray:
    """The stage-1 or stage-2 swap layer on n copies as a basis permutation
    (see _swap_permutation): the one definition of a layer."""
    _check_n(n)
    if stage not in (1, 2):
        raise ValueError(f"stage must be one of (1, 2), got {stage}")
    return _swap_permutation(n, _LAYER_PAIRS[(n, stage)])


# states of a stack traced at once: the product and the factor gathered into
# it hold 2 x 16 x words x 4^n complex entries (about 0.8 MB for the six
# table words at n = 4) whatever the size of the stack
_TRACE_BLOCK = 16

# the six layer products of the outcome table, in the order p(x, y) reads them
_TABLE_WORDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))


@lru_cache(maxsize=None)
def _trace_indices(n: int, words: tuple) -> np.ndarray:
    """Gather table idx[f, w, src] for the permutation traces of `words`,
    word w naming the layer product pi_w = layer(w[0]) @ layer(w[1]) @ ...;
    cached and read-only.

    pi_w acts on the basis as p = l[w[0]][l[w[1]]][...], l[stage] being
    layer_permutation(n, stage), and tr[pi rho^(x)n] = sum_src R[src, p[src]]
    with R = rho^(x)n, a product over the copies of rho[d_k(src), d_k(p[src])],
    d_k being the base-4 digit of copy k (the bits of its qubits a_k, b_k).
    Let e_k = 4 d_k(src) + d_k(p[src]) be the index of that entry in
    rho.reshape(16).  At n = 2 and 3 row k is e_k, so a trace is 4^n
    products of n entries of rho.  At n = 4 copies 2f and 2f + 1 share one
    factor, the entry idx[f, w, src] = 16 e_2f + e_2f+1 of the pair table
    rho_i rho_j (flat, 256 entries), so a trace is 256 products of two pair
    entries: four gathers of rho entries would cost twice as much there.  A
    trace is at most 256 terms, so a route gathers the factors of all its
    words at once rather than paying a call per trace.
    """
    digits = (np.arange(4**n) >> 2 * np.arange(n - 1, -1, -1)[:, None]) & 3  # digits[k, src]
    entries = np.empty((n, len(words), 4**n), dtype=np.intp)
    for w, stages in enumerate(words):
        p = np.arange(4**n)
        for stage in stages:
            p = p[layer_permutation(n, stage)]
        entries[:, w] = 4 * digits + digits[:, p]
    if n == 4:  # copies (1, 2) and (3, 4) into the pair table
        entries = 16 * entries[0::2] + entries[1::2]
    entries.setflags(write=False)
    return entries


def _permutation_traces(rho, n: int, words: tuple) -> tuple:
    """Re t(pi_w) = Re tr[pi_w rho^(x)n] for each word of `words` (see
    _trace_indices): Python floats for one state, arrays over the leading
    axes for a stack.

    A stack is traced in blocks of _TRACE_BLOCK states and a single state as
    a block of one, through the same products, so a state's traces do not
    depend on the stack it sits in.  Each block gathers the factors of every
    word from its entries of rho, or at n = 4 from its pair table, built with
    one multiply, and multiplies them left to right: (rho_i rho_j) rho_k at
    n = 3, the product a pair entry times rho_k would give.  A NaN entry
    passes through to NaN traces without a warning; an inf entry or an
    overflowing product gives numpy's RuntimeWarning, as the matmul of
    moments_direct does.
    """
    r = _matrix(rho)
    lead = r.shape[:-2]
    r = r.reshape(-1, 16)
    idx = _trace_indices(n, words)
    traces = np.empty((len(r), len(words)), dtype=complex)
    for start in range(0, len(r), _TRACE_BLOCK):
        block = r[start:start + _TRACE_BLOCK]
        if n == 4:  # the rows index the pair table
            block = (block[:, :, None] * block[:, None, :]).reshape(-1, 256)
        terms = block.take(idx[0], axis=1)  # (block, words, 4^n)
        for f in range(1, len(idx)):
            terms *= block.take(idx[f], axis=1)
        np.add.reduce(terms, -1, out=traces[start:start + _TRACE_BLOCK])
    traces = traces.real.T.reshape((len(words),) + lead)
    return tuple(traces if lead else traces.tolist())


def moment_cycle(rho: np.ndarray, n: int) -> float:
    """Moment as tr[(stage1 stage2) rho^(x)n]; the layer product is an n-cycle
    on each side register, and the order of the factors does not matter."""
    _check_n(n)
    return _permutation_traces(rho, n, ((1, 2),))[0]


def moment_via_observable(rho: np.ndarray, n: int) -> float:
    """Moment as tr[(L1 + L2)^2 rho^(x)n] / 2 - 1 (n = 3 or 4 only)."""
    _check_n(n, (3, 4))
    # (L1 + L2)^2 = 2I + L1 L2 + L2 L1
    t_id, t12, t21 = _permutation_traces(rho, n, ((), (1, 2), (2, 1)))
    return 0.5 * (2.0 * t_id + t12 + t21) - 1.0


@dataclass(frozen=True)
class OutcomeTable:
    """Probabilities of the sequential two-stage parity measurement.

    probabilities[..., x, y] is the chance of stage-2 outcome x after
    stage-1 outcome y, indexed 0 <-> +1 and 1 <-> -1, with the leading axes
    of the states.  The signed sum p(+,+) - p(+,-) - p(-,+) + p(-,-)
    recovers the moment.  ValueError unless the table is real (a complex
    dtype is refused) of shape (..., 2, 2).
    """

    n_copies: int
    probabilities: np.ndarray

    def __post_init__(self):
        _check_n(self.n_copies)
        p = _real(self.probabilities, "probabilities")
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


def _probabilities(rho, n: int) -> tuple:
    """p(+,+), p(+,-), p(-,+), p(-,-) of n copies, p(x, y) the chance of
    stage-2 outcome x after stage-1 outcome y: Python floats for one state,
    arrays over the leading axes for a stack.  From the six table traces (see
    the module docstring), grouped so that outcomes the state forbids (e.g.
    the singlet's) come out exactly 0: stage1 = t(I) + y t(L1),
    stage2 = (t(L2) + t(L1 L2 L1)) + y (t(L1 L2) + t(L2 L1)) and
    p(x, y) = (2 stage1 + x stage2) / 8.
    """
    t_id, t1, t2, t12, t21, t121 = _permutation_traces(rho, n, _TABLE_WORDS)
    stage1_plus, stage1_minus = t_id + t1, t_id - t1
    stage2_plus, stage2_minus = (t2 + t121) + (t12 + t21), (t2 + t121) - (t12 + t21)
    return ((2.0 * stage1_plus + stage2_plus) / 8.0, (2.0 * stage1_minus + stage2_minus) / 8.0,
            (2.0 * stage1_plus - stage2_plus) / 8.0, (2.0 * stage1_minus - stage2_minus) / 8.0)


def outcome_probabilities(rho: np.ndarray, n: int) -> OutcomeTable:
    """Sequential probabilities tr[Q_x P_y rho^(x)n P_y Q_x].

    Stage 1 (P) is measured first; its post-measurement branches are then
    measured with stage 2 (Q).  The four probabilities sum to
    t(I) = (tr rho)^n, one for a state.  They are evaluated from six
    permutation traces (see the module docstring).
    """
    _check_n(n)
    pp, pm, mp, mm = _probabilities(rho, n)
    # rows x and columns y (index 0 <-> +1); a stack's axes go in front
    probs = np.array([[pp, pm], [mp, mm]])
    return OutcomeTable(n_copies=n, probabilities=probs.transpose(*range(2, probs.ndim), 0, 1))


def moments_collective(rho: np.ndarray) -> MomentSet:
    """All three moments from the sequential measurement probabilities: each
    is the signed sum OutcomeTable.moment takes, in its order, read off the
    probabilities with no table built."""
    moments = []
    for n in COPY_COUNTS:
        pp, pm, mp, mm = _probabilities(rho, n)
        moments.append(pp - pm - mp + mm)
    return MomentSet(*moments, source="collective")
