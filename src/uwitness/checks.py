"""The paper's checkable claims, one function each, and the dense oracle
they are about.

`uwitness --command verify` and tests/test_acceptance.py both run these; the
callers choose the states, seeds and thresholds.  A check takes a (..., 4, 4)
stack of states, plus an rng and a rotation count where the claim needs
them, passes the whole stack to each layer in one call, and returns its
worst deviation over the stack.  Only nondemolition, whose oracle is a dense
4^n-dimensional matrix per state, loops over the states.

The oracle is the dense 4^n-dimensional form of the collective measurement:
swap_layer, parity_projector (assembled from two-qubit swap projectors,
composed recursively from n=2 up to n=4), moment_observable,
symmetrized_copies and their building blocks swap_qubits and tensor_power.
It lives here because projector algebra, the {1, 4} and {0, 2, 4} spectra,
the seven projections and nondemolition are claims about those operators.
The runtime routes (collective, witness, invariants, simulate) never import
this module; the test suite checks the permutation traces of
uwitness.collective against the oracle.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .collective import (_LAYER_PAIRS, COPY_COUNTS, _check_n, _qubit, moment_cycle,
                         moment_via_observable, outcome_probabilities)
from .invariants import apply_local_unitary, decompose, makhlin, moments_via_invariants
from .linalg import hermitian_eig, partial_transpose
from .states import haar_unitary
from .witness import moments_direct, witness_report, witness_value

BOUND_SLACK = 1e-9
# absolute rounding error of w, which is -16 times a polynomial whose O(1)
# terms cancel; measured at up to ~1e-15 on near-product pure states
W_SLACK = 1e-14


def _worst(x) -> float:
    return float(np.max(x))


# ---- the dense oracle -------------------------------------------------------


def tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power of a matrix, left factor most significant."""
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    return reduce(np.kron, [m] * n)


def swap_qubits(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j of an n_qubits register.

    Built by exchanging two bit axes of the identity's row index (axis 0 is
    qubit 0, the most significant bit), so the result is exact (entries 0
    and 1 only).
    """
    if not (0 <= i < n_qubits and 0 <= j < n_qubits):
        raise IndexError(f"qubit index out of range 0..{n_qubits - 1}: ({i}, {j})")
    if i == j:
        raise ValueError("swap needs two distinct qubits")
    dim = 2 ** n_qubits
    return np.eye(dim).reshape((2,) * n_qubits + (dim,)).swapaxes(i, j).reshape(dim, dim)


def _check_stage(stage: int):
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _pair_swap(n: int, side: str, i: int, j: int) -> np.ndarray:
    """Swap of the side qubits of copies i and j in the n-copy register."""
    return swap_qubits(2 * n, _qubit(side, i), _qubit(side, j))


@lru_cache(maxsize=None)
def swap_layer(n: int, stage: int) -> np.ndarray:
    """Product of the pairwise swaps of one measurement stage on n copies.

    The factors act on disjoint qubits, so the result is a Hermitian
    permutation matrix squaring to the identity.
    """
    _check_n(n)
    _check_stage(stage)
    m = np.eye(4 ** n)
    for side, i, j in _LAYER_PAIRS[(n, stage)]:
        m = m @ _pair_swap(n, side, i, j)
    return _frozen(m)


@lru_cache(maxsize=None)
def layer_permutation(n: int, stage: int) -> np.ndarray:
    """swap_layer(n, stage) as an index array perm: the layer L is a
    symmetric permutation matrix, so L @ X = X[perm] and X @ L = X[:, perm]
    exactly, at the cost of a gather instead of a 4^n-dimensional product."""
    return _frozen(swap_layer(n, stage).argmax(axis=1))


def _pair_projector(n: int, side: str, i: int, j: int, sign: int) -> np.ndarray:
    """(I + sign * S)/2 for the swap S of one qubit pair (side qubits of copies i, j)."""
    return (np.eye(4 ** n) + sign * _pair_swap(n, side, i, j)) / 2.0


def _composed_projector(register: int, n: int, side: str, sign: int) -> np.ndarray:
    """Stage projector on the first n of `register` copies, assembled from
    two-qubit swap projectors.

    Recursion over the copy count: the (n=4, +/-) projector reuses the n=3
    ones embedded in the four-copy register, times a swap projector on the
    last two copies; an odd inner parity flips the target parity.
    """
    if n == 2:
        return _pair_projector(register, side, 1, 2, sign)
    other = "b" if side == "a" else "a"
    if n == 3:
        p_minus = _pair_projector(register, side, 1, 2, -sign) @ _pair_projector(register, other, 2, 3, -1)
        p_plus = _pair_projector(register, side, 1, 2, sign) @ _pair_projector(register, other, 2, 3, 1)
        return p_minus + p_plus
    if n == 4:
        inner_minus = _composed_projector(register, 3, side, -sign)
        inner_plus = _composed_projector(register, 3, side, sign)
        return (
            inner_minus @ _pair_projector(register, side, 3, 4, -1)
            + inner_plus @ _pair_projector(register, side, 3, 4, 1)
        )
    raise ValueError(f"no projector recursion for n = {n}")


@lru_cache(maxsize=None)
def parity_projector(n: int, stage: int, sign: int) -> np.ndarray:
    """Projector onto the +/-1 eigenspace of a stage's swap layer.

    Built from pairwise swap projectors (the operationally measurable
    pieces), not from (I + sign * layer)/2 -- the two agree exactly, which
    projector_composition asserts.
    """
    _check_n(n)
    _check_stage(stage)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    side = "a" if stage == 1 else "b"
    return _frozen(_composed_projector(n, n, side, sign))


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


# ---- the claims -------------------------------------------------------------


def moment_routes(batch) -> float:
    """Largest pairwise gap between the direct, cycle, sequential-table and
    (n >= 3) observable moments for n = 2, 3, 4, or between a table's total
    probability and 1."""
    dev = 0.0
    for n, direct in zip(COPY_COUNTS, moments_direct(batch).as_tuple()):
        table = outcome_probabilities(batch, n)
        values = [direct, moment_cycle(batch, n), table.moment]
        if n >= 3:
            values.append(moment_via_observable(batch, n))
        values = np.stack(values)
        dev = max(dev, _worst(values.max(axis=0) - values.min(axis=0)),
                  _worst(np.abs(table.as_vector().sum(axis=-1) - 1.0)))
    return dev


def projector_composition() -> float:
    """max |P - (I +/- L)/2| over the pairwise-composed parity projectors P of
    both stages on 2-4 copies, L being the stage's swap layer."""
    dev = 0.0
    for n in COPY_COUNTS:
        for stage in (1, 2):
            layer = swap_layer(n, stage)
            eye = np.eye(layer.shape[0])
            for sign in (1, -1):
                proj = parity_projector(n, stage, sign)
                dev = max(dev, np.abs(proj - (eye + sign * layer) / 2.0).max())
    return dev


def spectra_and_count() -> tuple:
    """(spectrum of the n=3 observable, spectrum of the n=4 observable, number
    of projections that give all three moments); the paper has ((1, 4),
    (0, 2, 4), 7)."""
    return observable_spectrum(3), observable_spectrum(4), projection_count()


def nondemolition(batch) -> float:
    """Stage-1 parity is nondemolition on 2-4 copies: the symmetrized copy
    stack commutes with the stage-1 swap layer, and each stage-1 projector P
    gives P (rho_sym - rho^(x)n) P = 0.  Returns the larger residual.  The
    layer L is applied as its index permutation (L X - X L = X[perm] -
    X[:, perm]); the composed projectors are the claim and stay dense, two
    4^n-dimensional products per projector."""
    dev = 0.0
    for n in COPY_COUNTS:
        perm = layer_permutation(n, 1)
        projectors = [parity_projector(n, 1, sign) for sign in (1, -1)]
        for rho in np.reshape(batch, (-1, 4, 4)):
            sym = symmetrized_copies(rho, n)
            dev = max(dev, np.abs(sym[perm] - sym[:, perm]).max())
            diff = sym - tensor_power(rho, n)
            for proj in projectors:
                dev = max(dev, np.abs(proj @ diff @ proj).max())
    return dev


def invariant_route(batch) -> float:
    """max |direct - invariant-route moment| over pi2, pi3 and pi4."""
    pairs = zip(moments_direct(batch).as_tuple(), moments_via_invariants(batch).as_tuple())
    return max(_worst(np.abs(a - b)) for a, b in pairs)


def _invariant_values(rho) -> np.ndarray:
    """The nine Makhlin invariants and the six y values along the last axis."""
    inv = makhlin(decompose(rho))
    return np.stack([*vars(inv).values(), *inv.y], axis=-1)


def local_unitary_drift(batch, rng, rotations: int) -> float:
    """Largest change of any of the nine Makhlin invariants or the six y
    combinations under `rotations` local unitaries u_a x u_b per state, each
    factor Haar-random from `rng` (drawn state by state, rotation by rotation,
    u_a before u_b)."""
    batch = np.asarray(batch, dtype=complex)
    u = haar_unitary(rng, shape=(*batch.shape[:-2], rotations, 2))
    rotated = apply_local_unitary(batch[..., None, :, :], u[..., 0, :, :], u[..., 1, :, :])
    base = _invariant_values(batch)[..., None, :]
    return _worst(np.abs(_invariant_values(rotated) - base))


def witness_det(batch) -> float:
    """max |witness polynomial - det rho^PT|, the determinant taken as the
    product of the eigenvalues of the partial transpose."""
    det = np.prod(hermitian_eig(partial_transpose(batch)), axis=-1)
    return _worst(np.abs(witness_value(moments_direct(batch)) - det))


def in_corridor(w, lo, n, c):
    """f(w) <= N <= C <= w^(1/4) up to rounding, for lo = f(w); elementwise
    on arrays.

    The upper edge is compared through its forward map, C^4 <= w: near
    w = 0, w**0.25 magnifies w's rounding error to several 1e-9, which
    would reject valid near-product pure states.
    """
    return (lo - BOUND_SLACK <= n) & (n <= c + BOUND_SLACK) & (c ** 4 <= w * (1.0 + BOUND_SLACK) + W_SLACK)


def corridor(batch) -> tuple:
    """(worst of f(w) - N and N - C, worst C^4 - w, whether every state is
    in_corridor), w, N, C and f(w) of the whole stack from one witness_report.

    The two worst values are the closest approach to an edge over the
    entangled states (w > 0), -inf if there are none: a separable state
    (w = N = C = 0) sits exactly on every edge and would always read 0.
    """
    rep = witness_report(batch)
    w, lo, n, c = (np.asarray(x) for x in (rep.w, rep.lower_bound, rep.negativity, rep.concurrence))
    entangled = w > 0
    slack = np.max(np.maximum(lo - n, n - c)[entangled], initial=-np.inf)
    upper = np.max((c ** 4 - w)[entangled], initial=-np.inf)
    inside = bool(np.all(in_corridor(w, lo, n, c)))
    return float(slack), float(upper), inside
