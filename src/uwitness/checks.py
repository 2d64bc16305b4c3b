"""The paper's checkable claims, one function each.

`uwitness --command verify` and tests/test_acceptance.py both run these; the
callers choose the states and seeds.  Whether a claim passes is decided here,
once: every claim returns (passed, figures, state), its verdict, the figures
it read and the flat index of the state that decides it, or None.  A
rounding claim (moment_routes, invariant_route, local_unitary_drift,
witness_det and the edges of in_corridor) passes below ROUNDING_MARK, one
multiple of eps derived from the longest rounding chain among them; an exact
claim (projector_composition, nondemolition) passes at exactly 0;
spectra_and_count passes when it finds PAPER_SPECTRA_AND_COUNT, and corridor
when every state of a witness report is in_corridor.  A check on states
takes a (..., 4, 4) stack of them, plus an rng and a rotation count where the
claim needs them, passes the whole stack to each layer in one call, and
reads its worst deviation over the stack with the state that reaches it
(_worst), so that a failure names the state that reproduces it.  No check
loops over the states.

The operator claims (projector composition, the {1, 4} and {0, 2, 4}
spectra with the seven projections, nondemolition) are about the two swap
layers and take no state.  They are stated on the layers' basis permutations
from collective.layer_permutation, the one definition of a layer: a layer L
acts as L @ X = X[perm] and X @ L = X[:, perm].  Their premise, that each
layer squares to the identity, is checked exactly on the index arrays.  No
4^n-dimensional operator is multiplied or diagonalized here, and no copy
stack rho^(x)n is built.  The dense reference operators and copy stacks
live in tests/test_collective.py (permutation_matrix), which checks these
claims and the traces of uwitness.collective against them.  The runtime
routes never import this module.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .collective import (_LAYER_PAIRS, COPY_COUNTS, _swap_permutation, layer_permutation,
                         moment_cycle, moment_via_observable, outcome_probabilities)
from .invariants import apply_local_unitary, decompose, makhlin, moments_via_invariants
from .linalg import _matrix
from .states import haar_unitary
from .witness import moments_direct, witness_report, witness_value

_EPS = np.finfo(float).eps

# The one pass mark of the rounding claims, set by the longest rounding chain
# among them, local_unitary_drift's: rho -> rho' = (u_a x u_b) rho (u_a x
# u_b)^dag -> T = decompose(rho') -> an invariant.  To first order, with each
# rounding at its largest:
#   - apply_local_unitary: u_a x u_b rounds each entry of u by 3 eps, and
#     each of the two 4x4 complex products, of 4-term sums, by 6 eps, all on
#     |u| |rho| |u^dag| <= 1 entrywise (|rho_kl|^2 <= rho_kk rho_ll): an
#     entry of rho' is off by 2 x 3 + 2 x 6 = 18 eps;
#   - decompose: a 16-term sum, 4 of its terms nonzero, each an entry of
#     rho' times +-1 or +-i: T_ij is off by 4 x 18 + 9 = 81 eps;
#   - makhlin: polynomials of degree <= 4 in |T_ij| <= 1, whose gradient sums
#     to at most 4 x 3 sqrt(3) < 21 over T (i3 = |beta^T beta|_F^2, with
#     |beta|_2 <= 1 and |beta|_F <= sqrt(3)), and whose own roundings, <= 10
#     deep on terms summing to <= 18, add <= 180 eps: an invariant of rho' is
#     off by 21 x 81 + 180 = 1881 eps, one of rho by 21 x 9 + 180 = 369 eps.
# The drift is thus below 2250 eps; the mark is the next power of two, 2^12
# eps (9.1e-13).  Every other rounding claim compares O(1) values at the end
# of a shorter chain.
ROUNDING_MARK = 2 ** 12 * _EPS
# The upper edge's absolute slack on C^4 - w, 45 eps (1e-14): the report's w
# is within 16 eps of -16 det rho^PT of the float matrix (the exact-oracle
# bound of tests/test_collective.py) and C within 2 eps, so C^4 within 8 eps;
# the rest is for the float matrix of a pure state, rank 1 only to its
# rounding.  The worst C^4 - w measured on 10^5 Haar-pure states is 27 eps.
W_SLACK = 45 * _EPS


def _worst(per_state) -> tuple:
    """A rounding claim's (passed, largest entry, its flat index) of a
    per-state deviation array over the leading axes, every entry >= 0 or NaN:
    the first NaN if any, which fails, and (True, 0.0, None) for no state."""
    per_state = np.asarray(per_state)
    if per_state.size == 0:
        return True, 0.0, None
    i = int(np.argmax(per_state))  # the first NaN, if there is one
    dev = float(per_state.flat[i])
    return dev < ROUNDING_MARK, dev, i


def _layers(n: int) -> tuple:
    """(L1, L2) on n copies as basis permutations, after checking the
    premise of every operator claim: each layer squares to the identity."""
    layers = layer_permutation(n, 1), layer_permutation(n, 2)
    for stage, perm in enumerate(layers, 1):
        if not np.array_equal(perm[perm], np.arange(len(perm))):
            raise ValueError(f"the stage-{stage} layer on {n} copies does not square to the identity")
    return layers


def _composed_projectors(n: int, stage: int) -> tuple:
    """(P+, P-), the stage's parity projectors on n copies as they are
    measured: composed pair by pair from the two-qubit swap projectors
    (I +/- S)/2 in _LAYER_PAIRS order.

    The pairs act on disjoint qubits, so a new pair keeps the parity exactly
    when its own is even: even, odd = even P+ + odd P-, even P- + odd P+,
    where X (I +/- S)/2 = (X +/- X[:, s])/2 is a column gather.  Every entry
    is a multiple of 1/8, so the composition is exact.
    """
    even = np.eye(4 ** n)
    odd = np.zeros_like(even)
    for pair in _LAYER_PAIRS[(n, stage)]:
        s = _swap_permutation(n, (pair,))
        even, odd = ((even + even[:, s]) / 2 + (odd - odd[:, s]) / 2,
                     (even - even[:, s]) / 2 + (odd + odd[:, s]) / 2)
    return even, odd


def _cycle_spectrum(n: int) -> dict:
    """Eigenvalues of (L1 + L2)^2 on n copies, rounded at 1e-8, ascending,
    with their multiplicities.

    With L1^2 = L2^2 = I, (L1 + L2)^2 = 2I + C + C^-1 for the permutation
    C = L1 L2, so each l-cycle of C contributes 2 + 2 cos(2 pi j / l) for
    j = 0, ..., l - 1.
    """
    l1, l2 = _layers(n)
    c = l2[l1].tolist()  # C @ X = X[c]
    seen, spectrum = set(), Counter()
    for start in range(len(c)):
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k, length = c[k], length + 1
        spectrum.update(round(2.0 + 2.0 * math.cos(2.0 * math.pi * j / length), 8) for j in range(length))
    return dict(sorted(spectrum.items()))


# ---- the claims -------------------------------------------------------------

# spectra_and_count: the spectra {1, 4} and {0, 2, 4}, and seven projections
PAPER_SPECTRA_AND_COUNT = ((1.0, 4.0), (0.0, 2.0, 4.0), 7)


def route_spread(values) -> np.ndarray:
    """max - min over the routes (the first axis) of their values of the same
    moments: the one rule for how far routes disagree, elementwise."""
    values = np.stack(values)
    return values.max(axis=0) - values.min(axis=0)


def moment_routes(batch) -> tuple:
    """Largest route_spread of the direct, cycle, sequential-table and
    (n >= 3) observable moments for n = 2, 3, 4, or gap between a table's
    total probability and 1, with its state (_worst)."""
    devs = []
    for n, direct in zip(COPY_COUNTS, moments_direct(batch).as_tuple()):
        table = outcome_probabilities(batch, n)
        values = [direct, moment_cycle(batch, n), table.moment]
        if n >= 3:
            values.append(moment_via_observable(batch, n))
        devs += [route_spread(values), np.abs(table.as_vector().sum(axis=-1) - 1.0)]
    return _worst(np.max(devs, axis=0))


def projector_composition() -> tuple:
    """max |P - (I +/- L)/2| over the parity projectors P of both stages on
    2-4 copies (_composed_projectors), L being the stage's layer.  Exact by
    construction, every entry a multiple of 1/8: passes at exactly 0, and
    np.max keeps a NaN that the builtin max would drop.
    """
    dev = 0.0
    for n in COPY_COUNTS:
        eye = np.eye(4 ** n)
        for stage, layer in enumerate(_layers(n), 1):
            for sign, proj in zip((1, -1), _composed_projectors(n, stage)):
                dev = np.max([dev, np.abs(proj - (eye + sign * eye[:, layer]) / 2).max()])
    return dev == 0.0, dev, None


def spectra_and_count() -> tuple:
    """Figures (spectrum of (L1 + L2)^2 on 3 copies, the same on 4 copies,
    number of projections for all three moments: 2 (n=2) plus one per
    distinct eigenvalue); passes when equal to the paper's
    PAPER_SPECTRA_AND_COUNT.  The spectra are read off the cycles of L1 L2
    (_cycle_spectrum)."""
    s3, s4 = tuple(_cycle_spectrum(3)), tuple(_cycle_spectrum(4))
    found = s3, s4, 2 + len(s3) + len(s4)
    return found == PAPER_SPECTRA_AND_COUNT, found, None


def nondemolition() -> tuple:
    """Stage-1 parity is nondemolition on 2-4 copies, for every state: max
    |L P -/+ P| and |P L -/+ P| over the stage-1 projectors P+ and P- as
    they are measured (_composed_projectors), L being the stage-1 layer.
    Exact by construction, every entry a gather of a multiple of 1/8: passes
    at exactly 0.

    With L^2 = I (_layers) and L P = P L = +/-P, the symmetrized stack
    sym = (X + L X L)/2 of any X, the copy stack rho^(x)n included, obeys
        L sym = (L X + X L)/2 = sym L,
        P (sym - X) P = (P L X L P - P X P)/2 = (P X P - P X P)/2 = 0.
    L acts as its basis permutation p, so L P = P[p] and P L = P[:, p] are
    exact gathers.
    """
    dev = 0.0
    for n in COPY_COUNTS:
        p, _ = _layers(n)
        for sign, proj in zip((1, -1), _composed_projectors(n, 1)):
            dev = np.max([dev, np.abs(proj[p] - sign * proj).max(), np.abs(proj[:, p] - sign * proj).max()])
    return dev == 0.0, dev, None


def invariant_route(batch) -> tuple:
    """max |direct - invariant-route moment| over pi2, pi3 and pi4, the
    route_spread of the two routes, with its state (_worst)."""
    spread = route_spread([moments_direct(batch).as_tuple(), moments_via_invariants(batch).as_tuple()])
    return _worst(np.max(spread, axis=0))


def _invariant_values(rho) -> np.ndarray:
    """The nine Makhlin invariants and the six y values along the last axis."""
    inv = makhlin(decompose(rho))
    return np.stack([*vars(inv).values(), *inv.y], axis=-1)


def local_unitary_drift(batch, rng, rotations: int) -> tuple:
    """Largest change of any of the nine Makhlin invariants or the six y
    combinations under `rotations` local unitaries u_a x u_b per state, each
    factor Haar-random from `rng` (drawn state by state, rotation by rotation,
    u_a before u_b), with its state (_worst)."""
    batch = _matrix(batch)
    u = haar_unitary(rng, shape=(*batch.shape[:-2], rotations, 2))
    rotated = apply_local_unitary(batch[..., None, :, :], u[..., 0, :, :], u[..., 1, :, :])
    base = _invariant_values(batch)[..., None, :]
    return _worst(np.max(np.abs(_invariant_values(rotated) - base), axis=(-2, -1), initial=0.0))


def witness_det(batch) -> tuple:
    """max |witness polynomial - det rho^PT|, the determinant being
    witness_report's, the product of the spectrum of the partial transpose,
    with its state (_worst).  ValueError for a batch that validate would
    reject, from witness_report before any moment is taken."""
    det = witness_report(batch).witness
    return _worst(np.abs(witness_value(moments_direct(batch)) - det))


def in_corridor(w, lo, n, c):
    """f(w) <= N <= C <= w^(1/4) up to rounding, for lo = f(w); elementwise
    on arrays.  The edges f(w) <= N and N <= C are rounding claims and pass
    within ROUNDING_MARK.

    The upper edge is compared through its forward map, C^4 <= w, within
    ROUNDING_MARK relative and W_SLACK absolute: near w = 0, w**0.25
    magnifies w's rounding error to several 1e-9, which would reject valid
    near-product pure states.
    """
    return ((lo - ROUNDING_MARK <= n) & (n <= c + ROUNDING_MARK)
            & (c ** 4 <= w * (1.0 + ROUNDING_MARK) + W_SLACK))


def corridor(rep) -> tuple:
    """Whether every state of a WitnessReport is in_corridor, figures (worst
    of f(w) - N and N - C, worst C^4 - w), and the flat index of the first
    state not in_corridor, or None.

    The two worst values are the closest approach to an edge over the
    states the report calls entangled, -inf if there are none: a separable
    state (w = N = C = 0) sits exactly on every edge and would always read 0.
    """
    w, lo, n, c = (np.asarray(x) for x in (rep.w, rep.lower_bound, rep.negativity, rep.concurrence))
    entangled = np.asarray(rep.entangled)
    slack = np.max(np.maximum(lo - n, n - c)[entangled], initial=-np.inf)
    upper = np.max((c ** 4 - w)[entangled], initial=-np.inf)
    inside = np.ravel(in_corridor(w, lo, n, c))
    outside = None if inside.all() else int(np.argmin(inside))
    return outside is None, (float(slack), float(upper)), outside
