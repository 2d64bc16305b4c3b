"""The paper's checkable claims, one function each.

`uwitness --command verify` and tests/test_acceptance.py both run these; the
callers choose the states, seeds and thresholds.  A check takes a (..., 4, 4)
stack of states, plus an rng and a rotation count where the claim needs
them, passes the whole stack to each layer in one call, and returns its
worst deviation over the stack.  Only nondemolition, whose oracle is a dense
4^n-dimensional matrix per state, loops over the states.
"""

from __future__ import annotations

import numpy as np

from .collective import (COPY_COUNTS, layer_permutation, moment_cycle, moment_via_observable,
                         observable_spectrum, outcome_probabilities, parity_projector,
                         projection_count, swap_layer, symmetrized_copies)
from .invariants import apply_local_unitary, decompose, makhlin, moments_via_invariants
from .linalg import hermitian_eig, partial_transpose, tensor_power
from .states import haar_unitary
from .witness import moments_direct, witness_report, witness_value

BOUND_SLACK = 1e-9
# absolute rounding error of w, which is -16 times a polynomial whose O(1)
# terms cancel; measured at up to ~1e-15 on near-product pure states
W_SLACK = 1e-14


def _worst(x) -> float:
    return float(np.max(x))


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
    gives P rho_sym P = P rho^(x)n P.  Returns the larger residual.  The layer
    L is applied as its index permutation (L X - X L = X[perm] - X[:, perm]);
    the composed projectors are the claim and stay dense."""
    dev = 0.0
    for n in COPY_COUNTS:
        perm = layer_permutation(n, 1)
        projectors = [parity_projector(n, 1, sign) for sign in (1, -1)]
        for rho in np.reshape(batch, (-1, 4, 4)):
            sym, raw = symmetrized_copies(rho, n), tensor_power(rho, n)
            dev = max(dev, np.abs(sym[perm] - sym[:, perm]).max())
            for proj in projectors:
                dev = max(dev, np.abs(proj @ sym @ proj - proj @ raw @ proj).max())
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
