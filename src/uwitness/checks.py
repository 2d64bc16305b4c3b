"""The paper's checkable claims, one function each.

`uwitness --command verify` and tests/test_acceptance.py both run these; the
callers choose the states, seeds and thresholds.  A check takes a batch of
4x4 states, plus an rng and a rotation count where the claim needs them, and
returns its worst deviation over the batch.
"""

from __future__ import annotations

import numpy as np

from .collective import (COPY_COUNTS, moment_cycle, moment_via_observable, observable_spectrum,
                         outcome_probabilities, parity_projector, projection_count, swap_layer,
                         symmetrized_copies)
from .invariants import apply_local_unitary, decompose, makhlin, moments_via_invariants
from .linalg import hermitian_eig, partial_transpose, tensor_power
from .states import haar_unitary
from .witness import moments_direct, witness_report, witness_value

BOUND_SLACK = 1e-9
# absolute rounding error of w, which is -16 times a polynomial whose O(1)
# terms cancel; measured at up to ~1e-15 on near-product pure states
W_SLACK = 1e-14


def moment_routes(batch) -> float:
    """Largest pairwise gap between the direct, cycle, sequential-table and
    (n >= 3) observable moments for n = 2, 3, 4, or between a table's total
    probability and 1."""
    dev = 0.0
    for rho in batch:
        for n, direct in zip(COPY_COUNTS, moments_direct(rho).as_tuple()):
            table = outcome_probabilities(rho, n)
            values = [direct, moment_cycle(rho, n), table.moment]
            if n >= 3:
                values.append(moment_via_observable(rho, n))
            dev = max(dev, max(values) - min(values), abs(table.as_vector().sum() - 1.0))
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
    gives P rho_sym P = P rho^(x)n P.  Returns the larger residual."""
    dev = 0.0
    for rho in batch:
        for n in COPY_COUNTS:
            sym, raw, layer = symmetrized_copies(rho, n), tensor_power(rho, n), swap_layer(n, 1)
            dev = max(dev, np.abs(layer @ sym - sym @ layer).max())
            for sign in (1, -1):
                proj = parity_projector(n, 1, sign)
                dev = max(dev, np.abs(proj @ sym @ proj - proj @ raw @ proj).max())
    return dev


def invariant_route(batch) -> float:
    """max |direct - invariant-route moment| over pi2, pi3 and pi4."""
    dev = 0.0
    for rho in batch:
        pairs = zip(moments_direct(rho).as_tuple(), moments_via_invariants(rho).as_tuple())
        dev = max(dev, max(abs(a - b) for a, b in pairs))
    return dev


def _invariant_values(rho) -> np.ndarray:
    inv = makhlin(decompose(rho))
    return np.array([*vars(inv).values(), *inv.y])


def local_unitary_drift(batch, rng, rotations: int) -> float:
    """Largest change of any of the nine Makhlin invariants or the six y
    combinations under `rotations` local unitaries u_a x u_b per state, each
    factor Haar-random from `rng`."""
    dev = 0.0
    for rho in batch:
        base = _invariant_values(rho)
        for _ in range(rotations):
            rotated = apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng))
            dev = max(dev, float(np.abs(_invariant_values(rotated) - base).max()))
    return dev


def witness_det(batch) -> float:
    """max |witness polynomial - det rho^PT|, the determinant taken as the
    product of the eigenvalues of the partial transpose."""
    dev = 0.0
    for rho in batch:
        det = float(np.prod(hermitian_eig(partial_transpose(rho))))
        dev = max(dev, abs(witness_value(moments_direct(rho)) - det))
    return dev


def in_corridor(w, lo, n, c) -> bool:
    """f(w) <= N <= C <= w^(1/4) up to rounding, for lo = f(w).

    The upper edge is compared through its forward map, C^4 <= w: near
    w = 0, w**0.25 magnifies w's rounding error to several 1e-9, which
    would reject valid near-product pure states.
    """
    return lo - BOUND_SLACK <= n <= c + BOUND_SLACK and c ** 4 <= w * (1.0 + BOUND_SLACK) + W_SLACK


def corridor(batch) -> tuple:
    """(worst of f(w) - N and N - C, worst C^4 - w, whether every state is
    in_corridor), each state's w, N, C and f(w) from one witness_report.

    The two worst values are the closest approach to an edge over the
    entangled states (w > 0), -inf if there are none: a separable state
    (w = N = C = 0) sits exactly on every edge and would always read 0.
    """
    slack = upper = -np.inf
    inside = True
    for rho in batch:
        rep = witness_report(rho)
        if rep.w > 0:
            slack = max(slack, rep.lower_bound - rep.negativity, rep.negativity - rep.concurrence)
            upper = max(upper, rep.concurrence ** 4 - rep.w)
        inside = inside and in_corridor(rep.w, rep.lower_bound, rep.negativity, rep.concurrence)
    return slack, upper, inside
