"""Property tests on edge states: rank-1, rank-2 and rank-3 mixtures, Werner
states at the PPT boundary p = 1/3 and near-singular states.

hypothesis draws them under a derandomized profile with no example
database, so every run sees the same examples, and a bounded example count
keeps the module under a second.  The tolerances are the ones verify and
the acceptance criteria use.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uwitness import checks
from uwitness.collective import moments_collective
from uwitness.invariants import apply_local_unitary, moments_via_invariants
from uwitness.states import haar_unitary, werner
from uwitness.witness import ENTANGLEMENT_ATOL, moments_direct, negativity, witness_report, witness_value

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

ROUTE_TOL = 1e-10  # moment routes and witness = det
LU_TOL = 1e-9  # local-unitary drift

_amplitudes = st.floats(-1.0, 1.0, allow_subnormal=False)
_weights = st.floats(1e-3, 1.0)


def _eigenbasis(draw) -> np.ndarray:
    """A Haar-random 4x4 unitary (QR of a Ginibre matrix) from a drawn seed."""
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((2, 4, 4))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    return q * (r.diagonal() / np.abs(r.diagonal()))


def _from_spectrum(u, weights) -> np.ndarray:
    rho = (u[:, : len(weights)] * weights) @ u[:, : len(weights)].conj().T
    return rho / np.trace(rho).real


@st.composite
def rank_k_states(draw, rank):
    """Exactly `rank` nonzero eigenvalues, drawn, in a random eigenbasis."""
    return _from_spectrum(_eigenbasis(draw), draw(hnp.arrays(np.float64, rank, elements=_weights)))


@st.composite
def near_singular_states(draw):
    """A rank-1, 2 or 3 state whose missing eigenvalues are filled in at
    eps from 1e-15 to 1e-6: full rank, but only just."""
    rank = draw(st.integers(1, 3))
    weights = draw(hnp.arrays(np.float64, rank, elements=_weights))
    eps = 10.0 ** -draw(st.floats(6.0, 15.0))
    return _from_spectrum(_eigenbasis(draw), np.concatenate([weights, np.full(4 - rank, eps)]))


@st.composite
def werner_near_third(draw):
    """werner(1/3 + delta): separable for delta <= 0, entangled above."""
    return werner(1.0 / 3.0 + draw(st.floats(-1e-3, 1e-3)))


@st.composite
def structured_states(draw):
    """A mixture of one to three pure states whose amplitudes hypothesis
    draws itself: zeros, repeated entries and exact product states."""
    v = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), 2, 4), elements=_amplitudes))
    v = v[:, 0] + 1j * v[:, 1]
    # scaled to a largest |entry| of 1, so no norm underflows
    largest = np.abs(v).max(axis=1)
    assume(np.all(largest > 0))
    v = v / largest[:, None]
    weights = draw(hnp.arrays(np.float64, len(v), elements=_weights))
    rho = np.einsum("k,ki,kj->ij", weights, v, v.conj())
    return rho / np.trace(rho).real


edge_states = st.one_of(
    rank_k_states(1), rank_k_states(2), rank_k_states(3), near_singular_states(), werner_near_third(),
    structured_states(),
)


@DERANDOMIZED
@given(edge_states)
def test_moment_routes_agree(rho):
    direct = np.array(moments_direct(rho).as_tuple())
    for route in (moments_collective, moments_via_invariants):
        assert np.abs(np.array(route(rho).as_tuple()) - direct).max() < ROUTE_TOL


@DERANDOMIZED
@given(edge_states)
def test_witness_is_det_and_decides_entanglement(rho):
    assert checks.witness_det(rho[None]) < ROUTE_TOL
    value = witness_value(moments_direct(rho))
    # outside the ENTANGLEMENT_ATOL band, the sign of det rho^PT is the
    # PPT test: at most one eigenvalue of rho^PT is negative
    rep = witness_report(rho)
    if abs(value) > ENTANGLEMENT_ATOL:
        assert rep.entangled == (rep.negativity > 0.0)


@DERANDOMIZED
@given(edge_states, st.integers(0, 2 ** 32 - 1))
def test_local_unitary_invariance(rho, seed):
    rng = np.random.default_rng(seed)
    assert checks.local_unitary_drift(rho[None], rng, 2) < LU_TOL
    u_a, u_b = haar_unitary(rng, shape=(2,))
    rotated = apply_local_unitary(rho, u_a, u_b)
    for a, b in zip(moments_direct(rho).as_tuple(), moments_direct(rotated).as_tuple()):
        assert abs(a - b) < LU_TOL
    assert abs(negativity(rho) - negativity(rotated)) < LU_TOL


@DERANDOMIZED
@given(edge_states)
def test_corridor(rho):
    rep = witness_report(rho)
    assert checks.in_corridor(rep.w, rep.lower_bound, rep.negativity, rep.concurrence)
