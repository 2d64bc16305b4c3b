"""The one state rule of uwitness.states, applied at every front door.

validate accepts a matrix whose lowest eigenvalue is down to -POSITIVITY_ATOL
and whose trace is within TRACE_ATOL of 1.  sample_shots must sample every
such state at n = 2, 3 and 4, its table bounds being derived from the same
two margins, and witness_report must reject what validate rejects, with
validate's message, from the eigendecomposition concurrence already makes.
"""

import re
import warnings

import numpy as np
import pytest

from uwitness import checks
from uwitness.simulate import _distribution, sample_shots
from uwitness.states import POSITIVITY_ATOL, TRACE_ATOL, StateSampler, validate, werner
from uwitness.witness import negativity, witness_report

SHOTS = 1000


def _unitary(rng) -> np.ndarray:
    g = rng.standard_normal((2, 4, 4))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    return q * (r.diagonal() / np.abs(r.diagonal()))


def _in_basis(u, spectrum) -> np.ndarray:
    return (u * np.asarray(spectrum)) @ u.conj().T


def _edge_states():
    rng = np.random.default_rng(13)
    a = 0.99 * POSITIVITY_ATOL
    yield "diag-repro", np.diag([1 + 5e-10, 0, -5e-10, 0])
    # three eigenvalues just inside -POSITIVITY_ATOL, the most negative table
    # entries a validated state can give
    for k in range(20):
        yield f"three-negative-{k}", _in_basis(_unitary(rng), [1 + 3 * a, -a, -a, -a])
    for sign in (1, -1):
        scale = 1 + sign * 0.99 * TRACE_ATOL
        yield f"trace{sign:+d}-werner", scale * werner(0.7)
        yield f"trace{sign:+d}-pure", scale * _in_basis(_unitary(rng), [1, 0, 0, 0])


EDGE_STATES = list(_edge_states())


@pytest.mark.parametrize("rho", [rho for _, rho in EDGE_STATES], ids=[name for name, _ in EDGE_STATES])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_validated_edge_state_is_sampled(rho, n):
    validate(rho)
    record = sample_shots(rho, n, SHOTS, seed=n)
    assert record.counts.sum() == SHOTS


@pytest.mark.parametrize("scale", [2.0, 1e100, 1e200])
def test_witness_report_rejects_an_unnormalised_state(scale):
    # at the parent 2x gave w = 0 next to N = 0.5, 1e100x an OverflowError
    # and 1e200x NaN fields
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"trace differs from 1 by {scale - 1:.3e}")):
            witness_report(scale * werner(0.5))


def test_witness_report_names_the_first_non_state_as_validate_does():
    stack = StateSampler("hs", 107).sample(6)
    stack[2] *= 1.5
    stack[4] = np.diag([1.2, -0.1, -0.1, 0.0])
    with pytest.raises(ValueError) as expected:
        validate(stack)
    assert "state 2 of the stack: trace differs from 1 by 5.000e-01" in str(expected.value)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        witness_report(stack)
    not_psd = re.escape("state 1 of the stack: not positive semidefinite (min eigenvalue = -1.000e-01)")
    with pytest.raises(ValueError, match=not_psd):
        witness_report(stack[[1, 4]])
    # a non-finite entry is still named first, whichever state holds it
    stack[3, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite entry in state 3 of the stack"):
        witness_report(stack)


@pytest.mark.parametrize("entry", [negativity, witness_report, checks.witness_det],
                         ids=["negativity", "witness_report", "witness_det"])
def test_non_hermitian_state_is_named_as_validate_does(entry):
    stack = StateSampler("hs", 107).sample(4)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=re.escape("state 2 of the stack: not Hermitian")):
        validate(stack)
    with pytest.raises(ValueError, match=re.escape("state 2 of the stack: max |M - M^dag| entry is 1.000e-06")):
        entry(stack)
    # a single matrix has no position to name
    with pytest.raises(ValueError, match=re.escape("matrix is not Hermitian: max |M - M^dag|")):
        entry(stack[2])


def test_witness_report_accepts_the_validated_edge_states():
    for _, rho in EDGE_STATES:
        witness_report(rho)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of np.linalg.eigh, eigvalsh and svd calls while the test runs."""
    calls = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_witness_report_gate_adds_no_eigensolve(lapack_calls):
    # one eigh (concurrence, which also serves the state rule), one eigvalsh
    # (negativity) and one svd (concurrence): the same calls as without the gate
    witness_report(werner(0.7))
    assert lapack_calls == {"eigh": 1, "eigvalsh": 1, "svd": 1}


def test_sample_shots_makes_no_eigensolve(lapack_calls):
    _distribution.cache_clear()  # so each table is built here
    for n in (2, 3, 4):
        sample_shots(werner(0.7), n, SHOTS, seed=n)
    assert lapack_calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
