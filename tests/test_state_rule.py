"""The one state rule of uwitness.states, applied at every front door.

validate accepts a matrix whose lowest eigenvalue is down to -POSITIVITY_ATOL
and whose trace is within TRACE_ATOL of 1.  Every entry point that takes a
state (validate, witness_report, negativity, concurrence, checks.witness_det
and sample_shots) passes it through the same gate, so each rejects what
validate rejects with validate's message; negativity alone does not judge
positivity, which would take a second eigensolve.  sample_shots samples every
state validate accepts at n = 2, 3 and 4.  The gate keeps one record of its
last input, with eigh of rho, positivity read from it, and what is solved of
it: the eigensolver counts pin that one state through every entry point
solves each kind once, and the record is never seen, edited or stale.
"""

import re
import warnings

import numpy as np
import pytest

from uwitness import checks
from uwitness.simulate import _distribution, sample_shots
from uwitness.states import POSITIVITY_ATOL, TRACE_ATOL, StateSampler, _memo, validate, werner
from uwitness.witness import concurrence, negativity, witness_report

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


@pytest.mark.parametrize("entry", [validate, witness_report, negativity, concurrence, checks.witness_det],
                         ids=["validate", "witness_report", "negativity", "concurrence", "witness_det"])
def test_an_overflowing_trace_margin_reads_inf_without_a_warning(entry):
    # every entry is finite, but the trace 4e308 is past the float range; an
    # overflow warning from numpy, raised as an error, would replace the
    # ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("invalid density matrix: trace differs from 1 by inf")):
            entry(1e308 * np.eye(4))


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
    # a single matrix has no position to name
    for bad, where in ((stack, "state 2 of the stack: "), (stack[2], "")):
        message = f"invalid density matrix: {where}not Hermitian (max |rho - rho^dag| = 1.000e-06)"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(bad)


def _sample_n2(rho):
    return sample_shots(rho, 2, SHOTS, seed=0)


ENTRY_POINTS = {
    "validate": validate,
    "witness_report": witness_report,
    "negativity": negativity,
    "concurrence": concurrence,
    "witness_det": checks.witness_det,
    "sample_shots": _sample_n2,
}


def _faults():
    nan = werner(0.5)
    nan[1, 2] = np.nan
    off_hermitian = werner(0.5)
    off_hermitian[0, 1] += 1e-6
    return {
        "shape-3x3": np.eye(3) / 3,
        "nan": nan,
        "off-hermitian-1e-6": off_hermitian,
        "trace-2": 2 * werner(0.5),
        "not-psd": np.diag([1.2, -0.1, -0.1, 0.0]),
    }


FAULTS = _faults()


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_as_validate_does(entry, fault):
    bad = FAULTS[fault]
    with pytest.raises(ValueError) as expected:
        validate(bad)
    if (entry, fault) == ("negativity", "not-psd"):
        # the documented exception: positivity would take a second eigensolve,
        # so N is read off rho^PT = rho as it is, twice its eigenvalue -0.1
        assert negativity(bad) == pytest.approx(0.2, abs=1e-15)
        return
    _distribution.cache_clear()
    with pytest.raises(ValueError) as raised:
        ENTRY_POINTS[entry](bad)
    assert str(raised.value) == str(expected.value)
    assert _distribution.cache_info().currsize == 0


def test_witness_report_accepts_the_validated_edge_states():
    for _, rho in EDGE_STATES:
        witness_report(rho)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of np.linalg.eigh, eigvalsh and svd calls while the test runs,
    from an empty memo: an earlier test's record would solve nothing."""
    _memo.cache_clear()
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


@pytest.mark.parametrize("entry, expected", [
    # the gate reads positivity from the eigh that concurrence needs anyway
    (concurrence, {"eigh": 1, "eigvalsh": 0, "svd": 1}),
    # the eigvalsh of rho^PT; positivity, which would take another, is not judged
    (negativity, {"eigh": 0, "eigvalsh": 1, "svd": 0}),
    # the eigh of the record, which concurrence and witness_report reuse
    (validate, {"eigh": 1, "eigvalsh": 0, "svd": 0}),
], ids=["concurrence", "negativity", "validate"])
def test_gate_adds_no_eigensolve(lapack_calls, entry, expected):
    entry(werner(0.7))
    assert lapack_calls == expected


def test_sample_shots_makes_no_eigensolve(lapack_calls):
    # the state rule is judged where a table is built: the three cache
    # misses of one state share one record, so one eigh; a hit solves nothing
    _distribution.cache_clear()
    for n in (2, 3, 4):
        sample_shots(werner(0.7), n, SHOTS, seed=n)
    assert lapack_calls == {"eigh": 1, "eigvalsh": 0, "svd": 0}
    for n in (2, 3, 4):
        sample_shots(werner(0.7), n, SHOTS, seed=n + 3)
    assert lapack_calls == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def test_one_state_through_every_entry_point_solves_each_kind_once(lapack_calls):
    # the corridor path: one gate pass and one eigh, eigvalsh and svd, where
    # each entry point on its own would make 2, 3 and 2 between them
    rho = StateSampler("hs", 31).sample()
    valid, rep, n, c = validate(rho), witness_report(rho), negativity(rho), concurrence(rho)
    assert lapack_calls == {"eigh": 1, "eigvalsh": 1, "svd": 1}
    assert valid is rho and (rep.negativity, rep.concurrence) == (n, c)
    assert _memo.cache_info().currsize == 1
    # a second state replaces the record: the memo holds one at most
    witness_report(werner(0.7))
    assert lapack_calls == {"eigh": 2, "eigvalsh": 2, "svd": 2}
    assert _memo.cache_info().currsize == 1


def test_a_state_edited_in_place_is_judged_again():
    rho = werner(0.7)
    witness_report(rho)
    rho[0, 1] += 1e-6
    message = "invalid density matrix: not Hermitian (max |rho - rho^dag| = 1.000e-06)"
    for entry in (validate, witness_report, negativity, concurrence):
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(rho)
    rho[0, 1] -= 1e-6
    assert witness_report(rho) == witness_report(werner(0.7))


def test_one_matrix_and_a_stack_of_it_do_not_share_a_record():
    # the same bytes, another shape: a float for the matrix, an array for the stack
    rho = werner(0.7)
    assert type(negativity(rho)) is float and negativity(rho[None]).shape == (1,)
    assert concurrence(rho[None]).shape == (1,) and type(concurrence(rho)) is float
    assert witness_report(rho[None, None]).witness.shape == (1, 1)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_rejected_matrix_raises_the_same_message_again_and_leaves_no_record(fault):
    for entry in (validate, witness_report, concurrence):
        _memo.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                entry(FAULTS[fault])
            messages.append(str(raised.value))
            assert _memo.cache_info().currsize == 0
        assert messages[0] == messages[1]


def test_a_caller_cannot_write_into_the_record():
    stack = StateSampler("hs", 41).sample(3)
    n, c = negativity(stack), concurrence(stack)
    rep = witness_report(stack)
    rep.negativity[0] = rep.concurrence[0] = rep.witness[0] = 9.0
    assert np.array_equal(negativity(stack), n) and np.array_equal(concurrence(stack), c)
    negativity(stack)[1] = concurrence(stack)[1] = 9.0
    assert np.array_equal(witness_report(stack).negativity, n)
    assert np.array_equal(witness_report(stack).concurrence, c)
    assert witness_report(stack).witness[0] != 9.0


def test_the_first_invalid_state_is_named_over_the_whole_rule():
    # state 1 fails positivity alone, state 3 Hermiticity: the entry points
    # that judge positivity name state 1, negativity, which does not, state 3
    stack = StateSampler("hs", 53).sample(5)
    stack[1] = np.diag([1.2, -0.1, -0.1, 0.0])
    stack[3, 0, 1] += 1e-6
    not_psd = "invalid density matrix: state 1 of the stack: not positive semidefinite (min eigenvalue = -1.000e-01)"
    not_hermitian = "invalid density matrix: state 3 of the stack: not Hermitian (max |rho - rho^dag| = 1.000e-06)"
    for entry, message in ((validate, not_psd), (witness_report, not_psd), (concurrence, not_psd),
                           (negativity, not_hermitian), (validate, not_psd)):
        with pytest.raises(ValueError) as raised:
            entry(stack)
        assert str(raised.value) == message
