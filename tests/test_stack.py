"""The (..., 4, 4) stack contract: every stack-taking layer equals its
per-state results, broadcasts over several leading axes, rejects non-finite
input by the index of the state, and the sampler's stream does not depend on
how it is split into blocks.  The checks of uwitness.checks take such a stack
and name the state of their worst deviation."""

import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from uwitness import checks
from uwitness.cli import SCATTER_BLOCK, main
from uwitness.collective import (_TRACE_BLOCK, COPY_COUNTS, OutcomeTable, layer_permutation, moment_cycle,
                                 moment_via_observable, moments_collective, outcome_probabilities)
from uwitness.invariants import (apply_local_unitary, decompose, makhlin, moments_from_invariants,
                                 moments_via_invariants)
from uwitness.linalg import partial_transpose
from uwitness.simulate import ShotRecord, estimate, sample_shots
from uwitness.states import (StateSampler, haar_unitary, product_state, pure_schmidt, state_to_dict, validate,
                             werner)
from uwitness.witness import (bounds, concurrence, lower_bound, moments_direct, negativity,
                              rescaled_witness, upper_bound, witness_report, witness_value)

from test_invariants import reconstruct
from test_witness import concurrence_spinflip_eigs


def mixed_stack():
    """37 states: 20 HS, 12 pure, Werner at p = 1/3 - 1e-9, 1/3, 1/3 + 1e-9 and
    0.9, and a rank-2 state."""
    hs = StateSampler("hs", 101).sample(20)
    pure = StateSampler("pure", 102).sample(12)
    near_ppt = [werner(1.0 / 3.0 + d) for d in (-1e-9, 0.0, 1e-9)]
    pure2 = StateSampler("pure", 103).sample(2)
    rank2 = 0.7 * pure2[0] + 0.3 * pure2[1]
    stack = np.concatenate([hs, pure, near_ppt, [rank2, werner(0.9)]])
    assert stack.shape == (37, 4, 4)
    return stack


def close(stacked, single, atol=1e-15):
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    if stacked.dtype == bool:
        assert np.array_equal(stacked, single)
        return
    assert np.all(np.abs(stacked - single) <= atol), np.abs(stacked - single).max()


STATE_LAYERS = {
    "partial_transpose": partial_transpose,
    "validate": validate,
    "moments_direct": lambda r: moments_direct(r).as_tuple(),
    "witness_value": lambda r: witness_value(moments_direct(r)),
    "negativity": negativity,
    "concurrence": concurrence,
    "witness_report": lambda r: tuple(witness_report(r).as_dict().values()),
    "decompose": decompose,
    "reconstruct": lambda r: reconstruct(decompose(r)),
    "makhlin": lambda r: tuple(vars(makhlin(decompose(r))).values()) + makhlin(decompose(r)).y,
    "moments_from_invariants": lambda r: moments_from_invariants(makhlin(decompose(r)).y).as_tuple(),
    "moments_via_invariants": lambda r: moments_via_invariants(r).as_tuple(),
    "moment_cycle": lambda r: tuple(moment_cycle(r, n) for n in (2, 3, 4)),
    "moment_via_observable": lambda r: tuple(moment_via_observable(r, n) for n in (3, 4)),
    "outcome_probabilities": lambda r: tuple(outcome_probabilities(r, n).probabilities for n in (2, 3, 4)),
    "moments_collective": lambda r: moments_collective(r).as_tuple(),
}


# every other entry point that takes a two-qubit matrix, beside STATE_LAYERS
MATRIX_ENTRY_POINTS = {
    "apply_local_unitary": lambda r: apply_local_unitary(r, np.eye(2), np.eye(2)),
    "local_unitary_drift": lambda r: checks.local_unitary_drift(r, np.random.default_rng(0), 1),
    "sample_shots": lambda r: sample_shots(r, 2, 10, seed=0),
    "state_to_dict": state_to_dict,
}


@pytest.mark.parametrize("shape", [(3, 3), (4,)], ids=["3x3", "vector"])
@pytest.mark.parametrize("name", sorted(STATE_LAYERS) + sorted(MATRIX_ENTRY_POINTS))
def test_every_entry_point_applies_the_one_matrix_rule(name, shape):
    fn = STATE_LAYERS.get(name) or MATRIX_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=re.escape(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {shape}")):
        fn(np.ones(shape) / shape[-1])


def not_numbers(shape):
    """A string, a bool and an object array holding a complex, each of
    `shape`, () being a scalar: the inputs numpy would read as numbers, or
    fail on with its own TypeError, that the number rule refuses."""
    return {"string": np.full(shape, "0.25") if shape else "0.25",
            "bool": np.ones(shape, dtype=bool) if shape else True,
            "object-complex": np.full(shape, 0.25 + 1j, dtype=object)}


def records():
    return [sample_shots(werner(0.5), n, 10, seed=0) for n in COPY_COUNTS]


# (entry point, the name its message gives the argument, its shape, a call
# that passes the argument under test) for every argument the number rule
# judges; each matrix entry point above takes its matrix by that rule too
NUMBER_ARGUMENTS = [
    ("OutcomeTable.probabilities", "probabilities", (2, 2), lambda x: OutcomeTable(2, x)),
    ("ShotRecord.counts", "counts", (4,), lambda x: ShotRecord(2, 4, x, 0)),
    ("apply_local_unitary.u_a", "u_a", (2, 2), lambda x: apply_local_unitary(werner(0.5), x, np.eye(2))),
    ("apply_local_unitary.u_b", "u_b", (2, 2), lambda x: apply_local_unitary(werner(0.5), np.eye(2), x)),
    ("bounds", "rescaled witness", (), bounds),
    ("lower_bound", "rescaled witness", (), lower_bound),
    ("upper_bound", "rescaled witness", (), upper_bound),
    ("werner", "werner mixing parameter", (), werner),
    ("product_state", "product state angle", (), product_state),
    ("pure_schmidt", "Schmidt coefficient", (), pure_schmidt),
] + [(name, "batch" if name == "local_unitary_drift" else "rho", (4, 4), fn)
     for name, fn in sorted({**STATE_LAYERS, **MATRIX_ENTRY_POINTS}.items())]

# (entry point, the name its message gives the argument, a call that passes
# the argument under test, its values beside those of every integer) for
# every argument the integer rule judges
INTEGER_ARGUMENTS = [
    ("moment_cycle.n", "copy count", lambda x: moment_cycle(werner(0.5), x), {}),
    ("moment_via_observable.n", "copy count", lambda x: moment_via_observable(werner(0.5), x), {}),
    ("outcome_probabilities.n", "copy count", lambda x: outcome_probabilities(werner(0.5), x), {}),
    ("layer_permutation.n", "copy count", lambda x: layer_permutation(x, 1), {}),
    ("layer_permutation.stage", "stage", lambda x: layer_permutation(2, x), {"float": 1.0}),
    ("OutcomeTable.n_copies", "copy count", lambda x: OutcomeTable(x, np.zeros((2, 2))), {}),
    ("ShotRecord.n_copies", "copy count", lambda x: ShotRecord(x, 3, [1, 1, 1, 0], 0), {}),
    ("ShotRecord.shots", "shots", lambda x: ShotRecord(2, x, [3, 0, 0, 0], 0), {}),
    ("ShotRecord.seed", "seed", lambda x: ShotRecord(2, 3, [1, 1, 1, 0], x),
     {"none": None, "negative": -1, "fraction": 1.5}),
    ("sample_shots.n", "copy count", lambda x: sample_shots(werner(0.5), x, 10, 0), {}),
    ("sample_shots.shots", "shots", lambda x: sample_shots(werner(0.5), 2, x, 0), {}),
    ("sample_shots.seed", "seed", lambda x: sample_shots(werner(0.5), 2, 10, x), {"none": None, "negative": -1}),
    ("estimate.resamples", "resamples", lambda x: estimate(records(), resamples=x), {}),
    ("estimate.seed", "seed", lambda x: estimate(records(), seed=x), {"none": None, "negative": -1}),
    ("StateSampler.seed", "seed", lambda x: StateSampler("hs", x), {"negative": -1}),
    ("StateSampler.sample.k", "k", lambda x: StateSampler("hs", 0).sample(x), {"negative": -1}),
    ("haar_unitary.shape", "shape", lambda x: haar_unitary(np.random.default_rng(0), (x,)),
     {"negative": -1, "fraction": 1.5}),
    ("local_unitary_drift.rotations", "rotations",
     lambda x: checks.local_unitary_drift(werner(0.5)[None], np.random.default_rng(0), x), {"zero": 0}),
]


def number_cases():
    for name, arg, shape, call in NUMBER_ARGUMENTS:
        for kind, value in not_numbers(shape).items():
            yield pytest.param(call, arg, value, id=f"{name}-{kind}")
    # a bool entry of a list, which np.asarray reads as 0 or 1, and a list of strings
    def record(counts):
        return ShotRecord(2, 4, counts, 0)
    yield pytest.param(record, "counts", [True, 1, 1, 1], id="ShotRecord.counts-bool-entry")
    yield pytest.param(record, "counts", ["1", 1, 1, 1], id="ShotRecord.counts-string-list")
    yield pytest.param(moments_direct, "rho", np.eye(4).tolist()[:3] + [[0, 0, 0, True]], id="moments_direct-bool-entry")
    for name, arg, call, extra in INTEGER_ARGUMENTS:
        values = {"string": "3", "bool": True, "object-complex": np.array(3 + 1j, dtype=object), "float": 3.0}
        for kind, value in {**values, **extra}.items():
            yield pytest.param(call, arg, value, id=f"{name}-{kind}")


@pytest.mark.parametrize("call, arg, value", number_cases())
def test_every_argument_applies_the_one_number_rule(call, arg, value):
    # a string, a bool, an object array or a float where an integer is due is
    # a ValueError naming the argument, not a number misread or numpy's error
    with pytest.raises(ValueError, match=rf"^{re.escape(arg)} must be "):
        call(value)


def test_numbers_of_other_dtypes_pass():
    # an int matrix is read as the complex matrix of the same numbers
    pure00 = np.diag([1, 0, 0, 0])
    for name, fn in STATE_LAYERS.items():
        got, want = fn(pure00), fn(pure00.astype(complex))
        for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, want))):
            assert np.array_equal(a, b), name
    assert np.array_equal(apply_local_unitary(pure00, np.eye(2, dtype=int), [[0, 1], [1, 0]]), np.diag([0, 1, 0, 0]))
    # numpy integers as copy counts, stages, shots, seeds and k
    assert np.array_equal(outcome_probabilities(werner(0.5), np.int64(3)).probabilities,
                          outcome_probabilities(werner(0.5), 3).probabilities)
    assert np.array_equal(layer_permutation(np.int64(3), np.uint8(2)), layer_permutation(3, 2))
    drawn = sample_shots(werner(0.5), np.int64(2), np.int32(1000), np.uint32(3))
    assert np.array_equal(drawn.counts, sample_shots(werner(0.5), 2, 1000, 3).counts)
    assert estimate(records(), resamples=np.int64(50), seed=np.uint32(4)) == estimate(records(), resamples=50, seed=4)
    assert np.array_equal(StateSampler("hs", np.uint32(7)).sample(np.int64(2)), StateSampler("hs", 7).sample(2))
    assert StateSampler("hs", 7).sample(0).shape == (0, 4, 4)
    assert StateSampler("pure").sample().shape == (4, 4)  # seed=None: fresh entropy
    assert checks.local_unitary_drift(werner(0.5)[None], np.random.default_rng(0), np.int64(1))[0]
    # counts as a list of Python ints and as integer-valued floats
    assert ShotRecord(np.int64(2), 4, [1, 1, 1, 1], 0).counts.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert ShotRecord(2, np.int64(4), [1.0, 0.0, 2.0, 1.0], 0).counts.tolist() == [1.0, 0.0, 2.0, 1.0]
    assert ShotRecord(2, 4, [1, 1, 1, 1], np.uint32(3)).seed == 3
    assert np.array_equal(haar_unitary(np.random.default_rng(0), (np.int64(2),)),
                          haar_unitary(np.random.default_rng(0), (2,)))
    assert OutcomeTable(2, [[1, 0], [0, 0]]).moment == 1.0
    # int parameters and w
    assert np.array_equal(werner(1), werner(1.0)) and np.array_equal(pure_schmidt(np.int64(1)), pure_schmidt(1.0))
    assert np.array_equal(product_state(np.float32(0.5)), product_state(float(np.float32(0.5))))
    assert bounds(1) == bounds(1.0) and lower_bound([0, 1]).tolist() == [0.0, 1.0]


def per_state(fn, stack):
    """fn on each state, every output stacked along a leading state axis."""
    outs = [fn(rho) for rho in stack]
    if isinstance(outs[0], tuple):
        return tuple(np.stack(parts) for parts in zip(*outs))
    return np.stack(outs)


@pytest.mark.parametrize("name", sorted(STATE_LAYERS))
def test_stack_equals_per_state(name):
    fn, stack = STATE_LAYERS[name], mixed_stack()
    stacked, single = fn(stack), per_state(fn, stack)
    if isinstance(single, tuple):
        for a, b in zip(stacked, single):
            close(a, b)
    else:
        close(stacked, single)


@pytest.mark.parametrize("n", COPY_COUNTS)
def test_collective_stack_across_gather_blocks(n):
    # three full gather blocks and one state left over, flat and as a (7, 7)
    # grid: a state's results do not depend on its stack, to the last bit
    stack = StateSampler("hs", 107).sample(3 * _TRACE_BLOCK + 1)
    grid = stack.reshape(7, 7, 4, 4)
    routes = [lambda r: outcome_probabilities(r, n).probabilities, lambda r: moment_cycle(r, n)]
    if n >= 3:
        routes.append(lambda r: moment_via_observable(r, n))
    for fn in routes:
        single = per_state(fn, stack)
        assert np.array_equal(fn(stack), single)
        assert np.array_equal(fn(grid), single.reshape((7, 7) + single.shape[1:]))


def test_outcome_table_memory_does_not_grow_with_the_stack():
    # the gather is blocked, so 1000 states at n = 4 stay within a few MB
    # (unblocked, the two gathered pair factors would hold 2 x 1000 x 6 x 256
    # complex entries, 49 MB)
    stack = StateSampler("hs", 108).sample(1000)
    tracemalloc.start()
    try:
        outcome_probabilities(stack, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_single_state_results_are_python_scalars():
    rep = witness_report(werner(0.5))
    assert all(type(v) is float for k, v in rep.as_dict().items() if k != "entangled")
    assert type(rep.entangled) is bool
    assert all(type(v) is float for v in moments_direct(werner(0.5)).as_tuple())
    assert all(type(v) is float for v in vars(makhlin(decompose(werner(0.5)))).values())
    assert type(moment_cycle(werner(0.5), 3)) is float
    assert type(lower_bound(0.5)) is float and type(upper_bound(0.5)) is float


def test_witness_scalars_broadcast():
    w = np.array([0.0, 1e-300, 1e-20, 3e-7, 1e-6, 0.1, 0.5, 1.0, 1.0 + 1e-12])
    close(lower_bound(w), [lower_bound(float(x)) for x in w], atol=0.0)
    close(upper_bound(w), [upper_bound(float(x)) for x in w], atol=0.0)
    lo, hi = bounds(w)
    close(lo, lower_bound(w), atol=0.0)
    close(hi, upper_bound(w), atol=0.0)
    values = np.array([-1.0, -1e-3, 0.0, 1e-3])
    close(rescaled_witness(values), [rescaled_witness(float(v)) for v in values], atol=0.0)
    with pytest.raises(ValueError, match="1.1"):
        lower_bound(np.array([0.5, 1.1]))


@pytest.mark.parametrize("w", [[0.1, 0.5], [[0.0, 1e-12], [0.3, 1.0 + 1e-12]], (0.2,), []])
def test_bounds_take_any_array_like(w):
    # a list gives bit for bit what the array of that list gives
    array = np.array(w, dtype=float)
    assert np.array_equal(lower_bound(w), lower_bound(array))
    assert np.array_equal(upper_bound(w), upper_bound(array))
    for from_list, from_array in zip(bounds(w), bounds(array)):
        assert np.array_equal(from_list, from_array)
    assert np.shape(lower_bound(w)) == array.shape


def test_spinflip_cross_check_on_stack():
    stack = mixed_stack()
    close(concurrence_spinflip_eigs(stack), per_state(concurrence_spinflip_eigs, stack), atol=1e-7)


def test_haar_unitary_block_is_the_stream_of_single_draws():
    block = haar_unitary(np.random.default_rng(8), shape=(3, 2))
    rng = np.random.default_rng(8)
    singles = np.stack([haar_unitary(rng) for _ in range(6)]).reshape(3, 2, 2, 2)
    assert np.array_equal(block, singles)


def test_local_unitary_stack():
    stack = mixed_stack()
    u = haar_unitary(np.random.default_rng(5), shape=(37, 2))
    rotated = apply_local_unitary(stack, u[:, 0], u[:, 1])
    close(rotated, [apply_local_unitary(r, a, b) for r, (a, b) in zip(stack, u)])


def test_two_leading_axes_broadcast():
    grid = StateSampler("hs", 104).sample(6).reshape(2, 3, 4, 4)
    rep = witness_report(grid)
    assert rep.w.shape == rep.entangled.shape == (2, 3)
    assert outcome_probabilities(grid, 4).probabilities.shape == (2, 3, 2, 2)
    assert decompose(grid).shape == (2, 3, 4, 4)
    for i in range(2):
        for j in range(3):
            single = witness_report(grid[i, j])
            assert abs(rep.concurrence[i, j] - single.concurrence) <= 1e-15
            assert abs(rep.w[i, j] - single.w) <= 1e-15
            assert abs(moments_via_invariants(grid).pi4[i, j] - moments_via_invariants(grid[i, j]).pi4) <= 1e-15


def test_empty_stack_gives_empty_results():
    empty = StateSampler("hs", 4).sample(0)
    assert empty.shape == (0, 4, 4)
    rep = witness_report(empty)
    assert all(np.shape(v) == (0,) for v in rep.as_dict().values())
    assert validate(empty).shape == (0, 4, 4)
    assert outcome_probabilities(empty, 4).probabilities.shape == (0, 2, 2)
    assert moments_via_invariants(empty).pi4.shape == (0,)


def test_state_checks_take_an_empty_stack():
    # every deviation is >= 0, so no state reads 0 and passes, as every
    # route's empty results allow
    empty = StateSampler("hs", 4).sample(0)
    assert checks.moment_routes(empty) == (True, 0.0, None)
    assert checks.invariant_route(empty) == (True, 0.0, None)
    assert checks.witness_det(empty) == (True, 0.0, None)
    assert checks.local_unitary_drift(empty, np.random.default_rng(0), 3) == (True, 0.0, None)
    assert checks.corridor(witness_report(empty)) == (True, (-np.inf, -np.inf), None)


def test_route_checks_pass_a_nan_on():
    # a NaN route result is no agreement: the check reads NaN, which no
    # threshold passes, and not the largest of the other deviations; the
    # worst state is the NaN's
    stack = StateSampler("hs", 4).sample(3)
    stack[1, 3, 3] = np.nan
    for check in (checks.moment_routes, checks.invariant_route):
        passed, dev, index = check(stack)
        assert not passed and np.isnan(dev) and index == 1


def test_exact_claims_pass_at_zero_only(monkeypatch):
    # each claim's verdict on a residual of exactly r: witness_det's
    # polynomial r away from a determinant of 0 (a rounding claim), and every
    # composed projector off by r (the two exact claims)
    batch = StateSampler("hs", 4).sample(3)
    composed = checks._composed_projectors

    def verdicts(r):
        monkeypatch.setattr(checks, "witness_report", lambda b: SimpleNamespace(witness=np.zeros(len(b))))
        monkeypatch.setattr(checks, "witness_value", lambda m: np.full(np.shape(m.pi2), r))
        monkeypatch.setattr(checks, "_composed_projectors",
                            lambda n, stage: tuple(p + r for p in composed(n, stage)))
        return checks.witness_det(batch)[0], checks.projector_composition()[0], checks.nondemolition()[0]

    assert verdicts(0.0) == (True, True, True)
    assert verdicts(5e-324) == (True, False, False)
    assert verdicts(checks.ROUNDING_MARK) == (False, False, False)
    assert verdicts(np.nan) == (False, False, False)


# A fault of 16 x ROUNDING_MARK (1.5e-11): at least 10 times the mark, and
# below the 1e-10 and 1e-9 marks that the rounding claims had before they
# shared one, which let it pass
OFFSET = 16 * checks.ROUNDING_MARK
FAULTY = 6  # the one state of the batch that the fault hits


def _off(values):
    """A copy of a per-state array with OFFSET added to state FAULTY."""
    values = np.array(values, dtype=float)
    values[FAULTY] += OFFSET
    return values


def _with_negativity(rep, edge):
    """The report with state FAULTY's N moved to edge(rep)[FAULTY]."""
    n = np.array(rep.negativity)
    n[FAULTY] = edge(rep)[FAULTY]
    return dataclasses.replace(rep, negativity=n)


def _failing_state(verdict):
    passed, _, state = verdict
    return None if passed else state


# claim -> (the name in checks that the fault replaces, the faulty version of
# it, the state whose failure the check reports, or None if it passes)
ROUNDING_FAULTS = {
    "moment_routes": ("moment_cycle", lambda f: lambda rho, n: _off(f(rho, n)),
                      lambda b: _failing_state(checks.moment_routes(b))),
    "invariant_route": ("moments_via_invariants",
                        lambda f: lambda rho: dataclasses.replace(f(rho), pi4=_off(f(rho).pi4)),
                        lambda b: _failing_state(checks.invariant_route(b))),
    "local_unitary_drift": ("_invariant_values",
                            # the rotated stack has the rotation axis, the unrotated one not
                            lambda f: lambda rho: _off(f(rho)) if rho.ndim == 4 else f(rho),
                            lambda b: _failing_state(checks.local_unitary_drift(b, np.random.default_rng(0), 3))),
    "witness_det": ("witness_value", lambda f: lambda m: _off(f(m)),
                    lambda b: _failing_state(checks.witness_det(b))),
    "corridor_N_le_C": ("witness_report",
                        lambda f: lambda b: _with_negativity(f(b), lambda r: r.concurrence + OFFSET),
                        lambda b: _failing_state(checks.corridor(checks.witness_report(b)))),
    "corridor_fw_le_N": ("witness_report",
                         lambda f: lambda b: _with_negativity(f(b), lambda r: r.lower_bound - OFFSET),
                         lambda b: _failing_state(checks.corridor(checks.witness_report(b)))),
}


@pytest.mark.parametrize("claim", sorted(ROUNDING_FAULTS))
def test_rounding_mark_catches_a_fault_the_old_marks_missed(claim, monkeypatch):
    # Haar-pure states: every one is entangled, and N = C on each
    batch = StateSampler("pure", 8).sample(10)
    name, faulty, failing_state = ROUNDING_FAULTS[claim]
    assert failing_state(batch) is None
    monkeypatch.setattr(checks, name, faulty(getattr(checks, name)))
    assert failing_state(batch) == FAULTY


@pytest.mark.parametrize("fn", [negativity, concurrence, witness_report, validate])
def test_non_finite_input_is_a_value_error(fn):
    bad = werner(0.5)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite entry in the matrix"):
        fn(bad)
    stack = StateSampler("hs", 105).sample(5)
    stack[3, 0, 0] = np.inf
    stack[4, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite entry in state 3 of the stack"):
        fn(stack)
    with pytest.raises(ValueError, match="state 1, 0 of the stack"):
        fn(stack[1:5].reshape(2, 2, 4, 4))


def test_validate_names_the_first_invalid_state():
    stack = StateSampler("hs", 106).sample(4)
    stack[2] *= 0.9
    with pytest.raises(ValueError, match="state 2 of the stack: trace differs from 1 by 1.000e-01"):
        validate(stack)


@pytest.mark.parametrize("kind", ["hs", "pure"])
def test_sampler_stream_does_not_depend_on_blocks(kind):
    whole = StateSampler(kind, 7).sample(30)
    split = StateSampler(kind, 7)
    assert np.array_equal(np.concatenate([split.sample(11), split.sample(19)]), whole)
    loop = StateSampler(kind, 7)
    assert np.array_equal(np.stack([loop.sample() for _ in range(30)]), whole)


def test_scatter_violation_in_second_block_names_global_index(capsys, monkeypatch):
    calls = []
    real = checks.in_corridor

    def fail_row_100_of_block_2(w, lo, n, c):
        inside = np.array(real(w, lo, n, c))
        calls.append(len(w))
        if len(calls) == 2:
            inside[100] = False
        return inside

    monkeypatch.setattr(checks, "in_corridor", fail_row_100_of_block_2)
    code = main(["--command", "scatter", "--samples", "1500", "--seed", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert calls == [SCATTER_BLOCK, 1500 - SCATTER_BLOCK]
    assert f"bound violation at sample {SCATTER_BLOCK + 100} of --seed 9" in err
