"""The (..., 4, 4) stack contract: every stack-taking layer equals its
per-state results, broadcasts over several leading axes, rejects non-finite
input by the index of the state, and the sampler's stream does not depend on
how it is split into blocks."""

import tracemalloc

import numpy as np
import pytest

from uwitness import checks
from uwitness.cli import SCATTER_BLOCK, main
from uwitness.collective import (_TRACE_BLOCK, COPY_COUNTS, moment_cycle, moment_via_observable,
                                 moments_collective, outcome_probabilities)
from uwitness.invariants import (apply_local_unitary, decompose, makhlin, moments_from_invariants,
                                 moments_via_invariants)
from uwitness.linalg import partial_transpose
from uwitness.states import StateSampler, haar_unitary, validate, werner
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
