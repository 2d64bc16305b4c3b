"""Universal two-qubit entanglement witness.

The determinant of the partially transposed state detects every entangled
two-qubit state.  This package evaluates it three independent ways (matrix
powers, collective swap measurements on 2-4 copies, local-unitary
invariants), converts it into tight two-sided bounds on negativity and
concurrence, and simulates finite-shot estimation of the whole scheme.

The numerical layers take rho of shape (..., 4, 4) and broadcast over the
leading axes: one (4, 4) state gives Python floats and bools, a stack gives
arrays of its leading shape.

The top level exports the runtime API that README's quickstart and the demos
use.  Everything else is imported from its module: states and file I/O from
uwitness.states, the swap layers as basis permutations from
uwitness.collective (layer_permutation), and the paper's claims (projectors,
spectra, nondemolition, stated on those permutations) from uwitness.checks.
The dense 4^n-dimensional reference operators live in the test suite,
tests/test_collective.py.
"""

from .states import StateSampler, named_state
from .witness import (
    lower_bound,
    moments_direct,
    upper_bound,
    witness_polynomial,
    witness_report,
    witness_value,
)
from .collective import (
    moment_cycle,
    moment_via_observable,
    moments_collective,
    outcome_probabilities,
)
from .invariants import (
    apply_local_unitary,
    decompose,
    makhlin,
    moments_from_invariants,
    moments_via_invariants,
)
from .simulate import estimate, moment_estimate, sample_shots

__version__ = "0.1.0"

__all__ = [
    "StateSampler",
    "named_state",
    "moments_direct",
    "witness_polynomial",
    "witness_value",
    "lower_bound",
    "upper_bound",
    "witness_report",
    "moment_cycle",
    "moment_via_observable",
    "outcome_probabilities",
    "moments_collective",
    "decompose",
    "makhlin",
    "moments_from_invariants",
    "moments_via_invariants",
    "apply_local_unitary",
    "sample_shots",
    "moment_estimate",
    "estimate",
    "__version__",
]
