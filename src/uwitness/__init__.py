"""Universal two-qubit entanglement witness.

The determinant of the partially transposed state detects every entangled
two-qubit state.  This package evaluates it three independent ways (matrix
powers, collective swap measurements on 2-4 copies, local-unitary
invariants), converts it into tight two-sided bounds on negativity and
concurrence, and simulates finite-shot estimation of the whole scheme.

The numerical layers take rho of shape (..., 4, 4) and broadcast over the
leading axes: one (4, 4) state gives Python floats and bools, a stack gives
arrays of its leading shape.
"""

from .linalg import (
    RegisterLayout,
    hermitian_eig,
    kron,
    partial_transpose,
    swap_qubits,
    tensor_power,
)
from .states import (
    StateSampler,
    haar_unitary,
    load_state,
    named_state,
    phi_plus,
    product_state,
    pure_schmidt,
    random_mixed_state,
    random_pure_state,
    save_state,
    singlet,
    state_from_dict,
    state_to_dict,
    validate,
    werner,
)
from .witness import (
    MomentSet,
    WitnessReport,
    bounds,
    concurrence,
    concurrence_spinflip_eigs,
    lower_bound,
    moments_direct,
    negativity,
    rescaled_witness,
    upper_bound,
    witness_polynomial,
    witness_report,
    witness_value,
)
from .collective import (
    OutcomeTable,
    moment_cycle,
    moment_observable,
    moment_via_observable,
    moments_collective,
    observable_spectrum,
    outcome_probabilities,
    parity_projector,
    projection_count,
    swap_layer,
    symmetrized_copies,
)
from .invariants import (
    BlochDecomposition,
    MakhlinInvariants,
    apply_local_unitary,
    decompose,
    makhlin,
    moments_from_invariants,
    moments_via_invariants,
)
from .simulate import (
    ShotRecord,
    WitnessEstimate,
    estimate,
    moment_estimate,
    sample_shots,
)

__version__ = "0.1.0"

__all__ = [
    "RegisterLayout",
    "kron",
    "tensor_power",
    "partial_transpose",
    "swap_qubits",
    "hermitian_eig",
    "validate",
    "singlet",
    "phi_plus",
    "werner",
    "product_state",
    "pure_schmidt",
    "named_state",
    "random_mixed_state",
    "random_pure_state",
    "haar_unitary",
    "StateSampler",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
    "MomentSet",
    "WitnessReport",
    "moments_direct",
    "witness_polynomial",
    "witness_value",
    "rescaled_witness",
    "negativity",
    "concurrence",
    "concurrence_spinflip_eigs",
    "lower_bound",
    "upper_bound",
    "bounds",
    "witness_report",
    "OutcomeTable",
    "swap_layer",
    "parity_projector",
    "moment_observable",
    "observable_spectrum",
    "projection_count",
    "moment_cycle",
    "moment_via_observable",
    "outcome_probabilities",
    "symmetrized_copies",
    "moments_collective",
    "BlochDecomposition",
    "MakhlinInvariants",
    "decompose",
    "makhlin",
    "moments_from_invariants",
    "moments_via_invariants",
    "apply_local_unitary",
    "ShotRecord",
    "WitnessEstimate",
    "sample_shots",
    "moment_estimate",
    "estimate",
    "__version__",
]
