"""Six numbers that survive local rotations determine the witness.

Local unitaries on either qubit cannot change entanglement.  The Pauli
correlation data rotates, the polynomial invariants built from it do not,
and six particular combinations already reproduce all three moments of the
partially transposed state -- and therefore the witness itself.
"""

import numpy as np

from uwitness import (
    apply_local_unitary,
    decompose,
    makhlin,
    moments_direct,
    moments_from_invariants,
    witness_value,
)
from uwitness.states import haar_unitary, random_mixed_state


def main():
    rng = np.random.default_rng(99)
    rho = random_mixed_state(rng)

    base = makhlin(decompose(rho)).y
    print("six moment-fixing combinations of the invariants:")
    for k, value in enumerate(base, start=1):
        print(f"  y{k} = {value:+.12f}")

    print("\nspinning both qubits with random local unitaries:")
    for k in range(5):
        rho = apply_local_unitary(rho, haar_unitary(rng), haar_unitary(rng))
        y = makhlin(decompose(rho)).y
        y_drift = max(abs(a - b) for a, b in zip(y, base))
        print(f"  rotation {k + 1}: max |y drift| = {y_drift:.2e}")

    m_direct = moments_direct(rho)
    m_inv = moments_from_invariants(makhlin(decompose(rho)).y)
    print("\nmoments from matrix powers:      ", tuple(f"{x:.12f}" for x in m_direct.as_tuple()))
    print("moments from the six invariants: ", tuple(f"{x:.12f}" for x in m_inv.as_tuple()))
    print(f"witness either way: {witness_value(m_direct):+.12e} / {witness_value(m_inv):+.12e}")


if __name__ == "__main__":
    main()
