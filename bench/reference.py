"""Independent numpy-only reference for the benchmark's correctness checks.

Nothing here imports uwitness.  The partial transpose is built by swapping
the off-diagonal 2x2 blocks, the moments and the determinant come from the
eigenvalues of that matrix, and the Werner and pure-state families have
closed forms.  The corridor f(w) <= N <= C <= w**(1/4) is checked through
the forward map only (w <= N (N + 2)^3 / 27 and C^4 <= w), so the program's
own inverse `lower_bound` is never trusted by a check.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np

MOMENT_ATOL = 1e-10     # three routes against the reference moments
DET_ATOL = 1e-12        # witness against the reference determinant
MEASURE_ATOL = 1e-10    # negativity, and concurrence of Werner and pure states
MIXED_C_ATOL = 1e-7     # concurrence of mixed states: sqrt of small eigenvalues
TABLE_ATOL = 1e-12      # outcome-table normalisation and non-negativity
W_ATOL = 1e-12          # absolute slack on w, which is -16 det of O(1) terms
CORRIDOR_RTOL = 1e-9    # relative slack on the forward map
INVERSE_RTOL = 1e-9     # lower_bound must invert the forward map this well
SIGMAS = 6.0            # moment estimates within SIGMAS standard errors

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SY, _SY)
_SINGLET = np.outer([0.0, 1.0, -1.0, 0.0], [0.0, 1.0, -1.0, 0.0]) / 2.0


# ---- inputs -----------------------------------------------------------------

def hs_state(rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random mixed state G G^dag / tr, G complex Ginibre."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pure_vector(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure two-qubit vector (a, b, c, d) in the |00>,|01>,|10>,|11> basis."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def pure_state(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def werner_state(p: float) -> np.ndarray:
    return (p * _SINGLET + (1.0 - p) * np.eye(4) / 4.0).astype(complex)


# ---- reference quantities ---------------------------------------------------

def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on qubit a: swap the two off-diagonal 2x2 blocks."""
    pt = np.array(rho, dtype=complex)
    pt[:2, 2:] = rho[2:, :2]
    pt[2:, :2] = rho[:2, 2:]
    return pt


class Reference:
    """Moments, determinant, N and C of one state from the spectrum of rho^PT.

    `kind` is "werner" (with `p`), "pure" (with `vector`) or "mixed"; the
    first two replace N and C (and for Werner the determinant) by closed
    forms.
    """

    def __init__(self, rho, kind="mixed", p=None, vector=None):
        self.rho = rho
        self.kind = kind
        lam = np.linalg.eigvalsh(partial_transpose(rho))
        self.moments = tuple(float(np.sum(lam ** n)) for n in (2, 3, 4))
        self.det = float(np.prod(lam))
        self.negativity = 2.0 * max(0.0, -float(lam[0]))
        if kind == "werner":
            self.det = ((1.0 - 3.0 * p) / 4.0) * ((1.0 + p) / 4.0) ** 3
            self.negativity = self.concurrence = max(0.0, (3.0 * p - 1.0) / 2.0)
        elif kind == "pure":
            a, b, c, d = vector
            self.concurrence = float(2.0 * abs(a * d - b * c))
        else:
            self.concurrence = _wootters(rho)
        self.w = max(0.0, -16.0 * self.det)

    @property
    def concurrence_atol(self) -> float:
        return MIXED_C_ATOL if self.kind == "mixed" else MEASURE_ATOL


def _wootters(rho: np.ndarray) -> float:
    """C from the eigenvalues of the Hermitian sqrt(rho) rho~ sqrt(rho)."""
    d, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(d, 0.0, None))) @ v.conj().T
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1:].sum()))


def witness_polynomial(pi2, pi3, pi4):
    """det rho^PT as the paper's polynomial in the moments."""
    return (1.0 - 6.0 * pi4 + 8.0 * pi3 + 3.0 * pi2 ** 2 - 6.0 * pi2) / 24.0


def signed_sum(cells):
    """(+,+) - (+,-) - (-,+) + (-,-) of a four-outcome table or count vector."""
    return cells[0] - cells[1] - cells[2] + cells[3]


def forward_map(c):
    """w(C) = C (C + 2)^3 / 27, the Werner line."""
    return c * (c + 2.0) ** 3 / 27.0


# ---- checks -----------------------------------------------------------------

def check_moments(label, got, ref: Reference):
    dev = max(abs(a - b) for a, b in zip(got, ref.moments))
    return [] if dev <= MOMENT_ATOL else [f"{label} moments off by {dev:.2e}"]


def check_moment(label, n, got, ref: Reference):
    dev = abs(got - ref.moments[n - 2])
    return [] if dev <= MOMENT_ATOL else [f"{label} n={n} moment off by {dev:.2e}"]


def check_witness(got, ref: Reference):
    dev = abs(got - ref.det)
    return [] if dev <= DET_ATOL else [f"witness differs from det by {dev:.2e}"]


def check_measures(negativity, concurrence, ref: Reference):
    problems = []
    if abs(negativity - ref.negativity) > MEASURE_ATOL:
        problems.append(f"negativity {negativity!r} vs reference {ref.negativity!r}")
    if abs(concurrence - ref.concurrence) > ref.concurrence_atol:
        problems.append(f"concurrence {concurrence!r} vs reference {ref.concurrence!r}")
    return problems


def check_corridor(w, negativity, concurrence):
    """f(w) <= N <= C <= w^(1/4), through the forward map only."""
    problems = []
    if w > forward_map(negativity) * (1.0 + CORRIDOR_RTOL) + W_ATOL:
        problems.append(f"w={w!r} above the Werner line at N={negativity!r}")
    if negativity > concurrence + MEASURE_ATOL:
        problems.append(f"N={negativity!r} exceeds C={concurrence!r}")
    if concurrence ** 4 > w * (1.0 + CORRIDOR_RTOL) + W_ATOL:
        problems.append(f"C^4={concurrence ** 4!r} exceeds w={w!r}")
    return problems


def check_table(n, probabilities, ref: Reference):
    """Four outcome probabilities: non-negative, sum 1, signed sum = moment."""
    p = np.asarray(probabilities, dtype=float).reshape(4)
    problems = []
    if p.min() < -TABLE_ATOL or abs(p.sum() - 1.0) > TABLE_ATOL:
        problems.append(f"n={n} table {p.tolist()} is not a distribution")
    problems += check_moment("table", n, signed_sum(p), ref)
    return problems


def check_inverse(w, c):
    """lower_bound(w) = c must satisfy w(c) = w to a relative INVERSE_RTOL."""
    err = abs(forward_map(c) - w) / w
    return [] if err <= INVERSE_RTOL else [f"lower_bound({w:.1e}) off by relative {err:.1e}"]


def check_counts(n, counts, shots, ref: Reference):
    """Counts sum to the shot budget; the signed mean lies within SIGMAS SEs."""
    c = np.asarray(counts, dtype=float)
    if c.shape != (4,) or c.min() < 0 or c.sum() != shots:
        return [f"n={n} counts {c.tolist()} do not sum to {shots} shots"]
    pi = ref.moments[n - 2]
    hat = signed_sum(c) / shots
    se = np.sqrt(max(0.0, 1.0 - pi * pi) / shots)
    if abs(hat - pi) > SIGMAS * se + 1e-12:
        return [f"n={n} estimate {hat!r} is {abs(hat - pi):.2e} from {pi!r} (SE {se:.1e})"]
    return []


def inverse_grid():
    """The fixed w grid for the lower_bound inversion check: 4 points a decade."""
    return np.logspace(-15.0, 0.0, 61)
