"""Two-qubit density matrices: named states, validation, random ensembles, file I/O."""

from __future__ import annotations

import json

import numpy as np

from .linalg import HERMITICITY_ATOL

TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-9

ENSEMBLE_KINDS = ("hs", "pure")


def validate(rho) -> np.ndarray:
    """Check that ``rho`` is a physical two-qubit density matrix.

    Returns the state as a complex ndarray.  Raises ValueError naming every
    violated property (shape, Hermiticity, unit trace, positivity) together
    with the magnitude of the violation.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    problems = []
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_ATOL:
        problems.append(f"not Hermitian (max |rho - rho^dag| = {herm_dev:.3e})")
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > TRACE_ATOL:
        problems.append(f"trace differs from 1 by {trace_dev:.3e}")
    if herm_dev <= HERMITICITY_ATOL:
        min_eig = np.linalg.eigvalsh(rho)[0]
        if min_eig < -POSITIVITY_ATOL:
            problems.append(f"not positive semidefinite (min eigenvalue = {min_eig:.3e})")
    if problems:
        raise ValueError("invalid density matrix: " + "; ".join(problems))
    return rho


def _pure(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def singlet() -> np.ndarray:
    """Maximally entangled singlet (|01> - |10>)/sqrt(2)."""
    return _pure([0.0, 1.0, -1.0, 0.0])


def phi_plus() -> np.ndarray:
    """Maximally entangled state (|00> + |11>)/sqrt(2)."""
    return _pure([1.0, 0.0, 0.0, 1.0])


def werner(p: float) -> np.ndarray:
    """Werner state: p * singlet + (1 - p) * I/4.

    Entangled iff p > 1/3; p must lie in [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner mixing parameter must be in [0, 1], got {p}")
    return p * singlet() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def product_state(theta: float) -> np.ndarray:
    """Separable pure product state with one-qubit angles theta and theta/2."""
    qa = np.array([np.cos(theta), np.sin(theta)])
    qb = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])
    return _pure(np.kron(qa, qb))


def pure_schmidt(lam1: float) -> np.ndarray:
    """Pure state lam1 |00> + sqrt(1 - lam1^2) |11> with Schmidt coefficient lam1."""
    if not 0.0 <= lam1 <= 1.0:
        raise ValueError(f"Schmidt coefficient must be in [0, 1], got {lam1}")
    lam2 = np.sqrt(max(0.0, 1.0 - lam1 * lam1))
    return _pure([lam1, 0.0, 0.0, lam2])


_NAMED = {
    "singlet": (singlet, False),
    "phi_plus": (phi_plus, False),
    "werner": (werner, True),
    "product": (product_state, True),
    "pure_schmidt": (pure_schmidt, True),
}

NAMED_STATES = tuple(sorted(_NAMED))


def named_state(spec: str) -> np.ndarray:
    """Build a state from a ``name`` or ``name:param`` string.

    Known names: singlet, phi_plus, werner:p, product:theta, pure_schmidt:lam1.
    """
    name, sep, arg = spec.partition(":")
    name = name.strip()
    if name not in _NAMED:
        known = ", ".join(sorted(_NAMED))
        raise ValueError(f"unknown state name {name!r} (known: {known})")
    ctor, wants_param = _NAMED[name]
    if wants_param:
        if not sep:
            raise ValueError(f"state {name!r} needs a parameter, e.g. {name}:0.5")
        try:
            param = float(arg)
        except ValueError:
            raise ValueError(f"could not parse parameter {arg!r} for state {name!r}") from None
        return ctor(param)
    if sep:
        raise ValueError(f"state {name!r} takes no parameter")
    return ctor()


def random_mixed_state(rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random mixed state G G^dag / tr(G G^dag), G Ginibre."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state from a normalized complex Gaussian 4-vector."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return _pure(v)


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class StateSampler:
    """Seeded stream of random two-qubit density matrices.

    kind is "hs" (Hilbert-Schmidt mixed, the default) or "pure" (Haar pure);
    equal seeds reproduce the sequence bit for bit.
    """

    def __init__(self, kind: str = "hs", seed=None):
        if kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r} (use 'hs' or 'pure')")
        self.kind = kind
        self._rng = np.random.default_rng(seed)

    def sample(self) -> np.ndarray:
        if self.kind == "pure":
            return random_pure_state(self._rng)
        return random_mixed_state(self._rng)


def sample_states(kind: str, n: int, seed=None) -> np.ndarray:
    """Stack of n random states, shape (n, 4, 4)."""
    sampler = StateSampler(kind, seed)
    return np.stack([sampler.sample() for _ in range(n)])


def state_to_dict(rho) -> dict:
    """JSON-ready dict {dim, re, im} with row-major real/imaginary parts."""
    rho = np.asarray(rho, dtype=complex)
    return {
        "dim": 4,
        "re": [float(x) for x in rho.real.ravel()],
        "im": [float(x) for x in rho.imag.ravel()],
    }


def state_from_dict(d: dict) -> np.ndarray:
    """Inverse of state_to_dict.  Raises ValueError on malformed input."""
    try:
        dim = d["dim"]
        re = d["re"]
        im = d["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"state dict is missing field: {exc}") from None
    if dim != 4:
        raise ValueError(f"only dim = 4 states are supported, got {dim}")
    if len(re) != 16 or len(im) != 16:
        raise ValueError(f"re and im must have 16 entries, got {len(re)} and {len(im)}")
    return (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(4, 4)


def save_state(path, rho):
    """Write a state to a JSON file."""
    with open(path, "w") as fh:
        json.dump(state_to_dict(rho), fh, indent=1)
        fh.write("\n")


def load_state(path) -> np.ndarray:
    """Read a state from a JSON file (no physicality check; see validate)."""
    with open(path) as fh:
        return state_from_dict(json.load(fh))
