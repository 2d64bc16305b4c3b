"""Two-qubit density matrices: named states, validation, random ensembles, file I/O.

validate and the random samplers work on stacks of shape (..., 4, 4): a
single state is the stack with no leading axes, and StateSampler.sample(k)
draws k states as one (k, 4, 4) block.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import HERMITICITY_ATOL, _dagger, _require_finite, _trace

TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-9

ENSEMBLE_KINDS = ("hs", "pure")


def validate(rho) -> np.ndarray:
    """Check that ``rho`` is a physical two-qubit density matrix, or that
    every matrix of a (..., 4, 4) stack is.

    Returns the state(s) as a complex ndarray.  Raises ValueError naming
    every violated property (shape, finiteness, Hermiticity, unit trace,
    positivity) together with the magnitude of the violation; for a stack,
    of the first invalid state, whose index it names.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {rho.shape}")
    _require_finite(rho)
    herm_dev = np.abs(rho - _dagger(rho)).max(axis=(-2, -1))
    trace_dev = np.abs(_trace(rho) - 1.0)
    min_eig = np.linalg.eigvalsh(rho)[..., 0]
    # the spectrum is judged only where the matrix is Hermitian
    hermitian = herm_dev <= HERMITICITY_ATOL
    not_psd = hermitian & (min_eig < -POSITIVITY_ATOL)
    invalid = ~hermitian | (trace_dev > TRACE_ATOL) | not_psd
    if not np.count_nonzero(invalid):
        return rho
    index = tuple(np.argwhere(invalid)[0])
    problems = []
    if not hermitian[index]:
        problems.append(f"not Hermitian (max |rho - rho^dag| = {herm_dev[index]:.3e})")
    if trace_dev[index] > TRACE_ATOL:
        problems.append(f"trace differs from 1 by {trace_dev[index]:.3e}")
    if not_psd[index]:
        problems.append(f"not positive semidefinite (min eigenvalue = {min_eig[index]:.3e})")
    where = f"state {', '.join(map(str, index))} of the stack: " if index else ""
    raise ValueError("invalid density matrix: " + where + "; ".join(problems))


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
    """Separable pure product state with one-qubit angles theta and theta/2;
    theta must be finite."""
    if not np.isfinite(theta):
        raise ValueError(f"product state angle must be finite, got {theta}")
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


def random_mixed_state(rng: np.random.Generator, k=None) -> np.ndarray:
    """Hilbert-Schmidt random mixed state G G^dag / tr(G G^dag), G Ginibre;
    k states as a (k, 4, 4) stack.

    The block is one (k, 2, 4, 4) draw, real parts from [:, 0] and imaginary
    parts from [:, 1], so it is the stream of k single draws bit for bit.
    """
    g = rng.standard_normal((*_block(k), 2, 4, 4))
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    rho = g @ _dagger(g)
    return rho / _trace(rho).real[..., None, None]


def random_pure_state(rng: np.random.Generator, k=None) -> np.ndarray:
    """Haar-random pure state from a normalized complex Gaussian 4-vector;
    k states as a (k, 4, 4) stack from one (k, 2, 4) draw, the stream of k
    single draws bit for bit."""
    g = rng.standard_normal((*_block(k), 2, 4))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    norm = np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))
    v = v / norm[..., None]
    return v[..., :, None] * v.conj()[..., None, :]


def _block(k) -> tuple:
    return () if k is None else (k,)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i], each through the BLAS dot that np.linalg.norm
    uses for one vector (an einsum sums in another order)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def haar_unitary(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-random one-qubit unitary via QR of a Ginibre matrix with phase
    fixing; a (*shape, 2, 2) stack from one draw, the stream of the single
    draws in row-major order."""
    g = rng.standard_normal((*shape, 2, 2, 2))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class StateSampler:
    """Seeded stream of random two-qubit density matrices.

    kind is "hs" (Hilbert-Schmidt mixed, the default) or "pure" (Haar pure);
    equal seeds reproduce the sequence bit for bit.  sample() draws one
    (4, 4) state and sample(k) a (k, 4, 4) block; the stream does not depend
    on how it is split into blocks, bit for bit.
    """

    def __init__(self, kind: str = "hs", seed=None):
        if kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r} (use 'hs' or 'pure')")
        self.kind = kind
        self._rng = np.random.default_rng(seed)

    def sample(self, k=None) -> np.ndarray:
        draw = random_pure_state if self.kind == "pure" else random_mixed_state
        return draw(self._rng, k)


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
