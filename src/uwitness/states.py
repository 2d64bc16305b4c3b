"""Two-qubit density matrices: named states, validation, random ensembles, file I/O.

validate and the random samplers work on stacks of shape (..., 4, 4): a
single state is the stack with no leading axes, and StateSampler.sample(k)
draws k states as one (k, 4, 4) block.  Every state here, named or random,
is built by one rule, _gram: g g^dag / tr(g g^dag) of a complex (..., 4, r) g.

One private gate, _require_state, judges the state rule for validate and
for every entry point of uwitness.witness, in one pass over its input:
finiteness, then Hermiticity, unit trace and positivity together, the last
read from one eigh of rho, naming the first bad state of a stack.  An
input that passes leaves a record, keyed on the bytes and shape of the
complex array, that holds that eigh; the witness functions keep what they
solve of the state in the same record.  So consecutive gated calls on one
input share one gate pass and one solve of each kind.  The record lives
until a gated call on another input that passes the rule; a rejected input
leaves no record and the memo as it was, and an input edited in place, whose
bytes differ, is judged afresh.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from .linalg import _dagger, _integer, _matrix, _position, _real, _result, _trace

# the state rule: a finite Hermitian (4, 4) matrix of unit trace, no eigenvalue
# below -POSITIVITY_ATOL
HERMITICITY_ATOL = 1e-10
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
    rho = _matrix(rho)
    _require_state(rho)
    return rho


def _require_state(rho) -> _Record:
    """The record of rho, or validate's ValueError naming the first matrix
    of the stack off the state rule: the one gate of every entry point that
    takes a state."""
    rho = _matrix(rho)
    return _memo(rho.tobytes(), rho.shape)


class _Record:
    """One state, or stack, that passed the state rule: its matrix,
    read-only, its eigh, and what is solved of it, each value solve(record)
    computed on first use of kept(solve) and then kept.  Callers copy what
    they hand out."""

    __slots__ = ("rho", "eigh", "_kept")

    def __init__(self, rho: np.ndarray, eigh):
        self.rho = rho
        self.eigh = eigh
        self._kept = {}

    def kept(self, solve):
        try:
            return self._kept[solve]
        except KeyError:
            value = self._kept[solve] = solve(self)
            return value


@lru_cache(maxsize=1)
def _memo(state: bytes, shape: tuple) -> _Record:
    """The record of the complex array of `shape` whose bytes are `state`,
    or validate's ValueError: the state rule is judged here, in one pass,
    from one eigh of rho.  lru_cache keeps no exception, so a rejected input
    leaves the memo as it was.  One record, so consecutive gated calls on
    one input share it, and an input edited in place has other bytes and a
    new record."""
    rho = np.frombuffer(state, dtype=complex).reshape(shape)
    finite = np.isfinite(rho)
    if np.count_nonzero(finite) != rho.size:
        # before eigh, and before rho - rho^dag, where inf - inf would make numpy warn
        raise ValueError(f"non-finite entry in {_position(~finite.all(axis=(-2, -1))) or 'the matrix'}")
    eigh = np.linalg.eigh(rho)
    message = _violation(rho, eigh[0][..., 0])
    if message:
        raise ValueError(message)
    return _Record(rho, eigh)


def _violation(rho: np.ndarray, lowest: np.ndarray) -> str:
    """validate's message for the first matrix of a finite stack off the
    state rule, or '' if there is none; positivity is judged from each
    matrix's lowest eigenvalue `lowest`, where the matrix is Hermitian."""
    # a finite matrix can still have a margin past the float range: it reads
    # inf, and numpy does not warn first
    with np.errstate(over="ignore"):
        herm_dev = np.abs(rho - _dagger(rho)).max(axis=(-2, -1))
        trace_dev = abs(_trace(rho) - 1.0)
    invalid = (herm_dev > HERMITICITY_ATOL) | (trace_dev > TRACE_ATOL) | (lowest < -POSITIVITY_ATOL)
    if not np.count_nonzero(invalid):
        return ""
    index = tuple(np.argwhere(invalid)[0])
    problems = []
    if herm_dev[index] > HERMITICITY_ATOL:
        problems.append(f"not Hermitian (max |rho - rho^dag| = {herm_dev[index]:.3e})")
    if trace_dev[index] > TRACE_ATOL:
        problems.append(f"trace differs from 1 by {trace_dev[index]:.3e}")
    # the spectrum is judged only where the matrix is Hermitian
    if herm_dev[index] <= HERMITICITY_ATOL and lowest[index] < -POSITIVITY_ATOL:
        problems.append(f"not positive semidefinite (min eigenvalue = {lowest[index]:.3e})")
    where = _position(invalid)
    return "invalid density matrix: " + (where + ": " if where else "") + "; ".join(problems)


def _gram(g) -> np.ndarray:
    """g g^dag / tr(g g^dag) for a complex (..., 4, r) g, r = 1 for a pure
    state; an exact g gives an exact state (the singlet: 0 and +-0.5)."""
    rho = g @ _dagger(g)
    return rho / _trace(rho).real[..., None, None]


def _pure(vec) -> np.ndarray:
    return _gram(np.asarray(vec, dtype=complex)[:, None])


def singlet() -> np.ndarray:
    """Maximally entangled singlet (|01> - |10>)/sqrt(2)."""
    return _pure([0.0, 1.0, -1.0, 0.0])


def phi_plus() -> np.ndarray:
    """Maximally entangled state (|00> + |11>)/sqrt(2)."""
    return _pure([1.0, 0.0, 0.0, 1.0])


def werner(p: float) -> np.ndarray:
    """Werner state: p * singlet + (1 - p) * I/4.

    Entangled iff p > 1/3; p must be a real number (the number rule of
    uwitness.linalg) in [0, 1].
    """
    p = _result(_real(p, "werner mixing parameter"))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner mixing parameter must be in [0, 1], got {p}")
    return p * singlet() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def product_state(theta: float) -> np.ndarray:
    """Separable pure product state with one-qubit angles theta and theta/2;
    theta must be a finite real number."""
    theta = _result(_real(theta, "product state angle"))
    if not np.isfinite(theta):
        raise ValueError(f"product state angle must be finite, got {theta}")
    qa = np.array([np.cos(theta), np.sin(theta)])
    qb = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])
    return _pure(np.kron(qa, qb))


def pure_schmidt(lam1: float) -> np.ndarray:
    """Pure state lam1 |00> + sqrt(1 - lam1^2) |11> with Schmidt coefficient
    lam1, a real number in [0, 1]."""
    lam1 = _result(_real(lam1, "Schmidt coefficient"))
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
    """Hilbert-Schmidt random mixed state, _gram of a (4, 4) Ginibre matrix;
    k states as a (k, 4, 4) stack, the stream of k single draws bit for bit."""
    return _gram(_complex_normal(rng, (*_block(k), 4, 4)))


def random_pure_state(rng: np.random.Generator, k=None) -> np.ndarray:
    """Haar-random pure state, _gram of a complex Gaussian 4-vector (one
    column); k states as a (k, 4, 4) stack, the stream of k single draws."""
    return _gram(_complex_normal(rng, (*_block(k), 4, 1)))


def _block(k) -> tuple:
    """() for k = None, one state; else (k,) for an integer k >= 0."""
    return () if k is None else (_integer(k, "k", low=0),)


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex standard normals of shape (..., m, r) from one (..., 2, m, r)
    draw: real parts [..., 0, :, :], imaginary parts [..., 1, :, :]."""
    g = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def haar_unitary(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-random one-qubit unitary via QR of a Ginibre matrix with phase
    fixing; a (*shape, 2, 2) stack from one draw, the stream of the single
    draws in row-major order.  Each entry of shape is an integer >= 0."""
    shape = tuple(_integer(k, "shape", low=0) for k in shape)
    q, r = np.linalg.qr(_complex_normal(rng, (*shape, 2, 2)) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class StateSampler:
    """Seeded stream of random two-qubit density matrices.

    kind is "hs" (Hilbert-Schmidt mixed, the default) or "pure" (Haar pure),
    both _gram of a complex Gaussian g with 4 or 1 columns; equal seeds
    reproduce the sequence bit for bit, and seed=None draws fresh entropy;
    any other seed is an integer >= 0.  sample() draws one (4, 4) state and
    sample(k), for an integer k >= 0, a (k, 4, 4) block; the stream does not
    depend on how it is split into blocks, bit for bit.
    """

    def __init__(self, kind: str = "hs", seed=None):
        if kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r} (use 'hs' or 'pure')")
        if seed is not None:
            _integer(seed, "seed", low=0)
        self.kind = kind
        self._rng = np.random.default_rng(seed)

    def sample(self, k=None) -> np.ndarray:
        draw = random_pure_state if self.kind == "pure" else random_mixed_state
        return draw(self._rng, k)


def state_to_dict(rho) -> dict:
    """JSON-ready dict {dim, re, im} with row-major real/imaginary parts of
    one (4, 4) matrix; ValueError for any other shape, a stack included, and
    for a NaN or infinite entry, which JSON cannot hold."""
    rho = _matrix(rho)
    if rho.ndim != 2:
        raise ValueError(f"state_to_dict takes one (4, 4) matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("non-finite entry in the matrix: a state file holds finite numbers only")
    return {
        "dim": 4,
        "re": [float(x) for x in rho.real.ravel()],
        "im": [float(x) for x in rho.imag.ravel()],
    }


def state_from_dict(d: dict) -> np.ndarray:
    """Inverse of state_to_dict.  ValueError unless dim is 4 and re, im are
    lists of 16 finite numbers: json reads NaN, Infinity and 1e999 as
    non-finite floats, which save_state never writes."""
    try:
        dim = d["dim"]
        re = d["re"]
        im = d["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"state dict is missing field: {exc}") from None
    if dim != 4:
        raise ValueError(f"only dim = 4 states are supported, got {dim}")
    for name, part in (("re", re), ("im", im)):
        if not (isinstance(part, list) and len(part) == 16
                and all(isinstance(x, float) and math.isfinite(x) or type(x) is int and abs(x) <= 1e308
                        for x in part)):
            raise ValueError(f"{name} must be a list of 16 entries, each a float or an int of at most 1e308, "
                             f"all finite, got {part!r}")
    return (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(4, 4)


def save_state(path, rho):
    """Write one finite (4, 4) matrix to a JSON file (no physicality check;
    see validate).  A matrix of any other shape, or with a NaN or infinite
    entry, raises state_to_dict's ValueError before the file is opened, so an
    existing file at path is left as it was."""
    doc = state_to_dict(rho)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_state(path) -> np.ndarray:
    """Read a state from a JSON file (no physicality check; see validate)."""
    with open(path) as fh:
        return state_from_dict(json.load(fh))
