"""Density matrix construction, validation and sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidStateError, ResourceError
from .numerics import _frozen, check_hermitian, kron

PSD_TOL = 1e-12
TRACE_TOL = 1e-10
FAITHFULNESS_THRESHOLD = 1e-12
DEFAULT_REGULARIZATION = 1e-10
DEFAULT_DIM_BUDGET = 4096

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive semidefinite unit-trace Hermitian matrix with its spectrum.

    The eigendecomposition is computed once and shared by all consumers;
    instances are immutable and safe to pass between threads. The
    eigenvectors of a product are built on first access and kept (two
    threads may both build them, and get equal arrays): the third field
    holds either the eigenvector columns or the function that builds them.
    ``factors`` lists, in order, the tensor factors of a state built by
    ``product_state``; nested products are flattened, so no factor is itself
    a product. Every other constructor leaves it empty.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    _eigenvectors: np.ndarray | Callable[[], np.ndarray] = field(repr=False)
    factors: tuple[DensityMatrix, ...] = ()

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvector columns, in the order of ``eigenvalues``."""
        u = self._eigenvectors
        if callable(u):
            u = _frozen(u())
            object.__setattr__(self, "_eigenvectors", u)
        return u

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def is_faithful(self, threshold: float = FAITHFULNESS_THRESHOLD) -> bool:
        return self.min_eigenvalue > threshold


def density_matrix(m, *, psd_tol: float = PSD_TOL, trace_tol: float = TRACE_TOL) -> DensityMatrix:
    """Validate a matrix as a quantum state and cache its eigendecomposition."""
    a = check_hermitian(m)
    w, u = np.linalg.eigh(a)
    _check_spectrum(w, psd_tol=psd_tol, trace_tol=trace_tol)
    return DensityMatrix(_frozen(a), _frozen(w), _frozen(u))


def _check_spectrum(w: np.ndarray, *, psd_tol: float = PSD_TOL, trace_tol: float = TRACE_TOL) -> None:
    """Reject an ascending spectrum that is not that of a quantum state."""
    if w[0] < -psd_tol:
        raise InvalidStateError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    tr = float(w.sum())
    if abs(tr - 1.0) > trace_tol:
        raise InvalidStateError(f"trace {tr!r} differs from 1 by more than {trace_tol:.1e}")


def _from_eigensystem(w: np.ndarray, u: np.ndarray) -> DensityMatrix:
    # Trusted path for a state known by its eigensystem (Gibbs states): the
    # spectrum is valid by construction, so no eigh is repeated.
    order = np.argsort(w, kind="stable")
    w = np.asarray(w, dtype=float)[order]
    u = np.asarray(u, dtype=complex)[:, order]
    m = (u * w) @ u.conj().T
    m = (m + m.conj().T) / 2.0
    return DensityMatrix(_frozen(m), _frozen(w), _frozen(u))


def maximally_mixed(dim: int) -> DensityMatrix:
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    return density_matrix(np.eye(dim, dtype=complex) / dim)


def from_bloch(r: Sequence[float]) -> DensityMatrix:
    """Qubit state (I + r . sigma) / 2 from a Bloch vector of norm at most 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise InvalidStateError(f"Bloch vector must have 3 components, got shape {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-12:
        raise InvalidStateError(f"Bloch vector norm {norm!r} exceeds 1")
    m = (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2.0
    return density_matrix(m)


def to_bloch(rho: DensityMatrix) -> tuple[float, float, float]:
    """Bloch vector (Tr rho X, Tr rho Y, Tr rho Z) of a qubit state."""
    if rho.dim != 2:
        raise DomainError(f"Bloch coordinates need a qubit, got dimension {rho.dim}")
    return tuple(float(np.trace(rho.matrix @ p).real) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def pure_state(vec: Sequence[complex]) -> DensityMatrix:
    """Rank-one projector onto a (normalized copy of a) state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise InvalidStateError("zero vector does not define a state")
    v = v / norm
    return density_matrix(np.outer(v, v.conj()))


def random_density(dim: int, seed: int, mode: str = "hilbert-schmidt") -> DensityMatrix:
    """Seeded random state, Hilbert-Schmidt (Ginibre) or random diagonal."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    if mode == "hilbert-schmidt":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        m /= np.trace(m).real
        return density_matrix(m)
    if mode == "diagonal":
        p = rng.dirichlet(np.ones(dim))
        return density_matrix(np.diag(p.astype(complex)))
    raise DomainError(f"unknown sampling mode {mode!r}")


def _check_budget(dim: int, max_dim: int) -> None:
    if dim > max_dim:
        raise ResourceError(f"requested dimension {dim} exceeds budget {max_dim}")


def product_state(factors: Sequence[DensityMatrix], max_dim: int = DEFAULT_DIM_BUDGET) -> DensityMatrix:
    """Tensor product of validated states, assembled factor-wise.

    The matrix is the Kronecker product of the factor matrices (exactly
    Hermitian, as they are); eigenvalues and eigenvectors are Kronecker
    products of the factors' ones, sorted ascending; the eigenvectors are
    built only when first read. The result records its factors, with nested
    products flattened, so that consumers such as ``relative_modular_measure``
    can work copy by copy. One factor is returned as is.
    """
    factors = tuple(factors)
    if not factors:
        raise DomainError("product_state needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    dim = 1
    for f in factors:
        dim *= f.dim
    _check_budget(dim, max_dim)
    m, w = factors[0].matrix, factors[0].eigenvalues
    for f in factors[1:]:
        m = kron(m, f.matrix)
        w = np.kron(w, f.eigenvalues)
    order = np.argsort(w, kind="stable")
    flat = tuple(g for f in factors for g in (f.factors or (f,)))
    return DensityMatrix(_frozen(m), _frozen(w[order]), partial(_product_eigenvectors, factors, order), flat)


def _product_eigenvectors(factors: tuple[DensityMatrix, ...], order: np.ndarray) -> np.ndarray:
    u = factors[0].eigenvectors
    for f in factors[1:]:
        u = kron(u, f.eigenvectors)
    return u[:, order]


def tensor_pow(rho: DensityMatrix, n: int, max_dim: int = DEFAULT_DIM_BUDGET) -> DensityMatrix:
    """n-fold tensor power of a state, guarded by the dimension budget."""
    if n < 1:
        raise DomainError(f"tensor power needs n >= 1, got {n}")
    _check_budget(rho.dim**n, max_dim)
    return product_state([rho] * n, max_dim=max_dim)


def regularized(rho: DensityMatrix, delta: float = DEFAULT_REGULARIZATION) -> DensityMatrix:
    """Mix with the maximally mixed state: (1 - delta) rho + delta I/d."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"regularization delta must lie in (0, 1), got {delta}")
    d = rho.dim
    m = (1.0 - delta) * rho.matrix + delta * np.eye(d, dtype=complex) / d
    return density_matrix(m)


def state_from_json(obj) -> DensityMatrix:
    """Parse the JSON state specification shared by library and CLI.

    Accepted forms: ``{"bloch": [x, y, z]}`` or
    ``{"dim": d, "entries": [[re, im], ...]}`` with d*d row-major entries.
    """
    if not isinstance(obj, dict):
        raise InvalidStateError(f"state spec must be an object, got {type(obj).__name__}")
    if "bloch" in obj:
        return from_bloch(obj["bloch"])
    if "dim" in obj and "entries" in obj:
        dim = int(obj["dim"])
        entries = obj["entries"]
        if len(entries) != dim * dim:
            raise InvalidStateError(
                f"expected {dim * dim} entries for dim {dim}, got {len(entries)}"
            )
        flat = np.array([complex(re, im) for re, im in entries])
        return density_matrix(flat.reshape(dim, dim))
    raise InvalidStateError("state spec needs either 'bloch' or 'dim'+'entries'")


def state_to_json(rho: DensityMatrix) -> dict:
    entries = [[float(z.real), float(z.imag)] for z in rho.matrix.reshape(-1)]
    return {"dim": rho.dim, "entries": entries}
