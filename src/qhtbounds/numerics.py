"""Dense complex Hermitian linear algebra kernel.

Eigendecomposition, functional calculus, Kronecker products, partial trace and
trace norm on plain numpy arrays. Everything here is a pure function of its
inputs; arrays are never mutated in place.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError

HERMITICITY_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def as_square_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix.

    The asymmetry ``max |m - m^dag|`` must not exceed ``tol`` relative to the
    largest entry magnitude (with a floor of 1), otherwise a ``DomainError``
    carrying the measured violation is raised.
    """
    a = as_square_matrix(m)
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    asym = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if asym > tol * scale:
        raise DomainError(
            f"matrix is not Hermitian: max |m - m^dag| = {asym:.3e} "
            f"exceeds {tol:.1e} (scale {scale:.3e})"
        )
    return (a + a.conj().T) / 2.0


def eig_h(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and the matching orthonormal
    eigenvectors as columns. Non-Hermitian input is rejected.
    """
    a = check_hermitian(m)
    w, u = np.linalg.eigh(a)
    return w, u


def sym_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition after symmetrizing roundoff asymmetry.

    For internal use on products like A B A (A, B Hermitian) that are Hermitian
    in exact arithmetic but accumulate O(eps) asymmetry.
    """
    a = as_square_matrix(m)
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def pencil_eigvals(top: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil (top, u diag(w) u^dag).

    ``w`` and ``u`` are eigenvalues and orthonormal eigenvector columns of the
    bottom matrix; the result is ``eigvalsh(V^dag top V)`` with
    ``V = u / sqrt(w)``. When ``u`` holds only some eigenvector columns, the
    pencil is restricted to their span. Every ``w`` must be positive.
    """
    v = u / np.sqrt(w)
    return np.linalg.eigvalsh(v.conj().T @ top @ v)


def mat_func(m, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``f`` must be defined and finite on every eigenvalue of ``m``; a domain
    failure (``log`` at 0, a NaN result, ...) raises ``DomainError``.
    """
    w, u = eig_h(m)
    try:
        fw = np.array([float(f(x)) for x in w])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"function undefined on an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function not finite at eigenvalue(s) {bad}")
    return (u * fw) @ u.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product, first argument on the most significant factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions whose product must equal the side of
    ``m``; ``keep`` holds the indices of the factors to retain (possibly
    empty, in which case a 1x1 matrix holding the full trace is returned).
    """
    a = as_square_matrix(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DomainError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != a.shape[0]:
        raise DomainError(
            f"dimension mismatch: product of factors {total} != matrix side {a.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= len(dims)):
        raise DomainError(f"keep indices {keep} out of range for {len(dims)} factors")
    k = len(dims)
    t = a.reshape(dims + dims)
    row_idx = list(range(k))
    col_idx = [k + i if i in keep else i for i in range(k)]
    out_idx = [i for i in keep] + [k + i for i in keep]
    out = np.einsum(t, row_idx + col_idx, out_idx)
    side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return out.reshape(side, side)


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    w, _ = eig_h(m)
    return float(np.abs(w).sum())
