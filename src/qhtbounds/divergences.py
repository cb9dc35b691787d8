"""Scalar distinguishability measures between quantum states.

All logarithms are natural and 0 log 0 is 0 throughout. Routines that need a
support condition accept an optional ``regularization`` delta; when given,
non-faithful inputs are mixed with the maximally mixed state before use, and
when omitted a violated condition raises instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SupportError
from .numerics import sym_eigh, trace_norm
from .states import FAITHFULNESS_THRESHOLD, DensityMatrix, regularized

SUPPORT_TOL = FAITHFULNESS_THRESHOLD


def _prepare(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None):
    if regularization is not None:
        if not rho.is_faithful():
            rho = regularized(rho, regularization)
        if not sigma.is_faithful():
            sigma = regularized(sigma, regularization)
    return rho, sigma


def _overlap(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    # overlap[i, j] = |<e_i|f_j>|^2 for eigenbases of rho and sigma
    return np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2


def _check_support(rho: DensityMatrix, sigma: DensityMatrix, overlap: np.ndarray) -> np.ndarray:
    """Return sigma's support mask; reject rho-mass on sigma's null space."""
    support = sigma.eigenvalues > SUPPORT_TOL
    if not support.all():
        _reject_null_mass(float(rho.eigenvalues @ overlap[:, ~support].sum(axis=1)))
    return support


def _reject_null_mass(null_mass: float) -> None:
    """Raise if a state's mass outside the reference support is not roundoff."""
    if null_mass > 1e-10:
        raise SupportError(
            f"support violation: state carries mass {null_mass:.3e} outside "
            "the reference support (pass a regularization to proceed)"
        )


def _xlogx(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    pos = w > SUPPORT_TOL
    out[pos] = w[pos] * np.log(w[pos])
    return out


def rel_entropy(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Quantum relative entropy Tr rho (log rho - log sigma), in nats."""
    rho, sigma = _prepare(rho, sigma, regularization)
    overlap = _overlap(rho, sigma)
    support = _check_support(rho, sigma, overlap)
    log_mu = np.where(support, np.log(np.maximum(sigma.eigenvalues, SUPPORT_TOL)), 0.0)
    cross = float(rho.eigenvalues @ (overlap[:, support] @ log_mu[support]))
    return float(_xlogx(rho.eigenvalues).sum() - cross)


def info_variance(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Quantum information variance Tr rho (log rho - log sigma)^2 - D^2."""
    rho, sigma = _prepare(rho, sigma, regularization)
    overlap = _overlap(rho, sigma)
    support = _check_support(rho, sigma, overlap)
    lam = rho.eigenvalues
    pos = lam > SUPPORT_TOL
    log_lam = np.where(pos, np.log(np.maximum(lam, SUPPORT_TOL)), 0.0)
    log_mu = np.where(support, np.log(np.maximum(sigma.eigenvalues, SUPPORT_TOL)), 0.0)
    sig_first = overlap @ log_mu
    sig_second = overlap @ log_mu**2
    second = float(lam @ (log_lam**2 - 2.0 * log_lam * sig_first + sig_second))
    mean = float(lam @ (log_lam - sig_first))
    return max(second - mean**2, 0.0)


def renyi(alpha: float, rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Petz-Renyi divergence (alpha - 1)^-1 log Tr rho^alpha sigma^(1-alpha)."""
    if alpha <= 0:
        raise DomainError(f"Renyi order must be positive, got {alpha}")
    if alpha == 1.0:
        raise DomainError("alpha = 1 is the relative entropy, use rel_entropy")
    rho, sigma = _prepare(rho, sigma, regularization)
    if alpha > 1.0 and not sigma.is_faithful():
        raise SupportError("negative power of a singular reference state; regularize first")
    overlap = _overlap(rho, sigma)
    lam_a = np.where(rho.eigenvalues > SUPPORT_TOL, np.maximum(rho.eigenvalues, SUPPORT_TOL) ** alpha, 0.0)
    mu = sigma.eigenvalues
    if alpha < 1.0:
        mu_b = np.where(mu > SUPPORT_TOL, np.maximum(mu, SUPPORT_TOL) ** (1.0 - alpha), 0.0)
    else:
        mu_b = mu ** (1.0 - alpha)
    q = float(lam_a @ (overlap @ mu_b))
    if q <= 0.0:
        raise SupportError("states have numerically disjoint supports at this order")
    return math.log(q) / (alpha - 1.0)


def sandwiched_renyi(alpha: float, rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Sandwiched Renyi divergence for alpha > 1."""
    if alpha <= 1.0:
        raise DomainError(f"sandwiched form implemented for alpha > 1, got {alpha}")
    rho, sigma = _prepare(rho, sigma, regularization)
    if not sigma.is_faithful():
        raise SupportError("negative power of a singular reference state; regularize first")
    sqrt_rho = (rho.eigenvectors * np.sqrt(np.maximum(rho.eigenvalues, 0.0))) @ rho.eigenvectors.conj().T
    sig_pow = (sigma.eigenvectors * sigma.eigenvalues ** ((1.0 - alpha) / alpha)) @ sigma.eigenvectors.conj().T
    core = sqrt_rho @ sig_pow @ sqrt_rho
    w, _ = sym_eigh(core)
    q = float(np.maximum(w, 0.0) ** alpha @ np.ones_like(w))
    if q <= 0.0:
        raise SupportError("states have numerically disjoint supports at this order")
    return math.log(q) / (alpha - 1.0)


def _quasi_q(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> float:
    """Tr rho^t sigma^(1-t) with support-projector conventions at t in {0, 1}."""
    overlap = _overlap(rho, sigma)
    lam, mu = rho.eigenvalues, sigma.eigenvalues
    lam_t = np.where(lam > SUPPORT_TOL, np.maximum(lam, SUPPORT_TOL) ** t, 0.0)
    mu_t = np.where(mu > SUPPORT_TOL, np.maximum(mu, SUPPORT_TOL) ** (1.0 - t), 0.0)
    return float(lam_t @ (overlap @ mu_t))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return min(f(a), f1, f2, f(b))


def hoeffding_distance(r: float, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hoeffding divergence -inf_{t in [0,1)} (t r + log Tr rho^t sigma^(1-t)) / (1-t).

    The scalar infimand is minimized by a 256-point coarse grid followed by
    golden-section refinement of the bracketing interval down to 1e-10.
    """
    if r <= 0:
        raise DomainError(f"Hoeffding parameter must be positive, got {r}")

    def infimand(t: float) -> float:
        q = _quasi_q(rho, sigma, t)
        if q <= 0.0:
            return math.inf
        return (t * r + math.log(q)) / (1.0 - t)

    hi = 1.0 - 1e-6
    grid = np.linspace(0.0, hi, 256)
    vals = np.array([infimand(t) for t in grid])
    k = int(np.argmin(vals))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, grid.size - 1)]
    return -_golden_min(infimand, float(lo_b), float(hi_b), 1e-10)


def binary_kl(p: float, q: float) -> float:
    """Binary relative entropy p log(p/q) + (1-p) log((1-p)/(1-q)).

    Boundary conventions: 0 log 0 = 0, and a reference weight q in {0, 1}
    with p off that boundary yields +inf.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError(f"binary_kl needs probabilities in [0, 1], got p={p}, q={q}")
    if q == 0.0:
        return 0.0 if p == 0.0 else math.inf
    if q == 1.0:
        return 0.0 if p == 1.0 else math.inf
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def sym_error(a, b) -> float:
    """Minimum total error (Tr a + Tr b - ||a - b||_1) / 2 between PSD operators.

    Inputs may be unnormalized; ``DensityMatrix`` values or raw arrays are
    both accepted.
    """
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    tr = float(np.trace(ma).real + np.trace(mb).real)
    return (tr - trace_norm(ma - mb)) / 2.0
