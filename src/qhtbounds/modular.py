"""Spectral measure of the relative modular operator and derived scalars.

For faithful states rho and sigma with spectra {lambda_i}, {mu_j} and
eigenbases {e_i}, {f_j}, the measure places weight lambda_i |<e_i|f_j>|^2 at
location log(mu_j / lambda_i). It is the classical law of the log-likelihood
random variable that drives every tail bound in this package: its mean is
-rel_entropy, its variance is info_variance, and exp integrates to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import _prepare, rel_entropy
from .errors import DomainError, SupportError
from .numerics import _frozen
from .states import DensityMatrix

CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure on the real line, locations strictly increasing."""

    locations: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def mean(self) -> float:
        return float(self.locations @ self.weights)

    @property
    def variance(self) -> float:
        m = self.mean
        return float((self.locations - m) ** 2 @ self.weights)


def _cluster(locations: np.ndarray, weights: np.ndarray, tol: float = CLUSTER_TOL) -> SpectralMeasure:
    order = np.argsort(locations, kind="stable")
    loc = locations[order]
    wts = weights[order]
    out_loc: list[float] = []
    out_w: list[float] = []
    start = 0
    for i in range(1, loc.size + 1):
        if i == loc.size or loc[i] - loc[i - 1] > tol:
            w = wts[start:i]
            total = float(w.sum())
            # atoms of exactly zero weight carry no mass and are dropped;
            # positive weights are never pruned, however small
            if total > 0.0:
                out_loc.append(float(loc[start:i] @ w / total))
                out_w.append(total)
            start = i
    return SpectralMeasure(_frozen(np.array(out_loc)), _frozen(np.array(out_w)))


def _require_faithful(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if not rho.is_faithful() or not sigma.is_faithful():
        raise SupportError(
            "relative modular quantities need faithful states; pass a regularization"
        )


def relative_modular_measure(
    rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None
) -> SpectralMeasure:
    """Atomic law of the relative modular log-likelihood variable.

    Atoms within 1e-9 of each other are merged by weight addition (the merged
    location is the weight-averaged one); weights are never pruned, however
    small, since tail inequalities are support sensitive.
    """
    rho, sigma = _prepare(rho, sigma, regularization)
    _require_faithful(rho, sigma)
    log_lam = np.log(rho.eigenvalues)
    log_mu = np.log(sigma.eigenvalues)
    overlap = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    locations = (log_mu[None, :] - log_lam[:, None]).reshape(-1)
    weights = (rho.eigenvalues[:, None] * overlap).reshape(-1)
    return _cluster(locations, weights)


def sup_norm_c(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Operator norm of (log of the relative modular operator) + D * id.

    The norm ranges over every eigenvalue pair of the two states, not only
    over atoms carrying weight; by monotonicity only the extreme ratios
    matter.
    """
    rho, sigma = _prepare(rho, sigma, regularization)
    _require_faithful(rho, sigma)
    d = rel_entropy(rho, sigma)
    hi = math.log(sigma.eigenvalues[-1] / rho.eigenvalues[0]) + d
    lo = math.log(sigma.eigenvalues[0] / rho.eigenvalues[-1]) + d
    return max(abs(hi), abs(lo))


def tail(measure: SpectralMeasure, threshold: float) -> float:
    """Total weight at locations >= threshold."""
    return float(measure.weights[measure.locations >= threshold].sum())


def measure_mgf(measure: SpectralMeasure, t: float) -> float:
    """Sum of weight * exp(t * location); overflow saturates to +inf."""
    with np.errstate(over="ignore"):
        vals = np.exp(t * measure.locations)
    out = float(measure.weights @ vals)
    return math.inf if not math.isfinite(out) else out


def product_measure(a: SpectralMeasure, b: SpectralMeasure) -> SpectralMeasure:
    """Convolution: locations add, weights multiply, then clustering."""
    locations = (a.locations[:, None] + b.locations[None, :]).reshape(-1)
    weights = (a.weights[:, None] * b.weights[None, :]).reshape(-1)
    return _cluster(locations, weights)


def point_mass(location: float = 0.0) -> SpectralMeasure:
    return SpectralMeasure(_frozen(np.array([float(location)])), _frozen(np.array([1.0])))


def measure_from_atoms(locations, weights) -> SpectralMeasure:
    """Build a measure from raw atoms, clustering coincident locations."""
    locations = np.asarray(locations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if locations.shape != weights.shape or locations.ndim != 1:
        raise DomainError("locations and weights must be 1-d arrays of equal length")
    if (weights < 0).any():
        raise DomainError("weights must be nonnegative")
    return _cluster(locations, weights)
