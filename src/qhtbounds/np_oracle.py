"""Exact optimal asymmetric hypothesis-testing errors for explicit state pairs.

Optimal tests have the Neyman-Pearson structure: a projector onto the strictly
positive eigenspace of rho - t sigma plus a randomized fraction of its zero
eigenspace. Along this family the type-I error is nondecreasing and the
type-II error nonincreasing in t, so the optimum at a given type-I level is
found exactly by bisection over the threshold, with kernel randomization
closing any jump. Thresholds are handled through u = t / (1 + t), under which
the pencil becomes the segment (1 - u) rho - u sigma and t -> inf (the best
zero type-II test, relevant for singular sigma) is the endpoint u = 1.

The rank of the test only changes when t crosses a generalized eigenvalue of
(rho, sigma). For commuting pairs the projector itself is constant in
between, making the frontier the polygon on those candidate thresholds; for
non-commuting pairs the eigenvectors rotate and the frontier is a smooth
convex curve, so the curve builder subdivides candidate intervals until its
polygon hugs the frontier to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .numerics import _frozen, eig_h, pencil_eigvals
from .states import DensityMatrix

MAX_ORACLE_DIM = 4096
ZERO_EIG_TOL = 1e-11
CURVE_REFINE_TOL = 1e-9
MAX_CURVE_POINTS = 20_000


@dataclass(frozen=True)
class ErrorCurve:
    """Breakpoints of the optimal error trade-off, convex lower envelope.

    ``alphas`` is strictly increasing from 0, ``betas`` strictly decreasing to
    its final value (0 whenever perfect type-II discrimination is reachable);
    randomized tests interpolate linearly between breakpoints. Every
    breakpoint is exactly achievable; interpolation can overestimate the true
    optimum by at most the builder's refinement tolerance (zero for commuting
    pairs, where the frontier is this polygon).
    """

    alphas: np.ndarray
    betas: np.ndarray

    def beta_at(self, eps: float) -> float:
        if eps < 0.0:
            raise DomainError(f"type-I level must be nonnegative, got {eps}")
        if eps >= self.alphas[-1]:
            return float(self.betas[-1])
        return float(np.interp(eps, self.alphas, self.betas))


class _TestFamily:
    """Strict/inclusive Neyman-Pearson tests along u = t / (1 + t)."""

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix):
        if rho.dim != sigma.dim:
            raise DomainError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        if rho.dim > MAX_ORACLE_DIM:
            raise ResourceError(f"oracle refuses dimension {rho.dim} > {MAX_ORACLE_DIM}")
        self.rho = rho.matrix
        self.sigma = sigma.matrix
        self._sigma_dm = sigma

    def points_at(self, u: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Error pairs (strict, inclusive) of the threshold test at u."""
        w, vecs = eig_h((1.0 - u) * self.rho - u * self.sigma)
        diag_rho = np.einsum("ij,jk,ki->i", vecs.conj().T, self.rho, vecs).real
        diag_sig = np.einsum("ij,jk,ki->i", vecs.conj().T, self.sigma, vecs).real
        tol = ZERO_EIG_TOL * max(u, 1.0 - u)
        out = []
        for mask in (w > tol, w > -tol):
            alpha = min(max(float(1.0 - diag_rho[mask].sum()), 0.0), 1.0)
            beta = min(max(float(diag_sig[mask].sum()), 0.0), 1.0)
            out.append((alpha, beta))
        return out[0], out[1]

    def candidate_u(self) -> list[float]:
        mu = np.maximum(self._sigma_dm.eigenvalues, 1e-14)
        w = pencil_eigvals(self.rho, mu, self._sigma_dm.eigenvectors)
        cands = np.unique(np.concatenate(([0.0], np.maximum(w, 0.0))))
        keep = [float(cands[0])]
        for t in cands[1:]:
            if t - keep[-1] > 1e-12 * max(1.0, t):
                keep.append(float(t))
        return [t / (1.0 + t) for t in keep] + [1.0]


def optimal_type2(rho: DensityMatrix, sigma: DensityMatrix, eps: float) -> float:
    """Minimal type-II error at type-I level eps, randomized tests allowed.

    Bisection over the monotone threshold family to machine precision. The
    strict test at the feasible side of the bracket is always achievable;
    when the type-I error jumps over the level at a generalized eigenvalue,
    randomizing the zero eigenspace closes the gap and that mixture's type-II
    error enters the minimum as well.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"type-I level must lie in (0, 1), got {eps}")
    family = _TestFamily(rho, sigma)
    lo, hi = 0.0, 1.0
    best = family.points_at(lo)[0][1]  # strict test at t = 0 is always feasible
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        (a_s, b_s), (a_i, b_i) = family.points_at(mid)
        if a_s <= eps:
            best = min(best, b_s)
            lo = mid
        else:
            if a_i <= eps < a_s:
                frac = (a_s - eps) / (a_s - a_i)
                best = min(best, b_s + frac * (b_i - b_s))
            hi = mid
        if hi - lo <= 1e-16:
            break
    return best


def optimal_type2_hoeffding(rho_n: DensityMatrix, sigma_n: DensityMatrix, r: float, n: int) -> float:
    """Minimal type-II error under the exponential constraint eps = exp(-n r)."""
    if r <= 0:
        raise DomainError(f"rate must be positive, got {r}")
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    return optimal_type2(rho_n, sigma_n, math.exp(-n * r))


def d_h(rho: DensityMatrix, sigma: DensityMatrix, eps: float) -> float:
    """Hypothesis-testing relative entropy -log of the optimal type-II error."""
    beta = optimal_type2(rho, sigma, eps)
    if beta <= 0.0:
        return math.inf
    return -math.log(beta)


def _lower_hull(points: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    pts = sorted(set(points))
    dedup: list[tuple[float, float]] = []
    for a, b in pts:
        if dedup and abs(a - dedup[-1][0]) <= 1e-15:
            continue
        dedup.append((a, b))
    hull: list[tuple[float, float]] = []
    for p in dedup:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            # keep left turns only: the achievable region lies above its
            # lower boundary, so popping non-left turns yields the envelope
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    out: list[tuple[float, float]] = []
    for a, b in hull:
        if out and b >= out[-1][1]:
            continue
        out.append((a, b))
        if b <= 0.0:
            break
    alphas = np.array([a for a, _ in out])
    betas = np.maximum(np.array([b for _, b in out]), 0.0)
    return alphas, betas


def error_curve(
    rho: DensityMatrix, sigma: DensityMatrix, refine_tol: float = CURVE_REFINE_TOL
) -> ErrorCurve:
    """Achievable (type-I, type-II) frontier as a convex breakpoint polygon.

    Strict and inclusive threshold tests are evaluated at every generalized
    eigenvalue of the pencil, then candidate intervals are subdivided until
    each chord is within ``refine_tol`` of the frontier (no subdivision
    triggers for commuting pairs). The point budget caps pathological
    curvature; ``optimal_type2`` stays exact regardless.
    """
    family = _TestFamily(rho, sigma)
    u_nodes = family.candidate_u()
    points: list[tuple[float, float]] = [(0.0, 1.0), (1.0, 0.0)]
    strict_at: dict[float, tuple[float, float]] = {}
    for u in u_nodes:
        strict, incl = family.points_at(u)
        strict_at[u] = strict
        points.extend((strict, incl))
    stack = [
        (u_nodes[i], strict_at[u_nodes[i]], u_nodes[i + 1], strict_at[u_nodes[i + 1]])
        for i in range(len(u_nodes) - 1)
    ]
    while stack and len(points) < MAX_CURVE_POINTS:
        u_lo, p_lo, u_hi, p_hi = stack.pop()
        if u_hi - u_lo < 1e-12:
            continue
        if p_hi[0] - p_lo[0] <= 1e-12 and p_lo[1] - p_hi[1] <= 1e-12:
            continue
        u_mid = 0.5 * (u_lo + u_hi)
        p_mid, _ = family.points_at(u_mid)
        points.append(p_mid)
        da = p_hi[0] - p_lo[0]
        if da > 1e-15:
            frac = (p_mid[0] - p_lo[0]) / da
            if -1e-12 < frac < 1.0 + 1e-12:
                chord = p_lo[1] + min(max(frac, 0.0), 1.0) * (p_hi[1] - p_lo[1])
                if chord - p_mid[1] <= refine_tol:
                    continue
        elif math.dist(p_mid, p_lo) <= refine_tol and math.dist(p_mid, p_hi) <= refine_tol:
            continue
        stack.append((u_lo, p_lo, u_mid, p_mid))
        stack.append((u_mid, p_mid, u_hi, p_hi))
    alphas, betas = _lower_hull(points)
    return ErrorCurve(_frozen(alphas), _frozen(betas))
