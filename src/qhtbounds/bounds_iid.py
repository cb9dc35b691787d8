"""Finite-blocklength bounds on the optimal type-II error for product states.

Every bound here is an upper bound on log beta_n (in nats) built from
per-copy constants: the summed relative entropy, the sup-norm of the centered
log-likelihood observable (Azuma route) or its Kearns-Saul constant (sharper
route). The module also evaluates the Renyi-based comparison envelope, the
Gaussian second-order coefficients and the crossover thresholds between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .concentration import kearns_saul_constant
from .divergences import rel_entropy, renyi, info_variance
from .errors import DomainError
from .modular import sup_norm_c
from .states import DensityMatrix

Pair = tuple[DensityMatrix, DensityMatrix]


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated bound on log beta_n, with its ingredients."""

    method: str
    n: int
    value: float
    eps: float | None = None
    rate: float | None = None
    constants: dict = field(default_factory=dict)


def _validate_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"type-I level must lie in (0, 1], got {eps}")


def _total_rel_entropy(pairs: Sequence[Pair], regularization: float | None) -> float:
    return float(sum(rel_entropy(r, s, regularization) for r, s in pairs))


def azuma_stein_bound(pairs: Sequence[Pair], eps: float, regularization: float | None = None) -> BoundReport:
    """log beta_n(eps) <= -sum_k D_k + sqrt(2 log(1/eps) sum_k d_k^2)."""
    _validate_eps(eps)
    if not pairs:
        raise DomainError("need at least one pair of states")
    d_list = [sup_norm_c(r, s, regularization) for r, s in pairs]
    d_sq = float(np.dot(d_list, d_list))
    total_d = _total_rel_entropy(pairs, regularization)
    value = -total_d + math.sqrt(2.0 * d_sq * math.log(1.0 / eps))
    return BoundReport(
        "azuma-stein", len(pairs), value, eps=eps,
        constants={"rel_entropy_total": total_d, "d_list": tuple(d_list)},
    )


def azuma_hoeffding_bound(pairs: Sequence[Pair], rate: float, regularization: float | None = None) -> BoundReport:
    """log beta_n under the exponential type-I constraint eps = exp(-n r).

    Evaluated by substitution into the Stein-type bound so the two calls agree
    bitwise at matching parameters.
    """
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    rep = azuma_stein_bound(pairs, math.exp(-len(pairs) * rate), regularization)
    return BoundReport("azuma-hoeffding", rep.n, rep.value, eps=rep.eps, rate=rate, constants=rep.constants)


def ks_constant_for_pair(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """Kearns-Saul constant of the log-likelihood variable of one pair.

    The variable ranges between the extreme log eigenvalue ratios; both states
    maximally mixed (a zero-width interval) yield a zero constant.
    """
    from .divergences import _prepare

    rho, sigma = _prepare(rho, sigma, regularization)
    if not rho.is_faithful() or not sigma.is_faithful():
        raise DomainError("Kearns-Saul constants need faithful states; regularize first")
    a = math.log(sigma.eigenvalues[-1] / rho.eigenvalues[0])
    b = math.log(sigma.eigenvalues[0] / rho.eigenvalues[-1])
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= 1e-14 * max(1.0, abs(hi)):
        return 0.0
    mean = -rel_entropy(rho, sigma)
    p = min(max((mean - lo) / (hi - lo), 0.0), 1.0)
    return kearns_saul_constant(lo, hi, p)


def ks_stein_bound(pairs: Sequence[Pair], eps: float, regularization: float | None = None) -> BoundReport:
    """log beta_n(eps) <= -sum_k D_k + sqrt(4 log(1/eps) sum_k c_k)."""
    _validate_eps(eps)
    if not pairs:
        raise DomainError("need at least one pair of states")
    c_list = [ks_constant_for_pair(r, s, regularization) for r, s in pairs]
    c_sum = float(sum(c_list))
    total_d = _total_rel_entropy(pairs, regularization)
    value = -total_d + math.sqrt(4.0 * math.log(1.0 / eps) * c_sum)
    return BoundReport(
        "ks-stein", len(pairs), value, eps=eps,
        constants={"rel_entropy_total": total_d, "c_list": tuple(c_list)},
    )


def ks_hoeffding_bound(pairs: Sequence[Pair], rate: float, regularization: float | None = None) -> BoundReport:
    """Kearns-Saul bound with eps = exp(-n r), bitwise consistent with ks_stein_bound."""
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    rep = ks_stein_bound(pairs, math.exp(-len(pairs) * rate), regularization)
    return BoundReport("ks-hoeffding", rep.n, rep.value, eps=rep.eps, rate=rate, constants=rep.constants)


def amv_eta(rho: DensityMatrix, sigma: DensityMatrix, regularization: float | None = None) -> float:
    """eta = 1 + exp(D_{3/2}/2) + exp(-D_{1/2}/2) from the two Renyi divergences."""
    d32 = renyi(1.5, rho, sigma, regularization)
    d12 = renyi(0.5, rho, sigma, regularization)
    return 1.0 + math.exp(0.5 * d32) + math.exp(-0.5 * d12)


def amv_bounds(rho: DensityMatrix, sigma: DensityMatrix, eps: float,
               regularization: float | None = None) -> tuple[float, float, float]:
    """Renyi-based comparison envelope (f(eps), g(eps), eta).

    -f lower-bounds and g upper-bounds the normalized deviation of
    log beta_n from -n D; both scale with 4 sqrt(2) log eta.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    eta = amv_eta(rho, sigma, regularization)
    scale = 4.0 * math.sqrt(2.0) * math.log(eta)
    f = scale * math.log(1.0 / (1.0 - eps))
    g = scale * math.log(1.0 / eps)
    return f, g, eta


def phi_inv(p: float) -> float:
    """Standard normal quantile via a rational approximation plus one Halley step."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # one Halley refinement against the exact normal cdf
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def second_order_s1(rho: DensityMatrix, sigma: DensityMatrix, eps: float,
                    regularization: float | None = None) -> float:
    """Gaussian second-order coefficient -Phi^{-1}(eps) sqrt(V)."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return -phi_inv(eps) * math.sqrt(info_variance(rho, sigma, regularization))


def second_order_s2(rho: DensityMatrix, sigma: DensityMatrix, eps: float,
                    regularization: float | None = None) -> float:
    """Concentration-route coefficient sqrt(2 log(1/eps) V), always >= s1."""
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    return math.sqrt(2.0 * math.log(1.0 / eps) * info_variance(rho, sigma, regularization))


def crossover_eps(rho: DensityMatrix, sigma: DensityMatrix,
                  regularization: float | None = None) -> tuple[float, float]:
    """Thresholds (eps0, eps0_tilde) below which h, resp. h_tilde, beats g.

    Obtained by equating the curves: h = sqrt(2 L) d meets g = 4 sqrt(2)
    log(eta) L at L = d^2 / (16 log^2 eta), and h_tilde = sqrt(4 c L) meets g
    at L = c / (8 log^2 eta), with L = log(1/eps). For identical states the
    formulas still evaluate (the operator norm equals the log spectral spread
    and eta = 3), but with a vanishing relative entropy the thresholds carry
    no bound-comparison meaning and are reported as formal values only.
    """
    eta = amv_eta(rho, sigma, regularization)
    log_eta_sq = math.log(eta) ** 2
    d = sup_norm_c(rho, sigma, regularization)
    c = ks_constant_for_pair(rho, sigma, regularization)
    eps0 = math.exp(-(d**2) / (16.0 * log_eta_sq))
    eps0_tilde = math.exp(-c / (8.0 * log_eta_sq))
    return eps0, eps0_tilde


def q_curve(rho: DensityMatrix, sigma: DensityMatrix, n: int, eps_grid: Sequence[float],
            regularization: float | None = None) -> list[dict[str, float]]:
    """Per-epsilon table of the six comparison curves on the sqrt(n) scale.

    Columns: eps, neg_f (lower envelope), g, h, h_tilde, s1, s2. All curves
    bound Q(n, eps) = (log beta_n + n D)/sqrt(n) and are functions of eps
    alone; n is echoed for context only. At eps = 1, f is reported as +inf
    (so neg_f as -inf) and the remaining curves vanish.
    """
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    eta = amv_eta(rho, sigma, regularization)
    scale = 4.0 * math.sqrt(2.0) * math.log(eta)
    d = sup_norm_c(rho, sigma, regularization)
    c = ks_constant_for_pair(rho, sigma, regularization)
    v = info_variance(rho, sigma, regularization)
    rows = []
    for eps in eps_grid:
        if not 0.0 < eps <= 1.0:
            raise DomainError(f"grid eps must lie in (0, 1], got {eps}")
        big_l = math.log(1.0 / eps)
        f = math.inf if eps == 1.0 else scale * math.log(1.0 / (1.0 - eps))
        s1 = 0.0 if eps == 1.0 else -phi_inv(eps) * math.sqrt(v)
        rows.append({
            "eps": float(eps),
            "neg_f": -f,
            "g": scale * big_l,
            "h": math.sqrt(2.0 * big_l) * d,
            "h_tilde": math.sqrt(4.0 * c * big_l),
            "s1": s1,
            "s2": math.sqrt(2.0 * big_l * v),
        })
    return rows
