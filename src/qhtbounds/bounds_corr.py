"""Bounds for correlated state families with a factorization constant R.

The Stein/Hoeffding evaluators take per-copy constants (relative entropy D1,
sup-norm c, variance V1) plus the certified constant R >= 1 and return bounds
on log beta_n. The moderate-deviation evaluators cover the sub-exponential
schedule eps_n = exp(-n a_n^2); their upper "forms" drop an o(a_n) remainder
and are tabulation aids, not certified inequalities.
"""

from __future__ import annotations

import math
from typing import Sequence

from .concentration import bennett_h
from .errors import AdmissibilityError, DomainError

LOG4 = math.log(4.0)


def _check_r(r_const: float) -> None:
    if r_const < 1.0:
        raise DomainError(f"factorization constant must satisfy R >= 1, got {r_const}")


def factorized_stein_bound(d1: float, c: float, r_const: float, n: int, eps: float) -> float:
    """log beta_n(eps) bound for a homogeneous upper-factorized pair.

    Two branches meet continuously at eps = R^n exp(-n c^2 / 2); below it the
    Chernoff optimizer saturates and the bound becomes linear in log(1/eps).
    """
    if c < 0:
        raise DomainError(f"sup-norm constant must be nonnegative, got {c}")
    return nonhomog_stein_bound([(d1, c)] * n, r_const, n, eps)


def factorized_hoeffding_bound(d1: float, c: float, r_const: float, n: int, rate: float) -> float:
    """log beta bound under the exponential constraint eps = exp(-n r)."""
    if c < 0:
        raise DomainError(f"sup-norm constant must be nonnegative, got {c}")
    return nonhomog_hoeffding_bound([(d1, c)] * n, r_const, n, rate)


def nonhomog_stein_bound(steps: Sequence[tuple[float, float]], r_const: float, n: int, eps: float) -> float:
    """Non-homogeneous variant: steps is a list of per-copy (D_k, c_k)."""
    _check_r(r_const)
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if n < 1 or len(steps) < n:
        raise DomainError(f"need per-step constants for all {n} steps, got {len(steps)}")
    d_total = sum(d for d, _ in steps[:n])
    c_sq = sum(c**2 for _, c in steps[:n])
    big_c = math.sqrt(c_sq)
    log_ratio = n * math.log(r_const) + math.log(1.0 / eps)
    if log_ratio <= c_sq / 2.0:
        return -d_total + big_c * math.sqrt(2.0 * log_ratio)
    return -d_total + c_sq / 2.0 + log_ratio


def nonhomog_hoeffding_bound(steps: Sequence[tuple[float, float]], r_const: float, n: int, rate: float) -> float:
    """Non-homogeneous Hoeffding-constraint variant."""
    _check_r(r_const)
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    if n < 1 or len(steps) < n:
        raise DomainError(f"need per-step constants for all {n} steps, got {len(steps)}")
    d_total = sum(d for d, _ in steps[:n])
    c_sq = sum(c**2 for _, c in steps[:n])
    big_c = math.sqrt(c_sq)
    log_r = math.log(r_const)
    if rate <= c_sq / (2.0 * n) - log_r:
        return -d_total + big_c * math.sqrt(2.0 * n * (rate + log_r))
    return -d_total + c_sq / 2.0 + n * rate + n * log_r


def bennett_gap_limit(n: int, v1: float, c: float) -> float:
    """Largest admissible gap (e^c - 1) n V1 / c in the Bennett chain."""
    if c <= 0 or v1 <= 0:
        return 0.0
    return (math.exp(c) - 1.0) * n * v1 / c


def bennett_alpha_bound(n: int, v1: float, c: float, r_const: float, gap: float) -> float:
    """Type-I tail bound R^n exp(-n V1 h(c gap / (n V1)) / c^2).

    ``gap`` is n D1 minus the log test threshold and must lie in the window
    [0, (e^c - 1) n V1 / c] where the Chernoff optimizer stays within reach.
    """
    _check_r(r_const)
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    if v1 < 0 or c < 0:
        raise DomainError("variance and sup-norm constants must be nonnegative")
    if gap < 0:
        raise DomainError(f"gap must be nonnegative, got {gap}")
    if gap == 0.0:
        return r_const**n
    if gap > bennett_gap_limit(n, v1, c) * (1.0 + 1e-12):
        raise DomainError(
            f"gap {gap:.6g} outside the admissible window [0, {bennett_gap_limit(n, v1, c):.6g}]"
        )
    u = c * gap / (n * v1)
    return r_const**n * math.exp(-n * v1 * bennett_h(u) / c**2)


def moderate_admissible_log_r(v1: float, c: float) -> float:
    """Upper limit (4 - e^c)(e^c - 1)^2 V1 / (6 c^2) on log R, for c < log 4."""
    if c >= LOG4:
        return 0.0
    if c == 0.0:
        # limit of the window as c -> 0 with V1 fixed
        return v1 / 2.0
    return (4.0 - math.exp(c)) * (math.exp(c) - 1.0) ** 2 * v1 / (6.0 * c**2)


def _check_moderate_admissible(c: float, log_r: float, v1: float) -> None:
    if c >= LOG4:
        raise AdmissibilityError(f"sup-norm constant c = {c:.6g} must be below log 4 = {LOG4:.6g}")
    window = moderate_admissible_log_r(v1, c)
    if not 0.0 <= log_r < window:
        raise AdmissibilityError(
            f"log R = {log_r:.6g} outside the admissible window [0, {window:.6g})"
        )


def moderate_lower(d1: float, v1: float, c: float, r_const: float, a_n: float, n: int) -> float:
    """Lower bound on the eps_n-hypothesis-testing entropy at eps_n = exp(-n a_n^2).

    Value n [D1 - sqrt(2 V1) (3 (log R + a_n^2)/(4 - e^c))^(1/2)], valid in
    the admissibility window c < log 4, 0 <= log R < (4-e^c)(e^c-1)^2 V1/(6c^2).
    """
    return moderate_nonhomog([(d1, v1)] * n, c, r_const, a_n, n)[0]


def moderate_upper_form(d1: float, v1: float, a_n: float, n: int) -> float:
    """Leading-order upper form n [D1 - sqrt(2 V1) a_n]; o(a_n) remainder omitted."""
    if a_n < 0:
        raise DomainError(f"moderate sequence value must be nonnegative, got {a_n}")
    if v1 < 0:
        raise DomainError(f"variance must be nonnegative, got {v1}")
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    return n * (d1 - math.sqrt(2.0 * v1) * a_n)


def moderate_nonhomog(
    steps: Sequence[tuple[float, float]],
    c_sup: float,
    r_const: float,
    a_n: float,
    n: int,
) -> tuple[float, float]:
    """Non-homogeneous moderate-deviation pair (lower bound, upper form).

    ``steps`` lists per-copy (D_k, V_k); the admissibility window uses the
    per-copy average variance and the supremum constant c_sup.
    """
    _check_r(r_const)
    if a_n < 0:
        raise DomainError(f"moderate sequence value must be nonnegative, got {a_n}")
    if n < 1 or len(steps) < n:
        raise DomainError(f"need per-step constants for all {n} steps, got {len(steps)}")
    d_total = sum(d for d, _ in steps[:n])
    v_total = sum(v for _, v in steps[:n])
    log_r = math.log(r_const)
    _check_moderate_admissible(c_sup, log_r, v_total / n)
    radicand = 3.0 * (log_r + a_n**2) / (4.0 - math.exp(c_sup))
    lower = d_total - math.sqrt(2.0 * n * v_total) * math.sqrt(radicand)
    upper_form = d_total - math.sqrt(2.0 * n * v_total) * a_n
    return lower, upper_form
