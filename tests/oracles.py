"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the defining
formulas (classical probability, brute-force enumeration, support functions,
series), never by calling the code under test.
"""

from __future__ import annotations

import math

import numpy as np


def classical_kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def classical_llr_atoms(p, q):
    """Atoms (log(q_i/p_i), p_i) of the log-likelihood ratio under p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    locs = np.array([math.log(qi / pi) for pi, qi in zip(p, q) if pi > 0])
    wts = np.array([pi for pi in p if pi > 0])
    order = np.argsort(locs)
    return locs[order], wts[order]


def classical_llr_variance(p, q) -> float:
    locs, wts = classical_llr_atoms(p, q)
    mean = float(locs @ wts)
    return float((locs - mean) ** 2 @ wts)


def classical_tail(p, q, threshold: float) -> float:
    locs, wts = classical_llr_atoms(p, q)
    return float(wts[locs >= threshold].sum())


def classical_np_points(p, q):
    """Extreme points of the classical Neyman-Pearson frontier.

    Acceptance regions are upper level sets of the likelihood ratio p/q;
    outcomes with equal ratio enter together.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ratios = np.where(q > 0, p / np.where(q > 0, q, 1.0), math.inf)
    order = np.argsort(-ratios, kind="stable")
    pts = [(1.0, 0.0)]
    alpha, beta = 1.0, 0.0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and math.isclose(
            ratios[order[j]], ratios[order[i]], rel_tol=1e-12, abs_tol=0.0
        ):
            alpha -= p[order[j]]
            beta += q[order[j]]
            j += 1
        pts.append((alpha, beta))
        i = j
    return sorted(pts)


def classical_beta(p, q, eps: float) -> float:
    pts = classical_np_points(p, q)
    alphas = np.array([a for a, _ in pts])
    betas = np.array([b for _, b in pts])
    keep = np.concatenate(([True], np.diff(alphas) > 0))
    alphas, betas = alphas[keep], betas[keep]
    if eps >= alphas[-1]:
        return float(betas[-1])
    return float(np.interp(eps, alphas, betas))


def classical_renyi(alpha: float, p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = float(np.sum(p**alpha * q ** (1.0 - alpha)))
    return math.log(s) / (alpha - 1.0)


def classical_hoeffding(r: float, p, q) -> float:
    """-inf over t in [0, 1) of (t r + log sum p^t q^(1-t)) / (1 - t)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def f(t):
        s = float(np.sum(p**t * q ** (1.0 - t)))
        return (t * r + math.log(s)) / (1.0 - t)

    grid = np.linspace(0.0, 1.0 - 1e-6, 2048)
    vals = [f(t) for t in grid]
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return -min(f(lo), f((lo + hi) / 2.0), f(hi))


def dual_beta_star(rho_mat: np.ndarray, sigma_mat: np.ndarray, eps: float) -> float:
    """Optimal type-II error via the support-function dual.

    For every threshold t the line alpha + t beta = v(t) with
    v(t) = 1 - Tr (rho - t sigma)_+ supports the achievable region, so
    beta*(eps) = max(0, sup_t (v(t) - eps) / t); the sup is located on a
    coarse grid and polished by ternary search.
    """

    def v(t):
        w = np.linalg.eigvalsh((rho_mat - t * sigma_mat + (rho_mat - t * sigma_mat).conj().T) / 2)
        return 1.0 - float(w[w > 0].sum())

    def g(t):
        return (v(t) - eps) / t

    w_s = np.linalg.eigvalsh((sigma_mat + sigma_mat.conj().T) / 2)
    inv = np.linalg.inv(sigma_mat + 1e-13 * np.eye(sigma_mat.shape[0]))
    t_hi = max(2.0, 2.0 * float(np.abs(np.linalg.eigvals(inv @ rho_mat)).max()))
    grid = np.linspace(1e-9, t_hi, 40000)
    vals = np.array([g(t) for t in grid])
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    return max(0.0, g((lo + hi) / 2.0))


def erf_series(x: float, terms: int = 60) -> float:
    """Maclaurin series of erf, accurate in double precision for |x| <= 3."""
    total = 0.0
    term = x
    for k in range(terms):
        total += term / (2 * k + 1)
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def phi_series(x: float) -> float:
    """Standard normal cdf from the erf series."""
    return 0.5 + 0.5 * erf_series(x / math.sqrt(2.0))


def binom_upper_tail(n: int, k: int, p: float = 0.5) -> float:
    """Exact P(Binomial(n, p) >= k)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def bennett_bound(n: int, variance: float, bound: float, deviation: float) -> float:
    """Classical Bennett tail bound for an i.i.d. sum of centered variables."""
    u = bound * deviation / (n * variance)
    h = (1.0 + u) * math.log1p(u) - u
    return math.exp(-n * variance * h / bound**2)


def ising_chain_probs(beta: float, n: int) -> np.ndarray:
    """Open-chain Gibbs weights exp(-beta sum s_i s_{i+1}) normalized, spins +-1."""
    probs = np.zeros(2**n)
    for idx in range(2**n):
        spins = [1 - 2 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]
        energy = sum(spins[i] * spins[i + 1] for i in range(n - 1))
        probs[idx] = math.exp(-beta * energy)
    return probs / probs.sum()


def markov_path_probs(transition: np.ndarray, initial: np.ndarray, n: int) -> np.ndarray:
    """Path probabilities of a stationary finite Markov chain, lexicographic order."""
    m = transition.shape[0]
    probs = np.zeros(m**n)
    for idx in range(m**n):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % m)
            rest //= m
        digits = digits[::-1]
        w = initial[digits[0]]
        for a, b in zip(digits, digits[1:]):
            w *= transition[a, b]
        probs[idx] = w
    return probs


def minimal_r_by_bisection(top: np.ndarray, bottom: np.ndarray, hi: float = 1e6) -> float:
    """Least r with r * bottom - top positive semidefinite, by bisection."""

    def ok(r):
        m = r * bottom - top
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        return w[0] >= -1e-14

    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def kraus_step_by_kron(kraus, tau: np.ndarray, left_dim: int) -> np.ndarray:
    """Kernel step sum_k (I_left (x) K) tau (I_left (x) K)^dag by explicit lifting."""
    eye = np.eye(left_dim, dtype=complex)
    out = 0
    for k in kraus:
        lifted = np.kron(eye, k)
        out = out + lifted @ tau @ lifted.conj().T
    return out
