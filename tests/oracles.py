"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the defining
formulas (classical probability, brute-force enumeration, support functions,
series), never by calling the code under test. The one exception is
``holevo_by_rel_entropy``, the per-letter Blahut-Arimoto loop kept as the
reference for the batched one; it calls ``rel_entropy`` and
``info_variance``, which have their own oracles. Likewise
``points_one_at_a_time`` is the one-threshold Neyman-Pearson evaluator kept
as the bitwise reference for the stacked one.
"""

from __future__ import annotations

import math

import numpy as np

from qhtbounds.cq_channel import CapacityReport
from qhtbounds.divergences import info_variance, rel_entropy
from qhtbounds.errors import ConvergenceError


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

    def v(ts):
        m = rho_mat[None] - np.atleast_1d(ts)[:, None, None] * sigma_mat[None]
        w = np.linalg.eigvalsh((m + m.conj().transpose(0, 2, 1)) / 2)
        return 1.0 - np.where(w > 0, w, 0.0).sum(axis=1)

    def g(t):
        return float(v(t)[0] - eps) / t

    inv = np.linalg.inv(sigma_mat + 1e-13 * np.eye(sigma_mat.shape[0]))
    t_hi = max(2.0, 2.0 * float(np.abs(np.linalg.eigvals(inv @ rho_mat)).max()))
    grid = np.linspace(1e-9, t_hi, 40000)
    vals = (v(grid) - eps) / grid  # the whole grid in one stacked eigvalsh
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


def type2_by_bisection(rho_mat: np.ndarray, sigma_mat: np.ndarray, eps: float) -> float:
    """Minimal type-II error by 90 bisection steps over the threshold u in [0, 1].

    The test at u projects onto the positive eigenspace of (1 - u) rho - u sigma
    (eigenvalues within 1e-11 count as zero); when the type-I error jumps over
    eps, randomizing the zero eigenspace closes the gap.
    """

    def points_at(u):
        a = (1.0 - u) * rho_mat - u * sigma_mat
        w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        diag_rho = np.einsum("ij,jk,ki->i", vecs.conj().T, rho_mat, vecs).real
        diag_sig = np.einsum("ij,jk,ki->i", vecs.conj().T, sigma_mat, vecs).real
        tol = 1e-11 * max(u, 1.0 - u)
        out = []
        for mask in (w > tol, w > -tol):
            alpha = min(max(float(1.0 - diag_rho[mask].sum()), 0.0), 1.0)
            beta = min(max(float(diag_sig[mask].sum()), 0.0), 1.0)
            out.append((alpha, beta))
        return out

    lo, hi = 0.0, 1.0
    best = points_at(lo)[0][1]
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        (a_s, b_s), (a_i, b_i) = points_at(mid)
        if a_s <= eps:
            best = min(best, b_s)
            lo = mid
        else:
            if a_i <= eps < a_s:
                best = min(best, b_s + (a_s - eps) / (a_s - a_i) * (b_i - b_s))
            hi = mid
        if hi - lo <= 1e-16:
            break
    return best


def pure_qubit_type2(psi, sigma_mat: np.ndarray, eps: float) -> float:
    """Minimal type-II error of a pure qubit rho = |psi><psi| against sigma, in closed form.

    Before the frontier's last facet the optimal test projects onto a unit
    vector phi with |<psi|phi>|^2 = 1 - eps. In the basis (psi, psi_perp),
    minimising <phi|sigma|phi> over the phase of phi's psi_perp component
    gives (1 - eps) s11 + eps s22 - 2 sqrt(eps (1 - eps)) |s12|. Valid for eps
    below the type-I error where that facet starts (small eps).
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    perp = np.array([-psi[1].conj(), psi[0].conj()])
    s11 = (psi.conj() @ sigma_mat @ psi).real
    s22 = (perp.conj() @ sigma_mat @ perp).real
    s12 = abs(psi.conj() @ sigma_mat @ perp)
    return float((1.0 - eps) * s11 + eps * s22 - 2.0 * math.sqrt(eps * (1.0 - eps)) * s12)


def holevo_by_rel_entropy(
    channel,
    *,
    tol_prior: float = 1e-10,
    tol_gap: float = 1e-8,
    max_iter: int = 100_000,
):
    """Holevo capacity by the per-letter loop: one ``rel_entropy`` per letter
    against the mean output, built as a full state every iteration."""
    letters = channel.alphabet
    p = np.full(len(letters), 1.0 / len(letters))
    gap = math.inf
    for it in range(1, max_iter + 1):
        prior = {x: float(p[i]) for i, x in enumerate(letters)}
        avg = channel.average(prior)
        divs = np.array([rel_entropy(channel.outputs[x], avg) for x in letters])
        chi = float(p @ divs)
        gap = float(divs.max() - chi)
        new_p = p * np.exp(divs - divs.max())
        new_p /= new_p.sum()
        move = float(np.abs(new_p - p).max())
        if gap <= tol_gap and move <= tol_prior:
            sigma_star = avg
            v = float(
                sum(prior[x] * info_variance(channel.outputs[x], sigma_star) for x in letters)
            )
            return CapacityReport(chi, prior, sigma_star, v, gap, it)
        p = new_p
    raise ConvergenceError(
        f"Holevo optimization did not converge in {max_iter} iterations; duality gap {gap:.3e}"
    )


def points_one_at_a_time(rho_mat, sigma_mat, roots, u: float, node: bool):
    """Strict and inclusive (alpha, beta) at threshold u, and the positive
    eigenvalue mass the strict test leaves out, from one ``eigh`` of
    (1 - u) rho - u sigma; ``roots`` stacks root factors F of rho and sigma
    (F^dag F = state), and each error sums its slice of squared norms."""
    w, vecs = np.linalg.eigh((1.0 - u) * rho_mat - u * sigma_mat)
    d = w.size
    fv = roots @ vecs
    diags = (fv.real**2 + fv.imag**2).reshape(2, d, d).sum(axis=1)
    tol = 1e-11 * max(u, 1.0 - u) if node else 0.0
    k_pos, k_strict, k_incl = np.searchsorted(w, (0.0, tol, -tol), side="right")
    out = [(min(float(diags[0, :k].sum()), 1.0), min(float(diags[1, k:].sum()), 1.0)) for k in (k_strict, k_incl)]
    left_out = float(w[k_pos:k_strict].sum())
    if not node:
        roundoff = d * np.finfo(float).eps * max(-w[0], w[-1])
        left_out += roundoff * np.count_nonzero(np.abs(w) < roundoff)
    return out[0], out[1], left_out
