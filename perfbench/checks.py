"""Output checks for the benchmark jobs and the reference values they need.

Every ``check_*`` function takes a job's output (the CLI's stdout text, or the
library's return value) plus reference data, and returns a list of failure
messages; an empty list means the output passed. Tolerances follow
``tests/test_acceptance.py`` and are never looser. The reference helpers here
(classical Neyman-Pearson oracle, relative entropy, kernel-chain constants)
are written from the defining formulas with plain numpy and never call the
library under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

# ``error_curve`` breakpoints checked against ``optimal_type2`` per curve: a
# stride sample, since one exact solve per breakpoint of a dim-8 curve
# (thousands of breakpoints) would take minutes.
CURVE_CHECK_POINTS = 64


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def csv_rows(block: str) -> list[dict]:
    lines = block.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


# ---------------------------------------------------------------- references


def classical_beta(p, q, eps: float) -> float:
    """Least type-II error at type-I level eps for distributions p, q (q > 0).

    The optimal test accepts outcomes in decreasing order of p/q until the
    accepted p-mass reaches 1 - eps, splitting the last outcome.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    need = 1.0 - eps
    beta = 0.0
    for i in np.argsort(-(p / q), kind="stable"):
        if need <= 0.0:
            break
        if p[i] >= need:
            return beta + need * q[i] / p[i]
        need -= p[i]
        beta += q[i]
    return beta


def product_distribution(p, n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = np.outer(out, p).reshape(-1)
    return out


def binary_entropy(x: float) -> float:
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def rel_entropy(rho, sigma) -> float:
    """Tr rho (log rho - log sigma) for a faithful sigma, 0 log 0 = 0."""
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    mu, v = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    pos = lam > 1e-15
    ent = float(lam[pos] @ np.log(lam[pos]))
    cross = float(np.real(np.trace(rho @ (v * np.log(mu)) @ v.conj().T)))
    return ent - cross


def classical_kl(p, q) -> float:
    return float(sum(a * math.log(a / b) for a, b in zip(p, q) if a > 0))


def classical_sup_norm(p, q) -> float:
    """max |log(q_j / p_i) + D(p||q)| over all index pairs."""
    d = classical_kl(p, q)
    return max(abs(math.log(b / a) + d) for a in p for b in q)


def _top_pencil(top: np.ndarray, bottom: np.ndarray) -> float:
    # largest eigenvalue of L^-1 top L^-H with bottom = L L^H
    chol = np.linalg.cholesky(bottom)
    x = np.linalg.solve(chol, top)
    y = np.linalg.solve(chol, x.conj().T)
    return float(np.linalg.eigvalsh((y + y.conj().T) / 2.0)[-1])


def kernel_chain_constants(spec: dict, n: int) -> tuple[float, float]:
    """(R_upper, R_lower) of a commutative memory-kernel family up to step n.

    Propagates the sub-normalized site states conditioned on the last
    auxiliary letter, tau_k[y] = sum_x T[x, y] tau_{k-1}[x] (x) psi[x][y],
    and takes the top generalized eigenvalues of (rho_k, rho_{k-1} (x) m)
    and (rho_k-1 (x) m, rho_k) through Cholesky factors.
    """
    t = np.asarray(spec["T"], dtype=float)
    p = np.asarray(spec["p"], dtype=float)
    psi = [
        [np.array([complex(a, b) for a, b in s["entries"]]).reshape(s["dim"], s["dim"]) for s in row]
        for row in spec["states"]
    ]
    m = len(p)
    tau = [sum(p[x] * t[x, y] * psi[x][y] for x in range(m)) for y in range(m)]
    marg = sum(tau)
    r_up = r_low = 1.0
    for _ in range(2, n + 1):
        prev = sum(tau)
        tau = [sum(t[x, y] * np.kron(tau[x], psi[x][y]) for x in range(m)) for y in range(m)]
        rho = sum(tau)
        prod = np.kron(prev, marg)
        r_up = max(r_up, _top_pencil(rho, prod))
        r_low = max(r_low, _top_pencil(prod, rho))
    return r_up, r_low


def gibbs_zz_constants(beta: float) -> tuple[float, float]:
    """Closed-form (R_upper, R_lower) of the open ZZ Gibbs chain."""
    return math.exp(beta) / math.cosh(beta), math.exp(beta) * math.cosh(beta)


def stein_bound(d1: float, c1: float, r_const: float, n: int, eps: float) -> float:
    """Factorized Stein bound on log beta_n with n identical steps (D1, c1)."""
    c_sq = n * c1 * c1
    log_ratio = n * math.log(r_const) + math.log(1.0 / eps)
    if log_ratio <= c_sq / 2.0:
        return -n * d1 + math.sqrt(c_sq) * math.sqrt(2.0 * log_ratio)
    return -n * d1 + c_sq / 2.0 + log_ratio


def hoeffding_bound(d1: float, c1: float, r_const: float, n: int, rate: float) -> float:
    """Factorized Hoeffding-constraint bound with n identical steps (D1, c1)."""
    c_sq = n * c1 * c1
    log_r = math.log(r_const)
    if rate <= c_sq / (2.0 * n) - log_r:
        return -n * d1 + math.sqrt(c_sq) * math.sqrt(2.0 * n * (rate + log_r))
    return -n * d1 + c_sq / 2.0 + n * rate + n * log_r


# -------------------------------------------------------------------- iid


def check_np_exact(out: str, ref: dict) -> list[str]:
    """np-exact: echo, 0 < beta <= 1, d_h = -log beta, below the Stein bounds
    (``ref["stein"]``) or equal to the classical optimum (``ref["classical"]``)."""
    obj = json.loads(out)
    fails = []
    if obj["n"] != ref["n"] or obj["eps"] != ref["eps"]:
        fails.append(f"echo n={obj['n']} eps={obj['eps']} != {ref['n']}, {ref['eps']}")
    beta = obj["beta"]
    if not 0.0 < beta <= 1.0:
        return fails + [f"beta = {beta!r} outside (0, 1]"]
    fails += _close("d_h", obj["d_h"], -math.log(beta), 1e-9 * max(1.0, abs(obj["d_h"])))
    if "stein" in ref:
        for method, bound in ref["stein"].items():
            if math.log(beta) > bound:
                fails.append(f"log beta = {math.log(beta):.12g} exceeds {method} bound {bound:.12g}")
    if "classical" in ref:
        fails += _close("beta", beta, ref["classical"], 1e-9)
    return fails


def check_error_curve(curve, ref: dict) -> list[str]:
    """Breakpoints ordered and never below optimal_type2 - 1e-12 (stride sample)."""
    alphas = np.asarray(curve.alphas)
    betas = np.asarray(curve.betas)
    fails = []
    if alphas[0] != 0.0 or not np.all(np.diff(alphas) > 0) or not np.all(np.diff(betas) < 0):
        fails.append("breakpoints are not strictly monotone from alpha = 0")
    inner = np.flatnonzero((alphas > 0.0) & (alphas < 1.0))
    step = max(1, -(-inner.size // CURVE_CHECK_POINTS))
    for i in inner[::step]:
        exact = ref["optimal_type2"](float(alphas[i]))
        if betas[i] < exact - 1e-12:
            fails.append(f"breakpoint ({alphas[i]:.6g}, {betas[i]:.12g}) below optimum {exact:.12g}")
    return fails


def check_measure(meas, ref: dict) -> list[str]:
    """Mass 1, mean -kD, variance kV (1e-9) and E[e^X] = 1 (1e-10)."""
    loc = np.asarray(meas.locations)
    w = np.asarray(meas.weights)
    mean = float(loc @ w)
    var = float((loc - mean) ** 2 @ w)
    return (
        _close("mass", float(w.sum()), 1.0, 1e-9)
        + _close("mean", mean, -ref["k"] * ref["D"], 1e-9)
        + _close("variance", var, ref["k"] * ref["V"], 1e-9)
        + _close("E[e^X]", float(w @ np.exp(loc)), 1.0, 1e-10)
    )


def check_fig1(out: str, ref: dict) -> list[str]:
    """Table shape, echoed pair, and the curve orderings of acceptance criterion 2."""
    preamble, table = out.split("\n\n")
    head = {r["field"]: r for r in csv_rows(preamble)}
    rows = [{k: float(v) for k, v in r.items()} for r in csv_rows(table)]
    fails = []
    if len(rows) != ref["grid"]:
        fails.append(f"{len(rows)} rows, expected {ref['grid']}")
    if int(head["n"]["v1"]) != ref["n"]:
        fails.append(f"n = {head['n']['v1']}, expected {ref['n']}")
    if "bloch_a" in ref:
        for key, want in (("blochA", ref["bloch_a"]), ("blochB", ref["bloch_b"])):
            got = [float(head[key][c]) for c in ("v1", "v2", "v3")]
            if max(abs(a - b) for a, b in zip(got, want)) > 1e-9:
                fails.append(f"{key} = {got}, expected {want}")
    eps0_tilde = float(head["eps0_tilde"]["v1"])
    for r in rows:
        if r["h_tilde"] > r["h"] or r["s2"] < r["s1"]:
            fails.append(f"ordering h_tilde <= h, s2 >= s1 fails at eps = {r['eps']}")
            break
        if ref.get("crossover") and r["eps"] <= eps0_tilde and not r["h_tilde"] < r["g"]:
            fails.append(f"h_tilde >= g below eps0_tilde at eps = {r['eps']}")
            break
    return fails


# -------------------------------------------------------------- correlated


def check_fcs_certify(out: str, ref: dict) -> list[str]:
    """Certified constants equal the reference values to 1e-9."""
    obj = json.loads(out)
    fails = []
    if obj["n"] != ref["n"] or obj["kind"] != ref["kind"]:
        fails.append(f"echo kind={obj['kind']} n={obj['n']}")
    fails += _close("R_upper", obj["R_upper"], ref["R_upper"], 1e-9)
    fails += _close("R_lower", obj["R_lower"], ref["R_lower"], 1e-9)
    return fails


def check_moderate(out: str, ref: dict) -> list[str]:
    """Rows 1..n with a_n, eps_n echoed; exact log beta below the Stein bound."""
    rows = [{k: _num(v) for k, v in r.items()} for r in csv_rows(out)]
    fails = []
    if [int(r["n"]) for r in rows] != list(range(1, ref["n"] + 1)):
        return [f"rows {[r['n'] for r in rows]} do not cover 1..{ref['n']}"]
    for r in rows:
        k = int(r["n"])
        a_n = k ** (-1.0 / 3.0)
        eps_n = math.exp(-k * a_n * a_n)
        fails += _close(f"a_n[{k}]", r["a_n"], a_n, 1e-9)
        fails += _close(f"eps_n[{k}]", r["eps_n"], eps_n, 1e-9)
        bound = stein_bound(ref["D1"], ref["c1"], ref["R"], k, eps_n)
        if not (math.isfinite(r["dh_exact"]) and -r["dh_exact"] <= bound):
            fails.append(f"n={k}: exact log beta {-r['dh_exact']!r} above Stein bound {bound!r}")
    return fails


def check_bounds_factorized(out: str, ref: dict) -> list[str]:
    """R is the Gibbs closed form; Stein and Hoeffding values match the formulas."""
    rows = {r["method"]: r for r in csv_rows(out)}
    if set(rows) != {"stein", "hoeffding"}:
        return [f"methods {sorted(rows)}"]
    n, r_const = ref["n"], ref["R"]
    fails = []
    for method, row in rows.items():
        fails += _close(f"{method} R", float(row["R"]), r_const, 1e-9)
    want_s = stein_bound(ref["D1"], ref["c1"], r_const, n, ref["eps"])
    want_h = hoeffding_bound(ref["D1"], ref["c1"], r_const, n, ref["rate"])
    fails += _close("stein", float(rows["stein"]["log_beta_bound"]), want_s, 1e-9)
    fails += _close("hoeffding", float(rows["hoeffding"]["log_beta_bound"]), want_h, 1e-9)
    return fails


# ----------------------------------------------------------------- channel


def check_capacity(out: str, ref: dict) -> list[str]:
    """Duality gap <= 1e-8, chi against a closed form (1e-6) or recomputed
    from the reported prior with an independent relative entropy."""
    obj = json.loads(out)
    fails = []
    if not obj["duality_gap"] <= 1e-8:
        fails.append(f"duality gap {obj['duality_gap']!r} above 1e-8")
    chi = obj["chi_star"]
    if "closed_form" in ref:
        fails += _close("chi_star", chi, ref["closed_form"], 1e-6)
    if "outputs" in ref:
        prior = obj["prior"]
        fails += _close("prior mass", sum(prior.values()), 1.0, 1e-9)
        sigma = sum(prior[x] * w for x, w in ref["outputs"].items())
        divs = {x: rel_entropy(w, sigma) for x, w in ref["outputs"].items()}
        fails += _close("chi_star", chi, sum(prior[x] * d for x, d in divs.items()), 1e-9)
        if max(divs.values()) - chi > 1e-8:
            fails.append(f"recomputed gap {max(divs.values()) - chi:.3e} above 1e-8")
    return fails


def check_wr_bound(out: str, ref: dict) -> list[str]:
    """d_h(eps') = bound + log(4 eps/(eps - eps')) obeys the weak converse
    d_h(eps') <= (chi + h(eps')) / (1 - eps')."""
    obj = json.loads(out)
    eps, epsp = ref["eps"], ref["eps_prime"]
    fails = []
    if obj["eps"] != eps or obj["eps_prime"] != epsp:
        fails.append(f"echo eps={obj['eps']} eps_prime={obj['eps_prime']}")
    d_h = obj["wr_lower_bound"] + math.log(4.0 * eps / (eps - epsp))
    converse = (ref["chi"] + binary_entropy(epsp)) / (1.0 - epsp)
    if not (math.isfinite(d_h) and 0.0 <= d_h <= converse):
        fails.append(f"d_h = {d_h!r} outside [0, {converse!r}]")
    return fails


def check_channel_moderate(out: str, ref: dict) -> list[str]:
    """Echoed n, a_n, eps_n; the lower value is finite and at most n chi."""
    obj = json.loads(out)
    n = ref["n"]
    a_n = n ** (-1.0 / 3.0)
    fails = []
    if obj["n"] != n or obj["direction"] != "lower":
        fails.append(f"echo n={obj['n']} direction={obj['direction']}")
    fails += _close("a_n", obj["a_n"], a_n, 1e-9)
    fails += _close("eps_n", obj["eps_n"], math.exp(-n * a_n * a_n), 1e-9)
    if not (math.isfinite(obj["value"]) and obj["value"] <= n * ref["chi"]):
        fails.append(f"value {obj['value']!r} above n chi = {n * ref['chi']!r}")
    return fails
