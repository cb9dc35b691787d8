"""Classical-quantum channels: capacity quantities and coding bounds.

The Holevo capacity is computed by alternating maximization over the input
prior with a divergence-centre duality gap as the stopping certificate. Lower
bounds on the finite-blocklength capacity come from the hypothesis-testing
route: the exact one-shot bound evaluated with the Neyman-Pearson oracle on
the lifted states, or the concentration bounds with per-copy constants and,
for channels with memory, a certified channel factorization constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds_corr import factorized_stein_bound, moderate_lower, moderate_upper_form
from .divergences import info_variance, rel_entropy
from .errors import CertificationError, ConvergenceError, DomainError, ResourceError
from .fcs_gibbs import GeneratingTriple
from .modular import sup_norm_c
from .np_oracle import d_h
from .numerics import pencil_eigvals
from .states import DensityMatrix, density_matrix, product_state, state_from_json, state_to_json

STRING_GUARD = 10_000


@dataclass(frozen=True)
class CQChannel:
    """Finite alphabet to density matrix map with a common output dimension."""

    alphabet: tuple[str, ...]
    outputs: dict

    def __post_init__(self):
        if not self.alphabet:
            raise DomainError("alphabet must be nonempty")
        dims = {self.outputs[x].dim for x in self.alphabet}
        if len(dims) != 1:
            raise DomainError(f"outputs must share one dimension, got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.outputs[self.alphabet[0]].dim

    def output(self, x: str) -> DensityMatrix:
        return self.outputs[x]

    def average(self, prior: dict) -> DensityMatrix:
        m = sum(prior[x] * self.outputs[x].matrix for x in self.alphabet)
        return density_matrix(m)


def _check_prior(channel: CQChannel, prior: dict) -> None:
    total = 0.0
    for x in channel.alphabet:
        p = prior.get(x, 0.0)
        if p < -1e-12:
            raise DomainError(f"prior weight of {x!r} is negative")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"prior sums to {total!r}, not 1")


def lifted_states(channel: CQChannel, prior: dict) -> tuple[DensityMatrix, DensityMatrix]:
    """Block-diagonal pair (sum_x p(x)|x><x| (x) W(x), sum_x p(x)|x><x| (x) W(p))."""
    _check_prior(channel, prior)
    d = channel.dim
    m = len(channel.alphabet)
    avg = channel.average(prior).matrix
    rho = np.zeros((m * d, m * d), dtype=complex)
    sig = np.zeros((m * d, m * d), dtype=complex)
    for i, x in enumerate(channel.alphabet):
        sl = slice(i * d, (i + 1) * d)
        rho[sl, sl] = prior[x] * channel.outputs[x].matrix
        sig[sl, sl] = prior[x] * avg
    return density_matrix(rho), density_matrix(sig)


@dataclass(frozen=True)
class CapacityReport:
    """Converged Holevo optimization: capacity, optimizer and variance data."""

    chi_star: float
    prior: dict
    sigma_star: DensityMatrix
    v_min: float
    duality_gap: float
    iterations: int


def holevo_capacity(
    channel: CQChannel,
    *,
    tol_prior: float = 1e-10,
    tol_gap: float = 1e-8,
    max_iter: int = 100_000,
) -> CapacityReport:
    """Holevo capacity by alternating maximization of the input prior.

    The update reweights each letter by exp of its divergence from the mean
    output; iteration stops once the prior moves by less than ``tol_prior``
    and the divergence-centre duality gap (max_x D(W(x)||sigma) minus the
    average) drops below ``tol_gap``; exceeding ``max_iter`` raises with the
    residual gap in the message.
    """
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


def wr_lower_bound(channel: CQChannel, eps: float, eps_prime: float, prior: dict) -> float:
    """One-shot capacity lower bound d_h(lifted pair, eps') - log(4 eps/(eps - eps'))."""
    if not 0.0 < eps_prime < eps < 1.0:
        raise DomainError(f"need 0 < eps' < eps < 1, got eps'={eps_prime}, eps={eps}")
    rho, sig = lifted_states(channel, prior)
    return d_h(rho, sig, eps_prime) - math.log(4.0 * eps / (eps - eps_prime))


def capacity_lower_memoryless(
    channel: CQChannel,
    n: int,
    eps: float,
    eps_prime: float,
    report: CapacityReport | None = None,
) -> float:
    """n-letter capacity lower bound n chi* - sqrt(2 n log(1/eps')) c_p - log penalty."""
    if not 0.0 < eps_prime < eps < 1.0:
        raise DomainError(f"need 0 < eps' < eps < 1, got eps'={eps_prime}, eps={eps}")
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    if report is None:
        report = holevo_capacity(channel)
    rho, sig = lifted_states(channel, report.prior)
    c_p = sup_norm_c(rho, sig)
    penalty = math.log(4.0 * eps / (eps - eps_prime))
    return n * report.chi_star - math.sqrt(2.0 * n * math.log(1.0 / eps_prime)) * c_p - penalty


class CQChannelFamily:
    """Sequence of n-letter channels with memory plus its certification data.

    ``kernels`` maps each letter to the Kraus operators of a completely
    positive trace-preserving map from the auxiliary memory into site (x)
    memory, all sharing the invariant memory state; the n-letter output for a
    string is produced by threading the per-letter kernels and tracing the
    memory out. ``memoryless_family`` wraps a plain tensor-power channel.
    """

    def __init__(self, base: CQChannel, output_fn: Callable[[tuple[str, ...]], DensityMatrix], kind: str):
        self.base = base
        self._output_fn = output_fn
        self.kind = kind
        self.r_upper: float | None = None
        self.r_lower: float | None = None
        self.certified_n: int = 0
        self._cache: dict[tuple[str, ...], DensityMatrix] = {}

    def n_letter_output(self, string: Sequence[str]) -> DensityMatrix:
        key = tuple(string)
        if not key:
            raise DomainError("input string must be nonempty")
        for x in key:
            if x not in self.base.outputs:
                raise DomainError(f"letter {x!r} not in the alphabet")
        if key not in self._cache:
            self._cache[key] = self._output_fn(key)
        return self._cache[key]


def memoryless_family(channel: CQChannel) -> CQChannelFamily:
    def output(string):
        return product_state([channel.outputs[x] for x in string])

    fam = CQChannelFamily(channel, output, "memoryless")
    fam.r_upper = 1.0
    fam.r_lower = 1.0
    return fam


def kernel_family(kernels: dict, rho_aux: DensityMatrix) -> CQChannelFamily:
    """Memory channel from per-letter kernels sharing one invariant memory state."""
    triples = {}
    for x in sorted(kernels):
        ks = tuple(np.asarray(k, dtype=complex) for k in kernels[x])
        triples[x] = GeneratingTriple(ks[0].shape[0] // rho_aux.dim, rho_aux.dim, (ks,), rho_aux)
    base = CQChannel(tuple(triples), {x: t.site_marginal(1) for x, t in triples.items()})

    def output(string):
        tau = rho_aux.matrix
        for x in string:
            tau = triples[x].apply_step(1, tau)
        return triples[string[-1]].chain_state(tau)

    return CQChannelFamily(base, output, "kernel")


def _pencil_top(top: DensityMatrix, bottom: DensityMatrix) -> float:
    if not bottom.is_faithful():
        raise CertificationError("singular product output, constant not certifiable")
    return float(pencil_eigvals(top.matrix, bottom.eigenvalues, bottom.eigenvectors)[-1])


def channel_factorization_R(family: CQChannelFamily, n: int, direction: str = "upper") -> float:
    """Minimal channel factorization constant over all strings of length <= n.

    Per string, the constant is the top pencil eigenvalue between the
    n-letter output and (previous output) (x) (single-letter output); the
    enumeration is guarded by |alphabet|^n <= 10^4.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    letters = family.base.alphabet
    if len(letters) ** n > STRING_GUARD:
        raise ResourceError(
            f"string enumeration {len(letters)}^{n} exceeds guard {STRING_GUARD}"
        )
    r = 1.0
    strings: list[tuple[str, ...]] = [(x,) for x in letters]
    for _ in range(2, n + 1):
        strings = [s + (x,) for s in strings for x in letters]
        for s in strings:
            whole = family.n_letter_output(s)
            prev = family.n_letter_output(s[:-1])
            last = family.base.outputs[s[-1]]
            prod = product_state([prev, last])
            if direction == "upper":
                r = max(r, _pencil_top(whole, prod))
            else:
                if not whole.is_faithful():
                    return math.inf
                r = max(r, _pencil_top(prod, whole))
    return r


def certify_channel_family(family: CQChannelFamily, n: int, direction: str = "upper") -> CQChannelFamily:
    value = channel_factorization_R(family, n, direction)
    if direction == "upper":
        family.r_upper = value
    else:
        family.r_lower = value
    family.certified_n = max(family.certified_n, n)
    return family


def _require_certified(family: CQChannelFamily, n: int, direction: str) -> float:
    value = family.r_upper if direction == "upper" else family.r_lower
    if value is None or (family.kind != "memoryless" and family.certified_n < n):
        raise CertificationError(
            f"family has no {direction} factorization certificate covering n = {n}"
        )
    return value


def capacity_lower_factorized(
    family: CQChannelFamily,
    n: int,
    eps: float,
    eps_prime: float,
    report: CapacityReport | None = None,
) -> float:
    """Capacity lower bound for an upper-factorized channel family.

    Matches the memoryless bound at R = 1; the two branches swap continuously
    at eps' = R^n exp(-n c_p^2 / 2).
    """
    if not 0.0 < eps_prime < eps < 1.0:
        raise DomainError(f"need 0 < eps' < eps < 1, got eps'={eps_prime}, eps={eps}")
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    r_const = _require_certified(family, n, "upper")
    if report is None:
        report = holevo_capacity(family.base)
    rho, sig = lifted_states(family.base, report.prior)
    c_p = sup_norm_c(rho, sig)
    penalty = math.log(4.0 * eps / (eps - eps_prime))
    return -factorized_stein_bound(report.chi_star, c_p, r_const, n, eps_prime) - penalty


def capacity_moderate(
    family: CQChannelFamily,
    a_n: float,
    n: int,
    direction: str,
    report: CapacityReport | None = None,
) -> float:
    """Moderate-deviation capacity value at eps_n = exp(-n a_n^2).

    ``direction="lower"`` gives the certified-window lower bound for an
    upper-factorized family; ``direction="upper_form"`` evaluates the
    leading-order upper expression for a lower-factorized family with its
    o(n a_n) remainder omitted. Both omit terms vanishing against n a_n and
    are reported as asymptotic forms.
    """
    if direction not in ("lower", "upper_form"):
        raise DomainError(f"direction must be 'lower' or 'upper_form', got {direction!r}")
    if report is None:
        report = holevo_capacity(family.base)
    if direction == "upper_form":
        _require_certified(family, n, "lower")
        return moderate_upper_form(report.chi_star, report.v_min, a_n, n)
    r_const = _require_certified(family, n, "upper")
    rho, sig = lifted_states(family.base, report.prior)
    return moderate_lower(report.chi_star, report.v_min, sup_norm_c(rho, sig), r_const, a_n, n)


def channel_from_json(obj) -> CQChannel:
    """Parse the JSON channel spec {"alphabet": [...], "outputs": {x: state}}."""
    if not isinstance(obj, dict) or "alphabet" not in obj or "outputs" not in obj:
        raise DomainError("channel spec needs 'alphabet' and 'outputs'")
    alphabet = tuple(str(x) for x in obj["alphabet"])
    outputs = {x: state_from_json(obj["outputs"][x]) for x in alphabet}
    return CQChannel(alphabet, outputs)


def capacity_report_to_json(report: CapacityReport) -> dict:
    return {
        "chi_star": report.chi_star,
        "prior": report.prior,
        "sigma_star": state_to_json(report.sigma_star),
        "v_min": report.v_min,
        "duality_gap": report.duality_gap,
        "iterations": report.iterations,
    }
