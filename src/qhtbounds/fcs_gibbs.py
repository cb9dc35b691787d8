"""Correlated state families and numerical factorization-constant certification.

Three generators are provided: memory-kernel families built by iterating
completely positive trace-preserving maps through an auxiliary system, Gibbs
states of nearest-neighbour spin chains, and plain product families. The
certifiers compute the least constant R making the step-wise operator
inequalities

    rho_n <= R  rho_{n-1} (x) marg_n        (upper factorization)
    rho_n >= 1/R  rho_{n-1} (x) marg_n      (lower factorization)

hold for every cached step, via the generalized eigenvalues of the pencil,
and double-check soundness with a direct positive-semidefiniteness test.
They take any family with ``step_pairs(n)``, channel families included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CertificationError, DomainError, InvalidStateError, ResourceError
from .numerics import eig_h, kron, partial_trace, pencil_eigvals
from .states import (
    DEFAULT_DIM_BUDGET,
    FAITHFULNESS_THRESHOLD,
    DensityMatrix,
    _from_eigensystem,
    density_matrix,
    maximally_mixed,
    product_state,
    state_from_json,
)

KRAUS_TP_TOL = 1e-10
INVARIANCE_TOL = 1e-9
PSD_CHECK_TOL = 1e-10


def _complex_matrix(entries, rows: int, cols: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    if flat.size != rows * cols:
        raise DomainError(f"expected {rows * cols} entries, got {flat.size}")
    return flat.reshape(rows, cols)


@dataclass(frozen=True, eq=False)
class GeneratingTriple:
    """Kernel data for a memory-built family on a spin chain.

    ``kraus_steps[k]`` holds the Kraus operators of the step-(k+1) map from
    the auxiliary system into site (x) auxiliary; a single entry is reused
    for every step (the homogeneous case). ``rho_aux`` must be faithful and
    invariant under every step followed by tracing out the new site.
    """

    site_dim: int
    aux_dim: int
    kraus_steps: tuple[tuple[np.ndarray, ...], ...]
    rho_aux: DensityMatrix

    def __post_init__(self):
        if self.site_dim < 1 or self.aux_dim < 1:
            raise DomainError("site and auxiliary dimensions must be positive")
        if self.rho_aux.dim != self.aux_dim:
            raise DomainError("auxiliary state dimension mismatch")
        if not self.rho_aux.is_faithful():
            raise InvalidStateError("auxiliary state must be faithful")
        if not self.kraus_steps:
            raise DomainError("at least one Kraus step is required")
        out_dim = self.site_dim * self.aux_dim
        for step, ks in enumerate(self.kraus_steps, start=1):
            acc = np.zeros((self.aux_dim, self.aux_dim), dtype=complex)
            for k in ks:
                if k.shape != (out_dim, self.aux_dim):
                    raise DomainError(
                        f"step {step}: Kraus operator shape {k.shape} != ({out_dim}, {self.aux_dim})"
                    )
                acc += k.conj().T @ k
            if np.abs(acc - np.eye(self.aux_dim)).max() > KRAUS_TP_TOL:
                raise DomainError(f"step {step}: Kraus operators are not trace preserving")
            lifted = self.apply_step(step, self.rho_aux.matrix)
            back = partial_trace(lifted, [self.site_dim, self.aux_dim], keep=[1])
            if np.abs(back - self.rho_aux.matrix).max() > INVARIANCE_TOL:
                raise DomainError(f"step {step}: auxiliary state is not invariant")

    def kraus_for_step(self, step: int) -> tuple[np.ndarray, ...]:
        if len(self.kraus_steps) == 1:
            return self.kraus_steps[0]
        if step > len(self.kraus_steps):
            raise DomainError(f"no kernel defined for step {step}")
        return self.kraus_steps[step - 1]

    def apply_step(self, step: int, tau: np.ndarray) -> np.ndarray:
        """Apply the step kernel to the trailing auxiliary factor of tau."""
        left = tau.shape[0] // self.aux_dim
        t = tau.reshape(left, self.aux_dim, left, self.aux_dim)
        out = sum(
            np.einsum("pi,limj,qj->lpmq", k, t, k.conj(), optimize=True)
            for k in self.kraus_for_step(step)
        )
        side = left * self.site_dim * self.aux_dim
        return out.reshape(side, side)

    def chain_state(self, tau: np.ndarray) -> DensityMatrix:
        """Chain state left after tracing the trailing auxiliary factor out of tau."""
        left = tau.shape[0] // self.aux_dim
        t = tau.reshape(left, self.aux_dim, left, self.aux_dim)
        return density_matrix(np.einsum("limi->lm", t))

    def site_marginal(self, step: int) -> DensityMatrix:
        return self.chain_state(self.apply_step(step, self.rho_aux.matrix))


@dataclass(frozen=True, eq=False)
class CommutativeTriple(GeneratingTriple):
    """Generating triple over a commutative auxiliary algebra.

    Encodes a kernel of the form delta_x -> sum_y T[x, y] site_state[x][y]
    (x) delta_y; ``lower_condition`` records whether T is entrywise positive
    with y-supports independent of x, the known sufficient and necessary
    condition for a finite lower factorization constant.
    """

    transition: np.ndarray = None
    initial: np.ndarray = None
    site_states: tuple[tuple[DensityMatrix, ...], ...] = ()
    lower_condition: bool = False


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Nearest-neighbour chain with a two-site interaction at inverse temperature beta."""

    site_dim: int
    h: np.ndarray
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError(f"inverse temperature must be positive, got {self.beta}")
        h = np.asarray(self.h, dtype=complex)
        if h.shape != (self.site_dim**2, self.site_dim**2):
            raise DomainError(
                f"interaction must act on two sites: expected side {self.site_dim ** 2}"
            )


def build_gibbs(chain: GibbsChain, n: int, max_dim: int = DEFAULT_DIM_BUDGET) -> DensityMatrix:
    """Gibbs state exp(-beta H_n)/Z with H_n the sum of nearest-neighbour terms."""
    if n < 1:
        raise DomainError(f"chain length must be >= 1, got {n}")
    d = chain.site_dim
    if d**n > max_dim:
        raise ResourceError(f"chain dimension {d ** n} exceeds budget {max_dim}")
    if n == 1:
        return maximally_mixed(d)
    dim = d**n
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        left = np.eye(d**i, dtype=complex)
        right = np.eye(d ** (n - i - 2), dtype=complex)
        ham += kron(kron(left, np.asarray(chain.h, dtype=complex)), right)
    w, u = eig_h(ham)
    boltz = np.exp(-chain.beta * (w - w.min()))
    return _from_eigensystem(boltz / boltz.sum(), u)


def build_fcs(triple: GeneratingTriple, n: int, max_dim: int = DEFAULT_DIM_BUDGET) -> tuple[DensityMatrix, DensityMatrix]:
    """Chain state of length n and the step-n site marginal of a kernel family."""
    fam = fcs_family(triple, max_dim)
    return fam.state(n), fam.marginal(n)


def commutative_fcs(
    transition,
    site_states: Sequence[Sequence[DensityMatrix]],
    initial,
) -> CommutativeTriple:
    """Kernel over a commutative auxiliary algebra from a stochastic matrix.

    ``transition`` must be row stochastic with ``initial`` an invariant
    distribution; ``site_states[x][y]`` is the site state emitted on the
    x -> y transition. The returned triple flags whether the finite lower
    factorization condition (entrywise positive transitions, y-supports
    independent of x) holds.
    """
    t = np.asarray(transition, dtype=float)
    p = np.asarray(initial, dtype=float)
    m = t.shape[0]
    if t.shape != (m, m):
        raise DomainError(f"transition matrix must be square, got shape {t.shape}")
    if (t < 0).any() or np.abs(t.sum(axis=1) - 1.0).max() > 1e-10:
        raise DomainError("transition matrix must be row stochastic")
    if p.shape != (m,) or (p < 0).any() or abs(p.sum() - 1.0) > 1e-10:
        raise DomainError("initial distribution must be a probability vector")
    if np.abs(p @ t - p).max() > 1e-10:
        raise DomainError("initial distribution is not invariant under the transition matrix")
    if len(site_states) != m or any(len(row) != m for row in site_states):
        raise DomainError("site_states must be an |X| x |X| table of states")
    site_dim = site_states[0][0].dim
    kraus: list[np.ndarray] = []
    for x in range(m):
        ex = np.zeros(m)
        ex[x] = 1.0
        for y in range(m):
            if t[x, y] == 0.0:
                continue
            ey = np.zeros(m)
            ey[y] = 1.0
            st = site_states[x][y]
            if st.dim != site_dim:
                raise DomainError("all site states must share one dimension")
            for s, vec in zip(st.eigenvalues, st.eigenvectors.T):
                if s <= FAITHFULNESS_THRESHOLD:
                    continue
                out_vec = np.kron(vec, ey)
                kraus.append(math.sqrt(t[x, y] * s) * np.outer(out_vec, ex))
    supports_equal = True
    for y in range(m):
        masks = []
        for x in range(m):
            w = site_states[x][y].eigenvalues
            u = site_states[x][y].eigenvectors
            mask = w > FAITHFULNESS_THRESHOLD
            proj = (u[:, mask]) @ (u[:, mask]).conj().T
            masks.append(proj)
        for x in range(1, m):
            if np.abs(masks[x] - masks[0]).max() > 1e-8:
                supports_equal = False
    lower_ok = bool((t > 0).all() and supports_equal)
    return CommutativeTriple(
        site_dim=site_dim,
        aux_dim=m,
        kraus_steps=(tuple(kraus),),
        rho_aux=density_matrix(np.diag(p.astype(complex))),
        transition=t,
        initial=p,
        site_states=tuple(tuple(row) for row in site_states),
        lower_condition=lower_ok,
    )


def kraus_from_choi(choi, out_dim: int, in_dim: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of a completely positive map from its Choi matrix.

    The Choi matrix is sum_ij Phi(|i><j|) (x) |i><j| on out (x) in; each
    positive eigenpair contributes one Kraus operator by unstacking the
    eigenvector into an out_dim x in_dim block.
    """
    j = np.asarray(choi, dtype=complex)
    if j.shape != (out_dim * in_dim, out_dim * in_dim):
        raise DomainError(
            f"Choi matrix side {j.shape[0]} != out_dim * in_dim = {out_dim * in_dim}"
        )
    w, u = eig_h(j)
    if w[0] < -1e-10:
        raise DomainError(f"Choi matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    kraus = []
    for val, vec in zip(w, u.T):
        if val <= 1e-14:
            continue
        kraus.append(math.sqrt(val) * vec.reshape(out_dim, in_dim))
    return tuple(kraus)


def choi_from_kraus(kraus, out_dim: int, in_dim: int) -> np.ndarray:
    """Choi matrix sum_k vec(K_k) vec(K_k)^dag of a Kraus-presented map."""
    j = np.zeros((out_dim * in_dim, out_dim * in_dim), dtype=complex)
    for k in kraus:
        v = np.asarray(k, dtype=complex).reshape(-1)
        j += np.outer(v, v.conj())
    return j


def decoupling_kernel(site_state: DensityMatrix, rho_aux: DensityMatrix) -> GeneratingTriple:
    """Memoryless kernel b -> site_state (x) rho_aux Tr(b); generates a product family."""
    kraus = []
    for r, chi in zip(site_state.eigenvalues, site_state.eigenvectors.T):
        if r <= FAITHFULNESS_THRESHOLD:
            continue
        for s, phi in zip(rho_aux.eigenvalues, rho_aux.eigenvectors.T):
            if s <= FAITHFULNESS_THRESHOLD:
                continue
            out_vec = np.kron(chi, phi)
            for mdx in range(rho_aux.dim):
                em = np.zeros(rho_aux.dim)
                em[mdx] = 1.0
                kraus.append(math.sqrt(r * s) * np.outer(out_vec, em))
    return GeneratingTriple(site_state.dim, rho_aux.dim, (tuple(kraus),), rho_aux)


class StateFamily:
    """Lazily grown family rho_1, rho_2, ... with site marginals and certificates.

    ``extend(n, prev_state)`` returns ``(rho_n, marg_n)``, with ``prev_state``
    the cached rho_{n-1} (None at n = 1); it is called once per n, in order.
    Instances cache every computed state; ``certify`` populates the minimal
    factorization constants over the cached range, after which downstream
    bound evaluators accept the family.
    """

    def __init__(
        self,
        kind: str,
        site_dim: int,
        extend: Callable[[int, DensityMatrix | None], tuple[DensityMatrix, DensityMatrix]],
        max_dim: int = DEFAULT_DIM_BUDGET,
    ):
        self.kind = kind
        self.site_dim = site_dim
        self.extend = extend
        self.max_dim = max_dim
        self._states: list[DensityMatrix] = []
        self._marginals: list[DensityMatrix] = []
        self.r_upper: float | None = None
        self.r_lower: float | None = None
        self.certified_n: int = 0

    def grow(self, n: int) -> None:
        if n < 1:
            raise DomainError(f"family index must be >= 1, got {n}")
        if self.site_dim**n > self.max_dim:
            raise ResourceError(
                f"family dimension {self.site_dim ** n} exceeds budget {self.max_dim}"
            )
        while len(self._states) < n:
            rho, marg = self.extend(len(self._states) + 1, self._states[-1] if self._states else None)
            self._states.append(rho)
            self._marginals.append(marg)

    def state(self, n: int) -> DensityMatrix:
        self.grow(n)
        return self._states[n - 1]

    def marginal(self, k: int) -> DensityMatrix:
        self.grow(k)
        return self._marginals[k - 1]

    def step_pairs(self, n: int) -> list[tuple[DensityMatrix, DensityMatrix]]:
        """Per-step (rho_k, rho_{k-1} (x) marg_k) pairs for k = 1..n."""
        self.grow(n)
        pairs = []
        for k in range(1, n + 1):
            if k == 1:
                prod = self.marginal(1)
            else:
                prod = product_state([self.state(k - 1), self.marginal(k)], max_dim=self.max_dim)
            pairs.append((self.state(k), prod))
        return pairs


def fcs_family(triple: GeneratingTriple, max_dim: int = DEFAULT_DIM_BUDGET) -> StateFamily:
    tau = triple.rho_aux.matrix

    def extend(n, prev):
        nonlocal tau
        tau = triple.apply_step(n, tau)
        return triple.chain_state(tau), triple.site_marginal(n)

    return StateFamily("fcs", triple.site_dim, extend, max_dim)


def gibbs_family(chain: GibbsChain, max_dim: int = DEFAULT_DIM_BUDGET) -> StateFamily:
    # homogeneous factorization against the single-site Gibbs state
    def extend(n, prev):
        return build_gibbs(chain, n, max_dim), maximally_mixed(chain.site_dim)

    return StateFamily("gibbs", chain.site_dim, extend, max_dim)


def product_family(factors, max_dim: int = DEFAULT_DIM_BUDGET) -> StateFamily:
    """Product family from one state (reused i.i.d.) or an explicit factor list."""
    if isinstance(factors, DensityMatrix):
        factor_for = lambda k: factors
        site_dim = factors.dim
    else:
        factors = list(factors)
        if not factors:
            raise DomainError("need at least one factor")
        site_dim = factors[0].dim

        def factor_for(k):
            if k > len(factors):
                raise DomainError(f"no factor defined for step {k}")
            return factors[k - 1]

    def extend(n, prev):
        f = factor_for(n)
        return (f if prev is None else product_state([prev, f], max_dim=max_dim)), f

    return StateFamily("product", site_dim, extend, max_dim)


def _certify_steps(pairs, upper: bool) -> float:
    """Least R with top <= R bottom on every pair, re-certified directly.

    The pairs are (rho_k, prod_k); the upper constant takes top = rho_k, the
    lower one top = prod_k. Per pair R is the top eigenvalue of the pencil.
    A singular bottom leaves the upper constant uncertifiable; for the lower
    one it gives +inf when the top puts mass on its null space, and a pencil
    restricted to its support otherwise. R bottom - top must then be positive
    semidefinite down to -1e-10 on every pair.
    """
    if not upper:
        pairs = [(prod_k, rho_k) for rho_k, prod_k in pairs]
    r = 1.0
    for k, (top, bottom) in enumerate(pairs, start=1):
        w, u = bottom.eigenvalues, bottom.eigenvectors
        if not bottom.is_faithful():
            if upper:
                raise CertificationError(
                    f"step {k}: product state is singular, upper constant not certifiable"
                )
            mask = w > FAITHFULNESS_THRESHOLD
            null_vecs = u[:, ~mask]
            leak = np.einsum("ij,jk,ki->i", null_vecs.conj().T, top.matrix, null_vecs)
            if float(leak.real.sum()) > 1e-10:
                return math.inf
            w, u = w[mask], u[:, mask]
        r = max(r, float(pencil_eigvals(top.matrix, w, u)[-1]))
    for k, (top, bottom) in enumerate(pairs, start=1):
        w = np.linalg.eigvalsh(r * bottom.matrix - top.matrix)
        if w[0] < -PSD_CHECK_TOL:
            raise CertificationError(f"step {k}: direct check failed, min eigenvalue {w[0]:.3e}")
    return r


def minimal_upper_R(family, n: int) -> float:
    """Least R with rho_k <= R prod_k on every pair of ``family.step_pairs(n)``.

    prod_k is rho_{k-1} (x) marg_k for a state family; a channel family's
    pairs run over input strings. Singular products are rejected since
    soundness of the certificate would be lost.
    """
    return _certify_steps(family.step_pairs(n), upper=True)


def minimal_lower_R(family, n: int) -> float:
    """Least R with rho_k >= (1/R) prod_k on every pair, +inf if none.

    When rho_k is singular the constant is finite only if the product's
    support fits inside; otherwise +inf is returned.
    """
    return _certify_steps(family.step_pairs(n), upper=False)


def certify_family(family, n: int, which: str = "both"):
    """Populate the certificates of a state or channel family over ``step_pairs(n)``."""
    if which not in ("upper", "lower", "both"):
        raise DomainError(f"which must be 'upper', 'lower' or 'both', got {which!r}")
    if which in ("upper", "both"):
        family.r_upper = minimal_upper_R(family, n)
    if which in ("lower", "both"):
        family.r_lower = minimal_lower_R(family, n)
    family.certified_n = max(family.certified_n, n)
    return family


def matrix_from_json(obj) -> np.ndarray:
    if "shape" in obj:
        rows, cols = (int(v) for v in obj["shape"])
    else:
        rows = cols = int(obj["dim"])
    return _complex_matrix(obj["entries"], rows, cols)


def family_from_json(obj) -> StateFamily:
    """Build a family from its JSON specification (product/gibbs/fcs kinds)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("family spec must be an object with a 'type' field")
    kind = obj["type"]
    max_dim = int(obj.get("max_dim", DEFAULT_DIM_BUDGET))
    if kind == "product":
        if "factors" in obj:
            return product_family([state_from_json(s) for s in obj["factors"]], max_dim)
        return product_family(state_from_json(obj["state"]), max_dim)
    if kind == "gibbs":
        chain = GibbsChain(int(obj["site_dim"]), matrix_from_json(obj["h"]), float(obj["beta"]))
        return gibbs_family(chain, max_dim)
    if kind == "fcs":
        site_dim = int(obj["site_dim"])
        aux_dim = int(obj["aux_dim"])
        if "kraus" in obj:
            steps = tuple(tuple(matrix_from_json(k) for k in step) for step in obj["kraus"])
        elif "choi" in obj:
            steps = tuple(
                kraus_from_choi(matrix_from_json(c), site_dim * aux_dim, aux_dim)
                for c in obj["choi"]
            )
        else:
            raise DomainError("fcs family spec needs 'kraus' or 'choi' step maps")
        triple = GeneratingTriple(site_dim, aux_dim, steps, state_from_json(obj["rho_aux"]))
        return fcs_family(triple, max_dim)
    if kind == "commutative_fcs":
        states = [[state_from_json(s) for s in row] for row in obj["states"]]
        triple = commutative_fcs(obj["T"], states, obj["p"])
        return fcs_family(triple, max_dim)
    raise DomainError(f"unknown family type {kind!r}")
