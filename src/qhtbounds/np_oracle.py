"""Exact optimal asymmetric hypothesis-testing errors for explicit state pairs.

Optimal tests have the Neyman-Pearson structure: a projector onto the strictly
positive eigenspace of (1 - u) rho - u sigma plus a randomized fraction of its
zero eigenspace, for a threshold u in [0, 1] (u = t / (1 + t) for the
threshold t on rho - t sigma; u = 1 is the best zero type-II test, relevant
for singular sigma). Along this family the type-I error is nondecreasing and
the type-II error nonincreasing in u.

The rank of the test only changes at the generalized eigenvalues of
(rho, sigma), which one pencil ``eigvalsh`` finds. At such a node the type-I
error jumps, and randomizing the zero eigenspace traces an exact facet of the
frontier; between nodes the type-I error is constant for commuting pairs and
smooth otherwise. Every evaluated threshold u > 0 also yields the supporting
line of the frontier with slope -(1 - u) / u, whose value at a type-I level
eps is the dual value of the hypothesis-testing SDP,
[(1 - u)(1 - eps) - Tr((1 - u) rho - u sigma)_+] / u, a lower bound on the
optimal type-II error. ``optimal_type2`` closes the gap between that lower
bound and the best randomized test found by a bracketed root solve, to
``max(1e-12 * value, 1e-15)`` or a ``ConvergenceError``; ``error_curve``
refines the chord/tangent sandwich of the whole frontier, splitting every
interval still too wide in one round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError
from .numerics import _frozen, pencil_eigvals
from .states import DensityMatrix

ZERO_EIG_TOL = 1e-11
TYPE2_REL_WIDTH = 1e-12
TYPE2_ABS_WIDTH = 1e-15
MAX_TYPE2_EVALS = 60
CURVE_REFINE_TOL = 1e-8
MAX_CURVE_POINTS = 20_000
# pencil matrices of one stacked threshold evaluation, in bytes: a round of
# error_curve refinement is split into chunks of this size, which bounds the
# working memory at dim 128 (8 thresholds per chunk; 2,048 at dim 8)
STACK_BYTES = 2 * 2**20
# cost guard: largest allowed (evaluation budget) x dim^3, checked before the
# first eigendecomposition; admits optimal_type2 up to dim 1024 and
# error_curve up to dim 128
MAX_ORACLE_COST = 1e11


@dataclass(frozen=True, eq=False)
class ErrorCurve:
    """Breakpoints of the optimal error trade-off, convex lower envelope.

    ``alphas`` is strictly increasing from 0, ``betas`` strictly decreasing to
    its final value (0 whenever perfect type-II discrimination is reachable);
    randomized tests interpolate linearly between breakpoints. Every
    breakpoint is exactly achievable, and interpolation overestimates the true
    optimum by at most ``gap``, the largest chord-over-tangent gap left
    between neighbouring threshold points (0 up to roundoff for commuting
    pairs, where the frontier is this polygon). ``error_curve`` brings it
    under its refinement tolerance, except on an interval too narrow to split
    in double precision, or raises when its point cap comes first.
    ``points`` counts the threshold tests evaluated.
    """

    alphas: np.ndarray
    betas: np.ndarray
    gap: float
    points: int

    def beta_at(self, eps: float) -> float:
        if eps < 0.0:
            raise DomainError(f"type-I level must be nonnegative, got {eps}")
        if eps >= self.alphas[-1]:
            return float(self.betas[-1])
        return float(np.interp(eps, self.alphas, self.betas))


@dataclass(frozen=True)
class Type2Report:
    """Optimal type-II error with its certificate.

    ``upper`` is the type-II error of a randomized test of type-I error at
    most eps that was found; ``lower`` is the best dual value, a lower bound
    on the optimum up to roundoff; ``value`` equals ``upper``. The two lie
    within ``max(1e-12 * upper, 1e-15)`` of each other on either side (a
    lower end a few units in the last place above the upper one is
    roundoff). ``evaluations`` counts the threshold eigendecompositions,
    besides the one pencil ``eigvalsh``.
    """

    value: float
    lower: float
    upper: float
    evaluations: int


def _root_factor(state: DensityMatrix) -> np.ndarray:
    """F with F^dag F equal to the state, built from its spectrum; eigenvalues
    within the eigensolver's roundoff of zero count as zero. A product's
    spectrum (Kronecker products of its factors') is exact to relative
    precision, so there only negative eigenvalues count as zero."""
    w = state.eigenvalues
    floor = 0.0 if state.factors else w.size * np.finfo(float).eps * max(float(w[-1]), 0.0)
    return np.sqrt(np.where(w > floor, w, 0.0))[:, None] * state.eigenvectors.conj().T


class _TestFamily:
    """Strict/inclusive Neyman-Pearson tests along u = t / (1 + t)."""

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix, max_evals: int):
        if rho.dim != sigma.dim:
            raise DomainError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
        cost = max_evals * float(rho.dim) ** 3
        if cost > MAX_ORACLE_COST:
            raise ResourceError(
                f"oracle refuses dimension {rho.dim}: {max_evals} eigendecompositions "
                f"cost {cost:.2e} > {MAX_ORACLE_COST:.0e} (evaluations x dim^3)"
            )
        self.rho = rho.matrix
        self.sigma = sigma.matrix
        self._roots = np.vstack([_root_factor(rho), _root_factor(sigma)])
        self._sigma_dm = sigma
        self.evaluations = 0

    def points_at(self, u: np.ndarray, node: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Error pairs (strict, inclusive) of the threshold tests at each u of a
        stack, as two (len(u), 2) arrays of (alpha, beta) rows, and the positive
        eigenvalue mass of (1 - u) rho - u sigma each strict test may leave out.

        At nodes (``node=True``) eigenvalues within ``ZERO_EIG_TOL`` of zero
        count as zero: the strict test leaves them out, the inclusive one
        takes them in. Between nodes no eigenvalue should be that small and
        both tests cut at exactly zero; an eigenvalue within the eigensolver's
        roundoff of zero there (near u = 0 for a rank-deficient rho) has an
        unresolved sign, so that roundoff is added to the mass left out.

        Each error is summed over the eigenvectors it counts, never as one
        minus the rest, and each term is a squared norm, so small errors keep
        their relative precision. The stack goes through one ``eigh`` and one
        root-factor product per chunk of at most ``STACK_BYTES`` of pencil
        matrices (one threshold at least); every threshold gets bitwise the
        numbers it gets alone.
        """
        n, d = u.size, self.rho.shape[0]
        strict, incl, left_out = np.empty((n, 2)), np.empty((n, 2)), np.empty(n)
        step = max(1, STACK_BYTES // (16 * d * d))
        for s in range(0, n, step):
            c = slice(s, s + step)
            uc = u[c, None, None]
            # real combinations of Hermitian matrices: eigh needs no check
            w, vecs = np.linalg.eigh((1.0 - uc) * self.rho - uc * self.sigma)
            # <v|rho|v> = |rho^(1/2) v|^2 and <v|sigma|v> from one product
            fv = self._roots @ vecs
            diags = (fv.real**2 + fv.imag**2).reshape(-1, 2, d, d).sum(axis=2)
            # ascending spectra: counting eigenvalues <= x is searchsorted(w, x, "right")
            k_pos = (w <= 0.0).sum(axis=1)
            if node:
                tol = ZERO_EIG_TOL * np.maximum(u[c], 1.0 - u[c])[:, None]
                k_strict = (w <= tol).sum(axis=1)
                strict[c], incl[c] = _errors(diags, k_strict), _errors(diags, (w <= -tol).sum(axis=1))
                left_out[c] = 0.0
                for t in np.flatnonzero(k_strict > k_pos).tolist():
                    left_out[s + t] = w[t, k_pos[t] : k_strict[t]].sum()
            else:
                strict[c] = incl[c] = _errors(diags, k_pos)
                roundoff = d * np.finfo(float).eps * np.maximum(-w[:, 0], w[:, -1])
                left_out[c] = roundoff * (np.abs(w) < roundoff[:, None]).sum(axis=1)
        self.evaluations += n
        return strict, incl, left_out

    def candidate_u(self) -> list[float]:
        mu = np.maximum(self._sigma_dm.eigenvalues, 1e-14)
        w = pencil_eigvals(self.rho, mu, self._sigma_dm.eigenvectors)
        # the loop drops duplicates; np.unique would also import numpy.ma (1 MiB)
        cands = np.sort(np.concatenate(([0.0], np.maximum(w, 0.0))))
        keep = [float(cands[0])]
        for t in cands[1:]:
            if t - keep[-1] > 1e-12 * max(1.0, t):
                keep.append(float(t))
        return [t / (1.0 + t) for t in keep] + [1.0]


def _errors(diags: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(alpha, beta) rows of the tests that reject on the first k[t]
    eigenvectors of stack entry t: the rho mass on them and the sigma mass on
    the rest. Rows with equal k are summed together along the fast axis,
    numpy's pairwise order for one slice, so each row's sums are bitwise
    what that row gives alone."""
    out = np.empty((k.size, 2))
    for j in set(k.tolist()):
        rows = k == j
        out[rows, 0] = diags[rows, 0, :j].sum(axis=1)
        out[rows, 1] = diags[rows, 1, j:].sum(axis=1)
    return np.minimum(out, 1.0)


class _Bracket:
    """Certified bracket [lower, upper] on the optimal type-II error at eps.

    The upper end is the best test found: a feasible threshold test, or the
    mixture of the feasible and the infeasible test whose type-I errors lie
    nearest to eps on either side, which has type-I error exactly eps. It
    starts as the chord of the accept-all and reject-all tests.
    """

    def __init__(self, family: _TestFamily, eps: float):
        self.family = family
        self.eps = eps
        self.lower = 0.0
        self.feasible = (0.0, 1.0)
        self.infeasible = (1.0, 0.0)
        self.upper = 1.0 - eps

    def visit(self, u: float, node: bool) -> tuple[tuple[float, float], tuple[float, float]]:
        """Evaluate the threshold tests at u and return their error pairs (strict, inclusive)."""
        strict, incl, left_out = self.family.points_at(np.array([u]), node)
        strict, incl, left_out = tuple(strict[0].tolist()), tuple(incl[0].tolist()), float(left_out[0])
        eps = self.eps
        if u > 0.0:
            # the dual value [(1 - u)(1 - eps) - Tr((1 - u) rho - u sigma)_+] / u,
            # written through the strict test's errors to avoid its cancellation
            a, b = strict
            self.lower = max(self.lower, b + (1.0 - u) / u * (a - eps) - left_out / u)
        for a, b in (incl, strict):
            if a <= eps:
                self.upper = min(self.upper, b)
                if (a, -b) > (self.feasible[0], -self.feasible[1]):
                    self.feasible = (a, b)
            elif (a, b) < self.infeasible:
                self.infeasible = (a, b)
        (a_f, b_f), (a_x, b_x) = self.feasible, self.infeasible
        lam = (a_x - eps) / (a_x - a_f)
        self.upper = min(self.upper, lam * b_f + (1.0 - lam) * b_x)
        return strict, incl

    def width(self) -> float:
        return max(TYPE2_REL_WIDTH * self.upper, TYPE2_ABS_WIDTH)

    def certified(self) -> bool:
        # both sides: a lower end above the upper one is roundoff just the same
        return abs(self.upper - self.lower) <= self.width()

    def report(self) -> Type2Report:
        """The certified bracket; ``ConvergenceError`` if it is not certified."""
        if not self.certified():
            raise ConvergenceError(
                f"optimal_type2 at eps {self.eps:.3g}: bracket [{self.lower:.17g}, {self.upper:.17g}] "
                f"not within {self.width():.1e} after {self.family.evaluations} evaluations"
            )
        return Type2Report(self.upper, self.lower, self.upper, self.family.evaluations)


def _split(u_lo: float, u_hi: float) -> float:
    """Bisection point of a threshold bracket: geometric in t = u / (1 - u)
    when the bracket spans more than a factor 4 in t, arithmetic in u otherwise."""
    if 0.0 < u_lo and u_hi < 1.0:
        t_lo, t_hi = u_lo / (1.0 - u_lo), u_hi / (1.0 - u_hi)
        if t_hi > 4.0 * t_lo:
            t = math.sqrt(t_lo * t_hi)
            return t / (1.0 + t)
    return 0.5 * (u_lo + u_hi)


def _interpolate(pts: list[tuple[float, float]]) -> float:
    """Root of the inverse quadratic (or, for two points, linear) interpolant of (u, g) points."""
    if len(pts) == 3:
        (x0, g0), (x1, g1), (x2, g2) = pts
        if g0 != g1 and g0 != g2 and g1 != g2:
            return (
                x0 * g1 * g2 / ((g0 - g1) * (g0 - g2))
                + x1 * g0 * g2 / ((g1 - g0) * (g1 - g2))
                + x2 * g0 * g1 / ((g2 - g0) * (g2 - g1))
            )
    (x0, g0), (x1, g1) = pts[:2]
    return x0 - g0 * (x1 - x0) / (g1 - g0)


def optimal_type2_report(rho: DensityMatrix, sigma: DensityMatrix, eps: float) -> Type2Report:
    """Minimal type-II error at type-I level eps, with its certified bracket.

    One pencil ``eigvalsh`` gives the thresholds where the test rank changes;
    a binary search over them finds the facet or the interval holding eps.
    On a facet the randomized test is optimal and is returned; one step to
    the threshold whose supporting line is the facet brings the dual value
    to it when the node's roundoff keeps them apart. Inside an interval the
    type-I error is continuous in u, and a bracketed inverse quadratic /
    secant solve, with a bisection step whenever the bracket fails to halve,
    drives the evaluated thresholds onto eps. The report is returned once
    ``|upper - lower| <= max(1e-12 * upper, 1e-15)``. A bracket that is
    still wider after ``MAX_TYPE2_EVALS`` evaluations, or when the interval
    can no longer be split in double precision, raises ``ConvergenceError``.
    The cost guard refuses inputs whose budget ``MAX_TYPE2_EVALS * dim^3``
    exceeds ``MAX_ORACLE_COST``.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"type-I level must lie in (0, 1), got {eps}")
    family = _TestFamily(rho, sigma, MAX_TYPE2_EVALS)
    nodes = family.candidate_u()
    br = _Bracket(family, eps)
    alphas: dict[int, tuple[float, float]] = {}

    def on_facet(k: int) -> bool:
        (a_s, b_s), (a_i, b_i) = br.visit(nodes[k], node=True)
        alphas[k] = a_s, a_i
        if not a_i <= eps <= a_s:
            return False
        # the randomized test is optimal, and the dual at the node matches it
        # up to the node's roundoff; the facet's slope -(1 - u) / u gives the
        # exact node (a Newton step on the eigenvalues that vanish there)
        if not br.certified() and a_s > a_i:
            u = (a_s - a_i) / ((a_s - a_i) + (b_i - b_s))
            if 0.0 < u < 1.0:
                br.visit(u, node=True)
        return True

    # adjacent nodes with eps right of the strict test at the lower one and
    # left of the inclusive test at the upper one; the end nodes u = 0 and
    # u = 1 are visited only when the search stops beside them
    lo, hi = 0, len(nodes) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if on_facet(mid):
            return br.report()
        if alphas[mid][0] < eps:
            lo = mid
        else:
            hi = mid
    for k in (lo, hi):
        if k not in alphas and on_facet(k):
            return br.report()
    # in between, no eigenvalue crosses zero and the type-I error of the test
    # at threshold exactly 0 is continuous in u: solve alpha(u) = eps
    u_lo, u_hi = nodes[lo], nodes[hi]
    pts = [(u_lo, alphas[lo][0] - eps), (u_hi, alphas[hi][1] - eps)]
    bisect = False
    while not br.certified() and family.evaluations < MAX_TYPE2_EVALS:
        width = u_hi - u_lo
        u = _split(u_lo, u_hi) if bisect else _interpolate(pts)
        if not u_lo < u < u_hi:
            u = _split(u_lo, u_hi)
            if not u_lo < u < u_hi:
                break
        (a, _), _ = br.visit(u, node=False)
        # the new point replaces the bracket end on its side, which stays on
        # as the third interpolation point
        if a < eps:
            u_lo = u
            pts = [(u, a - eps), pts[1], pts[0]]
        else:
            u_hi = u
            pts = [pts[0], (u, a - eps), pts[1]]
        bisect = u_hi - u_lo > 0.5 * width
    return br.report()


def optimal_type2(rho: DensityMatrix, sigma: DensityMatrix, eps: float) -> float:
    """Minimal type-II error at type-I level eps, randomized tests allowed.

    The value is the type-II error of an achievable randomized threshold
    test, within ``max(1e-12 * value, 1e-15)`` of a dual lower bound; when
    the solve cannot certify that width it raises ``ConvergenceError``
    rather than return an uncertified value. ``optimal_type2_report``
    returns the bracket and the evaluation count.
    """
    return optimal_type2_report(rho, sigma, eps).value


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


def _sandwich_gap(u_lo: np.ndarray, p_lo: np.ndarray, u_hi: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """Largest height of each chord p_lo-p_hi over the supporting lines at u_lo and u_hi.

    The supporting line at u is (1 - u) alpha + u beta = (1 - u) a + u b
    through the point (a, b) of that threshold; the frontier between the two
    points lies below the chord and above both lines, whose intersection is
    where the chord is highest above them. Points are (n, 2) rows of (a, b).
    """
    (a0, b0), (a1, b1) = p_lo.T, p_hi.T
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = (1.0 - u_lo) * a0 + u_lo * b0
        c1 = (1.0 - u_hi) * a1 + u_hi * b1
        a_x = np.minimum(np.maximum((u_hi * c0 - u_lo * c1) / (u_hi - u_lo), a0), a1)
        b_x = (c1 - (1.0 - u_hi) * a_x) / u_hi
        chord = b0 + (a_x - a0) / (a1 - a0) * (b1 - b0)
    # no type-I level lies between the points: the lower one is exact
    return np.where(a1 - a0 <= 1e-15, 0.0, np.maximum(chord - b_x, 0.0))


def _split_points(u_lo: np.ndarray, p_lo: np.ndarray, u_hi: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """Where the tangent is parallel to the chord (slope -(1 - u) / u), or
    the midpoint when that lies within 1% of the interval's width of an end."""
    slope = np.minimum((p_hi[:, 1] - p_lo[:, 1]) / (p_hi[:, 0] - p_lo[:, 0]), 0.0)
    u_mid = 1.0 / (1.0 - slope)
    margin = 0.01 * (u_hi - u_lo)
    crowded = ~((u_lo + margin < u_mid) & (u_mid < u_hi - margin))
    return np.where(crowded, 0.5 * (u_lo + u_hi), u_mid)


def error_curve(
    rho: DensityMatrix, sigma: DensityMatrix, refine_tol: float = CURVE_REFINE_TOL
) -> ErrorCurve:
    """Achievable (type-I, type-II) frontier as a convex breakpoint polygon.

    Strict and inclusive threshold tests are evaluated at every generalized
    eigenvalue of the pencil; each point comes with its supporting line, so
    between neighbouring points the frontier lies between the chord and the
    two tangents. Refinement goes in rounds: each round splits every
    interval whose gap exceeds ``refine_tol`` at the threshold whose tangent
    is parallel to its chord, all of them in one stacked evaluation (chunks
    of at most ``STACK_BYTES`` of pencil matrices), until every gap is at
    most ``refine_tol`` (no split triggers for commuting pairs). The split
    tree, hence the curve, does not depend on the order of the splits.
    Before each round the point cap is checked: a round that would take the
    evaluations past ``MAX_CURVE_POINTS`` raises ``ConvergenceError`` instead
    of running. An interval too narrow to split in double precision keeps
    its gap, which ``ErrorCurve.gap`` then reports. A negative (or NaN)
    ``refine_tol`` raises ``DomainError``.
    """
    if not refine_tol >= 0.0:
        raise DomainError(f"refine_tol must be nonnegative, got {refine_tol}")
    family = _TestFamily(rho, sigma, MAX_CURVE_POINTS)
    u = np.array(family.candidate_u())
    strict, incl, _ = family.points_at(u, node=True)
    points = [np.array([[0.0, 1.0], [1.0, 0.0]]), strict, incl]
    # within an interval the strict test at its left node continues into the
    # inclusive test at its right node
    u_lo, p_lo, u_hi, p_hi = u[:-1], strict[:-1], u[1:], incl[1:]
    g = _sandwich_gap(u_lo, p_lo, u_hi, p_hi)
    gap = 0.0
    while True:
        keep = g > refine_tol
        gap = max(gap, float(g[~keep].max(initial=0.0)))
        u_lo, p_lo, u_hi, p_hi, g = u_lo[keep], p_lo[keep], u_hi[keep], p_hi[keep], g[keep]
        u_mid = _split_points(u_lo, p_lo, u_hi, p_hi)
        # an interval too narrow to split keeps its gap
        keep = (u_lo < u_mid) & (u_mid < u_hi)
        gap = max(gap, float(g[~keep].max(initial=0.0)))
        n = int(keep.sum())
        if n == 0:
            break
        if family.evaluations + n > MAX_CURVE_POINTS:
            raise ConvergenceError(
                f"error_curve gap {g.max():.3e} above refine_tol {refine_tol:.1e} after "
                f"{family.evaluations} threshold evaluations; the next round needs {n} more"
            )
        u_lo, p_lo, u_mid, u_hi, p_hi = u_lo[keep], p_lo[keep], u_mid[keep], u_hi[keep], p_hi[keep]
        # no node inside: the test at threshold exactly 0 is the frontier point
        p_mid, _, _ = family.points_at(u_mid, node=False)
        points.append(p_mid)
        u_lo, p_lo = np.concatenate((u_lo, u_mid)), np.concatenate((p_lo, p_mid))
        u_hi, p_hi = np.concatenate((u_mid, u_hi)), np.concatenate((p_mid, p_hi))
        g = _sandwich_gap(u_lo, p_lo, u_hi, p_hi)
    alphas, betas = _lower_hull(list(map(tuple, np.concatenate(points).tolist())))
    return ErrorCurve(_frozen(alphas), _frozen(betas), gap, family.evaluations)
