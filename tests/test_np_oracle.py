import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    classical_beta,
    classical_np_points,
    dual_beta_star,
    points_one_at_a_time,
    pure_qubit_type2,
    type2_by_bisection,
)
from qhtbounds import (
    ConvergenceError,
    DomainError,
    ResourceError,
    d_h,
    density_matrix,
    error_curve,
    from_bloch,
    optimal_type2,
    optimal_type2_hoeffding,
    optimal_type2_report,
    pure_state,
    random_density,
    rel_entropy,
    tensor_pow,
)
from qhtbounds import np_oracle

FIG1_A = (-0.177483, 0.365807, 0.291007)
FIG1_B = (-0.452239, -0.141906, -0.159193)


def diag_state(probs):
    return density_matrix(np.diag(np.asarray(probs, dtype=complex)))


def test_curve_equal_states_is_antidiagonal():
    rho = random_density(2, 0)
    cur = error_curve(rho, rho)
    assert np.allclose(cur.alphas, [0.0, 1.0])
    assert np.allclose(cur.betas, [1.0, 0.0])
    assert np.isclose(optimal_type2(rho, rho, 0.3), 0.7, atol=1e-12)


def test_curve_orthogonal_pure_states():
    cur = error_curve(pure_state([1, 0]), pure_state([0, 1]))
    assert np.isclose(cur.alphas[0], 0.0)
    assert np.isclose(cur.betas[0], 0.0)


def test_curve_matches_classical_np():
    p, q = [0.5, 0.3, 0.2], [0.1, 0.4, 0.5]
    cur = error_curve(diag_state(p), diag_state(q))
    pts = sorted(zip(cur.alphas, cur.betas))
    oracle = classical_np_points(p, q)
    assert len(pts) == len(oracle)
    for (a1, b1), (a2, b2) in zip(pts, oracle):
        assert abs(a1 - a2) <= 1e-12
        assert abs(b1 - b2) <= 1e-12


def test_curve_monotone_breakpoints():
    for seed in range(5):
        cur = error_curve(random_density(3, seed), random_density(3, 50 + seed))
        assert np.all(np.diff(cur.alphas) > 0)
        assert np.all(np.diff(cur.betas) < 0)
        assert cur.alphas[0] == 0.0
        assert cur.betas[0] <= 1.0
        assert cur.betas[-1] == 0.0  # faithful pair: perfect type-II point present


def test_optimal_type2_examples():
    rho = random_density(2, 1)
    assert np.isclose(optimal_type2(rho, rho, 0.25), 0.75, atol=1e-12)
    sig = random_density(2, 2)
    assert optimal_type2(rho, sig, 1.0 - 1e-9) <= 1e-6
    p, q = [0.7, 0.3], [0.4, 0.6]
    assert abs(optimal_type2(diag_state(p), diag_state(q), 0.1) - classical_beta(p, q, 0.1)) <= 1e-12


def test_optimal_type2_dual_oracle():
    # support-function characterization, an entirely independent path
    for seed in range(6):
        rho = random_density(2, 200 + seed)
        sig = random_density(2, 300 + seed)
        for eps in (0.05, 0.2, 0.45, 0.8):
            mine = optimal_type2(rho, sig, eps)
            ref = dual_beta_star(rho.matrix, sig.matrix, eps)
            assert abs(mine - ref) <= 1e-9


def test_optimal_type2_dual_oracle_qutrit():
    rho = random_density(3, 77)
    sig = random_density(3, 78)
    for eps in (0.1, 0.5):
        assert abs(optimal_type2(rho, sig, eps) - dual_beta_star(rho.matrix, sig.matrix, eps)) <= 1e-9


def test_hoeffding_variant():
    rho = random_density(2, 3)
    sig = random_density(2, 4)
    r, n = 0.2, 3
    rn, sn = tensor_pow(rho, n), tensor_pow(sig, n)
    direct = optimal_type2(rn, sn, math.exp(-n * r))
    assert optimal_type2_hoeffding(rn, sn, r, n) == direct
    assert np.isclose(optimal_type2_hoeffding(rho, rho, 0.5, 1), 1.0 - math.exp(-0.5), atol=1e-12)
    with pytest.raises(DomainError):
        optimal_type2_hoeffding(rho, sig, -1.0, 2)


def test_d_h_examples():
    rho = random_density(2, 5)
    assert np.isclose(d_h(rho, rho, 0.3), -math.log(0.7), atol=1e-12)
    assert d_h(pure_state([1, 0]), pure_state([0, 1]), 0.1) == math.inf


def test_d_h_monotone_in_eps():
    rho = random_density(2, 6)
    sig = random_density(2, 7)
    vals = [d_h(rho, sig, e) for e in (0.05, 0.1, 0.3, 0.6, 0.9)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_d_h_fine_grid_oracle():
    # hull of 1e5 threshold tests agrees with the oracle to 1e-8
    rho = random_density(2, 8)
    sig = random_density(2, 9)
    pts = [(0.0, 1.0), (1.0, 0.0)]
    for u in np.linspace(0.0, 1.0, 100_001):
        a = (1.0 - u) * rho.matrix - u * sig.matrix
        w, vecs = np.linalg.eigh(a)
        mask = w > 1e-11 * max(u, 1.0 - u)
        proj = vecs[:, mask]
        alpha = 1.0 - float(np.einsum("ij,jk,ki->", proj.conj().T, rho.matrix, proj).real)
        beta = float(np.einsum("ij,jk,ki->", proj.conj().T, sig.matrix, proj).real)
        pts.append((min(max(alpha, 0.0), 1.0), min(max(beta, 0.0), 1.0)))
    alphas, betas = np_oracle._lower_hull(pts)
    for eps in (0.05, 0.1, 0.3, 0.7):
        grid_val = -math.log(float(np.interp(eps, alphas, betas)))
        assert abs(d_h(rho, sig, eps) - grid_val) <= 1e-8


def test_stein_consistency_small_n():
    # the per-copy exponent at n <= 5 is not pointwise monotone (lattice
    # effects), so Stein consistency is checked as the provable sandwich:
    # achievability from the concentration route below, weak converse above,
    # plus a positive regression slope at small eps on a fixed family
    from qhtbounds import sup_norm_c

    eps = 0.01
    rho = diag_state([0.7, 0.3])
    sig = diag_state([0.4, 0.6])
    d = rel_entropy(rho, sig)
    c = sup_norm_c(rho, sig)
    h2 = -eps * math.log(eps) - (1 - eps) * math.log(1 - eps)
    rates = []
    for n in range(1, 6):
        beta = optimal_type2(tensor_pow(rho, n), tensor_pow(sig, n), eps)
        rate = -math.log(beta) / n
        rates.append(rate)
        assert rate >= d - math.sqrt(2.0 * math.log(1.0 / eps) / n) * c - 1e-12
        assert rate <= (d + h2 / n) / (1.0 - eps) + 1e-12
    ns = np.arange(1, 6)
    slope = np.polyfit(ns, rates, 1)[0]
    assert slope > 0.0


def test_dimension_guard(monkeypatch):
    # a cost budget that admits dimension 4 but not 8
    monkeypatch.setattr(np_oracle, "MAX_ORACLE_COST", np_oracle.MAX_TYPE2_EVALS * 4**3)
    rho = random_density(8, 12)
    sig = random_density(8, 13)
    with pytest.raises(ResourceError):
        optimal_type2(rho, sig, 0.1)


def test_cost_guard_refuses_before_touching_a_matrix():
    # stand-ins that carry only a dimension: the guard must fire first
    for dim, call in ((4096, lambda a: optimal_type2(a, a, 0.1)), (256, lambda a: error_curve(a, a))):
        with pytest.raises(ResourceError):
            call(SimpleNamespace(dim=dim))
    with pytest.raises(AttributeError):  # dimension 1024 passes the guard
        optimal_type2(SimpleNamespace(dim=1024), SimpleNamespace(dim=1024), 0.1)


def _certified_cases():
    cases = [(f"random d={d}", random_density(d, 10 + d), random_density(d, 100 + d)) for d in (2, 3, 4, 8, 16, 32)]
    for k in (3, 5):
        cases.append((f"fig1 pair ^{k}", tensor_pow(from_bloch(FIG1_A), k), tensor_pow(from_bloch(FIG1_B), k)))
    cases.append(("commuting ^5", tensor_pow(diag_state([0.7, 0.3]), 5), tensor_pow(diag_state([0.4, 0.6]), 5)))
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    m = proj @ random_density(4, 5).matrix @ proj
    cases.append(("singular sigma", random_density(4, 6), density_matrix(m / np.trace(m).real)))
    cases.append(("orthogonal pure states", pure_state([1, 0]), pure_state([0, 1])))
    return cases


CERTIFIED_CASES = _certified_cases()


@pytest.mark.parametrize("name,rho,sig", CERTIFIED_CASES, ids=[c[0] for c in CERTIFIED_CASES])
def test_optimal_type2_certified_against_bisection(name, rho, sig):
    for eps in (1e-12, 0.01, 0.5, 1.0 - 1e-9):
        rep = optimal_type2_report(rho, sig, eps)
        width = max(1e-12 * rep.upper, 1e-15)
        assert rep.value == rep.upper == optimal_type2(rho, sig, eps)
        assert abs(rep.upper - rep.lower) <= width, (eps, rep)
        assert rep.evaluations <= 60, (eps, rep)
        assert abs(rep.value - type2_by_bisection(rho.matrix, sig.matrix, eps)) <= 1e-12, (eps, rep)


def test_optimal_type2_rank_deficient_rho():
    # near u = 0 the dual value divides by u, so the type-I errors must keep
    # their relative precision down to eps = 1e-20. Below eps = 0.01 the closed
    # form is the reference: the bisection takes its type-I errors as one
    # minus the rest and is off by 2e-11 at eps = 1e-12 here.
    psi = [0.6, 0.8]
    rho = pure_state(psi)
    for seed in (3, 7):
        sig = random_density(2, seed)
        for eps in (1e-20, 1e-12, 1e-6, 0.01, 0.5):
            rep = optimal_type2_report(rho, sig, eps)
            assert abs(rep.upper - rep.lower) <= max(1e-12 * rep.upper, 1e-15), (seed, eps, rep)
            assert rep.evaluations <= 60, (seed, eps, rep)
            if eps <= 0.01:
                assert abs(rep.value - pure_qubit_type2(psi, sig.matrix, eps)) <= 1e-12, (seed, eps, rep)
            if eps >= 0.01:
                assert abs(rep.value - type2_by_bisection(rho.matrix, sig.matrix, eps)) <= 1e-12, (seed, eps, rep)
    # pure states in higher dimension: certified at every level
    for d in (3, 8):
        rng = np.random.default_rng(d)
        rho = pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        sig = random_density(d, d)
        for eps in (1e-20, 1e-12, 0.01, 0.5):
            rep = optimal_type2_report(rho, sig, eps)
            assert abs(rep.upper - rep.lower) <= max(1e-12 * rep.upper, 1e-15), (d, eps, rep)
            assert rep.evaluations <= 60, (d, eps, rep)
            if eps >= 0.01:
                assert abs(rep.value - type2_by_bisection(rho.matrix, sig.matrix, eps)) <= 1e-12, (d, eps, rep)


def test_optimal_type2_keeps_tiny_masses_of_a_product():
    # sigma^(x)n has eigenvalues far below d * eps_mach times its largest one;
    # a product's spectrum is exact, so their type-II mass must be kept
    z = 0.999999
    pa, pb = np.array([(1 + z) / 2, (1 - z) / 2]), np.array([(1 - z) / 2, (1 + z) / 2])
    for n in (3, 5):
        rho = tensor_pow(from_bloch((0.0, 0.0, z)), n)
        sig = tensor_pow(from_bloch((0.0, 0.0, -z)), n)
        p_n, q_n = pa, pb
        for _ in range(n - 1):
            p_n, q_n = np.kron(p_n, pa), np.kron(q_n, pb)
        for eps in (0.01, 0.5, 0.9):
            ref = classical_beta(p_n, q_n, eps)
            assert ref > 0.0
            assert abs(optimal_type2(rho, sig, eps) - ref) <= 1e-12 * ref, (n, eps)


def test_optimal_type2_uncertified_bracket_raises(monkeypatch):
    # a lower end above the upper one is no certificate either
    family = np_oracle._TestFamily(random_density(2, 1), random_density(2, 2), 1)
    br = np_oracle._Bracket(family, 0.1)
    br.lower, br.upper = 0.5 + 1e-9, 0.5
    assert not br.certified()
    with pytest.raises(ConvergenceError):
        br.report()
    # a bracket still open when the evaluation budget runs out raises
    rho, sig = pure_state([0.6, 0.8]), random_density(2, 3)
    assert optimal_type2_report(rho, sig, 1e-12).evaluations > 2
    monkeypatch.setattr(np_oracle, "MAX_TYPE2_EVALS", 2)
    with pytest.raises(ConvergenceError):
        optimal_type2(rho, sig, 1e-12)


def test_curve_meets_its_tolerance_on_the_dim8_pair():
    rho = tensor_pow(from_bloch(FIG1_A), 3)
    sig = tensor_pow(from_bloch(FIG1_B), 3)
    cur = error_curve(rho, sig)
    assert cur.gap <= np_oracle.CURVE_REFINE_TOL
    assert cur.points <= np_oracle.MAX_CURVE_POINTS
    assert (cur.points, cur.alphas.size) == (9015, 9017)
    excess = [cur.beta_at(e) - optimal_type2(rho, sig, e) for e in np.linspace(0.01, 0.99, 99)]
    assert max(excess) <= np_oracle.CURVE_REFINE_TOL
    assert min(excess) >= -1e-12


def test_curve_too_tight_tolerance_raises():
    with pytest.raises(ConvergenceError):
        error_curve(random_density(2, 21), random_density(2, 22), refine_tol=1e-13)


def test_curve_rejects_a_negative_tolerance():
    for tol in (-1.0, math.nan):
        with pytest.raises(DomainError):
            error_curve(random_density(2, 21), random_density(2, 22), refine_tol=tol)


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        optimal_type2(random_density(2, 1), random_density(3, 1), 0.1)


def test_eps_validation():
    rho = random_density(2, 14)
    for eps in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DomainError):
            optimal_type2(rho, rho, eps)


def test_d_h_data_processing_under_partial_trace():
    # discarding a subsystem can only hurt discrimination
    from qhtbounds import density_matrix as dm
    from qhtbounds.numerics import partial_trace

    for seed in range(6):
        rho = random_density(4, 900 + seed)
        sig = random_density(4, 950 + seed)
        rho_a = dm(partial_trace(rho.matrix, [2, 2], [0]))
        sig_a = dm(partial_trace(sig.matrix, [2, 2], [0]))
        for eps in (0.1, 0.4):
            assert d_h(rho_a, sig_a, eps) <= d_h(rho, sig, eps) + 1e-10


def _stack_vs_single(rho, sig, tol):
    family = np_oracle._TestFamily(rho, sig, 1000)
    nodes = np.array(family.candidate_u())
    rng = np.random.default_rng(rho.dim)
    for u, node in ((nodes, True), (np.sort(rng.random(40)), False)):
        stacked = family.points_at(u, node)
        for t in range(u.size):
            single = family.points_at(u[t : t + 1], node)
            for x, y in zip(stacked, single):
                if tol == 0.0:
                    assert x[t].tobytes() == y[0].tobytes(), (u[t], node)
                else:
                    assert np.abs(x[t] - y[0]).max() <= tol, (u[t], node)
            # the sums keep the one-threshold order, so CLI output is unchanged
            strict, incl, left_out = points_one_at_a_time(rho.matrix, sig.matrix, family._roots, float(u[t]), node)
            assert (tuple(stacked[0][t]), tuple(stacked[1][t]), stacked[2][t]) == (strict, incl, left_out)
    assert family.evaluations == 2 * (nodes.size + 40)


def test_points_at_stack_matches_single_thresholds(monkeypatch):
    pairs = [
        (from_bloch(FIG1_A), from_bloch(FIG1_B), 0.0),
        (tensor_pow(from_bloch(FIG1_A), 3), tensor_pow(from_bloch(FIG1_B), 3), 1e-15),
        (random_density(4, 41), random_density(4, 42), 1e-15),
    ]
    for rho, sig, tol in pairs:
        _stack_vs_single(rho, sig, tol)
        # in chunks of two thresholds: the third dim-8 node, in the second
        # chunk, leaves out a positive mass
        monkeypatch.setattr(np_oracle, "STACK_BYTES", 2 * 16 * rho.dim**2)
        _stack_vs_single(rho, sig, tol)
        monkeypatch.undo()


def test_split_point_falls_back_to_the_midpoint_near_an_end():
    # tangent points 0.4 (inside), 0.203 (within 1% of the width 0.6 of
    # u_lo = 0.2) and 1 / 1.1 (beyond u_hi = 0.8); the midpoint is 0.5
    slopes = np.array([-1.5, 1.0 - 1.0 / 0.203, -0.1])
    p_lo = np.array([[0.1, 0.5]] * 3)
    p_hi = np.column_stack([np.full(3, 0.3), 0.5 + 0.2 * slopes])
    u_mid = np_oracle._split_points(np.full(3, 0.2), p_lo, np.full(3, 0.8), p_hi)
    assert np.allclose(u_mid, [0.4, 0.5, 0.5], rtol=0.0, atol=1e-12)


def test_curve_checks_its_point_cap_before_each_round(monkeypatch):
    rho, sig = tensor_pow(from_bloch(FIG1_A), 3), tensor_pow(from_bloch(FIG1_B), 3)
    # the full curve needs 9,015 evaluations: that cap admits it exactly
    monkeypatch.setattr(np_oracle, "MAX_CURVE_POINTS", 9015)
    assert error_curve(rho, sig).points == 9015
    eigh = np.linalg.eigh
    for cap in (9014, 3000):
        monkeypatch.setattr(np_oracle, "MAX_CURVE_POINTS", cap)
        taken = []

        def counting_eigh(a):
            taken.append(1 if a.ndim == 2 else a.shape[0])
            assert sum(taken) <= cap, "a stacked call went past the cap"
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        with pytest.raises(ConvergenceError):
            error_curve(rho, sig)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert len(taken) > 1 and sum(taken) <= cap


def test_curve_is_independent_of_the_chunk_size(monkeypatch):
    for k, points in ((1, 3227), (3, 9015)):
        rho, sig = tensor_pow(from_bloch(FIG1_A), k), tensor_pow(from_bloch(FIG1_B), k)
        whole = error_curve(rho, sig)
        assert whole.points == points
        # 7 thresholds per chunk at dim 8 (2,048 by default), 112 at dim 2
        monkeypatch.setattr(np_oracle, "STACK_BYTES", 7 * 16 * 8 * 8)
        chunked = error_curve(rho, sig)
        monkeypatch.undo()
        assert chunked.alphas.tobytes() == whole.alphas.tobytes()
        assert chunked.betas.tobytes() == whole.betas.tobytes()
        assert (chunked.gap, chunked.points) == (whole.gap, whole.points)
