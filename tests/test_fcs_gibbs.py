import math

import numpy as np
import pytest

from oracles import ising_chain_probs, kraus_step_by_kron, markov_path_probs, minimal_r_by_bisection
from qhtbounds import (
    CertificationError,
    DomainError,
    GeneratingTriple,
    GibbsChain,
    ResourceError,
    build_fcs,
    build_gibbs,
    certify_family,
    commutative_fcs,
    decoupling_kernel,
    density_matrix,
    family_from_json,
    fcs_family,
    gibbs_family,
    maximally_mixed,
    minimal_lower_R,
    minimal_upper_R,
    product_family,
    pure_state,
    random_density,
    state_to_json,
    tensor_pow,
)
from qhtbounds import fcs_gibbs
from qhtbounds.numerics import partial_trace

ZZ = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)


def diag_state(probs):
    return density_matrix(np.diag(np.asarray(probs, dtype=complex)))


def qubit_pure(idx):
    return pure_state([1, 0]) if idx == 0 else pure_state([0, 1])


def markov_triple(transition, initial):
    states = [[qubit_pure(y) for y in range(2)] for _ in range(2)]
    return commutative_fcs(transition, states, initial)


def test_triple_validation():
    bad = [np.zeros((4, 2), dtype=complex)]
    with pytest.raises(DomainError):
        GeneratingTriple(2, 2, (tuple(bad),), maximally_mixed(2))
    # trace preserving but not leaving the auxiliary state invariant
    k = np.zeros((4, 2), dtype=complex)
    k[0, 0] = 1.0
    k[1, 1] = 1.0
    rho_aux = density_matrix(np.diag([0.7, 0.3]).astype(complex))
    tri = GeneratingTriple(2, 2, ((k,),), rho_aux)  # Tr_A E(rho) = rho here
    assert tri.site_marginal(1).dim == 2
    k2 = np.zeros((4, 2), dtype=complex)
    k2[0, 0] = 1.0
    k2[3, 1] = 1.0
    shuffled = np.zeros((4, 2), dtype=complex)
    shuffled[0, 1] = 1.0
    shuffled[3, 0] = 1.0
    with pytest.raises(DomainError):
        GeneratingTriple(2, 2, ((shuffled,),), rho_aux)


def test_build_fcs_decoupling_gives_product():
    site = random_density(2, 1)
    aux = random_density(2, 2)
    triple = decoupling_kernel(site, aux)
    rho3, marg3 = build_fcs(triple, 3)
    assert np.abs(rho3.matrix - tensor_pow(site, 3).matrix).max() <= 1e-12
    assert np.abs(marg3.matrix - site.matrix).max() <= 1e-12


def test_build_fcs_aux_dim_one_is_product():
    site = random_density(2, 3)
    kraus = tuple(
        math.sqrt(w) * vec.reshape(-1, 1)
        for w, vec in zip(site.eigenvalues, site.eigenvectors.T)
        if w > 1e-14
    )
    triple = GeneratingTriple(2, 1, (kraus,), maximally_mixed(1))
    rho2, marg = build_fcs(triple, 2)
    assert np.abs(rho2.matrix - tensor_pow(site, 2).matrix).max() <= 1e-12
    assert np.abs(marg.matrix - site.matrix).max() <= 1e-12


def test_build_fcs_marginal_consistency():
    tri = markov_triple(np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0.6, 0.4]))
    fam = fcs_family(tri)
    for n in (2, 3, 4):
        reduced = partial_trace(fam.state(n).matrix, [2] * n, list(range(n - 1)))
        assert np.abs(reduced - fam.state(n - 1).matrix).max() <= 1e-9


@pytest.mark.parametrize("left_dim", [1, 2, 8])
def test_apply_step_matches_kron_reference(left_dim):
    # site and auxiliary dimensions differ so a swapped reshape would show
    triple = decoupling_kernel(random_density(2, 11), random_density(3, 12))
    tau = random_density(left_dim * 3, 13 + left_dim).matrix
    got = triple.apply_step(1, tau)
    want = kraus_step_by_kron(triple.kraus_for_step(1), tau, left_dim)
    assert got.shape == (left_dim * 6, left_dim * 6)
    assert np.abs(got - want).max() <= 1e-14


def test_apply_step_non_homogeneous_two_steps():
    # two kernels sharing the invariant uniform memory state
    uniform = np.array([0.5, 0.5])
    first = commutative_fcs(
        np.array([[0.8, 0.2], [0.2, 0.8]]),
        [[random_density(2, 20 + i + 2 * j) for j in range(2)] for i in range(2)],
        uniform,
    )
    second = commutative_fcs(
        np.array([[0.3, 0.7], [0.7, 0.3]]),
        [[random_density(2, 30 + i + 2 * j) for j in range(2)] for i in range(2)],
        uniform,
    )
    triple = GeneratingTriple(2, 2, first.kraus_steps + second.kraus_steps, first.rho_aux)
    tau = triple.rho_aux.matrix
    for step in (1, 2):
        want = kraus_step_by_kron(triple.kraus_for_step(step), tau, 2 ** (step - 1))
        got = triple.apply_step(step, tau)
        assert np.abs(got - want).max() <= 1e-14
        tau = want
    rho2, marg2 = build_fcs(triple, 2)
    assert np.abs(rho2.matrix - partial_trace(tau, [2, 2, 2], keep=[0, 1])).max() <= 1e-14
    assert np.abs(triple.chain_state(tau).matrix - rho2.matrix).max() == 0.0
    lifted = kraus_step_by_kron(second.kraus_steps[0], triple.rho_aux.matrix, 1)
    assert np.abs(marg2.matrix - partial_trace(lifted, [2, 2], keep=[0])).max() <= 1e-14


def test_build_gibbs_trivial_cases():
    flat = build_gibbs(GibbsChain(2, np.zeros((4, 4), dtype=complex), 0.5), 3)
    assert np.abs(flat.matrix - np.eye(8) / 8).max() <= 1e-12
    single = build_gibbs(GibbsChain(2, ZZ, 0.7), 1)
    assert np.abs(single.matrix - np.eye(2) / 2).max() <= 1e-14


def test_build_gibbs_matches_classical_ising():
    for beta in (0.1, 0.3):
        for n in (2, 3, 4):
            rho = build_gibbs(GibbsChain(2, ZZ, beta), n)
            assert np.abs(np.diag(rho.matrix).real - ising_chain_probs(beta, n)).max() <= 1e-12


def test_commutative_fcs_single_letter_is_iid():
    site = random_density(2, 4)
    tri = commutative_fcs(np.array([[1.0]]), [[site]], np.array([1.0]))
    assert tri.lower_condition
    fam = fcs_family(tri)
    certify_family(fam, 3)
    assert abs(fam.r_upper - 1.0) <= 1e-9
    assert abs(fam.r_lower - 1.0) <= 1e-9
    assert np.abs(fam.state(3).matrix - tensor_pow(site, 3).matrix).max() <= 1e-10


def test_commutative_fcs_zero_entry_fails_lower_condition():
    tri = markov_triple(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    assert not tri.lower_condition
    fam = fcs_family(tri)
    assert minimal_lower_R(fam, 3) == math.inf


def test_commutative_fcs_markov_measure_on_diagonal():
    t = np.array([[0.8, 0.2], [0.3, 0.7]])
    p = np.array([0.6, 0.4])
    fam = fcs_family(markov_triple(t, p))
    for n in (2, 3):
        got = np.diag(fam.state(n).matrix).real
        assert np.abs(got - markov_path_probs(t, p, n)).max() <= 1e-12


def test_commutative_fcs_validation():
    site = random_density(2, 5)
    with pytest.raises(DomainError):
        commutative_fcs(np.array([[0.5, 0.4], [0.5, 0.5]]), [[site] * 2] * 2, [0.5, 0.5])
    with pytest.raises(DomainError):
        commutative_fcs(np.array([[0.5, 0.5], [0.5, 0.5]]), [[site] * 2] * 2, [0.9, 0.1])


def test_minimal_upper_r_product_and_flat_gibbs():
    fam = product_family(random_density(2, 6))
    assert abs(minimal_upper_R(fam, 4) - 1.0) <= 1e-9
    assert abs(minimal_lower_R(fam, 4) - 1.0) <= 1e-9
    flat = gibbs_family(GibbsChain(2, np.zeros((4, 4), dtype=complex), 0.4))
    assert abs(minimal_upper_R(flat, 4) - 1.0) <= 1e-9
    assert abs(minimal_lower_R(flat, 4) - 1.0) <= 1e-9


@pytest.mark.parametrize("beta", [0.1, 0.2])
def test_minimal_r_zz_gibbs_closed_form(beta):
    # open-chain transfer matrix gives R_up = e^beta / cosh(beta) and
    # R_low = e^beta cosh(beta)
    fam = gibbs_family(GibbsChain(2, ZZ, beta))
    r_up = minimal_upper_R(fam, 4)
    r_low = minimal_lower_R(fam, 4)
    assert abs(r_up - math.exp(beta) / math.cosh(beta)) <= 1e-10
    assert abs(r_low - math.exp(beta) * math.cosh(beta)) <= 1e-10
    assert r_up > 1.0 and r_low > 1.0


def test_minimal_r_grows_with_beta():
    values = [minimal_upper_R(gibbs_family(GibbsChain(2, ZZ, b)), 3) for b in (0.1, 0.2, 0.4)]
    assert values[0] < values[1] < values[2]


def test_minimal_r_pencil_vs_bisection_oracle():
    fam = gibbs_family(GibbsChain(2, ZZ, 0.2))
    fam.grow(3)
    r_pencil = minimal_upper_R(fam, 3)
    r_direct = 1.0
    for rho_k, prod_k in fam.step_pairs(3):
        r_direct = max(r_direct, minimal_r_by_bisection(rho_k.matrix, prod_k.matrix))
    assert abs(r_pencil - r_direct) <= 1e-8


def test_minimal_r_direct_psd_check():
    fam = gibbs_family(GibbsChain(2, ZZ, 0.2))
    r = minimal_upper_R(fam, 4)
    for rho_k, prod_k in fam.step_pairs(4):
        w = np.linalg.eigvalsh(r * prod_k.matrix - rho_k.matrix)
        assert w[0] >= -1e-10


def test_minimal_r_under_reported_pencil_is_caught(monkeypatch):
    real = fcs_gibbs.pencil_eigvals
    monkeypatch.setattr(fcs_gibbs, "pencil_eigvals", lambda top, w, u: real(top, w, u) / 2.0)
    fam = gibbs_family(GibbsChain(2, ZZ, 0.2))
    for certifier in (minimal_upper_R, minimal_lower_R):
        with pytest.raises(CertificationError, match="direct"):
            certifier(fam, 4)


def test_minimal_upper_r_rejects_singular_product():
    fam = fcs_family(markov_triple(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5])))
    with pytest.raises(CertificationError):
        minimal_upper_R(fam, 3)


def test_certify_family_and_recertification_monotone():
    t = np.array([[0.7, 0.3], [0.4, 0.6]])
    p = np.array([4.0 / 7.0, 3.0 / 7.0])
    states = [[random_density(2, 30 + i + 2 * j) for j in range(2)] for i in range(2)]
    tri = commutative_fcs(t, states, p)
    assert tri.lower_condition
    fam = fcs_family(tri)
    certify_family(fam, 2)
    r2 = fam.r_upper
    certify_family(fam, 4)
    assert fam.r_upper >= r2 - 1e-12
    assert math.isfinite(fam.r_lower)
    assert fam.certified_n == 4


def test_all_equal_site_states_are_iid():
    site = random_density(2, 40)
    t = np.array([[0.7, 0.3], [0.4, 0.6]])
    p = np.array([4.0 / 7.0, 3.0 / 7.0])
    tri = commutative_fcs(t, [[site, site], [site, site]], p)
    fam = fcs_family(tri)
    certify_family(fam, 3)
    assert abs(fam.r_upper - 1.0) <= 1e-9
    assert abs(fam.r_lower - 1.0) <= 1e-9


def test_family_budget_guard():
    fam = product_family(random_density(2, 41), max_dim=8)
    with pytest.raises(ResourceError):
        fam.state(4)


def test_family_from_json_all_kinds(tmp_path):
    site = random_density(2, 42)
    prod = family_from_json({"type": "product", "state": state_to_json(site)})
    assert np.abs(prod.state(2).matrix - tensor_pow(site, 2).matrix).max() <= 1e-12
    explicit = family_from_json(
        {"type": "product", "factors": [state_to_json(site), state_to_json(random_density(2, 43))]}
    )
    assert explicit.state(2).dim == 4
    h_entries = [[float(v.real), float(v.imag)] for v in ZZ.reshape(-1)]
    gibbs = family_from_json(
        {"type": "gibbs", "site_dim": 2, "beta": 0.2, "h": {"dim": 4, "entries": h_entries}}
    )
    assert abs(minimal_upper_R(gibbs, 3) - math.exp(0.2) / math.cosh(0.2)) <= 1e-10
    t = [[0.7, 0.3], [0.4, 0.6]]
    p = [4.0 / 7.0, 3.0 / 7.0]
    states = [[state_to_json(random_density(2, 50 + i + 2 * j)) for j in range(2)] for i in range(2)]
    com = family_from_json({"type": "commutative_fcs", "T": t, "p": p, "states": states})
    assert com.state(2).dim == 4
    tri = decoupling_kernel(site, random_density(2, 44))
    kraus_json = [
        [
            {"shape": [4, 2], "entries": [[float(v.real), float(v.imag)] for v in k.reshape(-1)]}
            for k in tri.kraus_steps[0]
        ]
    ]
    fcs = family_from_json(
        {
            "type": "fcs",
            "site_dim": 2,
            "aux_dim": 2,
            "rho_aux": state_to_json(tri.rho_aux),
            "kraus": kraus_json,
        }
    )
    assert np.abs(fcs.state(2).matrix - tensor_pow(site, 2).matrix).max() <= 1e-10
    with pytest.raises(DomainError):
        family_from_json({"type": "bogus"})
    with pytest.raises(DomainError):
        family_from_json([1, 2])


def test_choi_kraus_round_trip():
    from qhtbounds import choi_from_kraus, kraus_from_choi

    site = random_density(2, 60)
    aux = random_density(2, 61)
    triple = decoupling_kernel(site, aux)
    out_dim, in_dim = 4, 2
    choi = choi_from_kraus(triple.kraus_steps[0], out_dim, in_dim)
    back = kraus_from_choi(choi, out_dim, in_dim)
    # Kraus sets are gauge equivalent; the map itself must round trip
    assert np.abs(choi_from_kraus(back, out_dim, in_dim) - choi).max() <= 1e-10
    rebuilt = GeneratingTriple(2, 2, (back,), aux)
    rho2, marg = build_fcs(rebuilt, 2)
    assert np.abs(rho2.matrix - tensor_pow(site, 2).matrix).max() <= 1e-10
    with pytest.raises(DomainError):
        kraus_from_choi(np.eye(3), 2, 2)


def test_family_from_json_accepts_choi(tmp_path):
    from qhtbounds import choi_from_kraus

    site = random_density(2, 62)
    aux = random_density(2, 63)
    triple = decoupling_kernel(site, aux)
    choi = choi_from_kraus(triple.kraus_steps[0], 4, 2)
    spec = {
        "type": "fcs",
        "site_dim": 2,
        "aux_dim": 2,
        "rho_aux": state_to_json(aux),
        "choi": [
            {"shape": [8, 8], "entries": [[float(v.real), float(v.imag)] for v in choi.reshape(-1)]}
        ],
    }
    fam = family_from_json(spec)
    assert np.abs(fam.state(2).matrix - tensor_pow(site, 2).matrix).max() <= 1e-10
