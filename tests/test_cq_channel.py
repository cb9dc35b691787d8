import itertools
import math

import numpy as np
import pytest

from oracles import classical_beta, holevo_by_rel_entropy, minimal_r_by_bisection
from qhtbounds import (
    AdmissibilityError,
    CertificationError,
    CQChannel,
    CQChannelFamily,
    DensityMatrix,
    DomainError,
    InvalidStateError,
    ResourceError,
    SupportError,
    capacity_lower_factorized,
    capacity_lower_memoryless,
    capacity_moderate,
    certify_family,
    channel_from_json,
    commutative_fcs,
    d_h,
    density_matrix,
    fcs_family,
    from_bloch,
    holevo_capacity,
    kernel_family,
    lifted_states,
    maximally_mixed,
    memoryless_family,
    minimal_lower_R,
    minimal_upper_R,
    product_state,
    pure_state,
    random_density,
    rel_entropy,
    state_to_json,
    tensor_pow,
    wr_lower_bound,
)
from qhtbounds import fcs_gibbs
from qhtbounds.cq_channel import capacity_report_to_json


def bsc_channel(p):
    return CQChannel(
        ("0", "1"),
        {
            "0": density_matrix(np.diag([1 - p, p]).astype(complex)),
            "1": density_matrix(np.diag([p, 1 - p]).astype(complex)),
        },
    )


def binary_entropy(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def two_pure_channel(overlap):
    v0 = np.array([1.0, 0.0])
    v1 = np.array([overlap, math.sqrt(1.0 - overlap**2)])
    return CQChannel(("a", "b"), {"a": pure_state(v0), "b": pure_state(v1)})


def faithful_pair_channel():
    return CQChannel(
        ("x", "y"),
        {"x": from_bloch((0.5, 0.0, 0.3)), "y": from_bloch((-0.4, 0.2, -0.3))},
    )


def memory_kernel_family():
    def kernel(tmat, seed):
        states = [[random_density(2, seed + i + 2 * j) for j in range(2)] for i in range(2)]
        tri = commutative_fcs(tmat, states, [0.5, 0.5])
        return list(tri.kraus_steps[0])

    kernels = {
        "0": kernel(np.array([[0.8, 0.2], [0.2, 0.8]]), 100),
        "1": kernel(np.array([[0.3, 0.7], [0.7, 0.3]]), 200),
    }
    return kernel_family(kernels, maximally_mixed(2))


def test_lifted_states_singleton():
    ch = CQChannel(("a",), {"a": random_density(2, 0)})
    rho, sig = lifted_states(ch, {"a": 1.0})
    assert np.abs(rho.matrix - sig.matrix).max() <= 1e-14
    assert abs(rel_entropy(rho, sig)) <= 1e-10


def test_lifted_states_blockwise_divergence():
    ch = faithful_pair_channel()
    prior = {"x": 0.3, "y": 0.7}
    rho, sig = lifted_states(ch, prior)
    avg = ch.average(prior)
    expected = sum(prior[x] * rel_entropy(ch.outputs[x], avg) for x in ch.alphabet)
    assert abs(rel_entropy(rho, sig) - expected) <= 1e-9


def test_lifted_states_identical_outputs():
    out = random_density(2, 1)
    ch = CQChannel(("a", "b"), {"a": out, "b": out})
    rho, sig = lifted_states(ch, {"a": 0.5, "b": 0.5})
    assert abs(rel_entropy(rho, sig)) <= 1e-10


def test_holevo_identical_outputs_zero():
    out = random_density(2, 2)
    ch = CQChannel(("a", "b"), {"a": out, "b": out})
    rep = holevo_capacity(ch)
    assert abs(rep.chi_star) <= 1e-10


@pytest.mark.parametrize("p", [0.05, 0.1, 0.25])
def test_holevo_bsc(p):
    rep = holevo_capacity(bsc_channel(p))
    assert abs(rep.chi_star - (math.log(2.0) - binary_entropy(p))) <= 1e-6
    assert rep.duality_gap <= 1e-8


def test_holevo_two_pure_states_closed_form_and_grid():
    s = 0.6
    rep = holevo_capacity(two_pure_channel(s))
    assert abs(rep.chi_star - binary_entropy((1 + s) / 2)) <= 1e-6
    # exhaustive prior grid oracle
    ch = two_pure_channel(s)
    best = 0.0
    for w in np.linspace(0.0001, 0.9999, 10_000):
        prior = {"a": w, "b": 1.0 - w}
        avg = ch.average(prior)
        val = w * rel_entropy(ch.outputs["a"], avg) + (1 - w) * rel_entropy(ch.outputs["b"], avg)
        best = max(best, val)
    assert abs(rep.chi_star - best) <= 1e-6
    # grid oracle for the variance at the converged prior
    assert rep.v_min >= 0.0


def test_holevo_divergence_centre_duality():
    for ch in (bsc_channel(0.15), faithful_pair_channel()):
        rep = holevo_capacity(ch)
        divs = [rel_entropy(ch.outputs[x], rep.sigma_star) for x in ch.alphabet]
        assert max(divs) <= rep.chi_star + 1e-8
        avg_div = sum(rep.prior[x] * d for x, d in zip(ch.alphabet, divs))
        assert avg_div >= rep.chi_star - 1e-8


def test_holevo_invariance_relabel_and_unitary():
    ch = faithful_pair_channel()
    rep = holevo_capacity(ch)
    swapped = CQChannel(("y", "x"), {"y": ch.outputs["y"], "x": ch.outputs["x"]})
    assert abs(holevo_capacity(swapped).chi_star - rep.chi_star) <= 1e-9
    theta = 0.7
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    rotated = CQChannel(
        ch.alphabet,
        {x: density_matrix(u @ ch.outputs[x].matrix @ u.conj().T) for x in ch.alphabet},
    )
    assert abs(holevo_capacity(rotated).chi_star - rep.chi_star) <= 1e-9


def random_channel(d, m, seed):
    letters = tuple(f"x{i}" for i in range(m))
    return CQChannel(letters, {x: random_density(d, seed + i) for i, x in enumerate(letters)})


def subspace_channel():
    # qubit outputs pushed into a 2-dim subspace of C^4: the mean output is rank 2
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v, _ = np.linalg.qr(g)
    outs = {x: density_matrix(v @ random_density(2, 40 + i).matrix @ v.conj().T) for i, x in enumerate("abc")}
    return CQChannel(tuple("abc"), outs)


def vanishing_letter_channel():
    # the maximally mixed letter sits inside the BSC's hull; its weight decays to 0
    ch = bsc_channel(0.1)
    return CQChannel(("0", "1", "m"), dict(ch.outputs, m=maximally_mixed(2)))


HOLEVO_CASES = {
    **{f"random-d{d}-m{m}": random_channel(d, m, 100 * d + m) for d in (2, 4, 6) for m in (2, 8, 16)},
    "bsc": bsc_channel(0.1),
    "two-pure": two_pure_channel(0.6),
    "subspace": subspace_channel(),
    "vanishing-letter": vanishing_letter_channel(),
}


@pytest.mark.parametrize("ch", HOLEVO_CASES.values(), ids=HOLEVO_CASES.keys())
def test_holevo_matches_per_letter_loop(ch):
    rep = holevo_capacity(ch)
    ref = holevo_by_rel_entropy(ch)
    assert rep.iterations == ref.iterations
    assert abs(rep.chi_star - ref.chi_star) <= 1e-13
    assert max(abs(rep.prior[x] - ref.prior[x]) for x in ch.alphabet) <= 1e-13
    assert abs(rep.duality_gap - ref.duality_gap) <= 1e-14
    assert abs(rep.v_min - ref.v_min) <= 1e-12


def test_holevo_test_channels_reach_their_branches():
    assert subspace_channel().average({x: 1 / 3 for x in "abc"}).eigenvalues[1] <= 1e-14
    assert holevo_capacity(vanishing_letter_channel()).prior["m"] <= 1e-9


def test_holevo_one_eigh_per_iteration(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for ch in (random_channel(4, 8, 408), subspace_channel(), vanishing_letter_channel()):
        calls.clear()
        rep = holevo_capacity(ch)
        assert len(calls) == rep.iterations + 1


def test_holevo_rejects_letter_outside_mean_support():
    # at the uniform start the odd letter's weight 1/201 puts the mean's |2>
    # eigenvalue below the support threshold, while the letter itself keeps
    # mass 1.5e-10 there; the first iteration (gap far above tolerance)
    # rejects it in both loops, as rel_entropy does
    letters = tuple(f"x{i}" for i in range(201))
    outs = dict.fromkeys(letters[:150], pure_state([1.0, 0.0, 0.0]))
    outs.update(dict.fromkeys(letters[150:200], pure_state([0.0, 1.0, 0.0])))
    outs[letters[-1]] = density_matrix(np.diag([1 - 1.5e-10, 0.0, 1.5e-10]).astype(complex))
    ch = CQChannel(letters, outs)
    for solve in (holevo_capacity, holevo_by_rel_entropy):
        with pytest.raises(SupportError, match="support violation"):
            solve(ch, max_iter=1)


@pytest.mark.parametrize(
    "diag, message", [([1.1, -0.1], "not positive semidefinite"), ([0.9, 0.6], "trace")]
)
def test_holevo_keeps_state_checks_on_the_mean(diag, message):
    # an output built around the validating constructor makes an invalid mean
    m = np.diag(diag).astype(complex)
    bad = DensityMatrix(m, *np.linalg.eigh(m))
    ch = CQChannel(("a", "b"), {"a": pure_state([1.0, 0.0]), "b": bad})
    for solve in (holevo_capacity, holevo_by_rel_entropy):
        with pytest.raises(InvalidStateError, match=message):
            solve(ch, max_iter=1)


def test_partial_prior_counts_missing_letters_as_zero():
    ch = faithful_pair_channel()
    full = {"x": 1.0, "y": 0.0}
    rho, sig = lifted_states(ch, {"x": 1.0})
    rho_full, sig_full = lifted_states(ch, full)
    assert np.array_equal(rho.matrix, rho_full.matrix)
    assert np.array_equal(sig.matrix, sig_full.matrix)
    assert np.array_equal(ch.average({"x": 1.0}).matrix, ch.output("x").matrix)
    assert wr_lower_bound(ch, 0.2, 0.05, {"x": 1.0}) == wr_lower_bound(ch, 0.2, 0.05, full)


def test_wr_bound_singleton_alphabet():
    ch = CQChannel(("a",), {"a": random_density(2, 3)})
    eps, epsp = 0.3, 0.1
    got = wr_lower_bound(ch, eps, epsp, {"a": 1.0})
    expected = -math.log(1.0 - epsp) - math.log(4.0 * eps / (eps - epsp))
    assert abs(got - expected) <= 1e-10
    with pytest.raises(DomainError):
        wr_lower_bound(ch, 0.1, 0.3, {"a": 1.0})


def test_wr_bound_monotone_in_eps():
    ch = faithful_pair_channel()
    rep = holevo_capacity(ch)
    vals = [wr_lower_bound(ch, e, 0.05, rep.prior) for e in (0.1, 0.2, 0.4, 0.8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_blockwise_dh_matches_classical_blocks():
    # block-diagonal commuting lifted pair reduces to a classical NP problem
    ch = bsc_channel(0.2)
    prior = {"0": 0.5, "1": 0.5}
    rho, sig = lifted_states(ch, prior)
    p_diag = np.real(np.diag(rho.matrix))
    q_diag = np.real(np.diag(sig.matrix))
    for eps in (0.05, 0.2, 0.5):
        got = d_h(rho, sig, eps)
        ref = -math.log(classical_beta(p_diag, q_diag, eps))
        assert abs(got - ref) <= 1e-9


def test_capacity_lower_memoryless_zero_capacity_channel():
    out = random_density(2, 4)
    ch = CQChannel(("a", "b"), {"a": out, "b": out})
    val = capacity_lower_memoryless(ch, 4, 0.2, 0.05)
    assert val <= 0.0  # chi* = 0 and both subtracted terms are nonnegative


def test_capacity_lower_memoryless_chain_vs_exact_wr():
    for ch in (bsc_channel(0.1), faithful_pair_channel()):
        rep = holevo_capacity(ch)
        rho, sig = lifted_states(ch, rep.prior)
        eps, epsp = 0.2, 0.05
        penalty = math.log(4.0 * eps / (eps - epsp))
        for n in (1, 2, 3):
            bound = capacity_lower_memoryless(ch, n, eps, epsp, rep)
            exact = d_h(tensor_pow(rho, n), tensor_pow(sig, n), epsp) - penalty
            assert bound <= exact


def test_capacity_lower_memoryless_superadditive_scaling():
    ch = bsc_channel(0.05)
    rep = holevo_capacity(ch)
    n = 4
    one = capacity_lower_memoryless(ch, n, 0.2, 0.05, rep)
    two = capacity_lower_memoryless(ch, 2 * n, 0.2, 0.05, rep)
    assert two - 2.0 * one > 0.0


def test_capacity_lower_factorized_reduces_and_continuous():
    ch = bsc_channel(0.1)
    rep = holevo_capacity(ch)
    fam = memoryless_family(ch)
    # the specialization to the memoryless bound holds on the square-root
    # branch, i.e. for eps' >= exp(-n c_p^2 / 2)
    for n in (1, 3):
        assert abs(
            capacity_lower_factorized(fam, n, 0.5, 0.2, rep)
            - capacity_lower_memoryless(ch, n, 0.5, 0.2, rep)
        ) <= 1e-12
    rho, sig = lifted_states(ch, rep.prior)
    from qhtbounds import sup_norm_c

    c_p = sup_norm_c(rho, sig)
    fam.r_upper = 1.01
    n = 2
    eps_star = 1.01**n * math.exp(-n * c_p**2 / 2.0)
    lo = capacity_lower_factorized(fam, n, 0.5, eps_star * (1 - 1e-12), rep)
    hi = capacity_lower_factorized(fam, n, 0.5, eps_star * (1 + 1e-12), rep)
    assert abs(lo - hi) <= 1e-9


def test_capacity_lower_factorized_chain_vs_exact_wr():
    fam = memory_kernel_family()
    certify_family(fam, 3, "upper")
    rep = holevo_capacity(fam.base)
    eps, epsp = 0.2, 0.05
    penalty = math.log(4.0 * eps / (eps - epsp))
    letters = fam.base.alphabet
    d = fam.base.dim
    for n in (1, 2, 3):
        bound = capacity_lower_factorized(fam, n, eps, epsp, rep)
        strings = list(itertools.product(letters, repeat=n))
        m = len(strings)
        rho = np.zeros((m * d**n, m * d**n), dtype=complex)
        sig = np.zeros_like(rho)
        avg = sum(
            math.prod(rep.prior[c] for c in s) * fam.n_letter_output(s).matrix for s in strings
        )
        for i, s in enumerate(strings):
            w = math.prod(rep.prior[c] for c in s)
            sl = slice(i * d**n, (i + 1) * d**n)
            rho[sl, sl] = w * fam.n_letter_output(s).matrix
            sig[sl, sl] = w * avg
        exact = d_h(density_matrix(rho), density_matrix(sig), epsp) - penalty
        assert bound <= exact


def test_channel_factorization_r_memoryless_is_one():
    fam = memoryless_family(faithful_pair_channel())
    assert abs(minimal_upper_R(fam, 3) - 1.0) <= 1e-9


def test_channel_factorization_r_single_letter_matches_state_family():
    t = np.array([[0.7, 0.3], [0.4, 0.6]])
    p = np.array([4.0 / 7.0, 3.0 / 7.0])
    states = [[random_density(2, 300 + i + 2 * j) for j in range(2)] for i in range(2)]
    tri = commutative_fcs(t, states, p)
    fam_states = fcs_family(tri)
    r_state = minimal_upper_R(fam_states, 3)
    fam_channel = kernel_family({"0": list(tri.kraus_steps[0])}, tri.rho_aux)
    r_channel = minimal_upper_R(fam_channel, 3)
    assert abs(r_state - r_channel) <= 1e-10
    for n in (1, 2, 3):
        diff = fam_channel.n_letter_output(("0",) * n).matrix - fam_states.state(n).matrix
        assert np.abs(diff).max() <= 1e-12


def test_channel_factorization_r_memory_family_cross_check():
    fam = memory_kernel_family()
    r = minimal_upper_R(fam, 3)
    assert math.isfinite(r) and r > 1.0
    # constant strings reproduce the per-kernel state-family certificates
    for letter in fam.base.alphabet:
        kernels = {letter: None}
        # rebuild the matching state family through the fcs machinery
        tau = fam.n_letter_output((letter,) * 3)
        single = fam.base.outputs[letter]
        prev = fam.n_letter_output((letter,) * 2)
        prod = product_state([prev, single])
        from oracles import minimal_r_by_bisection

        direct = minimal_r_by_bisection(tau.matrix, prod.matrix)
        assert direct <= r + 1e-8


@pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
def test_channel_factorization_r_matches_bisection_over_all_strings(upper):
    fam = memory_kernel_family()
    r = (minimal_upper_R if upper else minimal_lower_R)(fam, 3)
    direct = 1.0
    for length in (2, 3):
        for s in itertools.product(fam.base.alphabet, repeat=length):
            whole = fam.n_letter_output(s).matrix
            prod = product_state([fam.n_letter_output(s[:-1]), fam.base.outputs[s[-1]]]).matrix
            top, bottom = (whole, prod) if upper else (prod, whole)
            direct = max(direct, minimal_r_by_bisection(top, bottom))
    assert direct > 1.0
    assert abs(r - direct) <= 1e-8


def test_channel_factorization_r_under_reported_pencil_is_caught(monkeypatch):
    real = fcs_gibbs.pencil_eigvals
    monkeypatch.setattr(fcs_gibbs, "pencil_eigvals", lambda top, w, u: real(top, w, u) / 2.0)
    fam = memory_kernel_family()
    for certifier in (minimal_upper_R, minimal_lower_R):
        with pytest.raises(CertificationError, match="direct"):
            certifier(fam, 3)


def test_channel_lower_r_of_pure_outputs_is_one():
    # every n-letter output is the pure product of its letters' outputs, so
    # the product state equals it and the support-restricted pencil gives 1
    fam = memoryless_family(two_pure_channel(0.6))
    assert abs(minimal_lower_R(fam, 3) - 1.0) <= 1e-12
    with pytest.raises(CertificationError):
        minimal_upper_R(fam, 3)


def test_channel_factorization_guard():
    fam = memoryless_family(faithful_pair_channel())
    with pytest.raises(ResourceError):
        minimal_upper_R(fam, 20)


def test_capacity_moderate_directions():
    ch = bsc_channel(0.4)  # outputs close together keep c_p below log 4
    rep = holevo_capacity(ch)
    fam = memoryless_family(ch)
    n = 10
    lower_small_a = capacity_moderate(fam, 1e-9, n, "lower", rep)
    assert abs(lower_small_a - n * rep.chi_star) <= 1e-6
    upper = capacity_moderate(fam, 0.1, n, "upper_form", rep)
    lower = capacity_moderate(fam, 0.1, n, "lower", rep)
    assert lower <= upper + 1e-12
    assert abs(capacity_moderate(fam, 1e-9, n, "upper_form", rep) - n * rep.chi_star) <= 1e-6


def test_capacity_moderate_admissibility_rejections():
    ch = bsc_channel(0.1)  # c_p near 2 exceeds log 4
    rep = holevo_capacity(ch)
    fam = memoryless_family(ch)
    with pytest.raises(AdmissibilityError):
        capacity_moderate(fam, 0.1, 5, "lower", rep)
    ch2 = bsc_channel(0.4)
    rep2 = holevo_capacity(ch2)
    fam2 = memoryless_family(ch2)
    fam2.r_upper = math.exp(1.0)
    fam2.certified_n = 5
    with pytest.raises(AdmissibilityError):
        capacity_moderate(fam2, 0.1, 5, "lower", rep2)


def test_capacity_bounds_reject_r_below_one():
    # no factorization constant lies below 1; R = 0.5 gave a bound above the R = 1 value
    ch = bsc_channel(0.4)
    rep = holevo_capacity(ch)
    fam = memoryless_family(ch)
    fam.r_upper = 0.5
    with pytest.raises(DomainError):
        capacity_lower_factorized(fam, 4, 0.2, 0.05, rep)
    with pytest.raises(DomainError):
        capacity_moderate(fam, 0.1, 4, "lower", rep)
    fam.r_upper = 1.0
    assert capacity_lower_factorized(fam, 4, 0.2, 0.05, rep) <= 4 * rep.chi_star


def test_capacity_requires_certificate():
    fam = memory_kernel_family()
    with pytest.raises(CertificationError):
        capacity_lower_factorized(fam, 2, 0.2, 0.05)


def test_bounds_stay_below_n_chi_star():
    ch = bsc_channel(0.1)
    rep = holevo_capacity(ch)
    for n in (1, 2, 4):
        val = capacity_lower_memoryless(ch, n, 0.3, 0.1, rep)
        assert val <= n * rep.chi_star  # subtracted terms are nonnegative here


def test_channel_json_and_report_serialization():
    spec = {
        "alphabet": ["0", "1"],
        "outputs": {
            "0": state_to_json(density_matrix(np.diag([0.9, 0.1]).astype(complex))),
            "1": state_to_json(density_matrix(np.diag([0.1, 0.9]).astype(complex))),
        },
    }
    ch = channel_from_json(spec)
    rep = holevo_capacity(ch)
    as_json = capacity_report_to_json(rep)
    assert set(as_json) == {"chi_star", "prior", "sigma_star", "v_min", "duality_gap", "iterations"}
    with pytest.raises(DomainError):
        channel_from_json({"alphabet": ["0"]})


def test_step_pairs_memory_budget_refuses_before_building_outputs():
    # 2^n qubit outputs of side 2^n hold 8^n entries: n = 8 fills the budget
    # 4096^2 = 8^8 exactly, n = 9 exceeds it though 2^9 strings pass STRING_GUARD
    class Sentinel(Exception):
        pass

    def output(string):
        raise Sentinel(string)

    fam = CQChannelFamily(faithful_pair_channel(), output, "kernel")
    with pytest.raises(Sentinel):
        minimal_upper_R(fam, 8)
    for n in (9, 12):
        with pytest.raises(ResourceError):
            minimal_upper_R(fam, n)
