import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import classical_llr_atoms, classical_tail
from qhtbounds import (
    DomainError,
    SupportError,
    density_matrix,
    from_bloch,
    info_variance,
    maximally_mixed,
    measure_from_atoms,
    measure_mgf,
    optimal_type2,
    product_measure,
    product_state,
    pure_state,
    random_density,
    rel_entropy,
    relative_modular_measure,
    sup_norm_c,
    tail,
    tensor_pow,
)
from qhtbounds.modular import point_mass

FIG1_A = (-0.177483, 0.365807, 0.291007)
FIG1_B = (-0.452239, -0.141906, -0.159193)


def diag_state(probs):
    return density_matrix(np.diag(np.asarray(probs, dtype=complex)))


def test_measure_identical_maximally_mixed():
    m = relative_modular_measure(maximally_mixed(2), maximally_mixed(2))
    assert len(m.locations) == 1
    assert np.isclose(m.locations[0], 0.0, atol=1e-12)
    assert np.isclose(m.weights[0], 1.0, atol=1e-12)


def test_measure_classical_pair():
    p, q = [0.7, 0.3], [0.4, 0.6]
    m = relative_modular_measure(diag_state(p), diag_state(q))
    locs, wts = classical_llr_atoms(p, q)
    assert np.allclose(m.locations, locs, atol=1e-12)
    assert np.allclose(m.weights, wts, atol=1e-12)


def test_measure_reference_qubit_pair_moments():
    rho = from_bloch(FIG1_A)
    sig = from_bloch(FIG1_B)
    m = relative_modular_measure(rho, sig)
    assert len(m.locations) == 4
    assert abs(m.mean + rel_entropy(rho, sig)) <= 1e-9
    assert abs(m.variance - info_variance(rho, sig)) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_measure_moment_identities(dim):
    for seed in range(5):
        rho = random_density(dim, 1000 + seed)
        sig = random_density(dim, 2000 + seed)
        m = relative_modular_measure(rho, sig)
        assert abs(m.total_weight - 1.0) <= 1e-10
        assert abs(m.mean + rel_entropy(rho, sig)) <= 1e-9
        assert abs(m.variance - info_variance(rho, sig)) <= 1e-9
        assert abs(measure_mgf(m, 1.0) - 1.0) <= 1e-10


def test_measure_requires_faithful():
    with pytest.raises(SupportError):
        relative_modular_measure(pure_state([1, 0]), maximally_mixed(2))
    m = relative_modular_measure(pure_state([1, 0]), maximally_mixed(2), regularization=1e-10)
    assert abs(m.total_weight - 1.0) <= 1e-10


def test_sup_norm_c_examples():
    assert sup_norm_c(maximally_mixed(3), maximally_mixed(3)) <= 1e-12
    p, q = [0.7, 0.3], [0.4, 0.6]
    d = rel_entropy(diag_state(p), diag_state(q))
    expected = max(abs(math.log(qi / pi) + d) for pi in p for qi in q)
    assert abs(sup_norm_c(diag_state(p), diag_state(q)) - expected) <= 1e-12


def test_sup_norm_c_dominates_sqrt_variance():
    for seed in range(100):
        rho = random_density(2, 3000 + seed)
        sig = random_density(2, 4000 + seed)
        assert sup_norm_c(rho, sig) >= math.sqrt(info_variance(rho, sig)) - 1e-12


def test_tail_extremes():
    m = relative_modular_measure(random_density(2, 1), random_density(2, 2))
    assert abs(tail(m, -math.inf) - 1.0) <= 1e-10
    assert tail(m, m.locations[-1] + 1.0) == 0.0


def test_tail_classical():
    p, q = [0.2, 0.5, 0.3], [0.4, 0.4, 0.2]
    m = relative_modular_measure(diag_state(p), diag_state(q))
    for thr in (-1.0, -0.1, 0.0, 0.3):
        assert abs(tail(m, thr) - classical_tail(p, q, thr)) <= 1e-12


def test_mgf_basics():
    rho = random_density(3, 5)
    sig = random_density(3, 6)
    m = relative_modular_measure(rho, sig)
    assert abs(measure_mgf(m, 0.0) - 1.0) <= 1e-10
    d = rel_entropy(rho, sig)
    step = 1e-6
    deriv = (measure_mgf(m, step) - measure_mgf(m, -step)) / (2 * step)
    assert abs(deriv + d) <= 1e-4


def test_mgf_overflow_saturates():
    m = measure_from_atoms([1000.0], [1.0])
    assert measure_mgf(m, 10.0) == math.inf


def test_product_measure_point_mass_neutral():
    m = relative_modular_measure(random_density(2, 7), random_density(2, 8))
    conv = product_measure(m, point_mass(0.0))
    assert np.allclose(conv.locations, m.locations, atol=1e-12)
    assert np.allclose(conv.weights, m.weights, atol=1e-12)


def test_product_measure_matches_tensor_pair():
    rho1, sig1 = random_density(2, 9), random_density(2, 10)
    rho2, sig2 = random_density(3, 11), random_density(3, 12)
    # states built from the Kronecker matrices carry no factors: dense path
    direct = relative_modular_measure(
        density_matrix(np.kron(rho1.matrix, rho2.matrix)), density_matrix(np.kron(sig1.matrix, sig2.matrix))
    )
    conv = product_measure(
        relative_modular_measure(rho1, sig1), relative_modular_measure(rho2, sig2)
    )
    # compare as distributions on a grid of thresholds
    grid = np.linspace(direct.locations[0] - 0.1, direct.locations[-1] + 0.1, 200)
    for thr in grid:
        assert abs(tail(direct, thr) - tail(conv, thr)) <= 1e-10
    assert abs(direct.mean - conv.mean) <= 1e-10


def dense_copy(state):
    """The same state without its recorded factors, so it takes the dense path."""
    return replace(state, factors=())


def assert_same_measure(fast, dense):
    assert len(fast.locations) == len(dense.locations)
    assert np.abs(fast.locations - dense.locations).max() <= 1e-12
    assert np.abs(fast.weights - dense.weights).max() <= 1e-14


def factor_pairs():
    rho, sig = from_bloch(FIG1_A), from_bloch(FIG1_B)
    for k in (2, 4, 6):
        yield [(rho, sig)] * k
    yield [
        (random_density(2, 101), random_density(2, 102)),
        (random_density(3, 103), random_density(3, 104)),
        (random_density(2, 105), random_density(2, 106)),
    ]


@pytest.mark.parametrize("pairs", list(factor_pairs()), ids=["fig1^2", "fig1^4", "fig1^6", "2x3x2"])
def test_factor_path_matches_dense_path(pairs):
    rho = product_state([a for a, _ in pairs])
    sig = product_state([b for _, b in pairs])
    fast = relative_modular_measure(rho, sig)
    assert_same_measure(fast, relative_modular_measure(dense_copy(rho), dense_copy(sig)))
    d = sum(rel_entropy(a, b) for a, b in pairs)
    v = sum(info_variance(a, b) for a, b in pairs)
    assert abs(fast.total_weight - 1.0) <= 1e-10
    assert abs(fast.mean + d) <= 1e-9
    assert abs(fast.variance - v) <= 1e-9
    assert abs(measure_mgf(fast, 1.0) - 1.0) <= 1e-10


def test_factor_path_judges_faithfulness_on_the_product():
    # factor spectrum (1 - 1e-4, 1e-4): the 4th tensor power has minimum eigenvalue 1e-16
    u = random_density(2, 111).eigenvectors
    thin = density_matrix(u @ np.diag([1e-4, 1.0 - 1e-4]) @ u.conj().T)
    assert abs(thin.min_eigenvalue - 1e-4) <= 1e-15
    rho, sig = tensor_pow(thin, 4), tensor_pow(random_density(2, 112), 4)
    assert rho.min_eigenvalue <= 1e-12
    with pytest.raises(SupportError):
        relative_modular_measure(rho, sig)
    fast = relative_modular_measure(rho, sig, regularization=1e-10)
    dense = relative_modular_measure(dense_copy(rho), dense_copy(sig), regularization=1e-10)
    assert np.array_equal(fast.locations, dense.locations)
    assert np.array_equal(fast.weights, dense.weights)


def test_mismatched_factorizations_take_the_dense_path():
    a2, b3, c3, d2 = (random_density(dim, s) for dim, s in ((2, 121), (3, 122), (3, 123), (2, 124)))
    q4, r2 = random_density(4, 125), random_density(2, 126)
    for rho, sig in (
        (product_state([a2, b3]), product_state([c3, d2])),
        (product_state([a2, d2, a2]), product_state([q4, r2])),
        (product_state([a2, b3]), density_matrix(np.kron(d2.matrix, c3.matrix))),
    ):
        got = relative_modular_measure(rho, sig)
        want = relative_modular_measure(dense_copy(rho), dense_copy(sig))
        assert np.array_equal(got.locations, want.locations)
        assert np.array_equal(got.weights, want.weights)


def test_product_measure_mean_adds():
    a = relative_modular_measure(random_density(2, 13), random_density(2, 14))
    b = relative_modular_measure(random_density(2, 15), random_density(2, 16))
    conv = product_measure(a, b)
    assert abs(conv.mean - (a.mean + b.mean)) <= 1e-10


def test_reverse_markov_inequality():
    # P(e^X > x) >= E[(e^X - x)/e^X] for the positive variable e^X
    for seed in range(10):
        m = relative_modular_measure(random_density(3, 20 + seed), random_density(3, 40 + seed))
        exp_neg = float(m.weights @ np.exp(-m.locations))
        for x in np.linspace(0.05, 5.0, 30):
            lhs = float(m.weights[np.exp(m.locations) > x].sum())
            rhs = 1.0 - x * exp_neg
            assert lhs >= rhs - 1e-12


def test_threshold_test_contract():
    # the spectral threshold test guarantees alpha <= tail(mu, -log L) and
    # beta <= 1/L; achievability is certified against the exact oracle
    for seed in range(8):
        rho = random_density(2, 60 + seed)
        sig = random_density(2, 80 + seed)
        m = relative_modular_measure(rho, sig)
        d = rel_entropy(rho, sig)
        for log_l in np.linspace(d - 2.0, d + 1.0, 7):
            eps = tail(m, -log_l)
            if not 0.0 < eps < 1.0:
                continue
            assert optimal_type2(rho, sig, eps) <= math.exp(-log_l) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "locations, weights",
    [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [0.5, math.inf]),
    ],
)
def test_measure_from_atoms_rejects_non_finite(locations, weights):
    with pytest.raises(DomainError):
        measure_from_atoms(locations, weights)


def test_clustering_merges_and_keeps_tiny_weights():
    m = measure_from_atoms([0.0, 5e-10, 1.0], [0.25, 0.25, 0.5])
    assert len(m.locations) == 2
    assert np.isclose(m.weights[0], 0.5)
    tiny = measure_from_atoms([0.0, 1.0], [1.0 - 1e-16, 1e-16])
    assert len(tiny.locations) == 2  # weights below 1e-15 are kept


def test_clustering_does_not_chain():
    # each atom is within 1e-9 of the next, but a cluster spans at most 1e-9
    # from its lowest atom, so the 1,000 atoms pair up
    m = measure_from_atoms(np.arange(1000) * 0.9e-9, np.full(1000, 1e-3))
    assert len(m.locations) == 500
    assert np.allclose(m.weights, 2e-3, rtol=1e-12)
    assert np.allclose(m.locations, (np.arange(500) * 2 + 0.5) * 0.9e-9, rtol=0.0, atol=1e-20)


def test_measure_of_tensor_powers_never_builds_product_eigenvectors(monkeypatch):
    from qhtbounds import states

    a, b = from_bloch(FIG1_A), from_bloch(FIG1_B)
    seen = []

    def recording_kron(x, y):
        out = np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
        seen.append((out.shape[0], any(y is s.eigenvectors for s in (a, b))))
        return out

    monkeypatch.setattr(states, "kron", recording_kron)
    meas = relative_modular_measure(tensor_pow(a, 10), tensor_pow(b, 10))
    assert len(meas.locations) > 1
    assert (1024, False) in seen  # the matrices are still built
    assert not any(eigvecs for _, eigvecs in seen)
